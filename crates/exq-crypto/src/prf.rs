//! Keyed pseudo-random functions built on ChaCha20.
//!
//! The PRF maps arbitrary byte strings to pseudo-random output. It is used
//! for key derivation, block nonces and tags, Vernam pad generation, and
//! decoy synthesis. Construction: absorb the input into a 12-byte nonce
//! with a simple Merkle–Damgård-style compression over ChaCha blocks, then
//! emit keystream. This is *not* a general-purpose MAC design, but it is a
//! perfectly serviceable PRF for a research system where the adversary
//! model is the curious server of the paper.
//!
//! The absorb chain spends one ChaCha block per 12 input bytes and each
//! step needs the one before it, so a single evaluation cannot go faster
//! than the block function. Separate evaluations are independent, though:
//! the crate-internal `Prf::eval_u128_lanes` runs up to `N` of them in
//! lock-step on [`block_lanes`] (block tags go through it), and the
//! one-input functions are its `N = 1` instance. OPE coins do not go
//! through the absorb chain at all: each is one keystream block named by
//! its tree node ([`crate::ope`]).

use crate::chacha::{block_lanes, key_words, nonce_words, ChaCha20, MIN_BUSY_LANES};

/// A keyed PRF.
#[derive(Clone)]
pub struct Prf {
    key: [u32; 8],
}

impl std::fmt::Debug for Prf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Prf(<key redacted>)")
    }
}

/// The `k`-th 12-byte chunk of `input` as three little-endian words, the
/// last chunk zero-padded: what one absorb step takes in.
pub(crate) fn chunk_words(input: &[u8], k: usize) -> [u32; 3] {
    let rest = &input[k * 12..];
    let mut chunk = [0u8; 12];
    match rest.get(..12) {
        Some(full) => chunk.copy_from_slice(full),
        None => chunk[..rest.len()].copy_from_slice(rest),
    }
    nonce_words(&chunk)
}

impl Prf {
    pub fn new(key: [u8; 32]) -> Self {
        Self {
            key: key_words(&key),
        }
    }

    /// Derives a fresh 32-byte subkey for a named purpose.
    pub fn derive_key(&self, purpose: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill(purpose.as_bytes(), &mut out);
        out
    }

    /// Fills `out` with PRF output for `input`.
    pub fn fill(&self, input: &[u8], out: &mut [u8]) {
        let nonce = self.absorb_lanes::<1>(&[input.len()], |_, k| chunk_words(input, k));
        let cipher = ChaCha20::from_words(self.key, nonce.map(|[w]| w));
        for (i, chunk) in out.chunks_mut(64).enumerate() {
            let ks = cipher.block(i as u32);
            chunk.copy_from_slice(&ks[..chunk.len()]);
        }
    }

    /// PRF output as a u64.
    pub fn eval_u64(&self, input: &[u8]) -> u64 {
        let mut buf = [0u8; 8];
        self.fill(input, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// PRF output as a u128.
    pub fn eval_u128(&self, input: &[u8]) -> u128 {
        let mut buf = [0u8; 16];
        self.fill(input, &mut buf);
        u128::from_le_bytes(buf)
    }

    /// [`eval_u128`](Self::eval_u128) of up to `N` inputs at once. Input `l`
    /// is `lens[l]` bytes long and is read through `chunk(l, k)`, its `k`-th
    /// 12-byte chunk in [`chunk_words`] form, so a caller whose input is a
    /// concatenation never has to build it. Entries of the result past
    /// `lens.len()` mean nothing.
    pub(crate) fn eval_u128_lanes<const N: usize>(
        &self,
        lens: &[usize],
        chunk: impl Fn(usize, usize) -> [u32; 3],
    ) -> [u128; N] {
        let nonces = self.absorb_lanes::<N>(lens, chunk);
        if lens.len() >= MIN_BUSY_LANES {
            return first_16_bytes(&self.key, &nonces);
        }
        let mut out = [0; N];
        for (l, one) in out.iter_mut().enumerate().take(lens.len()) {
            [*one] = first_16_bytes(&self.key, &nonces.map(|w| [w[l]]));
        }
        out
    }

    /// Compresses each input (see [`eval_u128_lanes`](Self::eval_u128_lanes)
    /// for how they are given) to a 12-byte nonce by chaining ChaCha blocks
    /// over its 12-byte chunks, a length block first to defend against
    /// trivial extension collisions.
    ///
    /// The chains advance together, one [`block_lanes`] call per step, for
    /// as long as [`MIN_BUSY_LANES`] of them still have input; a lane whose
    /// input has run out keeps its state through a branch-free select. The
    /// few chains that are longer than the rest finish one at a time.
    fn absorb_lanes<const N: usize>(
        &self,
        lens: &[usize],
        chunk: impl Fn(usize, usize) -> [u32; 3],
    ) -> [[u32; N]; 3] {
        assert!(lens.len() <= N, "more inputs than lanes");
        let key = &self.key;
        // Step 0 of a chain takes the length block, step `k` chunk `k - 1`.
        let mut steps = [0; N];
        for (n, len) in steps.iter_mut().zip(lens) {
            *n = 1 + len.div_ceil(12);
        }
        let input = |l: usize, k: usize| match k {
            0 => length_block(lens[l]),
            _ => chunk(l, k - 1),
        };
        // Word-sliced like the block function's state: `state[w][l]` is
        // word `w` of lane `l`'s chaining value.
        let mut state = [[0u32; N]; 3];
        let mut block = [[0u32; N]; 3];
        // `done`: steps taken so far by every lane that has that many
        let mut done = 0;
        while steps.iter().filter(|&&n| n > done).count() >= MIN_BUSY_LANES {
            let mut live = [0u32; N];
            for l in 0..N {
                if done < steps[l] {
                    set_lane(&mut block, l, input(l, done));
                    live[l] = !0;
                }
            }
            let next = compress(key, &state, &block);
            for w in 0..3 {
                for l in 0..N {
                    state[w][l] = (next[w][l] & live[l]) | (state[w][l] & !live[l]);
                }
            }
            done += 1;
        }
        for l in 0..lens.len() {
            let mut one = state.map(|w| [w[l]]);
            for k in done..steps[l] {
                one = compress(key, &one, &input(l, k).map(|w| [w]));
            }
            set_lane(&mut state, l, one.map(|[w]| w));
        }
        state
    }
}

/// What the first absorb step takes in: the input's length.
fn length_block(len: usize) -> [u32; 3] {
    [len as u32, (len as u64 >> 32) as u32, 0]
}

fn set_lane<const N: usize>(sliced: &mut [[u32; N]; 3], l: usize, words: [u32; 3]) {
    for (lanes, word) in sliced.iter_mut().zip(words) {
        lanes[l] = word;
    }
}

/// One absorb step on every lane: `E(state ^ block) ^ block`, where `E` is
/// the first 12 bytes of the ChaCha block whose nonce is its argument.
#[inline(always)]
fn compress<const N: usize>(
    key: &[u32; 8],
    state: &[[u32; N]; 3],
    block: &[[u32; N]; 3],
) -> [[u32; N]; 3] {
    let xor = |a: &[u32; N], b: &[u32; N]| core::array::from_fn(|l| a[l] ^ b[l]);
    let nonces = core::array::from_fn(|w| xor(&state[w], &block[w]));
    let ks = block_lanes::<N>(key, &[COMPRESS_COUNTER; N], &nonces);
    core::array::from_fn(|w| xor(&ks[w], &block[w]))
}

/// The first 16 keystream bytes under each nonce, as a little-endian `u128`.
fn first_16_bytes<const N: usize>(key: &[u32; 8], nonces: &[[u32; N]; 3]) -> [u128; N] {
    let ks = block_lanes::<N>(key, &[0; N], nonces);
    core::array::from_fn(|l| (0..4).fold(0, |acc, w| acc | (ks[w][l] as u128) << (32 * w)))
}

/// Domain-separation counter for the compression function, far away from the
/// sequential counters used for keystream output.
const COMPRESS_COUNTER: u32 = 0xFEED_BEEF;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha::LANES;

    #[test]
    fn deterministic() {
        let p = Prf::new([1u8; 32]);
        assert_eq!(p.eval_u64(b"hello"), p.eval_u64(b"hello"));
        assert_eq!(p.eval_u128(b"hello"), p.eval_u128(b"hello"));
    }

    #[test]
    fn input_sensitivity() {
        let p = Prf::new([1u8; 32]);
        assert_ne!(p.eval_u64(b"hello"), p.eval_u64(b"hellp"));
        assert_ne!(p.eval_u64(b""), p.eval_u64(b"\0"));
        assert_ne!(p.eval_u64(b"ab"), p.eval_u64(b"a\0"));
    }

    #[test]
    fn key_sensitivity() {
        let a = Prf::new([1u8; 32]);
        let b = Prf::new([2u8; 32]);
        assert_ne!(a.eval_u64(b"x"), b.eval_u64(b"x"));
    }

    #[test]
    fn derive_key_distinct_purposes() {
        let p = Prf::new([1u8; 32]);
        assert_ne!(p.derive_key("block"), p.derive_key("tag"));
        assert_eq!(p.derive_key("block"), p.derive_key("block"));
    }

    #[test]
    fn fill_lengths() {
        let p = Prf::new([5u8; 32]);
        let mut a = [0u8; 100];
        p.fill(b"in", &mut a);
        let mut b = [0u8; 100];
        p.fill(b"in", &mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
    }

    #[test]
    fn long_inputs() {
        let p = Prf::new([5u8; 32]);
        let long1 = vec![0x11u8; 1000];
        let mut long2 = long1.clone();
        long2[999] = 0x12;
        assert_ne!(p.eval_u64(&long1), p.eval_u64(&long2));
    }

    /// A crude avalanche sanity check: outputs over a counter sequence look
    /// roughly balanced per bit.
    #[test]
    fn output_bits_balanced() {
        let p = Prf::new([9u8; 32]);
        let n = 2000u64;
        let mut ones = [0u32; 64];
        for i in 0..n {
            let v = p.eval_u64(&i.to_le_bytes());
            for (b, c) in ones.iter_mut().enumerate() {
                *c += ((v >> b) & 1) as u32;
            }
        }
        for &c in &ones {
            let frac = c as f64 / n as f64;
            assert!((0.42..0.58).contains(&frac), "biased bit: {frac}");
        }
    }

    /// The lock-step evaluation against the one-input one: inputs whose
    /// lengths straddle the 12-byte chunk boundary and differ widely inside
    /// one batch (so lanes run out at different steps and the longest finish
    /// alone), at batch sizes below, at and above the busy-lane threshold.
    #[test]
    fn lanes_match_one_at_a_time() {
        let p = Prf::new([5u8; 32]);
        let lens = [
            0usize, 1, 11, 12, 13, 23, 24, 25, 64, 100, 7, 36, 35, 37, 300, 2,
        ];
        let inputs: Vec<Vec<u8>> = lens
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect())
            .collect();
        for count in [0, 1, MIN_BUSY_LANES - 1, MIN_BUSY_LANES, 9, LANES] {
            let batch = &inputs[..count];
            let lens: Vec<usize> = batch.iter().map(Vec::len).collect();
            let out = p.eval_u128_lanes::<LANES>(&lens, |l, k| chunk_words(&batch[l], k));
            for (l, input) in batch.iter().enumerate() {
                assert_eq!(out[l], p.eval_u128(input), "batch of {count}, input {l}");
            }
        }
    }
}
