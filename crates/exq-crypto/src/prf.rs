//! Keyed pseudo-random functions built on ChaCha20.
//!
//! The PRF maps arbitrary byte strings to pseudo-random output. It is used
//! for key derivation, block nonces, Vernam pad generation, and decoy
//! synthesis. Construction: absorb the input into a 12-byte nonce with a
//! simple Merkle–Damgård-style compression over ChaCha blocks, then emit
//! keystream. This is *not* a general-purpose MAC design, but it is a
//! perfectly serviceable PRF for a research system where the adversary
//! model is the curious server of the paper. Block tags do not go through
//! it: they are RFC 8439's Poly1305 ([`crate::block`]).
//!
//! The absorb chain spends one ChaCha block per 12 input bytes and each
//! step needs the one before it, so an evaluation cannot go faster than
//! the block function; its inputs are short (a label and a counter, or an
//! inserted block). OPE coins do not go through the absorb chain at all:
//! each is one keystream block named by its tree node ([`crate::ope`]).

use crate::chacha::{block_lanes, key_words, nonce_words, ChaCha20};

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
fn chunk_words(input: &[u8], k: usize) -> [u32; 3] {
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
        let cipher = ChaCha20::from_words(self.key, self.absorb(input));
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

    /// Compresses `input` to a 12-byte nonce by chaining ChaCha blocks over
    /// its 12-byte chunks, a length block first to defend against trivial
    /// extension collisions.
    fn absorb(&self, input: &[u8]) -> [u32; 3] {
        let chunks = (0..input.len().div_ceil(12)).map(|k| chunk_words(input, k));
        std::iter::once(length_block(input.len()))
            .chain(chunks)
            .fold([0; 3], |state, block| compress(&self.key, state, block))
    }
}

/// What the first absorb step takes in: the input's length.
fn length_block(len: usize) -> [u32; 3] {
    [len as u32, (len as u64 >> 32) as u32, 0]
}

/// One absorb step: `E(state ^ block) ^ block`, where `E` is the first 12
/// bytes of the ChaCha block whose nonce is its argument.
fn compress(key: &[u32; 8], state: [u32; 3], block: [u32; 3]) -> [u32; 3] {
    let nonce = core::array::from_fn(|w| [state[w] ^ block[w]]);
    let ks = block_lanes::<1>(key, &[COMPRESS_COUNTER], &nonce);
    core::array::from_fn(|w| ks[w][0] ^ block[w])
}

/// Domain-separation counter for the compression function, far away from the
/// sequential counters used for keystream output.
const COMPRESS_COUNTER: u32 = 0xFEED_BEEF;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let p = Prf::new([1u8; 32]);
        assert_eq!(p.eval_u64(b"hello"), p.eval_u64(b"hello"));
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
}
