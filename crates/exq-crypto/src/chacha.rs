//! The ChaCha20 stream cipher (RFC 7539 core function).
//!
//! This is the workhorse primitive of the crate: block encryption XORs the
//! keystream over serialized subtrees, and [`crate::prf`] uses single blocks
//! as a PRF.
//!
//! There is one source of the block function, [`block_lanes`]: `N`
//! independent blocks computed side by side, the state held word-sliced
//! (`state[w][l]` is word `w` of lane `l`'s block) so that every step of a
//! quarter-round is the same operation on `N` adjacent `u32`s, a loop the
//! compiler vectorises. [`ChaCha20::block`] is its `N = 1` instance and the
//! reference; the batch paths of [`crate::prf`], [`crate::block`] and
//! [`crate::ope`] run it [`LANES`] wide. On x86-64 the wide instance is
//! also compiled for AVX2, and has one hand-scheduled instance for
//! AVX-512F; [`block_lanes`] picks by CPU detection, never by a flag.
//!
//! Why intrinsics for AVX-512: sixteen lanes of sixteen words are exactly
//! sixteen `zmm` registers, but the generic source compiled for AVX-512
//! still keeps its 1 KiB state on the stack and gains little. On a 2-core
//! x86-64 host (Intel family 6 model 207), per block of a sixteen-lane
//! call: 56–91 ns portable, 23–32 ns AVX2, 19–25 ns the generic source
//! under AVX-512, and 12–13 ns the hand-scheduled instance, whose state
//! never leaves the registers. One block alone costs 119–127 ns.

/// ChaCha20 constants: `"expand 32-byte k"` as four little-endian words.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Width of the batch paths: sixteen `u32` lanes fill one 512-bit, two
/// 256-bit or four 128-bit vector registers per state word.
pub const LANES: usize = 16;

/// A batch path pays for every lane whether or not it carries work, so it
/// hands over to the one-block path when fewer lanes than this are busy
/// (a [`LANES`]-wide block costs about as much as this many single ones).
pub(crate) const MIN_BUSY_LANES: usize = 4;

/// A 256-bit key as the eight little-endian words the block function takes.
pub(crate) fn key_words(key: &[u8; 32]) -> [u32; 8] {
    core::array::from_fn(|i| u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap()))
}

/// A 96-bit nonce as three little-endian words.
pub(crate) fn nonce_words(nonce: &[u8; 12]) -> [u32; 3] {
    core::array::from_fn(|i| u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().unwrap()))
}

/// A ChaCha20 keystream generator for one (key, nonce) pair.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

impl ChaCha20 {
    /// Creates a cipher instance from a 256-bit key and 96-bit nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        Self {
            key: key_words(key),
            nonce: nonce_words(nonce),
        }
    }

    /// The same, from a key and nonce already in [`block_lanes`]' word form.
    pub(crate) fn from_words(key: [u32; 8], nonce: [u32; 3]) -> Self {
        Self { key, nonce }
    }

    /// Produces the 64-byte keystream block for the given counter.
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let words = block_lanes::<1>(&self.key, &[counter], &self.nonce.map(|w| [w]));
        let mut out = [0u8; 64];
        for (bytes, word) in out.chunks_exact_mut(4).zip(&words) {
            bytes.copy_from_slice(&word[0].to_le_bytes());
        }
        out
    }

    /// XORs the keystream (starting at block counter `counter0`) into `data`.
    /// Applying it twice with the same parameters decrypts.
    pub fn apply_keystream(&self, counter0: u32, data: &mut [u8]) {
        let mut counter = counter0;
        let mut rest = data;
        // Consecutive counters of one nonce are independent blocks: lanes.
        while rest.len() >= 64 * MIN_BUSY_LANES {
            let (wide, tail) = rest.split_at_mut(rest.len().min(64 * LANES));
            let counters = core::array::from_fn(|l| counter.wrapping_add(l as u32));
            let ks = block_lanes::<LANES>(&self.key, &counters, &self.nonce.map(|w| [w; LANES]));
            for (l, chunk) in wide.chunks_mut(64).enumerate() {
                xor_lane(&ks, l, chunk);
            }
            counter = counter.wrapping_add(LANES as u32);
            rest = tail;
        }
        for chunk in rest.chunks_mut(64) {
            let ks = self.block(counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }
}

/// XORs lane `l` of a word-sliced keystream block into `data` (at most 64
/// bytes).
#[inline]
pub(crate) fn xor_lane<const N: usize>(ks: &[[u32; N]; 16], l: usize, data: &mut [u8]) {
    debug_assert!(data.len() <= 64);
    let whole = data.len() / 4;
    let mut words = data.chunks_exact_mut(4);
    for (bytes, word) in (&mut words).zip(ks) {
        let x = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) ^ word[l];
        bytes.copy_from_slice(&x.to_le_bytes());
    }
    let tail = words.into_remainder();
    if !tail.is_empty() {
        let k = ks[whole][l].to_le_bytes();
        tail.iter_mut().zip(k).for_each(|(b, k)| *b ^= k);
    }
}

/// `N` ChaCha20 blocks under one key: lane `l` has block counter
/// `counters[l]` and nonce words `nonces[0][l]`, `nonces[1][l]`,
/// `nonces[2][l]`. Word `w` of lane `l`'s 64-byte output block is
/// `result[w][l]` (serialize words little-endian, in order, for the RFC's
/// byte string).
pub fn block_lanes<const N: usize>(
    key: &[u32; 8],
    counters: &[u32; N],
    nonces: &[[u32; N]; 3],
) -> [[u32; N]; 16] {
    #[cfg(target_arch = "x86_64")]
    {
        if N == LANES && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU was just found to support AVX-512F, the one
            // requirement of `block_lanes_avx512`; `N == LANES`, as its
            // assert asks.
            return unsafe { block_lanes_avx512(key, counters, nonces) };
        }
        if N > 1 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU was just found to support AVX2, the one
            // requirement of `block_lanes_avx2`.
            return unsafe { block_lanes_avx2(key, counters, nonces) };
        }
    }
    block_lanes_generic(key, counters, nonces)
}

/// [`block_lanes_generic`] for exactly [`LANES`] lanes, scheduled by hand
/// for AVX-512F: word `w` of all sixteen lanes is one `__m512i`, so the
/// whole state is sixteen registers and each step of a quarter-round is one
/// instruction (`vpaddd`, `vpxord` or `vprold`). The compiler keeps the
/// generic source's 1 KiB state on the stack instead.
///
/// # Safety
/// The CPU must support AVX-512F. (An `N` other than [`LANES`] panics.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn block_lanes_avx512<const N: usize>(
    key: &[u32; 8],
    counters: &[u32; N],
    nonces: &[[u32; N]; 3],
) -> [[u32; N]; 16] {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_rol_epi32, _mm512_set1_epi32,
        _mm512_storeu_si512, _mm512_xor_si512,
    };
    assert!(N == LANES, "the AVX-512 instance is {LANES} lanes wide");
    let splat = |w: u32| _mm512_set1_epi32(w as i32);
    // SAFETY: each `[u32; N]` is `N == LANES` words, 64 bytes, so every
    // load here and store below stays inside its array.
    let load = |lanes: &[u32; N]| _mm512_loadu_si512(lanes.as_ptr().cast());
    let init: [__m512i; 16] = [
        splat(CONSTANTS[0]),
        splat(CONSTANTS[1]),
        splat(CONSTANTS[2]),
        splat(CONSTANTS[3]),
        splat(key[0]),
        splat(key[1]),
        splat(key[2]),
        splat(key[3]),
        splat(key[4]),
        splat(key[5]),
        splat(key[6]),
        splat(key[7]),
        load(counters),
        load(&nonces[0]),
        load(&nonces[1]),
        load(&nonces[2]),
    ];
    // Every index below is a literal, so each `x[i]` is a register.
    let mut x = init;
    macro_rules! quarter_round {
        ($a:literal, $b:literal, $c:literal, $d:literal) => {
            x[$a] = _mm512_add_epi32(x[$a], x[$b]);
            x[$d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[$d], x[$a]));
            x[$c] = _mm512_add_epi32(x[$c], x[$d]);
            x[$b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[$b], x[$c]));
            x[$a] = _mm512_add_epi32(x[$a], x[$b]);
            x[$d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[$d], x[$a]));
            x[$c] = _mm512_add_epi32(x[$c], x[$d]);
            x[$b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[$b], x[$c]));
        };
    }
    for _ in 0..10 {
        // column rounds
        quarter_round!(0, 4, 8, 12);
        quarter_round!(1, 5, 9, 13);
        quarter_round!(2, 6, 10, 14);
        quarter_round!(3, 7, 11, 15);
        // diagonal rounds
        quarter_round!(0, 5, 10, 15);
        quarter_round!(1, 6, 11, 12);
        quarter_round!(2, 7, 8, 13);
        quarter_round!(3, 4, 9, 14);
    }
    let mut out = [[0u32; N]; 16];
    for ((lanes, word), start) in out.iter_mut().zip(x).zip(init) {
        _mm512_storeu_si512(lanes.as_mut_ptr().cast(), _mm512_add_epi32(word, start));
    }
    out
}

/// [`block_lanes_generic`] compiled with AVX2 enabled: the same source, so
/// the same result, with the lane loops vectorised eight wide.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block_lanes_avx2<const N: usize>(
    key: &[u32; 8],
    counters: &[u32; N],
    nonces: &[[u32; N]; 3],
) -> [[u32; N]; 16] {
    block_lanes_generic(key, counters, nonces)
}

#[inline(always)]
fn block_lanes_generic<const N: usize>(
    key: &[u32; 8],
    counters: &[u32; N],
    nonces: &[[u32; N]; 3],
) -> [[u32; N]; 16] {
    let mut state = [[0u32; N]; 16];
    for (i, &c) in CONSTANTS.iter().enumerate() {
        state[i] = [c; N];
    }
    for (i, &k) in key.iter().enumerate() {
        state[4 + i] = [k; N];
    }
    state[12] = *counters;
    state[13..16].copy_from_slice(nonces);

    let mut w = state;
    for _ in 0..10 {
        // column rounds
        quarter_round(&mut w, 0, 4, 8, 12);
        quarter_round(&mut w, 1, 5, 9, 13);
        quarter_round(&mut w, 2, 6, 10, 14);
        quarter_round(&mut w, 3, 7, 11, 15);
        // diagonal rounds
        quarter_round(&mut w, 0, 5, 10, 15);
        quarter_round(&mut w, 1, 6, 11, 12);
        quarter_round(&mut w, 2, 7, 8, 13);
        quarter_round(&mut w, 3, 4, 9, 14);
    }
    for (out, init) in w.iter_mut().zip(&state) {
        for l in 0..N {
            out[l] = out[l].wrapping_add(init[l]);
        }
    }
    w
}

/// One quarter-round on every lane. Each line is one step of the RFC's
/// quarter-round applied across the lanes, which is the shape the
/// vectoriser recognises.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `l` indexes the four words' lanes, not `s`
fn quarter_round<const N: usize>(s: &mut [[u32; N]; 16], a: usize, b: usize, c: usize, d: usize) {
    for l in 0..N {
        s[a][l] = s[a][l].wrapping_add(s[b][l]);
        s[d][l] = (s[d][l] ^ s[a][l]).rotate_left(16);
        s[c][l] = s[c][l].wrapping_add(s[d][l]);
        s[b][l] = (s[b][l] ^ s[c][l]).rotate_left(12);
        s[a][l] = s[a][l].wrapping_add(s[b][l]);
        s[d][l] = (s[d][l] ^ s[a][l]).rotate_left(8);
        s[c][l] = s[c][l].wrapping_add(s[d][l]);
        s[b][l] = (s[b][l] ^ s[c][l]).rotate_left(7);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.1.1 quarter-round test vector.
    #[test]
    fn quarter_round_vector() {
        let mut s = [[0u32; 1]; 16];
        s[0] = [0x1111_1111];
        s[1] = [0x0102_0304];
        s[2] = [0x9b8d_6f43];
        s[3] = [0x0123_4567];
        quarter_round(&mut s, 0, 1, 2, 3);
        assert_eq!(s[0], [0xea2a_92f4]);
        assert_eq!(s[1], [0xcb1c_f8ce]);
        assert_eq!(s[2], [0x4581_472e]);
        assert_eq!(s[3], [0x5881_c4bb]);
    }

    const RFC_KEY: [u8; 32] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
        25, 26, 27, 28, 29, 30, 31,
    ];

    /// RFC 7539 §2.3.2: the serialized block for counter 1.
    const RFC_BLOCK: [u8; 64] = [
        0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20, 0x71,
        0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4,
        0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05, 0xd9,
        0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9, 0xcb, 0xd0, 0x83, 0xe8,
        0xa2, 0x50, 0x3c, 0x4e,
    ];

    /// RFC 7539 §2.4.2: plaintext and its ciphertext from block counter 1.
    const RFC_PLAINTEXT: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer \
you only one tip for the future, sunscreen would be it.";
    const RFC_CIPHERTEXT: [u8; 114] = [
        0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d, 0x69,
        0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc, 0xfd, 0x9f,
        0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab, 0x8f, 0x59, 0x3d, 0xab, 0xcd,
        0x62, 0xb3, 0x57, 0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab, 0x8f, 0x53, 0x0c, 0x35,
        0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d, 0x6a, 0x61, 0x56, 0xa3, 0x8e,
        0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d, 0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c,
        0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9, 0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4,
        0x0b, 0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d,
    ];

    /// Every way the sixteen-wide block function is compiled on this host,
    /// by name: the dispatching entry point, the portable instance, and the
    /// AVX2 and AVX-512 ones where the CPU has them.
    type Wide = fn(&[u32; 8], &[u32; LANES], &[[u32; LANES]; 3]) -> [[u32; LANES]; 16];
    fn wide_instances() -> Vec<(&'static str, Wide)> {
        let mut all: Vec<(&'static str, Wide)> = vec![
            ("dispatched", block_lanes::<LANES>),
            ("portable", block_lanes_generic::<LANES>),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was just detected.
                all.push(("avx2", |k, c, n| unsafe { block_lanes_avx2(k, c, n) }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F was just detected, and the lanes are
                // `LANES` wide.
                all.push(("avx512", |k, c, n| unsafe { block_lanes_avx512(k, c, n) }));
            }
        }
        all
    }

    /// Lane `l` of a word-sliced result as the RFC's byte string.
    fn lane_bytes(words: &[[u32; LANES]; 16], l: usize) -> [u8; 64] {
        let mut out = [0u8; 64];
        xor_lane(words, l, &mut out);
        out
    }

    /// RFC 7539 §2.3.2 block function test vector, through the one-block
    /// instance and through every lane of every wide one.
    #[test]
    fn block_function_vector() {
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        assert_eq!(ChaCha20::new(&RFC_KEY, &nonce).block(1), RFC_BLOCK);
        let nonces = nonce_words(&nonce).map(|w| [w; LANES]);
        for (name, wide) in wide_instances() {
            let out = wide(&key_words(&RFC_KEY), &[1; LANES], &nonces);
            for l in 0..LANES {
                assert_eq!(lane_bytes(&out, l), RFC_BLOCK, "{name}, lane {l}");
            }
        }
    }

    /// RFC 7539 §2.4.2 encryption test vector: through `apply_keystream`,
    /// and with the two keystream blocks taken from lanes of each wide
    /// instance (counters 1 and 2 sit in lanes 5 and 11 of a busy batch).
    #[test]
    fn encryption_vector() {
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = RFC_PLAINTEXT.to_vec();
        ChaCha20::new(&RFC_KEY, &nonce).apply_keystream(1, &mut data);
        assert_eq!(data, RFC_CIPHERTEXT);

        let nonces = nonce_words(&nonce).map(|w| [w; LANES]);
        let mut counters: [u32; LANES] = core::array::from_fn(|l| 100 + l as u32);
        (counters[5], counters[11]) = (1, 2);
        for (name, wide) in wide_instances() {
            let ks = wide(&key_words(&RFC_KEY), &counters, &nonces);
            let mut out = RFC_PLAINTEXT.to_vec();
            let (first, second) = out.split_at_mut(64);
            xor_lane(&ks, 5, first);
            xor_lane(&ks, 11, second);
            assert_eq!(out, RFC_CIPHERTEXT, "{name}");
        }
    }

    proptest::proptest! {
        /// Every lane of every wide instance is the one-block function of
        /// that lane's counter and nonce.
        #[test]
        fn every_lane_is_the_scalar_block(
            key in proptest::prelude::any::<[u8; 32]>(),
            counters in proptest::prelude::any::<[u32; 16]>(),
            nonces in proptest::collection::vec(proptest::prelude::any::<[u8; 12]>(), 16),
        ) {
            let sliced = core::array::from_fn(|w| core::array::from_fn(|l| nonce_words(&nonces[l])[w]));
            for (name, wide) in wide_instances() {
                let out = wide(&key_words(&key), &counters, &sliced);
                for l in 0..LANES {
                    let scalar = ChaCha20::new(&key, &nonces[l]).block(counters[l]);
                    proptest::prop_assert_eq!(lane_bytes(&out, l), scalar, "{}, lane {}", name, l);
                }
            }
        }

        /// `apply_keystream` is the per-block XOR whatever mix of wide and
        /// single blocks a length takes, counter wrap included.
        #[test]
        fn keystream_is_block_by_block(
            key in proptest::prelude::any::<[u8; 32]>(),
            nonce in proptest::prelude::any::<[u8; 12]>(),
            counter0 in proptest::prop_oneof![0u32..4, (u32::MAX - 20)..=u32::MAX],
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2400),
        ) {
            let cipher = ChaCha20::new(&key, &nonce);
            let mut expected = data.clone();
            for (i, chunk) in expected.chunks_mut(64).enumerate() {
                let ks = cipher.block(counter0.wrapping_add(i as u32));
                chunk.iter_mut().zip(ks).for_each(|(b, k)| *b ^= k);
            }
            let mut got = data;
            cipher.apply_keystream(counter0, &mut got);
            proptest::prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn keystream_roundtrip() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let c = ChaCha20::new(&key, &nonce);
        let mut data = b"attack at dawn, bring the umbrella and the long ladder too!".to_vec();
        let orig = data.clone();
        c.apply_keystream(0, &mut data);
        assert_ne!(data, orig);
        c.apply_keystream(0, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn different_nonces_differ() {
        let key = [7u8; 32];
        let a = ChaCha20::new(&key, &[0u8; 12]).block(0);
        let b = ChaCha20::new(&key, &[1u8; 12]).block(0);
        assert_ne!(a, b);
    }

    #[test]
    fn different_counters_differ() {
        let key = [7u8; 32];
        let c = ChaCha20::new(&key, &[0u8; 12]);
        assert_ne!(c.block(0), c.block(1));
    }

    #[test]
    fn multi_block_messages() {
        let key = [9u8; 32];
        let nonce = [1u8; 12];
        let c = ChaCha20::new(&key, &nonce);
        let mut data = vec![0xABu8; 200];
        c.apply_keystream(5, &mut data);
        // decrypting the tail alone with the right counter offset works
        let mut tail = data[128..].to_vec();
        c.apply_keystream(7, &mut tail);
        assert!(tail.iter().all(|&b| b == 0xAB));
    }
}
