//! Poly1305 (RFC 8439 §2.5), the one-time authenticator under the block
//! tag ([`crate::block`]).
//!
//! Scalar, on two 64-bit limbs of `r` and three of the accumulator, with
//! `u128` products: a 16-byte block is four multiplies and a partial
//! reduction modulo `p = 2^130 - 5`. The block tag pads every input to
//! whole 16-byte blocks, so each block carries the `2^128` bit and no
//! partial-block form is needed. A message is one chain, each block
//! waiting on the last; the block path runs a few messages' chains
//! interleaved so that their multiplies overlap.

/// A Poly1305 accumulator under one one-time key.
#[derive(Clone, Copy, Default)]
pub(crate) struct Poly1305 {
    r0: u64,
    r1: u64,
    /// `r1 + r1 / 4`: clamping clears `r1`'s low two bits, so `r1 · 2^128`
    /// is `s1 · 2^64` modulo `p` (`2^130 ≡ 5`).
    s1: u64,
    h: [u64; 3],
    /// The key's second half, added to the accumulator at the end.
    s: u128,
}

impl Poly1305 {
    /// An accumulator under the 32-byte one-time key given as eight
    /// little-endian words (the first eight words of a ChaCha20 block).
    pub(crate) fn new(key: [u32; 8]) -> Self {
        let word = |i: usize| key[i] as u64 | (key[i + 1] as u64) << 32;
        let r0 = word(0) & 0x0fff_fffc_0fff_ffff;
        let r1 = word(2) & 0x0fff_fffc_0fff_fffc;
        Poly1305 {
            r0,
            r1,
            s1: r1 + (r1 >> 2),
            h: [0; 3],
            s: word(4) as u128 | (word(6) as u128) << 64,
        }
    }

    /// Absorbs one whole block, given as two little-endian words:
    /// `h ← (h + m + 2^128) · r`, partially reduced.
    #[inline(always)]
    pub(crate) fn block(&mut self, [m0, m1]: [u64; 2]) {
        let [h0, h1, h2] = self.h;
        let t0 = h0 as u128 + m0 as u128;
        let t1 = h1 as u128 + m1 as u128 + (t0 >> 64);
        let (h0, h1, h2) = (t0 as u64, t1 as u64, h2 + (t1 >> 64) as u64 + 1);
        let mul = |a: u64, b: u64| a as u128 * b as u128;
        // `h2` is at most 6 and `r0`, `s1` below 2^61, so their products
        // fit a `u64`.
        let d0 = mul(h0, self.r0) + mul(h1, self.s1);
        let d1 = mul(h0, self.r1) + mul(h1, self.r0) + (h2 * self.s1) as u128 + (d0 >> 64);
        let d2 = h2 * self.r0 + (d1 >> 64) as u64;
        // What lies above bit 130 comes back in five times over.
        let c = (d2 >> 2) + (d2 & !3);
        let t0 = d0 as u64 as u128 + c as u128;
        let t1 = d1 as u64 as u128 + (t0 >> 64);
        self.h = [t0 as u64, t1 as u64, (d2 & 3) + (t1 >> 64) as u64];
    }

    /// The tag: the accumulator fully reduced, plus `s`, modulo `2^128`.
    pub(crate) fn finish(self) -> [u8; 16] {
        let [h0, h1, h2] = self.h;
        // The accumulator is below 2p, and `h + 5` reaches bit 130 exactly
        // when `h ≥ p`, in which case its low bits are `h - p`.
        let t0 = h0 as u128 + 5;
        let t1 = h1 as u128 + (t0 >> 64);
        let over = 0u64.wrapping_sub((h2 + (t1 >> 64) as u64) >> 2);
        let h0 = (t0 as u64 & over) | (h0 & !over);
        let h1 = (t1 as u64 & over) | (h1 & !over);
        (h0 as u128 | (h1 as u128) << 64)
            .wrapping_add(self.s)
            .to_le_bytes()
    }
}

/// A whole 16-byte block as the two little-endian words
/// [`Poly1305::block`] takes.
#[inline(always)]
pub(crate) fn block_words(block: &[u8; 16]) -> [u64; 2] {
    let m = u128::from_le_bytes(*block);
    [m as u64, (m >> 64) as u64]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn tag(key: &str, message: &str) -> String {
        let key = hex(key);
        let mut mac = Poly1305::new(core::array::from_fn(|i| {
            u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap())
        }));
        for block in hex(message).chunks(16) {
            mac.block(block_words(block.try_into().unwrap()));
        }
        mac.finish().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 8439 Appendix A.3, vectors 5–11 as `(key, message, tag)`: the
    /// carries and final reductions a limb implementation can get wrong
    /// (each message whole 16-byte blocks, as the block tag's always are).
    #[rustfmt::skip]
    const EDGE_VECTORS: &[(&str, &str, &str)] = &[
        (
            "0200000000000000000000000000000000000000000000000000000000000000",
            "ffffffffffffffffffffffffffffffff",
            "03000000000000000000000000000000",
        ),
        (
            "02000000000000000000000000000000ffffffffffffffffffffffffffffffff",
            "02000000000000000000000000000000",
            "03000000000000000000000000000000",
        ),
        (
            "0100000000000000000000000000000000000000000000000000000000000000",
            "fffffffffffffffffffffffffffffffff0ffffffffffffffffffffffffffffff11000000000000000000000000000000",
            "05000000000000000000000000000000",
        ),
        (
            "0100000000000000000000000000000000000000000000000000000000000000",
            "fffffffffffffffffffffffffffffffffbfefefefefefefefefefefefefefefe01010101010101010101010101010101",
            "00000000000000000000000000000000",
        ),
        (
            "0200000000000000000000000000000000000000000000000000000000000000",
            "fdffffffffffffffffffffffffffffff",
            "faffffffffffffffffffffffffffffff",
        ),
        (
            "0100000000000000040000000000000000000000000000000000000000000000",
            "e33594d7505e43b900000000000000003394d7505e4379cd01000000000000000000000000000000000000000000000001000000000000000000000000000000",
            "14000000000000005500000000000000",
        ),
        (
            "0100000000000000040000000000000000000000000000000000000000000000",
            "e33594d7505e43b900000000000000003394d7505e4379cd010000000000000000000000000000000000000000000000",
            "13000000000000000000000000000000",
        ),
    ];

    #[test]
    fn rfc_8439_edge_vectors() {
        for (i, (key, message, want)) in EDGE_VECTORS.iter().enumerate() {
            assert_eq!(tag(key, message), *want, "vector {}", i + 5);
        }
    }
}
