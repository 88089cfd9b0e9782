//! Order-preserving encryption: a lazy-sampled strictly-monotone random
//! function `u64 → u128`.
//!
//! The paper assumes "any order-preserving encryption function, such as was
//! proposed by [Agrawal et al.]". We implement the classic lazy-sampling
//! construction: conceptually a random strictly-increasing function from the
//! 2⁶⁴ domain into a 2⁹⁶ range, realized by binary range splitting with
//! PRF-derived coins so that encryption is deterministic under a key and
//! needs no stored state.
//!
//! Also provided: the standard order-preserving embedding of `f64` into
//! `u64`, used by OPESS to encrypt displaced (fractional) plaintext values.

use crate::chacha::LANES;
use crate::prf::{chunk_words, Prf};

/// Number of bits of the ciphertext range.
pub const RANGE_BITS: u32 = 96;

/// An order-preserving encryption key.
///
/// ```
/// use exq_crypto::OpeKey;
/// let key = OpeKey::new([7u8; 32]);
/// let (a, b) = (key.encrypt(100), key.encrypt(200));
/// assert!(a < b);                       // order preserved
/// assert_eq!(key.decrypt(a), Some(100)); // and invertible with the key
/// ```
#[derive(Debug, Clone)]
pub struct OpeKey {
    prf: Prf,
}

impl OpeKey {
    pub fn new(key: [u8; 32]) -> Self {
        Self { prf: Prf::new(key) }
    }

    /// Encrypts a domain value. Strictly monotone: `x < y` implies
    /// `encrypt(x) < encrypt(y)`.
    pub fn encrypt(&self, x: u64) -> u128 {
        let mut descent = Descent::new(x);
        loop {
            let coin = self.prf.eval_u128(&descent.coin_input());
            if let Some(c) = descent.step(coin) {
                return c;
            }
        }
    }

    /// [`encrypt`](Self::encrypt) of every value, in order. A descent is 65
    /// coins each needing the one before, but every descent draws as many,
    /// from inputs of one length: [`LANES`] values go down level by level
    /// together, their coins drawn in lock-step.
    pub fn encrypt_many(&self, xs: &[u64]) -> Vec<u128> {
        let mut out = Vec::with_capacity(xs.len());
        for group in xs.chunks(LANES) {
            let mut descents = [Descent::new(0); LANES];
            for (descent, &x) in descents.iter_mut().zip(group) {
                *descent = Descent::new(x);
            }
            let mut ciphertexts = [None; LANES];
            // The domain halves exactly, so every descent ends on one level.
            while ciphertexts[0].is_none() {
                let inputs = descents.map(|d| d.coin_input());
                let coins = self
                    .prf
                    .eval_u128_lanes::<LANES>(&[64; LANES][..group.len()], |l, k| {
                        chunk_words(&inputs[l], k)
                    });
                let live = descents.iter_mut().take(group.len());
                for ((c, descent), coin) in ciphertexts.iter_mut().zip(live).zip(coins) {
                    *c = descent.step(coin);
                }
            }
            out.extend(ciphertexts.into_iter().flatten());
        }
        out
    }

    /// Decrypts a ciphertext produced by [`encrypt`](Self::encrypt).
    /// Returns `None` for range values that no domain point maps to.
    pub fn decrypt(&self, c: u128) -> Option<u64> {
        let mut dlo: u128 = 0;
        let mut dhi: u128 = u64::MAX as u128;
        let mut rlo: u128 = 0;
        let mut rhi: u128 = (1u128 << RANGE_BITS) - 1;
        if c > rhi {
            return None;
        }
        loop {
            if dlo == dhi {
                let span = rhi - rlo + 1;
                let expected = rlo + self.coin(dlo, dhi, rlo, rhi) % span;
                return (expected == c).then_some(dlo as u64);
            }
            let dmid = dlo + (dhi - dlo) / 2;
            let dl = dmid - dlo + 1;
            let dr = dhi - dmid;
            let r_total = rhi - rlo + 1;
            let lo_min = dl;
            let lo_max = r_total - dr;
            let rl = lo_min + self.coin(dlo, dhi, rlo, rhi) % (lo_max - lo_min + 1);
            if c < rlo + rl {
                dhi = dmid;
                rhi = rlo + rl - 1;
            } else {
                dlo = dmid + 1;
                rlo += rl;
            }
        }
    }

    fn coin(&self, dlo: u128, dhi: u128, rlo: u128, rhi: u128) -> u128 {
        self.prf.eval_u128(&coin_input(dlo, dhi, rlo, rhi))
    }
}

/// What the coin for one split is drawn from: the domain and range bounds.
fn coin_input(dlo: u128, dhi: u128, rlo: u128, rhi: u128) -> [u8; 64] {
    let mut input = [0u8; 64];
    input[..16].copy_from_slice(&dlo.to_le_bytes());
    input[16..32].copy_from_slice(&dhi.to_le_bytes());
    input[32..48].copy_from_slice(&rlo.to_le_bytes());
    input[48..64].copy_from_slice(&rhi.to_le_bytes());
    input
}

/// One encryption in progress: the domain interval still holding `x` and
/// the range interval assigned to it.
#[derive(Clone, Copy)]
struct Descent {
    x: u128,
    dlo: u128,
    dhi: u128,
    rlo: u128,
    rhi: u128,
}

impl Descent {
    fn new(x: u64) -> Self {
        Descent {
            x: x as u128,
            dlo: 0,
            dhi: u64::MAX as u128,
            rlo: 0,
            rhi: (1u128 << RANGE_BITS) - 1,
        }
    }

    fn coin_input(&self) -> [u8; 64] {
        coin_input(self.dlo, self.dhi, self.rlo, self.rhi)
    }

    /// Spends this level's coin: splits the range between the two domain
    /// halves and keeps the half holding `x`, or, at a one-point domain,
    /// places the ciphertext in what range is left and returns it.
    fn step(&mut self, coin: u128) -> Option<u128> {
        let Descent {
            x,
            dlo,
            dhi,
            rlo,
            rhi,
        } = *self;
        if dlo == dhi {
            let span = rhi - rlo + 1;
            return Some(rlo + coin % span);
        }
        let dmid = dlo + (dhi - dlo) / 2;
        let dl = dmid - dlo + 1; // size of left domain half
        let dr = dhi - dmid; // size of right domain half
        let r_total = rhi - rlo + 1;
        // The left half of the range must hold at least `dl` values and
        // leave at least `dr` for the right half.
        let lo_min = dl;
        let lo_max = r_total - dr;
        let rl = lo_min + coin % (lo_max - lo_min + 1);
        if x <= dmid {
            self.dhi = dmid;
            self.rhi = rlo + rl - 1;
        } else {
            self.dlo = dmid + 1;
            self.rlo += rl;
        }
        None
    }
}

/// Order-preserving embedding of finite `f64` values into `u64`:
/// `a < b  ⇔  f64_to_ordered_u64(a) < f64_to_ordered_u64(b)`.
pub fn f64_to_ordered_u64(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63) // positive: set the sign bit
    } else {
        !bits // negative: flip everything
    }
}

/// Inverse of [`f64_to_ordered_u64`].
pub fn ordered_u64_to_f64(u: u64) -> f64 {
    if u >> 63 == 1 {
        f64::from_bits(u & !(1 << 63))
    } else {
        f64::from_bits(!u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> OpeKey {
        OpeKey::new([13u8; 32])
    }

    #[test]
    fn strictly_monotone_on_samples() {
        let k = key();
        let xs = [
            0u64,
            1,
            2,
            100,
            1000,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let cs: Vec<u128> = xs.iter().map(|&x| k.encrypt(x)).collect();
        for w in cs.windows(2) {
            assert!(w[0] < w[1], "monotonicity violated: {} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn deterministic() {
        let k = key();
        assert_eq!(k.encrypt(123456), k.encrypt(123456));
    }

    #[test]
    fn key_dependence() {
        let a = OpeKey::new([1u8; 32]);
        let b = OpeKey::new([2u8; 32]);
        assert_ne!(a.encrypt(42), b.encrypt(42));
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let k = key();
        for x in [0u64, 1, 7, 65535, 1 << 40, u64::MAX] {
            let c = k.encrypt(x);
            assert_eq!(k.decrypt(c), Some(x));
        }
    }

    #[test]
    fn decrypt_rejects_out_of_range() {
        let k = key();
        assert_eq!(k.decrypt(u128::MAX), None);
    }

    #[test]
    fn adjacent_inputs_stay_ordered() {
        let k = key();
        for base in [0u64, 12345, 1 << 33, u64::MAX - 10] {
            let mut prev = k.encrypt(base);
            for i in 1..10 {
                let c = k.encrypt(base + i);
                assert!(c > prev);
                prev = c;
            }
        }
    }

    #[test]
    fn ciphertexts_fit_range() {
        let k = key();
        for x in [0u64, u64::MAX, 42] {
            assert!(k.encrypt(x) < (1u128 << RANGE_BITS));
        }
    }

    #[test]
    fn f64_embedding_orders() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            2.5,
            2.5000001,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(
                f64_to_ordered_u64(w[0]) <= f64_to_ordered_u64(w[1]),
                "order broken between {} and {}",
                w[0],
                w[1]
            );
        }
        // strictness for distinct non-zero values
        assert!(f64_to_ordered_u64(2.5) < f64_to_ordered_u64(2.5000001));
    }

    #[test]
    fn f64_embedding_roundtrip() {
        for v in [-123.456, 0.0, 1.0, 9e99, -7e-77] {
            assert_eq!(ordered_u64_to_f64(f64_to_ordered_u64(v)), v);
        }
    }
}
