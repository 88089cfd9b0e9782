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
//! A value's ciphertext is a descent of 64 splits and a leaf, one coin per
//! node, drawn from the node's bounds alone. [`OpeKey::encrypt`] is that
//! descent for one value, the reference; [`OpeKey::encrypt_many`] takes a
//! batch down the one tree its values share and draws each node's coin
//! once, which for OPESS's clustered chunk values is far fewer coins than
//! 65 per value.
//!
//! Also provided: the standard order-preserving embedding of `f64` into
//! `u64`, used by OPESS to encrypt displaced (fractional) plaintext values.

use crate::chacha::{LANES, MIN_BUSY_LANES};
use crate::prf::{chunk_words, AfterLength, Prf};

/// Number of bits of the ciphertext range.
pub const RANGE_BITS: u32 = 96;

/// Length of every coin input: a node's four bounds (see [`Node`]).
const COIN_INPUT_LEN: usize = 64;

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
    /// The coin chain after the length block all coin inputs share.
    coin_start: AfterLength,
}

impl OpeKey {
    pub fn new(key: [u8; 32]) -> Self {
        let prf = Prf::new(key);
        let coin_start = prf.after_length(COIN_INPUT_LEN);
        Self { prf, coin_start }
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

    /// [`encrypt`](Self::encrypt) of every value, in order. A coin depends
    /// only on its tree node, and values that share a prefix of their path
    /// share its nodes, so the batch goes down one tree level by level: each
    /// node the batch reaches owns a run of the sorted values and draws its
    /// coin once, [`LANES`] nodes to a PRF pass, each coin chain resumed
    /// after the length block every 64-byte coin input shares.
    pub fn encrypt_many(&self, xs: &[u64]) -> Vec<u128> {
        if xs.is_empty() {
            return Vec::new();
        }
        let mut sorted: Vec<(u64, usize)> = xs.iter().copied().zip(0..).collect();
        sorted.sort_unstable();
        let mut out = vec![0; xs.len()];
        let mut level = vec![(Node::ROOT, 0..xs.len())];
        let mut below = Vec::new();
        // The domain halves exactly, so every leaf is on the last level.
        while !level.is_empty() {
            for group in level.chunks(LANES) {
                let coins = if group.len() >= MIN_BUSY_LANES {
                    // Word `4b + q` of lane `l` is limb `q` of node `l`'s
                    // bound `b`: the coin input, word-sliced.
                    let mut words = [[0; LANES]; 16];
                    for (l, (node, _)) in group.iter().enumerate() {
                        for (b, bound) in node.bounds().into_iter().enumerate() {
                            for q in 0..4 {
                                words[4 * b + q][l] = (bound >> (32 * q)) as u32;
                            }
                        }
                    }
                    self.prf.eval_u128_64_byte_lanes(&self.coin_start, &words)
                } else {
                    let inputs: [[u8; COIN_INPUT_LEN]; MIN_BUSY_LANES] =
                        core::array::from_fn(|l| {
                            group
                                .get(l)
                                .map_or([0; COIN_INPUT_LEN], |(n, _)| n.coin_input())
                        });
                    let lens = &[COIN_INPUT_LEN; LANES][..group.len()];
                    self.prf
                        .eval_u128_lanes::<LANES>(Some(&self.coin_start), lens, |l, k| {
                            chunk_words(&inputs[l], k)
                        })
                };
                for ((node, run), coin) in group.iter().zip(coins) {
                    let run = run.clone();
                    if node.is_leaf() {
                        let c = node.leaf(coin);
                        sorted[run].iter().for_each(|&(_, i)| out[i] = c);
                        continue;
                    }
                    let [left, right] = node.split(coin);
                    let cut = run.start
                        + sorted[run.clone()].partition_point(|&(x, _)| x as u128 <= left.dhi);
                    if run.start < cut {
                        below.push((left, run.start..cut));
                    }
                    if cut < run.end {
                        below.push((right, cut..run.end));
                    }
                }
            }
            level.clear();
            std::mem::swap(&mut level, &mut below);
        }
        out
    }

    /// Decrypts a ciphertext produced by [`encrypt`](Self::encrypt).
    /// Returns `None` for range values that no domain point maps to.
    pub fn decrypt(&self, c: u128) -> Option<u64> {
        let mut node = Node::ROOT;
        if c > node.rhi {
            return None;
        }
        loop {
            let coin = self.prf.eval_u128(&node.coin_input());
            if node.is_leaf() {
                return (node.leaf(coin) == c).then_some(node.dlo as u64);
            }
            let [left, right] = node.split(coin);
            node = if c < right.rlo { left } else { right };
        }
    }
}

/// A node of the OPE tree: a domain interval and the range interval
/// assigned to it. Its coin is drawn from its four bounds.
#[derive(Clone, Copy)]
struct Node {
    dlo: u128,
    dhi: u128,
    rlo: u128,
    rhi: u128,
}

impl Node {
    /// The whole domain and the whole range.
    const ROOT: Node = Node {
        dlo: 0,
        dhi: u64::MAX as u128,
        rlo: 0,
        rhi: (1u128 << RANGE_BITS) - 1,
    };

    /// The four bounds in coin-input order.
    fn bounds(&self) -> [u128; 4] {
        [self.dlo, self.dhi, self.rlo, self.rhi]
    }

    /// The bounds, little-endian, end to end.
    fn coin_input(&self) -> [u8; COIN_INPUT_LEN] {
        let mut input = [0u8; COIN_INPUT_LEN];
        for (bytes, bound) in input.chunks_exact_mut(16).zip(self.bounds()) {
            bytes.copy_from_slice(&bound.to_le_bytes());
        }
        input
    }

    fn is_leaf(&self) -> bool {
        self.dlo == self.dhi
    }

    /// A leaf's ciphertext: its one domain point placed in what range is
    /// left.
    fn leaf(&self, coin: u128) -> u128 {
        self.rlo + coin % (self.rhi - self.rlo + 1)
    }

    /// Spends an inner node's coin: splits the range between the two
    /// domain halves.
    fn split(&self, coin: u128) -> [Node; 2] {
        let Node { dlo, dhi, rlo, rhi } = *self;
        let dmid = dlo + (dhi - dlo) / 2;
        let dl = dmid - dlo + 1; // size of left domain half
        let dr = dhi - dmid; // size of right domain half
        let r_total = rhi - rlo + 1;
        // The left half of the range must hold at least `dl` values and
        // leave at least `dr` for the right half.
        let lo_min = dl;
        let lo_max = r_total - dr;
        let rl = lo_min + coin % (lo_max - lo_min + 1);
        [
            Node {
                dhi: dmid,
                rhi: rlo + rl - 1,
                ..*self
            },
            Node {
                dlo: dmid + 1,
                rlo: rlo + rl,
                ..*self
            },
        ]
    }
}

/// One encryption in progress: `x` and the node whose domain holds it.
struct Descent {
    x: u128,
    node: Node,
}

impl Descent {
    fn new(x: u64) -> Self {
        Descent {
            x: x as u128,
            node: Node::ROOT,
        }
    }

    fn coin_input(&self) -> [u8; COIN_INPUT_LEN] {
        self.node.coin_input()
    }

    /// Spends this level's coin: goes down to the child holding `x`, or, at
    /// a leaf, returns the ciphertext.
    fn step(&mut self, coin: u128) -> Option<u128> {
        if self.node.is_leaf() {
            return Some(self.node.leaf(coin));
        }
        let [left, right] = self.node.split(coin);
        self.node = if self.x <= left.dhi { left } else { right };
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
