//! Order-preserving encryption: a lazy-sampled strictly-monotone random
//! function `u64 → u128`.
//!
//! The paper assumes "any order-preserving encryption function, such as was
//! proposed by [Agrawal et al.]". We implement the classic lazy-sampling
//! construction: conceptually a random strictly-increasing function from the
//! 2⁶⁴ domain into a 2⁹⁶ range, realized by binary range splitting with
//! pseudo-random coins so that encryption is deterministic under a key and
//! needs no stored state.
//!
//! A value's ciphertext is a descent of 64 splits and a leaf, one coin per
//! node. The domain halves exactly, so a node is named by its depth and the
//! low end of its domain, whatever the coins above it drew. Its coin is the
//! first 16 bytes of one ChaCha20 block under the key, with block counter =
//! depth and nonce = (`"coin"`, low end): the keystream's own PRF
//! assumption, and every node still gets its own independent coin.
//!
//! [`OpeKey::encrypt`] is that descent for one value, a block at a time:
//! the reference. [`OpeKey::encrypt_many`] takes a batch down the one tree
//! its values share and draws each node's coin once, [`LANES`] nodes to a
//! pass; no coin waits on another, so even one value's 65 coins are four
//! passes and one block.
//!
//! Also provided: the standard order-preserving embedding of `f64` into
//! `u64`, used by OPESS to encrypt displaced (fractional) plaintext values.

use crate::chacha::{block_lanes, key_words, LANES, MIN_BUSY_LANES};

/// Number of bits of the ciphertext range.
pub const RANGE_BITS: u32 = 96;

/// The first nonce word of every coin block, `"coin"`: what the block is
/// for.
const COIN_LABEL: u32 = u32::from_le_bytes(*b"coin");

/// An order-preserving encryption key.
///
/// ```
/// use exq_crypto::OpeKey;
/// let key = OpeKey::new([7u8; 32]);
/// let (a, b) = (key.encrypt(100), key.encrypt(200));
/// assert!(a < b);                       // order preserved
/// assert_eq!(key.decrypt(a), Some(100)); // and invertible with the key
/// ```
#[derive(Clone)]
pub struct OpeKey {
    key: [u32; 8],
}

impl std::fmt::Debug for OpeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OpeKey(<key redacted>)")
    }
}

impl OpeKey {
    pub fn new(key: [u8; 32]) -> Self {
        Self {
            key: key_words(&key),
        }
    }

    /// Encrypts a domain value. Strictly monotone: `x < y` implies
    /// `encrypt(x) < encrypt(y)`.
    pub fn encrypt(&self, x: u64) -> u128 {
        let mut node = Node::ROOT;
        loop {
            let coin = self.coin(&node);
            if node.is_leaf() {
                return node.leaf(coin);
            }
            let [left, right] = node.split(coin);
            node = if x as u128 <= left.dhi { left } else { right };
        }
    }

    /// [`encrypt`](Self::encrypt) of every value, in order. Values that
    /// share a prefix of their path share its nodes, so the batch goes down
    /// one tree, depth first in value order: each distinct value descends
    /// only from where its path parts from the one before, and each node
    /// the batch reaches spends one coin. Which nodes those are follows from
    /// the values alone (`Touched`), so their coins are drawn ahead of the
    /// walk, [`LANES`] to a pass.
    pub fn encrypt_many(&self, xs: &[u64]) -> Vec<u128> {
        let mut sorted: Vec<(u64, usize)> = xs.iter().copied().zip(0..).collect();
        sorted.sort_unstable();
        let mut touched = Touched {
            sorted: &sorted,
            at: 0,
            depth: 0,
        };
        // Coins drawn ahead of the walk: those of `batch[..drawn]`, spent
        // up to `next`.
        let mut batch = [(0, 0); LANES];
        let mut coins = [0; LANES];
        let (mut next, mut drawn) = (0, 0);
        let mut coin_of = |node: &Node| {
            if next == drawn {
                drawn = batch
                    .iter_mut()
                    .zip(&mut touched)
                    .map(|(slot, touched)| *slot = touched)
                    .count();
                coins = self.draw(&batch[..drawn]);
                next = 0;
            }
            debug_assert_eq!(batch[next], (node.depth, node.dlo as u64), "walk ≠ touched");
            next += 1;
            coins[next - 1]
        };
        // The previous value's path, and the coin each inner node of it
        // spent.
        let mut path = [Node::ROOT; Node::LEAF_DEPTH as usize + 1];
        let mut spent = [0; Node::LEAF_DEPTH as usize];
        let mut out = vec![0; xs.len()];
        let mut prev: Option<(u64, u128)> = None;
        for &(x, i) in &sorted {
            let from = match prev {
                Some((p, c)) if p == x => {
                    out[i] = c;
                    continue;
                }
                // `p` went left at the deepest node the two share; `x` goes
                // right.
                Some((p, _)) => {
                    let from = restart_depth(p, x) as usize;
                    path[from] = path[from - 1].split(spent[from - 1])[1];
                    from
                }
                None => 0,
            };
            for d in from..Node::LEAF_DEPTH as usize {
                spent[d] = coin_of(&path[d]);
                let [left, right] = path[d].split(spent[d]);
                path[d + 1] = if x as u128 <= left.dhi { left } else { right };
            }
            let leaf = &path[Node::LEAF_DEPTH as usize];
            let c = leaf.leaf(coin_of(leaf));
            out[i] = c;
            prev = Some((x, c));
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
            let coin = self.coin(&node);
            if node.is_leaf() {
                return (node.leaf(coin) == c).then_some(node.dlo as u64);
            }
            let [left, right] = node.split(coin);
            node = if c < right.rlo { left } else { right };
        }
    }

    /// One node's coin, one block alone.
    fn coin(&self, node: &Node) -> u128 {
        let [coin] = self.coins(&[node.depth], &[node.dlo as u64]);
        coin
    }

    /// The coins of `nodes`, at most [`LANES`] `(depth, low end)` pairs:
    /// one lane pass, or one block each when fewer than [`MIN_BUSY_LANES`]
    /// would keep the pass busy. Entries past `nodes.len()` mean nothing.
    fn draw(&self, nodes: &[(u32, u64)]) -> [u128; LANES] {
        let mut out = [0; LANES];
        if nodes.len() < MIN_BUSY_LANES {
            for (coin, &(depth, dlo)) in out.iter_mut().zip(nodes) {
                [*coin] = self.coins(&[depth], &[dlo]);
            }
            return out;
        }
        let (mut depths, mut dlos) = ([0; LANES], [0; LANES]);
        for (l, &(depth, dlo)) in nodes.iter().enumerate() {
            (depths[l], dlos[l]) = (depth, dlo);
        }
        self.coins(&depths, &dlos)
    }

    /// The coins of the nodes at `depths[l]` whose domain starts at
    /// `dlos[l]`: one ChaCha20 block each, counter = depth and nonce =
    /// ([`COIN_LABEL`], low end), read as a little-endian `u128` from its
    /// first 16 bytes.
    fn coins<const N: usize>(&self, depths: &[u32; N], dlos: &[u64; N]) -> [u128; N] {
        let nonces = [
            [COIN_LABEL; N],
            dlos.map(|d| d as u32),
            dlos.map(|d| (d >> 32) as u32),
        ];
        let ks = block_lanes::<N>(&self.key, depths, &nonces);
        core::array::from_fn(|l| (0..4).fold(0, |acc, w| acc | (ks[w][l] as u128) << (32 * w)))
    }
}

/// The nodes a sorted batch reaches, as `(depth, low end)`, in the order
/// [`OpeKey::encrypt_many`]'s walk visits them: each distinct value's path
/// from the root, or from just below the node where it parts from the value
/// before. They are known before any coin is drawn.
struct Touched<'a> {
    sorted: &'a [(u64, usize)],
    /// The value whose path is being listed.
    at: usize,
    /// The depth of its next node.
    depth: u32,
}

impl Iterator for Touched<'_> {
    type Item = (u32, u64);

    fn next(&mut self) -> Option<(u32, u64)> {
        let &(x, _) = self.sorted.get(self.at)?;
        if self.depth > Node::LEAF_DEPTH {
            let later = self.sorted[self.at..].iter().position(|&(y, _)| y != x);
            self.at += later?;
            self.depth = restart_depth(x, self.sorted[self.at].0);
            return self.next();
        }
        // A node at depth `d` spans 2^(64 - d) values.
        let dlo = x & !u64::MAX.checked_shr(self.depth).unwrap_or(0);
        self.depth += 1;
        Some((self.depth - 1, dlo))
    }
}

/// Where the path of `x` parts from that of `before`, a smaller value: the
/// depth just below the deepest node the two share, where `before` went
/// left and `x` goes right. The walk in [`OpeKey::encrypt_many`] and
/// [`Touched`] both restart there, so a coin drawn ahead is the one the walk
/// spends.
fn restart_depth(before: u64, x: u64) -> u32 {
    (before ^ x).leading_zeros() + 1
}

/// A node of the OPE tree: its depth, a domain interval and the range
/// interval assigned to it. Its coin is drawn from its depth and `dlo`.
#[derive(Clone, Copy)]
struct Node {
    depth: u32,
    dlo: u128,
    dhi: u128,
    rlo: u128,
    rhi: u128,
}

impl Node {
    /// The whole domain and the whole range.
    const ROOT: Node = Node {
        depth: 0,
        dlo: 0,
        dhi: u64::MAX as u128,
        rlo: 0,
        rhi: (1u128 << RANGE_BITS) - 1,
    };

    /// The depth of every leaf: the domain halves 64 times.
    const LEAF_DEPTH: u32 = 64;

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
        let Node {
            depth,
            dlo,
            dhi,
            rlo,
            rhi,
        } = *self;
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
                depth: depth + 1,
                dhi: dmid,
                rhi: rlo + rl - 1,
                ..*self
            },
            Node {
                depth: depth + 1,
                dlo: dmid + 1,
                rlo: rlo + rl,
                ..*self
            },
        ]
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

    /// Every coin a lane pass draws is the scalar ChaCha20 block of its
    /// node: counter = depth, nonce = `"coin"` and the low end, bytes
    /// little-endian. Counts on both sides of the busy-lane threshold.
    #[test]
    fn lane_coins_are_scalar_blocks() {
        use crate::ChaCha20;
        let bytes: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5a);
        let k = OpeKey::new(bytes);
        let nodes: Vec<(u32, u64)> = (0..LANES as u32)
            .map(|i| {
                let depth = (i * 13) % 65;
                let x = u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (depth, x & !u64::MAX.checked_shr(depth).unwrap_or(0))
            })
            .collect();
        for count in [1, MIN_BUSY_LANES - 1, MIN_BUSY_LANES, LANES] {
            let coins = k.draw(&nodes[..count]);
            for (&(depth, dlo), coin) in nodes[..count].iter().zip(coins) {
                let mut nonce = [0u8; 12];
                nonce[..4].copy_from_slice(b"coin");
                nonce[4..].copy_from_slice(&dlo.to_le_bytes());
                let block = ChaCha20::new(&bytes, &nonce).block(depth);
                let scalar = u128::from_le_bytes(block[..16].try_into().unwrap());
                assert_eq!(coin, scalar, "{count} nodes, node ({depth}, {dlo:#x})");
            }
        }
    }

    /// The key stays out of `Debug`: none of its bytes, nor its words in
    /// decimal or hex.
    #[test]
    fn debug_holds_no_key_bytes() {
        // Three-digit bytes, so no short number in the output matches one
        // by accident.
        let bytes: [u8; 32] = core::array::from_fn(|i| 200 + i as u8 % 50);
        let shown = format!("{:?}", OpeKey::new(bytes));
        for b in bytes {
            assert!(
                !shown.contains(&b.to_string()),
                "{shown} shows key byte {b}"
            );
        }
        for w in key_words(&bytes) {
            for form in [format!("{w}"), format!("{w:x}"), format!("{w:X}")] {
                assert!(!shown.contains(&form), "{shown} shows key word {form}");
            }
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
