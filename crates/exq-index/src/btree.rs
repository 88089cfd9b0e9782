//! An in-memory B-tree with duplicate keys and range scans.
//!
//! This carries the OPESS value index (§5.2): keys are 128-bit ciphertexts,
//! values are encryption-block ids. Duplicate keys arise from scaling
//! (replicated index entries) and from multiple blocks containing the same
//! ciphertext value; internally every entry is made unique by a monotone
//! insertion sequence number so separator invariants stay exact. Leaves are
//! chained for cheap range scans.

/// Default maximum number of keys per node.
const DEFAULT_ORDER: usize = 32;

/// Internal composite key: `(user key, insertion sequence)`.
type K = (u128, u64);

/// A B-tree from `u128` keys to `u32` values, duplicates allowed.
///
/// ```
/// use exq_index::BTree;
/// let mut t = BTree::new();
/// t.insert(50, 1);
/// t.insert(70, 2);
/// t.insert(50, 3); // duplicate key
/// assert_eq!(t.range(40, 60), [1, 3]);
/// assert_eq!(t.max_entry(), Some((70, 2)));
/// ```
#[derive(Debug, Clone)]
pub struct BTree {
    nodes: Vec<Node>,
    root: usize,
    len: usize,
    order: usize,
    seq: u64,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Vec<K>,
        vals: Vec<u32>,
        next: Option<usize>,
    },
    Internal {
        /// `keys[i]` separates `children[i]` (keys < keys[i]) from
        /// `children[i+1]` (keys >= keys[i]).
        keys: Vec<K>,
        children: Vec<usize>,
    },
}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BTree {
    /// Creates an empty tree with the default order.
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// Creates an empty tree with a custom order (max keys per node ≥ 3).
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 3, "B-tree order must be at least 3");
        BTree {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
                next: None,
            }],
            root: 0,
            len: 0,
            order,
            seq: 0,
        }
    }

    /// Builds a default-order tree bottom-up from entries in ascending key
    /// order, equal keys in the order given: full leaves left to right,
    /// then each internal level over the one below. The result equals
    /// [`insert`](Self::insert)ing the entries one by one for every lookup,
    /// and takes later inserts the same way. `None` if a key is smaller
    /// than the one before it.
    ///
    /// ```
    /// use exq_index::BTree;
    /// let t = BTree::from_sorted([(10, 1), (10, 2), (30, 3)]).unwrap();
    /// assert_eq!(t.range(0, 20), [1, 2]);
    /// assert!(BTree::from_sorted([(30, 3), (10, 1)]).is_none());
    /// ```
    pub fn from_sorted(entries: impl IntoIterator<Item = (u128, u32)>) -> Option<BTree> {
        let order = DEFAULT_ORDER;
        let mut tree = BTree {
            nodes: Vec::new(),
            root: 0,
            len: 0,
            order,
            seq: 0,
        };
        // `(least key below, node)` per node of the level being built.
        let mut level: Vec<(K, usize)> = Vec::new();
        let (mut keys, mut vals) = (Vec::with_capacity(order), Vec::with_capacity(order));
        let mut last = 0;
        for (key, value) in entries {
            if key < last {
                return None;
            }
            last = key;
            if keys.len() == order {
                level.push((keys[0], tree.nodes.len()));
                tree.nodes.push(Node::Leaf {
                    keys: std::mem::replace(&mut keys, Vec::with_capacity(order)),
                    vals: std::mem::replace(&mut vals, Vec::with_capacity(order)),
                    next: Some(tree.nodes.len() + 1),
                });
            }
            keys.push((key, tree.seq));
            vals.push(value);
            tree.seq += 1;
        }
        tree.len = tree.seq as usize;
        level.push((keys.first().copied().unwrap_or((0, 0)), tree.nodes.len()));
        tree.nodes.push(Node::Leaf {
            keys,
            vals,
            next: None,
        });
        while level.len() > 1 {
            // As few parents as fit, their children shared out evenly.
            let parents = level.len().div_ceil(order + 1);
            let mut above = Vec::with_capacity(parents);
            let mut rest = &level[..];
            for p in 0..parents {
                let (group, tail) = rest.split_at(rest.len() / (parents - p));
                rest = tail;
                above.push((group[0].0, tree.nodes.len()));
                tree.nodes.push(Node::Internal {
                    keys: group[1..].iter().map(|&(k, _)| k).collect(),
                    children: group.iter().map(|&(_, n)| n).collect(),
                });
            }
            level = above;
        }
        tree.root = level[0].1;
        Some(tree)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of tree nodes — the index-size metric of the experiments.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree height (1 for a lone leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut n = self.root;
        loop {
            match &self.nodes[n] {
                Node::Leaf { .. } => return h,
                Node::Internal { children, .. } => {
                    n = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Inserts an entry (duplicates permitted).
    pub fn insert(&mut self, key: u128, value: u32) {
        let k = (key, self.seq);
        self.seq += 1;
        if let Some((sep, right)) = self.insert_rec(self.root, k, value) {
            let new_root = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.nodes.push(new_root);
            self.root = self.nodes.len() - 1;
        }
        self.len += 1;
    }

    /// Recursive insert; returns `(separator, new-right-node)` on split.
    fn insert_rec(&mut self, n: usize, key: K, value: u32) -> Option<(K, usize)> {
        let child = match &self.nodes[n] {
            Node::Leaf { .. } => None,
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|&k| k <= key);
                Some(children[idx])
            }
        };
        match child {
            None => {
                if let Node::Leaf { keys, vals, .. } = &mut self.nodes[n] {
                    let pos = keys.partition_point(|&k| k <= key);
                    keys.insert(pos, key);
                    vals.insert(pos, value);
                    if keys.len() > self.order {
                        return Some(self.split_leaf(n));
                    }
                }
                None
            }
            Some(c) => {
                if let Some((sep, right)) = self.insert_rec(c, key, value) {
                    if let Node::Internal { keys, children } = &mut self.nodes[n] {
                        let idx = keys.partition_point(|&k| k <= sep);
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if keys.len() > self.order {
                            return Some(self.split_internal(n));
                        }
                    }
                }
                None
            }
        }
    }

    fn split_leaf(&mut self, n: usize) -> (K, usize) {
        let next_id = self.nodes.len();
        let Node::Leaf { keys, vals, next } = &mut self.nodes[n] else {
            unreachable!()
        };
        let mid = keys.len() / 2;
        let rkeys = keys.split_off(mid);
        let rvals = vals.split_off(mid);
        let rnext = *next;
        *next = Some(next_id);
        let sep = rkeys[0];
        self.nodes.push(Node::Leaf {
            keys: rkeys,
            vals: rvals,
            next: rnext,
        });
        (sep, next_id)
    }

    fn split_internal(&mut self, n: usize) -> (K, usize) {
        let next_id = self.nodes.len();
        let Node::Internal { keys, children } = &mut self.nodes[n] else {
            unreachable!()
        };
        let mid = keys.len() / 2;
        let sep = keys[mid];
        let rkeys = keys.split_off(mid + 1);
        keys.pop(); // drop the separator that moves up
        let rchildren = children.split_off(mid + 1);
        self.nodes.push(Node::Internal {
            keys: rkeys,
            children: rchildren,
        });
        (sep, next_id)
    }

    /// All values whose key is in `[lo, hi]` (inclusive), in key order.
    pub fn range(&self, lo: u128, hi: u128) -> Vec<u32> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        let probe: K = (lo, 0);
        // Descend to the leaf that could contain the first `lo` entry.
        let mut n = self.root;
        while let Node::Internal { keys, children } = &self.nodes[n] {
            let idx = keys.partition_point(|&k| k <= probe);
            n = children[idx];
        }
        // Walk the leaf chain.
        let mut cur = Some(n);
        while let Some(id) = cur {
            let Node::Leaf { keys, vals, next } = &self.nodes[id] else {
                unreachable!()
            };
            let start = keys.partition_point(|&k| k < probe);
            for i in start..keys.len() {
                if keys[i].0 > hi {
                    return out;
                }
                out.push(vals[i]);
            }
            cur = *next;
        }
        out
    }

    /// All values for exactly `key`.
    pub fn get(&self, key: u128) -> Vec<u32> {
        self.range(key, key)
    }

    /// The entry with the smallest key, if any.
    pub fn min_entry(&self) -> Option<(u128, u32)> {
        let mut n = self.root;
        while let Node::Internal { children, .. } = &self.nodes[n] {
            n = children[0];
        }
        let mut cur = Some(n);
        while let Some(id) = cur {
            let Node::Leaf { keys, vals, next } = &self.nodes[id] else {
                unreachable!()
            };
            if let (Some(k), Some(&v)) = (keys.first(), vals.first()) {
                return Some((k.0, v));
            }
            cur = *next;
        }
        None
    }

    /// The entry with the largest key, if any (leaf-chain walk; the chain
    /// has no back pointers, so this is O(leaves) — fine for the aggregate
    /// path, which runs once per query).
    pub fn max_entry(&self) -> Option<(u128, u32)> {
        let mut best = None;
        let mut n = self.root;
        while let Node::Internal { children, .. } = &self.nodes[n] {
            n = *children.last().unwrap();
        }
        // The rightmost leaf by descent holds the max directly.
        if let Node::Leaf { keys, vals, .. } = &self.nodes[n] {
            if let (Some(k), Some(&v)) = (keys.last(), vals.last()) {
                best = Some((k.0, v));
            }
        }
        best
    }

    /// All `(key, value)` entries in key order (leaf-chain walk).
    pub fn iter(&self) -> Vec<(u128, u32)> {
        let mut out = Vec::with_capacity(self.len);
        let mut n = self.root;
        while let Node::Internal { children, .. } = &self.nodes[n] {
            n = children[0];
        }
        let mut cur = Some(n);
        while let Some(id) = cur {
            let Node::Leaf { keys, vals, next } = &self.nodes[id] else {
                unreachable!()
            };
            out.extend(keys.iter().map(|k| k.0).zip(vals.iter().copied()));
            cur = *next;
        }
        out
    }

    /// The multiset histogram of keys: `(key, occurrence-count)` in key
    /// order. This is exactly what a frequency-based attacker reads off the
    /// value index (§3.3).
    pub fn key_histogram(&self) -> Vec<(u128, u64)> {
        let mut out: Vec<(u128, u64)> = Vec::new();
        for (k, _) in self.iter() {
            match out.last_mut() {
                Some((lk, c)) if *lk == k => *c += 1,
                _ => out.push((k, 1)),
            }
        }
        out
    }

    /// Checks structural invariants; returns a description of the first
    /// violation. Used by unit and property tests.
    pub fn validate(&self) -> Result<(), String> {
        let mut leaf_depths = Vec::new();
        self.validate_rec(self.root, None, None, 1, &mut leaf_depths)?;
        if leaf_depths.windows(2).any(|w| w[0] != w[1]) {
            return Err("leaves at different depths".into());
        }
        let total: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { keys, .. } => keys.len(),
                Node::Internal { .. } => 0,
            })
            .sum();
        // Unreachable nodes would break this equality.
        let reachable = self.iter().len();
        if total != reachable || reachable != self.len {
            return Err(format!(
                "entry accounting broken: stored={total} reachable={reachable} len={}",
                self.len
            ));
        }
        Ok(())
    }

    fn validate_rec(
        &self,
        n: usize,
        lo: Option<K>,
        hi: Option<K>,
        depth: usize,
        leaf_depths: &mut Vec<usize>,
    ) -> Result<(), String> {
        match &self.nodes[n] {
            Node::Leaf { keys, vals, .. } => {
                if keys.len() != vals.len() {
                    return Err("leaf key/val length mismatch".into());
                }
                if keys.windows(2).any(|w| w[0] >= w[1]) {
                    return Err("leaf keys not strictly sorted".into());
                }
                for &k in keys {
                    if lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k >= h) {
                        return Err("leaf key outside separator bounds".into());
                    }
                }
                leaf_depths.push(depth);
                Ok(())
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err("internal fanout mismatch".into());
                }
                if keys.windows(2).any(|w| w[0] >= w[1]) {
                    return Err("internal keys not strictly sorted".into());
                }
                for (i, &c) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                    let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                    self.validate_rec(c, clo, chi, depth + 1, leaf_depths)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut t = BTree::new();
        t.insert(10, 1);
        t.insert(20, 2);
        t.insert(10, 3);
        assert_eq!(t.len(), 3);
        let mut v = t.get(10);
        v.sort();
        assert_eq!(v, [1, 3]);
        assert!(t.get(15).is_empty());
        t.validate().unwrap();
    }

    #[test]
    fn range_scan() {
        let mut t = BTree::new();
        for i in 0..100u32 {
            t.insert(i as u128 * 10, i);
        }
        let r = t.range(250, 400);
        assert_eq!(r, (25..=40).collect::<Vec<u32>>());
        assert!(t.range(5, 5).is_empty());
        assert_eq!(t.range(0, 0), [0]);
        assert!(t.range(10, 5).is_empty());
        t.validate().unwrap();
    }

    #[test]
    fn splits_maintain_invariants() {
        let mut t = BTree::with_order(3);
        for i in 0..500u32 {
            t.insert((i * 7919 % 1000) as u128, i);
            t.validate().unwrap();
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() > 2);
    }

    #[test]
    fn descending_and_duplicate_heavy() {
        let mut t = BTree::with_order(4);
        for i in (0..300u32).rev() {
            t.insert((i % 10) as u128, i);
        }
        t.validate().unwrap();
        assert_eq!(t.get(3).len(), 30);
        assert_eq!(t.range(0, 9).len(), 300);
    }

    #[test]
    fn iter_sorted() {
        let mut t = BTree::new();
        let keys = [5u128, 3, 9, 3, 7, 1, 9, 9];
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, i as u32);
        }
        let got: Vec<u128> = t.iter().into_iter().map(|(k, _)| k).collect();
        let mut want = keys.to_vec();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn duplicates_preserve_insertion_order_within_key() {
        let mut t = BTree::with_order(3);
        for i in 0..50u32 {
            t.insert(42, i);
        }
        assert_eq!(t.get(42), (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn key_histogram_counts() {
        let mut t = BTree::new();
        for _ in 0..4 {
            t.insert(7, 0);
        }
        t.insert(9, 0);
        assert_eq!(t.key_histogram(), [(7, 4), (9, 1)]);
    }

    #[test]
    fn empty_tree() {
        let t = BTree::new();
        assert!(t.is_empty());
        assert!(t.range(0, u128::MAX).is_empty());
        assert_eq!(t.height(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn full_range_returns_everything() {
        let mut t = BTree::with_order(5);
        for i in 0..1000u32 {
            t.insert(u128::from(i) << 64, i);
        }
        assert_eq!(t.range(0, u128::MAX).len(), 1000);
    }

    #[test]
    #[should_panic(expected = "order must be at least 3")]
    fn tiny_order_rejected() {
        BTree::with_order(2);
    }

    /// `lo == hi` point probes are exact at every position, including the
    /// first/last key of each leaf and the gaps between leaves.
    #[test]
    fn point_ranges_at_every_leaf_boundary() {
        // Order 3 → many tiny leaves, so every few keys sit on a boundary.
        let mut t = BTree::with_order(3);
        for i in 0..64u32 {
            t.insert(u128::from(i) * 2, i);
        }
        t.validate().unwrap();
        assert!(t.height() > 2, "test needs a multi-level tree");
        for i in 0..64u32 {
            let k = u128::from(i) * 2;
            assert_eq!(t.range(k, k), [i], "point probe at key {k}");
            // Probes *between* keys are empty even when the gap straddles
            // two leaves.
            assert!(t.range(k + 1, k + 1).is_empty(), "gap probe at {}", k + 1);
        }
    }

    /// Ranges that start and end mid-leaf walk the whole leaf chain and
    /// stop exactly at `hi`.
    #[test]
    fn ranges_spanning_the_leaf_chain() {
        let mut t = BTree::with_order(4);
        for i in 0..200u32 {
            t.insert(u128::from(i), i);
        }
        assert!(t.height() > 2);
        assert_eq!(t.range(0, 199), (0..=200 - 1).collect::<Vec<u32>>());
        assert_eq!(t.range(3, 150), (3..=150).collect::<Vec<u32>>());
        // Endpoints absent from the tree clamp correctly.
        assert_eq!(t.range(150, u128::MAX), (150..200).collect::<Vec<u32>>());
    }

    /// A duplicate run longer than a leaf spans several leaves; a point
    /// probe must still return the entire run in insertion order.
    #[test]
    fn duplicate_run_spanning_leaves() {
        let mut t = BTree::with_order(3);
        t.insert(5, 1000);
        for i in 0..40u32 {
            t.insert(7, i);
        }
        t.insert(9, 2000);
        t.validate().unwrap();
        assert_eq!(t.range(7, 7), (0..40).collect::<Vec<u32>>());
        assert_eq!(t.range(5, 6), [1000]);
        assert_eq!(t.range(8, u128::MAX), [2000]);
    }

    /// Degenerate probes on an empty tree: point, reversed, and full-range
    /// scans all come back empty without touching a leaf chain.
    #[test]
    fn empty_tree_degenerate_probes() {
        let t = BTree::with_order(3);
        assert!(t.range(42, 42).is_empty());
        assert!(t.range(9, 3).is_empty());
        assert!(t.range(0, u128::MAX).is_empty());
        assert_eq!(t.min_entry(), None);
        assert_eq!(t.max_entry(), None);
    }
}
