//! The OPESS value index (§5.2) as one sorted run.
//!
//! Keys are 128-bit ciphertexts, values are encryption-block ids. Duplicate
//! keys arise from scaling (replicated index entries) and from several
//! blocks holding the same ciphertext value; equal keys keep the order they
//! came in. Every load is a bulk load of entries already in key order, a
//! lookup is two binary searches, and an insert merges its entries in.

/// A sorted run of `(u128 key, u32 value)` entries, duplicates allowed.
///
/// ```
/// use exq_index::ValueIndex;
/// let mut t = ValueIndex::from_sorted([(50, 1), (70, 2)]).unwrap();
/// t.merge([(50, 3)]); // duplicate key, after the one already held
/// assert_eq!(t.range(40, 60), [1, 3]);
/// assert_eq!(t.iter().next_back(), Some((70, 2)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueIndex {
    keys: Vec<u128>,
    vals: Vec<u32>,
}

impl ValueIndex {
    /// The index of entries in ascending key order, equal keys in the
    /// order given; `None` if a key is smaller than the one before it.
    ///
    /// ```
    /// use exq_index::ValueIndex;
    /// let t = ValueIndex::from_sorted([(10, 1), (10, 2), (30, 3)]).unwrap();
    /// assert_eq!(t.range(0, 20), [1, 2]);
    /// assert!(ValueIndex::from_sorted([(30, 3), (10, 1)]).is_none());
    /// ```
    pub fn from_sorted(entries: impl IntoIterator<Item = (u128, u32)>) -> Option<ValueIndex> {
        let (keys, vals): (Vec<u128>, Vec<u32>) = entries.into_iter().unzip();
        keys.is_sorted().then_some(ValueIndex { keys, vals })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Adds `entries`, in any order: each lands after every entry of an
    /// equal key already held, and equal keys among them keep the order
    /// given. One pass from the back moves each entry it passes once.
    pub fn merge(&mut self, entries: impl IntoIterator<Item = (u128, u32)>) {
        let mut new: Vec<(u128, u32)> = entries.into_iter().collect();
        new.sort_by_key(|&(k, _)| k);
        let mut end = self.len();
        self.keys.resize(end + new.len(), 0);
        self.vals.resize(end + new.len(), 0);
        // `new[..=j]` and the held entries `[..end]` are still to place.
        for (j, &(k, v)) in new.iter().enumerate().rev() {
            let at = self.keys[..end].partition_point(|&x| x <= k);
            self.keys.copy_within(at..end, at + j + 1);
            self.vals.copy_within(at..end, at + j + 1);
            self.keys[at + j] = k;
            self.vals[at + j] = v;
            end = at;
        }
    }

    /// The values whose key is in `[lo, hi]`, in key order; empty when
    /// `lo > hi`.
    pub fn range(&self, lo: u128, hi: u128) -> &[u32] {
        let start = self.keys.partition_point(|&k| k < lo);
        let end = self.keys.partition_point(|&k| k <= hi).max(start);
        &self.vals[start..end]
    }

    /// Every `(key, value)` entry in key order; `rev()` walks it from the
    /// largest key.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u128, u32)> + ExactSizeIterator + '_ {
        self.keys.iter().copied().zip(self.vals.iter().copied())
    }

    /// The multiset histogram of keys: `(key, occurrence-count)` in key
    /// order. This is exactly what a frequency-based attacker reads off the
    /// value index (§3.3).
    pub fn key_histogram(&self) -> Vec<(u128, u64)> {
        self.keys
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index merging `entries` one at a time into an empty one.
    fn one_by_one(entries: &[(u128, u32)]) -> ValueIndex {
        let mut t = ValueIndex::default();
        for &e in entries {
            t.merge([e]);
        }
        t
    }

    #[test]
    fn range_scan() {
        let t = ValueIndex::from_sorted((0..100u32).map(|i| (u128::from(i) * 10, i))).unwrap();
        assert_eq!(t.range(250, 400), (25..=40).collect::<Vec<u32>>());
        assert!(t.range(5, 5).is_empty());
        assert_eq!(t.range(0, 0), [0]);
        assert_eq!(t.range(150, u128::MAX), (15..100).collect::<Vec<u32>>());
    }

    /// A reversed range is empty wherever its ends fall, the full range is
    /// everything, and a point range on a duplicated key is its whole run
    /// in insertion order.
    #[test]
    fn hostile_and_degenerate_ranges() {
        let mut t = ValueIndex::from_sorted([(5, 1000), (9, 2000)]).unwrap();
        t.merge((0..40).map(|i| (7, i)));
        assert_eq!(t.range(7, 7), (0..40).collect::<Vec<u32>>());
        assert_eq!(t.range(5, 6), [1000]);
        assert_eq!(t.range(0, u128::MAX).len(), 42);
        for (lo, hi) in [(9, 5), (8, 7), (7, 6), (u128::MAX, 0), (10, 9)] {
            assert!(t.range(lo, hi).is_empty(), "{lo} > {hi}");
        }
        let empty = ValueIndex::default();
        assert!(empty.range(42, 42).is_empty());
        assert!(empty.range(9, 3).is_empty());
        assert!(empty.range(0, u128::MAX).is_empty());
        assert_eq!(empty.iter().next(), None);
    }

    /// Merged entries land after equal keys already held, in the order
    /// given among themselves, wherever they fall in the run.
    #[test]
    fn merges_keep_insertion_order_within_a_key() {
        let keys = [5u128, 3, 9, 3, 7, 1, 9, 9, 0, 12];
        let entries: Vec<(u128, u32)> = keys.iter().zip(0..).map(|(&k, i)| (k, i)).collect();
        let mut t = ValueIndex::from_sorted([(3, 100), (9, 101)]).unwrap();
        t.merge(entries.iter().copied());
        let mut want = [(3, 100), (9, 101)].to_vec();
        want.extend(&entries);
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(t.iter().collect::<Vec<_>>(), want);
        assert_eq!(t.range(9, 9), [101, 2, 6, 7]);
        assert_eq!(one_by_one(&want), t);
    }

    #[test]
    fn key_histogram_counts() {
        let t = one_by_one(&[(7, 0), (9, 0), (7, 0), (7, 0), (7, 0)]);
        assert_eq!(t.key_histogram(), [(7, 4), (9, 1)]);
        assert!(ValueIndex::default().key_histogram().is_empty());
    }
}
