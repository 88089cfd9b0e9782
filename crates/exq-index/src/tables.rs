//! The DSI index table and the encryption block table (§5.1.1).
//!
//! The DSI index table maps tags — Vernam-encrypted when the element is
//! inside an encryption block, plaintext otherwise — to the list of DSI
//! intervals of elements with that tag, after same-tag adjacent-sibling
//! grouping inside blocks. The block table maps each block's representative
//! interval (the interval of the block's subtree root) to the block id.
//!
//! Both tables are plain data: the decision of *which* tag string to store
//! (plain vs ciphertext) and which intervals to group is made by the
//! metadata builder in `exq-core`; the server looks entries up, and keeps
//! the sorted lists current under updates by merging and cutting runs.

use crate::dsi::Interval;
use crate::sjoin::{join_order, sort_intervals};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

/// The run of a join-ordered list that `range` covers, found by two binary
/// searches: in a list whose intervals nest or are disjoint, what `range`
/// covers starts at `range` itself and ends at the first interval that
/// starts past it.
fn covered_run<T>(list: &[T], iv: impl Fn(&T) -> Interval, range: Interval) -> Range<usize> {
    let from = list.partition_point(|x| join_order(&iv(x), &range) == Ordering::Less);
    from..from + list[from..].partition_point(|x| iv(x).lo <= range.hi)
}

/// Tag → interval list.
#[derive(Debug, Clone, Default)]
pub struct DsiIndexTable {
    entries: HashMap<String, Vec<Interval>>,
    sealed: bool,
}

impl DsiIndexTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one interval under a tag (plaintext or ciphertext form).
    pub fn add(&mut self, tag: &str, interval: Interval) {
        self.entries
            .entry(tag.to_owned())
            .or_default()
            .push(interval);
        self.sealed = false;
    }

    /// Finishes construction: sorts every interval list into join order, so
    /// no lookup sorts again.
    pub fn seal(&mut self) {
        for list in self.entries.values_mut() {
            sort_intervals(list);
            list.dedup();
        }
        self.sealed = true;
    }

    /// Looks up the intervals for a tag. Sorted in join order once the
    /// table is sealed.
    pub fn lookup(&self, tag: &str) -> &[Interval] {
        debug_assert!(self.sealed, "DsiIndexTable::seal() must run before lookups");
        self.entries.get(tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct tags.
    pub fn tag_count(&self) -> usize {
        self.entries.len()
    }

    /// Total interval entries — the structural-index size metric.
    pub fn entry_count(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Iterates `(tag, intervals)`; every list is in join order once the
    /// table is sealed.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Interval])> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Merges a sealed table's new entries in place, keeping it sealed: per
    /// tag, the new intervals are sorted and spliced in at one binary-searched
    /// point. They must be one run in join order against every list they
    /// join (an inserted subtree's intervals are), none already listed under
    /// the same tag.
    pub fn merge_run(&mut self, entries: &[(String, Interval)]) {
        debug_assert!(self.sealed, "DsiIndexTable::seal() must run before a merge");
        let mut new: Vec<(&str, Interval)> =
            entries.iter().map(|(t, iv)| (t.as_str(), *iv)).collect();
        new.sort_by(|a, b| a.0.cmp(b.0).then(join_order(&a.1, &b.1)));
        new.dedup();
        for run in new.chunk_by(|a, b| a.0 == b.0) {
            let (tag, first) = run[0];
            let list = self.entries.entry(tag.to_owned()).or_default();
            let at = list.partition_point(|iv| join_order(iv, &first) == Ordering::Less);
            debug_assert!(list
                .get(at)
                .is_none_or(|next| join_order(&run[run.len() - 1].1, next) == Ordering::Less));
            list.splice(at..at, run.iter().map(|&(_, iv)| iv));
        }
    }

    /// Removes every interval covered by `range` (subtree deletion) and
    /// returns how many entries were dropped. Each list loses one run, cut
    /// out by binary search, so the table stays sealed.
    pub fn remove_within(&mut self, range: Interval) -> usize {
        let mut removed = 0;
        self.entries.retain(|_, list| {
            let run = covered_run(list, |&iv| iv, range);
            removed += run.len();
            list.drain(run);
            !list.is_empty()
        });
        removed
    }
}

/// Representative interval → block id.
#[derive(Debug, Clone, Default)]
pub struct BlockTable {
    /// Sorted by representative interval `lo`.
    entries: Vec<(Interval, u32)>,
    sealed: bool,
}

impl BlockTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, representative: Interval, block_id: u32) {
        self.entries.push((representative, block_id));
        self.sealed = false;
    }

    pub fn seal(&mut self) {
        self.entries.sort_by_key(|(iv, _)| (iv.lo, iv.hi));
        self.sealed = true;
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (Interval, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// For each interval of a list in join order, the block whose
    /// representative interval covers it (equality or strict containment),
    /// by one merge with the table. Blocks never nest (encryption targets
    /// are disjoint subtrees), so a cover is unique if it exists.
    pub fn covering(&self, list: &[Interval]) -> Vec<Option<u32>> {
        debug_assert!(self.sealed, "BlockTable::seal() must run before lookups");
        let mut next = self.entries.iter().copied().peekable();
        let mut open: Option<(Interval, u32)> = None;
        list.iter()
            .map(|x| {
                while let Some(e) = next.next_if(|(rep, _)| rep.lo <= x.lo) {
                    open = Some(e);
                }
                open.filter(|(rep, _)| rep.covers(x)).map(|(_, id)| id)
            })
            .collect()
    }

    /// Merges a sealed table's new blocks in place, keeping it sealed: they
    /// are sorted and spliced in at one binary-searched point, so they must
    /// be one run against the table (an inserted subtree's blocks are).
    pub fn merge_run(&mut self, entries: &[(Interval, u32)]) {
        debug_assert!(self.sealed, "BlockTable::seal() must run before a merge");
        let mut new = entries.to_vec();
        new.sort_by_key(|(iv, _)| (iv.lo, iv.hi));
        let Some(&(first, _)) = new.first() else {
            return;
        };
        let at = self
            .entries
            .partition_point(|(iv, _)| (iv.lo, iv.hi) < (first.lo, first.hi));
        self.entries.splice(at..at, new);
    }

    /// Removes every block whose representative interval is covered by
    /// `range`, one run cut out by binary search (blocks never nest, so the
    /// table is in join order too); returns the removed ids.
    pub fn remove_within(&mut self, range: Interval) -> Vec<u32> {
        let run = covered_run(&self.entries, |&(iv, _)| iv, range);
        self.entries.drain(run).map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn dsi_table_lookup() {
        let mut t = DsiIndexTable::new();
        t.add("patient", iv(14, 46));
        t.add("patient", iv(54, 86));
        t.add("U84573", iv(16, 20));
        t.seal();
        assert_eq!(t.lookup("patient").len(), 2);
        assert_eq!(t.lookup("U84573"), [iv(16, 20)]);
        assert!(t.lookup("ghost").is_empty());
        assert_eq!(t.tag_count(), 2);
        assert_eq!(t.entry_count(), 3);
    }

    #[test]
    fn dsi_table_sorts_on_seal() {
        let mut t = DsiIndexTable::new();
        t.add("a", iv(50, 60));
        t.add("a", iv(10, 20));
        t.add("a", iv(10, 90));
        t.seal();
        let l = t.lookup("a");
        assert_eq!(l, [iv(10, 90), iv(10, 20), iv(50, 60)]);
    }

    #[test]
    fn block_cover_lookup() {
        let mut b = BlockTable::new();
        b.add(iv(16, 20), 1);
        b.add(iv(39, 44), 2);
        b.add(iv(55, 60), 3);
        b.seal();
        let list = [
            iv(10, 90),
            iv(16, 20),
            iv(17, 18),
            iv(25, 30),
            iv(39, 44),
            iv(56, 57),
            iv(61, 62),
        ];
        assert_eq!(
            b.covering(&list),
            [None, Some(1), Some(1), None, Some(2), Some(3), None]
        );
        assert_eq!(b.remove_within(iv(30, 50)), [2]);
        assert_eq!(b.covering(&list[4..5]), [None]);
    }

    #[test]
    fn empty_tables() {
        let mut t = DsiIndexTable::new();
        t.seal();
        assert_eq!(t.entry_count(), 0);
        let mut b = BlockTable::new();
        b.seal();
        assert!(b.is_empty());
        assert_eq!(b.covering(&[iv(1, 2)]), [None]);
    }
}
