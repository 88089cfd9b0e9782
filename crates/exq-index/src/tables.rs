//! The DSI index table and the encryption block table (§5.1.1).
//!
//! The DSI index table maps tags — Vernam-encrypted inside an encryption
//! block, plaintext outside — to the DSI intervals of elements with that
//! tag, after same-tag adjacent-sibling grouping inside blocks. It is held
//! as what the server's joins run on: every listed interval once, in join
//! order, as an [`IntervalUniverse`], and each tag's list as positions in
//! it. The block table maps each block's representative interval (its
//! subtree root's) to the block id, held as each position's enclosing
//! block. Which tag string to store and which intervals to group is decided
//! in `exq-core`. Each table has one constructor, which refuses entries the
//! joins cannot run on, and an update moves one run of positions
//! ([`DsiIndexTable::splice_in`], [`DsiIndexTable::cut`]) without sorting.

use crate::dsi::Interval;
use crate::sjoin::{join_order, IntervalUniverse};
use std::collections::HashMap;
use std::ops::Range;

/// Tag → intervals, as positions in the universe of every listed interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DsiIndexTable {
    /// Every listed interval once, in join order.
    universe: IntervalUniverse,
    /// Per tag, its intervals as strictly ascending universe positions.
    postings: HashMap<String, Vec<u32>>,
    /// Every universe position, ascending: a wildcard step's list.
    every: Vec<u32>,
}

/// One tag's entries in a [`DsiIndexTable`], read as intervals.
#[derive(Debug, Clone, Copy)]
pub struct Postings<'a> {
    members: &'a [Interval],
    positions: &'a [u32],
}

impl<'a> Postings<'a> {
    /// The intervals, in join order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a Interval> + 'a {
        let members = self.members;
        self.positions.iter().map(move |&p| &members[p as usize])
    }

    pub fn len(self) -> usize {
        self.positions.len()
    }

    pub fn is_empty(self) -> bool {
        self.positions.is_empty()
    }
}

impl DsiIndexTable {
    /// The table of each tag's entries, in any order (a tag may come more
    /// than once), put in join order by one stable sort: an interval
    /// several tags list is one member, and a repeat under one tag one
    /// entry. `None` when two intervals neither nest strictly nor are
    /// disjoint (a partial overlap, or one `lo` with two `hi`s). The run
    /// to sort is reserved whole where the lists know their lengths, so a
    /// build's peak memory is its lists and that run, whatever order the
    /// lists come in.
    pub fn from_entries<T: Into<String>, L: IntoIterator<Item = Interval>>(
        entries: impl IntoIterator<Item = (T, L)>,
    ) -> Option<Self> {
        let lists: Vec<(T, L::IntoIter)> = entries
            .into_iter()
            .map(|(tag, list)| (tag, list.into_iter()))
            .collect();
        let mut tags: HashMap<String, usize> = HashMap::new();
        let mut tagged: Vec<(Interval, usize)> =
            Vec::with_capacity(lists.iter().map(|(_, list)| list.size_hint().0).sum());
        for (tag, list) in lists {
            let next = tags.len();
            let k = *tags.entry(tag.into()).or_insert(next);
            tagged.extend(list.map(|iv| (iv, k)));
        }
        tagged.sort_by(|a, b| join_order(&a.0, &b.0));
        let mut members: Vec<Interval> = Vec::new();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); tags.len()];
        for (iv, k) in tagged {
            if members.last() != Some(&iv) {
                members.push(iv);
            }
            let p = members.len() as u32 - 1;
            if lists[k].last() != Some(&p) {
                lists[k].push(p);
            }
        }
        let universe = IntervalUniverse::from_sorted(members)?;
        let postings = tags
            .into_iter()
            .map(|(tag, k)| (tag, std::mem::take(&mut lists[k])))
            .collect();
        Some(DsiIndexTable {
            every: (0..universe.len() as u32).collect(),
            universe,
            postings,
        })
    }

    /// Every listed interval once, in join order.
    pub fn universe(&self) -> &IntervalUniverse {
        &self.universe
    }

    /// A tag's entries as ascending universe positions.
    pub fn positions(&self, tag: &str) -> &[u32] {
        self.postings.get(tag).map_or(&[], Vec::as_slice)
    }

    /// Every universe position, ascending.
    pub fn all(&self) -> &[u32] {
        &self.every
    }

    /// A tag's entries, in join order.
    pub fn lookup(&self, tag: &str) -> Postings<'_> {
        self.postings_of(self.positions(tag))
    }

    fn postings_of<'a>(&'a self, positions: &'a [u32]) -> Postings<'a> {
        Postings {
            members: self.universe.members(),
            positions,
        }
    }

    /// Number of distinct tags.
    pub fn tag_count(&self) -> usize {
        self.postings.len()
    }

    /// Total interval entries — the structural-index size metric.
    pub fn entry_count(&self) -> usize {
        self.postings.values().map(Vec::len).sum()
    }

    /// Iterates `(tag, entries)`, tags in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Postings<'_>)> {
        self.postings
            .iter()
            .map(|(tag, list)| (tag.as_str(), self.postings_of(list)))
    }

    /// Adds an inserted subtree's entries as the last members under the
    /// member at `under` ([`IntervalUniverse::splice_in`], which `run`, the
    /// entries' distinct intervals in join order, must suit); returns the
    /// position the run starts at. Later positions move up by its length.
    pub fn splice_in(
        &mut self,
        under: u32,
        run: &[Interval],
        entries: &[(String, Interval)],
    ) -> u32 {
        let at = self.universe.splice_in(under, run);
        let k = run.len() as u32;
        let mut added: HashMap<&str, Vec<u32>> = HashMap::new();
        for (tag, iv) in entries {
            let i = run
                .binary_search_by(|m| join_order(m, iv))
                .expect("an entry's interval is in the run");
            added.entry(tag).or_default().push(at + i as u32);
        }
        for list in added.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        for (tag, list) in &mut self.postings {
            let new = added.remove(tag.as_str()).unwrap_or_default();
            let i = list.partition_point(|&p| p < at);
            for p in &mut list[i..] {
                *p += k;
            }
            list.splice(i..i, new);
        }
        let new_tags = added.into_iter().map(|(tag, list)| (tag.to_owned(), list));
        self.postings.extend(new_tags);
        let n = self.universe.len() as u32;
        self.every.extend(n - k..n);
        at
    }

    /// Removes the member at `p` with its subtree ([`IntervalUniverse::cut`])
    /// and returns the positions they held; a tag left with no entry goes.
    pub fn cut(&mut self, p: u32) -> Range<u32> {
        let cut = self.universe.cut(p);
        let k = cut.end - cut.start;
        self.postings.retain(|_, list| {
            let i = list.partition_point(|&q| q < cut.start);
            let j = list.partition_point(|&q| q < cut.end);
            list.drain(i..j);
            for q in &mut list[i..] {
                *q -= k;
            }
            !list.is_empty()
        });
        self.every.truncate(self.universe.len());
        cut
    }
}

/// Per DSI universe position, the block whose representative covers it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockTable {
    block_at: Vec<Option<u32>>,
}

impl BlockTable {
    /// The table of `(representative, block id)` pairs, in any order, over
    /// `dsi`: a block covers its representative's subtree. `None` when a
    /// representative is no member, or lies inside another block or holds
    /// one (encryption targets are disjoint subtrees).
    pub fn new(
        dsi: &DsiIndexTable,
        blocks: impl IntoIterator<Item = (Interval, u32)>,
    ) -> Option<Self> {
        let mut table = BlockTable {
            block_at: vec![None; dsi.universe.len()],
        };
        for (rep, id) in blocks {
            table.cover(&dsi.universe, rep, id)?;
        }
        Some(table)
    }

    /// Covers the subtree of the member `rep` with block `id`; `None`, and
    /// nothing covered, when `rep` is no member or meets another block.
    fn cover(&mut self, u: &IntervalUniverse, rep: Interval, id: u32) -> Option<()> {
        let p = u.find(&rep)?;
        let run = &mut self.block_at[p as usize..u.end(p) as usize];
        run.iter().all(Option::is_none).then(|| run.fill(Some(id)))
    }

    /// The block that covers the member at position `p`, if any.
    pub fn block_at(&self, p: u32) -> Option<u32> {
        self.block_at[p as usize]
    }

    /// Every `(representative, block id)` pair, by `lo`: the covered
    /// members whose parent is not in the same block. `dsi` is the table
    /// this one is over.
    pub fn iter<'a>(
        &'a self,
        dsi: &'a DsiIndexTable,
    ) -> impl Iterator<Item = (Interval, u32)> + 'a {
        let u = &dsi.universe;
        (0..self.block_at.len() as u32).filter_map(move |p| {
            let id = self.block_at(p)?;
            let root = u.parent(p).is_none_or(|q| self.block_at(q) != Some(id));
            root.then(|| (u.interval(p), id))
        })
    }

    /// Follows [`DsiIndexTable::splice_in`] (`dsi` is the table after it):
    /// the run's positions go in at `at`, then each new block, inside the
    /// run and not inside another, covers its representative's subtree.
    pub fn splice_in(&mut self, dsi: &DsiIndexTable, at: u32, blocks: &[(Interval, u32)]) {
        let (i, k) = (at as usize, dsi.universe.len() - self.block_at.len());
        self.block_at.splice(i..i, vec![None; k]);
        for &(rep, id) in blocks {
            self.cover(&dsi.universe, rep, id)
                .expect("an insert's blocks are members that do not nest");
        }
    }

    /// Follows [`DsiIndexTable::cut`] of a subtree no block covers: drops
    /// the positions `cut` and returns the ids of the blocks inside, once.
    pub fn cut(&mut self, cut: Range<u32>) -> Vec<u32> {
        let mut dead: Vec<u32> = self
            .block_at
            .drain(cut.start as usize..cut.end as usize)
            .flatten()
            .collect();
        dead.dedup();
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(lo, hi)
    }

    fn list(t: &DsiIndexTable, tag: &str) -> Vec<Interval> {
        t.lookup(tag).iter().copied().collect()
    }

    /// The table of single entries.
    fn table<'a>(entries: impl IntoIterator<Item = &'a (&'a str, Interval)>) -> DsiIndexTable {
        let lists = entries.into_iter().map(|&(tag, iv)| (tag, [iv]));
        DsiIndexTable::from_entries(lists).expect("the entries nest")
    }

    #[test]
    fn dsi_table_lookup() {
        let t = table(&[
            ("patient", iv(14, 46)),
            ("patient", iv(54, 86)),
            ("U84573", iv(16, 20)),
        ]);
        assert_eq!(t.lookup("patient").len(), 2);
        assert_eq!(list(&t, "U84573"), [iv(16, 20)]);
        assert!(t.lookup("ghost").is_empty());
        assert_eq!(t.tag_count(), 2);
        assert_eq!(t.entry_count(), 3);
        assert_eq!(t.positions("patient"), [0, 2]);
        assert_eq!(t.all(), [0, 1, 2]);
    }

    #[test]
    fn dsi_table_is_in_join_order() {
        let list_a = [iv(50, 60), iv(10, 20), iv(5, 90), iv(50, 60)];
        let t = DsiIndexTable::from_entries([("a", list_a)]).unwrap();
        assert_eq!(list(&t, "a"), [iv(5, 90), iv(10, 20), iv(50, 60)]);
        assert_eq!(t.entry_count(), 3);
    }

    /// Intervals that neither nest strictly nor are disjoint are refused.
    #[test]
    fn overlapping_entries_are_refused() {
        let table = |e: &[(&str, Interval)]| {
            DsiIndexTable::from_entries(e.iter().map(|&(tag, iv)| (tag, [iv])))
        };
        assert!(table(&[("a", iv(10, 30)), ("b", iv(20, 40))]).is_none());
        assert!(table(&[("a", iv(10, 30)), ("a", iv(10, 20))]).is_none());
        assert!(table(&[("a", iv(10, 30)), ("a", iv(12, 30))]).is_none());
        assert!(table(&[("a", iv(10, 30)), ("b", iv(10, 30))]).is_some());
    }

    #[test]
    fn block_cover_lookup() {
        let members = [
            iv(10, 90),
            iv(16, 20),
            iv(17, 18),
            iv(25, 30),
            iv(39, 44),
            iv(55, 60),
            iv(56, 57),
            iv(61, 62),
        ];
        let dsi = DsiIndexTable::from_entries([("t", members)]).unwrap();
        let blocks = [(iv(55, 60), 3), (iv(16, 20), 1), (iv(39, 44), 2)];
        let mut b = BlockTable::new(&dsi, blocks).unwrap();
        let at: Vec<Option<u32>> = (0..8).map(|p| b.block_at(p)).collect();
        assert_eq!(
            at,
            [
                None,
                Some(1),
                Some(1),
                None,
                Some(2),
                Some(3),
                Some(3),
                None
            ]
        );
        let pairs: Vec<(Interval, u32)> = b.iter(&dsi).collect();
        assert_eq!(pairs, [(iv(16, 20), 1), (iv(39, 44), 2), (iv(55, 60), 3)]);
        assert_eq!(b.cut(4..5), [2]);
        assert_eq!(b.cut(1..3), [1]);
        // A representative that is no member, or inside another block.
        assert!(BlockTable::new(&dsi, [(iv(16, 21), 1)]).is_none());
        assert!(BlockTable::new(&dsi, [(iv(16, 20), 1), (iv(17, 18), 2)]).is_none());
        assert!(BlockTable::new(&dsi, [(iv(17, 18), 2), (iv(16, 20), 1)]).is_none());
    }

    /// A run spliced in and a subtree cut out leave the table a build from
    /// the same entries gives; the block table follows.
    #[test]
    fn splice_and_cut_equal_a_fresh_build() {
        let entries = [("r", iv(0, 100)), ("a", iv(10, 40)), ("b", iv(20, 30))];
        let mut t = table(&entries);
        let mut b = BlockTable::new(&t, [(iv(20, 30), 0)]).unwrap();
        let new = [
            ("a".to_owned(), iv(50, 90)),
            ("c".to_owned(), iv(60, 70)),
            ("a".to_owned(), iv(60, 70)),
        ];
        let at = t.splice_in(0, &[iv(50, 90), iv(60, 70)], &new);
        assert_eq!(at, 3);
        b.splice_in(&t, at, &[(iv(60, 70), 1)]);
        let added: Vec<(&str, Interval)> =
            new.iter().map(|(tag, iv)| (tag.as_str(), *iv)).collect();
        let fresh = table(entries.iter().chain(&added));
        assert_eq!(t, fresh);
        let blocks = [(iv(20, 30), 0), (iv(60, 70), 1)];
        assert_eq!(b, BlockTable::new(&fresh, blocks).unwrap());
        assert_eq!(t.positions("a"), [1, 3, 4]);

        let cut = t.cut(1);
        assert_eq!(cut, 1..3);
        assert_eq!(b.cut(cut), [0]);
        let left = [
            ("r", iv(0, 100)),
            ("a", iv(50, 90)),
            ("a", iv(60, 70)),
            ("c", iv(60, 70)),
        ];
        let fresh = table(&left);
        assert_eq!(t, fresh);
        assert_eq!(b, BlockTable::new(&fresh, [(iv(60, 70), 1)]).unwrap());
        t.cut(1);
        assert_eq!(t.tag_count(), 1);
        assert_eq!(t.all(), [0]);
    }

    #[test]
    fn empty_tables() {
        let t = table(&[]);
        assert_eq!(t.entry_count(), 0);
        let b = BlockTable::new(&t, []).unwrap();
        assert_eq!(b.iter(&t).count(), 0);
    }
}
