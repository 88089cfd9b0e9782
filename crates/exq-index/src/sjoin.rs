//! Structural-join operators over DSI intervals (§6.2).
//!
//! The server evaluates the structural part of a translated query with
//! standard interval structural joins: an ancestor–descendant pair matches
//! when the descendant's interval nests strictly inside the ancestor's.
//! Parent–child is derived exactly as §5.1 prescribes:
//! `child(x, y) ⇔ desc(x, y) ∧ ¬∃z: desc(x, z) ∧ desc(z, y)`,
//! with `z` ranging over every interval the server can see.
//!
//! The server's semi-joins run on *positions* in an [`IntervalUniverse`],
//! the visible intervals in join order, which is how the DSI index table
//! holds its entries (`crate::tables`). DSI intervals nest or are
//! disjoint, so a member's subtree is the run of positions right after it,
//! and every semi-join below is one forward merge of two ascending
//! position lists.

use crate::dsi::Interval;
use std::cmp::Ordering;
use std::ops::Range;

/// Join order: `lo` ascending, then `hi` descending, so an interval comes
/// before every interval it contains.
pub fn join_order(a: &Interval, b: &Interval) -> Ordering {
    a.lo.cmp(&b.lo).then(b.hi.cmp(&a.hi))
}

/// Sorts intervals by `(lo asc, hi desc)` — the order every join expects.
pub fn sort_intervals(iv: &mut [Interval]) {
    iv.sort_by(join_order);
}

/// Stack-based ancestor–descendant join. Inputs must be sorted with
/// [`sort_intervals`]; output is every `(ancestor-index, descendant-index)`
/// pair with strict containment.
pub fn join_anc_desc(anc: &[Interval], desc: &[Interval]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    // Sweep descendants; maintain a stack of enclosing ancestor candidates.
    let mut stack: Vec<usize> = Vec::new();
    let mut ai = 0;
    for (di, d) in desc.iter().enumerate() {
        // Push ancestors that start before this descendant.
        while ai < anc.len() && anc[ai].lo < d.lo {
            stack.push(ai);
            ai += 1;
        }
        // Pop ancestors that ended before this descendant starts.
        while let Some(&top) = stack.last() {
            if anc[top].hi < d.lo {
                stack.pop();
            } else {
                break;
            }
        }
        // All remaining stack entries that contain `d` match. Ancestor
        // intervals on the stack are nested; scan from the top until one no
        // longer contains the descendant... but because unrelated intervals
        // may interleave on the stack only as nested chains, every stack
        // member with hi > d.hi contains d.
        for &a in stack.iter() {
            if anc[a].contains(d) {
                out.push((a, di));
            }
        }
    }
    out
}

/// Descendant semi-join over universe positions: the members of `desc`
/// with a strict ancestor in `anc` or, with `or_self`, that are themselves
/// in `anc`. Both lists ascending; so is the output.
pub fn semijoin_desc(u: &IntervalUniverse, anc: &[u32], desc: &[u32], or_self: bool) -> Vec<u32> {
    // One past the last position covered by an `anc` member opened so far.
    let mut reach = 0;
    let mut anc = anc.iter().copied().peekable();
    desc.iter()
        .copied()
        .filter(|&d| {
            while let Some(a) = anc.next_if(|&a| a < d || (or_self && a == d)) {
                reach = reach.max(u.end[a as usize]);
            }
            d < reach
        })
        .collect()
}

/// Ancestor semi-join over universe positions: the members of `anc` with
/// a strict descendant in `desc` or, with `or_self`, that are themselves in
/// `desc`. Both lists ascending; so is the output.
pub fn semijoin_anc(u: &IntervalUniverse, anc: &[u32], desc: &[u32], or_self: bool) -> Vec<u32> {
    let mut di = 0;
    anc.iter()
        .copied()
        .filter(|&a| {
            let from = if or_self { a } else { a + 1 };
            while desc.get(di).is_some_and(|&d| d < from) {
                di += 1;
            }
            desc.get(di).is_some_and(|&d| d < u.end[a as usize])
        })
        .collect()
}

/// Child semi-join over universe positions: the members of `kids` whose
/// parent is in `parents`. Both lists ascending; so is the output.
pub fn semijoin_child(u: &IntervalUniverse, parents: &[u32], kids: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    parent_pairs(u, parents, kids, |k, _| out.push(kids[k]));
    out
}

/// Parent semi-join over universe positions: the members of `parents`
/// that are the parent of a member of `kids`. Both lists ascending; so is
/// the output.
pub fn semijoin_parent(u: &IntervalUniverse, parents: &[u32], kids: &[u32]) -> Vec<u32> {
    let mut keep = vec![false; parents.len()];
    parent_pairs(u, parents, kids, |_, i| keep[i] = true);
    parents
        .iter()
        .zip(keep)
        .filter_map(|(&p, keep)| keep.then_some(p))
        .collect()
}

/// What [`least_child`] and [`least_desc`] hold for a member that reaches
/// no candidate.
pub const NONE: u32 = u32::MAX;

/// Per member of `parents`, the least `vals[k]` over the members `kids[k]`
/// that are its children, or [`NONE`]. Both lists ascending; `vals` is
/// aligned with `kids`.
pub fn least_child(u: &IntervalUniverse, parents: &[u32], kids: &[u32], vals: &[u32]) -> Vec<u32> {
    let mut least = vec![NONE; parents.len()];
    parent_pairs(u, parents, kids, |k, i| least[i] = least[i].min(vals[k]));
    least
}

/// Per member of `anc`, the least `vals[k]` over the members `desc[k]`
/// strictly below it or, with `or_self`, equal to it, or [`NONE`]. Both
/// lists ascending; `vals` is aligned with `desc`. One stack merge: a value
/// lands on the deepest open member that covers its candidate, and a member
/// folds its least into the one below it on the stack when it closes, since
/// that one covers everything it does.
pub fn least_desc(
    u: &IntervalUniverse,
    anc: &[u32],
    desc: &[u32],
    vals: &[u32],
    or_self: bool,
) -> Vec<u32> {
    let mut least = vec![NONE; anc.len()];
    let mut open: Vec<usize> = Vec::new();
    // Closes the open members that end at or before `at`.
    let close = |open: &mut Vec<usize>, least: &mut [u32], at: u32| {
        while let Some(&i) = open.last().filter(|&&i| u.end[anc[i] as usize] <= at) {
            open.pop();
            if let Some(&outer) = open.last() {
                least[outer] = least[outer].min(least[i]);
            }
        }
    };
    let mut ai = 0;
    for (&d, &v) in desc.iter().zip(vals) {
        while let Some(&a) = anc.get(ai).filter(|&&a| a < d || (or_self && a == d)) {
            close(&mut open, &mut least, a);
            open.push(ai);
            ai += 1;
        }
        close(&mut open, &mut least, d);
        if let Some(&i) = open.last() {
            least[i] = least[i].min(v);
        }
    }
    close(&mut open, &mut least, NONE);
    least
}

/// One stack merge of two ascending position lists: calls `hit(k, i)` for
/// every `kids[k]` whose parent is `parents[i]`, in `kids` order. The stack
/// holds the `parents` members opened so far, innermost on top; once those
/// that end at or before a kid are popped, the top contains the kid and is
/// the deepest member of `parents` that does, so the kid is a hit exactly
/// when the top is its parent.
fn parent_pairs(
    u: &IntervalUniverse,
    parents: &[u32],
    kids: &[u32],
    mut hit: impl FnMut(usize, usize),
) {
    let mut open: Vec<usize> = Vec::new();
    let mut pi = 0;
    for (k, &kid) in kids.iter().enumerate() {
        while parents.get(pi).is_some_and(|&p| p < kid) {
            open.push(pi);
            pi += 1;
        }
        while open
            .last()
            .is_some_and(|&i| u.end[parents[i] as usize] <= kid)
        {
            open.pop();
        }
        if let Some(&i) = open.last() {
            if u.parent[kid as usize] == parents[i] {
                hit(k, i);
            }
        }
    }
}

/// `parent` of a member with no enclosing member.
const NO_PARENT: u32 = u32::MAX;

/// The intervals the server can see, in join order, as the positions its
/// joins run on. Each member keeps its parent (tightest enclosing member)
/// and the end of its subtree, both as positions, so parent–child and
/// containment are array loads. Members must nest or be disjoint, as DSI
/// intervals do.
///
/// A subtree's members are one run of positions, so an update moves runs:
/// [`splice_in`](Self::splice_in) adds one under a member,
/// [`cut`](Self::cut) takes one out, and every later position moves by the
/// run's length. Neither sorts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalUniverse {
    members: Vec<Interval>,
    /// Parent position, [`NO_PARENT`] for a root.
    parent: Vec<u32>,
    /// One past the last position of the member's subtree.
    end: Vec<u32>,
}

impl IntervalUniverse {
    /// The universe of `members`, distinct and in join order. A stack of
    /// the open members: each new member's parent is the innermost one that
    /// contains it; the ones it pops end there, and must end before it
    /// starts, else (two members neither nest strictly nor are disjoint) `None`.
    pub fn from_sorted(members: Vec<Interval>) -> Option<Self> {
        assert!(
            members.len() < NO_PARENT as usize,
            "universe positions fit below the root mark"
        );
        let n = members.len() as u32;
        let mut parent = Vec::with_capacity(members.len());
        let mut end = vec![n; members.len()];
        let mut open: Vec<u32> = Vec::new();
        for (p, iv) in (0..n).zip(&members) {
            while let Some(&top) = open.last() {
                let top_iv = members[top as usize];
                if top_iv.contains(iv) {
                    break;
                }
                if top_iv.hi >= iv.lo {
                    return None;
                }
                end[top as usize] = p;
                open.pop();
            }
            parent.push(open.last().copied().unwrap_or(NO_PARENT));
            open.push(p);
        }
        Some(IntervalUniverse {
            members,
            parent,
            end,
        })
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Every member, in join order: position `p` is `members()[p]`.
    pub fn members(&self) -> &[Interval] {
        &self.members
    }

    /// The member at position `p`.
    pub fn interval(&self, p: u32) -> Interval {
        self.members[p as usize]
    }

    /// The parent of the member at `p` — the tightest member strictly
    /// containing it, as far as the server can tell — or `None` for a root.
    pub fn parent(&self, p: u32) -> Option<u32> {
        Some(self.parent[p as usize]).filter(|&q| q != NO_PARENT)
    }

    /// One past the last position of the subtree of the member at `p`.
    pub fn end(&self, p: u32) -> u32 {
        self.end[p as usize]
    }

    /// The position of `iv`, if it is a member: one binary search.
    pub fn find(&self, iv: &Interval) -> Option<u32> {
        self.members
            .binary_search_by(|m| join_order(m, iv))
            .ok()
            .map(|p| p as u32)
    }

    /// The last child of the member at `p`, if it has one. The members
    /// strictly inside `p` are the run `[p + 1, end(p))`; the last child is
    /// the one holding the run's last position, found by going up from
    /// there, one hop a level.
    pub fn last_child(&self, p: u32) -> Option<u32> {
        let mut q = self.end(p).checked_sub(1).filter(|&q| q > p)?;
        while self.parent[q as usize] != p {
            q = self.parent[q as usize];
        }
        Some(q)
    }

    /// Moves the subtree ends of `p` and its ancestors by `by`.
    fn stretch_up(&mut self, p: Option<u32>, by: impl Fn(u32) -> u32) {
        let mut q = p;
        while let Some(at) = q {
            self.end[at as usize] = by(self.end[at as usize]);
            q = self.parent(at);
        }
    }

    /// Adds `run` as the last members of the subtree of `under` and
    /// returns the position it starts at. `run` must be distinct members in
    /// join order that nest or are disjoint, each strictly inside `under`'s
    /// interval and after every member already in its subtree, so that it
    /// lands as one block of positions. Later positions move up by its
    /// length; so do the subtree ends of `under` and its ancestors, and
    /// nothing else before it changes, so the cost is the tail's length
    /// and the depth, not the universe's size.
    pub fn splice_in(&mut self, under: u32, run: &[Interval]) -> u32 {
        let at = self.end(under);
        let k = run.len() as u32;
        assert!(
            self.members.len() + run.len() < NO_PARENT as usize,
            "universe positions fit below the root mark"
        );
        debug_assert!(run.iter().all(|iv| self.interval(under).contains(iv)));
        debug_assert!(run.first().is_none_or(|first| {
            join_order(&self.members[at as usize - 1], first) == Ordering::Less
        }));
        self.stretch_up(Some(under), |e| e + k);
        let tail = at as usize..self.members.len();
        for (parent, end) in self.parent[tail.clone()]
            .iter_mut()
            .zip(&mut self.end[tail])
        {
            if *parent != NO_PARENT && *parent >= at {
                *parent += k;
            }
            *end += k;
        }
        let local = Self::from_sorted(run.to_vec()).expect("the run nests");
        let parents = local.parent.iter().map(|&q| match q {
            NO_PARENT => under,
            q => q + at,
        });
        let ends = local.end.iter().map(|&e| e + at);
        let i = at as usize;
        self.members.splice(i..i, local.members);
        self.parent.splice(i..i, parents);
        self.end.splice(i..i, ends);
        at
    }

    /// Removes the member at `p` with its whole subtree and returns the
    /// positions they held. Later positions move down by the run's length;
    /// so do the subtree ends of `p`'s ancestors, and nothing else before
    /// it changes.
    pub fn cut(&mut self, p: u32) -> Range<u32> {
        let cut = p..self.end(p);
        let k = cut.end - cut.start;
        self.stretch_up(self.parent(p), |e| e - k);
        let (a, b) = (cut.start as usize, cut.end as usize);
        self.members.drain(a..b);
        self.parent.drain(a..b);
        self.end.drain(a..b);
        for (parent, end) in self.parent[a..].iter_mut().zip(&mut self.end[a..]) {
            if *parent != NO_PARENT && *parent >= cut.end {
                *parent -= k;
            }
            *end -= k;
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn basic_join() {
        let mut anc = vec![iv(0, 100), iv(10, 40), iv(50, 90)];
        let mut desc = vec![iv(20, 30), iv(60, 70), iv(95, 99)];
        sort_intervals(&mut anc);
        sort_intervals(&mut desc);
        let pairs = join_anc_desc(&anc, &desc);
        // (0,100) contains all three; (10,40) contains (20,30); (50,90) contains (60,70)
        assert_eq!(pairs.len(), 5);
    }

    /// The universe of one list of intervals.
    fn of(intervals: &[Interval]) -> IntervalUniverse {
        let mut members = intervals.to_vec();
        sort_intervals(&mut members);
        members.dedup();
        IntervalUniverse::from_sorted(members).unwrap()
    }

    /// Positions: 0 = [0,100], 1 = [10,40], 2 = [20,30], 3 = [50,90],
    /// 4 = [60,70], 5 = [95,99], 6 = [200,210].
    fn universe() -> IntervalUniverse {
        of(&[
            iv(200, 210),
            iv(50, 90),
            iv(0, 100),
            iv(20, 30),
            iv(60, 70),
            iv(10, 40),
            iv(95, 99),
        ])
    }

    #[test]
    fn semijoins() {
        let u = universe();
        assert_eq!(semijoin_desc(&u, &[1, 3], &[2, 5], false), [2]);
        assert_eq!(semijoin_anc(&u, &[1, 3], &[2, 5], false), [1]);
        // A member is not its own descendant unless `or_self` says so.
        assert!(semijoin_desc(&u, &[1], &[1], false).is_empty());
        assert_eq!(semijoin_desc(&u, &[1], &[1, 2], true), [1, 2]);
        assert_eq!(semijoin_anc(&u, &[1, 3], &[3], true), [3]);
        // Grandchildren are descendants, not children.
        assert_eq!(semijoin_desc(&u, &[0], &[2, 4, 6], false), [2, 4]);
        assert!(semijoin_child(&u, &[0], &[2, 4, 6]).is_empty());
        assert_eq!(semijoin_child(&u, &[0, 1], &[2, 3, 4]), [2, 3]);
        assert_eq!(semijoin_parent(&u, &[0, 1, 3], &[2, 4]), [1, 3]);
        // A sibling the sweep passed ([10,40]) does not hide the parent.
        assert_eq!(semijoin_child(&u, &[0, 1], &[5]), [5]);
        assert_eq!(semijoin_parent(&u, &[0, 1], &[5]), [0]);
    }

    #[test]
    fn least_reached() {
        let u = universe();
        // [0,100]'s children are 1, 3, 5; [50,90]'s is 4; [200,210] has none.
        assert_eq!(
            least_child(&u, &[0, 3, 6], &[1, 2, 4, 5], &[9, 8, 7, 6]),
            [6, 7, NONE]
        );
        // Nested contexts: 0 sees every value below it, 1 only 2's.
        let vals = [40, 30, 20, 10];
        assert_eq!(
            least_desc(&u, &[0, 1, 6], &[1, 2, 3, 4], &vals, false),
            [10, 30, NONE]
        );
        assert_eq!(least_desc(&u, &[1, 3], &[1, 3], &[5, 7], false), [NONE; 2]);
        assert_eq!(least_desc(&u, &[1, 3], &[1, 3], &[5, 7], true), [5, 7]);
        assert!(least_desc(&u, &[], &[1], &[1], true).is_empty());
    }

    #[test]
    fn no_self_match() {
        let a = vec![iv(10, 40)];
        let d = vec![iv(10, 40)];
        assert!(join_anc_desc(&a, &d).is_empty());
    }

    #[test]
    fn empty_inputs() {
        let u = universe();
        assert!(join_anc_desc(&[], &[iv(1, 2)]).is_empty());
        assert!(join_anc_desc(&[iv(1, 2)], &[]).is_empty());
        assert!(semijoin_desc(&u, &[], &[], false).is_empty());
        assert!(semijoin_parent(&u, &[0], &[]).is_empty());
    }

    /// Parents and subtree ends of a small forest.
    #[test]
    fn parents_and_subtrees() {
        let u = universe();
        let parents: Vec<Option<u32>> = (0..u.len() as u32).map(|p| u.parent(p)).collect();
        assert_eq!(
            parents,
            [None, Some(0), Some(1), Some(0), Some(3), Some(0), None]
        );
        assert_eq!(u.end, [6, 3, 3, 5, 5, 6, 7]);
        assert_eq!(u.interval(4), iv(60, 70));
        assert!(of(&[]).is_empty());
    }

    /// A run spliced in under a member, and a subtree cut out, leave the
    /// universe a fresh build over the same members gives.
    #[test]
    fn splice_and_cut_equal_a_fresh_build() {
        let mut u = universe();
        let run = [iv(75, 85), iv(77, 80), iv(82, 84)];
        let at = u.splice_in(3, &run);
        assert_eq!(at, 5);
        let mut all = universe().members().to_vec();
        all.extend(run);
        assert_eq!(u, of(&all));
        let cut = u.cut(at);
        assert_eq!(cut, 5..8);
        assert_eq!(u, universe());
        u.cut(1);
        assert_eq!(
            u,
            of(&[iv(0, 100), iv(50, 90), iv(60, 70), iv(95, 99), iv(200, 210)])
        );
        assert_eq!(u.find(&iv(95, 99)), Some(3));
        assert_eq!(u.find(&iv(20, 30)), None);
        assert_eq!(u.last_child(0), Some(3));
        assert_eq!(u.last_child(1), Some(2));
        assert_eq!(u.last_child(2), None);
    }

    /// Members that neither nest strictly nor are disjoint make no
    /// universe.
    #[test]
    fn overlaps_are_refused() {
        let from = |m: &[Interval]| IntervalUniverse::from_sorted(m.to_vec());
        assert!(from(&[iv(0, 10), iv(5, 15)]).is_none());
        assert!(from(&[iv(0, 10), iv(0, 5)]).is_none());
        assert!(from(&[iv(0, 10), iv(5, 10)]).is_none());
        assert!(from(&[iv(0, 10), iv(10, 15)]).is_none());
        assert!(from(&[iv(0, 10), iv(2, 5), iv(11, 15)]).is_some());
    }

    #[test]
    fn deep_nesting() {
        let mut anc: Vec<Interval> = (0..50).map(|i| iv(i, 200 - i)).collect();
        let desc = vec![iv(90, 110)];
        sort_intervals(&mut anc);
        let pairs = join_anc_desc(&anc, &desc);
        assert_eq!(pairs.len(), 50);
        // In the universe, each level is the next one's parent.
        anc.extend(&desc);
        let u = of(&anc);
        let all: Vec<u32> = (0..u.len() as u32).collect();
        assert_eq!(semijoin_child(&u, &all, &all), &all[1..]);
        assert_eq!(semijoin_parent(&u, &all, &all), &all[..50]);
    }

    #[test]
    fn interleaved_siblings() {
        let mut anc = vec![iv(0, 10), iv(20, 30), iv(40, 50)];
        let mut desc = vec![iv(2, 4), iv(22, 24), iv(42, 44), iv(60, 62)];
        sort_intervals(&mut anc);
        sort_intervals(&mut desc);
        let pairs = join_anc_desc(&anc, &desc);
        assert_eq!(pairs, [(0, 0), (1, 1), (2, 2)]);
    }
}
