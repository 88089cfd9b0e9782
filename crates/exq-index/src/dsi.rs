//! The discontinuous structural interval (DSI) index (§5.1).
//!
//! Every node gets an interval `[lo, hi]` such that intervals of descendants
//! nest *strictly* inside their ancestors', with random-sized gaps between
//! (1) a parent's lower bound and its first child's, (2) adjacent children,
//! and (3) the last child's upper bound and the parent's. The gaps are what
//! make the index *discontinuous*: when the server sees a single interval in
//! the DSI table it cannot tell whether it labels one node or a group of
//! adjacent nodes that were merged (Theorem 5.1).
//!
//! Two constructions are provided:
//!
//! * [`DsiLabeling::assign`] — the production labeling over `u64` positions:
//!   a DFS counter that advances by a random gap before and after every
//!   node. This is order-isomorphic to the paper's real-valued scheme and
//!   immune to the float-resolution collapse the literal formula suffers on
//!   deep, high-fanout documents (see DESIGN.md §3).
//! * [`assign_real`] — the paper-literal Figure 3 formula over `f64`, with
//!   per-child random weights `w¹, w² ∈ (0, 0.5)`; used for demonstrations
//!   and for cross-checking the integer labeling on small documents.
//! * [`DsiLabeling::assign_continuous`] — the classic gap-free interval
//!   labeling (Al-Khalifa et al. \[4\]) used by the ablation experiment to
//!   show the information leak the paper describes.

use exq_xml::{NodeId, TreeView};
use rand::Rng;

/// A structural interval. Invariant: `lo < hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    pub lo: u64,
    pub hi: u64,
}

impl Interval {
    pub fn new(lo: u64, hi: u64) -> Self {
        debug_assert!(lo < hi);
        Self { lo, hi }
    }

    /// Strict containment: `self` is a proper ancestor interval of `other`.
    #[inline]
    pub fn contains(&self, other: &Interval) -> bool {
        self.lo < other.lo && other.hi < self.hi
    }

    /// Merges two intervals into their span (used for same-tag grouping).
    pub fn span(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// A complete labeling of a document.
///
/// ```
/// use exq_index::dsi::DsiLabeling;
/// use exq_xml::Document;
/// use rand::{rngs::StdRng, SeedableRng};
/// let doc = Document::parse("<r><a/><b/></r>").unwrap();
/// let l = DsiLabeling::assign(&doc, &mut StdRng::seed_from_u64(1));
/// let root = l.interval(doc.root().unwrap()).unwrap();
/// let a = l.interval(doc.elements_by_tag("a")[0]).unwrap();
/// assert!(root.contains(&a)); // ancestors strictly contain descendants
/// l.validate(&doc).unwrap();  // and positive gaps separate everything
/// ```
#[derive(Debug, Clone)]
pub struct DsiLabeling {
    /// Interval per arena slot; `None` for detached nodes.
    intervals: Vec<Option<Interval>>,
}

/// Maximum random gap inserted between structural events (in stride units).
const MAX_GAP: u64 = 16;

/// Default stride: each gap unit spans this many label positions, leaving
/// room inside every gap for later subtree insertions (update support).
pub const UPDATE_STRIDE: u64 = 1 << 20;

impl DsiLabeling {
    /// Assigns DSI intervals to every live node (elements, attributes, and
    /// text leaves) with random gaps drawn from `rng`. Each gap unit spans
    /// [`UPDATE_STRIDE`] positions, so gaps can absorb future insertions.
    pub fn assign(doc: &impl TreeView, rng: &mut impl Rng) -> DsiLabeling {
        Self::label_from(doc, rng, 0, UPDATE_STRIDE)
    }

    /// Labels a standalone fragment so that every assigned position falls
    /// strictly inside the open range `(slot_lo, slot_hi)` — the mechanism
    /// behind subtree insertion: the fragment's intervals nest into an
    /// existing gap without relabeling anything else. Returns `None` when
    /// the slot is too narrow for the fragment.
    pub fn assign_in_slot(
        doc: &impl TreeView,
        rng: &mut impl Rng,
        slot_lo: u64,
        slot_hi: u64,
    ) -> Option<DsiLabeling> {
        let events = 2 * live_nodes(doc).len() as u64 + 2;
        let width = slot_hi.checked_sub(slot_lo)?.checked_sub(1)?;
        if width < events {
            return None;
        }
        // Budget the fragment to ~1/16 of the slot (in expectation ~1/32:
        // gaps average MAX_GAP/2), so repeated insertions into the same gap
        // decay geometrically instead of halving it — hundreds of inserts
        // fit before the slot runs dry.
        let stride = (width / (events * MAX_GAP * 16)).max(1);
        if width / stride < events {
            return None;
        }
        let labeling = Self::label_from(doc, rng, slot_lo, stride);
        let end = doc.root().and_then(|r| labeling.interval(r));
        (end.map_or(slot_lo, |iv| iv.hi) < slot_hi).then_some(labeling)
    }

    /// The continuous (gap-free) labeling of the ablation baseline: the DFS
    /// counter advances by exactly one per structural event, so sibling
    /// intervals are adjacent and grouping becomes detectable.
    pub fn assign_continuous(doc: &impl TreeView) -> DsiLabeling {
        Self::label_from(doc, &mut rand::rngs::mock::StepRng::new(0, 0), 0, 0)
    }

    /// Labels `doc` in one document-order walk from `counter`, each gap
    /// [`gap`] units of `stride`.
    fn label_from(
        doc: &impl TreeView,
        rng: &mut impl Rng,
        mut counter: u64,
        stride: u64,
    ) -> DsiLabeling {
        let mut intervals = vec![None; slots(doc)];
        if let Some(root) = doc.root() {
            label(doc, root, &mut counter, rng, &mut intervals, stride);
        }
        DsiLabeling { intervals }
    }

    /// The interval of a node, if the node was live at labeling time.
    pub fn interval(&self, id: NodeId) -> Option<Interval> {
        self.intervals.get(id.index()).copied().flatten()
    }

    /// Every labeled `(node, interval)` pair in document order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Interval)> + '_ {
        self.intervals
            .iter()
            .enumerate()
            .filter_map(|(i, iv)| iv.map(|iv| (NodeId(i as u32), iv)))
    }

    /// Validates the DSI invariants over the document; returns a violation
    /// description if any. Used by tests and the experiment harness.
    pub fn validate(&self, doc: &impl TreeView) -> Result<(), String> {
        for id in live_nodes(doc) {
            let iv = self
                .interval(id)
                .ok_or_else(|| format!("node {id} unlabeled"))?;
            if iv.lo >= iv.hi {
                return Err(format!("degenerate interval at {id}"));
            }
            let mut prev_hi = iv.lo;
            for c in children(doc, id) {
                let civ = self
                    .interval(c)
                    .ok_or_else(|| format!("child {c} unlabeled"))?;
                if civ.lo <= prev_hi {
                    return Err(format!("missing gap before child {c}"));
                }
                prev_hi = civ.hi;
            }
            if prev_hi >= iv.hi {
                return Err(format!("missing gap after last child of {id}"));
            }
        }
        Ok(())
    }
}

/// Every live node, in document order.
fn live_nodes(doc: &impl TreeView) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    if let Some(root) = doc.root() {
        doc.for_each_in_subtree(root, |n| nodes.push(n));
    }
    nodes
}

/// A node's live attributes, then its live element and text children: the
/// order labeling walks them in.
fn children(doc: &impl TreeView, id: NodeId) -> Vec<NodeId> {
    let mut kids = Vec::new();
    doc.for_each_attr(id, |c| kids.push(c));
    doc.for_each_child(id, |c| kids.push(c));
    kids
}

/// One slot per node id up to the largest live one.
fn slots(doc: &impl TreeView) -> usize {
    let mut slots = 0;
    if let Some(root) = doc.root() {
        doc.for_each_in_subtree(root, |n| slots = slots.max(n.index() + 1));
    }
    slots
}

fn label<T: TreeView>(
    doc: &T,
    id: NodeId,
    counter: &mut u64,
    rng: &mut impl Rng,
    out: &mut Vec<Option<Interval>>,
    stride: u64,
) {
    *counter += gap(rng, stride);
    let lo = *counter;
    doc.for_each_attr(id, |c| label(doc, c, counter, rng, out, stride));
    doc.for_each_child(id, |c| label(doc, c, counter, rng, out, stride));
    *counter += gap(rng, stride);
    let hi = *counter;
    out[id.index()] = Some(Interval::new(lo, hi));
}

/// A random gap; `stride == 0` means the continuous (gap-free) labeling.
fn gap(rng: &mut impl Rng, stride: u64) -> u64 {
    if stride == 0 {
        1
    } else {
        rng.gen_range(1..=MAX_GAP) * stride
    }
}

/// The paper-literal Figure 3 construction over `f64`.
///
/// The root gets `[0, 1]`; the interval of child `i` (1-based) of a node
/// with interval `[min, max]` and `N` children is
/// `[min + (2i−1)d − w¹ᵢd,  min + 2i·d + w²ᵢd]` with `d = (max−min)/(2N+1)`
/// and fresh random weights `w¹ᵢ, w²ᵢ ∈ (0, 0.5)`.
///
/// Returns `None` entries for detached nodes. Only suitable for small
/// documents: `d` shrinks geometrically with depth and fanout and drops
/// below `f64` resolution quickly (which is why the production labeling is
/// integer-based).
pub fn assign_real(doc: &impl TreeView, rng: &mut impl Rng) -> Vec<Option<(f64, f64)>> {
    let mut out = vec![None; slots(doc)];
    if let Some(root) = doc.root() {
        out[root.index()] = Some((0.0, 1.0));
        label_real(doc, root, (0.0, 1.0), rng, &mut out);
    }
    out
}

fn label_real(
    doc: &impl TreeView,
    id: NodeId,
    (min, max): (f64, f64),
    rng: &mut impl Rng,
    out: &mut Vec<Option<(f64, f64)>>,
) {
    let children = children(doc, id);
    let n = children.len();
    if n == 0 {
        return;
    }
    let d = (max - min) / (2.0 * n as f64 + 1.0);
    for (idx, &c) in children.iter().enumerate() {
        let i = (idx + 1) as f64;
        let w1: f64 = rng.gen_range(0.0..0.5);
        let w2: f64 = rng.gen_range(0.0..0.5);
        let lo = min + (2.0 * i - 1.0) * d - w1 * d;
        let hi = min + 2.0 * i * d + w2 * d;
        out[c.index()] = Some((lo, hi));
        label_real(doc, c, (lo, hi), rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_xml::Document;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn doc() -> Document {
        Document::parse(
            r#"<hospital><patient id="1"><pname>Betty</pname><SSN>763895</SSN></patient>
               <patient id="2"><pname>Matt</pname></patient></hospital>"#,
        )
        .unwrap()
    }

    #[test]
    fn labeling_validates() {
        let d = doc();
        let mut rng = StdRng::seed_from_u64(3);
        let l = DsiLabeling::assign(&d, &mut rng);
        l.validate(&d).unwrap();
    }

    #[test]
    fn ancestor_intervals_contain_descendants() {
        let d = doc();
        let mut rng = StdRng::seed_from_u64(3);
        let l = DsiLabeling::assign(&d, &mut rng);
        for node in d.iter() {
            let iv = l.interval(node).unwrap();
            for anc in d.ancestors(node) {
                let av = l.interval(anc).unwrap();
                assert!(av.contains(&iv), "ancestor {anc} !⊃ {node}");
            }
        }
    }

    #[test]
    fn unrelated_intervals_disjoint() {
        let d = doc();
        let mut rng = StdRng::seed_from_u64(3);
        let l = DsiLabeling::assign(&d, &mut rng);
        let patients = d.elements_by_tag("patient");
        let (a, b) = (
            l.interval(patients[0]).unwrap(),
            l.interval(patients[1]).unwrap(),
        );
        assert!(a.hi < b.lo || b.hi < a.lo);
    }

    #[test]
    fn gaps_exist_between_siblings() {
        let d = doc();
        let mut rng = StdRng::seed_from_u64(3);
        let l = DsiLabeling::assign(&d, &mut rng);
        let patients = d.elements_by_tag("patient");
        let (a, b) = (
            l.interval(patients[0]).unwrap(),
            l.interval(patients[1]).unwrap(),
        );
        assert!(b.lo - a.hi >= 1, "no sibling gap");
    }

    #[test]
    fn continuous_labeling_is_adjacent() {
        let d = Document::parse("<r><a/><b/><c/></r>").unwrap();
        let l = DsiLabeling::assign_continuous(&d);
        let root = d.root().unwrap();
        let kids: Vec<Interval> = d
            .node(root)
            .children()
            .iter()
            .map(|&c| l.interval(c).unwrap())
            .collect();
        for w in kids.windows(2) {
            assert_eq!(w[1].lo - w[0].hi, 1, "continuous labels must be adjacent");
        }
        // Continuous labels still nest correctly — the leak they cause is
        // about grouping detectability, demonstrated in experiment E11.
        l.validate(&d).unwrap();
    }

    #[test]
    fn detached_nodes_unlabeled() {
        let mut d = doc();
        let patients = d.elements_by_tag("patient");
        d.detach(patients[1]);
        let mut rng = StdRng::seed_from_u64(3);
        let l = DsiLabeling::assign(&d, &mut rng);
        assert!(l.interval(patients[1]).is_none());
        l.validate(&d).unwrap();
    }

    #[test]
    fn real_formula_produces_nested_intervals() {
        let d = doc();
        let mut rng = StdRng::seed_from_u64(5);
        let real = assign_real(&d, &mut rng);
        for node in d.iter() {
            let (lo, hi) = real[node.index()].unwrap();
            assert!(lo < hi);
            for anc in d.ancestors(node) {
                let (alo, ahi) = real[anc.index()].unwrap();
                assert!(alo < lo && hi < ahi, "figure-3 nesting violated");
            }
        }
        // Root is [0, 1] per the paper.
        assert_eq!(real[d.root().unwrap().index()].unwrap(), (0.0, 1.0));
    }

    #[test]
    fn real_and_integer_labelings_are_order_isomorphic() {
        let d = doc();
        let mut rng1 = StdRng::seed_from_u64(5);
        let mut rng2 = StdRng::seed_from_u64(9);
        let real = assign_real(&d, &mut rng1);
        let int = DsiLabeling::assign(&d, &mut rng2);
        let nodes: Vec<NodeId> = d.iter().collect();
        for &x in &nodes {
            for &y in &nodes {
                let (rx, ry) = (real[x.index()].unwrap(), real[y.index()].unwrap());
                let (ix, iy) = (int.interval(x).unwrap(), int.interval(y).unwrap());
                let real_contains = rx.0 < ry.0 && ry.1 < rx.1;
                let int_contains = ix.contains(&iy);
                assert_eq!(real_contains, int_contains, "containment mismatch {x} {y}");
            }
        }
    }

    #[test]
    fn interval_ops() {
        let a = Interval::new(1, 10);
        let b = Interval::new(3, 5);
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert!(!a.contains(&a));
        assert_eq!(b.span(&Interval::new(7, 9)), Interval::new(3, 9));
    }

    #[test]
    fn empty_document() {
        let d = Document::new();
        let mut rng = StdRng::seed_from_u64(0);
        let l = DsiLabeling::assign(&d, &mut rng);
        assert_eq!(l.iter().count(), 0);
        l.validate(&d).unwrap();
    }

    #[test]
    fn deep_document_no_collapse() {
        // 200 levels deep — far beyond where the f64 formula collapses.
        let mut xml = String::new();
        for _ in 0..200 {
            xml.push_str("<d>");
        }
        xml.push('x');
        for _ in 0..200 {
            xml.push_str("</d>");
        }
        let d = Document::parse(&xml).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let l = DsiLabeling::assign(&d, &mut rng);
        l.validate(&d).unwrap();
    }
}
