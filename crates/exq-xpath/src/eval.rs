//! Tree-walking evaluator — the reference semantics for the system.
//!
//! One evaluator, generic over [`TreeView`]: the arena [`Document`] and the
//! client's [`SpanDocument`](exq_xml::SpanDocument) both implement it. A
//! path is first resolved against the document it runs on: each name test
//! becomes the document's [`TagId`] for that name, so a step compares
//! integers, and a name the document never interned matches nothing. Node
//! lists are `Vec`s kept sorted by id and free of duplicates — the order
//! every caller sees. A list is sorted only when it is not already strictly
//! increasing, which a parsed document's lists are: its ids are in document
//! order. The lists an evaluation needs along the way are kept and reused,
//! so a predicate checked on every candidate allocates nothing once warm.

use crate::ast::{Axis, Comparison, NodeTest, Path, PositionTest, Predicate, Step};
use exq_xml::{Document, NodeId, NodeType, TagId, TreeView};

/// A node test resolved against one document.
#[derive(Clone, Copy)]
enum Test {
    Text,
    Wildcard,
    /// `None`: the document has no such name. Elements and attributes share
    /// the interner; the axis tells `id` from `@id`.
    Name(Option<TagId>),
}

struct RStep<'p> {
    axis: Axis,
    test: Test,
    preds: Vec<RPred<'p>>,
}

/// [`Predicate`] with its paths resolved.
enum RPred<'p> {
    Exists(Vec<RStep<'p>>),
    Compare(Vec<RStep<'p>>, Comparison<'p>),
    Position(PositionTest),
    And(Box<RPred<'p>>, Box<RPred<'p>>),
    Or(Box<RPred<'p>>, Box<RPred<'p>>),
    Not(Box<RPred<'p>>),
    Contains(Vec<RStep<'p>>, &'p str),
    StartsWith(Vec<RStep<'p>>, &'p str),
}

fn resolve<'p>(doc: &impl TreeView, steps: &'p [Step]) -> Vec<RStep<'p>> {
    let step = |s: &'p Step| RStep {
        axis: s.axis,
        test: match &s.test {
            NodeTest::Text => Test::Text,
            NodeTest::Wildcard => Test::Wildcard,
            NodeTest::Name(name) => Test::Name(doc.tag_id(name)),
        },
        preds: s.predicates.iter().map(|p| resolve_pred(doc, p)).collect(),
    };
    steps.iter().map(step).collect()
}

fn resolve_pred<'p>(doc: &impl TreeView, pred: &'p Predicate) -> RPred<'p> {
    let boxed = |p: &'p Predicate| Box::new(resolve_pred(doc, p));
    match pred {
        Predicate::Exists(path) => RPred::Exists(resolve(doc, &path.steps)),
        Predicate::Compare(path, op, lit) => {
            RPred::Compare(resolve(doc, &path.steps), Comparison::new(*op, lit))
        }
        Predicate::Position(test) => RPred::Position(*test),
        Predicate::And(a, b) => RPred::And(boxed(a), boxed(b)),
        Predicate::Or(a, b) => RPred::Or(boxed(a), boxed(b)),
        Predicate::Not(a) => RPred::Not(boxed(a)),
        Predicate::Contains(path, lit) => RPred::Contains(resolve(doc, &path.steps), lit),
        Predicate::StartsWith(path, lit) => RPred::StartsWith(resolve(doc, &path.steps), lit),
    }
}

/// Sorts by id and deduplicates, unless the list already is.
fn normalize(nodes: &mut Vec<NodeId>) {
    if !nodes.windows(2).all(|w| w[0] < w[1]) {
        nodes.sort_unstable();
        nodes.dedup();
    }
}

/// Evaluates a path with the document node as context (i.e. an absolute
/// query such as `//patient/SSN` or `/hospital/patient`).
pub fn eval_document(doc: &Document, path: &Path) -> Vec<NodeId> {
    eval(doc, path)
}

/// [`eval_document`] over any [`TreeView`].
pub fn eval<T: TreeView>(doc: &T, path: &Path) -> Vec<NodeId> {
    let Some(root) = doc.root() else {
        return Vec::new();
    };
    let steps = resolve(doc, &path.steps);
    let Some((first, rest)) = steps.split_first() else {
        return vec![root];
    };
    // The virtual document node: its only child is the root element and its
    // descendants are every node. Materialize the first step by hand, then
    // continue normally.
    let mut context = Vec::new();
    match first.axis {
        Axis::Descendant | Axis::DescendantOrSelf => doc.for_each_in_subtree(root, |n| {
            if test_matches(doc, n, first.test, Axis::Descendant) {
                context.push(n);
            }
        }),
        // Child — and attribute/self/parent/following-sibling, which from
        // the document node yield nothing useful; treat those like child of
        // root for robustness.
        _ => {
            if test_matches(doc, root, first.test, Axis::Child) {
                context.push(root);
            }
        }
    }
    normalize(&mut context);
    let mut ev = Eval::new(doc);
    ev.apply_predicates(&mut context, &first.preds);
    ev.eval_steps(rest, context)
}

/// Evaluates a (relative) path from the given context nodes. Results are in
/// document order, deduplicated.
pub fn eval_from<T: TreeView>(doc: &T, path: &Path, context: &[NodeId]) -> Vec<NodeId> {
    let mut context = context.to_vec();
    normalize(&mut context);
    Eval::new(doc).eval_steps(&resolve(doc, &path.steps), context)
}

/// Evaluates a union of paths from the document node: branch results are
/// merged and deduplicated in document order.
pub fn eval_union(doc: &Document, paths: &[Path]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for p in paths {
        out.extend(eval_document(doc, p));
    }
    normalize(&mut out);
    out
}

/// One evaluation: the document, and the node lists it has finished with.
struct Eval<'d, T> {
    doc: &'d T,
    spare: Vec<Vec<NodeId>>,
}

impl<'d, T: TreeView> Eval<'d, T> {
    fn new(doc: &'d T) -> Self {
        Eval {
            doc,
            spare: Vec::new(),
        }
    }

    fn take(&mut self) -> Vec<NodeId> {
        self.spare.pop().unwrap_or_default()
    }

    fn give(&mut self, mut list: Vec<NodeId>) {
        list.clear();
        self.spare.push(list);
    }

    /// `steps` from `current`, which is sorted and deduplicated; so is the
    /// result.
    fn eval_steps(&mut self, steps: &[RStep], mut current: Vec<NodeId>) -> Vec<NodeId> {
        let mut nodes = self.take();
        for step in steps {
            let mut next = self.take();
            for &ctx in &current {
                // Positional predicates need the per-context node list, so
                // filtering happens before merging across contexts.
                nodes.clear();
                step_nodes(self.doc, ctx, step, &mut nodes);
                normalize(&mut nodes);
                self.apply_predicates(&mut nodes, &step.preds);
                next.extend_from_slice(&nodes);
            }
            normalize(&mut next);
            let done = std::mem::replace(&mut current, next);
            self.give(done);
            if current.is_empty() {
                break;
            }
        }
        self.give(nodes);
        current
    }

    /// Applies the step's predicates sequentially (XPath semantics: each
    /// predicate re-numbers positions over the surviving list).
    fn apply_predicates(&mut self, nodes: &mut Vec<NodeId>, preds: &[RPred]) {
        for pred in preds {
            let total = nodes.len();
            let mut pos = 0;
            nodes.retain(|&n| {
                pos += 1;
                self.holds(n, pred, pos, total)
            });
            if nodes.is_empty() {
                break;
            }
        }
    }

    /// Whether some node `path` reaches from `node` has a string value
    /// that `holds`.
    fn any_value(&mut self, node: NodeId, path: &[RStep], holds: impl Fn(&str) -> bool) -> bool {
        let targets = self.targets(node, path);
        let any = targets.iter().any(|&t| holds(&self.doc.string_value(t)));
        self.give(targets);
        any
    }

    fn targets(&mut self, node: NodeId, path: &[RStep]) -> Vec<NodeId> {
        let mut context = self.take();
        context.push(node);
        self.eval_steps(path, context)
    }

    fn holds(&mut self, node: NodeId, pred: &RPred, pos: usize, total: usize) -> bool {
        match pred {
            RPred::Exists(path) => {
                let targets = self.targets(node, path);
                let any = !targets.is_empty();
                self.give(targets);
                any
            }
            RPred::Compare(path, cmp) => self.any_value(node, path, |v| cmp.holds(v)),
            RPred::Position(PositionTest::Index(i)) => pos == *i,
            RPred::Position(PositionTest::Last) => pos == total,
            RPred::And(a, b) => self.holds(node, a, pos, total) && self.holds(node, b, pos, total),
            RPred::Or(a, b) => self.holds(node, a, pos, total) || self.holds(node, b, pos, total),
            RPred::Not(a) => !self.holds(node, a, pos, total),
            RPred::Contains(path, lit) => self.any_value(node, path, |v| v.contains(lit)),
            RPred::StartsWith(path, lit) => self.any_value(node, path, |v| v.starts_with(lit)),
        }
    }
}

/// Appends the nodes `step`'s axis and test select from `ctx`.
fn step_nodes(doc: &impl TreeView, ctx: NodeId, step: &RStep, out: &mut Vec<NodeId>) {
    let (axis, test) = (step.axis, step.test);
    let mut hit = |n: NodeId| {
        if test_matches(doc, n, test, axis) {
            out.push(n);
        }
    };
    match axis {
        Axis::Child => doc.for_each_child(ctx, hit),
        Axis::Descendant => doc.for_each_in_subtree(ctx, |d| {
            if d != ctx {
                hit(d)
            }
        }),
        Axis::DescendantOrSelf => doc.for_each_in_subtree(ctx, hit),
        Axis::Attribute => doc.for_each_attr(ctx, hit),
        Axis::SelfAxis => hit(ctx),
        Axis::Parent => {
            if let Some(p) = doc.parent_of(ctx) {
                hit(p);
            }
        }
        Axis::FollowingSibling => {
            if let Some(p) = doc.parent_of(ctx) {
                let mut after = false;
                doc.for_each_child(p, |s| {
                    if after {
                        hit(s);
                    }
                    after |= s == ctx;
                });
            }
        }
    }
}

fn test_matches(doc: &impl TreeView, node: NodeId, test: Test, axis: Axis) -> bool {
    let kind = doc.node_type(node);
    match test {
        Test::Text => kind == NodeType::Text,
        Test::Wildcard => match axis {
            Axis::Attribute => matches!(kind, NodeType::Attribute(_)),
            Axis::SelfAxis | Axis::Parent => true,
            _ => matches!(kind, NodeType::Element(_)),
        },
        Test::Name(name) => match kind {
            NodeType::Element(t) => !matches!(axis, Axis::Attribute) && Some(t) == name,
            NodeType::Attribute(t) => matches!(axis, Axis::Attribute) && Some(t) == name,
            NodeType::Text => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Path;

    fn hospital() -> Document {
        Document::parse(
            r#"<hospital>
              <patient id="1">
                <pname>Betty</pname>
                <SSN>763895</SSN>
                <age>35</age>
                <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
                <insurance><policy coverage="1000000">34221</policy></insurance>
              </patient>
              <patient id="2">
                <pname>Matt</pname>
                <SSN>276543</SSN>
                <age>40</age>
                <treat><disease>leukemia</disease><doctor>Brown</doctor></treat>
                <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
                <insurance><policy coverage="5000">78543</policy></insurance>
              </patient>
            </hospital>"#,
        )
        .unwrap()
    }

    fn q(doc: &Document, s: &str) -> Vec<String> {
        eval_document(doc, &Path::parse(s).unwrap())
            .into_iter()
            .map(|n| doc.text_value(n))
            .collect()
    }

    #[test]
    fn descendant_axis() {
        let d = hospital();
        assert_eq!(q(&d, "//pname"), ["Betty", "Matt"]);
        assert_eq!(q(&d, "//disease").len(), 3);
    }

    #[test]
    fn child_chain() {
        let d = hospital();
        assert_eq!(q(&d, "/hospital/patient/pname"), ["Betty", "Matt"]);
        assert!(q(&d, "/patient").is_empty());
    }

    #[test]
    fn equality_predicate() {
        let d = hospital();
        assert_eq!(q(&d, "//patient[pname = 'Betty']/SSN"), ["763895"]);
        assert_eq!(q(&d, "//patient[pname = Matt]/SSN"), ["276543"]);
    }

    #[test]
    fn descendant_predicate() {
        let d = hospital();
        // Both patients have diarrhea.
        assert_eq!(q(&d, "//patient[.//disease = 'diarrhea']/pname").len(), 2);
        assert_eq!(q(&d, "//patient[.//disease = 'leukemia']/pname"), ["Matt"]);
    }

    #[test]
    fn numeric_range_predicates() {
        let d = hospital();
        assert_eq!(q(&d, "//patient[age > 36]/pname"), ["Matt"]);
        assert_eq!(q(&d, "//patient[age >= 35]/pname").len(), 2);
        assert_eq!(q(&d, "//patient[age < 36]/pname"), ["Betty"]);
        assert_eq!(q(&d, "//patient[age != 35]/pname"), ["Matt"]);
    }

    #[test]
    fn attribute_predicates() {
        let d = hospital();
        assert_eq!(
            q(&d, "//patient[.//policy/@coverage >= 10000]/pname"),
            ["Betty"]
        );
        assert_eq!(q(&d, "//policy[@coverage = 5000]"), ["78543"]);
    }

    #[test]
    fn attribute_output() {
        let d = hospital();
        assert_eq!(q(&d, "//policy/@coverage"), ["1000000", "5000"]);
        assert_eq!(q(&d, "//patient/@id"), ["1", "2"]);
    }

    #[test]
    fn wildcard() {
        let d = hospital();
        assert_eq!(q(&d, "/hospital/*").len(), 2);
        assert_eq!(q(&d, "//treat/*").len(), 6);
    }

    #[test]
    fn existence_predicate() {
        let d = hospital();
        assert_eq!(q(&d, "//patient[insurance]").len(), 2);
        assert!(q(&d, "//patient[nonexistent]").is_empty());
    }

    #[test]
    fn following_sibling_axis() {
        let d = hospital();
        assert_eq!(
            q(
                &d,
                "//patient[pname=Matt]/treat/following-sibling::treat//disease"
            ),
            ["diarrhea"]
        );
    }

    #[test]
    fn parent_axis() {
        let d = hospital();
        let names = q(&d, "//disease/../doctor");
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn self_path_returns_root() {
        let d = hospital();
        let r = eval_document(&d, &Path::parse(".").unwrap());
        assert_eq!(r, vec![d.root().unwrap()]);
    }

    #[test]
    fn text_test_selects_leaves() {
        let d = hospital();
        assert_eq!(q(&d, "//pname/text()"), ["Betty", "Matt"]);
    }

    #[test]
    fn results_in_document_order_and_deduped() {
        let d = hospital();
        let r = eval_document(&d, &Path::parse("//patient//disease").unwrap());
        let mut sorted = r.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(r, sorted);
    }

    #[test]
    fn empty_document() {
        let d = Document::new();
        assert!(eval_document(&d, &Path::parse("//a").unwrap()).is_empty());
    }

    #[test]
    fn positional_predicates() {
        let d = hospital();
        // Second treat of Matt.
        assert_eq!(
            q(&d, "//patient[pname=Matt]/treat[2]/disease"),
            ["diarrhea"]
        );
        assert_eq!(
            q(&d, "//patient[pname=Matt]/treat[last()]/doctor"),
            ["Smith"]
        );
        assert_eq!(q(&d, "//patient[1]/pname"), ["Betty"]);
        assert!(q(&d, "//patient[pname=Betty]/treat[2]").is_empty());
    }

    #[test]
    fn boolean_predicates() {
        let d = hospital();
        assert_eq!(
            q(&d, "//patient[age = 35 and pname = 'Betty']/SSN"),
            ["763895"]
        );
        assert!(q(&d, "//patient[age = 35 and pname = 'Matt']/SSN").is_empty());
        assert_eq!(
            q(&d, "//patient[pname = 'Betty' or pname = 'Matt']/SSN").len(),
            2
        );
        // Precedence: and binds tighter than or.
        assert_eq!(
            q(
                &d,
                "//patient[age = 99 and pname = 'Betty' or pname = 'Matt']/pname"
            ),
            ["Matt"]
        );
        // Parentheses override.
        assert!(q(
            &d,
            "//patient[age = 99 and (pname = 'Betty' or pname = 'Matt')]/pname"
        )
        .is_empty());
    }

    #[test]
    fn position_with_structural_mix() {
        let d = hospital();
        assert_eq!(q(&d, "//patient[treat and age >= 35][1]/pname"), ["Betty"]);
    }

    #[test]
    fn not_predicate() {
        let d = hospital();
        assert_eq!(q(&d, "//patient[not(age = 35)]/pname"), ["Matt"]);
        assert_eq!(
            q(&d, "//patient[not(insurance)]/pname").len(),
            0,
            "both patients have insurance"
        );
        assert_eq!(
            q(&d, "//patient[not(pname = 'Betty' or pname = 'Matt')]").len(),
            0
        );
    }

    #[test]
    fn union_queries() {
        let d = hospital();
        let paths = Path::parse_union("//pname | //SSN").unwrap();
        assert_eq!(paths.len(), 2);
        let r = eval_union(&d, &paths);
        assert_eq!(r.len(), 4);
        // Union with overlap dedups by node.
        let paths = Path::parse_union("//patient | //patient[age = 35]").unwrap();
        assert_eq!(eval_union(&d, &paths).len(), 2);
        // A `|` inside a quoted literal is not a separator.
        let paths = Path::parse_union("//patient[pname = 'a|b']").unwrap();
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn string_functions() {
        let d = hospital();
        assert_eq!(q(&d, "//patient[contains(pname, 'ett')]/SSN"), ["763895"]);
        assert_eq!(q(&d, "//patient[starts-with(pname, 'M')]/SSN"), ["276543"]);
        assert_eq!(q(&d, "//treat[contains(disease, 'ia')]").len(), 3);
        assert!(q(&d, "//patient[contains(pname, 'zzz')]").is_empty());
        assert_eq!(
            q(&d, "//patient[contains(pname, 'tt') and age = 35]/pname"),
            ["Betty"]
        );
        assert_eq!(
            q(&d, "//patient[not(starts-with(pname, 'B'))]/pname"),
            ["Matt"]
        );
    }

    #[test]
    fn compare_direction_is_value_op_literal() {
        // [age > 36] means value > 36, not 36 > value.
        let d = Document::parse("<r><p><age>40</age></p><p><age>30</age></p></r>").unwrap();
        assert_eq!(q(&d, "//p[age > 36]/age"), ["40"]);
        assert_eq!(q(&d, "//p[age < 36]/age"), ["30"]);
    }
}
