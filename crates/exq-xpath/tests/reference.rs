//! The evaluator against a brute-force reference: every node list a
//! `BTreeSet`, every name test a string compare, every axis a walk — the
//! semantics the evaluator had before it resolved names to `TagId`s and
//! carried sorted `Vec`s. Random documents (some mutated after they were
//! built, so ids are out of document order) and random paths, plus the
//! cases the change could get wrong, pinned.

use exq_xml::{Document, NodeId, NodeKind};
use exq_xpath::{
    eval_document, eval_from, eval_union, Axis, CmpOp, Literal, NodeTest, Path, PositionTest,
    Predicate, Step,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---- the reference ---------------------------------------------------------

fn ref_document(doc: &Document, path: &Path) -> Vec<NodeId> {
    let Some(root) = doc.root() else {
        return Vec::new();
    };
    let Some((first, rest)) = path.steps.split_first() else {
        return vec![root];
    };
    let context: BTreeSet<NodeId> = match first.axis {
        Axis::Descendant | Axis::DescendantOrSelf => doc
            .iter()
            .filter(|&n| ref_test(doc, n, &first.test, Axis::Descendant))
            .collect(),
        _ => Some(root)
            .filter(|&n| ref_test(doc, n, &first.test, Axis::Child))
            .into_iter()
            .collect(),
    };
    let context = ref_predicates(doc, context, &first.predicates);
    ref_from(doc, rest, &context)
}

fn ref_from(doc: &Document, steps: &[Step], context: &[NodeId]) -> Vec<NodeId> {
    let mut current: BTreeSet<NodeId> = context.iter().copied().collect();
    for step in steps {
        let mut next = BTreeSet::new();
        for &ctx in &current {
            let nodes = ref_axis(doc, ctx, step.axis)
                .into_iter()
                .filter(|&n| ref_test(doc, n, &step.test, step.axis))
                .collect();
            next.extend(ref_predicates(doc, nodes, &step.predicates));
        }
        current = next;
    }
    current.into_iter().collect()
}

/// The nodes on `axis` from `ctx`, found by walking, in no particular order.
fn ref_axis(doc: &Document, ctx: NodeId, axis: Axis) -> Vec<NodeId> {
    let live = |ids: &[NodeId]| -> Vec<NodeId> {
        ids.iter().copied().filter(|&n| doc.is_live(n)).collect()
    };
    match axis {
        Axis::Child => live(doc.node(ctx).children()),
        Axis::Attribute => live(doc.node(ctx).attrs()),
        Axis::Descendant => doc.descendants(ctx).skip(1).collect(),
        Axis::DescendantOrSelf => doc.descendants(ctx).collect(),
        Axis::SelfAxis => vec![ctx],
        Axis::Parent => doc.node(ctx).parent().into_iter().collect(),
        Axis::FollowingSibling => {
            let siblings = doc.node(ctx).parent().map(|p| doc.node(p).children());
            let after = siblings.and_then(|s| Some(&s[s.iter().position(|&n| n == ctx)? + 1..]));
            live(after.unwrap_or(&[]))
        }
    }
}

fn ref_test(doc: &Document, node: NodeId, test: &NodeTest, axis: Axis) -> bool {
    let kind = doc.node(node).kind();
    match test {
        NodeTest::Text => matches!(kind, NodeKind::Text(_)),
        NodeTest::Wildcard => match axis {
            Axis::Attribute => matches!(kind, NodeKind::Attribute(..)),
            Axis::SelfAxis | Axis::Parent => true,
            _ => matches!(kind, NodeKind::Element(_)),
        },
        NodeTest::Name(name) => match kind {
            NodeKind::Element(_) => axis != Axis::Attribute && doc.node_name(node) == Some(name),
            NodeKind::Attribute(..) => axis == Axis::Attribute && doc.node_name(node) == Some(name),
            NodeKind::Text(_) => false,
        },
    }
}

fn ref_predicates(doc: &Document, nodes: BTreeSet<NodeId>, preds: &[Predicate]) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
    for pred in preds {
        let total = nodes.len();
        let keep = |&(i, n): &(usize, NodeId)| ref_holds(doc, n, pred, i + 1, total);
        nodes = nodes
            .into_iter()
            .enumerate()
            .filter(keep)
            .map(|(_, n)| n)
            .collect();
    }
    nodes
}

fn ref_holds(doc: &Document, node: NodeId, pred: &Predicate, pos: usize, total: usize) -> bool {
    let values = |path: &Path| -> Vec<String> {
        let targets = ref_from(doc, &path.steps, &[node]);
        targets.into_iter().map(|t| doc.text_value(t)).collect()
    };
    match pred {
        Predicate::Exists(path) => !ref_from(doc, &path.steps, &[node]).is_empty(),
        Predicate::Compare(path, op, lit) => {
            values(path).iter().any(|v| op.holds(lit.compare_with(v)))
        }
        Predicate::Position(PositionTest::Index(i)) => pos == *i,
        Predicate::Position(PositionTest::Last) => pos == total,
        Predicate::And(a, b) => {
            ref_holds(doc, node, a, pos, total) && ref_holds(doc, node, b, pos, total)
        }
        Predicate::Or(a, b) => {
            ref_holds(doc, node, a, pos, total) || ref_holds(doc, node, b, pos, total)
        }
        Predicate::Not(a) => !ref_holds(doc, node, a, pos, total),
        Predicate::Contains(path, lit) => values(path).iter().any(|v| v.contains(lit.as_str())),
        Predicate::StartsWith(path, lit) => {
            values(path).iter().any(|v| v.starts_with(lit.as_str()))
        }
    }
}

// ---- random documents and paths -------------------------------------------

/// `id` is both an element and an attribute name; `zzz` is in no document.
const ELEMENTS: [&str; 5] = ["a", "b", "c", "d", "id"];
const ATTRS: [&str; 2] = ["id", "k"];

#[derive(Debug, Clone)]
enum Tree {
    Text(u8),
    El(usize, Vec<(usize, u8)>, Vec<Tree>),
}

fn tree() -> impl Strategy<Value = Tree> {
    let leaf = (0u8..6).prop_map(Tree::Text);
    leaf.prop_recursive(4, 40, 4, |inner| {
        (
            0..ELEMENTS.len(),
            proptest::collection::vec((0..ATTRS.len(), 0u8..6), 0..2),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(tag, attrs, children)| Tree::El(tag, attrs, children))
    })
}

fn build(doc: &mut Document, parent: Option<NodeId>, t: &Tree) {
    match (t, parent) {
        (Tree::Text(v), Some(p)) => drop(doc.add_text(p, &v.to_string())),
        (Tree::Text(_), None) => {}
        (Tree::El(tag, attrs, children), _) => {
            let el = doc.add_element(parent, ELEMENTS[*tag]);
            for (name, v) in attrs {
                doc.add_attr(el, ATTRS[*name], &v.to_string());
            }
            for c in children {
                build(doc, Some(el), c);
            }
        }
    }
}

/// A built document, then `late` elements added under elements picked from
/// anywhere in it (their ids fall out of document order) and `gone` nodes
/// detached.
fn doc_strategy() -> impl Strategy<Value = Document> {
    (
        0..ELEMENTS.len(),
        proptest::collection::vec(tree(), 0..5),
        proptest::collection::vec((any::<u16>(), 0..ELEMENTS.len(), 0u8..6), 0..4),
        proptest::collection::vec(any::<u16>(), 0..2),
    )
        .prop_map(|(tag, children, late, gone)| {
            let mut d = Document::new();
            let root = d.add_element(None, ELEMENTS[tag]);
            for c in &children {
                build(&mut d, Some(root), c);
            }
            for (at, tag, v) in late {
                let elements: Vec<NodeId> = d.iter().filter(|&n| d.node(n).is_element()).collect();
                let el = d.add_element(Some(elements[at as usize % elements.len()]), ELEMENTS[tag]);
                d.add_text(el, &v.to_string());
            }
            for at in gone {
                let nodes: Vec<NodeId> = d.iter().skip(1).collect();
                if !nodes.is_empty() {
                    d.detach(nodes[at as usize % nodes.len()]);
                }
            }
            d
        })
}

fn node_test() -> impl Strategy<Value = NodeTest> {
    prop_oneof![
        (0..ELEMENTS.len()).prop_map(|t| NodeTest::Name(ELEMENTS[t].to_owned())),
        (0..ELEMENTS.len()).prop_map(|t| NodeTest::Name(ELEMENTS[t].to_owned())),
        Just(NodeTest::Name("k".to_owned())),
        Just(NodeTest::Name("zzz".to_owned())),
        Just(NodeTest::Wildcard),
        Just(NodeTest::Text),
    ]
}

fn axis() -> impl Strategy<Value = Axis> {
    prop_oneof![
        Just(Axis::Child),
        Just(Axis::Child),
        Just(Axis::Descendant),
        Just(Axis::Descendant),
        Just(Axis::DescendantOrSelf),
        Just(Axis::Attribute),
        Just(Axis::SelfAxis),
        Just(Axis::Parent),
        Just(Axis::FollowingSibling),
    ]
}

fn bare_path() -> impl Strategy<Value = Path> {
    let step = (axis(), node_test()).prop_map(|(axis, test)| Step {
        axis,
        test,
        predicates: Vec::new(),
    });
    proptest::collection::vec(step, 0..3).prop_map(|steps| Path { steps })
}

fn predicate() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        bare_path().prop_map(Predicate::Exists),
        (bare_path(), 0u8..6)
            .prop_map(|(p, v)| { Predicate::Compare(p, CmpOp::Ge, Literal::Number(f64::from(v))) }),
        (bare_path(), 0u8..6)
            .prop_map(|(p, v)| { Predicate::Compare(p, CmpOp::Eq, Literal::Str(v.to_string())) }),
        (1usize..4).prop_map(|i| Predicate::Position(PositionTest::Index(i))),
        Just(Predicate::Position(PositionTest::Last)),
        (bare_path(), 0u8..6).prop_map(|(p, v)| Predicate::Contains(p, v.to_string())),
        (bare_path(), 0u8..6).prop_map(|(p, v)| Predicate::StartsWith(p, v.to_string())),
    ];
    leaf.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|p| Predicate::Not(Box::new(p))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Predicate::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Predicate::Or(Box::new(a), Box::new(b))),
        ]
        .boxed()
    })
}

fn path() -> impl Strategy<Value = Path> {
    let step = (
        axis(),
        node_test(),
        proptest::collection::vec(predicate(), 0..3),
    )
        .prop_map(|(axis, test, predicates)| Step {
            axis,
            test,
            predicates,
        });
    proptest::collection::vec(step, 0..4).prop_map(|steps| Path { steps })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn evaluator_equals_the_brute_force_reference(d in doc_strategy(), p in path(), q in path()) {
        let want = ref_document(&d, &p);
        prop_assert_eq!(&eval_document(&d, &p), &want, "{}", p);
        prop_assert!(want.windows(2).all(|w| w[0] < w[1]));

        // From a context the caller hands over unsorted and with repeats.
        let mut context = ref_document(&d, &Path::parse("//*").unwrap());
        context.reverse();
        context.extend(context.clone().into_iter().take(3));
        prop_assert_eq!(eval_from(&d, &q, &context), ref_from(&d, &q.steps, &context), "{}", q);

        let both: BTreeSet<NodeId> = want.into_iter().chain(ref_document(&d, &q)).collect();
        prop_assert_eq!(eval_union(&d, &[p, q]), both.into_iter().collect::<Vec<_>>());
    }
}

// ---- pinned cases ----------------------------------------------------------

fn ids(doc: &Document, q: &str) -> Vec<u32> {
    let path = Path::parse(q).unwrap();
    let got = eval_document(doc, &path);
    assert_eq!(got, ref_document(doc, &path), "{q}");
    got.into_iter().map(|n| n.0).collect()
}

#[test]
fn a_name_the_document_never_interned_matches_nothing() {
    let d = Document::parse("<r><a>1</a><b x=\"2\"/></r>").unwrap();
    assert_eq!(d.tag_id("zzz"), None);
    for q in [
        "//zzz", "/zzz", "//a/zzz", "//b/@zzz", "//r[zzz]", "//zzz//a",
    ] {
        assert!(ids(&d, q).is_empty(), "{q}");
    }
    assert_eq!(ids(&d, "//r[not(zzz)]/a"), [1]);
    // Interned by another document only.
    let other = Document::parse("<zzz/>").unwrap();
    assert_eq!(ids(&other, "//zzz"), [0]);
}

/// An element `id` and an attribute `id` share one `TagId`; the axis tells
/// them apart.
#[test]
fn an_element_and_an_attribute_of_one_name_stay_apart() {
    let d =
        Document::parse("<r id=\"0\"><id>1</id><p id=\"2\"><id id=\"3\">4</id></p></r>").unwrap();
    assert_eq!(d.tag_id("id"), d.tag_id("id"));
    let elements = ids(&d, "//id");
    let attributes = ids(&d, "//@id");
    assert_eq!(elements, [2, 6]);
    assert_eq!(attributes, [1, 5, 7]);
    assert_eq!(ids(&d, "//p/id"), [6]);
    assert_eq!(ids(&d, "//p/@id"), [5]);
    assert_eq!(ids(&d, "//id/@id"), [7]);
    assert_eq!(ids(&d, "//*[@id = 3]"), [6]);
    assert_eq!(ids(&d, "//*[id = 4]"), [4]);
    assert!(ids(&d, "//@id/id").is_empty());
}

/// Contexts nested in one another reach the same nodes: the per-context
/// lists overlap and the merged list is neither sorted nor free of repeats
/// until it is normalized.
#[test]
fn overlapping_per_context_lists_merge_sorted_and_deduplicated() {
    let d = Document::parse("<r><a><a><b/><a><b/></a></a><b/></a><a><b/></a></r>").unwrap();
    assert_eq!(ids(&d, "//a"), [1, 2, 4, 7]);
    assert_eq!(ids(&d, "//a//a"), [2, 4]);
    assert_eq!(ids(&d, "//a//b"), [3, 5, 6, 8]);
    assert_eq!(ids(&d, "//a[.//a]//b"), [3, 5, 6]);
    assert_eq!(ids(&d, "//a//a/.."), [1, 2]);
    assert_eq!(ids(&d, "//b/following-sibling::*"), [4]);
}

/// A position counts within its own context's list, not the merged one.
#[test]
fn positional_predicates_count_per_context() {
    let d = Document::parse("<r><p><t>1</t><t>2</t><t>3</t></p><p><t>4</t></p><p/></r>").unwrap();
    let text = |q: &str| -> Vec<String> {
        let nodes = eval_document(&d, &Path::parse(q).unwrap());
        assert_eq!(nodes, ref_document(&d, &Path::parse(q).unwrap()), "{q}");
        nodes.into_iter().map(|n| d.text_value(n)).collect()
    };
    assert_eq!(text("//p/t[1]"), ["1", "4"]);
    assert_eq!(text("//p/t[2]"), ["2"]);
    assert_eq!(text("//p/t[last()]"), ["3", "4"]);
    assert_eq!(
        text("//t[2]"),
        ["2"],
        "first step: one list for the document"
    );
    assert_eq!(text("//p[t][2]/t"), ["4"]);
    assert_eq!(text("//p/t[. >= 2][1]"), ["2", "4"]);
    assert_eq!(text("//p//t[last()]"), ["3", "4"]);
}

/// Elements added under an early parent after parsing: pre-order no longer
/// follows ids. Lists are still "by id, deduplicated" — the id lists below
/// are the parent commit's.
#[test]
fn a_document_mutated_after_parsing_answers_by_id_as_before() {
    let mut d = Document::parse("<r><a><b>1</b></a><a><b>2</b></a><c/></r>").unwrap();
    let first_a = d.elements_by_tag("a")[0];
    let late_b = d.add_element(Some(first_a), "b");
    d.add_text(late_b, "3");
    let late_a = d.add_element(Some(first_a), "a");
    let inner = d.add_element(Some(late_a), "b");
    d.add_text(inner, "4");
    let order: Vec<u32> = d.iter().map(|n| n.0).collect();
    assert_eq!(order, [0, 1, 2, 3, 8, 9, 10, 11, 12, 4, 5, 6, 7]);

    assert_eq!(ids(&d, "//b"), [2, 5, 8, 11]);
    assert_eq!(ids(&d, "//a"), [1, 4, 10]);
    assert_eq!(ids(&d, "//a//b"), [2, 5, 8, 11]);
    assert_eq!(ids(&d, "//a/b"), [2, 5, 8, 11]);
    assert_eq!(ids(&d, "//a//b/text()"), [3, 6, 9, 12]);
    // Positions run over the id-sorted list: the first `b` by id under the
    // first `a` is the parsed one, the second the late one.
    assert_eq!(ids(&d, "/r/a//b[2]"), [8]);
    assert_eq!(ids(&d, "/r/a//b[last()]"), [5, 11]);
    assert_eq!(ids(&d, "//b[3]"), [8]);
    // One context whose descendant walk meets ids out of order (2, 8, 11, 5).
    assert_eq!(ids(&d, "/r//b[2]"), [5]);
    assert_eq!(ids(&d, "/r//b[last()]"), [11]);
    assert_eq!(ids(&d, "//a[b >= 3]"), [1, 10]);
    assert_eq!(ids(&d, "//c/following-sibling::*"), Vec::<u32>::new());
    assert_eq!(ids(&d, "//a/following-sibling::*"), [4, 7]);
}
