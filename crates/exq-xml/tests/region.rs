//! `Document::to_xml_region` against the definition it replaced: a region
//! given as anchors, each marked whole with its ancestors as context and
//! nothing below it visited, must serialize exactly as the same region
//! marked node by node — every node of every anchor's subtree — and written
//! by asking about each. The elements the writer reports from whole subtrees
//! are the elements inside the anchors' subtrees, each once, in document
//! order.

use exq_xml::{escape_attr, escape_text, Document, Keep, NodeId, NodeKind, TagId};
use proptest::prelude::*;

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
/// Values that need escaping in a text, in an attribute, in both, in neither.
const VALUES: [&str; 5] = ["v", "x & y", "1 < 2", "say \"hi\"", ""];

#[derive(Debug, Clone)]
enum Tree {
    Text(usize),
    El(usize, Vec<(usize, usize)>, Vec<Tree>),
}

fn tree() -> impl Strategy<Value = Tree> {
    let leaf = (0..VALUES.len()).prop_map(Tree::Text);
    leaf.prop_recursive(5, 64, 4, |inner| element(inner).boxed())
}

fn element(child: impl Strategy<Value = Tree>) -> impl Strategy<Value = Tree> {
    (
        0..TAGS.len(),
        proptest::collection::vec((0..TAGS.len(), 0..VALUES.len()), 0..3),
        proptest::collection::vec(child, 0..5),
    )
        .prop_map(|(tag, attrs, children)| Tree::El(tag, attrs, children))
}

fn build(t: &Tree, parent: Option<NodeId>, d: &mut Document) {
    match t {
        Tree::Text(v) => drop(d.add_text(parent.expect("the root is an element"), VALUES[*v])),
        Tree::El(tag, attrs, children) => {
            let el = d.add_element(parent, TAGS[*tag]);
            for (name, v) in attrs {
                d.add_attr(el, TAGS[*name], VALUES[*v]);
            }
            children.iter().for_each(|c| build(c, Some(el), d));
        }
    }
}

/// The region as the server marks it: the anchor whole, its chain of
/// ancestors as context up to the first one already marked.
fn mark(d: &Document, marks: &mut [Keep], v: NodeId) {
    marks[v.index()] = Keep::Subtree;
    let mut cur = v;
    while let Some(p) = d.node(cur).parent() {
        if marks[p.index()] != Keep::Skip {
            break;
        }
        marks[p.index()] = Keep::Node;
        cur = p;
    }
}

/// The old definition: every node of the anchor's subtree is a member, and
/// every ancestor with its attributes.
fn mark_members(d: &Document, member: &mut [bool], v: NodeId) {
    for n in d.descendants(v) {
        member[n.index()] = true;
    }
    for anc in d.ancestors(v) {
        member[anc.index()] = true;
        for a in d.node(anc).attrs() {
            member[a.index()] = true;
        }
    }
}

/// The old writer: a node is written when it is a member, attributes asked
/// about like any other node.
fn write_members(d: &Document, id: NodeId, member: &[bool], out: &mut String) {
    if !member[id.index()] {
        return;
    }
    let n = d.node(id);
    match n.kind() {
        NodeKind::Text(t) => out.push_str(&escape_text(t)),
        NodeKind::Attribute(name, v) => {
            out.push_str(&format!("{}=\"{}\"", d.tag_name(*name), escape_attr(v)));
        }
        NodeKind::Element(tag) => {
            let tag = d.tag_name(*tag);
            out.push_str(&format!("<{tag}"));
            for &a in n.attrs().iter().filter(|a| member[a.index()]) {
                out.push(' ');
                write_members(d, a, member, out);
            }
            let kept: Vec<NodeId> = (n.children().iter().copied())
                .filter(|c| member[c.index()])
                .collect();
            if kept.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                kept.iter().for_each(|&c| write_members(d, c, member, out));
                out.push_str(&format!("</{tag}>"));
            }
        }
    }
}

/// What one check observed: the two texts and the two element lists.
struct Observed {
    one_pass: String,
    reference: String,
    reported: Vec<(NodeId, TagId)>,
    inside: Vec<(NodeId, TagId)>,
}

fn observe(d: &Document, anchors: &[NodeId]) -> Observed {
    let mut marks = vec![Keep::Skip; d.arena_len()];
    let mut member = vec![false; d.arena_len()];
    for &v in anchors {
        mark(d, &mut marks, v);
        mark_members(d, &mut member, v);
    }
    let mut reported = Vec::new();
    let one_pass = d.to_xml_region(|n| marks[n.index()], |n, tag| reported.push((n, tag)));
    let mut reference = String::new();
    if let Some(root) = d.root() {
        write_members(d, root, &member, &mut reference);
    }
    let inside = (d.iter())
        .filter(|&n| anchors.contains(&n) || d.ancestors(n).iter().any(|a| anchors.contains(a)))
        .filter_map(|n| match d.node(n).kind() {
            NodeKind::Element(tag) => Some((n, *tag)),
            _ => None,
        })
        .collect();
    Observed {
        one_pass,
        reference,
        reported,
        inside,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random documents with detached subtrees, random anchor sets. Each
    /// pick also says what follows it: nothing, the same anchor again, or
    /// one of its ancestors — an anchor above an earlier one.
    #[test]
    fn one_pass_region_equals_marking_every_node(
        t in element(tree()),
        detach in proptest::collection::vec(any::<u16>(), 0..4),
        picks in proptest::collection::vec((any::<u16>(), 0..3usize, any::<u16>()), 0..8),
    ) {
        let mut d = Document::new();
        build(&t, None, &mut d);
        for victim in detach {
            // Never the root: a document without one has no region.
            let victim = victim as usize % d.arena_len();
            if victim != 0 {
                d.detach(NodeId(victim as u32));
            }
        }
        let live: Vec<NodeId> = d.iter().collect();
        let mut anchors = Vec::new();
        for (pick, then, which) in picks {
            let v = live[pick as usize % live.len()];
            anchors.push(v);
            let above = d.ancestors(v);
            match then {
                1 => anchors.push(v),
                2 if !above.is_empty() => anchors.push(above[which as usize % above.len()]),
                _ => {}
            }
        }

        let seen = observe(&d, &anchors);
        prop_assert_eq!(&seen.one_pass, &seen.reference);
        prop_assert_eq!(&seen.reported, &seen.inside);
        prop_assert_eq!(anchors.is_empty(), seen.one_pass.is_empty());
    }
}

/// The shapes the property must reach, pinned so a generator change cannot
/// quietly stop reaching them.
#[test]
fn pinned_shapes_nested_repeated_above_and_detached() {
    let mut d =
        Document::parse("<r k=\"1\"><a x=\"&amp;\"><b>t<c/></b><d/></a><a><b y=\"2\"/></a>u</r>")
            .unwrap();
    let [a, b, c] = ["a", "b", "c"].map(|tag| d.elements_by_tag(tag));
    let first_a = "<r k=\"1\"><a x=\"&amp;\"><b>t<c/></b><d/></a></r>";
    let cases: [(&[NodeId], &str, usize); 6] = [
        // One leaf: its chain as context, siblings gone.
        (&[c[0]], "<r k=\"1\"><a x=\"&amp;\"><b><c/></b></a></r>", 1),
        // Nested, the inner first: the outer one takes over.
        (&[c[0], a[0]], first_a, 4),
        // Nested, the outer first; and an anchor repeated.
        (&[a[0], c[0], a[0]], first_a, 4),
        // Overlapping chains, two subtrees.
        (
            &[b[0], b[1]],
            "<r k=\"1\"><a x=\"&amp;\"><b>t<c/></b></a><a><b y=\"2\"/></a></r>",
            3,
        ),
        // The root itself.
        (&[d.root().unwrap(), b[1]], &d.to_xml(), 7),
        (&[], "", 0),
    ];
    for (anchors, want, elements) in cases {
        let seen = observe(&d, anchors);
        assert_eq!(seen.one_pass, want, "{anchors:?}");
        assert_eq!(seen.reference, want, "{anchors:?}");
        assert_eq!(seen.reported, seen.inside, "{anchors:?}");
        assert_eq!(seen.reported.len(), elements, "{anchors:?}");
    }
    // A detached subtree inside a whole one is neither written nor reported.
    d.detach(b[0]);
    let seen = observe(&d, &[a[0]]);
    assert_eq!(seen.one_pass, "<r k=\"1\"><a x=\"&amp;\"><d/></a></r>");
    assert_eq!(seen.reference, seen.one_pass);
    let reported: Vec<NodeId> = seen.reported.iter().map(|(n, _)| *n).collect();
    assert_eq!(reported, [a[0], d.elements_by_tag("d")[0]]);
}
