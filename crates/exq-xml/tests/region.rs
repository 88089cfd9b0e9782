//! `Document::write_spans` against the writer it rides on: the text it
//! writes is `to_xml()`, and each span it reports cuts out of that text
//! exactly what the node's own serialization is — an element's whole
//! subtree, its start tag, an attribute's `name="value"`. A server that
//! keeps only the text and the spans copies reply regions out of them, so
//! these are the bytes a reply is made of.

use exq_xml::{escape_attr, escape_text, Document, NodeId, NodeKind, Span};
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

/// An attribute as a start tag holds it.
fn attr_text(d: &Document, a: NodeId) -> String {
    let NodeKind::Attribute(name, v) = d.node(a).kind() else {
        unreachable!("an attribute")
    };
    format!("{}=\"{}\"", d.tag_name(*name), escape_attr(v))
}

/// An element's start tag up to its `>` or `/>`, written out by hand.
fn start_tag(d: &Document, n: NodeId) -> String {
    let mut tag = format!("<{}", d.element_name(n).unwrap());
    for &a in d.node(n).attrs() {
        tag.push(' ');
        tag.push_str(&attr_text(d, a));
    }
    tag
}

/// Runs the span pass over the whole document and checks it against the
/// writer and the hand-written forms; returns the text and the spans.
fn check(d: &Document) -> (String, Vec<(NodeId, Span)>) {
    let mut text = String::new();
    let mut spans = Vec::new();
    if let Some(root) = d.root() {
        d.write_spans(root, &mut text, &mut |n, s| spans.push((n, s)));
    }
    assert_eq!(text, d.to_xml());
    for &(n, s) in &spans {
        let (whole, open) = (&text[s.start..s.end], &text[s.start..s.open_end]);
        match d.node(n).kind() {
            NodeKind::Element(_) => {
                assert_eq!(whole, d.node_to_xml(n), "subtree at {n}");
                assert_eq!(open, start_tag(d, n), "start tag at {n}");
                let closes = &text[s.open_end..s.end];
                assert!(closes == "/>" || closes.starts_with('>'), "{closes}");
            }
            NodeKind::Attribute(..) => {
                assert_eq!(whole, attr_text(d, n), "attribute at {n}");
                assert_eq!(s.open_end, s.end);
            }
            NodeKind::Text(t) => panic!("a span for the text {:?}", escape_text(t)),
        }
    }
    // Every live element and attribute, once.
    let mut reported: Vec<NodeId> = spans.iter().map(|&(n, _)| n).collect();
    reported.sort_by_key(|n| n.index());
    let mut live: Vec<NodeId> = d.iter().filter(|&n| !d.node(n).is_text()).collect();
    live.sort_by_key(|n| n.index());
    assert_eq!(reported, live);
    (text, spans)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random documents with escapes, empty elements and detached subtrees.
    #[test]
    fn span_pass_cuts_out_each_nodes_own_serialization(
        t in element(tree()),
        detach in proptest::collection::vec(any::<u16>(), 0..4),
    ) {
        let mut d = Document::new();
        build(&t, None, &mut d);
        for victim in detach {
            // Never the root: a document without one writes nothing.
            let victim = victim as usize % d.arena_len();
            if victim != 0 {
                d.detach(NodeId(victim as u32));
            }
        }
        check(&d);
    }
}

/// The shapes the property must reach, pinned so a generator change cannot
/// quietly stop reaching them: escapes in text and attributes, an empty
/// attribute, empty elements written either way, a subtree detached, and a
/// parent whose only child was detached.
#[test]
fn pinned_shapes_escapes_empties_and_detached() {
    let mut d = Document::parse(
        "<r k=\"1 &lt; 2 &amp; &quot;q&quot;\" e=\"\"><a x=\"&amp;\"><b>t<c/></b><d/></a>\
         <a><b y=\"2\"/></a>u &gt; v<e></e></r>",
    )
    .unwrap();
    let (text, spans) = check(&d);
    let span_of = |n: NodeId| spans.iter().find(|&&(m, _)| m == n).unwrap().1;
    let [a, b, c] = ["a", "b", "c"].map(|tag| d.elements_by_tag(tag));
    let at = |n: NodeId| {
        let s = span_of(n);
        (&text[s.start..s.open_end], &text[s.start..s.end])
    };
    assert_eq!(at(c[0]), ("<c", "<c/>"));
    assert_eq!(at(b[1]), ("<b y=\"2\"", "<b y=\"2\"/>"));
    assert_eq!(
        at(a[0]),
        ("<a x=\"&amp;\"", "<a x=\"&amp;\"><b>t<c/></b><d/></a>")
    );
    assert_eq!(at(d.elements_by_tag("e")[0]), ("<e", "<e/>"));
    let root = d.root().unwrap();
    let k = d.node(root).attrs()[0];
    assert_eq!(at(k).1, "k=\"1 &lt; 2 &amp; &quot;q&quot;\"");
    assert_eq!(at(d.node(root).attrs()[1]).1, "e=\"\"");
    // The root's span is the whole text.
    assert_eq!(at(root).1, text);
    // `b`'s children gone: it becomes an empty element.
    let t = d.node(b[0]).children()[0];
    d.detach(t);
    d.detach(c[0]);
    let (text, spans) = check(&d);
    let s = spans.iter().find(|&&(m, _)| m == b[0]).unwrap().1;
    assert_eq!(&text[s.start..s.end], "<b/>");
    // A detached subtree reports nothing.
    d.detach(a[1]);
    let (_, spans) = check(&d);
    assert!(spans.iter().all(|&(n, _)| n != a[1] && n != b[1]));
}
