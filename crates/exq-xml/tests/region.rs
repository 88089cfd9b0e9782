//! `SpanDocument`'s spans against the writer: parsed from what `to_xml()`
//! writes, its text is that text again, and each node's span cuts out of it
//! exactly what the writer writes for the node — an element's whole
//! subtree, its start tag, an attribute's `name="value"`, a text's escaped
//! content. A server that keeps only the text and the spans copies reply
//! regions out of them, so these are the bytes a reply is made of.

use exq_xml::{escape_attr, escape_text, Document, NodeId, NodeKind, Span, SpanDocument};
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
            // A start tag names an attribute once.
            for (i, (name, v)) in attrs.iter().enumerate() {
                if attrs[..i].iter().all(|(other, _)| other != name) {
                    d.add_attr(el, TAGS[*name], VALUES[*v]);
                }
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

/// Parses the writer's text of `d` into a span document and checks each
/// node's span against the writer and the hand-written forms; returns the
/// text and, per element and attribute of `d` in document order, its span.
/// The text is `d`'s read back and written again: the two differ only
/// where `d` holds an empty text, which no parse makes.
fn check(d: &Document) -> (String, Vec<(NodeId, Span)>) {
    if d.root().is_none() {
        return (String::new(), Vec::new());
    }
    // The writer's text read back as a tree: its nodes are the span
    // document's, in the same order.
    let read = Document::parse(&d.to_xml()).unwrap();
    let text = read.to_xml();
    let spans = SpanDocument::parse(&d.to_xml()).unwrap();
    assert_eq!(spans.text(), text);
    let nodes: Vec<NodeId> = read.iter().collect();
    assert_eq!(nodes.len(), spans.len());
    let mut out = Vec::new();
    for (i, &n) in nodes.iter().enumerate() {
        let s = spans.span(NodeId(i as u32));
        let (whole, open) = (&text[s.start..s.end], &text[s.start..s.open_end]);
        match read.node(n).kind() {
            NodeKind::Element(_) => {
                assert_eq!(whole, read.node_to_xml(n), "subtree at {n}");
                assert_eq!(open, start_tag(&read, n), "start tag at {n}");
                let closes = &text[s.open_end..s.end];
                assert!(closes == "/>" || closes.starts_with('>'), "{closes}");
            }
            NodeKind::Attribute(..) => {
                assert_eq!(whole, attr_text(&read, n), "attribute at {n}");
                assert_eq!(s.open_end, s.end);
            }
            NodeKind::Text(t) => {
                assert_eq!(whole, escape_text(t), "text at {n}");
                assert_eq!(s.open_end, s.end);
            }
        }
    }
    // `d`'s live elements and attributes in document order, paired with
    // theirs: the text is written in that order and merges nothing else.
    let live = d.iter().filter(|&n| !d.node(n).is_text());
    let read_spans = nodes
        .iter()
        .enumerate()
        .filter(|&(_, &n)| !read.node(n).is_text())
        .map(|(i, _)| spans.span(NodeId(i as u32)));
    out.extend(live.zip(read_spans));
    assert_eq!(
        out.len(),
        read.iter().filter(|&n| !read.node(n).is_text()).count()
    );
    (text, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random documents with escapes, empty elements and detached subtrees.
    #[test]
    fn spans_cut_out_each_nodes_own_serialization(
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
