//! `Document::discard` against `Document::detach`, driven the way the client
//! drives them — from a parse hook, on the element that just completed.
//! Everything a reader can observe of the two builds is equal; the `discard`
//! build, in addition, holds no dead node.

use exq_xml::{Document, NodeId, NodeKind, ParseError};
use proptest::prelude::*;

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// What the hook does to an element, by tag.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Keep,
    Drop,
    /// Drop, then parse `FRAGMENT` in at the same place.
    Replace,
}

/// Holds every tag, so a fragment's own hook gets to drop inside it too.
const FRAGMENT: &str = "<f k=\"v\"><a>x</a>t<b><c/></b><d/>u<e n=\"1\"/></f>";

#[derive(Debug, Clone)]
enum Tree {
    Text(u8),
    El(usize, Vec<(usize, u8)>, Vec<Tree>),
}

fn tree() -> impl Strategy<Value = Tree> {
    let leaf = any::<u8>().prop_map(Tree::Text);
    leaf.prop_recursive(5, 48, 4, |inner| element(inner).boxed())
}

fn element(child: impl Strategy<Value = Tree>) -> impl Strategy<Value = Tree> {
    (
        0..TAGS.len(),
        proptest::collection::vec((0..TAGS.len(), any::<u8>()), 0..3),
        proptest::collection::vec(child, 0..4),
    )
        .prop_map(|(tag, attrs, children)| Tree::El(tag, attrs, children))
}

fn write(t: &Tree, out: &mut String) {
    match t {
        Tree::Text(v) => out.push_str(&format!("t{v}")),
        Tree::El(tag, attrs, children) => {
            out.push_str(&format!("<{}", TAGS[*tag]));
            for (i, (name, v)) in attrs.iter().enumerate() {
                // A start tag names an attribute once.
                if attrs[..i].iter().all(|(earlier, _)| earlier != name) {
                    out.push_str(&format!(" {}=\"{v}\"", TAGS[*name]));
                }
            }
            out.push('>');
            children.iter().for_each(|c| write(c, out));
            out.push_str(&format!("</{}>", TAGS[*tag]));
        }
    }
}

fn verdicts() -> impl Strategy<Value = Vec<Verdict>> {
    let one = prop_oneof![
        Just(Verdict::Keep),
        Just(Verdict::Keep),
        Just(Verdict::Drop),
        Just(Verdict::Replace),
    ];
    proptest::collection::vec(one, TAGS.len())
}

type Remove = fn(&mut Document, NodeId);

/// The hook: applies `verdicts` to `el` with `remove`. Inside a fragment
/// `Replace` only drops, so replacing ends.
fn hook(
    doc: &mut Document,
    el: NodeId,
    verdicts: &[Verdict],
    remove: Remove,
    in_fragment: bool,
) -> Result<(), ParseError> {
    let name = doc.element_name(el).expect("hooks see elements");
    let Some(tag) = TAGS.iter().position(|&t| t == name) else {
        return Ok(());
    };
    let parent = doc.node(el).parent();
    match verdicts[tag] {
        Verdict::Keep => {}
        Verdict::Replace if !in_fragment => {
            remove(doc, el);
            doc.parse_fragment_into(parent, FRAGMENT, |doc, el| {
                hook(doc, el, verdicts, remove, true)
            })?;
        }
        Verdict::Drop | Verdict::Replace => remove(doc, el),
    }
    Ok(())
}

fn build(xml: &str, verdicts: &[Verdict], remove: Remove) -> Document {
    Document::parse_with_hook(xml, |doc, el| hook(doc, el, verdicts, remove, false))
        .expect("generated XML parses")
}

/// The document as a reader walks it: kind, name and value of every node in
/// `iter()` order, and each one's string value.
fn walk(d: &Document) -> Vec<(String, String, String)> {
    d.iter()
        .map(|n| {
            let (kind, value) = match d.node(n).kind() {
                NodeKind::Element(_) => ("element", String::new()),
                NodeKind::Attribute(_, v) => ("attribute", v.clone()),
                NodeKind::Text(t) => ("text", t.clone()),
            };
            let name = d.node_name(n).unwrap_or("").to_owned();
            (
                format!("{kind} {name}={value}"),
                d.node_to_xml(n),
                d.text_value(n),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Nested drops, a drop refilled at the same place, a dropped root: the
    /// two builds read the same, ids rise in document order in both, and
    /// nothing dead survives the `discard` one.
    #[test]
    fn discard_equals_detach_for_everything_observable(
        t in element(tree()),
        verdicts in verdicts(),
    ) {
        let mut xml = String::new();
        write(&t, &mut xml);
        let detached = build(&xml, &verdicts, Document::detach);
        let discarded = build(&xml, &verdicts, Document::discard);

        prop_assert_eq!(discarded.to_xml(), detached.to_xml());
        prop_assert_eq!(walk(&discarded), walk(&detached));
        prop_assert_eq!(discarded.len(), detached.len());
        prop_assert_eq!(discarded.root().is_some(), detached.root().is_some());
        for d in [&discarded, &detached] {
            let ids: Vec<NodeId> = d.iter().collect();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids out of document order");
        }
        prop_assert_eq!(discarded.arena_len(), discarded.len());
        prop_assert!(detached.arena_len() >= discarded.arena_len());
        // And it reads as what it is: the text it serializes to.
        if discarded.root().is_some() {
            let opts = exq_xml::ParseOptions { skip_whitespace_text: false };
            let reparsed = Document::parse_with(&discarded.to_xml(), opts).unwrap();
            prop_assert_eq!(reparsed.to_xml(), discarded.to_xml());
        }
    }
}

/// The shapes the property must reach, pinned so a generator change cannot
/// quietly stop covering them.
#[test]
fn pinned_shapes_nested_refilled_and_root_drops() {
    use Verdict::{Drop, Keep, Replace};
    let xml = "<a><b>t1<c>t2</c></b><d x=\"1\"><b/>t3</d><c/></a>";
    let cases: [(&[Verdict; 5], &str); 4] = [
        // A drop inside a drop.
        (&[Keep, Drop, Drop, Keep, Keep], "<a><d x=\"1\">t3</d></a>"),
        // A refill, whose own `b` and `c` are dropped in turn.
        (
            &[Keep, Drop, Replace, Keep, Keep],
            "<a><d x=\"1\">t3</d><f k=\"v\"><a>x</a>t<d/>u<e n=\"1\"/></f></a>",
        ),
        // The root dropped: nothing is left, not even a slot.
        (&[Drop, Keep, Keep, Keep, Keep], ""),
        // The root replaced: the fragment becomes the root.
        (
            &[Replace, Keep, Keep, Keep, Keep],
            "<f k=\"v\">t<b><c/></b><d/>u<e n=\"1\"/></f>",
        ),
    ];
    for (verdicts, want) in cases {
        let detached = build(xml, verdicts, Document::detach);
        let discarded = build(xml, verdicts, Document::discard);
        assert_eq!(detached.to_xml(), want, "{verdicts:?}");
        assert_eq!(discarded.to_xml(), want, "{verdicts:?}");
        assert_eq!(walk(&discarded), walk(&detached));
        assert_eq!(discarded.arena_len(), discarded.len());
        assert!(detached.arena_len() > detached.len());
    }
}
