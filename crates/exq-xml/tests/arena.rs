//! A start-tag hook's `Skip` against building the element and then
//! `detach`ing it. Everything a reader can observe of the two builds is
//! equal; the skip build, in addition, never made a node it does not hold.

use exq_xml::{Document, NodeId, NodeKind, ParseError, StartTag, Verdict};
use proptest::prelude::*;

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// What becomes of an element, by tag.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Keep,
    Drop,
    /// Drop, then parse `FRAGMENT` in at the same place.
    Replace,
}

/// Holds every tag, so the fragment's own elements meet their fates too.
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

fn fates() -> impl Strategy<Value = Vec<Fate>> {
    let one = prop_oneof![
        Just(Fate::Keep),
        Just(Fate::Keep),
        Just(Fate::Drop),
        Just(Fate::Replace),
    ];
    proptest::collection::vec(one, TAGS.len())
}

/// The fate of the element named `name`. Inside a fragment `Replace` only
/// drops, so replacing ends.
fn fate_of(name: &str, fates: &[Fate], in_fragment: bool) -> Fate {
    match TAGS.iter().position(|&t| t == name).map(|t| fates[t]) {
        Some(Fate::Replace) if in_fragment => Fate::Drop,
        fate => fate.unwrap_or(Fate::Keep),
    }
}

/// The skip build: each fate decided at the start tag.
fn hook(
    doc: &mut Document,
    tag: &StartTag<'_, '_>,
    fates: &[Fate],
    in_fragment: bool,
) -> Result<Verdict, ParseError> {
    match fate_of(doc.tag_name(tag.name), fates, in_fragment) {
        Fate::Keep => Ok(Verdict::Keep),
        Fate::Drop => Ok(Verdict::Skip),
        Fate::Replace => {
            doc.parse_fragment_into(tag.parent, tag.depth, FRAGMENT, |doc, tag| {
                hook(doc, tag, fates, true)
            })?;
            Ok(Verdict::Skip)
        }
    }
}

fn skip_build(xml: &str, fates: &[Fate]) -> Document {
    let mut doc = Document::new();
    doc.parse_fragment_into(None, 0, xml, |doc, tag| hook(doc, tag, fates, false))
        .expect("generated XML parses");
    doc
}

/// The detach build: every element of a plain parse copied in document
/// order, and then, complete, detached when it is dropped — with the
/// fragment copied in after it when it is replaced.
fn detach_build(xml: &str, fates: &[Fate]) -> Document {
    let (src, fragment) = (
        Document::parse(xml).unwrap(),
        Document::parse(FRAGMENT).unwrap(),
    );
    let mut out = Document::new();
    let ctx = (&fragment, fates);
    copy(&src, src.root().unwrap(), &mut out, None, ctx, false);
    out
}

fn copy(
    src: &Document,
    n: NodeId,
    out: &mut Document,
    parent: Option<NodeId>,
    ctx: (&Document, &[Fate]),
    in_fragment: bool,
) {
    let node = src.node(n);
    let name = match node.kind() {
        NodeKind::Text(t) => {
            out.add_text(parent.unwrap(), t);
            return;
        }
        NodeKind::Attribute(..) => unreachable!("attributes are copied with their element"),
        NodeKind::Element(_) => src.element_name(n).unwrap(),
    };
    let el = out.add_element(parent, name);
    for &a in node.attrs() {
        out.add_attr(el, src.node_name(a).unwrap(), &src.text_value(a));
    }
    for &c in node.children() {
        copy(src, c, out, Some(el), ctx, in_fragment);
    }
    let fate = fate_of(name, ctx.1, in_fragment);
    if fate != Fate::Keep {
        out.detach(el);
    }
    if fate == Fate::Replace {
        let fragment = ctx.0;
        copy(fragment, fragment.root().unwrap(), out, parent, ctx, true);
    }
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
    /// nothing dead was ever made by the skip one.
    #[test]
    fn skip_at_the_start_tag_equals_build_then_detach(
        t in element(tree()),
        fates in fates(),
    ) {
        let mut xml = String::new();
        write(&t, &mut xml);
        let detached = detach_build(&xml, &fates);
        let skipped = skip_build(&xml, &fates);

        prop_assert_eq!(skipped.to_xml(), detached.to_xml());
        prop_assert_eq!(walk(&skipped), walk(&detached));
        prop_assert_eq!(skipped.len(), detached.len());
        prop_assert_eq!(skipped.root().is_some(), detached.root().is_some());
        for d in [&skipped, &detached] {
            let ids: Vec<NodeId> = d.iter().collect();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids out of document order");
        }
        prop_assert_eq!(skipped.arena_len(), skipped.len());
        prop_assert!(detached.arena_len() >= skipped.arena_len());
        // And it reads as what it is: the text it serializes to.
        if skipped.root().is_some() {
            let opts = exq_xml::ParseOptions { skip_whitespace_text: false };
            let reparsed = Document::parse_with(&skipped.to_xml(), opts).unwrap();
            prop_assert_eq!(reparsed.to_xml(), skipped.to_xml());
        }
    }
}

/// The shapes the property must reach, pinned so a generator change cannot
/// quietly stop reaching them.
#[test]
fn pinned_shapes_nested_refilled_and_root_drops() {
    use Fate::{Drop, Keep, Replace};
    let xml = "<a><b>t1<c>t2</c></b><d x=\"1\"><b/>t3</d><c/></a>";
    let cases: [(&[Fate; 5], &str); 4] = [
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
    for (fates, want) in cases {
        let detached = detach_build(xml, fates);
        let skipped = skip_build(xml, fates);
        assert_eq!(detached.to_xml(), want, "{fates:?}");
        assert_eq!(skipped.to_xml(), want, "{fates:?}");
        assert_eq!(walk(&skipped), walk(&detached));
        assert_eq!(skipped.arena_len(), skipped.len());
        assert!(detached.arena_len() > detached.len());
    }
}
