//! Property tests: serialize∘parse is the identity on the document model.

use exq_xml::{Document, NodeId, SpanDocument};
use proptest::prelude::*;

/// A recursive generator for random documents built through the public API.
#[derive(Debug, Clone)]
enum Tree {
    Leaf(String),
    Element {
        tag: String,
        attrs: Vec<(String, String)>,
        children: Vec<Tree>,
    },
}

fn tag_name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_-]{0,8}"
}

/// A character of a value: some need escaping, one is a space.
fn value_char() -> impl Strategy<Value = char> {
    prop_oneof![
        Just('a'),
        Just('Z'),
        Just('&'),
        Just('<'),
        Just('>'),
        Just('"'),
        Just('\''),
        Just(' '),
        Just('é'),
    ]
}

/// A value that is not only whitespace: the parser drops whitespace-only
/// text, so it would not survive a round trip as a node.
fn text_value() -> impl Strategy<Value = String> {
    (value_char(), proptest::collection::vec(value_char(), 0..11)).prop_map(|(first, rest)| {
        let first = if first == ' ' { 'a' } else { first };
        std::iter::once(first).chain(rest).collect()
    })
}

fn tree() -> impl Strategy<Value = Tree> {
    let leaf = text_value().prop_map(Tree::Leaf);
    leaf.prop_recursive(4, 40, 5, |inner| {
        (
            tag_name(),
            proptest::collection::vec((tag_name(), text_value()), 0..3),
            proptest::collection::vec(inner, 0..5),
        )
            .prop_map(|(tag, attrs, children)| Tree::Element {
                tag,
                attrs,
                children,
            })
    })
}

fn build(doc: &mut Document, parent: Option<NodeId>, t: &Tree) {
    match t {
        Tree::Leaf(s) => {
            if let Some(p) = parent {
                doc.add_text(p, s);
            }
        }
        Tree::Element {
            tag,
            attrs,
            children,
        } => {
            let el = doc.add_element(parent, tag);
            // Attribute names must be unique within an element for the
            // parse-serialize roundtrip to be exact.
            let mut seen = std::collections::HashSet::new();
            for (k, v) in attrs {
                if seen.insert(k.clone()) {
                    doc.add_attr(el, k, v);
                }
            }
            for c in children {
                build(doc, Some(el), c);
            }
        }
    }
}

fn root_tree() -> impl Strategy<Value = Tree> {
    (
        tag_name(),
        proptest::collection::vec((tag_name(), text_value()), 0..3),
        proptest::collection::vec(tree(), 0..5),
    )
        .prop_map(|(tag, attrs, children)| Tree::Element {
            tag,
            attrs,
            children,
        })
}

proptest! {
    /// parse(serialize(doc)) reproduces the serialization exactly.
    #[test]
    fn serialize_parse_roundtrip(t in root_tree()) {
        let mut doc = Document::new();
        build(&mut doc, None, &t);
        let xml = doc.to_xml();
        let reparsed = Document::parse(&xml).unwrap();
        prop_assert_eq!(reparsed.to_xml(), xml.as_str());
        // The writer's own output is copied whole into a span document.
        let spans = SpanDocument::parse(&xml).unwrap();
        prop_assert_eq!(spans.text(), xml.as_str());
    }

    /// The parsed copy preserves node counts apart from adjacent-text merging.
    #[test]
    fn roundtrip_preserves_text_value(t in root_tree()) {
        let mut doc = Document::new();
        build(&mut doc, None, &t);
        let xml = doc.to_xml();
        let reparsed = Document::parse(&xml).unwrap();
        let (r1, r2) = (doc.root().unwrap(), reparsed.root().unwrap());
        prop_assert_eq!(doc.text_value(r1), reparsed.text_value(r2));
        prop_assert_eq!(doc.height(), reparsed.height());
    }

    /// Escaping never panics and always survives unescaping.
    #[test]
    fn escape_unescape_identity(s in "\\PC*") {
        let esc = exq_xml::escape_text(&s);
        prop_assert_eq!(exq_xml::unescape(&esc).into_owned(), s);
    }
}
