//! Parsing into a cleared document against parsing into a fresh one. A
//! cleared document keeps its arena, strings and child lists as spares for
//! the next parse; nothing a reader can observe may depend on them: every
//! parse in a run of them, with `clear` between, equals a parse of the same
//! text into a new document, or fails with the same error.

use exq_xml::{Document, NodeId, NodeKind, ParseError, StartTag, Verdict};
use proptest::prelude::*;

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// A fragment a hook parses in where the element it was shown would go.
const FRAGMENT: &str = "<f k=\"v &amp; w\"><a>x</a>t<b><c/></b><d/>u<e n=\"1\"/></f>";

#[derive(Debug, Clone)]
enum Tree {
    Text(String),
    El(usize, Vec<(usize, String)>, Vec<Tree>),
}

fn text() -> impl Strategy<Value = String> {
    // Lengths far apart, so a spare meets texts both shorter and longer
    // than the one it last held; entities and whitespace-only runs too.
    prop_oneof![
        "[a-z]{1,3}",
        "[a-z &<>\"é]{0,40}",
        "[ \t\n]{1,3}",
        "x{200,400}",
    ]
}

fn tree() -> impl Strategy<Value = Tree> {
    let leaf = text().prop_map(Tree::Text);
    leaf.prop_recursive(5, 48, 5, |inner| element(inner).boxed())
}

fn element(child: impl Strategy<Value = Tree>) -> impl Strategy<Value = Tree> {
    (
        0..TAGS.len(),
        proptest::collection::vec((0..TAGS.len(), text()), 0..3),
        proptest::collection::vec(child, 0..6),
    )
        .prop_map(|(tag, attrs, children)| Tree::El(tag, attrs, children))
}

fn build(doc: &mut Document, parent: Option<NodeId>, t: &Tree) {
    match t {
        Tree::Text(s) => {
            if let Some(p) = parent {
                doc.add_text(p, s);
            }
        }
        Tree::El(tag, attrs, children) => {
            let el = doc.add_element(parent, TAGS[*tag]);
            let mut seen = [false; TAGS.len()];
            for (name, value) in attrs {
                if !std::mem::replace(&mut seen[*name], true) {
                    doc.add_attr(el, TAGS[*name], value);
                }
            }
            for c in children {
                build(doc, Some(el), c);
            }
        }
    }
}

/// How a well-formed text is damaged, if at all.
#[derive(Debug, Clone, Copy)]
enum Damage {
    None,
    /// Cut off at a byte of the text (taken modulo its length).
    Cut(usize),
    /// A start tag naming an attribute twice, after the root's start tag.
    RepeatedAttr,
    /// A second root element.
    Trailing,
}

/// What a hook does with the elements of one tag.
#[derive(Debug, Clone, Copy)]
enum Hook {
    KeepAll,
    Skip(usize),
    /// Parse [`FRAGMENT`] in at the element's place, then skip it.
    Splice(usize),
}

fn input() -> impl Strategy<Value = (String, Hook)> {
    let damage = prop_oneof![
        Just(Damage::None),
        Just(Damage::None),
        Just(Damage::None),
        any::<usize>().prop_map(Damage::Cut),
        Just(Damage::RepeatedAttr),
        Just(Damage::Trailing),
    ];
    let hook = prop_oneof![
        Just(Hook::KeepAll),
        (0..TAGS.len()).prop_map(Hook::Skip),
        (0..TAGS.len()).prop_map(Hook::Splice),
    ];
    (element(tree()), damage, hook).prop_map(|(root, damage, hook)| {
        let mut doc = Document::new();
        build(&mut doc, None, &root);
        let mut xml = doc.to_xml();
        match damage {
            Damage::None => {}
            Damage::Cut(at) => {
                let mut at = at % xml.len();
                while !xml.is_char_boundary(at) {
                    at -= 1;
                }
                xml.truncate(at);
            }
            Damage::RepeatedAttr => {
                let after_root_tag = xml.find('>').unwrap() + 1;
                if !xml[..after_root_tag].ends_with("/>") {
                    xml.insert_str(after_root_tag, "<q k=\"1\" k=\"2\"/>");
                }
            }
            Damage::Trailing => xml.push_str("<z/>"),
        }
        (xml, hook)
    })
}

/// Parses `xml` into `doc`, which must be empty, under `hook`.
fn parse(doc: &mut Document, xml: &str, hook: Hook) -> Result<Option<NodeId>, ParseError> {
    doc.parse_fragment_into(
        None,
        0,
        xml,
        |doc: &mut Document, tag: &StartTag<'_, '_>| {
            let name = doc.tag_name(tag.name).to_owned();
            match hook {
                Hook::Skip(t) if name == TAGS[t] => Ok(Verdict::Skip),
                Hook::Splice(t) if name == TAGS[t] => {
                    doc.parse_fragment_into(tag.parent, tag.depth, FRAGMENT, |_, _| {
                        Ok::<_, ParseError>(Verdict::Keep)
                    })?;
                    Ok(Verdict::Skip)
                }
                _ => Ok(Verdict::Keep),
            }
        },
    )
}

/// One node as a reader sees it: id, kind with value, and name.
type Seen = (NodeId, String, Option<String>);

/// Everything a reader sees of a parsed document: its text, its arena
/// size, and each node in pre-order.
fn observed(doc: &Document) -> (String, usize, Vec<Seen>) {
    let nodes = doc
        .iter()
        .map(|n| {
            let kind = match doc.node(n).kind() {
                NodeKind::Element(_) => "element".to_owned(),
                NodeKind::Attribute(_, v) => format!("attribute {v:?}"),
                NodeKind::Text(t) => format!("text {t:?}"),
            };
            (n, kind, doc.node_name(n).map(str::to_owned))
        })
        .collect();
    (doc.to_xml(), doc.arena_len(), nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_cleared_document_parses_as_a_fresh_one(
        inputs in proptest::collection::vec(input(), 1..10),
    ) {
        let mut recycled = Document::new();
        for (xml, hook) in &inputs {
            let mut fresh = Document::new();
            let want = parse(&mut fresh, xml, *hook);
            let got = parse(&mut recycled, xml, *hook);
            prop_assert_eq!(&got, &want, "{}", xml);
            if want.is_ok() {
                prop_assert_eq!(observed(&recycled), observed(&fresh), "{}", xml);
            }
            recycled.clear();
            prop_assert_eq!((recycled.root(), recycled.arena_len()), (None, 0));
        }
    }
}
