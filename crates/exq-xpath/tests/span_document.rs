//! The span document against the arena document. A reply with decoys and
//! blocks cut out at byte offsets, written in every form the parser
//! accepts, is read into a `SpanDocument` (decoys skipped, each block
//! parsed in at its offset); the same tree written with the decoys dropped
//! and the blocks in place is read by `Document::parse`. Every query answers the same on both: an
//! element result is its slice of the span document's text and equals
//! `node_to_xml`, an attribute's or a text's is its value.

use exq_xml::{Document, NodeType, ParseError, SpanBuilder, SpanDocument, TreeView, Verdict};
use exq_xpath::{
    eval, eval_document, Axis, CmpOp, Literal, NodeTest, Path, PositionTest, Predicate, Step,
};
use proptest::prelude::*;

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const DECOY: &str = "z";

#[derive(Debug, Clone)]
enum Item {
    Text(String),
    El(El),
    /// Skipped with whatever it holds.
    Decoy(El),
    /// Cut out of the reply and shipped as a block at its offset.
    Block(El),
}

#[derive(Debug, Clone)]
struct El {
    tag: usize,
    attrs: Vec<(usize, String)>,
    kids: Vec<Item>,
}

/// Values with every byte the writer escapes, quotes, a non-ASCII letter,
/// and whitespace-only runs.
fn value() -> impl Strategy<Value = String> {
    prop_oneof!["[0-9]{1,2}", "[ab1 &<>\"'é]{0,8}", "[ \t\n]{1,3}",]
}

fn element(
    kid: impl Strategy<Value = Item>,
    kids: std::ops::Range<usize>,
) -> impl Strategy<Value = El> {
    (
        0..TAGS.len(),
        proptest::collection::vec((0..TAGS.len(), value()), 0..3),
        proptest::collection::vec(kid, kids),
    )
        .prop_map(|(tag, mut attrs, kids)| {
            // A start tag names an attribute once.
            let mut seen = [false; TAGS.len()];
            attrs.retain(|(n, _)| !std::mem::replace(&mut seen[*n], true));
            El { tag, attrs, kids }
        })
}

fn item() -> impl Strategy<Value = Item> {
    let leaf = value().prop_map(Item::Text);
    leaf.prop_recursive(4, 48, 4, |inner| {
        let el = element(inner, 0..5).boxed();
        prop_oneof![
            el.clone().prop_map(Item::El),
            el.clone().prop_map(Item::El),
            el.clone().prop_map(Item::Decoy),
            el.prop_map(Item::Block),
        ]
    })
}

fn root() -> impl Strategy<Value = El> {
    element(item(), 2..9)
}

/// How the text is written: each choice is drawn from the bytes of `style`
/// in turn, so one seed writes one document one way.
struct Writer<'s> {
    style: &'s [u8],
    at: usize,
    out: String,
    /// Block texts and their offsets in `out`, in document order.
    blocks: Vec<String>,
    offsets: Vec<u32>,
}

impl Writer<'_> {
    fn pick(&mut self, n: u8) -> u8 {
        let b = self.style[self.at % self.style.len()];
        self.at += 1;
        b % n
    }

    fn text(&mut self, v: &str) {
        for c in v.chars() {
            match (c, self.pick(8)) {
                ('&', 0) => self.out.push_str("&#38;"),
                ('&', _) => self.out.push_str("&amp;"),
                ('<', 0) => self.out.push_str("&#x3C;"),
                ('<', _) => self.out.push_str("&lt;"),
                ('>', 0) => self.out.push('>'),
                ('>', _) => self.out.push_str("&gt;"),
                ('"', 0) => self.out.push_str("&quot;"),
                ('\'', 0) => self.out.push_str("&apos;"),
                ('é', 0) => self.out.push_str("&#233;"),
                (_, 1) => {
                    self.out.push_str("<!-- c -->");
                    self.out.push(c);
                }
                (c, 2) if !matches!(c, '&' | '<') => {
                    self.out.push_str("<![CDATA[");
                    self.out.push(c);
                    self.out.push_str("]]>");
                }
                (c, _) => self.out.push(c),
            }
        }
    }

    fn attr(&mut self, name: &str, v: &str) {
        {
            let w = if self.pick(4) == 0 { " \n " } else { " " };
            self.out.push_str(w)
        };
        self.out.push_str(name);
        let quote = if self.pick(4) == 0 { '\'' } else { '"' };
        {
            let w = if self.pick(6) == 0 { " = " } else { "=" };
            self.out.push_str(w)
        };
        self.out.push(quote);
        for c in v.chars() {
            match c {
                '&' => self.out.push_str("&amp;"),
                '<' => {
                    let w = if self.pick(2) == 0 { "&lt;" } else { "&#60;" };
                    self.out.push_str(w)
                }
                '>' if self.pick(2) == 0 => self.out.push_str("&gt;"),
                '"' if quote == '"' => self.out.push_str("&quot;"),
                '\'' if quote == '\'' => self.out.push_str("&apos;"),
                c => self.out.push(c),
            }
        }
        self.out.push(quote);
    }

    /// Writes `el`; with `resolve`, decoys are left out and blocks are
    /// written in place, as the reconstruction reads them.
    fn element(&mut self, name: &str, el: &El, resolve: bool) {
        self.out.push('<');
        self.out.push_str(name);
        for (n, v) in &el.attrs {
            self.attr(TAGS[*n], v);
        }
        if self.pick(5) == 0 {
            self.out.push(' ');
        }
        if el.kids.is_empty() && self.pick(2) == 0 {
            self.out.push_str("/>");
            return;
        }
        self.out.push('>');
        // Two texts with no tag between them are one text node, and a
        // skipped decoy is a tag between them only on the reconstruction's
        // side: so a text right after a text is left out of both sides.
        let mut after_text = false;
        for kid in &el.kids {
            match kid {
                Item::Text(_) if after_text => {}
                Item::Text(v) => {
                    self.text(v);
                    after_text = true;
                }
                Item::El(e) => {
                    self.element(TAGS[e.tag], e, resolve);
                    after_text = false;
                }
                Item::Decoy(e) => {
                    // Written on both sides, so both draw the same choices
                    // after it; the resolved side then drops it.
                    let len = self.out.len();
                    self.element(DECOY, e, false);
                    if resolve {
                        self.out.truncate(len);
                    }
                }
                Item::Block(b) => {
                    // The same style as the block's own text.
                    let mut inner = Writer {
                        style: self.style,
                        at: self.at + 7,
                        out: String::new(),
                        blocks: Vec::new(),
                        offsets: Vec::new(),
                    };
                    inner.element(TAGS[b.tag], b, resolve);
                    assert!(inner.blocks.is_empty(), "blocks hold no blocks");
                    if resolve {
                        self.out.push_str(&inner.out);
                    } else {
                        self.offsets.push(self.out.len() as u32);
                        self.blocks.push(inner.out);
                    }
                    after_text = false;
                }
            }
            if !after_text && self.pick(6) == 0 {
                self.out.push_str("\n  ");
                after_text = true;
            }
        }
        self.out.push_str("</");
        self.out.push_str(name);
        {
            let w = if self.pick(6) == 0 { " >" } else { ">" };
            self.out.push_str(w)
        };
    }
}

/// Blocks hold no blocks: blocks are only cut out of the reply.
fn without_blocks(el: &El) -> El {
    let kids = el.kids.iter().filter_map(|k| match k {
        Item::Block(_) => None,
        Item::El(e) => Some(Item::El(without_blocks(e))),
        Item::Decoy(e) => Some(Item::Decoy(without_blocks(e))),
        text => Some(text.clone()),
    });
    El {
        kids: kids.collect(),
        ..el.clone()
    }
}

fn blocks_without_blocks(el: &El) -> El {
    let kids = el.kids.iter().map(|k| match k {
        Item::Block(b) => Item::Block(without_blocks(b)),
        Item::El(e) => Item::El(blocks_without_blocks(e)),
        Item::Decoy(e) => Item::Decoy(blocks_without_blocks(e)),
        text => text.clone(),
    });
    El {
        kids: kids.collect(),
        ..el.clone()
    }
}

/// The reply read as the client reads it.
fn reconstruct(
    reply: &str,
    blocks: &[String],
    offsets: &[u32],
) -> Result<SpanDocument, ParseError> {
    let mut b = SpanBuilder::with_capacity(reply.len());
    let decoy = b.intern(DECOY);
    let skip_decoy = move |tag: &exq_xml::StartTag<'_, '_>| match tag.name == decoy {
        true => Verdict::Skip,
        false => Verdict::Keep,
    };
    b.parse_stopping(
        reply,
        offsets,
        |_, tag| Ok(skip_decoy(tag)),
        |b, i| b.parse_fragment(&blocks[i], |_, tag| Ok(skip_decoy(tag))),
    )?;
    Ok(b.finish())
}

/// Results as the client renders them.
fn rendered(
    doc: &impl TreeView,
    nodes: &[exq_xml::NodeId],
    xml: impl Fn(exq_xml::NodeId) -> String,
) -> Vec<String> {
    nodes
        .iter()
        .map(|&n| match doc.node_type(n) {
            NodeType::Element(_) => xml(n),
            _ => doc.string_value(n).into_owned(),
        })
        .collect()
}

fn name_test() -> impl Strategy<Value = NodeTest> {
    prop_oneof![
        (0..TAGS.len()).prop_map(|t| NodeTest::Name(TAGS[t].to_owned())),
        (0..TAGS.len()).prop_map(|t| NodeTest::Name(TAGS[t].to_owned())),
        Just(NodeTest::Name(DECOY.to_owned())),
        Just(NodeTest::Wildcard),
        Just(NodeTest::Text),
    ]
}

fn axis() -> impl Strategy<Value = Axis> {
    prop_oneof![
        Just(Axis::Child),
        Just(Axis::Descendant),
        Just(Axis::Descendant),
        Just(Axis::Attribute),
        Just(Axis::Parent),
        Just(Axis::FollowingSibling),
    ]
}

fn bare_path() -> impl Strategy<Value = Path> {
    let step = (axis(), name_test()).prop_map(|(axis, test)| Step {
        axis,
        test,
        predicates: Vec::new(),
    });
    proptest::collection::vec(step, 1..3).prop_map(|steps| Path { steps })
}

fn predicate() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        bare_path().prop_map(Predicate::Exists),
        (bare_path(), 0u8..20).prop_map(|(p, v)| Predicate::Compare(
            p,
            CmpOp::Ge,
            Literal::Number(f64::from(v))
        )),
        (bare_path(), value()).prop_map(|(p, v)| Predicate::Compare(p, CmpOp::Eq, Literal::Str(v))),
        (1usize..4).prop_map(|i| Predicate::Position(PositionTest::Index(i))),
        Just(Predicate::Position(PositionTest::Last)),
        (bare_path(), "[ab1 &<é]{1,2}").prop_map(|(p, v)| Predicate::Contains(p, v)),
        (bare_path(), "[ab1 &<é]{1,2}").prop_map(|(p, v)| Predicate::StartsWith(p, v)),
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

/// A query that starts anywhere (`//`), then takes up to two more steps.
fn query() -> impl Strategy<Value = Path> {
    let step = |axis| {
        // One step in three has a predicate.
        let predicates = (0u8..3, predicate()).prop_map(|(k, p)| (k == 0).then_some(p));
        (axis, name_test(), predicates).prop_map(|(axis, test, predicates)| Step {
            axis,
            test,
            predicates: predicates.into_iter().collect(),
        })
    };
    let first = step(Just(Axis::Descendant).boxed());
    let rest = proptest::collection::vec(step(axis().boxed()), 0..2);
    (first, rest).prop_map(|(first, rest)| Path {
        steps: std::iter::once(first).chain(rest).collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn span_document_answers_as_the_parsed_document(
        root in root(),
        style in proptest::collection::vec(any::<u8>(), 1..32),
        queries in proptest::collection::vec(query(), 1..6),
    ) {
        let root = blocks_without_blocks(&root);
        let writer = |style| Writer { style, at: 0, out: String::new(), blocks: Vec::new(), offsets: Vec::new() };
        let mut reply = writer(&style);
        reply.element(TAGS[root.tag], &root, false);
        let mut resolved = writer(&style);
        resolved.element(TAGS[root.tag], &root, true);

        let span = reconstruct(&reply.out, &reply.blocks, &reply.offsets).unwrap();
        let doc = Document::parse(&resolved.out).unwrap();
        // The text is what the writer writes for the tree, whatever form
        // the reply took.
        prop_assert_eq!(span.text(), doc.to_xml());
        for q in &queries {
            let want = rendered(&doc, &eval_document(&doc, q), |n| doc.node_to_xml(n));
            let got = rendered(&span, &eval(&span, q), |n| span.xml(n).to_owned());
            prop_assert_eq!(got, want, "{}", q);
        }
    }
}

/// Whatever text `SpanDocument::parse` reads, it answers as `Document`
/// does, down to the text of a document written any which way.
#[test]
fn non_canonical_text_is_rewritten_as_the_writer_writes_it() {
    for xml in [
        "<r a='1' b = \"x&#38;y\"><!-- c --><e></e>t&#x3C;<![CDATA[<&>]]>u<f >v</f ><g/></r>",
        "<r>\n  <e k=\"&apos;\">&quot;&gt;></e>\n  <e/>\n</r>",
        "<?xml version=\"1.0\"?><r><e>a<?pi?>b</e><e> <!-- only blank --> </e></r>",
    ] {
        let span = SpanDocument::parse(xml).unwrap();
        let doc = Document::parse(xml).unwrap();
        assert_eq!(span.text(), doc.to_xml(), "{xml}");
        for n in doc.iter() {
            if doc.node(n).is_element() {
                assert_eq!(span.xml(n), doc.node_to_xml(n), "{xml}");
            }
            assert_eq!(span.string_value(n), doc.text_value(n), "{xml}");
        }
        assert_eq!(span.len(), doc.len());
    }
}
