//! Serialization back to XML text: one writer over any [`TreeView`].

use crate::escape::push_escaped;
use crate::tree::{Document, NodeId};
use crate::view::{NodeType, TreeView};

/// Appends the serialization of `n` and its subtree to `out`: no XML
/// declaration, no pretty printing, so the output is byte-stable for
/// hashing and size metrics. An attribute on its own is `name="value"`,
/// the form it has in its tag, and an element with nothing written inside
/// it is `<x/>`. Before each element closes, `last_child(element, out)`
/// may append content, which then stands as the element's last child.
/// This is the one writer of canonical XML, and it allocates nothing but
/// `out`'s growth.
pub fn write_xml<T: TreeView>(
    doc: &T,
    n: NodeId,
    out: &mut String,
    last_child: &mut impl FnMut(NodeId, &mut String),
) {
    match doc.node_type(n) {
        NodeType::Text => push_escaped(out, &doc.string_value(n), false),
        NodeType::Attribute(name) => {
            out.push_str(doc.name(name));
            out.push_str("=\"");
            push_escaped(out, &doc.string_value(n), true);
            out.push('"');
        }
        NodeType::Element(tag) => {
            let tag = doc.name(tag);
            out.push('<');
            out.push_str(tag);
            doc.for_each_attr(n, |a| {
                out.push(' ');
                write_xml(doc, a, out, last_child);
            });
            out.push('>');
            let open = out.len();
            doc.for_each_child(n, |c| write_xml(doc, c, out, last_child));
            last_child(n, out);
            if out.len() == open {
                out.pop();
                out.push_str("/>");
            } else {
                out.push_str("</");
                out.push_str(tag);
                out.push('>');
            }
        }
    }
}

impl Document {
    /// Serializes the whole document with [`write_xml`].
    pub fn to_xml(&self) -> String {
        self.root()
            .map_or_else(String::new, |root| self.node_to_xml(root))
    }

    /// Serializes a single subtree with [`write_xml`]; a detached node, and
    /// so its subtree, writes nothing.
    pub fn node_to_xml(&self, id: NodeId) -> String {
        let mut out = String::new();
        if self.is_live(id) {
            write_xml(self, id, &mut out, &mut |_, _| {});
        }
        out
    }

    /// Size in bytes of the serialized document — the metric used for the
    /// paper's size-based attack and for transmission-cost accounting.
    pub fn serialized_size(&self) -> usize {
        self.to_xml().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escape::{escape_attr, escape_text};
    use crate::tree::NodeKind;
    use crate::SpanDocument;

    /// The serializer as it was before the predicate writer (a `Vec` of live
    /// children per element, a `Cow` per value), kept as the reference.
    fn reference_write(d: &Document, id: NodeId, out: &mut String) {
        let n = d.node(id);
        if n.detached {
            return;
        }
        match &n.kind {
            NodeKind::Text(t) => out.push_str(&escape_text(t)),
            NodeKind::Attribute(name, v) => {
                out.push_str(&format!("{}=\"{}\"", d.tag_name(*name), escape_attr(v)));
            }
            NodeKind::Element(tag) => {
                out.push('<');
                out.push_str(d.tag_name(*tag));
                for &a in n.attrs() {
                    if !d.node(a).detached {
                        out.push(' ');
                        reference_write(d, a, out);
                    }
                }
                let live: Vec<NodeId> = n
                    .children()
                    .iter()
                    .copied()
                    .filter(|&c| !d.node(c).detached)
                    .collect();
                if live.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in live {
                        reference_write(d, c, out);
                    }
                    out.push_str(&format!("</{}>", d.tag_name(*tag)));
                }
            }
        }
    }

    const AWKWARD: &str = "<r a=\"1 &lt; 2 &amp; &quot;q&quot;\" b=\"\"><e/><e k=\"v\"/>\
        <t>x &amp; y &lt; z &gt; w \"q\"</t><n><m><e/></m>tail</n><e></e></r>";

    #[test]
    fn writer_equals_reference_with_escapes_empties_and_detached_nodes() {
        let mut d = Document::parse(AWKWARD).unwrap();
        let all: Vec<NodeId> = d.iter().collect();
        let check = |d: &Document| {
            let mut want = String::new();
            reference_write(d, d.root().unwrap(), &mut want);
            assert_eq!(d.to_xml(), want);
            for &n in &all {
                let mut want = String::new();
                reference_write(d, n, &mut want);
                assert_eq!(d.node_to_xml(n), want, "subtree at {n}");
            }
        };
        check(&d);
        // Detach, in turn: an attribute, a text leaf, an only child (its
        // parent becomes an empty element), and an inner element.
        let root = d.root().unwrap();
        let attr = d.node(root).attrs()[0];
        let t = d.elements_by_tag("t")[0];
        let text = d.node(t).children()[0];
        let m = d.elements_by_tag("m")[0];
        let only_child = d.node(m).children()[0];
        for victim in [attr, text, only_child, m] {
            d.detach(victim);
            check(&d);
        }
        assert!(d.to_xml().contains("<t/>"));
    }

    #[test]
    fn a_last_child_goes_in_before_the_close_tag() {
        let d = Document::parse("<r a=\"1\"><e/><t>x</t></r>").unwrap();
        let mut out = String::new();
        write_xml(&d, d.root().unwrap(), &mut out, &mut |e, out| {
            if d.element_name(e) != Some("t") {
                out.push_str("<d>z</d>");
            }
        });
        assert_eq!(out, "<r a=\"1\"><e><d>z</d></e><t>x</t><d>z</d></r>");
    }

    #[test]
    fn a_span_document_writes_as_its_text() {
        let span = SpanDocument::parse(AWKWARD).unwrap();
        let mut out = String::new();
        write_xml(&span, span.root().unwrap(), &mut out, &mut |_, _| {});
        assert_eq!(out, span.text());
        assert_eq!(out, Document::parse(AWKWARD).unwrap().to_xml());
    }

    #[test]
    fn roundtrip_simple() {
        let src = r#"<r a="1"><x>hi</x><y/></r>"#;
        let d = Document::parse(src).unwrap();
        assert_eq!(d.to_xml(), src);
    }

    #[test]
    fn escaping_roundtrip() {
        let src = "<r a=\"1 &lt; 2\">x &amp; y</r>";
        let d = Document::parse(src).unwrap();
        assert_eq!(d.to_xml(), src);
    }

    #[test]
    fn detached_nodes_skipped() {
        let mut d = Document::parse("<r><a>1</a><b>2</b></r>").unwrap();
        let root = d.root().unwrap();
        let a = d.node(root).children()[0];
        d.detach(a);
        assert_eq!(d.to_xml(), "<r><b>2</b></r>");
    }

    #[test]
    fn empty_document_serializes_empty() {
        let d = Document::new();
        assert_eq!(d.to_xml(), "");
        assert_eq!(d.serialized_size(), 0);
    }

    #[test]
    fn subtree_serialization() {
        let d = Document::parse("<r><a k=\"v\">t</a></r>").unwrap();
        let a = d.node(d.root().unwrap()).children()[0];
        assert_eq!(d.node_to_xml(a), "<a k=\"v\">t</a>");
    }

    #[test]
    fn parse_serialize_parse_is_stable() {
        let src = "<r><p id=\"1\"><n>Betty</n><s>12&#65;3</s></p><p id=\"2\"/></r>";
        let d1 = Document::parse(src).unwrap();
        let s1 = d1.to_xml();
        let d2 = Document::parse(&s1).unwrap();
        assert_eq!(d2.to_xml(), s1);
    }
}
