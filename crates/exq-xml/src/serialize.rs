//! Document serialization back to XML text.

use crate::escape::push_escaped;
use crate::tree::{Document, NodeId, NodeKind};

impl Document {
    /// Serializes the whole document (no XML declaration, no pretty
    /// printing — the output is byte-stable for hashing and size metrics).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        if let Some(root) = self.root() {
            self.write_live(root, &mut out);
        }
        out
    }

    /// Serializes a single subtree.
    pub fn node_to_xml(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.write_live(id, &mut out);
        out
    }

    /// Appends a single subtree's serialization to `out`: a caller
    /// rendering many subtrees reuses one buffer. This is the one writer:
    /// every serialization goes through it, and it allocates nothing but
    /// `out`'s growth.
    pub fn write_live(&self, id: NodeId, out: &mut String) {
        // A detached node, and so its subtree, writes nothing.
        if !self.is_live(id) {
            return;
        }
        let n = self.node(id);
        match &n.kind {
            NodeKind::Text(t) => push_escaped(out, t, false),
            // An attribute serialized on its own (outside a tag) renders as
            // name="value", the same form the Element arm gives it in a tag.
            NodeKind::Attribute(name, v) => {
                out.push_str(self.tag_name(*name));
                out.push_str("=\"");
                push_escaped(out, v, true);
                out.push('"');
            }
            NodeKind::Element(tag) => {
                let tag = self.tag_name(*tag);
                out.push('<');
                out.push_str(tag);
                for &a in n.attrs() {
                    out.push(' ');
                    self.write_live(a, out);
                }
                if n.children().is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for &c in n.children() {
                        self.write_live(c, out);
                    }
                    out.push_str("</");
                    out.push_str(tag);
                    out.push('>');
                }
            }
        }
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
