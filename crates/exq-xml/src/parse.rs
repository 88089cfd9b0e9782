//! Hand-written recursive-descent XML parser.
//!
//! Supports elements, attributes, text, comments, CDATA sections, the XML
//! declaration and processing instructions (skipped), and entity references.
//! No namespaces or DTDs — the paper's databases do not use them.

use crate::escape::unescape;
use crate::tree::{Document, NodeId};
use std::borrow::Cow;
use std::fmt;

/// Parser configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Drop text nodes that consist solely of whitespace (indentation between
    /// elements). Defaults to `true`, matching data-oriented XML usage.
    pub skip_whitespace_text: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        Self {
            skip_whitespace_text: true,
        }
    }
}

/// A parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest element nesting the parser accepts. Parsing, serialization and
/// XPath evaluation all recurse once per level, and reply and block XML come
/// from the untrusted server, so depth is bounded here, where the text
/// enters; the paper's databases nest a dozen levels.
pub const MAX_DEPTH: usize = 512;

impl Document {
    /// Parses a document with default options.
    pub fn parse(input: &str) -> Result<Document, ParseError> {
        Self::parse_with(input, ParseOptions::default())
    }

    /// Parses a document with explicit options.
    pub fn parse_with(input: &str, opts: ParseOptions) -> Result<Document, ParseError> {
        let mut doc = Document::new();
        Parser::new(input, &mut doc, opts, no_hook).parse_root(None)?;
        Ok(doc)
    }

    /// Parses a document, calling `hook(doc, el)` as soon as each element
    /// `el` is complete — before anything after it in document order
    /// exists. The hook may [`discard`](Document::discard) `el` — it is the
    /// arena's tail at that moment, so its slots go to what follows — or
    /// [`detach`](Document::detach) it, and put other content in its place
    /// with [`parse_fragment_into`](Document::parse_fragment_into); since
    /// the arena only grows, or is cut, at its end, node ids stay in
    /// document order, which XPath evaluation relies on to skip its sort.
    /// The hook's error type carries both its own failures and the
    /// parser's.
    pub fn parse_with_hook<E: From<ParseError>>(
        input: &str,
        hook: impl FnMut(&mut Document, NodeId) -> Result<(), E>,
    ) -> Result<Document, E> {
        let mut doc = Document::new();
        Parser::new(input, &mut doc, ParseOptions::default(), hook).parse_root(None)?;
        Ok(doc)
    }

    /// Parses `input` (one element, with the same prolog and comments a
    /// document may carry) as the new last child of `parent`, or as the
    /// root of a rootless document when `parent` is `None`, with `hook` on
    /// the fragment's elements as in
    /// [`parse_with_hook`](Document::parse_with_hook). Nesting is counted
    /// from the document root, not from the fragment's. On error the nodes
    /// parsed so far stay in the arena; discard the document.
    pub fn parse_fragment_into<E: From<ParseError>>(
        &mut self,
        parent: Option<NodeId>,
        input: &str,
        hook: impl FnMut(&mut Document, NodeId) -> Result<(), E>,
    ) -> Result<NodeId, E> {
        Parser::new(input, self, ParseOptions::default(), hook).parse_root(parent)
    }
}

/// The hook of a plain parse: every element stays as parsed.
fn no_hook(_: &mut Document, _: NodeId) -> Result<(), ParseError> {
    Ok(())
}

struct Parser<'a, 'd, H> {
    input: &'a str,
    pos: usize,
    doc: &'d mut Document,
    opts: ParseOptions,
    /// Called on each element once it is complete.
    hook: H,
    /// Text of the element being parsed that a comment, CDATA section or
    /// PI interrupted, gathered until a tag ends it. One buffer serves every
    /// level: it is flushed before a child element is entered.
    text_buf: String,
    /// Per interned name, the start tag that last carried it as an
    /// attribute (the cursor just after that tag's name, which no two tags
    /// share and is never 0). A repeat within one start tag is one lookup,
    /// however many attributes a hostile tag piles up.
    attr_seen_in: Vec<usize>,
}

impl<'a, 'd, E, H> Parser<'a, 'd, H>
where
    E: From<ParseError>,
    H: FnMut(&mut Document, NodeId) -> Result<(), E>,
{
    fn new(input: &'a str, doc: &'d mut Document, opts: ParseOptions, hook: H) -> Self {
        Parser {
            input,
            pos: 0,
            doc,
            opts,
            hook,
            text_buf: String::new(),
            attr_seen_in: Vec::new(),
        }
    }

    /// Prolog, one element under `parent`, epilog, end of input.
    fn parse_root(&mut self, parent: Option<NodeId>) -> Result<NodeId, E> {
        if parent.is_none() && self.doc.root().is_some() {
            return Err(self.err("document already has a root element").into());
        }
        let depth = parent.map_or(0, |p| self.doc.depth(p) + 1);
        self.skip_misc()?;
        let el = self.parse_element(parent, depth)?;
        self.skip_misc()?;
        if self.pos != self.input.len() {
            return Err(self.err("trailing content after the root element").into());
        }
        Ok(el)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments, the XML declaration, PIs, and DOCTYPE.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ParseError> {
        let hay = &self.bytes()[self.pos..];
        match find_sub(hay, end.as_bytes()) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.err(format!("unterminated construct, expected `{end}`"))),
        }
    }

    /// The input from `start` to the cursor. Every run the parser cuts
    /// starts after and stops at an ASCII delimiter, which is a character
    /// boundary of the `&str` it was given: `get` checks the two ends, not
    /// the run.
    fn str_from(&self, start: usize, what: &str) -> Result<&'a str, ParseError> {
        self.input
            .get(start..self.pos)
            .ok_or_else(|| self.err(format!("{what} does not end on a character boundary")))
    }

    fn read_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric()
                || matches!(b, b'_' | b'-' | b'.' | b':' | b'#')
                || b >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        self.str_from(start, "name")
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    /// Parses the element at the cursor; `depth` is how many elements
    /// enclose it in the document.
    fn parse_element(&mut self, parent: Option<NodeId>, depth: usize) -> Result<NodeId, E> {
        if depth >= MAX_DEPTH {
            return Err(self
                .err(format!("elements nested deeper than {MAX_DEPTH}"))
                .into());
        }
        self.expect(b'<')?;
        let tag = self.read_name()?;
        let el = self.doc.add_element(parent, tag);
        if self.parse_attrs(el, tag)? {
            self.parse_content(el, tag, depth)?;
        }
        (self.hook)(self.doc, el)?;
        Ok(el)
    }

    /// Parses the rest of `<tag`'s open tag. `true` when content follows
    /// (`>`), `false` when the element closed itself (`/>`).
    fn parse_attrs(&mut self, el: NodeId, tag: &str) -> Result<bool, ParseError> {
        let this_tag = self.pos;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(true);
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(false);
                }
                Some(_) => {
                    let name_at = self.pos;
                    let name = self.read_name()?;
                    // A start tag names an attribute once: the writer would
                    // hand a second one back as ill-formed XML.
                    let name_id = self.doc.intern(name);
                    let slot = name_id.0 as usize;
                    if self.attr_seen_in.len() <= slot {
                        self.attr_seen_in.resize(slot + 1, 0);
                    }
                    if std::mem::replace(&mut self.attr_seen_in[slot], this_tag) == this_tag {
                        return Err(ParseError {
                            offset: name_at,
                            message: format!("attribute `{name}` repeated in <{tag}>"),
                        });
                    }
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    self.pos += 1;
                    let vstart = self.pos;
                    while self.peek().map(|b| b != quote).unwrap_or(false) {
                        self.pos += 1;
                    }
                    let raw = self.str_from(vstart, "attribute value")?;
                    self.expect(quote)?;
                    self.doc.push_attr(el, name_id, unescape(raw).into_owned());
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
    }

    /// Parses children and text up to and including `</tag>`.
    fn parse_content(&mut self, el: NodeId, tag: &str, depth: usize) -> Result<(), E> {
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unclosed element <{tag}>")).into()),
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.flush_text(el);
                        self.pos += 2;
                        let close = self.read_name()?;
                        if close != tag {
                            return Err(self
                                .err(format!("mismatched close tag: <{tag}> vs </{close}>"))
                                .into());
                        }
                        self.skip_ws();
                        self.expect(b'>')?;
                        return Ok(());
                    } else if self.starts_with("<!--") {
                        self.skip_until("-->")?;
                    } else if self.starts_with("<![CDATA[") {
                        self.pos += "<![CDATA[".len();
                        let start = self.pos;
                        let end = find_sub(&self.bytes()[start..], b"]]>")
                            .ok_or_else(|| self.err("unterminated CDATA section"))?;
                        self.pos += end;
                        let raw = self.str_from(start, "CDATA")?;
                        self.text_buf.push_str(raw);
                        self.pos += 3;
                    } else if self.starts_with("<?") {
                        self.skip_until("?>")?;
                    } else {
                        self.flush_text(el);
                        self.parse_element(Some(el), depth + 1)?;
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    let run = self.bytes()[start..].iter().position(|&b| b == b'<');
                    self.pos = run.map_or(self.input.len(), |i| start + i);
                    let text = unescape(self.str_from(start, "text")?);
                    // A run that stops at a tag is the whole text node; only
                    // `<!--`, `<![CDATA[` and `<?` carry it on.
                    if self.text_buf.is_empty()
                        && !self.starts_with("<!")
                        && !self.starts_with("<?")
                    {
                        self.add_text(el, text);
                    } else {
                        self.text_buf.push_str(&text);
                    }
                }
            }
        }
    }

    fn flush_text(&mut self, el: NodeId) {
        if self.text_buf.is_empty() {
            return;
        }
        let mut buf = std::mem::take(&mut self.text_buf);
        self.add_text(el, Cow::Borrowed(&buf));
        buf.clear();
        self.text_buf = buf;
    }

    fn add_text(&mut self, el: NodeId, text: Cow<'_, str>) {
        if !self.opts.skip_whitespace_text || !text.chars().all(char::is_whitespace) {
            self.doc.push_text(el, text.into_owned());
        }
    }
}

fn find_sub(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Document;

    #[test]
    fn minimal() {
        let d = Document::parse("<a/>").unwrap();
        assert_eq!(d.element_name(d.root().unwrap()), Some("a"));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn nested_with_attrs_and_text() {
        let d = Document::parse(r#"<r><p id="1">hi <b>there</b></p></r>"#).unwrap();
        let root = d.root().unwrap();
        assert_eq!(d.text_value(root), "hi there");
        let p = d.node(root).children()[0];
        assert_eq!(d.node(p).attrs().len(), 1);
    }

    #[test]
    fn declaration_comment_doctype() {
        let src = "<?xml version=\"1.0\"?><!DOCTYPE r><!-- c --><r>x</r><!-- after -->";
        let d = Document::parse(src).unwrap();
        assert_eq!(d.text_value(d.root().unwrap()), "x");
    }

    #[test]
    fn cdata_and_entities() {
        let d = Document::parse("<r>a &amp; b <![CDATA[<raw> & stuff]]></r>").unwrap();
        assert_eq!(d.text_value(d.root().unwrap()), "a & b <raw> & stuff");
    }

    #[test]
    fn inner_comment_splits_nothing() {
        let d = Document::parse("<r>ab<!-- x -->cd</r>").unwrap();
        assert_eq!(d.text_value(d.root().unwrap()), "abcd");
    }

    /// A run that stops at a tag goes straight to the arena; one that a
    /// comment, CDATA section or PI interrupts is still one text node.
    #[test]
    fn text_is_one_node_per_run_between_tags() {
        let d = Document::parse(
            "<r>a&amp;b<x/>c<!-- 1 -->d<![CDATA[<e>]]><?pi?>f<y> <!-- 2 --> </y>g<!-- 3 --></r>",
        )
        .unwrap();
        let root = d.root().unwrap();
        let kids: Vec<String> = d
            .node(root)
            .children()
            .iter()
            .map(|&c| {
                d.element_name(c)
                    .map_or(d.text_value(c), |n| format!("<{n}>"))
            })
            .collect();
        assert_eq!(kids, ["a&b", "<x>", "cd<e>f", "<y>", "g"]);
        // Whitespace on both sides of a comment is one whitespace-only run.
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn whitespace_skipping_default() {
        let d = Document::parse("<r>\n  <a>1</a>\n  <b>2</b>\n</r>").unwrap();
        let root = d.root().unwrap();
        assert_eq!(d.node(root).children().len(), 2);
    }

    #[test]
    fn whitespace_kept_on_request() {
        let opts = ParseOptions {
            skip_whitespace_text: false,
        };
        let d = Document::parse_with("<r>\n  <a>1</a>\n</r>", opts).unwrap();
        let root = d.root().unwrap();
        assert_eq!(d.node(root).children().len(), 3);
    }

    #[test]
    fn errors() {
        assert!(Document::parse("<a>").is_err());
        assert!(Document::parse("<a></b>").is_err());
        assert!(Document::parse("<a x=1/>").is_err());
        assert!(Document::parse("<a/><b/>").is_err());
        assert!(Document::parse("").is_err());
        assert!(Document::parse("just text").is_err());
    }

    #[test]
    fn error_reports_offset() {
        let e = Document::parse("<aa></bb>").unwrap_err();
        assert!(e.offset > 0);
        assert!(e.to_string().contains("mismatched"));
    }

    #[test]
    fn single_quoted_attrs() {
        let d = Document::parse("<a x='1' y=\"2\"/>").unwrap();
        let r = d.root().unwrap();
        assert_eq!(d.node(r).attrs().len(), 2);
        assert_eq!(d.text_value(d.node(r).attrs()[0]), "1");
    }

    #[test]
    fn attr_entities_unescaped() {
        let d = Document::parse(r#"<a x="1 &lt; 2"/>"#).unwrap();
        let r = d.root().unwrap();
        assert_eq!(d.text_value(d.node(r).attrs()[0]), "1 < 2");
    }

    /// Hostile input: `to_xml` would write the ill-formed tag straight back.
    #[test]
    fn a_repeated_attribute_name_is_a_typed_error_naming_it() {
        let e = Document::parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert_eq!(e.message, "attribute `x` repeated in <a>");
        assert_eq!(e.offset, 9);
        // Whatever sits between them, whatever the quotes, however deep.
        for src in [
            r#"<r><a x="1" y="2" x='3'>t</a></r>"#,
            "<r><b k=\"v\"/><a é=\"1\"\n é = \"1\"></a></r>",
        ] {
            let e = Document::parse(src).unwrap_err();
            assert!(e.message.contains("repeated in <a>"), "{e}");
        }
        let mut d = Document::parse("<r/>").unwrap();
        let root = d.root();
        let e = d
            .parse_fragment_into(root, r#"<b><c id="1" id="1"/></b>"#, no_hook)
            .unwrap_err();
        assert_eq!(e.message, "attribute `id` repeated in <c>");
        // A tag with a hundred thousand attributes is checked in one pass.
        let many: String = (0..100_000).map(|i| format!(" a{i}=\"\"")).collect();
        let d = Document::parse(&format!("<r{many}/>")).unwrap();
        assert_eq!(d.len(), 100_001);
        let e = Document::parse(&format!("<r{many} a99999=''/>")).unwrap_err();
        assert_eq!(e.message, "attribute `a99999` repeated in <r>");
        // The same name on two elements, or as a tag and an attribute (they
        // share the interner), is no repeat.
        let ok = r#"<x x="1"><x x="2"/><y x="3"/></x>"#;
        assert_eq!(Document::parse(ok).unwrap().to_xml(), ok);
    }

    fn nested(levels: usize) -> String {
        "<a>".repeat(levels) + &"</a>".repeat(levels)
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let d = Document::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(d.height(), MAX_DEPTH - 1);
        let e = Document::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
    }

    /// Hostile input: the reply and block plaintext come from the untrusted
    /// server. Uncapped, this overflowed the stack and aborted the process.
    #[test]
    fn hundred_thousand_levels_on_a_small_stack_is_an_error_not_an_abort() {
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let open_only = "<a>".repeat(100_000);
                let mut into = Document::parse("<r/>").unwrap();
                let root = into.root();
                (
                    Document::parse(&nested(100_000)),
                    Document::parse(&open_only),
                    into.parse_fragment_into(root, &nested(100_000), no_hook),
                )
            })
            .unwrap()
            .join()
            .expect("parser must not overflow its stack");
        assert!(outcome.0.unwrap_err().message.contains("nested deeper"));
        assert!(outcome.1.unwrap_err().message.contains("nested deeper"));
        assert!(outcome.2.unwrap_err().message.contains("nested deeper"));
    }

    #[test]
    fn fragment_depth_counts_from_the_document_root() {
        let mut d = Document::parse(&nested(MAX_DEPTH - 2)).unwrap();
        let deepest = d.iter().last().unwrap();
        assert_eq!(d.depth(deepest), MAX_DEPTH - 3);
        // Two more levels fit under the deepest element; three do not.
        d.parse_fragment_into(Some(deepest), &nested(2), no_hook)
            .unwrap();
        let e = d
            .parse_fragment_into(Some(deepest), &nested(3), no_hook)
            .unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
    }

    #[test]
    fn fragment_becomes_last_child_or_root() {
        let mut d = Document::parse("<r><a/></r>").unwrap();
        let root = d.root().unwrap();
        let b = d
            .parse_fragment_into(
                Some(root),
                "<?xml version=\"1.0\"?><b k=\"v\">t</b><!-- c -->",
                no_hook,
            )
            .unwrap();
        assert_eq!(d.node(b).parent(), Some(root));
        assert_eq!(d.to_xml(), "<r><a/><b k=\"v\">t</b></r>");
        // A rooted document takes no second root; a rootless one takes one.
        assert!(d.parse_fragment_into(None, "<x/>", no_hook).is_err());
        assert!(d
            .parse_fragment_into(Some(root), "<x/><y/>", no_hook)
            .is_err());
        let mut empty = Document::new();
        empty.parse_fragment_into(None, "<x/>", no_hook).unwrap();
        assert_eq!(empty.to_xml(), "<x/>");
    }

    #[test]
    fn hook_replaces_elements_in_document_order() {
        let src = "<r><a/><hole n=\"1\"/><b><hole n=\"2\"/>x</b><hole n=\"3\">junk</hole></r>";
        let mut seen = Vec::new();
        let d = Document::parse_with_hook(src, |doc, el| {
            if doc.element_name(el) != Some("hole") {
                return Ok(());
            }
            let n = doc.text_value(doc.node(el).attrs()[0]);
            seen.push(n.clone());
            let parent = doc.node(el).parent();
            doc.detach(el);
            if n != "3" {
                // A fragment's elements go to the fragment's own hook: here
                // none, so a `hole` in it is an ordinary element.
                doc.parse_fragment_into(parent, &format!("<f{n}><hole/></f{n}>"), no_hook)?;
            }
            Ok::<(), ParseError>(())
        })
        .unwrap();
        assert_eq!(seen, ["1", "2", "3"]);
        assert_eq!(
            d.to_xml(),
            "<r><a/><f1><hole/></f1><b><f2><hole/></f2>x</b></r>"
        );
        // Arena order is still document order: XPath evaluation sorts by id.
        let order: Vec<NodeId> = d.iter().collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn hook_sees_every_element_innermost_first_and_its_error_stops_the_parse() {
        let mut order = Vec::new();
        Document::parse_with_hook("<r><a><b/></a><c/></r>", |doc, el| {
            order.push(doc.element_name(el).unwrap().to_owned());
            Ok::<(), ParseError>(())
        })
        .unwrap();
        assert_eq!(order, ["b", "a", "c", "r"]);

        let mut d = Document::parse("<r/>").unwrap();
        let root = d.root();
        let r = d.parse_fragment_into(root, "<x><hole/><a/></x>", |doc, el| {
            match doc.element_name(el) {
                Some("hole") => Err(ParseError {
                    offset: 0,
                    message: "refused".into(),
                }),
                _ => Ok(()),
            }
        });
        assert_eq!(r.unwrap_err().message, "refused");
    }
}
