//! Hand-written recursive-descent XML parser.
//!
//! Supports elements, attributes, text, comments, CDATA sections, the XML
//! declaration and processing instructions (skipped), and entity references.
//! No namespaces or DTDs — the paper's databases do not use them.

use crate::escape::unescape;
use crate::tree::{same_name, Document, NodeId, TagId};
use std::borrow::Cow;
use std::fmt;

/// Parser configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Drop text nodes that consist solely of XML whitespace (space, tab,
    /// CR, LF: indentation between elements). Defaults to `true`, matching
    /// data-oriented XML usage.
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

/// An element's start tag as the parser read it, before any node exists.
#[derive(Debug)]
pub struct StartTag<'t, 'a> {
    /// Where the element would go: under this element, or in the root slot.
    pub parent: Option<NodeId>,
    /// How many elements enclose it in the document.
    pub depth: usize,
    /// The element's name, interned in the document parsed into.
    pub name: TagId,
    /// Attribute names and unescaped values, in document order.
    pub attrs: &'t [(TagId, Cow<'a, str>)],
}

/// A start-tag hook's answer for the element it was shown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Build the element, its attributes and its content.
    Keep,
    /// Build nothing of it: its content is checked exactly as a kept
    /// element's is (nesting cap, tag matching, repeated attribute names),
    /// and no hook is asked about anything inside it.
    Skip,
}

impl Document {
    /// Parses a document with default options.
    pub fn parse(input: &str) -> Result<Document, ParseError> {
        Self::parse_with(input, ParseOptions::default())
    }

    /// Parses a document with explicit options.
    pub fn parse_with(input: &str, opts: ParseOptions) -> Result<Document, ParseError> {
        let mut doc = Document::new();
        Parser::new(input, &mut doc, opts, keep_all).parse_root(None, 0)?;
        Ok(doc)
    }

    /// Parses `input` (one element, with the same prolog and comments a
    /// document may carry) as the new last child of `parent`, or as the
    /// root of a rootless document when `parent` is `None`; `depth` is the
    /// depth its root element takes (0 at the root, the parent's plus one
    /// otherwise), from which nesting is capped.
    ///
    /// `hook` is asked about each element at its start tag, outermost
    /// first. It may add content where the element would go — parse a
    /// fragment in at `tag.parent` and `tag.depth` — and then answer
    /// [`Verdict::Skip`]: since the arena only grows at its end, node ids
    /// stay in document order, which XPath evaluation relies on to skip its
    /// sort. The hook's error type carries both its own failures and the
    /// parser's. Returns the fragment's root, `None` when the hook skipped
    /// it. On error the nodes parsed so far stay in the arena; drop or
    /// [`clear`](Document::clear) the document.
    pub fn parse_fragment_into<E: From<ParseError>>(
        &mut self,
        parent: Option<NodeId>,
        depth: usize,
        input: &str,
        hook: impl FnMut(&mut Document, &StartTag<'_, '_>) -> Result<Verdict, E>,
    ) -> Result<Option<NodeId>, E> {
        debug_assert_eq!(depth, parent.map_or(0, |p| self.depth(p) + 1));
        Parser::new(input, self, ParseOptions::default(), hook).parse_root(parent, depth)
    }
}

/// The hook of a plain parse: every element is built.
fn keep_all(_: &mut Document, _: &StartTag<'_, '_>) -> Result<Verdict, ParseError> {
    Ok(Verdict::Keep)
}

/// A byte that continues a name.
fn is_name_byte(b: u8) -> bool {
    NAME_BYTES[usize::from(b)]
}

/// [`is_name_byte`] as one load: names are the bytes the parser reads most.
const NAME_BYTES: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] =
            c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':' | b'#') || c >= 0x80;
        b += 1;
    }
    table
};

/// XML's whitespace (the `S` production): not every Unicode space.
fn is_xml_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

struct Parser<'a, 'd, H> {
    input: &'a str,
    pos: usize,
    doc: &'d mut Document,
    opts: ParseOptions,
    /// Asked about each element outside a skipped one, at its start tag.
    hook: H,
    /// Text of the element being parsed that a comment, CDATA section or
    /// PI interrupted, gathered until a tag ends it. One buffer serves every
    /// level: it is flushed before a child element is entered.
    text_buf: String,
    /// The start tag being read: its attributes, emptied again before the
    /// element's content is parsed.
    attrs: Vec<(TagId, Cow<'a, str>)>,
    /// Per interned name, the start tag that last carried it as an
    /// attribute (the cursor just after that tag's name, which no two tags
    /// share and is never 0). A repeat within one start tag is one lookup,
    /// however many attributes a hostile tag piles up.
    attr_seen_in: Vec<usize>,
}

impl<'a, 'd, E, H> Parser<'a, 'd, H>
where
    E: From<ParseError>,
    H: FnMut(&mut Document, &StartTag<'_, 'a>) -> Result<Verdict, E>,
{
    fn new(input: &'a str, doc: &'d mut Document, opts: ParseOptions, hook: H) -> Self {
        Parser {
            input,
            pos: 0,
            doc,
            opts,
            hook,
            text_buf: String::new(),
            attrs: Vec::new(),
            attr_seen_in: Vec::new(),
        }
    }

    /// Prolog, one element under `parent` at `depth`, epilog, end of input.
    fn parse_root(&mut self, parent: Option<NodeId>, depth: usize) -> Result<Option<NodeId>, E> {
        // What a later `clear` may keep is bounded by the input parsed.
        self.doc.spares.parsed += self.input.len();
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
        while self.peek().is_some_and(is_xml_space) {
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
        let rest = &self.bytes()[start..];
        self.pos += rest
            .iter()
            .position(|&b| !is_name_byte(b))
            .unwrap_or(rest.len());
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

    /// Parses the element at the cursor into the place `parent` names,
    /// `depth` elements deep, unless the hook skips it.
    fn parse_element(&mut self, parent: Option<NodeId>, depth: usize) -> Result<Option<NodeId>, E> {
        let (tag, name, has_content) = self.start_tag(depth)?;
        let start = StartTag {
            parent,
            depth,
            name,
            attrs: &self.attrs,
        };
        if (self.hook)(self.doc, &start)? == Verdict::Skip {
            self.attrs.clear();
            if has_content {
                self.parse_content(None, tag, depth)?;
            }
            return Ok(None);
        }
        if parent.is_none() && self.doc.root().is_some() {
            return Err(self.err("document already has a root element").into());
        }
        let el = self.doc.push_element(parent, name);
        for (name, value) in self.attrs.drain(..) {
            self.doc.push_attr(el, name, value);
        }
        if has_content {
            self.parse_content(Some(el), tag, depth)?;
        }
        Ok(Some(el))
    }

    /// Reads the start tag at the cursor into `attrs`: its name, interned
    /// before any attribute's, and whether content follows (`>`) or the
    /// element closed itself (`/>`).
    fn start_tag(&mut self, depth: usize) -> Result<(&'a str, TagId, bool), ParseError> {
        if depth >= MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
        }
        self.expect(b'<')?;
        let tag = self.read_name()?;
        let name = self.doc.intern(tag);
        let this_tag = self.pos;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((tag, name, true));
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok((tag, name, false));
                }
                Some(_) => {
                    let name_at = self.pos;
                    let attr = self.read_name()?;
                    // A start tag names an attribute once: the writer would
                    // hand a second one back as ill-formed XML.
                    let name_id = self.doc.intern(attr);
                    let slot = name_id.0 as usize;
                    if self.attr_seen_in.len() <= slot {
                        self.attr_seen_in.resize(slot + 1, 0);
                    }
                    if std::mem::replace(&mut self.attr_seen_in[slot], this_tag) == this_tag {
                        return Err(ParseError {
                            offset: name_at,
                            message: format!("attribute `{attr}` repeated in <{tag}>"),
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
                    while self.peek().is_some_and(|b| b != quote) {
                        self.pos += 1;
                    }
                    let raw = self.str_from(vstart, "attribute value")?;
                    self.expect(quote)?;
                    self.attrs.push((name_id, unescape(raw)));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
    }

    /// Parses children and text up to and including `</tag>`: into `el`,
    /// or, when `el` is `None`, into nothing — a skipped element's content,
    /// checked but neither built nor shown to the hook.
    fn parse_content(&mut self, el: Option<NodeId>, tag: &str, depth: usize) -> Result<(), E> {
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unclosed element <{tag}>")).into()),
                Some(b'<') => {
                    if self.starts_with("</") {
                        if let Some(el) = el {
                            self.flush_text(el);
                        }
                        self.pos += 2;
                        return Ok(self.close_tag(tag)?);
                    } else if self.starts_with("<!--") {
                        self.skip_until("-->")?;
                    } else if self.starts_with("<![CDATA[") {
                        self.pos += "<![CDATA[".len();
                        let start = self.pos;
                        let end = find_sub(&self.bytes()[start..], b"]]>")
                            .ok_or_else(|| self.err("unterminated CDATA section"))?;
                        self.pos += end;
                        let raw = self.str_from(start, "CDATA")?;
                        if el.is_some() {
                            self.text_buf.push_str(raw);
                        }
                        self.pos += 3;
                    } else if self.starts_with("<?") {
                        self.skip_until("?>")?;
                    } else if let Some(el) = el {
                        self.flush_text(el);
                        self.parse_element(Some(el), depth + 1)?;
                    } else {
                        self.skip_element(depth + 1)?;
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    let run = self.bytes()[start..].iter().position(|&b| b == b'<');
                    self.pos = run.map_or(self.input.len(), |i| start + i);
                    let Some(el) = el else { continue };
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

    /// An element inside a skipped one: read and checked, never built.
    fn skip_element(&mut self, depth: usize) -> Result<(), E> {
        let (tag, _, has_content) = self.start_tag(depth)?;
        self.attrs.clear();
        if has_content {
            self.parse_content(None, tag, depth)?;
        }
        Ok(())
    }

    /// Reads the rest of a close tag (after `</`), which must name `tag`.
    fn close_tag(&mut self, tag: &str) -> Result<(), ParseError> {
        let rest = &self.bytes()[self.pos..];
        let same = rest
            .get(..tag.len())
            .is_some_and(|r| same_name(r, tag.as_bytes()))
            && !rest.get(tag.len()).copied().is_some_and(is_name_byte);
        if same {
            self.pos += tag.len();
        } else {
            let close = self.read_name()?;
            return Err(self.err(format!("mismatched close tag: <{tag}> vs </{close}>")));
        }
        self.skip_ws();
        self.expect(b'>')
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
        if !self.opts.skip_whitespace_text || !text.bytes().all(is_xml_space) {
            self.doc.push_text(el, text);
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

    /// Whitespace is XML's four bytes, not Unicode's spaces: a value that is
    /// a no-break space is data, and used to vanish from the parse.
    #[test]
    fn whitespace_is_only_space_tab_cr_lf() {
        for text in [
            "\u{a0}",
            "\u{2003}",
            "\u{3000}",
            " \u{a0}\n",
            "\u{2003}\u{3000}",
        ] {
            let xml = format!("<a>{text}</a>");
            let d = Document::parse(&xml).unwrap();
            assert_eq!(d.to_xml(), xml);
            assert_eq!(d.text_value(d.root().unwrap()), text);
        }
        let d = Document::parse("<a> \t\r\n<b/>\n</a>").unwrap();
        assert_eq!(d.to_xml(), "<a><b/></a>");
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

    /// A close tag is matched byte for byte against its start tag's name,
    /// which must end where the name does.
    #[test]
    fn close_tag_matches_the_whole_name() {
        for ok in ["<a></a>", "<a></a \n>", "<é-1></é-1>", "<a><ab></ab></a>"] {
            assert!(Document::parse(ok).is_ok(), "{ok}");
        }
        for (bad, message, offset) in [
            ("<ab></a>", "mismatched close tag: <ab> vs </a>", 7),
            ("<a></ab>", "mismatched close tag: <a> vs </ab>", 7),
            ("<a></b>", "mismatched close tag: <a> vs </b>", 6),
            ("<a></>", "expected a name", 5),
            ("<a></a", "expected `>`", 6),
            ("<a></a x>", "expected `>`", 7),
        ] {
            let e = Document::parse(bad).unwrap_err();
            assert_eq!((e.message.as_str(), e.offset), (message, offset), "{bad}");
        }
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
            .parse_fragment_into(root, 1, r#"<b><c id="1" id="1"/></b>"#, keep_all)
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

    /// Skips the root element.
    fn skip_all(_: &mut Document, _: &StartTag<'_, '_>) -> Result<Verdict, ParseError> {
        Ok(Verdict::Skip)
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
                    into.parse_fragment_into(root, 1, &nested(100_000), keep_all),
                    Document::new().parse_fragment_into(None, 0, &nested(100_000), skip_all),
                )
            })
            .unwrap()
            .join()
            .expect("parser must not overflow its stack");
        assert!(outcome.0.unwrap_err().message.contains("nested deeper"));
        assert!(outcome.1.unwrap_err().message.contains("nested deeper"));
        assert!(outcome.2.unwrap_err().message.contains("nested deeper"));
        assert!(outcome.3.unwrap_err().message.contains("nested deeper"));
    }

    #[test]
    fn fragment_depth_counts_from_the_document_root() {
        let mut d = Document::parse(&nested(MAX_DEPTH - 2)).unwrap();
        let deepest = d.iter().last().unwrap();
        assert_eq!(d.depth(deepest), MAX_DEPTH - 3);
        // Two more levels fit under the deepest element; three do not.
        d.parse_fragment_into(Some(deepest), MAX_DEPTH - 2, &nested(2), keep_all)
            .unwrap();
        let e = d
            .parse_fragment_into(Some(deepest), MAX_DEPTH - 2, &nested(3), keep_all)
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
                1,
                "<?xml version=\"1.0\"?><b k=\"v\">t</b><!-- c -->",
                keep_all,
            )
            .unwrap()
            .unwrap();
        assert_eq!(d.node(b).parent(), Some(root));
        assert_eq!(d.to_xml(), "<r><a/><b k=\"v\">t</b></r>");
        // A rooted document takes no second root; a rootless one takes one.
        assert!(d.parse_fragment_into(None, 0, "<x/>", keep_all).is_err());
        assert!(d
            .parse_fragment_into(Some(root), 1, "<x/><y/>", keep_all)
            .is_err());
        let mut empty = Document::new();
        empty
            .parse_fragment_into(None, 0, "<x/>", keep_all)
            .unwrap();
        assert_eq!(empty.to_xml(), "<x/>");
    }

    /// The value of attribute `n` on a start tag.
    fn attr_n<'t>(doc: &Document, tag: &'t StartTag<'_, '_>) -> Option<&'t str> {
        let n = doc.tag_id("n")?;
        let found = tag.attrs.iter().find(|(name, _)| *name == n);
        found.map(|(_, v)| v.as_ref())
    }

    #[test]
    fn hook_splices_at_the_start_tag_and_skips_in_document_order() {
        let src = "<r><a/><hole n=\"1\"/><b><hole n=\"2\"/>x</b><hole n=\"3\">junk</hole></r>";
        let mut seen = Vec::new();
        let hole = |doc: &mut Document, tag: &StartTag<'_, '_>| {
            if doc.tag_name(tag.name) != "hole" {
                return Ok(Verdict::Keep);
            }
            let n = attr_n(doc, tag).unwrap().to_owned();
            if n != "3" {
                // A fragment's elements go to the fragment's own hook: here
                // none, so a `hole` in it is an ordinary element.
                let xml = format!("<f{n}><hole/></f{n}>");
                doc.parse_fragment_into(tag.parent, tag.depth, &xml, keep_all)?;
            }
            seen.push(n);
            Ok::<_, ParseError>(Verdict::Skip)
        };
        let mut d = Document::new();
        d.parse_fragment_into(None, 0, src, hole).unwrap();
        assert_eq!(seen, ["1", "2", "3"]);
        assert_eq!(
            d.to_xml(),
            "<r><a/><f1><hole/></f1><b><f2><hole/></f2>x</b></r>"
        );
        // Arena order is still document order: XPath evaluation sorts by
        // id. And nothing was built only to be thrown away.
        let order: Vec<NodeId> = d.iter().collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(d.arena_len(), d.len());
    }

    #[test]
    fn hook_sees_start_tags_outermost_first_and_its_error_stops_the_parse() {
        let mut order = Vec::new();
        Document::new()
            .parse_fragment_into(None, 0, "<r><a x=\"1\"><b/></a><c/></r>", |doc, tag| {
                let attrs: Vec<_> = tag
                    .attrs
                    .iter()
                    .map(|(n, v)| (n.0, v.to_string()))
                    .collect();
                let name = doc.tag_name(tag.name).to_owned();
                order.push((name, tag.parent.map(|p| p.0), tag.depth, attrs));
                Ok::<_, ParseError>(Verdict::Keep)
            })
            .unwrap();
        assert_eq!(
            order,
            [
                ("r".into(), None, 0, vec![]),
                ("a".into(), Some(0), 1, vec![(2, "1".to_owned())]),
                ("b".into(), Some(1), 2, vec![]),
                ("c".into(), Some(0), 1, vec![]),
            ]
        );

        let mut d = Document::parse("<r/>").unwrap();
        let root = d.root();
        let r = d.parse_fragment_into(root, 1, "<x><hole/><a/></x>", |doc, tag| {
            match doc.tag_name(tag.name) {
                "hole" => Err(ParseError {
                    offset: 0,
                    message: "refused".into(),
                }),
                _ => Ok(Verdict::Keep),
            }
        });
        assert_eq!(r.unwrap_err().message, "refused");
    }

    /// `Skip` builds nothing of the element and asks nothing about what is
    /// inside it; what follows it is asked about as usual.
    #[test]
    fn skip_builds_nothing_and_asks_nothing_inside() {
        let src = "<r><a/><b x=\"1\"><c/>text<![CDATA[t]]><d><c k=\"&amp;\"/></d></b>tail<e/></r>";
        let mut asked = Vec::new();
        let mut d = Document::new();
        d.parse_fragment_into(None, 0, src, |doc, tag| {
            let name = doc.tag_name(tag.name).to_owned();
            let verdict = if name == "b" {
                Verdict::Skip
            } else {
                Verdict::Keep
            };
            asked.push(name);
            Ok::<_, ParseError>(verdict)
        })
        .unwrap();
        assert_eq!(asked, ["r", "a", "b", "e"]);
        assert_eq!(d.to_xml(), "<r><a/>tail<e/></r>");
        assert_eq!(d.arena_len(), d.len());
        // A skipped root leaves a document with no root and no node.
        let mut d = Document::new();
        assert_eq!(d.parse_fragment_into(None, 0, src, skip_all), Ok(None));
        assert_eq!((d.root(), d.arena_len()), (None, 0));
        // A hook that fills the root slot and then keeps its element is an
        // error, not a second root.
        let mut d = Document::new();
        let e = d
            .parse_fragment_into(None, 0, "<r/>", |doc, tag| {
                doc.parse_fragment_into(tag.parent, tag.depth, "<s/>", keep_all)?;
                Ok::<_, ParseError>(Verdict::Keep)
            })
            .unwrap_err();
        assert!(e.message.contains("already has a root"), "{e}");
    }

    /// What a skipped element holds is checked exactly as if it were built:
    /// the same error, at the same byte.
    #[test]
    fn skip_still_checks_nesting_tags_and_attributes() {
        let deep = nested(MAX_DEPTH);
        for bad in [
            format!("<r><s>{deep}</s></r>"),
            "<r><s><a></b></s></r>".to_owned(),
            "<r><s><a x=\"1\" x=\"2\"/></s></r>".to_owned(),
            "<r><s><a>".to_owned(),
            "<r><s><![CDATA[x</s></r>".to_owned(),
            "<r><s><!-- x</s></r>".to_owned(),
            "<r><s><a x=1/></s></r>".to_owned(),
            "<r><s></t></r>".to_owned(),
            "<r><s>x</s>".to_owned(),
        ] {
            let built = Document::parse(&bad).unwrap_err();
            let skipped = Document::new()
                .parse_fragment_into(None, 0, &bad, |doc, tag| {
                    let skip = doc.tag_name(tag.name) == "s";
                    Ok::<_, ParseError>(if skip { Verdict::Skip } else { Verdict::Keep })
                })
                .unwrap_err();
            assert_eq!(skipped, built, "{bad}");
        }
    }
}
