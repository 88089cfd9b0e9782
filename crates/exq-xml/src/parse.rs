//! Hand-written recursive-descent XML parser.
//!
//! Supports elements, attributes, text, comments, CDATA sections, the XML
//! declaration and processing instructions (skipped), and entity references.
//! No namespaces or DTDs — the paper's databases do not use them.
//!
//! One tokenizer feeds every build: it reads and checks the text and tells
//! a [`Sink`] what it read, in document order. A [`Document`] is one sink;
//! a [`SpanDocument`](crate::SpanDocument) is the other.

use crate::escape::unescape;
use crate::tree::{same_name, Document, NodeId, TagId};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

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
    /// The element's name, interned in the document parsed into.
    pub name: TagId,
    /// Attribute names and unescaped values, in document order.
    pub attrs: &'t [(TagId, Cow<'a, str>)],
    /// The tag's bytes in the input, `<` to `>`.
    pub(crate) raw: Range<usize>,
    /// Where each attribute's `name="value"` lies in the input.
    pub(crate) attr_at: &'t [Range<usize>],
    /// The input bytes are exactly what the writer writes for this tag.
    pub(crate) canonical: bool,
    /// Written `<name …/>`: no content and no close tag follow.
    pub(crate) self_closing: bool,
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

/// One text node of the element being built.
pub(crate) enum Text<'t, 'a> {
    /// One run of the input, as it stands (escaped), and where it starts.
    Raw(&'a str, usize),
    /// Unescaped text gathered across the comments, CDATA sections or PIs
    /// that interrupted it.
    Gathered(&'t str),
}

/// The start-tag buffers a parse reads attributes into: a sink that parses
/// many small inputs (one per block) lends the same ones to each.
#[derive(Debug, Default)]
pub(crate) struct TagBuffers<'a> {
    attrs: Vec<(TagId, Cow<'a, str>)>,
    attr_at: Vec<Range<usize>>,
}

/// What a parse builds. Each kept element is `start`, then its text and
/// elements, then `end`; nothing inside a skipped element is shown.
pub(crate) trait Sink<'a> {
    type Error: From<ParseError>;
    fn lend(&mut self) -> TagBuffers<'a> {
        TagBuffers::default()
    }
    fn give_back(&mut self, _: TagBuffers<'a>) {}
    fn intern(&mut self, name: &str) -> TagId;
    /// A start tag, read and checked: `Ok(true)` builds the element.
    fn start(&mut self, tag: &StartTag<'_, 'a>) -> Result<bool, Self::Error>;
    /// A text node, whitespace-only ones included.
    fn text(&mut self, text: Text<'_, 'a>);
    /// The end of the element being built: its close tag's bytes and where
    /// they start, `None` when it closed itself.
    fn end(&mut self, close: Option<(&'a str, usize)>);
}

/// Parses `input` (one element, with the prolog and comments a document
/// may carry) into `sink`; `depth` is the depth its root element takes,
/// from which nesting is capped.
pub(crate) fn parse_into<'a, S: Sink<'a>>(
    input: &'a str,
    depth: usize,
    sink: &mut S,
) -> Result<(), S::Error> {
    let TagBuffers { attrs, attr_at } = sink.lend();
    let mut p = Parser {
        input,
        pos: 0,
        sink,
        text_buf: String::new(),
        attrs,
        attr_at,
        attr_seen_in: Vec::new(),
    };
    let parsed = p.parse_root(depth);
    let (mut attrs, mut attr_at) = (p.attrs, p.attr_at);
    attrs.clear();
    attr_at.clear();
    p.sink.give_back(TagBuffers { attrs, attr_at });
    parsed
}

impl Document {
    /// Parses a document with default options.
    pub fn parse(input: &str) -> Result<Document, ParseError> {
        Self::parse_with(input, ParseOptions::default())
    }

    /// Parses a document with explicit options.
    pub fn parse_with(input: &str, opts: ParseOptions) -> Result<Document, ParseError> {
        let mut doc = Document::new();
        let mut build = Build {
            doc: &mut doc,
            opts,
            current: None,
        };
        parse_into(input, 0, &mut build)?;
        Ok(doc)
    }
}

/// The sink of a [`Document`] parse: every element is built.
struct Build<'d> {
    doc: &'d mut Document,
    opts: ParseOptions,
    /// The element being built.
    current: Option<NodeId>,
}

impl<'a> Sink<'a> for Build<'_> {
    type Error = ParseError;

    fn intern(&mut self, name: &str) -> TagId {
        self.doc.intern(name)
    }

    fn start(&mut self, tag: &StartTag<'_, 'a>) -> Result<bool, ParseError> {
        let el = self.doc.push_element(self.current, tag.name);
        for (name, value) in tag.attrs {
            self.doc.push_attr(el, *name, Cow::Borrowed(value));
        }
        self.current = Some(el);
        Ok(true)
    }

    fn text(&mut self, text: Text<'_, 'a>) {
        let text = match text {
            Text::Raw(raw, _) => unescape(raw),
            Text::Gathered(text) => Cow::Borrowed(text),
        };
        if !self.opts.skip_whitespace_text || !is_blank(&text) {
            let el = self.current.expect("text is inside an element");
            self.doc.push_text(el, text);
        }
    }

    fn end(&mut self, _: Option<(&'a str, usize)>) {
        let el = self.current.expect("an element is open");
        self.current = self.doc.node(el).parent();
    }
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

/// Text that is only XML whitespace: indentation, never a node.
pub(crate) fn is_blank(text: &str) -> bool {
    text.bytes().all(is_xml_space)
}

struct Parser<'a, 's, S> {
    input: &'a str,
    pos: usize,
    sink: &'s mut S,
    /// Text of the element being parsed that a comment, CDATA section or
    /// PI interrupted, gathered until a tag ends it. One buffer serves every
    /// level: it is flushed before a child element is entered.
    text_buf: String,
    /// The start tag being read: its attributes and where each lies,
    /// emptied again before the element's content is parsed.
    attrs: Vec<(TagId, Cow<'a, str>)>,
    attr_at: Vec<Range<usize>>,
    /// Per interned name, the start tag that last carried it as an
    /// attribute (the cursor just after that tag's name, which no two tags
    /// share and is never 0). A repeat within one start tag is one lookup,
    /// however many attributes a hostile tag piles up.
    attr_seen_in: Vec<usize>,
}

impl<'a, S: Sink<'a>> Parser<'a, '_, S> {
    /// Prolog, one element at `depth`, epilog, end of input.
    fn parse_root(&mut self, depth: usize) -> Result<(), S::Error> {
        self.skip_misc()?;
        self.parse_element(depth, true)?;
        self.skip_misc()?;
        if self.pos != self.input.len() {
            return Err(self.err("trailing content after the root element").into());
        }
        Ok(())
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

    /// Parses the element at the cursor, `depth` elements deep. Outside a
    /// skipped element (`ask`) the sink decides whether it is built; inside
    /// one it is read and checked, never built, and nobody is asked.
    fn parse_element(&mut self, depth: usize, ask: bool) -> Result<(), S::Error> {
        let tag_start = self.pos;
        let (tag, name, has_content, canonical) = self.start_tag(depth)?;
        let keep = ask
            && self.sink.start(&StartTag {
                name,
                attrs: &self.attrs,
                raw: tag_start..self.pos,
                attr_at: &self.attr_at,
                canonical,
                self_closing: !has_content,
            })?;
        self.attrs.clear();
        self.attr_at.clear();
        if has_content {
            self.parse_content(keep, tag, depth)?;
        } else if keep {
            self.sink.end(None);
        }
        Ok(())
    }

    /// Reads the start tag at the cursor into `attrs`: its name, interned
    /// before any attribute's, whether content follows (`>`) or the element
    /// closed itself (`/>`), and whether the tag is written exactly as the
    /// writer writes it (one space before each attribute, `name="value"`
    /// with the value canonically escaped, nothing before the end).
    fn start_tag(&mut self, depth: usize) -> Result<(&'a str, TagId, bool, bool), ParseError> {
        if depth >= MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
        }
        self.expect(b'<')?;
        let tag = self.read_name()?;
        let name = self.sink.intern(tag);
        let this_tag = self.pos;
        let mut canonical = true;
        // Just past the last thing read: the name or a closing quote.
        let mut last = self.pos;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((tag, name, true, canonical && self.pos == last + 1));
                }
                Some(b'/') => {
                    canonical &= self.pos == last;
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok((tag, name, false, canonical));
                }
                Some(_) => {
                    let name_at = self.pos;
                    canonical &= name_at == last + 1 && self.bytes()[last] == b' ';
                    let attr = self.read_name()?;
                    // A start tag names an attribute once: the writer would
                    // hand a second one back as ill-formed XML.
                    let name_id = self.sink.intern(attr);
                    if self.repeated(name_id, this_tag) {
                        return Err(ParseError {
                            offset: name_at,
                            message: format!("attribute `{attr}` repeated in <{tag}>"),
                        });
                    }
                    let name_end = self.pos;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    canonical &= quote == b'"' && self.pos == name_end + 1;
                    self.pos += 1;
                    let vstart = self.pos;
                    self.pos = find_byte(self.bytes(), vstart, quote).unwrap_or(self.input.len());
                    let raw = self.str_from(vstart, "attribute value")?;
                    self.expect(quote)?;
                    canonical &= crate::escape::is_canonical(raw, true);
                    last = self.pos;
                    self.attrs.push((name_id, unescape(raw)));
                    self.attr_at.push(name_at..last);
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
    }

    /// Whether the start tag at `this_tag` already named `name`: a look
    /// along its few attributes, or one lookup per name once it has many.
    fn repeated(&mut self, name: TagId, this_tag: usize) -> bool {
        const FEW: usize = 16;
        if self.attrs.len() < FEW {
            return self.attrs.iter().any(|(n, _)| *n == name);
        }
        let mut seen = |n: TagId| {
            let slot = n.0 as usize;
            if self.attr_seen_in.len() <= slot {
                self.attr_seen_in.resize(slot + 1, 0);
            }
            std::mem::replace(&mut self.attr_seen_in[slot], this_tag) == this_tag
        };
        if self.attrs.len() == FEW {
            for (n, _) in &self.attrs {
                seen(*n);
            }
        }
        seen(name)
    }

    /// Parses children and text up to and including `</tag>`: built when
    /// `keep`, else checked but neither built nor shown to the sink.
    fn parse_content(&mut self, keep: bool, tag: &str, depth: usize) -> Result<(), S::Error> {
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unclosed element <{tag}>")).into()),
                Some(b'<') => {
                    let next = self.bytes().get(self.pos + 1).copied();
                    if next == Some(b'/') {
                        let close_at = self.pos;
                        if keep {
                            self.flush_text();
                        }
                        self.pos += 2;
                        self.close_tag(tag)?;
                        if keep {
                            self.sink
                                .end(Some((&self.input[close_at..self.pos], close_at)));
                        }
                        return Ok(());
                    } else if next != Some(b'!') && next != Some(b'?') {
                        if keep {
                            self.flush_text();
                        }
                        self.parse_element(depth + 1, keep)?;
                    } else if self.starts_with("<!--") {
                        self.skip_until("-->")?;
                    } else if self.starts_with("<![CDATA[") {
                        self.pos += "<![CDATA[".len();
                        let start = self.pos;
                        let end = find_sub(&self.bytes()[start..], b"]]>")
                            .ok_or_else(|| self.err("unterminated CDATA section"))?;
                        self.pos += end;
                        let raw = self.str_from(start, "CDATA")?;
                        if keep {
                            self.text_buf.push_str(raw);
                        }
                        self.pos += 3;
                    } else if self.starts_with("<?") {
                        self.skip_until("?>")?;
                    } else {
                        if keep {
                            self.flush_text();
                        }
                        self.parse_element(depth + 1, keep)?;
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    self.pos = find_byte(self.bytes(), start, b'<').unwrap_or(self.input.len());
                    if !keep {
                        continue;
                    }
                    let raw = self.str_from(start, "text")?;
                    // A run that stops at a tag is the whole text node; only
                    // `<!--`, `<![CDATA[` and `<?` carry it on.
                    let next = self.bytes().get(self.pos + 1).copied();
                    if self.text_buf.is_empty() && next != Some(b'!') && next != Some(b'?') {
                        self.sink.text(Text::Raw(raw, start));
                    } else {
                        self.text_buf.push_str(&unescape(raw));
                    }
                }
            }
        }
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

    fn flush_text(&mut self) {
        if self.text_buf.is_empty() {
            return;
        }
        self.sink.text(Text::Gathered(&self.text_buf));
        self.text_buf.clear();
    }
}

fn find_sub(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Eight copies of a byte in a word.
const fn splat(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// Whether any byte of `word` is zero.
const fn has_zero(word: u64) -> bool {
    word.wrapping_sub(splat(1)) & !word & splat(0x80) != 0
}

/// Where the first `b` at or after `from` is, read eight bytes at a time:
/// text runs are the longest stretches the parser crosses.
fn find_byte(hay: &[u8], from: usize, b: u8) -> Option<usize> {
    let mut at = from;
    for chunk in hay[from..].chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        if has_zero(word ^ splat(b)) {
            break;
        }
        at += 8;
    }
    hay[at..].iter().position(|&x| x == b).map(|i| at + i)
}

/// Whether `hay` holds `a` or `b`, read eight bytes at a time.
pub(crate) fn holds_either(hay: &[u8], a: u8, b: u8) -> bool {
    let mut chunks = hay.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        if has_zero(word ^ splat(a)) || has_zero(word ^ splat(b)) {
            return true;
        }
    }
    chunks.remainder().iter().any(|&x| x == a || x == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Document;
    use crate::{SpanBuilder, SpanDocument, TreeView};

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
        let e = SpanDocument::parse(r#"<b><c id="1" id="1"/></b>"#).unwrap_err();
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

    fn keep_all(_: &mut SpanBuilder<'_>, _: &StartTag<'_, '_>) -> Result<Verdict, ParseError> {
        Ok(Verdict::Keep)
    }

    /// Skips the root element.
    fn skip_all(_: &mut SpanBuilder<'_>, _: &StartTag<'_, '_>) -> Result<Verdict, ParseError> {
        Ok(Verdict::Skip)
    }

    /// Hostile input: the reply and block plaintext come from the untrusted
    /// server. Uncapped, this overflowed the stack and aborted the process.
    #[test]
    fn hundred_thousand_levels_on_a_small_stack_is_an_error_not_an_abort() {
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let deep = nested(100_000);
                let open_only = "<a>".repeat(100_000);
                let mut inside = SpanBuilder::with_capacity(0);
                inside.open("r");
                (
                    Document::parse(&deep).map(drop),
                    Document::parse(&open_only).map(drop),
                    inside.parse_fragment(&deep, keep_all),
                    SpanBuilder::with_capacity(0).parse_fragment(&deep, skip_all),
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
        // Two more levels fit under MAX_DEPTH - 2 open elements; three do not.
        let (two, three) = (nested(2), nested(3));
        let mut b = SpanBuilder::with_capacity(0);
        (0..MAX_DEPTH - 2).for_each(|_| b.open("a"));
        b.parse_fragment(&two, keep_all).unwrap();
        let e = b.parse_fragment(&three, keep_all).unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
    }

    #[test]
    fn fragment_becomes_last_child_or_root() {
        let mut b = SpanBuilder::with_capacity(0);
        b.open("r");
        b.parse_fragment("<a/>", keep_all).unwrap();
        let b_tag = "<?xml version=\"1.0\"?><b k=\"v\">t</b><!-- c -->";
        b.parse_fragment(b_tag, keep_all).unwrap();
        b.close();
        let d = b.finish();
        assert_eq!(d.text(), "<r><a/><b k=\"v\">t</b></r>");
        assert_eq!(d.parent_of(NodeId(2)), Some(NodeId(0)));
        // A rooted document takes no second root; a rootless one takes one.
        let mut b = SpanBuilder::with_capacity(0);
        b.parse_fragment("<x/>", keep_all).unwrap();
        assert!(b.parse_fragment("<y/>", keep_all).is_err());
        let mut b = SpanBuilder::with_capacity(0);
        b.open("r");
        assert!(b.parse_fragment("<x/><y/>", keep_all).is_err());
    }

    /// The value of attribute `n` on a start tag.
    fn attr_n<'t>(b: &mut SpanBuilder<'_>, tag: &'t StartTag<'_, '_>) -> Option<&'t str> {
        let n = b.intern("n");
        let found = tag.attrs.iter().find(|(name, _)| *name == n);
        found.map(|(_, v)| v.as_ref())
    }

    #[test]
    fn hook_splices_at_the_start_tag_and_skips_in_document_order() {
        let src = "<r><a/><hole n=\"1\"/><b><hole n=\"2\"/>x</b><hole n=\"3\">junk</hole></r>";
        let fragments = ["<f1><hole/></f1>", "<f2><hole/></f2>"];
        let mut seen = Vec::new();
        let mut b = SpanBuilder::with_capacity(0);
        let hole = b.intern("hole");
        b.parse_fragment(src, |b, tag| {
            if tag.name != hole {
                return Ok(Verdict::Keep);
            }
            let n = attr_n(b, tag).unwrap().to_owned();
            if n != "3" {
                // A fragment's elements go to the fragment's own hook: here
                // none, so a `hole` in it is an ordinary element.
                let at = n.parse::<usize>().unwrap() - 1;
                b.parse_fragment(fragments[at], keep_all)?;
            }
            seen.push(n);
            Ok::<_, ParseError>(Verdict::Skip)
        })
        .unwrap();
        assert_eq!(seen, ["1", "2", "3"]);
        let d = b.finish();
        assert_eq!(
            d.text(),
            "<r><a/><f1><hole/></f1><b><f2><hole/></f2>x</b></r>"
        );
        assert_eq!(d.len(), 8);
    }

    #[test]
    fn hook_sees_start_tags_outermost_first_and_its_error_stops_the_parse() {
        let mut order = Vec::new();
        let mut b = SpanBuilder::with_capacity(0);
        b.parse_fragment("<r><a x=\"1\"><b/></a><c/></r>", |_, tag| {
            let attrs: Vec<_> = tag
                .attrs
                .iter()
                .map(|(n, v)| (n.0, v.to_string()))
                .collect();
            order.push((tag.name.0, attrs));
            Ok::<_, ParseError>(Verdict::Keep)
        })
        .unwrap();
        assert_eq!(
            order,
            [
                (0, vec![]),
                (1, vec![(2, "1".to_owned())]),
                (3, vec![]),
                (4, vec![]),
            ]
        );

        let mut b = SpanBuilder::with_capacity(0);
        let hole = b.intern("hole");
        let r = b.parse_fragment("<x><hole/><a/></x>", |_, tag| {
            if tag.name == hole {
                return Err(ParseError {
                    offset: 0,
                    message: "refused".into(),
                });
            }
            Ok(Verdict::Keep)
        });
        assert_eq!(r.unwrap_err().message, "refused");
    }

    /// `Skip` builds nothing of the element and asks nothing about what is
    /// inside it; what follows it is asked about as usual.
    #[test]
    fn skip_builds_nothing_and_asks_nothing_inside() {
        let src = "<r><a/><b x=\"1\"><c/>text<![CDATA[t]]><d><c k=\"&amp;\"/></d></b>tail<e/></r>";
        let mut asked = Vec::new();
        let mut b = SpanBuilder::with_capacity(0);
        let skip = b.intern("b");
        b.parse_fragment(src, |_, tag| {
            asked.push(tag.name);
            let verdict = if tag.name == skip {
                Verdict::Skip
            } else {
                Verdict::Keep
            };
            Ok::<_, ParseError>(verdict)
        })
        .unwrap();
        assert_eq!(asked.len(), 4);
        let d = b.finish();
        assert_eq!(d.text(), "<r><a/>tail<e/></r>");
        assert_eq!(d.len(), 4);
        // A skipped root leaves a document with no root and no node.
        let mut b = SpanBuilder::with_capacity(0);
        b.parse_fragment(src, skip_all).unwrap();
        let d = b.finish();
        assert_eq!((d.root(), d.len(), d.text()), (None, 0, ""));
        // A hook that fills the root slot and then keeps its element is an
        // error, not a second root.
        let e = SpanBuilder::with_capacity(0)
            .parse_fragment("<r/>", |b, _| {
                b.parse_fragment("<s/>", keep_all)?;
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
            let mut b = SpanBuilder::with_capacity(0);
            let s = b.intern("s");
            let skipped = b
                .parse_fragment(&bad, |_, tag| {
                    let skip = tag.name == s;
                    Ok::<_, ParseError>(if skip { Verdict::Skip } else { Verdict::Keep })
                })
                .unwrap_err();
            assert_eq!(skipped, built, "{bad}");
        }
    }
}
