//! Hand-written XML parser.
//!
//! Supports elements, attributes, text, comments, CDATA sections, the XML
//! declaration and processing instructions (skipped), and entity references.
//! No namespaces or DTDs — the paper's databases do not use them.
//!
//! One tokenizer feeds every build: it reads and checks the text and tells
//! a [`Sink`] what it read, in document order. A [`Document`] is one sink;
//! a [`SpanDocument`](crate::SpanDocument) is the other.
//!
//! The tokenizer is one loop over a stack of open elements. What the
//! writer writes — `<name>`, ` name="value"` with the value escaped as the
//! writer escapes, text with no `&` or `>`, `</name>` — is read on the
//! loop's straight path: a text run or a value is one word-at-a-time scan
//! that finds its end and notes whether it needs unescaping, and a close
//! tag is one compare with the name on the stack. Everything else the
//! parser accepts (comments, CDATA, PIs, `'` quotes, whitespace inside a
//! tag, other entity forms) is a branch of the same loop.

use crate::escape::unescape;
use crate::tree::{same_name, Document, NodeId, TagId};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

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
    /// One run of the input, as it stands (escaped), where it starts, and
    /// whether it holds no `&` and no `>` — then it is what the writer
    /// writes for itself, and unescapes to itself.
    Raw(&'a str, usize, bool),
    /// Unescaped text gathered across the comments, CDATA sections or PIs
    /// that interrupted it.
    Gathered(&'t str),
}

/// How the element being built ended.
pub(crate) enum Close {
    /// Written `<name …/>`.
    Itself,
    /// By a close tag written exactly `</name>`, at these input bytes.
    Exact(Range<usize>),
    /// By a close tag with whitespace before its `>`.
    Loose,
}

/// An element whose start tag is read and whose close tag is not.
#[derive(Debug, Clone, Copy)]
struct Open {
    /// Where its name lies in the input, and its first eight bytes as a
    /// word (zero past its end): a close tag is one compare with it.
    name: usize,
    len: usize,
    head: u64,
    /// Shown to the sink, and so its content too.
    kept: bool,
}

/// The buffers a parse reads into: the start tag being read and the stack
/// of open elements. A sink that parses many small inputs (one per block)
/// lends the same ones to each, so a parse allocates nothing of its own.
#[derive(Debug, Default)]
pub(crate) struct ParseBuffers<'a> {
    attrs: Vec<(TagId, Cow<'a, str>)>,
    attr_at: Vec<Range<usize>>,
    open: Vec<Open>,
}

/// What a parse builds. Each kept element is `start`, then its text and
/// elements, then `end`; nothing inside a skipped element is shown.
pub(crate) trait Sink<'a> {
    type Error: From<ParseError>;
    fn lend(&mut self) -> ParseBuffers<'a> {
        ParseBuffers::default()
    }
    fn give_back(&mut self, _: ParseBuffers<'a>) {}
    /// Interns a name whose first eight bytes, as a little-endian word
    /// zero past its end, are `head`.
    fn intern(&mut self, name: &str, head: u64) -> TagId;
    /// A start tag, read and checked: `Ok(true)` builds the element.
    fn start(&mut self, tag: &StartTag<'_, 'a>) -> Result<bool, Self::Error>;
    /// A text node, whitespace-only ones included.
    fn text(&mut self, text: Text<'_, 'a>);
    /// The end of the element being built.
    fn end(&mut self, close: Close);
    /// The parse reached stop `i` inside a kept element.
    fn stop(&mut self, _i: usize) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Parses `input` (one element, with the prolog and comments a document
/// may carry) into `sink`; `depth` is the depth its root element takes,
/// from which nesting is capped. `stops` are byte offsets into `input`,
/// ascending, each between two nodes of the root element's content: the
/// sink is told of each as the parse reaches it (see [`Sink::stop`]). A
/// stop inside markup or outside the root element, one before the stop
/// ahead of it, or one past the end is a parse error naming it.
pub(crate) fn parse_into<'a, S: Sink<'a>>(
    input: &'a str,
    depth: usize,
    stops: &[u32],
    sink: &mut S,
) -> Result<(), S::Error> {
    for (i, &stop) in stops.iter().enumerate() {
        let message = match stop as usize {
            s if s > input.len() => format!("stop {i} at byte {s} is past the end"),
            _ if i > 0 && stop < stops[i - 1] => {
                format!("stop {i} at byte {stop} comes before stop {}", i - 1)
            }
            _ => continue,
        };
        return Err(err(input.len().min(stop as usize), format_args!("{message}")).into());
    }
    let buffers = sink.lend();
    let mut p = Parser {
        input,
        sink,
        text_buf: String::new(),
        buffers,
        attr_seen_in: Vec::new(),
        stops,
        next_stop: 0,
    };
    let parsed = p.parse_root(depth);
    let mut buffers = p.buffers;
    buffers.attrs.clear();
    buffers.attr_at.clear();
    buffers.open.clear();
    p.sink.give_back(buffers);
    parsed
}

impl Document {
    /// Parses a document. Text that is only XML whitespace (indentation
    /// between elements) becomes no node.
    pub fn parse(input: &str) -> Result<Document, ParseError> {
        let mut doc = Document::new();
        let mut build = Build {
            doc: &mut doc,
            current: None,
        };
        parse_into(input, 0, &[], &mut build)?;
        Ok(doc)
    }
}

/// The sink of a [`Document`] parse: every element is built.
struct Build<'d> {
    doc: &'d mut Document,
    /// The element being built.
    current: Option<NodeId>,
}

impl<'a> Sink<'a> for Build<'_> {
    type Error = ParseError;

    fn intern(&mut self, name: &str, head: u64) -> TagId {
        self.doc.interner.intern_head(name, head)
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
            Text::Raw(raw, ..) => unescape(raw),
            Text::Gathered(text) => Cow::Borrowed(text),
        };
        if !is_blank(&text) {
            let el = self.current.expect("text is inside an element");
            self.doc.push_text(el, text);
        }
    }

    fn end(&mut self, _: Close) {
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
    sink: &'s mut S,
    /// Text of the element being parsed that a comment, CDATA section or
    /// PI interrupted, gathered until a tag ends it. One buffer serves every
    /// level: it is flushed before a child element is entered.
    text_buf: String,
    /// The start tag being read (emptied again before the element's
    /// content is parsed) and the elements open around the cursor.
    buffers: ParseBuffers<'a>,
    /// Per interned name, the start tag that last carried it as an
    /// attribute (the cursor just after that tag's name, which no two tags
    /// of one input share and is never 0). A repeat within one start tag is
    /// one lookup, however many attributes a hostile tag piles up.
    attr_seen_in: Vec<usize>,
    /// Where the sink is to be told the parse stands, and the next one.
    stops: &'s [u32],
    next_stop: usize,
}

/// The error at `offset`. Built only on the way out, so kept out of line:
/// the loop's straight path carries none of its formatting.
#[cold]
#[inline(never)]
fn err(offset: usize, message: fmt::Arguments<'_>) -> ParseError {
    ParseError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], mut at: usize) -> usize {
    while bytes.get(at).copied().is_some_and(is_xml_space) {
        at += 1;
    }
    at
}

/// Past `b` at `at`.
fn expect(bytes: &[u8], at: usize, b: u8) -> Result<usize, ParseError> {
    if bytes.get(at) == Some(&b) {
        Ok(at + 1)
    } else {
        Err(err(at, format_args!("expected `{}`", b as char)))
    }
}

/// Past the first `end` at or after `at`.
fn skip_until(bytes: &[u8], at: usize, end: &str) -> Result<usize, ParseError> {
    match find_sub(&bytes[at..], end.as_bytes()) {
        Some(i) => Ok(at + i + end.len()),
        None => Err(err(
            at,
            format_args!("unterminated construct, expected `{end}`"),
        )),
    }
}

/// `input[start..end]`. Every run the parser cuts starts after and stops
/// at an ASCII delimiter, which is a character boundary of the `&str` it
/// was given: `get` checks the two ends, not the run.
fn cut<'a>(input: &'a str, start: usize, end: usize, what: &str) -> Result<&'a str, ParseError> {
    input.get(start..end).ok_or_else(|| {
        err(
            end,
            format_args!("{what} does not end on a character boundary"),
        )
    })
}

/// The head of a name `len` bytes long (its first eight bytes as a word,
/// zero past its end) from the eight input bytes it starts.
fn head_in(word: &[u8; 8], len: usize) -> u64 {
    let word = u64::from_le_bytes(*word);
    if len < 8 {
        word & !(u64::MAX << (8 * len))
    } else {
        word
    }
}

/// Reads the name at `at`: the name, and its head. Eight bytes are classed
/// at once, with no branch per byte: most names end within them.
#[inline(always)]
fn read_name(input: &str, at: usize) -> Result<(&str, u64), ParseError> {
    let rest = &input.as_bytes()[at..];
    let first = rest.first_chunk::<8>();
    let mut len = first.map_or(0, |w| {
        let in_name = (0..8).fold(0u32, |m, i| m | u32::from(is_name_byte(w[i])) << i);
        in_name.trailing_ones() as usize
    });
    if first.is_none() || len == 8 {
        len += rest[len..]
            .iter()
            .position(|&b| !is_name_byte(b))
            .unwrap_or(rest.len() - len);
    }
    if len == 0 {
        return Err(err(at, format_args!("expected a name")));
    }
    let name = cut(input, at, at + len, "name")?;
    let head = first.map_or_else(|| crate::tree::head(name.as_bytes()), |w| head_in(w, len));
    Ok((name, head))
}

impl<'a, S: Sink<'a>> Parser<'a, '_, S> {
    /// Prolog, one element at `depth`, epilog, end of input.
    fn parse_root(&mut self, depth: usize) -> Result<(), S::Error> {
        let at = self.skip_misc(0)?;
        let at = self.parse_element(at, depth)?;
        if let Some(&stop) = self.stops.get(self.next_stop) {
            let i = self.next_stop;
            let message = format_args!("stop {i} at byte {stop} is outside the root element");
            return Err(err(at, message).into());
        }
        let at = self.skip_misc(at)?;
        if at != self.input.len() {
            return Err(err(at, format_args!("trailing content after the root element")).into());
        }
        Ok(())
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    /// The input up to the next stop, past which the loop does not read
    /// unawares; all of it when no stop is left.
    fn segment(&self) -> &'a [u8] {
        let stop = self.stops.get(self.next_stop);
        stop.map_or(self.bytes(), |&stop| &self.bytes()[..stop as usize])
    }

    /// The loop reached the end of its segment at `at`, inside `top`: the
    /// end of the input, an element left open, or a stop. At a stop the
    /// sink is told of it, and of every other stop there, when `top` is
    /// kept; returns the next segment.
    #[cold]
    fn reach(&mut self, at: usize, top: Open) -> Result<&'a [u8], S::Error> {
        let i = self.next_stop;
        let Some(&stop) = self.stops.get(i) else {
            let tag = self.name(top);
            return Err(err(at, format_args!("unclosed element <{tag}>")).into());
        };
        // A stop the last construct read past is inside it.
        if at > stop as usize {
            let why = "is inside markup or outside the root element";
            return Err(err(at, format_args!("stop {i} at byte {stop} {why}")).into());
        }
        if top.kept {
            self.flush_text();
        }
        while self.stops.get(self.next_stop) == Some(&stop) {
            if top.kept {
                self.sink.stop(self.next_stop)?;
            }
            self.next_stop += 1;
        }
        Ok(self.segment())
    }

    /// Skips whitespace, comments, the XML declaration, PIs, and DOCTYPE.
    fn skip_misc(&self, mut at: usize) -> Result<usize, ParseError> {
        let bytes = self.bytes();
        loop {
            at = skip_ws(bytes, at);
            // Each of them starts `<!` or `<?`; an element or the end of
            // the input is the common case.
            let rest = &bytes[at..];
            if !matches!(rest, [b'<', b'!' | b'?', ..]) {
                return Ok(at);
            }
            at = if rest.starts_with(b"<!--") {
                skip_until(bytes, at, "-->")?
            } else if rest.starts_with(b"<?") {
                skip_until(bytes, at, "?>")?
            } else if rest.starts_with(b"<!DOCTYPE") || rest.starts_with(b"<!doctype") {
                skip_until(bytes, at, ">")?
            } else {
                return Ok(at);
            };
        }
    }

    /// An open element's name.
    fn name(&self, open: Open) -> &'a str {
        &self.input[open.name..open.name + open.len]
    }

    /// Parses the element at `at`, `depth` elements deep, and all it holds,
    /// returning where it ends. Inside a skipped element everything is read
    /// and checked, never built, and nobody is asked. The cursor is a local
    /// of this one loop, so it stays in a register however the sink writes.
    fn parse_element(&mut self, at: usize, depth: usize) -> Result<usize, S::Error> {
        let (mut at, opened) = self.start_element(at, depth, true)?;
        let Some(mut top) = opened else {
            return Ok(at);
        };
        // The loop reads up to the next stop: reaching it is reaching the
        // end of its input, so a parse with no stops pays nothing for them.
        let mut bytes = self.segment();
        self.buffers.open.push(top);
        loop {
            let opened = match bytes.get(at) {
                None => {
                    bytes = self.reach(at, top)?;
                    continue;
                }
                Some(b'<') => match bytes.get(at + 1) {
                    Some(b'/') => {
                        at = self.end_element(at, top)?;
                        self.buffers.open.pop();
                        match self.buffers.open.last() {
                            Some(&open) => top = open,
                            None => return Ok(at),
                        }
                        continue;
                    }
                    Some(b'!' | b'?') => {
                        let opened;
                        let depth = depth + self.buffers.open.len();
                        (at, opened) = self.markup(at, top, depth)?;
                        opened
                    }
                    _ => {
                        if top.kept {
                            self.flush_text();
                        }
                        let opened;
                        let depth = depth + self.buffers.open.len();
                        (at, opened) = self.start_element(at, depth, top.kept)?;
                        opened
                    }
                },
                Some(_) => {
                    at = self.text(bytes, at, top.kept)?;
                    continue;
                }
            };
            let Some(open) = opened else {
                continue;
            };
            self.buffers.open.push(open);
            top = open;
        }
    }

    /// Reads the start tag at `at`, `depth` elements deep; outside a
    /// skipped element (`ask`) the sink decides whether it is built. Returns
    /// where the tag ends and, if content follows, the element to open. The
    /// tag is canonical when written exactly as the writer writes it (one
    /// space before each attribute, `name="value"` with the value
    /// canonically escaped, nothing before the end).
    #[inline(always)]
    fn start_element(
        &mut self,
        at: usize,
        depth: usize,
        ask: bool,
    ) -> Result<(usize, Option<Open>), S::Error> {
        if depth >= MAX_DEPTH {
            return Err(err(at, format_args!("elements nested deeper than {MAX_DEPTH}")).into());
        }
        let bytes = self.bytes();
        let name_at = expect(bytes, at, b'<')?;
        let (tag, head) = read_name(self.input, name_at)?;
        let name = self.sink.intern(tag, head);
        let name_end = name_at + tag.len();
        let (end, has_content, canonical) = match bytes.get(name_end) {
            Some(b'>') => (name_end + 1, true, true),
            _ => self.attributes(name_end, tag)?,
        };
        let kept = ask
            && self.sink.start(&StartTag {
                name,
                attrs: &self.buffers.attrs,
                raw: at..end,
                attr_at: &self.buffers.attr_at,
                canonical,
                self_closing: !has_content,
            })?;
        if !self.buffers.attrs.is_empty() {
            self.buffers.attrs.clear();
            self.buffers.attr_at.clear();
        }
        if has_content {
            let len = tag.len();
            let open = Open {
                name: name_at,
                len,
                head,
                kept,
            };
            return Ok((end, Some(open)));
        }
        if kept {
            self.sink.end(Close::Itself);
        }
        Ok((end, None))
    }

    /// Reads the rest of start tag `<tag` from `at`, just past its name,
    /// into `attrs`: where it ends, whether content follows (`>`) or the
    /// element closed itself (`/>`), and whether it is canonical.
    fn attributes(&mut self, mut at: usize, tag: &str) -> Result<(usize, bool, bool), ParseError> {
        let bytes = self.bytes();
        let this_tag = at;
        let mut canonical = true;
        // Just past the last thing read: the name or a closing quote.
        let mut last = at;
        loop {
            at = skip_ws(bytes, at);
            match bytes.get(at) {
                Some(b'>') => return Ok((at + 1, true, canonical && at == last)),
                Some(b'/') => {
                    canonical &= at == last;
                    return Ok((expect(bytes, at + 1, b'>')?, false, canonical));
                }
                Some(_) => {
                    let name_at = at;
                    canonical &= name_at == last + 1 && bytes[last] == b' ';
                    let (attr, attr_head) = read_name(self.input, at)?;
                    // A start tag names an attribute once: the writer would
                    // hand a second one back as ill-formed XML.
                    let name_id = self.sink.intern(attr, attr_head);
                    if self.repeated(name_id, this_tag) {
                        return Err(err(
                            name_at,
                            format_args!("attribute `{attr}` repeated in <{tag}>"),
                        ));
                    }
                    let name_end = at + attr.len();
                    at = skip_ws(bytes, name_end);
                    at = skip_ws(bytes, expect(bytes, at, b'=')?);
                    let quote = match bytes.get(at) {
                        Some(&q @ (b'"' | b'\'')) => q,
                        _ => return Err(err(at, format_args!("expected quoted attribute value"))),
                    };
                    canonical &= quote == b'"' && at == name_end + 1;
                    let (end, plain) = scan(bytes, at + 1, quote);
                    let raw = cut(self.input, at + 1, end, "attribute value")?;
                    at = expect(bytes, end, quote)?;
                    canonical &= plain || crate::escape::is_canonical(raw, true);
                    last = at;
                    let value = if plain {
                        Cow::Borrowed(raw)
                    } else {
                        unescape(raw)
                    };
                    self.buffers.attrs.push((name_id, value));
                    self.buffers.attr_at.push(name_at..last);
                }
                None => return Err(err(at, format_args!("unexpected end of input in tag"))),
            }
        }
    }

    /// Whether the start tag at `this_tag` already named `name`: a look
    /// along its few attributes, or one lookup per name once it has many.
    fn repeated(&mut self, name: TagId, this_tag: usize) -> bool {
        const FEW: usize = 16;
        let attrs = &self.buffers.attrs;
        if attrs.len() < FEW {
            return attrs.iter().any(|(n, _)| *n == name);
        }
        let seen_in = &mut self.attr_seen_in;
        let mut seen = |n: TagId| {
            let slot = n.0 as usize;
            if seen_in.len() <= slot {
                seen_in.resize(slot + 1, 0);
            }
            std::mem::replace(&mut seen_in[slot], this_tag) == this_tag
        };
        if attrs.len() == FEW {
            for (n, _) in attrs {
                seen(*n);
            }
        }
        seen(name)
    }

    /// A text run at `at`, up to the next `<` or the end of `segment`, of
    /// an element that is `kept` or not.
    #[inline(always)]
    fn text(&mut self, segment: &[u8], at: usize, kept: bool) -> Result<usize, ParseError> {
        let (end, plain) = scan(segment, at, b'<');
        if !kept {
            return Ok(end);
        }
        let raw = cut(self.input, at, end, "text")?;
        // A run that stops at a tag or a stop is the whole text node; only
        // `<!--`, `<![CDATA[` and `<?` carry it on.
        let next = segment.get(end + 1).copied();
        if self.text_buf.is_empty() && next != Some(b'!') && next != Some(b'?') {
            self.sink.text(Text::Raw(raw, at, plain));
        } else {
            self.text_buf.push_str(&unescape(raw));
        }
        Ok(end)
    }

    /// What starts `<!` or `<?` at `at`, inside element `top`: a comment, a
    /// CDATA section, a PI, or else an element `depth` deep (whose name
    /// check fails).
    fn markup(
        &mut self,
        at: usize,
        top: Open,
        depth: usize,
    ) -> Result<(usize, Option<Open>), S::Error> {
        let rest = &self.bytes()[at..];
        if rest.starts_with(b"<!--") {
            return Ok((skip_until(self.bytes(), at, "-->")?, None));
        }
        if rest.starts_with(b"<![CDATA[") {
            let start = at + "<![CDATA[".len();
            let end = find_sub(&self.bytes()[start..], b"]]>")
                .ok_or_else(|| err(start, format_args!("unterminated CDATA section")))?;
            let raw = cut(self.input, start, start + end, "CDATA")?;
            if top.kept {
                self.text_buf.push_str(raw);
            }
            return Ok((start + end + 3, None));
        }
        if rest.starts_with(b"<?") {
            return Ok((skip_until(self.bytes(), at, "?>")?, None));
        }
        if top.kept {
            self.flush_text();
        }
        self.start_element(at, depth, top.kept)
    }

    /// Reads the close tag at `at`, which must be `top`'s, and ends `top`.
    #[inline(always)]
    fn end_element(&mut self, at: usize, top: Open) -> Result<usize, S::Error> {
        if top.kept {
            self.flush_text();
        }
        let (end, exact) = self.close_tag(at, top)?;
        if top.kept {
            self.sink.end(if exact {
                Close::Exact(at..end)
            } else {
                Close::Loose
            });
        }
        Ok(end)
    }

    /// Reads the close tag at `at` (`</`, then `top`'s name byte for byte,
    /// ending where the name does): where it ends, and whether it is
    /// exactly `</name>`.
    #[inline(always)]
    fn close_tag(&mut self, at: usize, top: Open) -> Result<(usize, bool), ParseError> {
        let bytes = self.bytes();
        let at = at + 2;
        let tag = &bytes[top.name..top.name + top.len];
        let rest = &bytes[at..];
        let len = tag.len();
        // `</name>` as the writer writes it: the name's head as one word,
        // the bytes past it, then `>`.
        if let Some(first) = rest.first_chunk::<8>() {
            if head_in(first, len) == top.head
                && rest.get(len) == Some(&b'>')
                && (len <= 8 || same_name(&rest[8..len], &tag[8..]))
            {
                return Ok((at + len + 1, true));
            }
        }
        if rest.get(..len).is_some_and(|r| same_name(r, tag))
            && !rest.get(len).copied().is_some_and(is_name_byte)
        {
            let end = expect(bytes, skip_ws(bytes, at + len), b'>')?;
            return Ok((end, end == at + len + 1));
        }
        let (close, _) = read_name(self.input, at)?;
        let tag = self.name(top);
        let message = format_args!("mismatched close tag: <{tag}> vs </{close}>");
        Err(err(at + close.len(), message))
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

/// The high bit of each zero byte of `word`. The lowest set bit is exact;
/// a bit above a zero byte may be set for a byte that is not zero.
const fn zero_bytes(word: u64) -> u64 {
    word.wrapping_sub(splat(1)) & !word & splat(0x80)
}

/// Where the first `stop` at or after `from` is (the end of `hay` if none),
/// and whether no `&`, `<` or `>` comes before it, read eight bytes at a
/// time: text runs and attribute values are the longest stretches the
/// parser crosses, and a plain one needs neither unescaping nor a second
/// look to be known canonical.
#[inline(always)]
fn scan(hay: &[u8], from: usize, stop: u8) -> (usize, bool) {
    let (mut at, mut plain) = (from, true);
    for chunk in hay[from..].chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        // `<` and `>` differ in one bit: one compare finds both.
        let marks = zero_bytes(word ^ splat(b'&')) | zero_bytes((word | splat(2)) ^ splat(b'>'));
        let stops = zero_bytes(word ^ splat(stop));
        if stops != 0 {
            let before = (stops & stops.wrapping_neg()) - 1;
            let i = stops.trailing_zeros() as usize / 8;
            return (at + i, plain && marks & before == 0);
        }
        plain &= marks == 0;
        at += 8;
    }
    for &b in &hay[at..] {
        if b == stop {
            return (at, plain);
        }
        plain &= !matches!(b, b'&' | b'<' | b'>');
        at += 1;
    }
    (at, plain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Document;
    use crate::{Cursor, SpanBuilder, SpanDocument, TreeView};

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

    /// Names of one length that share their first eight bytes differ only
    /// past the word a close tag and an interned name are compared by.
    #[test]
    fn names_alike_in_their_first_eight_bytes_differ_past_them() {
        let xml = "<longname_a x_attr_1=\"\" x_attr_2=\"\"><longname_b/>\
                   <longname_a>t</longname_a></longname_a>";
        assert_eq!(Document::parse(xml).unwrap().to_xml(), xml);
        assert_eq!(SpanDocument::parse(xml).unwrap().text(), xml);
        let bad = "<longname_a></longname_b>";
        let message = "mismatched close tag: <longname_a> vs </longname_b>";
        for e in [
            Document::parse(bad).unwrap_err(),
            SpanDocument::parse(bad).unwrap_err(),
        ] {
            assert_eq!((e.message.as_str(), e.offset), (message, 24));
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

    /// `src` parsed with a stop at each `|`, the fragment of that stop's
    /// number parsed in there; decoy-like `skip` elements are skipped.
    fn stopped(src: &str, fragments: &[&'static str]) -> Result<(String, usize), ParseError> {
        let mut stops = Vec::new();
        let mut text = String::new();
        for (i, piece) in src.split('|').enumerate() {
            if i > 0 {
                stops.push(text.len() as u32);
            }
            text.push_str(piece);
        }
        let text: &'static str = Box::leak(text.into_boxed_str());
        let mut b = SpanBuilder::with_capacity(0);
        let skip = b.intern("skip");
        let mut reached = 0;
        let hook = |_: &mut SpanBuilder<'_>, tag: &StartTag<'_, '_>| {
            Ok(if tag.name == skip {
                Verdict::Skip
            } else {
                Verdict::Keep
            })
        };
        b.parse_stopping(text, &stops, hook, |b, i| {
            reached += 1;
            b.parse_fragment(fragments[i], keep_all)
        })?;
        Ok((b.finish().text().to_owned(), reached))
    }

    /// Stops between tags, inside a text run (which they split), before a
    /// close tag, two at one offset, and inside a skipped element (never
    /// reached): each fragment lands where its stop stands, in order.
    #[test]
    fn fragment_stops_parse_in_where_they_stand() {
        let src = "<r>|<a/>ab|cd<b>|</b>||<skip>|</skip></r>";
        let fragments = ["<f0/>", "<f1/>", "<f2>x</f2>", "<f3/>", "<f4/>", "<f5/>"];
        let (text, reached) = stopped(src, &fragments).unwrap();
        assert_eq!(text, "<r><f0/><a/>ab<f1/>cd<b><f2>x</f2></b><f3/><f4/></r>");
        assert_eq!(reached, 5);
        let d = SpanDocument::parse(&text).unwrap();
        let (kids, texts) = (d.len(), text.matches("ab").count());
        assert_eq!((kids, texts), (11, 1));
        // No stops: the one-segment parse is `parse_fragment`'s.
        assert_eq!(stopped("<r>ab<c/></r>", &[]).unwrap().0, "<r>ab<c/></r>");
    }

    /// An element held open is written with a close tag though nothing is
    /// built in it, and the cursor stands inside it.
    #[test]
    fn fragment_stops_hold_an_empty_element_open() {
        let mut b = SpanBuilder::with_capacity(0);
        let mut at = Vec::new();
        b.parse_stopping("<r><x></x><y></y></r>", &[6], keep_all, |b, _| {
            b.hold_open();
            at.push(b.cursor());
            Ok(())
        })
        .unwrap();
        let d = b.finish();
        assert_eq!(d.text(), "<r><x></x><y/></r>");
        let x = Cursor {
            parent: Some(NodeId(1)),
            next: NodeId(2),
            offset: 6,
        };
        assert_eq!(at, [x]);
    }

    /// A stop inside a start tag, an attribute value, a text's character, a
    /// close tag, a comment, before the root, after it, past the end, or
    /// before the stop ahead of it is an error naming that stop.
    #[test]
    fn fragment_stops_outside_content_are_errors_naming_them() {
        let src = "<r><a k=\"v\">é</a><!-- c --><b/></r>";
        let at = |needle: &str| src.find(needle).unwrap() as u32;
        let cases = [
            (vec![3, at("<a ") + 2], "stop 1 at byte 5 is inside markup"),
            (vec![at("\"v") + 1], "stop 0 at byte 9 is inside markup"),
            (
                vec![at("é") + 1],
                "text does not end on a character boundary",
            ),
            (vec![at("</a>") + 2], "is inside markup"),
            (vec![at(" c ")], "is inside markup"),
            (
                vec![0],
                "stop 0 at byte 0 is inside markup or outside the root",
            ),
            (vec![src.len() as u32], "outside the root element"),
            (
                vec![src.len() as u32 + 1],
                "stop 0 at byte 37 is past the end",
            ),
            (vec![at("<b"), 3], "stop 1 at byte 3 comes before stop 0"),
        ];
        for (stops, why) in cases {
            let mut b = SpanBuilder::with_capacity(0);
            let e = b
                .parse_stopping(src, &stops, keep_all, |_, _| Ok(()))
                .unwrap_err();
            assert!(e.message.contains(why), "{stops:?}: {e}");
        }
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
