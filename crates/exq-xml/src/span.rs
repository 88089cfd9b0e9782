//! A document held as its own serialization: the text the writer would
//! write, and per node its byte span in that text.
//!
//! A [`SpanBuilder`] is fed by the parser's one tokenizer. Input that is
//! already written as the writer writes it is copied as it stands, in runs
//! as long as the input allows; anything else — `'` quotes, whitespace
//! inside a tag, other entity forms, comments, CDATA, PIs, an element whose
//! kept content is empty — is written afresh, escaped as the writer escapes.
//! Whitespace-only text and the elements a hook skips are not copied and
//! become no node. So the text is byte for byte what
//! [`Document::to_xml`](crate::Document::to_xml) writes for the same tree,
//! an element's serialization is one slice of it, and nodes are numbered in
//! document order with each subtree one run of numbers.

use crate::escape::{is_canonical, push_escaped, unescape};
use crate::parse::{
    is_blank, parse_into, Close, ParseBuffers, ParseError, Sink, StartTag, Text, Verdict,
};
use crate::tree::{Interner, NodeId, TagId};
use crate::view::{NodeType, TreeView};
use std::borrow::Cow;
use std::ops::Range;

/// Bytes of XML a node takes, a little under what data-oriented XML
/// averages (15 on XMark, 17 on the hospital records), so a builder sized
/// from its input seldom grows its node array.
const BYTES_PER_NODE: usize = 12;

/// `Entry::kind` of an attribute: its name's id with this bit set.
const ATTRIBUTE: u32 = 1 << 31;
/// `Entry::kind` of a text node.
const TEXT: u32 = u32::MAX;
/// `Entry::parent` of the root, and the builder's "no element open".
const NONE: u32 = u32::MAX;

fn is_attribute(kind: u32) -> bool {
    kind != TEXT && kind & ATTRIBUTE != 0
}

/// One node: what it is, where it sits, and where its bytes are.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// An element's name id, an attribute's with [`ATTRIBUTE`] set, or
    /// [`TEXT`].
    kind: u32,
    parent: u32,
    /// One past the last node of the subtree. While an element is being
    /// built: the number its first child takes.
    end: u32,
    /// The node's bytes: `text[start..stop]`.
    start: u32,
    stop: u32,
}

/// Where one node lies in a [`SpanDocument`]'s text: byte offsets. An
/// element's start tag is `[start, open_end)`, which stops just before its
/// `>` or `/>`, and the element, close tag included, is `[start, end)`. An
/// attribute is `name="value"` and a text its escaped content, each
/// `[start, end)` with `open_end` at `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: usize,
    pub open_end: usize,
    pub end: usize,
}

/// A document as text plus per-node spans (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SpanDocument {
    text: String,
    nodes: Vec<Entry>,
    interner: Interner,
}

impl SpanDocument {
    /// Parses a whole document, building every element.
    pub fn parse(input: &str) -> Result<SpanDocument, ParseError> {
        let mut b = SpanBuilder::with_capacity(input.len());
        b.parse_fragment(input, |_, _| Ok::<_, ParseError>(Verdict::Keep))?;
        Ok(b.finish())
    }

    /// The whole text: what the writer writes for this tree.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The whole text, without the spans.
    pub fn into_text(self) -> String {
        self.text
    }

    /// Number of nodes, attributes and text included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn entry(&self, n: NodeId) -> &Entry {
        &self.nodes[n.index()]
    }

    /// A node's serialization, as a slice of the text: an element whole, an
    /// attribute as `name="value"`, a text escaped.
    pub fn xml(&self, n: NodeId) -> &str {
        let e = self.entry(n);
        &self.text[e.start as usize..e.stop as usize]
    }

    /// Where a node lies in the text. An element's start tag ends where its
    /// last attribute does, or after its name when it has none.
    pub fn span(&self, n: NodeId) -> Span {
        let e = self.entry(n);
        let open_end = match e.kind {
            k if k == TEXT || is_attribute(k) => e.stop,
            k => match self.first_child(n) {
                c if c > n.0 + 1 => self.nodes[c as usize - 1].stop,
                _ => e.start + 1 + self.interner.resolve(TagId(k)).len() as u32,
            },
        };
        Span {
            start: e.start as usize,
            open_end: open_end as usize,
            end: e.stop as usize,
        }
    }

    /// The number of an element's first child that is not an attribute.
    fn first_child(&self, n: NodeId) -> u32 {
        let end = self.entry(n).end;
        let mut i = n.0 + 1;
        while i < end && is_attribute(self.nodes[i as usize].kind) {
            i += 1;
        }
        i
    }

    fn is_text(&self, i: u32) -> bool {
        self.nodes[i as usize].kind == TEXT
    }
}

impl TreeView for SpanDocument {
    fn root(&self) -> Option<NodeId> {
        (!self.nodes.is_empty()).then_some(NodeId(0))
    }

    fn tag_id(&self, name: &str) -> Option<TagId> {
        self.interner.get(name)
    }

    fn name(&self, tag: TagId) -> &str {
        self.interner.resolve(tag)
    }

    fn node_type(&self, n: NodeId) -> NodeType {
        match self.entry(n).kind {
            TEXT => NodeType::Text,
            k if is_attribute(k) => NodeType::Attribute(TagId(k & !ATTRIBUTE)),
            k => NodeType::Element(TagId(k)),
        }
    }

    fn parent_of(&self, n: NodeId) -> Option<NodeId> {
        let p = self.entry(n).parent;
        (p != NONE).then_some(NodeId(p))
    }

    fn for_each_child(&self, n: NodeId, mut f: impl FnMut(NodeId)) {
        let end = self.entry(n).end;
        let mut i = self.first_child(n);
        while i < end {
            f(NodeId(i));
            i = self.nodes[i as usize].end;
        }
    }

    fn for_each_attr(&self, n: NodeId, f: impl FnMut(NodeId)) {
        (n.0 + 1..self.first_child(n)).map(NodeId).for_each(f);
    }

    fn for_each_in_subtree(&self, n: NodeId, f: impl FnMut(NodeId)) {
        (n.0..self.entry(n).end).map(NodeId).for_each(f);
    }

    /// Borrowed from the text when the value is one run that needs no
    /// unescaping.
    fn string_value(&self, n: NodeId) -> Cow<'_, str> {
        let e = self.entry(n);
        match e.kind {
            TEXT => unescape(self.xml(n)),
            k if is_attribute(k) => {
                let name = self.interner.resolve(TagId(k & !ATTRIBUTE));
                let quoted = &self.xml(n)[name.len() + 1..];
                unescape(&quoted[1..quoted.len() - 1])
            }
            _ => {
                let mut texts = (n.0 + 1..e.end)
                    .filter(|&i| self.is_text(i))
                    .map(|i| self.xml(NodeId(i)));
                let Some(first) = texts.next() else {
                    return Cow::Borrowed("");
                };
                let mut value = unescape(first);
                for t in texts {
                    value.to_mut().push_str(&unescape(t));
                }
                value
            }
        }
    }
}

/// Builds a [`SpanDocument`] from one or more inputs, each parsed in where
/// the builder stands: the root slot at first, or inside the element being
/// built (a hook may parse a fragment in at the start tag it was shown).
/// Input runs are copied into the text lazily, so consecutive runs of one
/// input are one copy.
#[derive(Debug)]
pub struct SpanBuilder<'s> {
    doc: SpanDocument,
    /// The input being parsed, and its bytes taken as they stand but not
    /// yet copied: `src[from..to]`; the text holds everything before them.
    src: &'s str,
    from: usize,
    to: usize,
    /// The element being built, or [`NONE`].
    current: u32,
    /// Parse buffers no parse holds: one per level of hook nesting.
    spare: Vec<ParseBuffers<'s>>,
    /// The element last held open: written with a close tag even when
    /// nothing is built in it.
    held_open: u32,
}

/// Where a [`SpanBuilder`] stands: the element being built (`None` at the
/// root slot), the number the next node takes, and the text's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    pub parent: Option<NodeId>,
    pub next: NodeId,
    pub offset: usize,
}

impl<'s> SpanBuilder<'s> {
    /// An empty builder whose text has room for `bytes`, and its node
    /// array for as many nodes as that much XML usually holds.
    pub fn with_capacity(bytes: usize) -> SpanBuilder<'s> {
        SpanBuilder {
            doc: SpanDocument {
                text: String::with_capacity(bytes),
                nodes: Vec::with_capacity(bytes / BYTES_PER_NODE),
                ..SpanDocument::default()
            },
            src: "",
            from: 0,
            to: 0,
            current: NONE,
            spare: Vec::new(),
            held_open: NONE,
        }
    }

    /// Writes the element being built with a close tag even if nothing is
    /// built in it, `<x></x>`, so that a place inside it stays one.
    pub fn hold_open(&mut self) {
        self.held_open = self.current;
    }

    /// Where the builder stands.
    pub fn cursor(&self) -> Cursor {
        Cursor {
            parent: (self.current != NONE).then_some(NodeId(self.current)),
            next: NodeId(self.doc.nodes.len() as u32),
            offset: self.out_len(),
        }
    }

    pub fn intern(&mut self, name: &str) -> TagId {
        self.doc.interner.intern(name)
    }

    /// Parses `input` (one element, with the prolog and comments a document
    /// may carry) in where the builder stands. `hook` is asked about each
    /// element at its start tag, outermost first; it may parse a fragment
    /// in where the element would go and then answer [`Verdict::Skip`].
    /// The hook's error type carries both its own failures and the
    /// parser's. On error the builder is left half built: drop it.
    pub fn parse_fragment<E: From<ParseError>>(
        &mut self,
        input: &'s str,
        hook: impl FnMut(&mut SpanBuilder<'s>, &StartTag<'_, 's>) -> Result<Verdict, E>,
    ) -> Result<(), E> {
        self.parse_stopping(input, &[], hook, |_, _| Ok(()))
    }

    /// [`parse_fragment`](SpanBuilder::parse_fragment), stopping at each of
    /// `stops`: byte offsets into `input`, ascending, each between two
    /// nodes of its root element's content. At stop `i` inside a kept
    /// element, `at_stop(builder, i)` is called with the builder standing
    /// there, so what it parses in goes there. A stop inside markup or
    /// outside the root element, one before the stop ahead of it, or one
    /// past the end is a parse error naming it.
    pub fn parse_stopping<E: From<ParseError>>(
        &mut self,
        input: &'s str,
        stops: &[u32],
        hook: impl FnMut(&mut SpanBuilder<'s>, &StartTag<'_, 's>) -> Result<Verdict, E>,
        at_stop: impl FnMut(&mut SpanBuilder<'s>, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        // Offsets are `u32`; re-escaping writes at most six bytes for one.
        if (self.out_len() + input.len().saturating_mul(6)) >= NONE as usize {
            return Err(ParseError {
                offset: 0,
                message: "input larger than a span document holds".into(),
            }
            .into());
        }
        // The fragment's runs are copied from it; the enclosing input's
        // resume where they stopped.
        self.flush();
        let outer = std::mem::replace(&mut self.src, input);
        let resume = std::mem::replace(&mut self.to, 0);
        self.from = 0;
        let depth = self.depth();
        let mut sink = Fragment {
            b: self,
            hook,
            at_stop,
        };
        let parsed = parse_into(input, depth, stops, &mut sink);
        self.flush();
        (self.src, self.from, self.to) = (outer, resume, resume);
        parsed
    }

    /// Opens an element that no input holds, written `<name>`; what is
    /// parsed next goes inside it until [`close`](SpanBuilder::close).
    pub fn open(&mut self, name: &str) {
        let name = self.intern(name);
        let start = self.out_len();
        self.flush();
        let text = &mut self.doc.text;
        text.push('<');
        text.push_str(self.doc.interner.resolve(name));
        text.push('>');
        self.push_element(name, 0, start);
    }

    /// Closes the element [`open`](SpanBuilder::open) opened.
    pub fn close(&mut self) {
        self.end(Close::Loose);
    }

    /// The document built.
    pub fn finish(mut self) -> SpanDocument {
        debug_assert_eq!(self.current, NONE, "an element is still open");
        self.flush();
        self.doc
    }

    /// How many elements are open: a walk up from the element being built,
    /// once per fragment, instead of a count kept at every element.
    fn depth(&self) -> usize {
        let mut depth = 0;
        let mut at = self.current;
        while at != NONE {
            depth += 1;
            at = self.doc.nodes[at as usize].parent;
        }
        depth
    }

    /// The text's length once the pending input is copied.
    fn out_len(&self) -> usize {
        self.doc.text.len() + self.to - self.from
    }

    /// Takes `src[range]` as it stands.
    #[inline(always)]
    fn copy(&mut self, range: Range<usize>) {
        if range.start != self.to {
            self.flush();
            self.from = range.start;
        }
        self.to = range.end;
    }

    fn flush(&mut self) {
        self.doc.text.push_str(&self.src[self.from..self.to]);
        self.from = self.to;
    }

    #[inline(always)]
    fn push(&mut self, kind: u32, end: usize, start: usize, stop: usize) {
        self.doc.nodes.push(Entry {
            kind,
            parent: self.current,
            end: end as u32,
            start: start as u32,
            stop: stop as u32,
        });
    }

    /// Records an element whose start tag is out, with `attrs` attributes
    /// to follow it, and makes it the element being built.
    #[inline(always)]
    fn push_element(&mut self, name: TagId, attrs: usize, start: usize) {
        let at = self.doc.nodes.len();
        self.push(name.0, at + 1 + attrs, start, 0);
        self.current = at as u32;
    }

    #[inline(always)]
    fn start(&mut self, tag: &StartTag<'_, 's>) {
        let start = self.out_len();
        let el = self.doc.nodes.len();
        if tag.canonical {
            self.copy(tag.raw.clone());
            self.push_element(tag.name, tag.attrs.len(), start);
            for (i, (name, _)) in tag.attrs.iter().enumerate() {
                let at = &tag.attr_at[i];
                let a = start + (at.start - tag.raw.start);
                self.push(name.0 | ATTRIBUTE, el + 2 + i, a, a + at.len());
            }
        } else {
            self.flush();
            self.push_element(tag.name, tag.attrs.len(), start);
            let SpanDocument {
                text,
                nodes,
                interner,
            } = &mut self.doc;
            text.push('<');
            text.push_str(interner.resolve(tag.name));
            for (i, (name, value)) in tag.attrs.iter().enumerate() {
                text.push(' ');
                let a = text.len();
                text.push_str(interner.resolve(*name));
                text.push_str("=\"");
                push_escaped(text, value, true);
                text.push('"');
                nodes.push(Entry {
                    kind: name.0 | ATTRIBUTE,
                    parent: el as u32,
                    end: (el + 2 + i) as u32,
                    start: a as u32,
                    stop: text.len() as u32,
                });
            }
            text.push_str(if tag.self_closing { "/>" } else { ">" });
        }
    }

    #[inline(always)]
    fn text(&mut self, text: Text<'_, 's>) {
        let start = self.out_len();
        match text {
            Text::Raw(raw, at, plain) if plain || is_canonical(raw, false) => {
                if is_blank(raw) {
                    return;
                }
                self.copy(at..at + raw.len());
            }
            Text::Raw(raw, _, _) => return self.write_text(&unescape(raw)),
            Text::Gathered(text) => return self.write_text(text),
        }
        let at = self.doc.nodes.len();
        self.push(TEXT, at + 1, start, self.out_len());
    }

    fn write_text(&mut self, text: &str) {
        if is_blank(text) {
            return;
        }
        self.flush();
        let start = self.out_len();
        push_escaped(&mut self.doc.text, text, false);
        let (at, stop) = (self.doc.nodes.len(), self.out_len());
        self.push(TEXT, at + 1, start, stop);
    }

    /// Ends the element being built, as `close` tells.
    #[inline(always)]
    fn end(&mut self, close: Close) {
        let Entry { kind, end, .. } = self.doc.nodes[self.current as usize];
        match close {
            // Its start tag held all of it.
            Close::Itself => {}
            // Nothing kept inside, and not held open: the start tag's `>`,
            // the last byte out, becomes `/>`.
            _ if end as usize == self.doc.nodes.len() && self.held_open != self.current => {
                if self.to > self.from {
                    self.to -= 1;
                } else {
                    self.doc.text.pop();
                }
                self.flush();
                self.doc.text.push_str("/>");
            }
            Close::Exact(range) => self.copy(range),
            Close::Loose => {
                self.flush();
                let SpanDocument { text, interner, .. } = &mut self.doc;
                text.push_str("</");
                text.push_str(interner.resolve(TagId(kind)));
                text.push('>');
            }
        }
        self.close_entry();
    }

    /// Records where the element being built ends, and steps out of it.
    #[inline(always)]
    fn close_entry(&mut self) {
        let (end, stop) = (self.doc.nodes.len() as u32, self.out_len() as u32);
        let e = &mut self.doc.nodes[self.current as usize];
        (e.end, e.stop) = (end, stop);
        self.current = e.parent;
    }
}

/// The sink of one [`SpanBuilder::parse_stopping`] call.
struct Fragment<'b, 's, H, A> {
    b: &'b mut SpanBuilder<'s>,
    hook: H,
    at_stop: A,
}

impl<'s, E, H, A> Sink<'s> for Fragment<'_, 's, H, A>
where
    E: From<ParseError>,
    H: FnMut(&mut SpanBuilder<'s>, &StartTag<'_, 's>) -> Result<Verdict, E>,
    A: FnMut(&mut SpanBuilder<'s>, usize) -> Result<(), E>,
{
    type Error = E;

    fn lend(&mut self) -> ParseBuffers<'s> {
        self.b.spare.pop().unwrap_or_default()
    }

    fn give_back(&mut self, buffers: ParseBuffers<'s>) {
        self.b.spare.push(buffers);
    }

    fn intern(&mut self, name: &str, head: u64) -> TagId {
        self.b.doc.interner.intern_head(name, head)
    }

    #[inline(always)]
    fn start(&mut self, tag: &StartTag<'_, 's>) -> Result<bool, E> {
        if (self.hook)(self.b, tag)? == Verdict::Skip {
            return Ok(false);
        }
        if self.b.current == NONE && !self.b.doc.nodes.is_empty() {
            return Err(ParseError {
                offset: tag.raw.end,
                message: "document already has a root element".into(),
            }
            .into());
        }
        self.b.start(tag);
        Ok(true)
    }

    #[inline(always)]
    fn text(&mut self, text: Text<'_, 's>) {
        self.b.text(text);
    }

    #[inline(always)]
    fn end(&mut self, close: Close) {
        self.b.end(close);
    }

    fn stop(&mut self, i: usize) -> Result<(), E> {
        (self.at_stop)(self.b, i)
    }
}
