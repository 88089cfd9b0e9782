//! The server's visible document, held as its own serialization.
//!
//! The text is byte for byte what the document's `to_xml` writes with each
//! encryption block cut out, except that an element whose only children
//! are blocks is written `<x></x>`. Beside it, per position of the DSI
//! table's interval universe, is the byte span of the visible node with
//! that interval (text nodes have no position). A block's root has an
//! empty span at the offset where the block was cut out, and a position
//! strictly inside a block has none. A reply region is copied out of the
//! text by position: a subtree kept whole is one slice, a context element
//! is its start tag, its kept children and a close tag, and each block in
//! it is its offset in the reply. There is no tree beside the text.
//!
//! Each position keeps, beside its 12-byte span, one `f64`: the number
//! its visible node's string value, trimmed, parses to, for an attribute
//! and for an element with no element child in the text (its string value
//! is then one run of the text). Every other position holds NaN, and so
//! does a value that is no number or parses to NaN: NaN means "read the
//! text". A plaintext value test compares numbers where both sides have
//! one and reads the string value only where NaN says so.
//!
//! Inserts and deletes edit the text in place and move the later spans by
//! the number of bytes they added or removed; the numbers move with the
//! spans, and the edited parent's number is worked out from its text
//! again.
//!
//! The client hands the server a [`VisibleFragment`], at set-up and with
//! every insert, and the server persists one: the text and each block's
//! offset in it. The DSI labels go in document order, so the universe
//! places every node: the k-th element or attribute of the text is the
//! k-th position outside every block, and the k-th offset is the k-th
//! block's root. One reader, [`VisibleText::read`], walks the universe's
//! positions beside the text's nodes and checks that they follow its
//! structure: the nearest ancestor with a visible node of each visible
//! node or block root is the position of its parent element, each node's
//! name is a tag its position is filed under, and no position is left
//! that is neither visible nor inside a block. So a persisted document or
//! an insert that disagrees with its index is refused.

use exq_index::sjoin::IntervalUniverse;
use exq_index::BlockTable;
use exq_xml::{
    unescape, Cursor, NodeId, NodeType, ParseError, Span, SpanBuilder, SpanDocument, TreeView,
    Verdict,
};
use std::borrow::Cow;
use std::ops::Range;

/// The visible document as it travels and is stored: its text, and the
/// byte of the text where each block was cut out, ascending. Its nodes'
/// positions follow from their order (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VisibleFragment {
    pub xml: String,
    pub offsets: Vec<u32>,
}

/// Where one position's visible node lies in the text (see
/// [`exq_xml::Span`]); `start == NOWHERE` at a position with none, and
/// `start == end` at a block's root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct At {
    start: u32,
    open_end: u32,
    end: u32,
}

const NOWHERE: u32 = u32::MAX;
const HIDDEN: At = At::empty(NOWHERE);

impl At {
    fn of(s: Span) -> At {
        At {
            start: s.start as u32,
            open_end: s.open_end as u32,
            end: s.end as u32,
        }
    }

    /// A block's root at `offset`.
    const fn empty(offset: u32) -> At {
        At {
            start: offset,
            open_end: offset,
            end: offset,
        }
    }

    fn is_block(self) -> bool {
        self.start == self.end && self.start != NOWHERE
    }

    fn shift(&mut self, by: i64) {
        let moved = |x: u32| (x as i64 + by) as u32;
        self.start = moved(self.start);
        self.open_end = moved(self.open_end);
        self.end = moved(self.end);
    }
}

/// Moves every visible span in `at` by `by` bytes.
fn shift(at: &mut [At], by: i64) {
    for a in at.iter_mut().filter(|a| a.start != NOWHERE) {
        a.shift(by);
    }
}

/// The nearest proper ancestor of `p` that has a visible node.
fn visible_parent(at: &[At], u: &IntervalUniverse, p: u32) -> Option<u32> {
    std::iter::successors(u.parent(p), |&q| u.parent(q)).find(|&q| at[q as usize].start != NOWHERE)
}

/// Refuses `p` as the next position read unless its nearest ancestor with
/// a visible node is `parent`.
fn follows(at: &[At], u: &IntervalUniverse, p: u32, parent: Option<u32>) -> Result<(), String> {
    if visible_parent(at, u, p) != parent {
        return Err("its intervals do not follow its tree".into());
    }
    Ok(())
}

/// Writes into `tag` the tag a visible node's name is filed under: an
/// element's name, an attribute's `@name`.
fn tag_of(doc: &SpanDocument, n: NodeId, element: bool, tag: &mut String) {
    let xml = doc.xml(n);
    tag.clear();
    if element {
        tag.push_str(xml[1..].split([' ', '>', '/']).next().unwrap_or_default());
    } else {
        tag.push('@');
        tag.push_str(xml.split('=').next().unwrap_or_default());
    }
}

/// The escaped text of the visible node `a`'s string value when it is one
/// run: an attribute's value, or the content of an element with no element
/// child in `xml` (a block cut out of it leaves no markup behind); `None`
/// for an element with one.
fn flat_value(xml: &str, a: At) -> Option<&str> {
    let (start, open_end, end) = (a.start as usize, a.open_end as usize, a.end as usize);
    let b = xml.as_bytes();
    if b[start] != b'<' {
        // `name="value"`, and a name holds no `"`.
        let quote = b[start..end].iter().position(|&c| c == b'"');
        return Some(&xml[start + quote.expect("an attribute is name=\"value\"") + 1..end - 1]);
    }
    if b[open_end] == b'/' {
        return Some("");
    }
    // The content's first `<` starts a child or, when there is none, the
    // close tag.
    let content = open_end + 1;
    let lt = b[content..end].iter().position(|&c| c == b'<');
    let lt = content + lt.expect("a close tag");
    (b[lt + 1] == b'/').then(|| &xml[content..lt])
}

/// Whether a value whose first byte is `c` may parse, once trimmed, as a
/// number other than NaN: one starts with a digit, a sign, `.` or the `i`
/// of `inf`, and white space (ASCII or not) may come before it. The text
/// escapes no digit or space, so an `&` starts none.
fn may_start_number(c: u8) -> bool {
    c.is_ascii_digit() || c <= b' ' || !c.is_ascii() || b"+-.iI".contains(&c)
}

/// The number a position keeps for its visible node `a` (see
/// [`VisibleText::number`]). A look at the first byte of a value spares
/// the scans and the parse for most text, and, before the content is
/// found, for every parent.
fn number_of(xml: &str, a: At) -> f64 {
    let b = xml.as_bytes();
    if b[a.start as usize] == b'<' && !may_start_number(b[a.open_end as usize + 1]) {
        return f64::NAN;
    }
    let number = flat_value(xml, a)
        .filter(|raw| raw.bytes().next().is_some_and(may_start_number))
        .and_then(|raw| unescape(raw).trim().parse::<f64>().ok());
    number.filter(|v| !v.is_nan()).unwrap_or(f64::NAN)
}

/// What a reply region keeps of a position (see [`VisibleText::region`]).
const SKIP: u8 = 0;
const CONTEXT: u8 = 1;
const WHOLE: u8 = 2;

/// The visible document as text plus per-position spans and numbers.
#[derive(Debug, Clone)]
pub(crate) struct VisibleText {
    xml: String,
    at: Vec<At>,
    /// Per position, see [`VisibleText::number`].
    numbers: Vec<f64>,
}

impl PartialEq for VisibleText {
    /// Numbers compare by their bits, so the NaN of a text to read equals
    /// itself.
    fn eq(&self, o: &VisibleText) -> bool {
        let bits = |t: &VisibleText| t.numbers.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.xml == o.xml && self.at == o.at && bits(self) == bits(o)
    }
}

impl VisibleText {
    /// Reads a fragment over `u`: span-parses its text, stopping at each
    /// block's offset, and walks `u`'s positions in ascending order beside
    /// the text's elements, attributes and blocks, stepping over each
    /// block's subtree. `block_at` tells which block covers a position,
    /// and `filed` the ascending positions the index files under a tag (an
    /// attribute's is `@name`). A block's root must be the next offset, any
    /// other position the next element or attribute. Refuses an offset
    /// inside markup, out of order or past the end, a node or an offset
    /// with no position left, a position left with neither, a fragment that
    /// does not follow `u`'s structure (see the module docs), and a node
    /// whose name is not a tag its position is filed under.
    pub(crate) fn read<'t>(
        frag: &VisibleFragment,
        u: &IntervalUniverse,
        block_at: impl Fn(u32) -> Option<u32>,
        filed: impl Fn(&str) -> &'t [u32],
    ) -> Result<VisibleText, String> {
        let offsets = &frag.offsets;
        // Where each block stands in the text as it is read.
        let mut places: Vec<Cursor> = Vec::with_capacity(offsets.len());
        let doc = match frag.xml.as_str() {
            "" => {
                if offsets.iter().any(|&o| o != 0) {
                    return Err("a block's offset is past the end of its empty text".into());
                }
                let root = Cursor {
                    parent: None,
                    next: NodeId(0),
                    offset: 0,
                };
                places.resize(offsets.len(), root);
                SpanDocument::default()
            }
            xml => {
                let mut b = SpanBuilder::with_capacity(xml.len());
                b.parse_stopping(
                    xml,
                    offsets,
                    |_, _| Ok::<_, ParseError>(Verdict::Keep),
                    |b, _| {
                        b.hold_open();
                        places.push(b.cursor());
                        Ok(())
                    },
                )
                .map_err(|e| e.to_string())?;
                b.finish()
            }
        };
        let mut at = vec![HIDDEN; u.len()];
        let mut numbers = vec![f64::NAN; u.len()];
        // Per node, its position; the blocks left, and the next position.
        let mut position = vec![NOWHERE; doc.len()];
        let mut blocks = places.iter().peekable();
        let mut next = 0;
        // Per name id, an element's and an attribute's apart: the positions
        // its tag is filed under that the walk, whose positions ascend, has
        // not passed.
        let mut unread: Vec<Option<&[u32]>> = Vec::new();
        // A name's tag, written into one buffer when first met.
        let mut tag = String::new();
        for i in 0..=doc.len() as u32 {
            // The blocks that stand before node `i`.
            while let Some(place) = blocks.next_if(|c| c.next.0 == i) {
                let p = next;
                if p as usize >= u.len() || block_at(p).is_none() {
                    return Err("an offset places no block's root".into());
                }
                let parent = place.parent.map(|q| position[q.index()]);
                follows(&at, u, p, parent)?;
                at[p as usize] = At::empty(place.offset as u32);
                next = u.end(p);
            }
            if i as usize == doc.len() {
                break;
            }
            let n = NodeId(i);
            let (element, name_id) = match doc.node_type(n) {
                NodeType::Text => continue,
                NodeType::Element(t) => (true, 2 * t.0 as usize),
                NodeType::Attribute(t) => (false, 2 * t.0 as usize + 1),
            };
            let p = next;
            if p as usize >= u.len() {
                return Err("a visible node has no position".into());
            }
            if block_at(p).is_some() {
                return Err("a block has no offset in the text".into());
            }
            let parent = doc.parent_of(n).map(|q| position[q.index()]);
            follows(&at, u, p, parent)?;
            if unread.len() <= name_id {
                unread.resize(name_id + 1, None);
            }
            let rest = unread[name_id].get_or_insert_with(|| {
                tag_of(&doc, n, element, &mut tag);
                filed(&tag)
            });
            while rest.first().is_some_and(|&q| q < p) {
                *rest = &rest[1..];
            }
            if rest.first() != Some(&p) {
                tag_of(&doc, n, element, &mut tag);
                return Err(format!("`{tag}` is not a tag its interval is filed under"));
            }
            at[p as usize] = At::of(doc.span(n));
            numbers[p as usize] = number_of(doc.text(), at[p as usize]);
            position[i as usize] = p;
            next = p + 1;
        }
        // The walk has placed or stepped over every position before `next`,
        // and the text has nothing left to place at one after it.
        if (next as usize) < u.len() {
            return Err(match block_at(next) {
                None => "a position is neither visible nor inside a block".into(),
                Some(_) => "a block has no offset in the text".into(),
            });
        }
        Ok(VisibleText {
            xml: doc.into_text(),
            at,
            numbers,
        })
    }

    /// The text: what the document's `to_xml` writes, blocks cut out.
    pub(crate) fn xml(&self) -> &str {
        &self.xml
    }

    /// Whether the position has a visible node or is a block's root.
    pub(crate) fn is_visible(&self, p: u32) -> bool {
        self.at[p as usize].start != NOWHERE
    }

    fn is_attribute(&self, a: At) -> bool {
        !a.is_block() && self.xml.as_bytes()[a.start as usize] != b'<'
    }

    /// The tag of the visible element at `p`; `None` for an attribute, a
    /// block's root or a position with no visible node.
    pub(crate) fn element_name(&self, p: u32) -> Option<&str> {
        let a = self.at[p as usize];
        if a.start == NOWHERE || a.is_block() || self.is_attribute(a) {
            return None;
        }
        let tag = &self.xml[a.start as usize + 1..a.open_end as usize];
        Some(tag.split_once(' ').map_or(tag, |(name, _)| name))
    }

    /// Where the element `a`'s close tag starts; `None` when it has none.
    fn close_start(&self, a: At) -> Option<usize> {
        let closing = &self.xml.as_bytes()[a.open_end as usize..a.end as usize];
        (closing != b"/>").then(|| self.xml[..a.end as usize].rfind('<').expect("a close tag"))
    }

    /// The XPath string value of the visible node at `p`: an attribute's
    /// value, or an element's text content with the tags stripped,
    /// unescaped. Borrowed from the text when it needs neither. `None` at
    /// a block's root, whose value the server cannot read.
    pub(crate) fn string_value(&self, p: u32) -> Option<Cow<'_, str>> {
        let a = self.at[p as usize];
        if a.start == NOWHERE || a.is_block() {
            return None;
        }
        if let Some(raw) = flat_value(&self.xml, a) {
            return Some(unescape(raw));
        }
        let close = self.close_start(a).expect("an element with children");
        let content = &self.xml[a.open_end as usize + 1..close];
        // Markup is written escaped, so a `>` in the text ends a tag.
        let mut text = String::with_capacity(content.len());
        let mut rest = content;
        while let Some(open) = rest.find('<') {
            text.push_str(&rest[..open]);
            let tag_end = rest[open..].find('>').expect("a tag ends") + open;
            rest = &rest[tag_end + 1..];
        }
        text.push_str(rest);
        Some(Cow::Owned(unescape(&text).into_owned()))
    }

    /// The number kept at `p` (see the module docs): its string value,
    /// trimmed, as an `f64`, or NaN, which means "read the text".
    pub(crate) fn number(&self, p: u32) -> f64 {
        self.numbers[p as usize]
    }

    /// Sets the number at `p` from the text, after an edit there.
    fn renumber(&mut self, p: u32) {
        self.numbers[p as usize] = number_of(&self.xml, self.at[p as usize]);
    }

    /// Writes the reply region of `wholes`, visible positions each kept
    /// with its subtree, and appends to `ids` and `offsets` each block in
    /// it and its offset in the region, in document order. A position's
    /// ancestors are kept as context: an element with its attributes and
    /// its kept children. Marking follows each chain up to the first
    /// position already marked and bounds the region's size, so the string
    /// is sized once; writing is one ascending pass over
    /// positions that steps over every subtree it does not keep, copies a
    /// whole subtree as one slice, and finds the blocks inside one from
    /// the block table alone.
    pub(crate) fn region(
        &self,
        u: &IntervalUniverse,
        blocks: &BlockTable,
        wholes: &[u32],
        ids: &mut Vec<u32>,
        offsets: &mut Vec<u32>,
    ) -> String {
        let mut marks = vec![SKIP; u.len()];
        // The most the region can take: each whole's span, and each context
        // element's start tag twice (once as its close tag) and three bytes
        // of `>`, `</` and `>`; never more than the text.
        let mut size = 0;
        for &w in wholes {
            marks[w as usize] = WHOLE;
            let a = self.at[w as usize];
            size += (a.end - a.start) as usize;
            let mut cur = w;
            while let Some(p) = visible_parent(&self.at, u, cur) {
                if marks[p as usize] != SKIP {
                    break;
                }
                marks[p as usize] = CONTEXT;
                let a = self.at[p as usize];
                size += 2 * (a.open_end - a.start) as usize + 3;
                cur = p;
            }
        }
        let size = size.min(self.xml.len());
        let mut out = String::with_capacity(size);
        // Context elements written up to their start tag, each with
        // whether its `>` is out yet.
        let mut open: Vec<(u32, bool)> = Vec::new();
        let mut p = 0;
        loop {
            while let Some(&(c, wrote)) = open.last() {
                if p < u.end(c) {
                    break;
                }
                match wrote {
                    true => {
                        out.push_str("</");
                        out.push_str(self.element_name(c).expect("a context element"));
                        out.push('>');
                    }
                    false => out.push_str("/>"),
                }
                open.pop();
            }
            if p as usize >= self.at.len() {
                break;
            }
            let a = self.at[p as usize];
            if a.start == NOWHERE {
                p += 1;
                continue;
            }
            let mark = marks[p as usize];
            // Attributes are written with their element's start tag.
            if mark == SKIP || self.is_attribute(a) {
                p = u.end(p);
                continue;
            }
            if let Some((_, wrote @ false)) = open.last_mut() {
                out.push('>');
                *wrote = true;
            }
            if mark == WHOLE {
                let to = out.len() as u32;
                out.push_str(&self.xml[a.start as usize..a.end as usize]);
                self.blocks_in(u, blocks, p..u.end(p), (a.start, to), ids, offsets);
                p = u.end(p);
            } else {
                out.push_str(&self.xml[a.start as usize..a.open_end as usize]);
                open.push((p, false));
                p += 1;
            }
        }
        debug_assert!(out.len() <= size, "a region past its size");
        out
    }

    /// Appends the blocks among positions `ps`, a run of whole subtrees,
    /// and their offsets moved from text byte `moved.0` to `moved.1`: the
    /// covered positions a walk meets first, each a block's root, whose
    /// subtree it steps over.
    fn blocks_in(
        &self,
        u: &IntervalUniverse,
        blocks: &BlockTable,
        ps: Range<u32>,
        (from, to): (u32, u32),
        ids: &mut Vec<u32>,
        offsets: &mut Vec<u32>,
    ) {
        let mut q = ps.start;
        while q < ps.end {
            match blocks.block_at(q) {
                Some(b) => {
                    let a = self.at[q as usize];
                    debug_assert!(a.is_block(), "a block's root has an offset");
                    ids.push(b);
                    offsets.push(to + (a.start - from));
                    q = u.end(q);
                }
                None => q += 1,
            }
        }
    }

    /// Moves the span ends of `p` and its visible ancestors by `by` bytes.
    fn stretch_up(&mut self, u: &IntervalUniverse, p: u32, by: i64) {
        for q in std::iter::successors(Some(p), |&q| u.parent(q)) {
            let a = &mut self.at[q as usize];
            if a.start != NOWHERE {
                a.end = (a.end as i64 + by) as u32;
            }
        }
    }

    /// Follows an insert's splice of `frag`'s positions at `at`, the last
    /// members under the visible element at `under` (`u` is the universe
    /// after it): `frag`, the inserted subtree read over its own run of
    /// positions, goes in as the element's last content.
    pub(crate) fn splice_in(
        &mut self,
        u: &IntervalUniverse,
        under: u32,
        at: u32,
        frag: VisibleText,
    ) {
        let parent = self.at[under as usize];
        let before = self.xml.len();
        let into = match self.close_start(parent) {
            Some(close) => {
                self.xml.insert_str(close, &frag.xml);
                close
            }
            None => {
                // `<p …/>` becomes `<p …>…</p>`.
                let tag = self.element_name(under).expect("a visible element");
                let content = format!(">{}</{tag}>", frag.xml);
                let slash = parent.open_end as usize;
                self.xml.replace_range(slash..slash + 2, &content);
                slash + 1
            }
        };
        let by = self.xml.len() as i64 - before as i64;
        let (i, k) = (at as usize, frag.at.len());
        self.at.splice(i..i, frag.at);
        self.numbers.splice(i..i, frag.numbers);
        shift(&mut self.at[i..i + k], into as i64);
        shift(&mut self.at[i + k..], by);
        self.stretch_up(u, under, by);
        self.renumber(under);
    }

    /// Whether the element at `q` has a child other than `p` that is an
    /// element or a block.
    fn holds_another(&self, u: &IntervalUniverse, q: u32, p: u32) -> bool {
        let mut c = q + 1;
        while c < u.end(q) {
            let a = self.at[c as usize];
            if c != p && a.start != NOWHERE && !self.is_attribute(a) {
                return true;
            }
            c = u.end(c);
        }
        false
    }

    /// Cuts the visible node or block at `p` out of the text with its
    /// subtree (`u` is the universe before the cut, which the caller then
    /// makes) and drops the spans of `p`'s run of positions. A parent
    /// element left with no content and no block is written empty,
    /// `<p …/>`, as the writer writes it.
    pub(crate) fn cut(&mut self, u: &IntervalUniverse, p: u32) {
        let (a, attribute) = (self.at[p as usize], self.is_attribute(self.at[p as usize]));
        let parent = visible_parent(&self.at, u, p);
        let (range, with) = match parent.map(|q| (q, self.at[q as usize])) {
            // An attribute goes with the space before it.
            _ if attribute => (a.start as usize - 1..a.end as usize, ""),
            Some((q, pa))
                if pa.open_end + 1 == a.start
                    && self.close_start(pa) == Some(a.end as usize)
                    && !self.holds_another(u, q, p) =>
            {
                (pa.open_end as usize..pa.end as usize, "/>")
            }
            _ => (a.start as usize..a.end as usize, ""),
        };
        let by = with.len() as i64 - range.len() as i64;
        self.xml.replace_range(range, with);
        self.at.drain(p as usize..u.end(p) as usize);
        self.numbers.drain(p as usize..u.end(p) as usize);
        shift(&mut self.at[p as usize..], by);
        if let Some(q) = parent {
            if attribute {
                let pa = &mut self.at[q as usize];
                pa.open_end = (pa.open_end as i64 + by) as u32;
            }
            self.stretch_up(u, q, by);
            self.renumber(q);
        }
    }

    /// Every block root's offset, in document order: the persisted places
    /// of the blocks.
    pub(crate) fn block_offsets(&self) -> Vec<u32> {
        let roots = self.at.iter().filter(|a| a.is_block());
        roots.map(|a| a.start).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::SecurityConstraint;
    use crate::scheme::SchemeKind;
    use crate::system::{OutsourceConfig, Outsourcer};
    use crate::Server;
    use exq_xml::{Document, NodeKind};

    /// A hospital with attributes, escapes, an empty element and text
    /// beside elements.
    fn hospital() -> Document {
        let mut xml = String::from("<hospital name=\"St &amp; Co\">");
        for i in 0..6 {
            xml.push_str(&format!(
                "<patient id=\"{i}\"><pname>P{i} &lt;{i}&gt;</pname><SSN>{:06}</SSN>\
                 <age>{}</age><treat><disease>flu</disease><doctor/></treat>\
                 <insurance><policy coverage=\"{}\">{}</policy></insurance>\
                 note {i}</patient>",
                100 + i,
                20 + 7 * i,
                1000 * i,
                10 + i
            ));
        }
        xml.push_str("<ward/></hospital>");
        Document::parse(&xml).unwrap()
    }

    /// XMark's shapes at a small size: regions of items with mixed-content
    /// descriptions, people with optional parts, open auctions with
    /// bidders, an empty element, quotes and ampersands in values.
    fn xmark() -> Document {
        let mut xml = String::from("<site><regions><africa>");
        for i in 0..4 {
            xml.push_str(&format!(
                "<item id=\"item{i}\"><location>Zone {i}</location><name>thing {i}</name>\
                 <description><text>gold <bold>and</bold> &amp; <emph>silver</emph> {i}\
                 </text></description><mailbox/></item>"
            ));
        }
        xml.push_str("</africa></regions><people>");
        for i in 0..5 {
            xml.push_str(&format!(
                "<person id=\"person{i}\"><name>N &quot;{i}&quot;</name>"
            ));
            if i % 2 == 0 {
                xml.push_str(&format!(
                    "<address><street>{i} Main St</street><city>City{i}</city></address>\
                     <creditcard>1234 {i}</creditcard>"
                ));
            }
            xml.push_str(&format!(
                "<profile income=\"{}\"><interest category=\"c{i}\"/><age>{}</age></profile>\
                 </person>",
                1000 * i,
                30 + i
            ));
        }
        xml.push_str("</people><open_auctions>");
        for i in 0..3 {
            xml.push_str(&format!(
                "<open_auction id=\"a{i}\"><initial>{i}.5</initial>\
                 <bidder><date>0{i}/01/2000</date><increase>{i}.00</increase></bidder>\
                 <itemref item=\"item{i}\"/><seller person=\"person{i}\"/></open_auction>"
            ));
        }
        xml.push_str("</open_auctions></site>");
        Document::parse(&xml).unwrap()
    }

    /// Values in every form a number takes, and some that only look like
    /// one, in leaves, attributes, mixed content and beside a block.
    fn numbers() -> Document {
        let mut xml = String::from("<r>");
        for v in [
            " 5", "+5", ".5", "5.", "1e3", "inf", "-inf", "Infinity", "NaN", "nan", "\u{a0}8",
            "&#53;", "\t7\n", "x5", "5x", "4 0", "0x10", "-0", "", "&lt;3",
        ] {
            xml.push_str(&format!("<a>{v}</a>"));
        }
        xml.push_str("<m>4<k/>2</m><e/><b v=\" 9\" w=\"+1e2\" z=\"abc\" y=\"-0\"/>");
        xml.push_str("<p>6<s>1</s></p><s><a>11</a>12</s></r>");
        Document::parse(&xml).unwrap()
    }

    fn servers() -> Vec<Server> {
        let hospital_cs = ["//insurance", "//patient:(/pname, /SSN)", "//treat"];
        let xmark_cs = ["//creditcard", "//person:(/name, /address)", "//bidder"];
        let numbers_cs = ["//s"];
        [
            (hospital(), &hospital_cs[..]),
            (xmark(), &xmark_cs[..]),
            (numbers(), &numbers_cs[..]),
        ]
        .into_iter()
        .flat_map(|(doc, cs)| {
            let cs: Vec<SecurityConstraint> = cs
                .iter()
                .map(|c| SecurityConstraint::parse(c).unwrap())
                .collect();
            [SchemeKind::Opt, SchemeKind::Sub, SchemeKind::App].map(|kind| {
                Outsourcer::new(OutsourceConfig::default())
                    .outsource(&doc, &cs, kind, 7)
                    .unwrap()
                    .split()
                    .1
            })
        })
        .collect()
    }

    /// The definition the copy replaces: the nodes' subtrees and their
    /// ancestors with their attributes, copied out of `doc` into a fresh
    /// document and serialized.
    fn reference(doc: &Document, nodes: &[NodeId]) -> String {
        let mut member = vec![false; doc.arena_len()];
        for &v in nodes {
            for n in doc.descendants(v) {
                member[n.index()] = true;
            }
            for anc in doc.ancestors(v) {
                member[anc.index()] = true;
                for &a in doc.node(anc).attrs() {
                    member[a.index()] = true;
                }
            }
        }
        fn copy(d: &Document, n: NodeId, up: Option<NodeId>, member: &[bool], out: &mut Document) {
            if !member[n.index()] {
                return;
            }
            match d.node(n).kind() {
                NodeKind::Element(t) => {
                    let el = out.add_element(up, d.tag_name(*t));
                    for &c in d.node(n).attrs().iter().chain(d.node(n).children()) {
                        copy(d, c, Some(el), member, out);
                    }
                }
                NodeKind::Text(t) => {
                    out.add_text(up.unwrap(), t);
                }
                NodeKind::Attribute(name, v) => {
                    out.add_attr(up.unwrap(), d.tag_name(*name), v);
                }
            }
        }
        let mut fresh = Document::new();
        if let Some(root) = doc.root() {
            copy(doc, root, None, &member, &mut fresh);
        }
        fresh.to_xml()
    }

    /// Where a test writes a block into a text: an element no test
    /// document uses, carrying the block's id.
    const BLOCK: &str = "blk";

    /// `xml` with a `<blk n="ID"/>` element written at each of `offsets`,
    /// which ascend: the tree the reference copies from.
    fn with_blocks(xml: &str, ids: &[u32], offsets: &[u32]) -> String {
        let mut out = xml.to_owned();
        for (id, &o) in ids.iter().zip(offsets).rev() {
            out.insert_str(o as usize, &format!("<{BLOCK} n=\"{id}\"/>"));
        }
        out
    }

    /// [`with_blocks`] undone: `xml` with each `<blk n="ID"/>` cut out, and
    /// each one's id and offset in what is left, in document order.
    fn strip_blocks(xml: &str) -> (String, Vec<u32>, Vec<u32>) {
        let (mut text, mut ids, mut offsets) = (String::new(), Vec::new(), Vec::new());
        let mut rest = xml;
        let open = format!("<{BLOCK} n=\"");
        while let Some(at) = rest.find(&open) {
            text.push_str(&rest[..at]);
            let (id, after) = rest[at + open.len()..].split_once("\"/>").unwrap();
            ids.push(id.parse().unwrap());
            offsets.push(text.len() as u32);
            rest = after;
        }
        text.push_str(rest);
        (text, ids, offsets)
    }

    /// Every block of a server's text and its offset, in document order:
    /// what the root's region ships.
    fn all_blocks(s: &Server) -> (Vec<u32>, Vec<u32>) {
        let u = s.metadata().dsi_table.universe();
        let root: &[u32] = if u.is_empty() { &[] } else { &[0] };
        let (mut ids, mut offsets) = (Vec::new(), Vec::new());
        let blocks = &s.metadata().block_table;
        let region = s
            .visible_text()
            .region(u, blocks, root, &mut ids, &mut offsets);
        assert_eq!(region, s.visible_xml());
        (ids, offsets)
    }

    /// A server's visible text with its blocks written in, parsed, and
    /// each visible position and block root paired with its node there:
    /// checked to write back as the text and to read back as the spans.
    fn placed(s: &Server) -> (Document, Vec<(u32, NodeId)>) {
        let v = s.visible_text();
        let u = s.metadata().dsi_table.universe();
        let (ids, offsets) = all_blocks(s);
        let doc = match with_blocks(v.xml(), &ids, &offsets) {
            xml if xml.is_empty() => Document::new(),
            xml => Document::parse(&xml).unwrap(),
        };
        assert_eq!(
            strip_blocks(&doc.to_xml()),
            (v.xml().to_owned(), ids, offsets)
        );
        let (marks, nodes): (Vec<NodeId>, Vec<NodeId>) = doc
            .iter()
            .filter(|&n| !doc.node(n).is_text())
            .filter(|&n| {
                let up = doc.node(n).parent();
                up.is_none_or(|p| doc.element_name(p) != Some(BLOCK))
            })
            .partition(|&n| doc.element_name(n) == Some(BLOCK));
        let frag = VisibleFragment {
            xml: v.xml().to_owned(),
            offsets: v.block_offsets(),
        };
        // The k-th visible position is the k-th node, the k-th block root
        // the k-th block.
        let (roots, visible): (Vec<u32>, Vec<u32>) = (0..u.len() as u32)
            .filter(|&p| v.is_visible(p))
            .partition(|&p| v.at[p as usize].is_block());
        assert_eq!((visible.len(), roots.len()), (nodes.len(), marks.len()));
        let mut placed: Vec<(u32, NodeId)> = visible
            .into_iter()
            .zip(nodes)
            .chain(roots.into_iter().zip(marks))
            .collect();
        placed.sort_unstable();
        let blocks = &s.metadata().block_table;
        let dsi = &s.metadata().dsi_table;
        let read = VisibleText::read(&frag, u, |p| blocks.block_at(p), |t| dsi.positions(t));
        assert_eq!(read.as_ref(), Ok(v));
        (doc, placed)
    }

    /// Every visible position and block root alone, and pairs of them,
    /// copied out of the text against the reference over the reparsed
    /// document with its blocks written in; every visible position's string
    /// value and number against the tree's.
    #[test]
    fn copied_regions_equal_copy_then_serialize() {
        let mut checked = 0;
        for s in servers() {
            let v = s.visible_text();
            let u = s.metadata().dsi_table.universe();
            let blocks = &s.metadata().block_table;
            let (doc, placed) = placed(&s);
            checked += placed.len();
            for &(p, n) in &placed {
                match doc.element_name(n) {
                    Some(BLOCK) => assert_eq!(v.string_value(p), None),
                    _ => assert_eq!(v.string_value(p).unwrap(), doc.text_value(n), "at {p}"),
                }
                // A number for an attribute, and for an element whose
                // children are text and blocks, when its value parses.
                let flat = (doc.node(n).children().iter())
                    .all(|&c| doc.node(c).is_text() || doc.element_name(c) == Some(BLOCK));
                let number = match doc.text_value(n).trim().parse::<f64>() {
                    Ok(x) if flat && doc.element_name(n) != Some(BLOCK) => x,
                    _ => f64::NAN,
                };
                let bits = |x: f64| {
                    if x.is_nan() {
                        f64::NAN.to_bits()
                    } else {
                        x.to_bits()
                    }
                };
                assert_eq!(bits(v.number(p)), bits(number), "at {p}");
            }
            let check = |ps: &[(u32, NodeId)]| {
                let wholes: Vec<u32> = ps.iter().map(|&(p, _)| p).collect();
                let ns: Vec<NodeId> = ps.iter().map(|&(_, n)| n).collect();
                let (mut ids, mut offsets) = (Vec::new(), Vec::new());
                let region = v.region(u, blocks, &wholes, &mut ids, &mut offsets);
                let want = strip_blocks(&reference(&doc, &ns));
                assert_eq!((region, ids, offsets), want, "{wholes:?}");
            };
            check(&[]);
            for (i, &x) in placed.iter().enumerate() {
                check(&[x]);
                for &y in placed.iter().skip(i % 7).step_by(7) {
                    check(&[x, y]);
                }
            }
        }
        assert!(checked > 300, "{checked} visible positions");
    }

    /// One outsourced document under `constraints`.
    fn hosted(xml: &str, constraints: &[&str], kind: SchemeKind) -> (crate::Client, Server) {
        let cs: Vec<SecurityConstraint> = constraints
            .iter()
            .map(|c| SecurityConstraint::parse(c).unwrap())
            .collect();
        Outsourcer::new(OutsourceConfig::default())
            .outsource(&Document::parse(xml).unwrap(), &cs, kind, 3)
            .unwrap()
            .split()
    }

    /// The position of the first visible element named `tag`.
    fn named(s: &Server, tag: &str) -> u32 {
        let u = s.metadata().dsi_table.universe();
        (0..u.len() as u32)
            .find(|&p| s.visible_text().element_name(p) == Some(tag))
            .unwrap()
    }

    /// The block roots under the visible element at `p`.
    fn blocks_under(s: &Server, p: u32) -> Vec<u32> {
        let u = s.metadata().dsi_table.universe();
        let v = s.visible_text();
        (p + 1..u.end(p))
            .filter(|&q| v.at[q as usize].is_block())
            .collect()
    }

    /// An element whose only children are blocks is written with a close
    /// tag, both blocks at one offset inside it. Cutting one leaves it
    /// open around the other; cutting that one too writes it empty.
    #[test]
    fn two_blocks_at_one_offset_collapse_only_when_both_are_cut() {
        let (_, mut s) = hosted(
            "<h><p><n>a</n><cover><c>1</c><c>2</c></cover></p></h>",
            &["//c"],
            SchemeKind::Opt,
        );
        assert_eq!(s.visible_xml(), "<h><p><n>a</n><cover></cover></p></h>");
        let cover = named(&s, "cover");
        let (_, offsets) = all_blocks(&s);
        assert_eq!(offsets, [21, 21]);
        placed(&s);
        let u = s.metadata().dsi_table.universe();
        let first = u.interval(blocks_under(&s, cover)[0]);
        assert!(s.remove_visible_subtree(&first));
        assert_eq!(s.visible_xml(), "<h><p><n>a</n><cover></cover></p></h>");
        placed(&s);
        let u = s.metadata().dsi_table.universe();
        let second = u.interval(blocks_under(&s, cover)[0]);
        assert!(s.remove_visible_subtree(&second));
        assert_eq!(s.visible_xml(), "<h><p><n>a</n><cover/></p></h>");
        assert!(blocks_under(&s, cover).is_empty());
        placed(&s);
    }

    /// A record that is one block, inserted under an empty element, opens
    /// it around the block's offset.
    #[test]
    fn a_block_only_record_opens_an_empty_parent() {
        let (mut client, mut s) = hosted(
            "<h><p><n>a</n><c>1</c></p><q/></h>",
            &["//c"],
            SchemeKind::Opt,
        );
        assert_eq!(s.visible_xml(), "<h><p><n>a</n></p><q/></h>");
        let q = s.metadata().dsi_table.universe().interval(named(&s, "q"));
        let slot = s.insertion_slot(q).unwrap();
        let delta = client.prepare_insert(&slot, "<c>2</c>", 1).unwrap();
        assert_eq!(delta.visible.xml, "");
        assert_eq!(delta.visible.offsets, [0]);
        s.apply_insert(&delta).unwrap();
        assert_eq!(s.visible_xml(), "<h><p><n>a</n></p><q></q></h>");
        assert_eq!(blocks_under(&s, named(&s, "q")).len(), 1);
        placed(&s);
        let answer = |s: &Server| {
            let mut link = crate::transport::InProcess::shared(s);
            client.run(&mut link, "//q/c").unwrap().2.results
        };
        assert_eq!(answer(&s), ["<c>2</c>"]);
        let reloaded = Server::load_bytes(&s.save_bytes().unwrap()).unwrap();
        assert_eq!(reloaded.visible_text(), s.visible_text());
    }

    /// A document whose root is a block is an empty text with one block
    /// at offset 0: it reads, copies, ships and reloads as that.
    #[test]
    fn a_root_block_is_an_empty_text_with_one_offset() {
        let (client, s) = hosted("<h><p>a</p><p>b</p></h>", &["//h"], SchemeKind::Opt);
        assert_eq!(s.visible_xml(), "");
        let u = s.metadata().dsi_table.universe();
        let blocks = &s.metadata().block_table;
        assert_eq!(s.block_offsets(), [0]);
        let (mut ids, mut offsets) = (Vec::new(), Vec::new());
        assert_eq!(
            s.visible_text()
                .region(u, blocks, &[0], &mut ids, &mut offsets),
            ""
        );
        assert_eq!((ids, offsets), (vec![0], vec![0]));
        placed(&s);
        let mut link = crate::transport::InProcess::shared(&s);
        let got = client.run(&mut link, "//p").unwrap().2.results;
        assert_eq!(got, ["<p>a</p>", "<p>b</p>"]);
        let reloaded = Server::load_bytes(&s.save_bytes().unwrap()).unwrap();
        assert_eq!(reloaded.visible_text(), s.visible_text());
    }

    /// `frag` with its text's first `from` replaced by `to`, and the
    /// offsets after it moved with the text.
    fn text_edited(frag: &VisibleFragment, from: &str, to: &str) -> VisibleFragment {
        let at = frag.xml.find(from).expect("the text to edit");
        let moved = |o: u32| match o as usize {
            o if o <= at => o,
            o if o >= at + from.len() => o + to.len() - from.len(),
            _ => panic!("an offset inside the edit"),
        };
        VisibleFragment {
            xml: frag.xml.replacen(from, to, 1),
            offsets: frag.offsets.iter().map(|&o| moved(o) as u32).collect(),
        }
    }

    /// A fragment edited in its text or its offsets is refused, naming
    /// what the walk over the universe met.
    #[test]
    fn documents_that_do_not_follow_the_universe_are_refused() {
        let (_, s) = hosted(
            "<h><p><age>30</age><n k=\"1\">a</n></p><p><age>41</age><n k=\"2\">b</n></p></h>",
            &["//age"],
            SchemeKind::Opt,
        );
        let u = s.metadata().dsi_table.universe();
        let blocks = &s.metadata().block_table;
        let dsi = &s.metadata().dsi_table;
        let read = |frag: &VisibleFragment| {
            VisibleText::read(frag, u, |p| blocks.block_at(p), |tag| dsi.positions(tag))
        };
        let good = VisibleFragment {
            xml: s.visible_xml().to_owned(),
            offsets: s.block_offsets(),
        };
        assert_eq!(
            good.xml,
            "<h><p><n k=\"1\">a</n></p><p><n k=\"2\">b</n></p></h>"
        );
        assert_eq!(good.offsets, [6, 27]);
        assert_eq!(&read(&good).unwrap(), s.visible_text());
        let offsets = |offsets: &[u32]| VisibleFragment {
            xml: good.xml.clone(),
            offsets: offsets.to_vec(),
        };
        let (follow, filed) = (
            "do not follow its tree",
            "is not a tag its interval is filed",
        );
        let (no_offset, no_root) = ("a block has no offset", "an offset places no block's root");
        let n1 = "<n k=\"1\">a</n>";
        let cases = [
            // An extra attribute, a dropped one, a dropped element.
            (text_edited(&good, "k=\"1\"", "k=\"1\" j=\"0\""), follow),
            (text_edited(&good, " k=\"1\"", ""), follow),
            (text_edited(&good, n1, ""), follow),
            // An element moved out of its parent.
            (
                text_edited(&good, &format!("{n1}</p>"), &format!("</p>{n1}")),
                follow,
            ),
            // A renamed element, a renamed attribute.
            (
                text_edited(&good, "<n k=\"2\">b</n>", "<m k=\"2\">b</m>"),
                filed,
            ),
            (text_edited(&good, "k=\"2\"", "j=\"2\""), filed),
            // An extra element, and the last attribute dropped.
            (
                text_edited(&good, "</h>", "<x/></h>"),
                "a visible node has no position",
            ),
            (
                text_edited(&good, " k=\"2\"", ""),
                "neither visible nor inside a block",
            ),
            // A dropped, an extra, a moved offset, and one past the end.
            (offsets(&[6]), no_offset),
            (offsets(&[6, 6, 27]), no_root),
            (offsets(&[3, 27]), no_root),
            (offsets(&[6, 60]), "past the end"),
            // A block swapped for a visible node.
            (
                text_edited(&offsets(&[27]), "<p><n", "<p><x/><n"),
                no_offset,
            ),
        ];
        for (frag, why) in cases {
            let err = read(&frag).unwrap_err();
            assert!(err.contains(why), "{frag:?}: {err}");
        }
    }
}
