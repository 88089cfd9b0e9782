//! The server's visible document, held as its own serialization.
//!
//! The text is byte for byte what the document's `to_xml` writes, and
//! beside it, per position of the DSI table's interval universe, the byte
//! span of the visible node with that interval (text nodes have no
//! position; a position strictly inside an encryption block has no visible
//! node). A reply region is copied out of the text by position: a subtree
//! kept whole is one slice, a context element is its start tag, its kept
//! children and a close tag. There is no tree beside the text. Inserts and
//! deletes edit the text in place and move the later spans by the number
//! of bytes they added or removed.
//!
//! The client hands the server a [`VisibleFragment`], at set-up and with
//! every insert, and the server persists one: the text, and the interval of
//! each labelled element and attribute keyed by its ordinal. One reader,
//! [`VisibleText::read`], turns it into spans over a universe and checks
//! that they follow the universe's structure: every visible element has a
//! position, the positions of visible nodes ascend in document order, the
//! nearest ancestor with a visible node of any visible node's position is
//! the position of its parent element, and every position without a
//! visible node lies inside a block. So a persisted document or an insert
//! that disagrees with its index is refused.

use crate::encrypt::BLOCK_MARKER_TAG;
use exq_index::dsi::Interval;
use exq_index::sjoin::IntervalUniverse;
use exq_index::BlockTable;
use exq_xml::{unescape, NodeId, NodeType, Span, SpanDocument, TreeView};
use std::borrow::Cow;

/// The visible document as it travels and is stored: its text, and
/// `(ordinal, interval)` for each element and attribute that has an
/// interval, ordinals ascending. A node's ordinal is its place among the
/// elements and attributes in document order, an element before its
/// attributes; a block marker's id attribute has none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VisibleFragment {
    pub xml: String,
    pub intervals: Vec<(u32, Interval)>,
}

/// Where one position's visible node lies in the text (see
/// [`exq_xml::Span`]); `start == NOWHERE` at a position with none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct At {
    start: u32,
    open_end: u32,
    end: u32,
}

const NOWHERE: u32 = u32::MAX;
const HIDDEN: At = At {
    start: NOWHERE,
    open_end: NOWHERE,
    end: NOWHERE,
};

impl At {
    fn of(s: Span) -> At {
        At {
            start: s.start as u32,
            open_end: s.open_end as u32,
            end: s.end as u32,
        }
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

/// What a reply region keeps of a position (see [`VisibleText::region`]).
const SKIP: u8 = 0;
const CONTEXT: u8 = 1;
const WHOLE: u8 = 2;

/// The visible document as text plus per-position spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VisibleText {
    xml: String,
    at: Vec<At>,
}

impl VisibleText {
    /// Reads a fragment over `u`: span-parses its text and places each
    /// pair's node at its interval's position. `covered` tells whether a
    /// block covers a position, and `filed` the ascending positions the
    /// index files under a tag (an attribute's is `@name`). Refuses a pair
    /// whose ordinal names no element or attribute, ordinals that do not
    /// ascend, an interval `u` lacks, a fragment that does not follow
    /// `u`'s structure (see the module docs), and a node whose name is not
    /// a tag its position is filed under (a block marker's excepted).
    pub(crate) fn read<'t>(
        frag: &VisibleFragment,
        u: &IntervalUniverse,
        covered: impl Fn(u32) -> bool,
        filed: impl Fn(&str) -> &'t [u32],
    ) -> Result<VisibleText, String> {
        if frag.intervals.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("its ordinals do not ascend".into());
        }
        let doc = match frag.xml.as_str() {
            "" => SpanDocument::default(),
            xml => SpanDocument::parse(xml).map_err(|e| e.to_string())?,
        };
        let mut at = vec![HIDDEN; u.len()];
        // Per node, its position; the pairs left, and the next ordinal.
        let mut position = vec![NOWHERE; doc.len()];
        let (mut pairs, mut ordinal) = (frag.intervals.iter().peekable(), 0);
        let mut last = None;
        // Per name id, an element's and an attribute's apart: the positions
        // its tag is filed under that the walk, whose positions ascend, has
        // not passed; `None` for a block marker, whose name is exempt.
        let mut unread: Vec<Option<Option<&[u32]>>> = Vec::new();
        // A name's tag, written into one buffer when first met.
        let mut tag = String::new();
        for i in 0..doc.len() as u32 {
            let n = NodeId(i);
            let (element, name_id) = match doc.node_type(n) {
                NodeType::Text => continue,
                NodeType::Element(t) => (true, 2 * t.0 as usize),
                NodeType::Attribute(t) => (false, 2 * t.0 as usize + 1),
            };
            let here = ordinal;
            ordinal += 1;
            let Some(&(_, iv)) = pairs.next_if(|&&(o, _)| o == here) else {
                if element {
                    return Err("a visible element has no interval".into());
                }
                continue;
            };
            let p = u.find(&iv).ok_or("an interval is not in the index")?;
            let parent = doc.parent_of(n).map(|q| position[q.index()]);
            if last.is_some_and(|l| l >= p) || visible_parent(&at, u, p) != parent {
                return Err("its intervals do not follow its tree".into());
            }
            if unread.len() <= name_id {
                unread.resize(name_id + 1, None);
            }
            if unread[name_id].is_none() {
                tag_of(&doc, n, element, &mut tag);
                unread[name_id] = Some((tag != BLOCK_MARKER_TAG).then(|| filed(&tag)));
            }
            if let Some(Some(rest)) = &mut unread[name_id] {
                while rest.first().is_some_and(|&q| q < p) {
                    *rest = &rest[1..];
                }
                if rest.first() != Some(&p) {
                    tag_of(&doc, n, element, &mut tag);
                    return Err(format!("`{tag}` is not a tag its interval is filed under"));
                }
            }
            at[p as usize] = At::of(doc.span(n));
            position[i as usize] = p;
            last = Some(p);
        }
        if pairs.next().is_some() {
            return Err("an ordinal names no element or attribute".into());
        }
        if (0..u.len() as u32).any(|p| at[p as usize].start == NOWHERE && !covered(p)) {
            return Err("a position is neither visible nor inside a block".into());
        }
        Ok(VisibleText {
            xml: doc.into_text(),
            at,
        })
    }

    /// The text: exactly what the document's `to_xml` writes.
    pub(crate) fn xml(&self) -> &str {
        &self.xml
    }

    /// Whether the position has a visible node.
    pub(crate) fn is_visible(&self, p: u32) -> bool {
        self.at[p as usize].start != NOWHERE
    }

    fn is_attribute(&self, a: At) -> bool {
        self.xml.as_bytes()[a.start as usize] != b'<'
    }

    /// The tag of the visible element at `p`; `None` for an attribute or a
    /// position with no visible node.
    pub(crate) fn element_name(&self, p: u32) -> Option<&str> {
        let a = self.at[p as usize];
        if a.start == NOWHERE || self.is_attribute(a) {
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
    /// unescaped. Borrowed from the text when it needs neither.
    pub(crate) fn string_value(&self, p: u32) -> Option<Cow<'_, str>> {
        let a = self.at[p as usize];
        if a.start == NOWHERE {
            return None;
        }
        let node = &self.xml[a.start as usize..a.end as usize];
        if self.is_attribute(a) {
            let (_, quoted) = node
                .split_once("=\"")
                .expect("an attribute is name=\"value\"");
            return Some(unescape(&quoted[..quoted.len() - 1]));
        }
        let Some(close) = self.close_start(a) else {
            return Some(Cow::Borrowed(""));
        };
        let content = &self.xml[a.open_end as usize + 1..close];
        if !content.contains('<') {
            return Some(unescape(content));
        }
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

    /// Writes the reply region of `wholes`, visible positions each kept
    /// with its subtree, and appends to `block_ids` the blocks whose
    /// markers the region holds. A position's ancestors are kept as
    /// context: an element with its attributes and its kept children.
    /// Marking follows each chain up to the first position already marked;
    /// writing is one ascending pass over positions that steps over every
    /// subtree it does not keep, copies a whole subtree as one slice, and
    /// finds the markers inside one from the block table alone.
    pub(crate) fn region(
        &self,
        u: &IntervalUniverse,
        blocks: &BlockTable,
        wholes: &[u32],
        block_ids: &mut Vec<u32>,
    ) -> String {
        let mut marks = vec![SKIP; u.len()];
        for &w in wholes {
            marks[w as usize] = WHOLE;
            let mut cur = w;
            while let Some(p) = visible_parent(&self.at, u, cur) {
                if marks[p as usize] != SKIP {
                    break;
                }
                marks[p as usize] = CONTEXT;
                cur = p;
            }
        }
        let mut out = String::new();
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
                out.push_str(&self.xml[a.start as usize..a.end as usize]);
                self.markers_in(u, blocks, p, block_ids);
                p = u.end(p);
            } else {
                out.push_str(&self.xml[a.start as usize..a.open_end as usize]);
                open.push((p, false));
                p += 1;
            }
        }
        out
    }

    /// The blocks of the markers in `p`'s subtree: its visible positions
    /// that a block covers, each a block's root, whose subtree is hidden.
    fn markers_in(&self, u: &IntervalUniverse, blocks: &BlockTable, p: u32, ids: &mut Vec<u32>) {
        let (mut q, end) = (p, u.end(p));
        while q < end {
            match blocks.block_at(q) {
                Some(b) => {
                    if self.is_visible(q) {
                        ids.push(b);
                    }
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
        shift(&mut self.at[i..i + k], into as i64);
        shift(&mut self.at[i + k..], by);
        self.stretch_up(u, under, by);
    }

    /// Cuts the visible node at `p` out of the text with its subtree (`u`
    /// is the universe before the cut, which the caller then makes) and
    /// drops the spans of `p`'s run of positions. A parent element left
    /// with no content is written empty, `<p …/>`, as the writer writes it.
    pub(crate) fn cut(&mut self, u: &IntervalUniverse, p: u32) {
        let (a, attribute) = (self.at[p as usize], self.is_attribute(self.at[p as usize]));
        let parent = visible_parent(&self.at, u, p);
        let (range, with) = match parent.map(|q| self.at[q as usize]) {
            // An attribute goes with the space before it.
            _ if attribute => (a.start as usize - 1..a.end as usize, ""),
            Some(pa)
                if pa.open_end + 1 == a.start && self.close_start(pa) == Some(a.end as usize) =>
            {
                (pa.open_end as usize..pa.end as usize, "/>")
            }
            _ => (a.start as usize..a.end as usize, ""),
        };
        let by = with.len() as i64 - range.len() as i64;
        self.xml.replace_range(range, with);
        self.at.drain(p as usize..u.end(p) as usize);
        shift(&mut self.at[p as usize..], by);
        if let Some(q) = parent {
            if attribute {
                let pa = &mut self.at[q as usize];
                pa.open_end = (pa.open_end as i64 + by) as u32;
            }
            self.stretch_up(u, q, by);
        }
    }

    /// `(pre-order ordinal among elements and attributes, interval)` for
    /// every visible node with a position: the persisted keying of the
    /// spans. An element's ordinal is one past its predecessor's plus the
    /// attributes in that one's start tag (each `name="value"` holds two
    /// `"`, and a value has its `"` escaped); an attribute's is its
    /// element's plus its place in the start tag.
    pub(crate) fn interval_positions(&self, u: &IntervalUniverse) -> Vec<(u32, Interval)> {
        let quotes = |s: &str| s.bytes().filter(|&b| b == b'"').count() as u32 / 2;
        let mut out = Vec::new();
        let mut next = 0;
        // The element last visited: its ordinal and where it starts.
        let mut element = (0, 0);
        for (p, &a) in self.at.iter().enumerate() {
            if a.start == NOWHERE {
                continue;
            }
            let (start, open_end) = (a.start as usize, a.open_end as usize);
            let ordinal = if self.is_attribute(a) {
                element.0 + 1 + quotes(&self.xml[element.1..start])
            } else {
                element = (next, start);
                next += 1 + quotes(&self.xml[start..open_end]);
                element.0
            };
            out.push((ordinal, u.interval(p as u32)));
        }
        out
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

    fn servers() -> Vec<Server> {
        let hospital_cs = ["//insurance", "//patient:(/pname, /SSN)", "//treat"];
        let xmark_cs = ["//creditcard", "//person:(/name, /address)", "//bidder"];
        [(hospital(), &hospital_cs), (xmark(), &xmark_cs)]
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

    /// The block ids the markers in a serialized region carry.
    fn marker_ids(region: &str) -> Vec<u32> {
        let Ok(d) = Document::parse(region) else {
            return Vec::new();
        };
        let mut ids: Vec<u32> = d
            .elements_by_tag(BLOCK_MARKER_TAG)
            .into_iter()
            .map(|m| d.text_value(d.node(m).attrs()[0]).parse().unwrap())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Every visible position alone, and pairs of them, copied out of the
    /// text against the reference over the reparsed document; every
    /// position's string value against the tree's.
    #[test]
    fn copied_regions_equal_copy_then_serialize() {
        let mut checked = 0;
        for s in servers() {
            let v = s.visible_text();
            let u = s.metadata().dsi_table.universe();
            let blocks = &s.metadata().block_table;
            let doc = Document::parse(v.xml()).unwrap();
            assert_eq!(doc.to_xml(), v.xml());
            let nodes: Vec<NodeId> = doc.iter().filter(|&n| !doc.node(n).is_text()).collect();
            let placed: Vec<(u32, NodeId)> = v
                .interval_positions(u)
                .into_iter()
                .map(|(ordinal, iv)| (u.find(&iv).unwrap(), nodes[ordinal as usize]))
                .collect();
            checked += placed.len();
            for &(p, n) in &placed {
                assert_eq!(v.string_value(p).unwrap(), doc.text_value(n), "at {p}");
            }
            let check = |ps: &[(u32, NodeId)]| {
                let wholes: Vec<u32> = ps.iter().map(|&(p, _)| p).collect();
                let ns: Vec<NodeId> = ps.iter().map(|&(_, n)| n).collect();
                let mut ids = Vec::new();
                let region = v.region(u, blocks, &wholes, &mut ids);
                assert_eq!(region, reference(&doc, &ns), "{wholes:?}");
                ids.sort_unstable();
                assert_eq!(ids, marker_ids(&region), "{wholes:?}");
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

    /// A persisted document and its keying: a visible element without an
    /// interval and intervals out of document order are refused.
    #[test]
    fn documents_that_do_not_follow_the_universe_are_refused() {
        let s = &servers()[0];
        let u = s.metadata().dsi_table.universe();
        let blocks = &s.metadata().block_table;
        let dsi = &s.metadata().dsi_table;
        let read = |frag: &VisibleFragment| {
            let covered = |p| blocks.block_at(p).is_some();
            VisibleText::read(frag, u, covered, |tag| dsi.positions(tag))
        };
        let good = VisibleFragment {
            xml: s.visible_xml().to_owned(),
            intervals: s.visible_text().interval_positions(u),
        };
        assert_eq!(&read(&good).unwrap(), s.visible_text());
        let doc = Document::parse(&good.xml).unwrap();
        let nodes: Vec<NodeId> = doc.iter().filter(|&n| !doc.node(n).is_text()).collect();
        let patient = |i: usize| {
            let n = doc.elements_by_tag("patient")[i];
            good.intervals
                .iter()
                .position(|&(o, _)| nodes[o as usize] == n)
                .unwrap()
        };
        let mut missing = good.clone();
        missing.intervals.remove(patient(1));
        let err = read(&missing).unwrap_err();
        assert!(err.contains("no interval"), "{err}");
        let mut swapped = good.clone();
        let (a, b) = (patient(1), patient(2));
        let (ia, ib) = (swapped.intervals[a].1, swapped.intervals[b].1);
        (swapped.intervals[a].1, swapped.intervals[b].1) = (ib, ia);
        let err = read(&swapped).unwrap_err();
        assert!(err.contains("do not follow"), "{err}");
    }
}
