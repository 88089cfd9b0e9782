//! The arena document tree.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// Interned identifier for an element tag or attribute name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(pub u32);

/// Index of a node in a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element node; the tag is interned in the owning document.
    Element(TagId),
    /// An attribute node: interned name plus value.
    Attribute(TagId, String),
    /// A text leaf.
    Text(String),
}

/// One node of the arena tree.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    /// Attribute children first, then element and text children, each run in
    /// document order. One list, split at `n_attrs`, so serialization and
    /// the child axis take their half as a slice and a pre-order walk
    /// ([`Document::descendants`]) takes the whole.
    kids: Kids,
    /// How many entries at the front of `kids` are attributes.
    n_attrs: u32,
    /// Tombstone flag: detached nodes stay in the arena but are skipped by
    /// all traversals.
    pub(crate) detached: bool,
}

/// Room a child list gets when its second child moves it to the heap: an
/// element with more than one child usually has several (an XMark `person`
/// has six to ten), and growing 2 → 4 → 8 is two reallocations.
const SPILL_CAPACITY: usize = 8;

/// A node's child list. A single child — the `<name>text</name>` shape most
/// elements have — sits inline; only a second one allocates.
#[derive(Debug, Clone)]
enum Kids {
    One(NodeId),
    Many(Vec<NodeId>),
}

impl Kids {
    fn as_slice(&self) -> &[NodeId] {
        match self {
            Kids::One(id) => std::slice::from_ref(id),
            Kids::Many(ids) => ids,
        }
    }

    /// Inserts `id` at `at`.
    fn insert(&mut self, at: usize, id: NodeId) {
        match self {
            Kids::Many(ids) if ids.is_empty() => *self = Kids::One(id),
            Kids::Many(ids) => ids.insert(at, id),
            Kids::One(only) => {
                let ids = if at == 0 { [id, *only] } else { [*only, id] };
                let mut many = Vec::with_capacity(SPILL_CAPACITY);
                many.extend(ids);
                *self = Kids::Many(many);
            }
        }
    }

    /// Removes `id`, returning where it was. The newest child goes in O(1).
    fn remove(&mut self, id: NodeId) -> Option<usize> {
        match self {
            Kids::One(only) if *only == id => {
                *self = Kids::Many(Vec::new());
                Some(0)
            }
            Kids::One(_) => None,
            Kids::Many(ids) if ids.last() == Some(&id) => {
                ids.pop();
                Some(ids.len())
            }
            Kids::Many(ids) => {
                let at = ids.iter().position(|&c| c == id)?;
                ids.remove(at);
                Some(at)
            }
        }
    }
}

impl Node {
    fn new(kind: NodeKind, parent: Option<NodeId>) -> Node {
        Node {
            kind,
            parent,
            kids: Kids::Many(Vec::new()),
            n_attrs: 0,
            detached: false,
        }
    }

    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }
    /// Element and text children, in document order.
    pub fn children(&self) -> &[NodeId] {
        &self.kids.as_slice()[self.n_attrs as usize..]
    }
    /// Attribute children (elements only), in document order.
    pub fn attrs(&self) -> &[NodeId] {
        &self.kids.as_slice()[..self.n_attrs as usize]
    }
    /// Attributes, then element and text children.
    pub(crate) fn all_children(&self) -> &[NodeId] {
        self.kids.as_slice()
    }
    pub fn is_element(&self) -> bool {
        matches!(self.kind, NodeKind::Element(_))
    }
    pub fn is_text(&self) -> bool {
        matches!(self.kind, NodeKind::Text(_))
    }
    pub fn is_attribute(&self) -> bool {
        matches!(self.kind, NodeKind::Attribute(..))
    }
}

/// FNV-1a over a name's bytes: tag names are a handful of bytes, where
/// SipHash's set-up and finish cost more than the hashing. The basis is drawn
/// per interner from the standard library's random keys, since names arrive
/// in reply XML and a fixed basis would let a reply carry precomputed
/// collisions.
struct NameHasher(u64);

#[derive(Clone)]
struct NameHashBuilder(u64);

impl Default for NameHashBuilder {
    fn default() -> Self {
        NameHashBuilder(RandomState::new().hash_one(0xcbf2_9ce4_8422_2325_u64))
    }
}

impl BuildHasher for NameHashBuilder {
    type Hasher = NameHasher;
    fn build_hasher(&self) -> NameHasher {
        NameHasher(self.0)
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sets in the interner's front table (a power of two), of two slots each:
/// 4 KiB a document, and room enough that three names of one schema seldom
/// share a set.
const FRONT_SETS: usize = 128;

/// The front table's empty slot.
const NO_TAG: u32 = u32::MAX;

/// A name's first eight bytes as a little-endian word, zero past its end:
/// with its length, all of a name of up to eight bytes.
pub(crate) fn head(name: &[u8]) -> u64 {
    match name.first_chunk::<8>() {
        Some(first) => u64::from_le_bytes(*first),
        None => name.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)),
    }
}

/// A front-table slot: a name seen lately, as its id, its length and its
/// [`head`], so a hit on a name of up to eight bytes is two compares and
/// reads nothing else.
#[derive(Debug, Clone, Copy)]
struct Front {
    head: u64,
    len: u32,
    id: u32,
}

const EMPTY_FRONT: Front = Front {
    head: 0,
    len: 0,
    id: NO_TAG,
};

/// Tag/attribute-name interner owned by a document.
#[derive(Debug, Clone)]
pub(crate) struct Interner {
    names: Vec<String>,
    index: HashMap<String, TagId, NameHashBuilder>,
    /// The two names last missed per set, picked by [`front_set`], newest
    /// first: a parse meets the same few names over and over, and a hit
    /// here costs a compare of the name's length and head (and of the bytes
    /// past them, for a longer name) instead of a hash of it. Two names of
    /// one set that alternate (a parent and its child) both stay; a third
    /// pushes the older out, so hostile names make misses, which go to the
    /// seeded `index`, never wrong answers.
    front: [[Front; 2]; FRONT_SETS],
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            names: Vec::new(),
            index: HashMap::default(),
            front: [[EMPTY_FRONT; 2]; FRONT_SETS],
        }
    }
}

/// A name's set in the front table, from its length and its [`head`]:
/// one multiply.
fn front_set(len: usize, head: u64) -> usize {
    let key = head ^ len as u64;
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FRONT_SETS.trailing_zeros())) as usize
}

/// Byte equality for a name, compared in place: names are a few bytes,
/// and the library compare is a call per name.
pub(crate) fn same_name(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

impl Interner {
    pub(crate) fn intern(&mut self, name: &str) -> TagId {
        self.intern_head(name, head(name.as_bytes()))
    }

    /// [`intern`](Interner::intern) for a name whose [`head`] the caller
    /// has at hand: a front hit is inline in the caller's loop, a miss a
    /// call.
    #[inline(always)]
    pub(crate) fn intern_head(&mut self, name: &str, head: u64) -> TagId {
        debug_assert_eq!(head, self::head(name.as_bytes()));
        let set = front_set(name.len(), head);
        match self.in_front(set, name, head) {
            Some(id) => id,
            None => self.intern_missed(set, name, head),
        }
    }

    /// A name the front table missed: looked up or added, and put at the
    /// front of its set.
    #[inline(never)]
    fn intern_missed(&mut self, set: usize, name: &str, head: u64) -> TagId {
        let id = match self.index.get(name) {
            Some(&id) => id,
            None => {
                let id = TagId(self.names.len() as u32);
                self.names.push(name.to_owned());
                self.index.insert(name.to_owned(), id);
                id
            }
        };
        if let Ok(len) = u32::try_from(name.len()) {
            let [newest, older] = &mut self.front[set];
            *older = *newest;
            *newest = Front {
                head,
                len,
                id: id.0,
            };
        }
        id
    }

    pub(crate) fn get(&self, name: &str) -> Option<TagId> {
        let head = head(name.as_bytes());
        let front = self.in_front(front_set(name.len(), head), name, head);
        front.or_else(|| self.index.get(name).copied())
    }

    #[inline(always)]
    fn in_front(&self, set: usize, name: &str, head: u64) -> Option<TagId> {
        let hit = |&Front { head: h, len, id }: &Front| {
            id != NO_TAG
                && len as usize == name.len()
                && h == head
                && (len <= 8
                    || same_name(
                        &self.names[id as usize].as_bytes()[8..],
                        &name.as_bytes()[8..],
                    ))
        };
        self.front[set].iter().find(|f| hit(f)).map(|f| TagId(f.id))
    }

    pub(crate) fn resolve(&self, id: TagId) -> &str {
        &self.names[id.0 as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

/// An XML document: an arena of [`Node`]s plus a tag interner.
#[derive(Debug, Clone, Default)]
pub struct Document {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: Option<NodeId>,
    pub(crate) interner: Interner,
}

impl Document {
    /// Creates an empty document with no root.
    pub fn new() -> Self {
        Self::default()
    }

    /// The root element, if one has been added.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Total number of live (non-detached) nodes, including attributes and
    /// text leaves.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| !n.detached).count()
    }

    /// True when the document has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of arena slots, detached ones included: every [`NodeId`] of
    /// this document indexes below it, so it sizes a per-node side table.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct interned tag/attribute names.
    pub fn tag_count(&self) -> usize {
        self.interner.len()
    }

    /// Borrows a node. Panics on an id from another document.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Interns a tag name.
    pub fn intern(&mut self, name: &str) -> TagId {
        self.interner.intern(name)
    }

    /// Looks up an already-interned tag name.
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        self.interner.get(name)
    }

    /// Resolves an interned tag to its string.
    pub fn tag_name(&self, id: TagId) -> &str {
        self.interner.resolve(id)
    }

    /// Appends `kind` to the arena and links it into `parent`'s list: after
    /// the last attribute for an attribute, at the end otherwise.
    fn push_node(&mut self, parent: Option<NodeId>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let is_attr = matches!(kind, NodeKind::Attribute(..));
        self.nodes.push(Node::new(kind, parent));
        match parent {
            Some(p) => {
                let pn = &mut self.nodes[p.index()];
                debug_assert!(pn.is_element());
                let at = if is_attr {
                    pn.n_attrs as usize
                } else {
                    pn.kids.as_slice().len()
                };
                pn.kids.insert(at, id);
                pn.n_attrs += u32::from(is_attr);
            }
            None => {
                assert!(self.root.is_none(), "document already has a root");
                self.root = Some(id);
            }
        }
        id
    }

    /// Adds an element. With `parent = None` this sets the document root
    /// (panics if a root already exists).
    pub fn add_element(&mut self, parent: Option<NodeId>, tag: &str) -> NodeId {
        let tag = self.intern(tag);
        self.push_element(parent, tag)
    }

    /// [`add_element`](Document::add_element) for a name already interned —
    /// the parser's path.
    pub(crate) fn push_element(&mut self, parent: Option<NodeId>, tag: TagId) -> NodeId {
        self.push_node(parent, NodeKind::Element(tag))
    }

    /// Adds a text leaf under an element.
    pub fn add_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.push_text(parent, Cow::Borrowed(text))
    }

    /// Adds an attribute to an element, after the attributes it already
    /// has and before its children.
    pub fn add_attr(&mut self, parent: NodeId, name: &str, value: &str) -> NodeId {
        let tag = self.intern(name);
        self.push_attr(parent, tag, Cow::Borrowed(value))
    }

    /// [`add_attr`](Document::add_attr) for a name already interned — the
    /// parser's path.
    pub(crate) fn push_attr(&mut self, parent: NodeId, name: TagId, value: Cow<'_, str>) -> NodeId {
        self.push_node(Some(parent), NodeKind::Attribute(name, value.into_owned()))
    }

    /// [`add_text`](Document::add_text) for text the parser may own already.
    pub(crate) fn push_text(&mut self, parent: NodeId, text: Cow<'_, str>) -> NodeId {
        self.push_node(Some(parent), NodeKind::Text(text.into_owned()))
    }

    /// Detaches a node (and implicitly its whole subtree) from the tree.
    /// The arena slot becomes a tombstone; ids of other nodes are unaffected
    /// and no id is ever handed out again.
    pub fn detach(&mut self, id: NodeId) {
        if let Some(p) = self.nodes[id.index()].parent {
            let pn = &mut self.nodes[p.index()];
            if pn
                .kids
                .remove(id)
                .is_some_and(|at| at < pn.n_attrs as usize)
            {
                pn.n_attrs -= 1;
            }
        } else if self.root == Some(id) {
            self.root = None;
        }
        self.mark_detached(id);
    }

    fn mark_detached(&mut self, id: NodeId) {
        self.nodes[id.index()].detached = true;
        for i in 0..self.nodes[id.index()].all_children().len() {
            self.mark_detached(self.nodes[id.index()].all_children()[i]);
        }
    }

    /// True if the node is still attached to the tree.
    pub fn is_live(&self, id: NodeId) -> bool {
        !self.nodes[id.index()].detached
    }

    /// Element tag name, or `None` for text/attribute nodes.
    pub fn element_name(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element(t) => Some(self.tag_name(*t)),
            _ => None,
        }
    }

    /// The "name" of a node as used by node tests: tag for elements,
    /// attribute name for attributes, `None` for text.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element(t) | NodeKind::Attribute(t, _) => Some(self.tag_name(*t)),
            NodeKind::Text(_) => None,
        }
    }

    /// XPath-style string value: attribute value, text content, or the
    /// concatenation of all descendant text for elements.
    pub fn text_value(&self, id: NodeId) -> String {
        match &self.node(id).kind {
            NodeKind::Attribute(_, v) => v.clone(),
            NodeKind::Text(t) => t.clone(),
            NodeKind::Element(_) => {
                let mut out = String::new();
                self.collect_text(id, &mut out);
                out
            }
        }
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        for &c in self.node(id).children() {
            match &self.node(c).kind {
                NodeKind::Text(t) => out.push_str(t),
                NodeKind::Element(_) => self.collect_text(c, out),
                NodeKind::Attribute(..) => {}
            }
        }
    }

    /// Pre-order traversal of the subtree rooted at `id` (inclusive),
    /// attributes and text included.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![id],
        }
    }

    /// Pre-order traversal of the whole document.
    pub fn iter(&self) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: self.root.into_iter().collect(),
        }
    }

    /// Depth of a node; the root has depth 0.
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the document tree (max depth over element nodes), or 0 for
    /// an empty document.
    pub fn height(&self) -> usize {
        self.iter()
            .filter(|&n| self.node(n).is_element())
            .map(|n| self.depth(n))
            .max()
            .unwrap_or(0)
    }

    /// Every live element with the given tag, in document order.
    pub fn elements_by_tag(&self, tag: &str) -> Vec<NodeId> {
        let Some(t) = self.tag_id(tag) else {
            return Vec::new();
        };
        self.iter()
            .filter(|&n| matches!(self.node(n).kind, NodeKind::Element(tt) if tt == t))
            .collect()
    }

    /// The chain of ancestors of `id`, nearest first (excluding `id`).
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Deep-copies the subtree rooted at `src` (which lives in `self`) under
    /// `dst_parent` in `dst`. `dst_parent = None` makes it the root of `dst`.
    /// Returns the id of the copy.
    pub fn clone_subtree_into(
        &self,
        src: NodeId,
        dst: &mut Document,
        dst_parent: Option<NodeId>,
    ) -> NodeId {
        match &self.node(src).kind {
            NodeKind::Element(t) => {
                let name = self.tag_name(*t).to_owned();
                let copy = dst.add_element(dst_parent, &name);
                for &a in self.node(src).attrs() {
                    if let NodeKind::Attribute(at, v) = &self.node(a).kind {
                        let an = self.tag_name(*at).to_owned();
                        dst.add_attr(copy, &an, v);
                    }
                }
                for &c in self.node(src).children() {
                    self.clone_subtree_into(c, dst, Some(copy));
                }
                copy
            }
            NodeKind::Text(t) => {
                let p = dst_parent.expect("text node cannot be a document root");
                dst.add_text(p, t)
            }
            NodeKind::Attribute(at, v) => {
                let p = dst_parent.expect("attribute node cannot be a document root");
                let an = self.tag_name(*at).to_owned();
                dst.add_attr(p, &an, v)
            }
        }
    }

    /// Extracts the subtree at `id` into a standalone document.
    pub fn extract_subtree(&self, id: NodeId) -> Document {
        let mut out = Document::new();
        self.clone_subtree_into(id, &mut out, None);
        out
    }
}

/// Pre-order iterator over a subtree. Attributes are yielded right after
/// their element, before element/text children. Detached nodes are skipped.
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let id = self.stack.pop()?;
            let n = self.doc.node(id);
            if n.detached {
                continue;
            }
            // Push in reverse so pops come out in document order.
            self.stack.extend(n.all_children().iter().rev());
            return Some(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let root = d.add_element(None, "hospital");
        let p = d.add_element(Some(root), "patient");
        d.add_attr(p, "id", "7");
        let name = d.add_element(Some(p), "pname");
        d.add_text(name, "Betty");
        (d, root, p, name)
    }

    #[test]
    fn build_and_navigate() {
        let (d, root, p, name) = sample();
        assert_eq!(d.root(), Some(root));
        assert_eq!(d.element_name(root), Some("hospital"));
        assert_eq!(d.node(p).parent(), Some(root));
        assert_eq!(d.text_value(name), "Betty");
        assert_eq!(d.text_value(root), "Betty");
        assert_eq!(d.depth(name), 2);
        assert_eq!(d.height(), 2);
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn attr_string_value() {
        let (d, _, p, _) = sample();
        let attr = d.node(p).attrs()[0];
        assert_eq!(d.text_value(attr), "7");
        assert_eq!(d.node_name(attr), Some("id"));
    }

    #[test]
    fn preorder_covers_everything() {
        let (d, ..) = sample();
        let order: Vec<_> = d
            .iter()
            .map(|n| d.node_name(n).unwrap_or("#text").to_owned())
            .collect();
        assert_eq!(order, ["hospital", "patient", "id", "pname", "#text"]);
    }

    #[test]
    fn detach_removes_subtree() {
        let (mut d, _, p, name) = sample();
        d.detach(name);
        assert!(!d.is_live(name));
        assert_eq!(d.text_value(p), "");
        assert_eq!(d.len(), 3);
        // ids of remaining nodes unaffected
        assert_eq!(d.element_name(p), Some("patient"));
    }

    #[test]
    fn detach_root() {
        let (mut d, root, ..) = sample();
        d.detach(root);
        assert!(d.root().is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn clone_subtree_roundtrip() {
        let (d, _, p, _) = sample();
        let sub = d.extract_subtree(p);
        let r = sub.root().unwrap();
        assert_eq!(sub.element_name(r), Some("patient"));
        assert_eq!(sub.text_value(r), "Betty");
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.node(r).attrs().len(), 1);
    }

    #[test]
    fn elements_by_tag_in_document_order() {
        let mut d = Document::new();
        let root = d.add_element(None, "r");
        let a1 = d.add_element(Some(root), "a");
        let b = d.add_element(Some(root), "b");
        let a2 = d.add_element(Some(b), "a");
        assert_eq!(d.elements_by_tag("a"), vec![a1, a2]);
        assert!(d.elements_by_tag("zzz").is_empty());
    }

    #[test]
    fn ancestors_nearest_first() {
        let (d, root, p, name) = sample();
        assert_eq!(d.ancestors(name), vec![p, root]);
        assert!(d.ancestors(root).is_empty());
    }

    /// `kids` is the one list a node has, and most elements own no heap
    /// list at all; the arena is the reply's largest allocation.
    #[test]
    fn node_is_at_most_72_bytes() {
        assert!(std::mem::size_of::<Node>() <= 72);
    }

    #[test]
    fn attributes_added_after_children_still_come_first() {
        let mut d = Document::new();
        let r = d.add_element(None, "r");
        let x = d.add_attr(r, "x", "1");
        let c1 = d.add_element(Some(r), "c");
        let t = d.add_text(r, "t");
        let y = d.add_attr(r, "y", "2");
        let c2 = d.add_element(Some(r), "c");
        let z = d.add_attr(r, "z", "3");
        assert_eq!(d.node(r).attrs(), [x, y, z]);
        assert_eq!(d.node(r).children(), [c1, t, c2]);
        assert_eq!(d.iter().collect::<Vec<_>>(), [r, x, y, z, c1, t, c2]);
        assert_eq!(d.to_xml(), "<r x=\"1\" y=\"2\" z=\"3\"><c/>t<c/></r>");
        // Detaching an attribute moves the split, not the children.
        d.detach(y);
        assert_eq!(d.node(r).attrs(), [x, z]);
        assert_eq!(d.node(r).children(), [c1, t, c2]);
        // An only child that is an attribute, then an attribute before it.
        let e = d.add_element(Some(c1), "e");
        let only = d.add_attr(e, "k", "v");
        assert_eq!(
            (d.node(e).attrs(), d.node(e).children()),
            (&[only][..], &[][..])
        );
        let child = d.add_element(Some(e), "f");
        let second = d.add_attr(e, "l", "w");
        assert_eq!(d.node(e).attrs(), [only, second]);
        assert_eq!(d.node(e).children(), [child]);
    }

    #[test]
    fn a_single_child_sits_inline_and_a_second_moves_the_list_to_the_heap() {
        let mut d = Document::new();
        let r = d.add_element(None, "r");
        assert!(matches!(&d.node(r).kids, Kids::Many(v) if v.capacity() == 0));
        let a = d.add_element(Some(r), "a");
        assert!(matches!(d.node(r).kids, Kids::One(_)));
        assert_eq!(d.node(r).children(), [a]);
        let b = d.add_text(r, "b");
        assert!(matches!(d.node(r).kids, Kids::Many(_)));
        assert_eq!(d.node(r).children(), [a, b]);
        d.detach(a);
        assert_eq!(d.node(r).children(), [b]);
        d.detach(b);
        assert!(d.node(r).children().is_empty());
        // Emptied, the list takes its next only child inline again.
        let c = d.add_element(Some(r), "c");
        assert!(matches!(d.node(r).kids, Kids::One(_)));
        assert_eq!(d.node(r).children(), [c]);
        assert_eq!(d.to_xml(), "<r><c/></r>");
        // A second child spills into a list with room for more.
        d.add_text(r, "t");
        assert!(matches!(&d.node(r).kids, Kids::Many(v) if v.capacity() == SPILL_CAPACITY));
    }

    /// Names sharing a front set take turns in it: each lookup still finds
    /// its own name, and an unknown one of the same set is still unknown.
    #[test]
    fn names_sharing_a_front_set_only_miss() {
        let mut i = Interner::default();
        let set = |n: &str| front_set(n.len(), head(n.as_bytes()));
        // Names that share one set: the first 150 of each kind are
        // interned, all head or longer than it; the 151st of each never is.
        let sharing = |name: fn(u32) -> String| {
            (0..)
                .map(name)
                .filter(|n| set(n) == set("n000x"))
                .take(151)
                .collect::<Vec<_>>()
        };
        let (mut short, mut long) = (
            sharing(|k| format!("n{k:03}x")),
            sharing(|k| format!("l{k:06}-tail")),
        );
        let unknown = [short.pop().unwrap(), long.pop().unwrap()];
        let names: Vec<String> = short.into_iter().chain(long).collect();
        for (k, n) in names.iter().enumerate() {
            assert_eq!(i.intern(n), TagId(k as u32));
        }
        for (k, n) in names
            .iter()
            .enumerate()
            .rev()
            .chain(names.iter().enumerate())
        {
            assert_eq!(i.get(n), Some(TagId(k as u32)));
            assert_eq!(i.intern(n), TagId(k as u32));
            for u in &unknown {
                assert_eq!(i.get(u), None, "{u} after {n}");
            }
        }
        assert_eq!(i.get(""), None);
        assert_eq!(i.intern(""), TagId(300));
        assert_eq!((i.len(), i.resolve(TagId(7))), (301, names[7].as_str()));
    }

    /// Names of one length whose first eight bytes are the same share a
    /// front set and a head: a front hit also compares the bytes past it.
    #[test]
    fn names_alike_in_their_head_are_told_apart_past_it() {
        let mut i = Interner::default();
        let (a, b) = (i.intern("longname_a"), i.intern("longname_b"));
        assert_eq!((a, b), (TagId(0), TagId(1)));
        for _ in 0..2 {
            assert_eq!(
                (i.get("longname_a"), i.get("longname_b")),
                (Some(a), Some(b))
            );
            assert_eq!((i.intern("longname_b"), i.intern("longname_a")), (b, a));
            assert_eq!(i.get("longname_c"), None);
        }
        assert_eq!(i.intern("longname_c"), TagId(2));
        assert_eq!(i.resolve(b), "longname_b");
    }

    #[test]
    #[should_panic(expected = "already has a root")]
    fn second_root_panics() {
        let mut d = Document::new();
        d.add_element(None, "a");
        d.add_element(None, "b");
    }
}
