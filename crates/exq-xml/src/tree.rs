//! The arena document tree.

use std::collections::HashMap;
use std::fmt;

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
    /// Attribute children (elements only). Kept separate from `children` so
    /// serialization and the child axis stay cheap; structural labeling uses
    /// [`Document::all_children`] to see both.
    pub(crate) attrs: Vec<NodeId>,
    /// Element and text children, in document order.
    pub(crate) children: Vec<NodeId>,
    /// Tombstone flag: detached nodes stay in the arena but are skipped by
    /// all traversals.
    pub(crate) detached: bool,
}

impl Node {
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }
    pub fn attrs(&self) -> &[NodeId] {
        &self.attrs
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

/// Tag/attribute-name interner owned by a document.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner {
    names: Vec<String>,
    index: HashMap<String, TagId>,
}

impl Interner {
    pub(crate) fn intern(&mut self, name: &str) -> TagId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = TagId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    pub(crate) fn get(&self, name: &str) -> Option<TagId> {
        self.index.get(name).copied()
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

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Adds an element. With `parent = None` this sets the document root
    /// (panics if a root already exists).
    pub fn add_element(&mut self, parent: Option<NodeId>, tag: &str) -> NodeId {
        let tag = self.intern(tag);
        let id = self.push_node(Node {
            kind: NodeKind::Element(tag),
            parent,
            attrs: Vec::new(),
            children: Vec::new(),
            detached: false,
        });
        match parent {
            Some(p) => self.nodes[p.index()].children.push(id),
            None => {
                assert!(self.root.is_none(), "document already has a root");
                self.root = Some(id);
            }
        }
        id
    }

    /// Adds a text leaf under an element.
    pub fn add_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        debug_assert!(self.node(parent).is_element());
        let id = self.push_node(Node {
            kind: NodeKind::Text(text.to_owned()),
            parent: Some(parent),
            attrs: Vec::new(),
            children: Vec::new(),
            detached: false,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Adds an attribute to an element.
    pub fn add_attr(&mut self, parent: NodeId, name: &str, value: &str) -> NodeId {
        debug_assert!(self.node(parent).is_element());
        let tag = self.intern(name);
        let id = self.push_node(Node {
            kind: NodeKind::Attribute(tag, value.to_owned()),
            parent: Some(parent),
            attrs: Vec::new(),
            children: Vec::new(),
            detached: false,
        });
        self.nodes[parent.index()].attrs.push(id);
        id
    }

    /// Detaches a node (and implicitly its whole subtree) from the tree.
    /// The arena slot becomes a tombstone; ids of other nodes are unaffected.
    pub fn detach(&mut self, id: NodeId) {
        if let Some(p) = self.nodes[id.index()].parent {
            let pn = &mut self.nodes[p.index()];
            // The newest child goes in O(1): that is every node a parse
            // callback drops, under parents with thousands of children.
            if pn.children.last() == Some(&id) {
                pn.children.pop();
            } else {
                pn.children.retain(|&c| c != id);
                pn.attrs.retain(|&c| c != id);
            }
        } else if self.root == Some(id) {
            self.root = None;
        }
        self.mark_detached(id);
    }

    fn mark_detached(&mut self, id: NodeId) {
        self.nodes[id.index()].detached = true;
        for i in 0..self.nodes[id.index()].attrs.len() {
            let a = self.nodes[id.index()].attrs[i];
            self.nodes[a.index()].detached = true;
        }
        for i in 0..self.nodes[id.index()].children.len() {
            self.mark_detached(self.nodes[id.index()].children[i]);
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
        for &c in &self.node(id).children {
            match &self.node(c).kind {
                NodeKind::Text(t) => out.push_str(t),
                NodeKind::Element(_) => self.collect_text(c, out),
                NodeKind::Attribute(..) => {}
            }
        }
    }

    /// Attribute and regular children, in the order used for structural
    /// labeling (attributes first, then element/text children).
    pub fn all_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let n = self.node(id);
        n.attrs.iter().chain(n.children.iter()).copied()
    }

    /// Pre-order traversal of the subtree rooted at `id` (inclusive),
    /// covering attributes and text.
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

    /// Number of nodes (elements + attributes + text) in the subtree at `id`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.descendants(id).count()
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
                for &a in &self.node(src).attrs {
                    if let NodeKind::Attribute(at, v) = &self.node(a).kind {
                        let an = self.tag_name(*at).to_owned();
                        dst.add_attr(copy, &an, v);
                    }
                }
                for &c in &self.node(src).children {
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
            for &c in n.children.iter().rev() {
                self.stack.push(c);
            }
            for &a in n.attrs.iter().rev() {
                self.stack.push(a);
            }
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

    #[test]
    fn subtree_size_counts_attrs_and_text() {
        let (d, root, p, _) = sample();
        assert_eq!(d.subtree_size(root), 5);
        assert_eq!(d.subtree_size(p), 4);
    }

    #[test]
    #[should_panic(expected = "already has a root")]
    fn second_root_panics() {
        let mut d = Document::new();
        d.add_element(None, "a");
        d.add_element(None, "b");
    }
}
