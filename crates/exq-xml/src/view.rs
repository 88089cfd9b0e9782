//! The read-only tree view an XPath evaluator walks, implemented by both
//! document types.

use crate::tree::{Document, NodeId, NodeKind, TagId};
use std::borrow::Cow;

/// What a node is, as a node test sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeType {
    Element(TagId),
    Attribute(TagId),
    Text,
}

/// An ordered tree of elements, attributes and text, addressed by
/// [`NodeId`]. Every walk yields nodes in document order.
pub trait TreeView {
    /// The root element, if any.
    fn root(&self) -> Option<NodeId>;
    /// The interned id of an element or attribute name; `None` when the
    /// document never saw it.
    fn tag_id(&self, name: &str) -> Option<TagId>;
    /// The name an interned id stands for.
    fn name(&self, tag: TagId) -> &str;
    fn node_type(&self, n: NodeId) -> NodeType;
    fn parent_of(&self, n: NodeId) -> Option<NodeId>;
    /// Element and text children.
    fn for_each_child(&self, n: NodeId, f: impl FnMut(NodeId));
    fn for_each_attr(&self, n: NodeId, f: impl FnMut(NodeId));
    /// `n` and every node below it, attributes and text included, in
    /// pre-order (an element's attributes right after it).
    fn for_each_in_subtree(&self, n: NodeId, f: impl FnMut(NodeId));
    /// XPath string value: an attribute's value, a text's content, or the
    /// concatenation of an element's descendant text.
    fn string_value(&self, n: NodeId) -> Cow<'_, str>;
}

impl TreeView for Document {
    fn root(&self) -> Option<NodeId> {
        self.root
    }

    fn tag_id(&self, name: &str) -> Option<TagId> {
        self.interner.get(name)
    }

    fn name(&self, tag: TagId) -> &str {
        self.interner.resolve(tag)
    }

    fn node_type(&self, n: NodeId) -> NodeType {
        match self.node(n).kind() {
            NodeKind::Element(t) => NodeType::Element(*t),
            NodeKind::Attribute(t, _) => NodeType::Attribute(*t),
            NodeKind::Text(_) => NodeType::Text,
        }
    }

    fn parent_of(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).parent()
    }

    fn for_each_child(&self, n: NodeId, f: impl FnMut(NodeId)) {
        let live = self.node(n).children().iter().copied();
        live.filter(|&c| self.is_live(c)).for_each(f);
    }

    fn for_each_attr(&self, n: NodeId, f: impl FnMut(NodeId)) {
        let live = self.node(n).attrs().iter().copied();
        live.filter(|&a| self.is_live(a)).for_each(f);
    }

    fn for_each_in_subtree(&self, n: NodeId, f: impl FnMut(NodeId)) {
        self.descendants(n).for_each(f);
    }

    fn string_value(&self, n: NodeId) -> Cow<'_, str> {
        let node = self.node(n);
        match node.kind() {
            NodeKind::Attribute(_, v) | NodeKind::Text(v) => Cow::Borrowed(v),
            NodeKind::Element(_) => match node.children() {
                [only] => match self.node(*only).kind() {
                    NodeKind::Text(t) => Cow::Borrowed(t),
                    _ => Cow::Owned(self.text_value(n)),
                },
                _ => Cow::Owned(self.text_value(n)),
            },
        }
    }
}
