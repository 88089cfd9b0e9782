//! Arena-based XML document model, parser, and serializer.
//!
//! This crate is the storage substrate for the encrypted-XML query system.
//! It deliberately implements only the XML subset the paper's databases use:
//! elements, attributes, and text leaves (no mixed content, namespaces,
//! processing-instruction semantics, or DTDs — comments, CDATA, the XML
//! declaration and numeric/named entities are parsed and normalized away).
//!
//! Documents are arenas: every node lives in a `Vec` and is addressed by a
//! [`NodeId`]. Tags and attribute names are interned as [`TagId`]s so that
//! structural algorithms (DSI labeling, structural joins, vertex cover over
//! the constraint graph) can work on dense integers.
//!
//! A [`SpanDocument`] is the other shape of a document: the text the writer
//! would write, plus per node its byte span in it, with no `String` per
//! node. The client reconstructs each server reply into one (a
//! [`SpanBuilder`] that stops at each block's byte offset to parse the
//! block in there, and whose start-tag hook skips decoys), evaluates the
//! query over it, and copies each result
//! out as a slice. One tokenizer feeds both shapes, and both implement
//! [`TreeView`], the view the XPath evaluator walks.
//!
//! ```
//! use exq_xml::Document;
//!
//! let doc = Document::parse("<a x=\"1\"><b>hi</b></a>").unwrap();
//! let root = doc.root().unwrap();
//! assert_eq!(doc.element_name(root), Some("a"));
//! assert_eq!(doc.text_value(root), "hi");
//! assert_eq!(doc.to_xml(), "<a x=\"1\"><b>hi</b></a>");
//! ```

mod escape;
mod parse;
mod serialize;
mod span;
mod stats;
mod tree;
mod view;

pub use escape::{escape_attr, escape_text, unescape};
pub use parse::{ParseError, StartTag, Verdict, MAX_DEPTH};
pub use serialize::write_xml;
pub use span::{Cursor, Span, SpanBuilder, SpanDocument};
pub use tree::{Document, Node, NodeId, NodeKind, TagId};
pub use view::{NodeType, TreeView};
