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
//! A document parsed into again and again — the client's reconstruction of
//! each server reply — is emptied with [`Document::clear`] rather than
//! dropped: it keeps the arena and every node's text, attribute value and
//! child list as spares that the next parse fills before it asks the
//! allocator, never more than the largest input parsed into it. Nodes
//! still own their `String`s; the spares are those `String`s, kept.
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
mod stats;
mod tree;

pub use escape::{escape_attr, escape_text, unescape};
pub use parse::{ParseError, ParseOptions, StartTag, Verdict, MAX_DEPTH};
pub use serialize::Span;
pub use stats::DocumentStats;
pub use tree::{Document, Node, NodeId, NodeKind, TagId};
