//! XPath-subset parser and reference evaluator.
//!
//! Implements the fragment of XPath the paper uses for queries and security
//! constraints:
//!
//! * child (`/a`), descendant (`//a`), attribute (`@a`), self (`.`),
//!   parent (`..`), and `following-sibling::` axes;
//! * name tests, `*` wildcards, and `text()`;
//! * predicates `[p]` (existence) and `[p op literal]` with
//!   `op ∈ {=, !=, <, <=, >, >=}` where the literal is a number, a quoted
//!   string, or a bare word.
//!
//! The evaluator here is the *reference* implementation: a naive tree walk
//! over any [`exq_xml::TreeView`] — an [`exq_xml::Document`], or the
//! client's [`exq_xml::SpanDocument`]. The secure server evaluates translated
//! queries over DSI intervals instead (see `exq-core`); client post-processing
//! and all cross-checking tests use this walker.
//!
//! ```
//! use exq_xml::Document;
//! use exq_xpath::{eval_document, Path};
//!
//! let doc = Document::parse("<r><p><n>Betty</n></p><p><n>Matt</n></p></r>").unwrap();
//! let q = Path::parse("//p[n = 'Betty']").unwrap();
//! assert_eq!(eval_document(&doc, &q).len(), 1);
//! ```

mod ast;
mod eval;
mod parse;

pub use ast::{Axis, CmpOp, Comparison, Literal, NodeTest, Path, PositionTest, Predicate, Step};
pub use eval::{eval, eval_document, eval_from, eval_union};
pub use parse::XPathError;
