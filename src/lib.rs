//! # encrypted-xml
//!
//! Facade crate for the reproduction of *Efficient Secure Query Evaluation
//! over Encrypted XML Databases* (Wang & Lakshmanan, VLDB 2006).
//!
//! The system lets a data owner host a partially-encrypted XML database on an
//! untrusted server while still evaluating XPath queries efficiently:
//!
//! 1. The owner specifies [security constraints](exq_core::constraints) —
//!    node-type constraints (`//insurance`) and association constraints
//!    (`//patient:(/pname, /SSN)`).
//! 2. A [secure encryption scheme](exq_core::scheme) is derived (optimal
//!    scheme selection is NP-hard; exact and approximate solvers live in
//!    [`exq_core::cover`]), the sensitive subtrees are encrypted as blocks
//!    with decoys, and server-side metadata is built: the
//!    [DSI structural index](exq_index::dsi) and the
//!    [OPESS value index](exq_crypto::opess).
//! 3. Queries are [translated by the client](exq_core::client), evaluated on
//!    the server with [structural joins](exq_index::sjoin) and value-index
//!    range lookups, and the returned blocks are decrypted and
//!    post-processed by the client so that the final answer equals the
//!    answer on the plaintext database.
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every reproduced table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use encrypted_xml::prelude::*;
//!
//! let doc = Document::parse(
//!     "<hospital><patient><pname>Betty</pname><SSN>1213</SSN></patient></hospital>",
//! )
//! .unwrap();
//! let constraints = vec![SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap()];
//! let hosted = Outsourcer::new(OutsourceConfig::default())
//!     .outsource(&doc, &constraints, SchemeKind::Opt, 42)
//!     .unwrap();
//! let (client, mut server) = hosted.split();
//! let outcome = client.query(&mut server, "//patient/SSN").unwrap();
//! assert_eq!(outcome.results.len(), 1);
//! ```

pub use exq_core as core;
pub use exq_crypto as crypto;
pub use exq_index as index;
pub use exq_workload as workload;
pub use exq_xml as xml;
pub use exq_xpath as xpath;

/// Most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use exq_core::client::Client;
    pub use exq_core::constraints::SecurityConstraint;
    pub use exq_core::scheme::SchemeKind;
    pub use exq_core::server::Server;
    pub use exq_core::system::{HostedDatabase, OutsourceConfig, Outsourcer, QueryOutcome};
    pub use exq_xml::Document;
    pub use exq_xpath::Path;
}
