//! The paper's contribution: secure query evaluation over encrypted XML.
//!
//! This crate wires the substrates (`exq-xml`, `exq-xpath`, `exq-crypto`,
//! `exq-index`) into the system of Wang & Lakshmanan (VLDB 2006):
//!
//! * [`constraints`] — security constraints (§3.2): node-type (`//insurance`)
//!   and association (`//patient:(/pname, /SSN)`) constraints;
//! * [`cover`] — the constraint graph and weighted vertex-cover solvers
//!   behind optimal/approximate secure encryption schemes (§4.2; exact
//!   optimal selection is NP-hard, Theorem 4.2);
//! * [`scheme`] — encryption schemes (§3.1, §4.1): which subtrees to encrypt
//!   and which get decoys, plus the experimental Top/Sub/App/Opt variants;
//! * [`encrypt`] — the data-owner side: block sealing, decoy insertion, and
//!   construction of the server metadata (DSI index table, encryption block
//!   table, OPESS value indexes) (§4.1, §5);
//! * [`server`] — the untrusted server: structural joins over DSI intervals,
//!   value-index range lookups, and pruned-response assembly (§6.2);
//! * [`client`] — query translation (§6.1), decryption, decoy removal, and
//!   post-processing (§6.4);
//! * [`system`] — the end-to-end hosted-database wrapper with per-phase
//!   timing and a simulated client/server link (Figure 1), plus the naive
//!   ship-everything baseline of §7.3;
//! * [`analysis`] — the security analysis: exact candidate-database counts
//!   (Theorems 4.1/5.1/5.2), frequency- and size-based attack simulators
//!   (§3.3), and the query-answering belief tracker (Theorem 6.1);
//! * [`telemetry`] — the observability layer: a global metrics registry
//!   (every count, including admissions, sheds and checkpoints, is a series
//!   of it), query-scoped trace spans stitched across the wire, per-query
//!   resource profiles, Prometheus-style / JSON-lines exporters, and the
//!   stderr log that rare state changes (health, scrub repairs, accept
//!   errors) are written to;
//! * [`transport`] / [`serve`] / [`evloop`] — the network service: the
//!   client side of the link (in-process, or TCP with many requests in
//!   flight), what a running server admits, sheds and dispatches per
//!   request, and the one serve path — an epoll event loop over a worker
//!   pool (Linux only);
//! * [`fault`] / [`retry`] — the fault-tolerance layer: seeded fault
//!   injection (message-level wrapper and a TCP chaos proxy) and safe
//!   client-side retry over a window of requests — reconnect after a
//!   failed link, backoff + jitter, and at-most-once mutation replay under
//!   ids minted once;
//! * [`store`] — the out-of-core storage engine: sealed blocks and DSI
//!   posting lists in a paged file behind a pinning buffer pool, a
//!   write-ahead log for O(update) mutations, and a background
//!   checkpointer that folds the log into pages off the serving path.

pub mod aggregate;
pub mod analysis;
pub mod cache;
pub mod client;
pub mod codec;
pub mod constraints;
pub mod cover;
pub mod encrypt;
pub mod error;
pub mod evloop;
pub mod fault;
pub mod persist;
pub mod retry;
pub mod scheme;
pub mod serve;
pub mod server;
pub mod store;
pub mod system;
pub mod telemetry;
pub mod tenant;
pub mod transport;
pub mod update;
mod visible;
pub mod wire;

pub use client::Client;
pub use codec::{CodecError, Message, WireCodec};
pub use constraints::SecurityConstraint;
pub use error::CoreError;
pub use evloop::serve_event;
pub use fault::{ChaosProxy, FaultConfig, FaultTransport, ProxyFaults};
pub use retry::{Retry, RetryConfig};
pub use scheme::{EncryptionScheme, SchemeKind};
pub use serve::{ServeConfig, ServeHandle};
pub use server::Server;
pub use system::{HostedDatabase, OutsourceConfig, Outsourcer, QueryOutcome};
pub use tenant::{Tenant, TenantRegistry, DEFAULT_DB};
pub use transport::{InProcess, TcpTransport, Transport};
pub use visible::VisibleFragment;
