//! Unified error type for the core crate.

use std::fmt;

/// Errors surfaced by the core system.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A security-constraint expression failed to parse.
    ConstraintSyntax(String),
    /// An XPath expression failed to parse.
    Query(String),
    /// The document is empty or malformed for the requested operation.
    EmptyDocument,
    /// OPESS plan construction failed for an attribute.
    Opess(String),
    /// A sealed block failed to decrypt/authenticate.
    Block(String),
    /// Response payload could not be parsed back into a document.
    Response(String),
    /// Persistence (save/load) failure.
    Persist(String),
    /// A wire frame failed to encode/decode (see `codec`).
    Codec(String),
    /// A transport-level failure: connect, send, receive, or timeout.
    Transport(String),
    /// An insert delta the server refused before logging or applying it:
    /// its intervals are not one nested run inside the insertion slot, or
    /// its fragment or blocks do not match them.
    Delta(String),
    /// A multi-tenant registry failure: unknown, duplicate, or invalid
    /// database name.
    Tenant(String),
    /// The database is temporarily refusing this class of request —
    /// degraded (read-only) after a storage fault, or faulted entirely.
    /// `retry_after_ms` hints when a client might probe again; retrying
    /// sooner cannot help, so the retry policy treats this as
    /// non-retriable.
    Unavailable {
        /// Suggested wait before the next attempt, in milliseconds.
        retry_after_ms: u32,
        /// Human-readable cause (e.g. "degraded: wal append failed").
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ConstraintSyntax(m) => write!(f, "security constraint syntax: {m}"),
            CoreError::Query(m) => write!(f, "query error: {m}"),
            CoreError::EmptyDocument => write!(f, "document has no root element"),
            CoreError::Opess(m) => write!(f, "OPESS error: {m}"),
            CoreError::Block(m) => write!(f, "block decryption error: {m}"),
            CoreError::Response(m) => write!(f, "malformed server response: {m}"),
            CoreError::Persist(m) => write!(f, "persistence error: {m}"),
            CoreError::Codec(m) => write!(f, "wire codec error: {m}"),
            CoreError::Transport(m) => write!(f, "transport error: {m}"),
            CoreError::Delta(m) => write!(f, "insert delta refused: {m}"),
            CoreError::Tenant(m) => write!(f, "tenant error: {m}"),
            CoreError::Unavailable {
                retry_after_ms,
                reason,
            } => write!(f, "unavailable (retry after {retry_after_ms}ms): {reason}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// XML the core parses on the query path is a server reply; a reply that is
/// not XML is a malformed response.
impl From<exq_xml::ParseError> for CoreError {
    fn from(e: exq_xml::ParseError) -> Self {
        CoreError::Response(e.to_string())
    }
}
