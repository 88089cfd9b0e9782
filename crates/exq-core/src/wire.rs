//! The client↔server wire protocol: translated queries and responses.
//!
//! A translated query ([`ServerQuery`], the `Qs` of Figure 1) is a tree
//! pattern whose tags are already in server-visible form (plaintext for
//! visible nodes, Vernam ciphertext for block-internal nodes) and whose
//! value predicates are already OPESS ciphertext ranges (Figure 7). The
//! server never sees plaintext sensitive tags or values.

use exq_crypto::{SealedBlocks, ValueRange};
use exq_xpath::{CmpOp, Literal};
use std::time::Duration;

/// Axes the server can evaluate over DSI intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SAxis {
    Child,
    Descendant,
    DescendantOrSelf,
    Attribute,
}

/// One translated step.
#[derive(Debug, Clone, PartialEq)]
pub struct SStep {
    pub axis: SAxis,
    /// DSI-table keys to union; empty means wildcard (any labeled node).
    pub tags: Vec<String>,
    pub preds: Vec<SPred>,
}

/// A translated predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum SPred {
    /// Structural existence of a relative pattern.
    Exists(Vec<SStep>),
    /// A value comparison at the end of a relative pattern. Either side (or
    /// both, when the attribute occurs both inside and outside blocks) may
    /// be present; the predicate holds if any side matches.
    Value {
        path: Vec<SStep>,
        /// Encrypted side: value-index attribute key + ciphertext range.
        range: Option<(String, ValueRange)>,
        /// Plaintext side: comparison evaluated on the visible document.
        plain: Option<(CmpOp, Literal)>,
    },
}

/// A fully translated query.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerQuery {
    pub steps: Vec<SStep>,
    /// The anchor step (see `client::translate`): the server returns, per
    /// anchor match, the ancestor chain plus the anchor's full region.
    pub anchor: usize,
}

impl ServerQuery {
    /// Exact wire size in bytes: the length of the encoded `Query` frame
    /// this query travels in (header and framing fields included). A
    /// `Query` frame's payload is exactly the query's own encoding.
    pub fn wire_size(&self) -> usize {
        use crate::codec::WireCodec;
        crate::codec::frame_len_of(self.encoded_len())
    }
}

/// The server's answer: a pruned visible document plus the encrypted blocks
/// the client must decrypt.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerResponse {
    /// Serialized pruned visible document (may be empty when nothing
    /// matched).
    pub pruned_xml: String,
    /// Sealed blocks referenced by the pruned document, as one table: every
    /// ciphertext end to end in one buffer. Assembly (and a response-cache
    /// hit) copies each ciphertext once instead of cloning an `Arc` per
    /// block, so the reply is two allocations however many blocks it
    /// carries, and the client decodes and opens it the same way. The
    /// price is memory: a cached reply holds its own ciphertexts and a
    /// 40-byte entry per block, where it shared the store's blocks.
    pub blocks: SealedBlocks,
    /// Where each block goes: its byte offset in `pruned_xml`, one per
    /// table entry, ascending (document order).
    pub offsets: Vec<u32>,
    /// Time the server spent translating (DSI lookups) — §7.2's "query
    /// translation time on server".
    pub translate_time: Duration,
    /// Time the server spent on structural joins, value-index lookups, and
    /// response assembly. On a response-cache hit this is the (real,
    /// nonzero) time spent probing the cache and assembling the reply.
    pub process_time: Duration,
    /// True when this response was served from the server's response cache
    /// rather than recomputed — lets benchmarks and logs tell hits from
    /// misses instead of inferring them from suspiciously small timings.
    pub served_from_cache: bool,
    /// Server-side telemetry spans for this query, populated only when the
    /// request carried a trace id. The client re-parents these under its
    /// roundtrip span to stitch one client+server trace tree.
    pub spans: Vec<crate::telemetry::SpanRec>,
}

impl ServerResponse {
    /// Exact bytes shipped back to the client: the encoded `Answer` frame
    /// length (header and framing fields included).
    pub fn payload_bytes(&self) -> usize {
        use crate::codec::WireCodec;
        crate::codec::frame_len_of(self.encoded_len())
    }
}

impl std::fmt::Display for ServerQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for step in &self.steps {
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for SStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.axis {
            SAxis::Child => write!(f, "/")?,
            SAxis::Descendant => write!(f, "//")?,
            SAxis::DescendantOrSelf => write!(f, "/descendant-or-self::")?,
            SAxis::Attribute => write!(f, "/@")?,
        }
        match self.tags.as_slice() {
            [] => write!(f, "*")?,
            [one] => write!(f, "{one}")?,
            many => write!(f, "({})", many.join("|"))?,
        }
        for p in &self.preds {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for SPred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn steps(f: &mut std::fmt::Formatter<'_>, s: &[SStep]) -> std::fmt::Result {
            write!(f, ".")?;
            for st in s {
                write!(f, "{st}")?;
            }
            Ok(())
        }
        match self {
            SPred::Exists(s) => {
                write!(f, "[")?;
                steps(f, s)?;
                write!(f, "]")
            }
            SPred::Value { path, range, plain } => {
                write!(f, "[")?;
                steps(f, path)?;
                if let Some((attr, r)) = range {
                    write!(f, " in {attr}:[{:x}..{:x}]", r.lo, r.hi)?;
                }
                if let Some((op, lit)) = plain {
                    write!(f, " {} {}", op.as_str(), lit)?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_crypto::SealedBlock;

    #[test]
    fn wire_size_grows_with_query() {
        let small = ServerQuery {
            steps: vec![SStep {
                axis: SAxis::Descendant,
                tags: vec!["a".into()],
                preds: vec![],
            }],
            anchor: 0,
        };
        let big = ServerQuery {
            steps: vec![
                SStep {
                    axis: SAxis::Descendant,
                    tags: vec!["patient".into()],
                    preds: vec![SPred::Value {
                        path: vec![SStep {
                            axis: SAxis::Attribute,
                            tags: vec!["X123456".into()],
                            preds: vec![],
                        }],
                        range: Some(("X95SER".into(), ValueRange { lo: 0, hi: 10 })),
                        plain: None,
                    }],
                },
                SStep {
                    axis: SAxis::Child,
                    tags: vec!["U84573".into()],
                    preds: vec![],
                },
            ],
            anchor: 0,
        };
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn display_renders_translated_query() {
        let q = ServerQuery {
            steps: vec![
                SStep {
                    axis: SAxis::Descendant,
                    tags: vec!["patient".into()],
                    preds: vec![SPred::Value {
                        path: vec![SStep {
                            axis: SAxis::Attribute,
                            tags: vec!["XTY0POA".into()],
                            preds: vec![],
                        }],
                        range: Some(("X95SER".into(), ValueRange { lo: 1, hi: 255 })),
                        plain: None,
                    }],
                },
                SStep {
                    axis: SAxis::Descendant,
                    tags: vec!["XU84573".into()],
                    preds: vec![],
                },
            ],
            anchor: 0,
        };
        let s = q.to_string();
        assert!(s.contains("//patient["));
        assert!(s.contains("XU84573"));
        assert!(s.contains("X95SER:[1..ff]"));
    }

    #[test]
    fn payload_bytes_is_exact_frame_length() {
        use crate::codec::Message;
        let empty = ServerResponse {
            pruned_xml: "<r/>".into(),
            blocks: SealedBlocks::new(),
            offsets: Vec::new(),
            translate_time: Duration::ZERO,
            process_time: Duration::ZERO,
            served_from_cache: false,
            spans: vec![],
        };
        // payload_bytes == the frame this response actually travels in.
        assert_eq!(
            empty.payload_bytes(),
            Message::Answer(empty.clone()).encode_frame().len()
        );
        let with_block = ServerResponse {
            blocks: [&SealedBlock {
                id: 0,
                nonce: [0; 12],
                ciphertext: vec![0xA5; 100],
                tag: [0; 16],
            }]
            .into_iter()
            .collect(),
            offsets: vec![3],
            ..empty.clone()
        };
        assert_eq!(
            with_block.payload_bytes(),
            Message::Answer(with_block.clone()).encode_frame().len()
        );
        assert!(with_block.payload_bytes() > empty.payload_bytes() + 100);
    }

    #[test]
    fn wire_size_is_exact_frame_length() {
        use crate::codec::Message;
        let q = ServerQuery {
            steps: vec![SStep {
                axis: SAxis::Descendant,
                tags: vec!["a".into()],
                preds: vec![],
            }],
            anchor: 0,
        };
        assert_eq!(
            q.wire_size(),
            Message::Query(q.clone()).encode_frame().len()
        );
    }
}
