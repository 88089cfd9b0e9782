//! Aggregate queries (§6.4).
//!
//! Thanks to the order-preserving value index, MIN and MAX over an encrypted
//! attribute are answered by fetching only the *one block* that contains the
//! extreme occurrence: the server finds the smallest/largest ciphertext in
//! the attribute's value index, ships the block it points to, and the client
//! decrypts just that block. COUNT, as the paper notes, cannot be computed
//! from the index (splitting and scaling deliberately destroy occurrence
//! counts), so it falls back to the full secure query path and counts the
//! post-processed results.

use crate::client::Client;
use crate::error::CoreError;
use crate::server::Server;
use exq_crypto::open_block;
use exq_xml::{SpanDocument, TreeView};
use exq_xpath::{eval, Path};

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    Min,
    Max,
    Count,
}

/// The result of an aggregate query.
#[derive(Debug, Clone)]
pub struct AggregateOutcome {
    /// The aggregate value (string form; numeric attributes render as
    /// numbers).
    pub value: Option<String>,
    /// Blocks the client had to decrypt (0 when the attribute is plaintext,
    /// 1 for MIN/MAX over an encrypted attribute).
    pub blocks_decrypted: usize,
}

impl Server {
    /// The live block holding the extreme ciphertext of an (encrypted)
    /// indexed attribute, or `None` if the attribute has no value index or
    /// every entry points at deleted data. Entries referencing tombstoned
    /// blocks (update support) are skipped: the walk in from that end stops
    /// at the first live one, which is the end itself until a delete.
    pub fn value_extreme(&self, attr_key: &str, max: bool) -> Option<(u128, u32)> {
        let mut entries = self.metadata().value_indexes.get(attr_key)?.iter();
        // Liveness probe only — no need to page the block in.
        let live = |&(_, b): &(u128, u32)| self.block_live(b);
        if max {
            entries.rfind(live)
        } else {
            entries.find(live)
        }
    }
}

impl Client {
    /// Evaluates `agg` over the values selected by `value_path` (a path
    /// whose final step names the attribute, e.g. `//policy/@coverage` or
    /// `//age`) over an in-process link.
    pub fn aggregate(
        &self,
        server: &Server,
        value_path: &str,
        agg: Aggregate,
    ) -> Result<AggregateOutcome, CoreError> {
        let mut link = crate::transport::InProcess::shared(server);
        self.aggregate_via(&mut link, value_path, agg)
    }

    /// [`Client::aggregate`] over an arbitrary transport.
    pub fn aggregate_via(
        &self,
        transport: &mut dyn crate::transport::Transport,
        value_path: &str,
        agg: Aggregate,
    ) -> Result<AggregateOutcome, CoreError> {
        let path = Path::parse(value_path).map_err(|e| CoreError::Query(e.to_string()))?;
        let attr_key = attr_key(&path)
            .ok_or_else(|| CoreError::Query("aggregate path must end in a name".into()))?;

        match agg {
            Aggregate::Count => {
                // Splitting + scaling make COUNT impossible on the index;
                // run the full secure query and count (paper §6.4).
                let outcome = self.query_via(transport, value_path)?;
                Ok(AggregateOutcome {
                    value: Some(outcome.results.len().to_string()),
                    blocks_decrypted: outcome.blocks_shipped,
                })
            }
            Aggregate::Min | Aggregate::Max => {
                let want_max = agg == Aggregate::Max;
                if let Some(opess) = self.state().opess.get(&attr_key) {
                    // Encrypted attribute: one index probe, one block.
                    let enc = self.state().keys.tag_cipher().encrypt(&attr_key);
                    let Some((_, block_id)) = transport.value_extreme(&enc, want_max)? else {
                        return Ok(AggregateOutcome {
                            value: None,
                            blocks_decrypted: 0,
                        });
                    };
                    let block = transport
                        .fetch_block(block_id)?
                        .ok_or_else(|| CoreError::Response("extreme block missing".into()))?;
                    let bytes = open_block(&self.state().keys.block_key(), &block)
                        .map_err(|e| CoreError::Block(e.to_string()))?;
                    let xml =
                        String::from_utf8(bytes).map_err(|e| CoreError::Block(e.to_string()))?;
                    let doc =
                        SpanDocument::parse(&xml).map_err(|e| CoreError::Block(e.to_string()))?;
                    let value = extreme_in_fragment(&doc, &attr_key, want_max, &opess.codec);
                    Ok(AggregateOutcome {
                        value,
                        blocks_decrypted: 1,
                    })
                } else {
                    // Plaintext attribute: evaluate via the normal secure
                    // path (everything relevant is server-visible anyway).
                    let outcome = self.query_via(transport, value_path)?;
                    let texts: Vec<&str> =
                        outcome.results.iter().map(|r| extract_text(r)).collect();
                    let codec = crate::encrypt::ValueCodec::build(&texts);
                    let value = outcome
                        .results
                        .iter()
                        .map(|r| extract_text(r))
                        .filter_map(|v| codec.encode(v).map(|x| (x, v.to_owned())))
                        .max_by(|a, b| {
                            // total_cmp: a literal "NaN" value must not panic.
                            let ord = a.0.total_cmp(&b.0);
                            if want_max {
                                ord
                            } else {
                                ord.reverse()
                            }
                        })
                        .map(|(_, v)| v);
                    Ok(AggregateOutcome {
                        value,
                        blocks_decrypted: 0,
                    })
                }
            }
        }
    }
}

/// The attribute key (`name` or `@name`) named by a path's final step.
fn attr_key(path: &Path) -> Option<String> {
    let last = path.steps.last()?;
    match (&last.axis, &last.test) {
        (exq_xpath::Axis::Attribute, exq_xpath::NodeTest::Name(n)) => Some(format!("@{n}")),
        (_, exq_xpath::NodeTest::Name(n)) => Some(n.clone()),
        _ => None,
    }
}

/// Extremum of an attribute's occurrences inside a decrypted fragment.
fn extreme_in_fragment(
    doc: &SpanDocument,
    attr_key: &str,
    want_max: bool,
    codec: &crate::encrypt::ValueCodec,
) -> Option<String> {
    let query = match attr_key.strip_prefix('@') {
        Some(name) => format!("//@{name}"),
        None => format!("//{attr_key}"),
    };
    let path = Path::parse(&query).ok()?;
    eval(doc, &path)
        .into_iter()
        .map(|n| doc.string_value(n))
        .filter_map(|v| codec.encode(&v).map(|x| (x, v)))
        .max_by(|a, b| {
            // total_cmp: a literal "NaN" value must not panic.
            let ord = a.0.total_cmp(&b.0);
            if want_max {
                ord
            } else {
                ord.reverse()
            }
        })
        .map(|(_, v)| v.into_owned())
}

/// Results render as `<tag>value</tag>` or bare values; extract the value.
fn extract_text(rendered: &str) -> &str {
    if let (Some(start), Some(end)) = (rendered.find('>'), rendered.rfind('<')) {
        if start < end {
            return &rendered[start + 1..end];
        }
    }
    rendered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::SecurityConstraint;
    use crate::scheme::SchemeKind;
    use crate::system::{OutsourceConfig, Outsourcer};

    fn hosted() -> (Client, Server) {
        let doc = SpanDocument::parse(
            r#"<hospital>
                <patient><pname>Betty</pname><age>35</age>
                  <insurance><policy coverage="1000000">34221</policy></insurance></patient>
                <patient><pname>Matt</pname><age>40</age>
                  <insurance><policy coverage="5000">78543</policy></insurance></patient>
                <patient><pname>Zoe</pname><age>29</age>
                  <insurance><policy coverage="10000">91111</policy></insurance></patient>
               </hospital>"#,
        )
        .unwrap();
        let cs = vec![
            SecurityConstraint::parse("//insurance").unwrap(),
            SecurityConstraint::parse("//patient:(/pname, //policy)").unwrap(),
        ];
        Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, &cs, SchemeKind::Opt, 5)
            .unwrap()
            .split()
    }

    #[test]
    fn min_max_over_encrypted_attribute() {
        let (client, server) = hosted();
        let max = client
            .aggregate(&server, "//policy/@coverage", Aggregate::Max)
            .unwrap();
        assert_eq!(max.value.as_deref(), Some("1000000"));
        assert_eq!(max.blocks_decrypted, 1);
        let min = client
            .aggregate(&server, "//policy/@coverage", Aggregate::Min)
            .unwrap();
        assert_eq!(min.value.as_deref(), Some("5000"));
        assert_eq!(min.blocks_decrypted, 1);
    }

    #[test]
    fn min_max_over_plain_attribute() {
        let (client, server) = hosted();
        let max = client.aggregate(&server, "//age", Aggregate::Max).unwrap();
        assert_eq!(max.value.as_deref(), Some("40"));
        assert_eq!(max.blocks_decrypted, 0);
        let min = client.aggregate(&server, "//age", Aggregate::Min).unwrap();
        assert_eq!(min.value.as_deref(), Some("29"));
    }

    #[test]
    fn count_falls_back_to_full_query() {
        let (client, server) = hosted();
        let c = client
            .aggregate(&server, "//policy", Aggregate::Count)
            .unwrap();
        assert_eq!(c.value.as_deref(), Some("3"));
    }

    #[test]
    fn extremes_skip_deleted_blocks() {
        let (client, mut server) = hosted();
        // Delete Betty, whose policy held the maximum coverage.
        let out = client.delete(&mut server, "//patient[age = 35]").unwrap();
        assert_eq!(out.deleted, 1);
        let max = client
            .aggregate(&server, "//policy/@coverage", Aggregate::Max)
            .unwrap();
        assert_eq!(max.value.as_deref(), Some("10000"));
        let min = client
            .aggregate(&server, "//policy/@coverage", Aggregate::Min)
            .unwrap();
        assert_eq!(min.value.as_deref(), Some("5000"));
    }

    #[test]
    fn missing_attribute() {
        let (client, server) = hosted();
        let r = client
            .aggregate(&server, "//nonexistent", Aggregate::Max)
            .unwrap();
        assert_eq!(r.value, None);
    }
}
