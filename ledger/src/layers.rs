//! Single-layer timings the public API does not already return: each layer's
//! public function is timed on the inputs the workload actually produced —
//! the translated queries and server replies captured during the traced
//! passes — rather than on synthetic ones.

use crate::Res;
use exq_core::client::Client;
use exq_core::codec::{crc32, Message, PROTOCOL_VERSION};
use exq_core::server::Server;
use exq_core::wire::{SPred, SStep, ServerQuery, ServerResponse};
use exq_crypto::{open_block, ChaCha20};
use exq_index::sjoin::{join_anc_desc, sort_intervals};
use exq_index::Interval;
use exq_store::{PagedStore, StoreOptions};
use exq_xml::Document;
use exq_xpath::{eval_document, Path};
use std::hint::black_box;
use std::path::Path as FsPath;
use std::time::{Duration, Instant};

/// One query of the workload as it crossed the wire.
pub struct Capture {
    pub query: String,
    pub server_query: ServerQuery,
    pub response: ServerResponse,
}

/// Distinct queries kept for the layer timings; bounds memory on workloads
/// whose replies run to megabytes.
pub const MAX_CAPTURES: usize = 32;

/// Σ time and call count of one timed function.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    total: Duration,
    calls: u64,
}

impl Acc {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        self.total += t.elapsed();
        self.calls += 1;
        out
    }

    /// Mean milliseconds per call.
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.calls as f64
        }
    }

    pub fn mean_us(&self) -> f64 {
        self.mean_ms() * 1e3
    }

    fn mb_per_s(&self, bytes: u64) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            bytes as f64 / 1e6 / self.total.as_secs_f64()
        }
    }
}

/// Per-query timings of the client, wire and index layers.
#[derive(Debug, Default)]
pub struct PerQuery {
    pub xpath_parse: Acc,
    pub encode_query: Acc,
    pub decode_query: Acc,
    pub encode_answer: Acc,
    pub decode_answer: Acc,
    /// One call = every block of one reply.
    pub open_blocks: Acc,
    pub open_block_mb_s: f64,
    /// One call = every opened block of one reply.
    pub xml_parse: Acc,
    pub xml_parse_mb_s: f64,
    pub eval_plain: Acc,
    /// One call = every ciphertext range of one query.
    pub btree_range: Acc,
    /// One call = the joins between consecutive steps of one query.
    pub join_anc_desc: Acc,
    pub candidates_per_query: f64,
    pub survivors_per_query: f64,
}

fn value_ranges(steps: &[SStep], out: &mut Vec<(String, u128, u128)>) {
    for step in steps {
        for pred in &step.preds {
            match pred {
                SPred::Exists(inner) => value_ranges(inner, out),
                SPred::Value { path, range, .. } => {
                    value_ranges(path, out);
                    if let Some((attr, r)) = range {
                        out.push((attr.clone(), r.lo, r.hi));
                    }
                }
            }
        }
    }
}

/// The DSI candidates of one step, in join order.
fn step_intervals(server: &Server, step: &SStep) -> Vec<Interval> {
    let table = &server.metadata().dsi_table;
    let mut out: Vec<Interval> = step
        .tags
        .iter()
        .flat_map(|t| table.lookup(t).iter().copied())
        .collect();
    sort_intervals(&mut out);
    out
}

/// Times every per-query layer function over the captures, round after
/// round until `budget` is spent (at least one round).
pub fn per_query(
    captures: &[Capture],
    client: &Client,
    plaintext: &Document,
    server: &Server,
    budget: Duration,
) -> Res<PerQuery> {
    let mut m = PerQuery::default();
    if captures.is_empty() {
        return Ok(m);
    }
    let key = client.state().keys.block_key();
    let (mut cipher_bytes, mut xml_bytes) = (0u64, 0u64);
    let (mut candidates, mut survivors) = (0usize, 0usize);
    let started = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || started.elapsed() < budget {
        rounds += 1;
        for c in captures {
            let path = m
                .xpath_parse
                .time(|| Path::parse(&c.query))
                .map_err(|e| format!("{}: {e}", c.query))?;
            m.eval_plain.time(|| eval_document(plaintext, &path));

            let request = Message::Query(c.server_query.clone());
            let frame = m
                .encode_query
                .time(|| request.encode_frame_req(PROTOCOL_VERSION, 0, 1));
            m.decode_query.time(|| Message::decode_frame(&frame))?;
            let reply = Message::Answer(c.response.clone());
            let frame = m
                .encode_answer
                .time(|| reply.encode_frame_req(PROTOCOL_VERSION, 0, 1));
            m.decode_answer.time(|| Message::decode_frame(&frame))?;

            let opened = m.open_blocks.time(|| {
                c.response
                    .blocks
                    .iter()
                    .map(|b| open_block(&key, b))
                    .collect::<Result<Vec<_>, _>>()
            });
            let opened = opened.map_err(|e| format!("open_block: {e}"))?;
            cipher_bytes += c
                .response
                .blocks
                .iter()
                .map(|b| b.ciphertext.len() as u64)
                .sum::<u64>();
            let texts: Vec<String> = opened
                .into_iter()
                .map(String::from_utf8)
                .collect::<Result<_, _>>()?;
            xml_bytes += texts.iter().map(|t| t.len() as u64).sum::<u64>();
            m.xml_parse
                .time(|| {
                    texts
                        .iter()
                        .map(|t| Document::parse(t))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| format!("block re-parse: {e}"))?;

            let mut ranges = Vec::new();
            value_ranges(&c.server_query.steps, &mut ranges);
            m.btree_range.time(|| {
                for (attr, lo, hi) in &ranges {
                    if let Some(tree) = server.metadata().value_indexes.get(attr) {
                        black_box(tree.range(*lo, *hi));
                    }
                }
            });
            let lists: Vec<Vec<Interval>> = c
                .server_query
                .steps
                .iter()
                .map(|s| step_intervals(server, s))
                .collect();
            m.join_anc_desc.time(|| {
                for pair in lists.windows(2) {
                    black_box(join_anc_desc(&pair[0], &pair[1]));
                }
            });

            if rounds == 1 {
                let report = server.explain(&c.server_query);
                candidates += report.steps.iter().map(|s| s.candidates).sum::<usize>();
                survivors += report.steps.iter().map(|s| s.survivors).sum::<usize>();
            }
        }
    }
    m.open_block_mb_s = m.open_blocks.mb_per_s(cipher_bytes);
    m.xml_parse_mb_s = m.xml_parse.mb_per_s(xml_bytes);
    m.candidates_per_query = candidates as f64 / captures.len() as f64;
    m.survivors_per_query = survivors as f64 / captures.len() as f64;
    Ok(m)
}

/// Throughput of the two byte-at-a-time kernels, over 1 MiB each.
pub struct Kernels {
    pub chacha_mb_s: f64,
    pub crc32_mb_s: f64,
}

pub fn kernels() -> Kernels {
    const MIB: usize = 1 << 20;
    const ROUNDS: u64 = 8;
    let mut data = vec![0x5au8; MIB];
    let cipher = ChaCha20::new(&[7u8; 32], &[9u8; 12]);
    let (mut chacha, mut crc) = (Acc::default(), Acc::default());
    for _ in 0..ROUNDS {
        chacha.time(|| cipher.apply_keystream(1, black_box(&mut data)));
        crc.time(|| crc32(&[black_box(&data)]));
    }
    Kernels {
        chacha_mb_s: chacha.mb_per_s(ROUNDS * MIB as u64),
        crc32_mb_s: crc.mb_per_s(ROUNDS * MIB as u64),
    }
}

/// Record reads against a workload's store directory once nothing serves
/// from it any more.
pub struct StoreProbe {
    /// Mean `PagedStore::get` with an empty pool: fault, CRC, copy.
    pub get_cold: Acc,
    /// The same reads again with every page resident.
    pub get_warm: Acc,
    pub load_postings: Acc,
}

pub fn store_probe(dir: &FsPath, page_size: usize) -> Res<StoreProbe> {
    // The default pool holds the whole store, so the second sweep is all
    // hits.
    let (store, _replay) = PagedStore::open(
        dir,
        StoreOptions {
            page_size,
            ..StoreOptions::default()
        },
    )?;
    let ids = store.record_ids();
    let mut probe = StoreProbe {
        get_cold: Acc::default(),
        get_warm: Acc::default(),
        load_postings: Acc::default(),
    };
    for &id in &ids {
        probe.get_cold.time(|| store.get(id))?;
    }
    for &id in &ids {
        probe.get_warm.time(|| store.get(id))?;
    }
    let mut k = 0u32;
    while store.contains(exq_index::paged::posting_record_id(k)) {
        probe
            .load_postings
            .time(|| exq_index::paged::load_postings(&store, k))?;
        k += 1;
    }
    Ok(probe)
}
