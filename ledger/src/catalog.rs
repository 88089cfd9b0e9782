//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics, and the `BENCHMARK.json` they
//! render to. README.md holds the prose catalogue (source call and expected
//! movement of every metric); a unit test keeps the committed
//! `BENCHMARK.json` equal to this file.

use crate::json::{json, Value};

/// How long one run measures, in seconds. `hospital_point`, the slowest
/// workload per operation, then runs ten rounds and collects the ≥200
/// latency samples a p95 needs; the driver's 92 runs, each with five
/// set-ups and a warm pass on top, stay inside its 3420 s.
pub const RUN_SECONDS: u64 = 26;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "ledger/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["ledger"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "xmark_scan",
        why: "Qs/Qm/Ql path queries over 2 MiB XMark, resident, caches off: replies of 0.1-2 MB make codec, socket, block decrypt, XML re-parse and XPath post-process do the work; the index does little.",
    },
    Workload {
        name: "hospital_point",
        why: "Eight value-predicate templates over 1200 patients, resident, caches off: replies are tiny, so server value resolve, structural join and assembly own the time; client or wire changes must not move it.",
    },
    Workload {
        name: "hospital_paged",
        why: "The same database behind PagedDb with the pool at a quarter of the disk bytes: block-fetch queries ship 400-1200 sealed blocks each, so page fault, CRC, record decode and copy are the largest share.",
    },
    Workload {
        name: "hospital_rw",
        why: "The paged tenant with caches on, Zipf(1) reads over 24 point queries plus insert/delete bursts and driver-called tend: p50 sits in the cache-hit mode, p95 in the post-invalidation miss mode.",
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// What the data owner sees. Every workload reports every one of these, so
/// metrics that only some workloads have (insert and delete latency, disk
/// bytes per plain byte) live in the per-layer list instead.
///
/// Each bound is about three times the widest interquartile spread the
/// metric showed over ten runs with ten seeds, which is what the driver
/// compares; README.md has the measurements. At one seed the three counts
/// repeat exactly.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p95_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "reply_bytes_per_query",
        unit: "B",
        better: Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "hosted_bytes_per_plain_byte",
        unit: "B/B",
        better: Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer numbers from the traced run; layer = module name. Per-query
/// means unless the name says otherwise; 0 where a workload does not use
/// the layer (store on resident workloads, cache and update outside
/// `hospital_rw`).
pub const PER_LAYER: [PerLayer; 81] = [
    // set-up
    layer("workload.generate_s", "s", Lower),
    layer("scheme.build_s", "s", Lower),
    layer("encrypt.encrypt_database_s", "s", Lower),
    layer("encrypt.blocks", "count", Lower),
    layer("server.new_s", "s", Lower),
    layer("store.attach_new_s", "s", Lower),
    layer("store.open_s", "s", Lower),
    // client
    layer("client.translate_us", "us", Lower),
    layer("xpath.parse_us", "us", Lower),
    layer("client.decrypt_ms", "ms", Lower),
    layer("crypto.open_block_ms", "ms", Lower),
    layer("crypto.open_block_mb_s", "MB/s", Higher),
    layer("crypto.chacha_mb_s", "MB/s", Higher),
    layer("xml.parse_ms", "ms", Lower),
    layer("xml.parse_mb_s", "MB/s", Higher),
    layer("client.post_process_ms", "ms", Lower),
    layer("xpath.eval_plain_ms", "ms", Lower),
    layer("client.blocks_per_query", "count", Lower),
    layer("client.results_per_query", "count", Higher),
    // wire
    layer("codec.encode_query_us", "us", Lower),
    layer("codec.decode_query_us", "us", Lower),
    layer("codec.encode_answer_ms", "ms", Lower),
    layer("codec.decode_answer_ms", "ms", Lower),
    layer("codec.crc32_mb_s", "MB/s", Higher),
    layer("codec.query_bytes", "B", Lower),
    layer("transport.roundtrip_ms", "ms", Lower),
    layer("transport.ping_us", "us", Lower),
    layer("transport.self_ms", "ms", Lower),
    layer("evloop.queue_wait_us", "us", Lower),
    // server
    layer("server.cache_probe_us", "us", Lower),
    layer("server.dsi_lookup_ms", "ms", Lower),
    layer("server.value_resolve_ms", "ms", Lower),
    layer("server.sjoin_ms", "ms", Lower),
    layer("server.assemble_ms", "ms", Lower),
    layer("server.process_ms", "ms", Lower),
    layer("server.candidates_per_query", "count", Lower),
    layer("server.survivors_per_query", "count", Higher),
    layer("server.useful_work_ratio", "ratio", Higher),
    layer("index.btree_range_us", "us", Lower),
    layer("index.join_anc_desc_us", "us", Lower),
    // cache
    layer("cache.response_hit_ratio", "ratio", Higher),
    layer("cache.range_hit_ratio", "ratio", Higher),
    layer("cache.response_evictions", "count", Lower),
    layer("cache.generation_bumps", "count", Lower),
    // store
    layer("store.pool_hit_ratio", "ratio", Higher),
    layer("store.pool_misses_per_query", "count", Lower),
    layer("store.evictions_per_query", "count", Lower),
    layer("store.pages_faulted_per_query", "count", Lower),
    layer("store.records_decoded_per_query", "count", Lower),
    layer("store.read_block_ms", "ms", Lower),
    layer("store.get_cold_us", "us", Lower),
    layer("store.get_warm_us", "us", Lower),
    layer("index.load_postings_us", "us", Lower),
    layer("store.page_count", "count", Lower),
    layer("store.disk_bytes", "B", Lower),
    layer("store.disk_bytes_per_plain_byte", "B/B", Lower),
    layer("store.paged_p50_ms", "ms", Lower),
    layer("store.resident_twin_p50_ms", "ms", Lower),
    layer("store.paged_over_resident", "ratio", Lower),
    layer("store.tend_ms", "ms", Lower),
    layer("store.checkpoints", "count", Lower),
    layer("store.wal_bytes_per_mutation", "B", Lower),
    // update
    layer("update.insert_p50_ms", "ms", Lower),
    layer("update.delete_p50_ms", "ms", Lower),
    layer("update.locate_ms", "ms", Lower),
    layer("update.slot_ms", "ms", Lower),
    layer("update.prepare_ms", "ms", Lower),
    layer("update.apply_ms", "ms", Lower),
    layer("update.delete_where_ms", "ms", Lower),
    // the end-to-end statistics as they fell, not the quiet pass
    layer("raw.query_p50_ms", "ms", Lower),
    layer("raw.query_p95_ms", "ms", Lower),
    layer("raw.queries_per_s", "1/s", Higher),
    layer("raw.busy_over_quiet", "ratio", Lower),
    // trace
    layer("trace.query_ms", "ms", Lower),
    layer("trace.client_share", "ratio", Lower),
    layer("trace.wire_share", "ratio", Lower),
    layer("trace.server_share", "ratio", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.traced_queries", "count", Higher),
    layer("trace.spans_per_query", "count", Lower),
];

/// The unit a metric is reported in; `None` for a name not in the catalogue.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// `BENCHMARK.json`, exactly the keys the builder's contract names.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.as_str(),
                "bound": m.bound,
            })
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()}))
        .collect();
    json!({
        "command": COMMAND[..],
        "paths": PATHS[..],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(crate::workload::spec(w.name, false).is_some());
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(COMMAND.len() <= 32 && PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(serde_json::to_string_pretty(&manifest()).unwrap().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&text).unwrap(),
            manifest(),
            "regenerate with `ledger manifest > BENCHMARK.json`"
        );
    }
}
