//! The traced run's span bookkeeping.
//!
//! The benchmark owns a root span `query` around each traced operation and
//! child spans around `Client::translate`, `Transport::send_query` (which
//! opens `wire.roundtrip` itself and adopts the server's `server.*`,
//! `store.*` and `profile.*` spans beneath it) and `Client::post_process`.
//! Spans stay in memory; the first `RETAINED_SPANS` are written out as JSON
//! lines when the run ends. A layer's self time is its span minus the part
//! its children cover.

use exq_core::telemetry::{span_json, SpanRec};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// Server spans that partition the server's share of a round trip.
/// `store.read_block` nests inside `server.assemble` in time and is
/// reported beside it, not added to it.
pub const SERVER_PHASES: [&str; 5] = [
    "server.cache_probe",
    "server.dsi_lookup",
    "server.value_resolve",
    "server.sjoin",
    "server.assemble",
];

/// Spans kept for the JSON-lines file — about two passes of the workload
/// with the most spans per query (a paged block fetch records one per block
/// read); queries traced after that only feed the totals.
pub const RETAINED_SPANS: usize = 40_000;

#[derive(Default)]
pub struct TraceAgg {
    /// Traced query operations folded in.
    pub queries: u64,
    pub spans: u64,
    /// Σ duration by span name, nanoseconds (`profile.*` spans carry a raw
    /// count in the same field).
    by_name: HashMap<String, u64>,
    /// Σ over queries of the `query` span's own duration.
    query_ns: u64,
    /// Σ over queries of the time direct children of `query` cover.
    covered_ns: u64,
    /// Smallest per-query coverage seen.
    pub min_coverage: f64,
    retained: Vec<SpanRec>,
}

impl TraceAgg {
    pub fn new() -> TraceAgg {
        TraceAgg {
            min_coverage: 1.0,
            ..TraceAgg::default()
        }
    }

    /// Folds one traced query's stitched span tree in.
    pub fn add_query(&mut self, spans: Vec<SpanRec>) {
        let Some(root) = spans.iter().find(|s| s.name == "query" && s.parent == 0) else {
            return;
        };
        let covered: u64 = spans
            .iter()
            .filter(|s| s.parent == root.id)
            .map(|s| s.dur_ns)
            .sum();
        self.queries += 1;
        self.spans += spans.len() as u64;
        self.query_ns += root.dur_ns;
        self.covered_ns += covered.min(root.dur_ns);
        if root.dur_ns > 0 {
            let c = covered.min(root.dur_ns) as f64 / root.dur_ns as f64;
            self.min_coverage = self.min_coverage.min(c);
        }
        for s in &spans {
            *self.by_name.entry(s.name.clone()).or_default() += s.dur_ns;
        }
        if self.retained.len() < RETAINED_SPANS {
            self.retained.extend(spans);
        }
    }

    /// Σ nanoseconds (or raw count) recorded under `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }

    /// Mean per traced query of `name`, in nanoseconds (or raw count).
    pub fn per_query(&self, name: &str) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total(name) as f64 / self.queries as f64
        }
    }

    pub fn server_ns(&self) -> u64 {
        SERVER_PHASES.iter().map(|n| self.total(n)).sum()
    }

    pub fn query_ns(&self) -> u64 {
        self.query_ns
    }

    /// Time-weighted share of `query` spans that named child spans cover.
    pub fn coverage(&self) -> f64 {
        if self.query_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.query_ns as f64
        }
    }

    /// Writes the retained spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.retained {
            writeln!(w, "{}", span_json(s))?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_core::telemetry::Side;

    fn span(id: u64, parent: u64, name: &str, dur_ns: u64) -> SpanRec {
        SpanRec {
            trace: 1,
            id,
            parent,
            name: name.into(),
            side: Side::Client,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn coverage_counts_direct_children_only() {
        let mut agg = TraceAgg::new();
        agg.add_query(vec![
            span(1, 0, "query", 1000),
            span(2, 1, "client.translate", 100),
            span(3, 1, "wire.roundtrip", 700),
            span(4, 3, "server.assemble", 400),
            span(5, 3, "server.sjoin", 100),
            span(6, 1, "client.post", 150),
        ]);
        assert_eq!(agg.queries, 1);
        assert!((agg.coverage() - 0.95).abs() < 1e-12);
        assert_eq!(agg.server_ns(), 500);
        assert_eq!(agg.per_query("wire.roundtrip"), 700.0);
        // A tree without the benchmark's root span is ignored.
        agg.add_query(vec![span(9, 0, "wire.roundtrip", 5)]);
        assert_eq!(agg.queries, 1);
    }
}
