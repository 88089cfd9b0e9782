//! E17 — extension: telemetry overhead on the hot-query replay.
//!
//! Not a paper figure: PR 4 retrofits a from-scratch telemetry subsystem
//! (sharded counter/gauge/histogram registry, per-query trace spans) onto
//! the query hot path, and observability is only free if nobody pays for
//! it. This experiment re-runs E16's Zipf-skewed hot-query replay through
//! the *full* client pipeline (`HostedDatabase::query`: translate → wire →
//! server → decrypt → post-process) in three telemetry configurations:
//!
//! * **disabled** — `telemetry::set_enabled(false)`: span recording off,
//!   the cheapest the subsystem can be without recompiling;
//! * **metrics** — the default shipping configuration: counters plus span
//!   histograms (atomic adds on the log-bucketed registry);
//! * **traced** — `telemetry::set_trace_all(true)`: every query also
//!   builds and discards a stitched span tree, the worst case short of
//!   actually writing a trace sink.
//!
//! Each configuration replays the identical schedule `ROUNDS` times over a
//! pre-warmed response cache, with measurements paired per query draw and
//! per-(configuration, draw) minima summed into the replay time (see
//! `measure` — whole-replay timing cannot resolve a sub-percent effect
//! on a machine with load waves). Answers are asserted byte-identical
//! across configurations: telemetry must be invisible in every output
//! bit. Results land in `BENCH_e17_telemetry.json`; the PR's acceptance
//! target is <2% traced overhead on this replay.

use crate::report::Table;
use crate::ExpConfig;
use exq_core::scheme::SchemeKind;
use exq_core::system::{HostedDatabase, OutsourceConfig, Outsourcer};
use exq_core::telemetry;
use exq_workload::{hospital, xmark};
use std::time::{Duration, Instant};

/// Replay length per workload (matches E16: repeats dominate under Zipf).
const REPLAY_LEN: usize = 80;
const CACHE_ENTRIES: usize = 1024;
/// Timed replays per configuration; the minimum is reported. Measurements
/// are paired at the *query* level: each draw runs under all three
/// configurations back-to-back (a mode switch is two atomic stores), with
/// the order rotated per draw, so slow drift — allocator warm-up,
/// frequency scaling, a noisy neighbor — lands on every configuration
/// equally instead of biasing whichever one happened to run first.
const ROUNDS: usize = 7;

struct Sweep {
    name: &'static str,
    hosted: HostedDatabase,
    queries: Vec<&'static str>,
}

fn workloads(cfg: &ExpConfig) -> Vec<Sweep> {
    let host = |doc, cs: &[_], tag: u64| {
        Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, cs, SchemeKind::Opt, cfg.seed ^ tag)
            .expect("outsource")
    };
    vec![
        Sweep {
            name: "hospital",
            hosted: host(
                hospital::scaled(240, cfg.seed),
                &hospital::constraints(),
                0x17,
            ),
            queries: vec![
                "//patient/pname",
                "//patient[age > 40]/pname",
                "//patient[.//disease = 'flu']/pname",
                "//treat[disease = 'flu']/doctor",
                "//insurance/policy",
                "//patient",
            ],
        },
        Sweep {
            name: "xmark",
            hosted: host(
                xmark::generate_people(160, cfg.seed),
                &xmark::constraints(),
                0x71,
            ),
            queries: vec![
                "//person/name",
                "//person/creditcard",
                "//person[age > 40]/name",
                "//person[age > 40]/creditcard",
                "//person/profile/income",
                "//person/address/city",
            ],
        },
    ]
}

/// Deterministic Zipf(1)-skewed schedule of query indices (same generator
/// as E16, so "the E16 hot-query replay" is literal, not approximate).
fn zipf_schedule(n_queries: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..n_queries).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut out = Vec::with_capacity(REPLAY_LEN);
    for _ in 0..REPLAY_LEN {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
        let mut acc = 0.0;
        let mut pick = n_queries - 1;
        for (r, w) in weights.iter().enumerate() {
            acc += w;
            if u < acc {
                pick = r;
                break;
            }
        }
        out.push(pick);
    }
    out
}

/// Replays the schedule once through the full client pipeline, returning
/// wall time and the per-draw result sets (for equivalence checking).
fn replay(sweep: &Sweep, schedule: &[usize]) -> (Duration, Vec<Vec<String>>) {
    let started = Instant::now();
    let mut answers = Vec::with_capacity(schedule.len());
    for &qi in schedule {
        let out = sweep.hosted.query(sweep.queries[qi]).expect("query");
        answers.push(out.results);
    }
    (started.elapsed(), answers)
}

/// One telemetry configuration: a label plus the global switches to apply
/// before each of its replays.
struct Mode {
    name: &'static str,
    enabled: bool,
    trace_all: bool,
}

const MODES: [Mode; 3] = [
    Mode {
        name: "disabled",
        enabled: false,
        trace_all: false,
    },
    Mode {
        name: "metrics",
        enabled: true,
        trace_all: false,
    },
    Mode {
        name: "traced",
        enabled: true,
        trace_all: true,
    },
];

/// Runs `ROUNDS` replays with query-level mode pairing. Per (mode, draw)
/// the minimum time across rounds is kept — an OS preemption spike lands
/// on one draw in one round and the other rounds' minima discard it — and
/// the per-draw minima sum to the configuration's replay time. Returns
/// those sums plus each configuration's first-round answers.
fn measure(sweep: &Sweep, schedule: &[usize]) -> ([Duration; 3], [Vec<Vec<String>>; 3]) {
    let mut draw_best = [(); 3].map(|_| vec![Duration::MAX; schedule.len()]);
    let mut answers: [Vec<Vec<String>>; 3] = Default::default();
    for round in 0..ROUNDS {
        let mut got: [Vec<Vec<String>>; 3] = Default::default();
        for (di, &qi) in schedule.iter().enumerate() {
            for k in 0..MODES.len() {
                let mi = (di + round + k) % MODES.len();
                telemetry::set_enabled(MODES[mi].enabled);
                telemetry::set_trace_all(MODES[mi].trace_all);
                let started = Instant::now();
                let out = sweep.hosted.query(sweep.queries[qi]).expect("query");
                draw_best[mi][di] = draw_best[mi][di].min(started.elapsed());
                got[mi].push(out.results);
            }
        }
        for mi in 0..MODES.len() {
            if round == 0 {
                answers[mi] = std::mem::take(&mut got[mi]);
            } else {
                assert_eq!(
                    got[mi], answers[mi],
                    "{}: answers drifted between rounds",
                    sweep.name
                );
            }
        }
    }
    telemetry::set_enabled(true);
    telemetry::set_trace_all(false);
    (draw_best.map(|per_draw| per_draw.iter().sum()), answers)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let mut tables = Vec::new();
    let mut json = String::from("{\n  \"experiment\": \"e17_telemetry\",\n  \"target_overhead_pct\": 2.0,\n  \"datasets\": [\n");

    for (wi, mut sweep) in workloads(cfg).into_iter().enumerate() {
        // Single-threaded on both ends: scheduler jitter from the decrypt
        // pool would swamp the sub-percent effect being measured.
        sweep.hosted.client.set_threads(1);
        // Pin the cache on and pre-warm it so every measured replay sees
        // the identical all-hot state: the point is the telemetry delta,
        // not cold-start noise.
        sweep.hosted.server.set_cache_entries(Some(CACHE_ENTRIES));
        let schedule = zipf_schedule(sweep.queries.len(), cfg.seed ^ (wi as u64));
        let _ = replay(&sweep, &schedule);

        let ([off_time, metrics_time, traced_time], [reference, metrics_answers, traced_answers]) =
            measure(&sweep, &schedule);

        assert_eq!(
            metrics_answers, reference,
            "{}: span histograms changed an answer",
            sweep.name
        );
        assert_eq!(
            traced_answers, reference,
            "{}: trace collection changed an answer",
            sweep.name
        );

        let overhead =
            |t: Duration| (t.as_secs_f64() / off_time.as_secs_f64().max(1e-12) - 1.0) * 100.0;
        let metrics_overhead = overhead(metrics_time);
        let traced_overhead = overhead(traced_time);
        // Generous sanity bound (the artifact documents the real number
        // against the 2% target): a debug-build smoke run on a loaded CI
        // box is noisy, but an order-of-magnitude regression is a bug.
        assert!(
            traced_overhead < 50.0,
            "{}: traced replay {traced_overhead:.1}% over disabled — span \
             machinery is no longer hot-path cheap",
            sweep.name
        );

        let mut t = Table::new(
            &format!("e17_telemetry_{}", sweep.name),
            &format!(
                "Telemetry overhead on the {} hot-query replay ({} draws, \
                 Zipf-skewed, per-draw min over {} rounds, warm cache)",
                sweep.name,
                schedule.len(),
                ROUNDS
            ),
            &["config", "replay wall (ms)", "overhead", "answers"],
        );
        let rows = [
            (MODES[0].name, off_time, 0.0),
            (MODES[1].name, metrics_time, metrics_overhead),
            (MODES[2].name, traced_time, traced_overhead),
        ];
        if wi > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"replay_len\": {}, \"rounds\": {}, \"rows\": [\n",
            sweep.name,
            schedule.len(),
            ROUNDS
        ));
        for (ri, (config, time, over)) in rows.iter().enumerate() {
            t.row(vec![
                config.to_string(),
                format!("{:.3}", ms(*time)),
                format!("{over:+.2}%"),
                "identical".to_string(),
            ]);
            if ri > 0 {
                json.push_str(",\n");
            }
            json.push_str(&format!(
                "      {{ \"config\": \"{config}\", \"wall_ms\": {:.5}, \
                 \"overhead_pct\": {over:.3}, \"answers_identical\": true }}",
                ms(*time),
            ));
        }
        json.push_str("\n    ] }");
        tables.push(t);
    }

    json.push_str("\n  ]\n}\n");
    // Anchor to the workspace root so the trajectory file lands in the same
    // place no matter the working directory (cargo run vs. cargo test).
    if cfg.write_root_artifacts {
        let out = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_e17_telemetry.json"
        );
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("e17: could not write {out}: {e}");
        }
    }
    tables
}
