//! E16 — extension: server response caching (`--cache-entries`).
//!
//! Not a paper figure: the paper's server recomputes every query from
//! scratch, but deterministic tag encryption and OPESS make identical
//! client queries byte-identical on the wire — a memoization opportunity
//! the original system leaves on the table. This experiment replays a
//! Zipf-skewed hot-query workload (repeats dominate, as in real query
//! logs) against the hospital and XMark datasets in three configurations:
//!
//! * **disabled** — `--cache-entries 0`, the paper-faithful baseline;
//! * **cold** — caches enabled but empty at replay start, so first
//!   occurrences miss and repeats hit;
//! * **warm** — a second replay of the same schedule, all hits.
//!
//! Reported per configuration: total server `process_time` over the
//! replay, speedup over disabled, and the response-cache hit rate. Answers
//! are asserted byte-identical across all three configurations — the
//! cache must be purely a performance knob. Results also land in
//! `BENCH_e16_cache.json`.

use crate::report::Table;
use crate::ExpConfig;
use exq_core::scheme::SchemeKind;
use exq_core::system::{HostedDatabase, OutsourceConfig, Outsourcer};
use exq_core::wire::ServerQuery;
use exq_workload::{hospital, xmark};
use std::time::Duration;

/// Replay length per workload: long enough that Zipf repeats dominate.
const REPLAY_LEN: usize = 80;
const CACHE_ENTRIES: usize = 1024;

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
                0x16,
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
                0x61,
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

/// Deterministic Zipf(1)-skewed schedule of query indices: rank `r` drawn
/// with probability ∝ 1/(r+1). A tiny splitmix/LCG keeps the experiment
/// dependency-free and byte-reproducible from the config seed.
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

/// Replays the schedule once, returning total server process time and the
/// per-draw `pruned_xml` answers (for equivalence checking).
fn replay(
    sweep: &Sweep,
    translated: &[ServerQuery],
    schedule: &[usize],
) -> (Duration, Vec<String>) {
    let mut total = Duration::ZERO;
    let mut answers = Vec::with_capacity(schedule.len());
    for &qi in schedule {
        let resp = sweep.hosted.server.answer(&translated[qi]).unwrap();
        total += resp.process_time;
        answers.push(resp.pruned_xml);
    }
    (total, answers)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let mut tables = Vec::new();
    let mut json = String::from("{\n  \"experiment\": \"e16_cache\",\n  \"datasets\": [\n");

    for (wi, mut sweep) in workloads(cfg).into_iter().enumerate() {
        let translated: Vec<ServerQuery> = sweep
            .queries
            .iter()
            .map(|q| {
                sweep
                    .hosted
                    .client
                    .translate(q)
                    .expect("translate")
                    .server_query
                    .expect("server-evaluable query")
            })
            .collect();
        let schedule = zipf_schedule(translated.len(), cfg.seed ^ (wi as u64));

        // Paper-faithful baseline: caches off.
        sweep.hosted.server.set_cache_entries(Some(0));
        let (disabled_time, reference) = replay(&sweep, &translated, &schedule);

        // Cold: fresh cache, so first occurrences miss and repeats hit.
        sweep.hosted.server.set_cache_entries(Some(CACHE_ENTRIES));
        let (cold_time, cold_answers) = replay(&sweep, &translated, &schedule);
        let cold_stats = sweep.hosted.server.cache_stats();

        // Warm: every draw is a repeat of the cold replay.
        let before = sweep.hosted.server.cache_stats();
        let (warm_time, warm_answers) = replay(&sweep, &translated, &schedule);
        let after = sweep.hosted.server.cache_stats();
        let warm_hits = after.response_hits - before.response_hits;
        let warm_misses = after.response_misses - before.response_misses;

        assert_eq!(
            cold_answers, reference,
            "{}: cold-cache answers diverged from uncached",
            sweep.name
        );
        assert_eq!(
            warm_answers, reference,
            "{}: warm-cache answers diverged from uncached",
            sweep.name
        );
        assert_eq!(
            warm_misses, 0,
            "{}: warm replay missed the response cache",
            sweep.name
        );

        let cold_speedup = disabled_time.as_secs_f64() / cold_time.as_secs_f64().max(1e-12);
        let warm_speedup = disabled_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-12);
        assert!(
            warm_speedup >= 2.0,
            "{}: warm replay only {warm_speedup:.2}x over cache-disabled",
            sweep.name
        );

        let rate = |hits: u64, misses: u64| -> Option<f64> {
            let total = hits + misses;
            (total > 0).then(|| hits as f64 / total as f64)
        };
        let cold_hit_rate = rate(cold_stats.response_hits, cold_stats.response_misses);

        let mut t = Table::new(
            &format!("e16_cache_{}", sweep.name),
            &format!(
                "Hot-query replay over the {} workload ({} draws, Zipf-skewed, {} distinct)",
                sweep.name,
                schedule.len(),
                translated.len()
            ),
            &[
                "config",
                "server process (ms)",
                "speedup",
                "resp hit rate",
                "answers",
            ],
        );
        let rows = [
            ("disabled", disabled_time, 1.0, None),
            ("cold", cold_time, cold_speedup, cold_hit_rate),
            (
                "warm",
                warm_time,
                warm_speedup,
                Some(warm_hits as f64 / schedule.len() as f64),
            ),
        ];
        if wi > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"replay_len\": {}, \"distinct_queries\": {}, \"rows\": [\n",
            sweep.name,
            schedule.len(),
            translated.len()
        ));
        let pct = |r: &Option<f64>| match r {
            Some(v) => format!("{:.0}%", v * 100.0),
            None => "-".to_string(),
        };
        let num = |r: &Option<f64>| match r {
            Some(v) => format!("{v:.3}"),
            None => "null".to_string(),
        };
        for (ri, (config, time, speedup, resp_rate)) in rows.iter().enumerate() {
            t.row(vec![
                config.to_string(),
                format!("{:.3}", ms(*time)),
                format!("{speedup:.2}x"),
                pct(resp_rate),
                "identical".to_string(),
            ]);
            if ri > 0 {
                json.push_str(",\n");
            }
            json.push_str(&format!(
                "      {{ \"config\": \"{config}\", \"process_ms\": {:.5}, \
                 \"speedup\": {speedup:.3}, \"response_hit_rate\": {}, \
                 \"answers_identical\": true }}",
                ms(*time),
                num(resp_rate),
            ));
        }
        json.push_str("\n    ] }");
        tables.push(t);
    }

    json.push_str("\n  ]\n}\n");
    // Anchor to the workspace root so the trajectory file lands in the same
    // place no matter the working directory (cargo run vs. cargo test).
    if cfg.write_root_artifacts {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e16_cache.json");
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("e16: could not write {out}: {e}");
        }
    }
    tables
}
