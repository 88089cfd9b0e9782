//! E18 — extension: fault tolerance — goodput and latency under injected
//! faults.
//!
//! Not a paper figure: the paper assumes a reliable channel between the
//! client and the untrusted server. This experiment replays a Zipf-skewed
//! hot-query workload over the hospital dataset through
//! [`FaultTransport`] + [`Retry`] while sweeping the injected fault rate
//! (dropped requests/responses, corrupted reply frames), and reports per
//! rate:
//!
//! * **goodput** — the fraction of logical queries that completed within
//!   the retry budget;
//! * **p50/p99 latency** per logical query (retries and backoff included);
//! * retry-layer work: attempts beyond the first and faults injected.
//!
//! Every completed answer is asserted byte-identical to the fault-free
//! replay — the retry layer must be purely an availability knob, never a
//! correctness one. Results also land in `BENCH_e18_faults.json`.

use crate::report::Table;
use crate::ExpConfig;
use exq_core::fault::{FaultConfig, FaultTransport};
use exq_core::retry::{Retry, RetryConfig};
use exq_core::scheme::SchemeKind;
use exq_core::system::{HostedDatabase, OutsourceConfig, Outsourcer};
use exq_core::transport::InProcess;
use exq_workload::hospital;
use std::time::{Duration, Instant};

/// Replay length: long enough for percentiles to mean something while
/// keeping the sweep fast in debug-mode smoke tests.
const REPLAY_LEN: usize = 60;

/// Injected fault rates swept (0 = the reliable-channel baseline).
const RATES: &[f64] = &[0.0, 0.05, 0.15, 0.30];

const QUERIES: &[&str] = &[
    "//patient/pname",
    "//patient[age > 40]/pname",
    "//patient[.//disease = 'flu']/pname",
    "//treat[disease = 'flu']/doctor",
    "//insurance/policy",
    "//patient",
];

/// Same deterministic Zipf(1) schedule generator as E16, kept local so the
/// two experiments stay independently tweakable.
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

struct RateOutcome {
    completed: usize,
    latencies: Vec<Duration>,
    retries: u64,
    faults: u64,
}

/// Replays the schedule once at the given fault rate, checking every
/// completed answer against the fault-free reference.
fn replay(
    hosted: &HostedDatabase,
    schedule: &[usize],
    rate: f64,
    seed: u64,
    reference: Option<&Vec<Option<Vec<String>>>>,
) -> (RateOutcome, Vec<Option<Vec<String>>>) {
    let mut out = RateOutcome {
        completed: 0,
        latencies: Vec::with_capacity(schedule.len()),
        retries: 0,
        faults: 0,
    };
    let mut answers = Vec::with_capacity(schedule.len());
    for (draw, &qi) in schedule.iter().enumerate() {
        let fc = if rate == 0.0 {
            FaultConfig::quiet(seed ^ draw as u64)
        } else {
            FaultConfig {
                // No stalls: latency here should measure retry/backoff
                // cost, not injected sleeps.
                stall_rate: 0.0,
                stall: Duration::ZERO,
                ..FaultConfig::uniform(seed ^ (draw as u64) << 8, rate)
            }
        };
        let mut link = Retry::new(
            FaultTransport::new(InProcess::shared(&hosted.server), fc),
            RetryConfig {
                max_attempts: 6,
                base_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(2),
                jitter_seed: seed ^ draw as u64,
                ping_before_retry: false,
            },
        );
        let started = Instant::now();
        let answer = match hosted.client.run(&mut link, QUERIES[qi]) {
            Ok((_, _, post)) => {
                out.completed += 1;
                Some(post.results)
            }
            Err(_) => None,
        };
        out.latencies.push(started.elapsed());
        out.retries += link.retry_stats().retries;
        out.faults += link.into_inner().tally().total();
        if let (Some(refs), Some(ans)) = (reference, answer.as_ref()) {
            assert_eq!(
                Some(ans),
                refs[draw].as_ref(),
                "answer diverged under faults for {} (rate {rate})",
                QUERIES[qi]
            );
        }
        answers.push(answer);
    }
    (out, answers)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let mut hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(
            &hospital::scaled(240, cfg.seed),
            &hospital::constraints(),
            SchemeKind::Opt,
            cfg.seed ^ 0x18,
        )
        .expect("outsource");
    // Server caching off: every draw pays full evaluation, so fault-rate
    // effects are not masked by response-cache hits.
    hosted.server.set_cache_entries(Some(0));
    let schedule = zipf_schedule(QUERIES.len(), cfg.seed ^ 0xE18);

    // Fault-free reference pass.
    let (_, reference) = replay(&hosted, &schedule, 0.0, cfg.seed, None);
    assert!(
        reference.iter().all(Option::is_some),
        "fault-free replay must complete every query"
    );

    let mut t = Table::new(
        "e18_faults",
        &format!(
            "Zipf hot-query replay ({REPLAY_LEN} draws, {} distinct) through \
             FaultTransport + Retry (budget 6 attempts), by injected fault rate",
            QUERIES.len()
        ),
        &[
            "fault rate",
            "goodput",
            "p50 (ms)",
            "p99 (ms)",
            "retries",
            "faults injected",
            "answers",
        ],
    );
    let mut json = String::from("{\n  \"experiment\": \"e18_faults\",\n  \"rows\": [\n");
    for (ri, &rate) in RATES.iter().enumerate() {
        let (outcome, _) = replay(&hosted, &schedule, rate, cfg.seed, Some(&reference));
        let goodput = outcome.completed as f64 / schedule.len() as f64;
        let mut sorted = outcome.latencies.clone();
        sorted.sort();
        let p50 = percentile(&sorted, 0.50);
        let p99 = percentile(&sorted, 0.99);
        if rate == 0.0 {
            assert_eq!(outcome.faults, 0, "quiet schedule must inject nothing");
            assert!((goodput - 1.0).abs() < 1e-9);
        }
        t.row(vec![
            format!("{rate:.2}"),
            format!("{:.1}%", goodput * 100.0),
            format!("{:.3}", ms(p50)),
            format!("{:.3}", ms(p99)),
            outcome.retries.to_string(),
            outcome.faults.to_string(),
            "identical".to_string(),
        ]);
        if ri > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{ \"fault_rate\": {rate:.2}, \"goodput\": {goodput:.4}, \
             \"p50_ms\": {:.5}, \"p99_ms\": {:.5}, \"retries\": {}, \
             \"faults_injected\": {}, \"answers_identical\": true }}",
            ms(p50),
            ms(p99),
            outcome.retries,
            outcome.faults,
        ));
    }
    json.push_str(&format!(
        "\n  ],\n  \"replay_len\": {REPLAY_LEN},\n  \"distinct_queries\": {},\n  \
         \"retry_budget\": 6\n}}\n",
        QUERIES.len()
    ));

    // Anchor to the workspace root so the trajectory file lands in the same
    // place no matter the working directory (cargo run vs. cargo test).
    if cfg.write_root_artifacts {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e18_faults.json");
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("e18: could not write {out}: {e}");
        }
    }
    vec![t]
}
