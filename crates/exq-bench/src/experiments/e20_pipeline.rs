//! E20 — extension: pipelined event-loop serving at 100 simulated clients.
//!
//! Not a paper figure: the paper's client/server split pays a full round
//! trip per query, so at scale the serve loop — not crypto — bounds
//! throughput. This experiment replays the E14/E16-style Zipf workload
//! from 100 concurrent connections against one hospital database, served
//! by the event loop with a small worker pool, under three client modes:
//!
//! * **evloop-serial** — one request in flight per connection (the
//!   baseline the other two are compared against);
//! * **evloop-pipelined** — every connection submits its whole schedule
//!   before reading the first reply (N in flight, correlated by the
//!   echoed request ids);
//! * **evloop-batch** — the schedule submitted as v5 `Batch` frames
//!   sharing one admission + cache-probe pass per group.
//!
//! Every reply is decrypted and checked against in-process reference
//! answers — the experiment *fails* on a dropped or wrong answer, so the
//! reported throughput is verified goodput. The latency metric is the
//! amortized per-query time on each connection (connection wall time over
//! queries carried): the quantity pipelining actually improves, since a
//! pipelined window trades per-query round trips for one shared flush.
//! Results land in `BENCH_e20_pipeline.json`.

use crate::report::Table;
use crate::ExpConfig;
use exq_core::codec::Message;
use exq_core::evloop::serve_event;
use exq_core::scheme::SchemeKind;
use exq_core::serve::{ServeConfig, ServeHandle};
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::tenant::TenantRegistry;
use exq_core::transport::Pipeline;
use exq_core::Client;
use exq_workload::hospital;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated clients (concurrent connections), `EXQ_E20_CLIENTS` env
/// override (default 100). The drivers below multiplex them over a thread
/// pool, so 1000 connections do not need 1000 driver threads — and since
/// the server re-issues `listen(2)` with a widened kernel backlog, a
/// burst of 1000 simultaneous connects does not overflow the SYN queue.
fn clients() -> usize {
    std::env::var("EXQ_E20_CLIENTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(100)
        .max(1)
}
/// Queries per connection (one Zipf draw each).
const QUERIES_PER_CONN: usize = 20;
/// Driver threads multiplexing the client connections.
const DRIVERS: usize = 8;
/// Items per v5 `Batch` frame in the batch mode.
const BATCH: usize = 10;
/// The server's worker pool. Deliberately small: the point is that 100
/// connections do not need 100 threads.
const EVLOOP_WORKERS: usize = 8;

const QUERIES: &[&str] = &[
    "//patient/pname",
    "//patient[age > 40]/pname",
    "//patient[.//disease = 'flu']/pname",
    "//treat[disease = 'flu']/doctor",
    "//insurance/policy",
];

/// Deterministic Zipf(1) schedule (same generator family as E16/E19).
fn zipf_schedule(n_queries: usize, len: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..n_queries).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
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

#[derive(Clone, Copy)]
enum Mode {
    Serial,
    Pipelined,
    Batch,
}

struct ModeOutcome {
    completed: usize,
    dropped: usize,
    mismatched: usize,
    /// Amortized per-query latencies (conn wall / queries carried), one
    /// sample per query.
    latencies: Vec<Duration>,
    wall: Duration,
}

/// One connection's exchange: submits this connection's schedule in the
/// mode's window shape, returns (wall, replies). The wall covers the whole
/// exchange — submits, replies, and nothing else; decrypt/verify happens
/// outside so every mode is charged identically for it.
fn run_conn(
    addr: SocketAddr,
    mode: Mode,
    reqs: &[Message],
) -> Result<(Duration, Vec<Message>), exq_core::CoreError> {
    let mut pipe = Pipeline::connect_default(addr)?;
    let started = Instant::now();
    let replies = match mode {
        Mode::Serial => {
            let mut replies = Vec::with_capacity(reqs.len());
            for req in reqs {
                let id = pipe.submit(req)?;
                let (rid, reply) = pipe.recv()?;
                debug_assert_eq!(rid, id);
                replies.push(reply);
            }
            replies
        }
        Mode::Pipelined => pipe.roundtrip_many(reqs)?,
        Mode::Batch => {
            let mut replies = Vec::with_capacity(reqs.len());
            for chunk in reqs.chunks(BATCH) {
                replies.extend(pipe.batch(chunk)?);
            }
            replies
        }
    };
    Ok((started.elapsed(), replies))
}

/// Runs one client mode: `clients` connections multiplexed over DRIVERS
/// threads, every answer decrypted and checked against `references`.
#[allow(clippy::too_many_arguments)]
fn run_mode(
    cfg: &ExpConfig,
    handle: &ServeHandle,
    mode: Mode,
    client: &Client,
    requests: &[Message],
    references: &[Vec<String>],
    clients: usize,
) -> ModeOutcome {
    let addr = handle.addr();
    let started = Instant::now();
    let drivers: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let client = client.clone();
            let requests = requests.to_vec();
            let references = references.to_vec();
            let seed = cfg.seed;
            std::thread::spawn(move || {
                let mut latencies = Vec::new();
                let (mut completed, mut dropped, mut mismatched) = (0usize, 0usize, 0usize);
                // Driver d owns connections d, d+DRIVERS, d+2·DRIVERS, …
                for conn in (d..clients).step_by(DRIVERS) {
                    let schedule =
                        zipf_schedule(QUERIES.len(), QUERIES_PER_CONN, seed ^ (conn as u64) << 3);
                    let reqs: Vec<Message> =
                        schedule.iter().map(|&qi| requests[qi].clone()).collect();
                    let (wall, replies) = match run_conn(addr, mode, &reqs) {
                        Ok(out) => out,
                        Err(_) => {
                            dropped += reqs.len();
                            continue;
                        }
                    };
                    for (&qi, reply) in schedule.iter().zip(&replies) {
                        let ok = match reply {
                            Message::Answer(resp) => client
                                .post_process(
                                    &client.translate(QUERIES[qi]).unwrap().post_query,
                                    resp,
                                )
                                .map(|post| post.results == references[qi])
                                .unwrap_or(false),
                            _ => false,
                        };
                        if ok {
                            completed += 1;
                        } else {
                            mismatched += 1;
                        }
                    }
                    dropped += reqs.len().saturating_sub(replies.len());
                    let amortized = wall / reqs.len().max(1) as u32;
                    latencies.extend(std::iter::repeat_n(amortized, replies.len()));
                }
                (completed, dropped, mismatched, latencies)
            })
        })
        .collect();

    let mut outcome = ModeOutcome {
        completed: 0,
        dropped: 0,
        mismatched: 0,
        latencies: Vec::new(),
        wall: Duration::ZERO,
    };
    for driver in drivers {
        let (completed, dropped, mismatched, latencies) = driver.join().unwrap();
        outcome.completed += completed;
        outcome.dropped += dropped;
        outcome.mismatched += mismatched;
        outcome.latencies.extend(latencies);
    }
    outcome.wall = started.elapsed();
    outcome.latencies.sort();
    outcome
}

/// A fresh single-db registry from the fixed seed, so every mode is served
/// an identical database with cold caches.
fn build_registry(cfg: &ExpConfig) -> (Arc<TenantRegistry>, Client) {
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(
            &hospital::scaled(100, cfg.seed),
            &hospital::constraints(),
            SchemeKind::Opt,
            cfg.seed ^ 0x20,
        )
        .expect("outsource");
    let (client, server) = hosted.split();
    let registry = Arc::new(TenantRegistry::new("e20").unwrap());
    registry
        .create("e20", server, client.key_fingerprint(), 0)
        .unwrap();
    (registry, client)
}

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let clients = clients();
    // In-process reference answers, from an identically seeded database.
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(
            &hospital::scaled(100, cfg.seed),
            &hospital::constraints(),
            SchemeKind::Opt,
            cfg.seed ^ 0x20,
        )
        .expect("outsource");
    let references: Vec<Vec<String>> = QUERIES
        .iter()
        .map(|q| hosted.query(q).expect("reference").results)
        .collect();
    drop(hosted);

    // The dispatch-queue bound is sized for the offered load (clients
    // connections × QUERIES_PER_CONN frames can all be in flight at once
    // when pipelined); the default auto bound of 8×workers would shed the
    // burst with `Busy`, which this experiment counts as a failure.
    let config = ServeConfig {
        workers: EVLOOP_WORKERS,
        threads: 1,
        accept_backlog: 2 * clients * QUERIES_PER_CONN,
        ..ServeConfig::default()
    };
    let modes = [
        ("evloop-serial", Mode::Serial),
        ("evloop-pipelined", Mode::Pipelined),
        ("evloop-batch", Mode::Batch),
    ];

    let mut t = Table::new(
        "e20_pipeline",
        &format!(
            "{clients} concurrent connections × {QUERIES_PER_CONN} Zipf draws, verified \
             answers; amortized per-query latency by client mode"
        ),
        &[
            "mode",
            "workers",
            "queries",
            "completed",
            "dropped",
            "mismatched",
            "p50 (ms)",
            "p99 (ms)",
            "wall (ms)",
            "queries/s",
        ],
    );

    let mut json = String::from("{\n  \"experiment\": \"e20_pipeline\",\n  \"rows\": [\n");
    let mut p99_by_mode = [f64::NAN; 3];
    for (i, (name, mode)) in modes.into_iter().enumerate() {
        let (registry, client) = build_registry(cfg);
        let workers = config.workers;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve_event(listener, registry, config.clone()).unwrap();

        // Requests are translated once — every mode replays identical
        // frames, so mode differences are purely scheduling.
        let requests: Vec<Message> = QUERIES
            .iter()
            .map(|q| {
                Message::Query(
                    client
                        .translate(q)
                        .unwrap()
                        .server_query
                        .expect("server-evaluable"),
                )
            })
            .collect();

        let out = run_mode(cfg, &handle, mode, &client, &requests, &references, clients);
        handle.shutdown();

        assert_eq!(out.dropped, 0, "{name}: dropped answers");
        assert_eq!(out.mismatched, 0, "{name}: wrong answers");
        assert_eq!(
            out.completed,
            clients * QUERIES_PER_CONN,
            "{name}: lost queries"
        );

        let p50 = percentile(&out.latencies, 0.50);
        let p99 = percentile(&out.latencies, 0.99);
        let qps = out.completed as f64 / out.wall.as_secs_f64().max(1e-9);
        t.row(vec![
            name.to_string(),
            workers.to_string(),
            (clients * QUERIES_PER_CONN).to_string(),
            out.completed.to_string(),
            out.dropped.to_string(),
            out.mismatched.to_string(),
            format!("{:.3}", ms(p50)),
            format!("{:.3}", ms(p99)),
            format!("{:.1}", ms(out.wall)),
            format!("{qps:.0}"),
        ]);
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{ \"mode\": \"{name}\", \"workers\": {workers}, \"clients\": {clients}, \
             \"queries\": {}, \"completed\": {}, \"dropped\": {}, \"mismatched\": {}, \
             \"p50_ms\": {:.5}, \"p99_ms\": {:.5}, \"wall_ms\": {:.3}, \"qps\": {qps:.1} }}",
            clients * QUERIES_PER_CONN,
            out.completed,
            out.dropped,
            out.mismatched,
            ms(p50),
            ms(p99),
            ms(out.wall),
        ));
        p99_by_mode[i] = ms(p99);
    }

    // Rows are in `modes` order; the serial row is the baseline.
    let [baseline_p99, pipelined_p99, batch_p99] = p99_by_mode;
    json.push_str(&format!(
        "\n  ],\n  \"clients\": {clients},\n  \"queries_per_conn\": {QUERIES_PER_CONN},\n  \
         \"baseline_p99_ms\": {baseline_p99:.5},\n  \"pipelined_p99_ms\": {pipelined_p99:.5},\n  \
         \"batch_p99_ms\": {batch_p99:.5},\n  \"p99_speedup\": {:.3}\n}}\n",
        baseline_p99 / pipelined_p99.max(1e-9),
    ));

    if cfg.write_root_artifacts {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e20_pipeline.json");
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("e20: could not write {out}: {e}");
        }
    }
    vec![t]
}
