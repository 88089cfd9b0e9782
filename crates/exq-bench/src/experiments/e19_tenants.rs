//! E19 — extension: multi-tenant fairness — one serve loop, one Zipf-hot
//! tenant, two quiet tenants.
//!
//! Not a paper figure: the paper hosts one sealed database per server. This
//! experiment runs three independently keyed hospital databases behind one
//! [`serve_event`] loop over real sockets. A *hot* tenant is hammered by
//! several threads replaying a Zipf-skewed query schedule while two *quiet*
//! tenants issue sequential queries. Two admission policies are compared:
//!
//! * **none** — no in-flight limits: the hot tenant's burst freely occupies
//!   every worker, and quiet tenants queue behind it;
//! * **fair-share** — a global in-flight cap split evenly per tenant: the
//!   hot tenant sheds `Busy` at its share, quiet tenants keep their slots.
//!
//! Reported per tenant and policy: completed queries, p50/p99 latency, and
//! requests shed. Every quiet-tenant answer is asserted byte-identical to
//! an in-process reference — a neighbor's overload storm must never change
//! another tenant's results. Results also land in `BENCH_e19_tenants.json`.

use crate::report::Table;
use crate::ExpConfig;
use exq_core::evloop::serve_event;
use exq_core::scheme::SchemeKind;
use exq_core::serve::ServeConfig;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::tenant::TenantRegistry;
use exq_core::transport::TcpTransport;
use exq_core::Client;
use exq_workload::hospital;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hot-tenant replay: threads × draws per thread.
const HOT_THREADS: usize = 4;
const HOT_DRAWS: usize = 30;
/// Quiet-tenant sequential queries per policy.
const QUIET_DRAWS: usize = 25;

const QUERIES: &[&str] = &[
    "//patient/pname",
    "//patient[age > 40]/pname",
    "//patient[.//disease = 'flu']/pname",
    "//treat[disease = 'flu']/doctor",
    "//insurance/policy",
];

/// Deterministic Zipf(1) schedule (same generator family as E16/E18).
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

struct TenantRun {
    name: &'static str,
    completed: usize,
    issued: usize,
    latencies: Vec<Duration>,
    shed: u64,
}

/// Builds the three-tenant registry fresh (per policy, so shed counters and
/// caches start from zero) and the paired clients.
fn build_registry(cfg: &ExpConfig, tag: &str) -> (Arc<TenantRegistry>, Vec<(String, Client)>) {
    let registry = Arc::new(TenantRegistry::new(&format!("e19-{tag}-hot")).unwrap());
    let mut clients = Vec::new();
    for (i, role) in ["hot", "quiet1", "quiet2"].iter().enumerate() {
        let name = format!("e19-{tag}-{role}");
        let hosted = Outsourcer::new(OutsourceConfig::default())
            .outsource(
                &hospital::scaled(100, cfg.seed ^ i as u64),
                &hospital::constraints(),
                SchemeKind::Opt,
                cfg.seed ^ 0x19 ^ (i as u64) << 8,
            )
            .expect("outsource");
        let (client, server) = hosted.split();
        registry
            .create(&name, server, client.key_fingerprint(), 0)
            .unwrap();
        clients.push((name, client));
    }
    (registry, clients)
}

/// Runs one policy: hot threads hammer tenant 0, quiet tenants 1 and 2 run
/// sequentially, each checked against its own reference answers; returns
/// per-tenant outcomes (hot first).
fn run_policy(
    cfg: &ExpConfig,
    tag: &str,
    config: ServeConfig,
    references: &[Vec<Vec<String>>],
) -> Vec<TenantRun> {
    let (registry, clients) = build_registry(cfg, tag);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve_event(listener, Arc::clone(&registry), config).unwrap();
    let addr = handle.addr();

    // Hot tenant: HOT_THREADS threads replaying the Zipf schedule. Busy
    // replies count as not-completed; no retry layer, so shedding is
    // visible as failed draws rather than hidden by backoff.
    let (hot_name, hot_client) = (clients[0].0.clone(), clients[0].1.clone());
    let hammers: Vec<_> = (0..HOT_THREADS)
        .map(|t| {
            let name = hot_name.clone();
            let client = hot_client.clone();
            let schedule = zipf_schedule(QUERIES.len(), HOT_DRAWS, cfg.seed ^ (t as u64) << 4);
            std::thread::spawn(move || {
                let mut tcp = TcpTransport::connect_default(addr)
                    .unwrap()
                    .with_db(&name)
                    .unwrap();
                let mut completed = 0usize;
                let mut latencies = Vec::with_capacity(schedule.len());
                for &qi in &schedule {
                    let started = Instant::now();
                    if client.query_via(&mut tcp, QUERIES[qi]).is_ok() {
                        completed += 1;
                        latencies.push(started.elapsed());
                    } else {
                        // Shed or dropped mid-storm: reconnect and move on.
                        tcp = match TcpTransport::connect_default(addr) {
                            Ok(t) => t.with_db(&name).unwrap(),
                            Err(_) => return (completed, latencies),
                        };
                    }
                }
                (completed, latencies)
            })
        })
        .collect();

    // Quiet tenants: sequential, answers checked against each tenant's own
    // in-process reference.
    let mut quiet_runs = Vec::new();
    for (qi_tenant, (name, client)) in clients.iter().enumerate().skip(1) {
        let reference = &references[qi_tenant - 1];
        let mut tcp = TcpTransport::connect_default(addr)
            .unwrap()
            .with_db(name)
            .unwrap();
        let mut latencies = Vec::with_capacity(QUIET_DRAWS);
        let mut completed = 0usize;
        for draw in 0..QUIET_DRAWS {
            let q = QUERIES[draw % QUERIES.len()];
            let started = Instant::now();
            let out = client.query_via(&mut tcp, q).expect("quiet tenant shed");
            latencies.push(started.elapsed());
            completed += 1;
            assert_eq!(
                out.results,
                reference[draw % QUERIES.len()],
                "tenant {name} diverged under the neighbor's storm"
            );
        }
        quiet_runs.push((qi_tenant, name.clone(), completed, latencies));
    }

    let mut hot_completed = 0usize;
    let mut hot_latencies = Vec::new();
    let mut hot_issued = 0usize;
    for h in hammers {
        let (completed, lat) = h.join().unwrap();
        hot_completed += completed;
        hot_issued += HOT_DRAWS;
        hot_latencies.extend(lat);
    }
    hot_latencies.sort();

    let mut runs = vec![TenantRun {
        name: "hot",
        completed: hot_completed,
        issued: hot_issued,
        latencies: hot_latencies,
        shed: registry.get(&hot_name).unwrap().shed_total(),
    }];
    for (idx, name, completed, mut latencies) in quiet_runs {
        latencies.sort();
        runs.push(TenantRun {
            name: if idx == 1 { "quiet1" } else { "quiet2" },
            completed,
            issued: QUIET_DRAWS,
            latencies,
            shed: registry.get(&name).unwrap().shed_total(),
        });
    }
    handle.shutdown();
    runs
}

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    // In-process reference answers for each quiet tenant's query set. The
    // tenant documents are generated with per-tenant seeds (shared across
    // policies), so one reference pass per quiet tenant suffices.
    let mut references = Vec::new();
    for i in 1..3u64 {
        let hosted = Outsourcer::new(OutsourceConfig::default())
            .outsource(
                &hospital::scaled(100, cfg.seed ^ i),
                &hospital::constraints(),
                SchemeKind::Opt,
                cfg.seed ^ 0x19 ^ i << 8,
            )
            .expect("outsource");
        let per_query: Vec<Vec<String>> = QUERIES
            .iter()
            .map(|q| hosted.query(q).expect("reference").results)
            .collect();
        references.push(per_query);
    }

    let policies: &[(&str, ServeConfig)] = &[
        (
            "none",
            ServeConfig {
                workers: 4,
                threads: 1,
                cache_entries: Some(0),
                ..ServeConfig::default()
            },
        ),
        (
            "fair-share",
            ServeConfig {
                workers: 4,
                threads: 1,
                cache_entries: Some(0),
                max_inflight: 3, // 3 tenants → 1 slot each
                ..ServeConfig::default()
            },
        ),
    ];

    let mut t = Table::new(
        "e19_tenants",
        &format!(
            "one serve loop, 3 independently keyed dbs: {HOT_THREADS}×{HOT_DRAWS} Zipf-hot \
             draws vs {QUIET_DRAWS} sequential quiet draws per tenant, by admission policy"
        ),
        &[
            "policy",
            "tenant",
            "issued",
            "completed",
            "p50 (ms)",
            "p99 (ms)",
            "shed",
            "answers",
        ],
    );
    let mut json = String::from("{\n  \"experiment\": \"e19_tenants\",\n  \"rows\": [\n");
    let mut first_row = true;
    for (policy, config) in policies {
        let runs = run_policy(cfg, policy, config.clone(), &references);
        for run in &runs {
            let p50 = percentile(&run.latencies, 0.50);
            let p99 = percentile(&run.latencies, 0.99);
            if run.name != "hot" {
                assert_eq!(
                    run.completed, run.issued,
                    "quiet tenant starved under policy {policy}"
                );
                assert_eq!(run.shed, 0, "quiet tenant shed under policy {policy}");
            }
            t.row(vec![
                policy.to_string(),
                run.name.to_string(),
                run.issued.to_string(),
                run.completed.to_string(),
                format!("{:.3}", ms(p50)),
                format!("{:.3}", ms(p99)),
                run.shed.to_string(),
                if run.name == "hot" { "-" } else { "identical" }.to_string(),
            ]);
            if !first_row {
                json.push_str(",\n");
            }
            first_row = false;
            json.push_str(&format!(
                "    {{ \"policy\": \"{policy}\", \"tenant\": \"{}\", \"issued\": {}, \
                 \"completed\": {}, \"p50_ms\": {:.5}, \"p99_ms\": {:.5}, \"shed\": {} }}",
                run.name,
                run.issued,
                run.completed,
                ms(p50),
                ms(p99),
                run.shed,
            ));
        }
    }
    json.push_str(&format!(
        "\n  ],\n  \"hot_threads\": {HOT_THREADS},\n  \"hot_draws\": {HOT_DRAWS},\n  \
         \"quiet_draws\": {QUIET_DRAWS},\n  \"distinct_queries\": {}\n}}\n",
        QUERIES.len()
    ));

    if cfg.write_root_artifacts {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e19_tenants.json");
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("e19: could not write {out}: {e}");
        }
    }
    vec![t]
}
