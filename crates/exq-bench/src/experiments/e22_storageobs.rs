//! E22 — extension: storage-aware observability — overhead, exact
//! profile/registry reconciliation, and serving-mode equivalence.
//!
//! Not a paper figure: PR 9 threads a per-query [`exq_core::telemetry::QueryProfile`] through
//! the serve path, wires the paged store's pool/WAL/checkpoint events
//! into the registry, and keeps an always-on flight recorder — and all of
//! it is only admissible if it is invisible. Three closed-loop checks:
//!
//! * **Overhead** (E17 paired-minima style): the E16/E21 Zipf replay runs
//!   over TCP against a *paged* tenant under pool pressure, pairing every
//!   draw across two configurations — `off` (`telemetry::set_enabled
//!   (false)`: observers, profiles, and flight events all gated out) and
//!   `full` (the shipping default: engine observers + per-query profiles +
//!   flight recorder). Per-(mode, draw) minima over `ROUNDS` rounds sum to
//!   the replay time; answers are asserted identical. The artifact
//!   documents the real number against the 2% target;
//!   `EXQ_E22_MAX_OVERHEAD_PCT` tightens the assertion for CI smoke runs.
//! * **Reconciliation**: with tracing on, every request's profile is both
//!   recorded as `profile.*` spans and folded into the `exq_db_*_total
//!   {db="…"}` counters by the same `note_profile` call — so the sum of
//!   per-query span values must equal the registry counter deltas
//!   *exactly*, component by component (faults, decodes, WAL bytes from
//!   real inserts, …). Any drift means a second, unattributed accounting
//!   path exists.
//! * **Equivalence**: the same schedule served serially (one request in
//!   flight) and pipelined (whole schedule submitted before the first
//!   read) must produce bit-identical answer payloads with profiling on —
//!   encoded frames compared byte-for-byte after zeroing the server's
//!   timing fields, which legitimately vary run to run.
//!
//! Results land in `BENCH_e22_storageobs.json`. `EXQ_E22_SMOKE=1` shrinks
//! the dataset for CI while keeping every assertion live.

use crate::report::Table;
use crate::ExpConfig;
use exq_core::codec::{Message, PROTOCOL_VERSION};
use exq_core::evloop::serve_event;
use exq_core::scheme::SchemeKind;
use exq_core::serve::{ServeConfig, ServeHandle};
use exq_core::store::{PagedDb, StoreOptions};
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::telemetry;
use exq_core::tenant::TenantRegistry;
use exq_core::transport::{Pipeline, TcpTransport, Transport};
use exq_core::Client;
use exq_workload::hospital;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DB: &str = "e22";

const QUERIES: &[&str] = &[
    "//patient/pname",
    "//patient[age > 40]/pname",
    "//patient[.//disease = 'flu']/pname",
    "//treat[disease = 'flu']/doctor",
    "//insurance/policy",
];

/// Every profile component: `(field, span histogram, per-db counter)`.
/// The span name is what `finish_profile` records under an active trace;
/// the counter is what `note_profile` folds into the registry.
const COMPONENTS: &[(&str, &str, &str)] = &[
    (
        "pool_hits",
        "exq_span_profile_pool_hits",
        "exq_db_pool_hits_total",
    ),
    (
        "pool_misses",
        "exq_span_profile_pool_misses",
        "exq_db_pool_misses_total",
    ),
    (
        "pages_faulted",
        "exq_span_profile_pages_faulted",
        "exq_db_pages_faulted_total",
    ),
    (
        "evictions",
        "exq_span_profile_evictions",
        "exq_db_evictions_total",
    ),
    (
        "epoch_retries",
        "exq_span_profile_epoch_retries",
        "exq_db_epoch_retries_total",
    ),
    (
        "wal_bytes",
        "exq_span_profile_wal_bytes",
        "exq_db_wal_bytes_total",
    ),
    (
        "records_decoded",
        "exq_span_profile_records_decoded",
        "exq_db_records_decoded_total",
    ),
    (
        "blocks_shipped",
        "exq_span_profile_blocks_shipped",
        "exq_db_blocks_shipped_total",
    ),
    (
        "cache_hit",
        "exq_span_profile_cache_hit",
        "exq_db_cache_hits_total",
    ),
];

fn smoke() -> bool {
    std::env::var("EXQ_E22_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// `(patients, page_size, replay_len, rounds)` — the smoke run shrinks the
/// dataset and the pairing depth but keeps the pool under pressure.
fn scale() -> (usize, usize, usize, usize) {
    if smoke() {
        (160, 1024, 24, 3)
    } else {
        (600, StoreOptions::default().page_size, 60, 7)
    }
}

/// Deterministic Zipf(1) schedule (same generator family as E16/E17/E20).
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

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-(mode, draw) paired minima over `rounds` rounds, mode order rotated
/// per draw (see E17's `measure` for the rationale: whole-replay timing
/// cannot resolve a low-percent effect under load waves; per-draw minima
/// discard preemption spikes symmetrically).
fn measure(
    client: &Client,
    tcp: &mut TcpTransport,
    schedule: &[usize],
    rounds: usize,
) -> ([Duration; 2], [Vec<Vec<String>>; 2]) {
    // Mode 0: telemetry off — observers, profiles, flight all gated out.
    // Mode 1: full instrumentation, the shipping default.
    let mut draw_best = [(); 2].map(|_| vec![Duration::MAX; schedule.len()]);
    let mut answers: [Vec<Vec<String>>; 2] = Default::default();
    for round in 0..rounds {
        let mut got: [Vec<Vec<String>>; 2] = Default::default();
        for (di, &qi) in schedule.iter().enumerate() {
            for k in 0..2 {
                let mi = (di + round + k) % 2;
                telemetry::set_enabled(mi == 1);
                let started = Instant::now();
                let out = client.query_via(tcp, QUERIES[qi]).expect("query");
                draw_best[mi][di] = draw_best[mi][di].min(started.elapsed());
                got[mi].push(out.results);
            }
        }
        for (mi, mode_answers) in got.into_iter().enumerate() {
            if round == 0 {
                answers[mi] = mode_answers;
            } else {
                assert_eq!(
                    mode_answers, answers[mi],
                    "mode {mi}: answers drifted between rounds"
                );
            }
        }
    }
    telemetry::set_enabled(true);
    (draw_best.map(|per_draw| per_draw.iter().sum()), answers)
}

/// Answer frames with run-varying metadata zeroed: the server's measured
/// timings (and trace spans) legitimately differ between runs; everything
/// else — pruned document, sealed blocks, cache flag — must not.
fn canonical_bytes(msg: &Message) -> Vec<u8> {
    let mut m = msg.clone();
    if let Message::Answer(resp) = &mut m {
        resp.translate_time = Duration::ZERO;
        resp.process_time = Duration::ZERO;
        resp.spans.clear();
    }
    m.encode_frame_req(PROTOCOL_VERSION, 0, 0)
}

/// Builds the sealed hospital database, migrates it into a paged store
/// under pool pressure (budget = disk/4), and serves it as tenant `e22`.
fn serve_paged(
    cfg: &ExpConfig,
    dir: &std::path::Path,
    patients: usize,
    page_size: usize,
) -> (ServeHandle, Client) {
    let hosted = Outsourcer::new(OutsourceConfig::default())
        .outsource(
            &hospital::scaled(patients, cfg.seed),
            &hospital::constraints(),
            SchemeKind::Opt,
            cfg.seed ^ 0x22,
        )
        .expect("outsource");
    let (mut client, resident) = hosted.split();
    client.set_threads(1);
    let legacy = dir.join("db.exq");
    if !PagedDb::pages_dir(&legacy).exists() {
        resident.save(&legacy).unwrap();
    }
    // Learn the footprint at a full budget, then reopen at a quarter of it
    // so the replay faults and evicts — the events being instrumented.
    let opts_full = StoreOptions {
        page_size,
        cache_bytes: usize::MAX / 2,
    };
    let (_s, db, _) = PagedDb::open_or_migrate(&legacy, DB, opts_full).unwrap();
    let disk_bytes = db.footprint().disk_bytes as usize;
    drop(_s);
    drop(db);
    let opts = StoreOptions {
        page_size,
        cache_bytes: disk_bytes / 4,
    };
    let (server, _db, _) = PagedDb::open(&PagedDb::pages_dir(&legacy), DB, opts).unwrap();
    let registry = Arc::new(TenantRegistry::new(DB).unwrap());
    registry
        .create(DB, server, client.key_fingerprint(), 0)
        .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    // Response caching off (the serve loop applies this to every hosted
    // server): each query must walk the paged store, so the profile
    // components under test are actually exercised.
    let config = ServeConfig {
        cache_entries: Some(0),
        ..ServeConfig::default()
    };
    let handle = serve_event(listener, registry, config).unwrap();
    (handle, client)
}

pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let (patients, page_size, replay_len, rounds) = scale();
    let dir = std::env::temp_dir().join(format!("exq-e22-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let (handle, mut client) = serve_paged(cfg, &dir, patients, page_size);
    let mut tcp = TcpTransport::connect_default(handle.addr())
        .unwrap()
        .with_db(DB)
        .unwrap();
    let schedule = zipf_schedule(QUERIES.len(), replay_len, cfg.seed ^ 0x22);

    // ---- Part 1: overhead, paired per draw. Warm-up replay first so both
    // modes see the identical steady pool state.
    for &qi in &schedule {
        let _ = client.query_via(&mut tcp, QUERIES[qi]).expect("warm-up");
    }
    let ([off_time, full_time], [off_answers, full_answers]) =
        measure(&client, &mut tcp, &schedule, rounds);
    assert_eq!(
        full_answers, off_answers,
        "instrumentation changed an answer"
    );
    let overhead = (full_time.as_secs_f64() / off_time.as_secs_f64().max(1e-12) - 1.0) * 100.0;
    // Generous sanity bound by default (the artifact documents the real
    // number against the 2% target); CI smoke runs tighten it via env.
    let max_overhead: f64 = std::env::var("EXQ_E22_MAX_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50.0);
    assert!(
        overhead < max_overhead,
        "full instrumentation {overhead:.2}% over telemetry-off (bound {max_overhead}%) — \
         the storage observers are no longer hot-path cheap"
    );

    let mut t_over = Table::new(
        "e22_overhead",
        &format!(
            "{patients}-patient paged tenant (pool at 1/4 of disk), {replay_len} Zipf draws \
             over TCP; per-draw min over {rounds} rounds, response cache off"
        ),
        &["config", "replay wall (ms)", "overhead", "answers"],
    );
    t_over.row(vec![
        "off".into(),
        format!("{:.3}", ms(off_time)),
        "+0.00%".into(),
        "identical".into(),
    ]);
    t_over.row(vec![
        "full (observers + profiles + flight)".into(),
        format!("{:.3}", ms(full_time)),
        format!("{overhead:+.2}%"),
        "identical".into(),
    ]);

    // ---- Part 2: exact reconciliation. Every traced request records its
    // profile twice — as `profile.*` spans and into the per-db counters —
    // from one `note_profile` call; the two accounts must agree exactly.
    let before: Vec<(u64, u64)> = COMPONENTS
        .iter()
        .map(|(_, span, counter)| {
            (
                telemetry::histogram(span).sum_nanos(),
                telemetry::counter(&telemetry::db_series(counter, DB)).get(),
            )
        })
        .collect();
    telemetry::set_trace_all(true);
    for &qi in schedule.iter().take(20) {
        let _ = client
            .query_via(&mut tcp, QUERIES[qi])
            .expect("traced query");
    }
    for i in 0..2u64 {
        let record = format!(
            "<patient><pname>Obs{i}</pname><SSN>9224{i}</SSN><age>41</age>\
             <insurance><policy coverage=\"9000\">2200{i}</policy></insurance></patient>"
        );
        client
            .insert_via(&mut tcp, "/hospital", &record, cfg.seed ^ (0x220 + i))
            .expect("traced insert");
    }
    telemetry::set_trace_all(false);

    let mut t_rec = Table::new(
        "e22_reconcile",
        "per-query profile totals (profile.* span sums) vs per-db registry counters, \
         20 traced queries + 2 traced inserts against the paged tenant",
        &[
            "component",
            "Σ per-query profile",
            "registry delta",
            "verdict",
        ],
    );
    let mut rec_rows = Vec::new();
    for ((field, span, counter), (span_before, ctr_before)) in COMPONENTS.iter().zip(&before) {
        let span_total = telemetry::histogram(span).sum_nanos() - span_before;
        let ctr_total = telemetry::counter(&telemetry::db_series(counter, DB)).get() - ctr_before;
        assert_eq!(
            span_total, ctr_total,
            "{field}: per-query profile totals diverge from the registry — \
             an unattributed accounting path exists"
        );
        t_rec.row(vec![
            field.to_string(),
            span_total.to_string(),
            ctr_total.to_string(),
            "exact".into(),
        ]);
        rec_rows.push(format!(
            "    {{ \"component\": \"{field}\", \"profile_total\": {span_total}, \
             \"registry_delta\": {ctr_total}, \"exact\": true }}"
        ));
    }
    let faulted = telemetry::counter(&telemetry::db_series("exq_db_pages_faulted_total", DB));
    let decoded = telemetry::counter(&telemetry::db_series("exq_db_records_decoded_total", DB));
    let wal = telemetry::counter(&telemetry::db_series("exq_db_wal_bytes_total", DB));
    assert!(faulted.get() > 0, "pool pressure produced no page faults");
    assert!(decoded.get() > 0, "no records decoded through the profile");
    assert!(wal.get() > 0, "inserts appended no attributed WAL bytes");

    // The flight recorder ran through all of the above: its dump must be
    // fetchable over the wire and valid JSON lines.
    let dump = tcp.flight_dump().expect("flight dump");
    let events = exq_core::flight::validate_json_lines(&dump).expect("valid JSON lines");
    assert!(events > 0, "flight recorder captured nothing");
    assert!(
        dump.contains("\"event\":\"admit\""),
        "no admissions recorded"
    );
    drop(tcp);
    handle.shutdown();

    // ---- Part 3: serial ≡ pipelined with profiling on. Two fresh opens
    // of the same paged state (cold caches both), the same translated
    // frames, compared frame-for-frame after zeroing timing metadata.
    let requests: Vec<Message> = {
        let sched = zipf_schedule(QUERIES.len(), replay_len.min(30), cfg.seed ^ 0x2203);
        sched
            .iter()
            .map(|&qi| {
                Message::Query(
                    client
                        .translate(QUERIES[qi])
                        .unwrap()
                        .server_query
                        .expect("server-evaluable"),
                )
            })
            .collect()
    };
    let mut replies: Vec<Vec<Message>> = Vec::new();
    for serial in [true, false] {
        let (handle, _client) = serve_paged(cfg, &dir, patients, page_size);
        let mut pipe = Pipeline::connect_default(handle.addr())
            .unwrap()
            .with_db(DB)
            .unwrap();
        let got = if serial {
            let mut out = Vec::with_capacity(requests.len());
            for req in &requests {
                let id = pipe.submit(req).unwrap();
                let (rid, reply) = pipe.recv().unwrap();
                assert_eq!(rid, id);
                out.push(reply);
            }
            out
        } else {
            pipe.roundtrip_many(&requests).unwrap()
        };
        drop(pipe);
        handle.shutdown();
        replies.push(got);
    }
    assert_eq!(replies[0].len(), replies[1].len(), "pipelined lost replies");
    let mut answer_count = 0usize;
    for (i, (serial, pipelined)) in replies[0].iter().zip(&replies[1]).enumerate() {
        assert!(
            matches!(serial, Message::Answer(_)),
            "draw {i}: serial reply was not an Answer"
        );
        answer_count += 1;
        assert_eq!(
            canonical_bytes(serial),
            canonical_bytes(pipelined),
            "draw {i}: serial and pipelined answers diverged with profiling on"
        );
    }

    let mut t_pipe = Table::new(
        "e22_pipeline_equiv",
        "identical translated frames served one-at-a-time vs fully pipelined, \
         profiling on; encoded answers compared byte-for-byte (timings zeroed)",
        &["mode", "answers", "verdict"],
    );
    t_pipe.row(vec![
        "serial".into(),
        answer_count.to_string(),
        "reference".into(),
    ]);
    t_pipe.row(vec![
        "pipelined".into(),
        answer_count.to_string(),
        "bit-identical".into(),
    ]);

    if cfg.write_root_artifacts {
        let json = format!(
            "{{\n  \"experiment\": \"e22_storageobs\",\n  \"target_overhead_pct\": 2.0,\n  \
             \"patients\": {patients},\n  \"replay_len\": {replay_len},\n  \"rounds\": {rounds},\n  \
             \"overhead\": {{ \"off_ms\": {:.5}, \"full_ms\": {:.5}, \
             \"overhead_pct\": {overhead:.3}, \"answers_identical\": true }},\n  \
             \"reconciliation\": [\n{}\n  ],\n  \
             \"flight_events\": {events},\n  \
             \"pipeline_equivalence\": {{ \"answers\": {answer_count}, \
             \"bit_identical\": true }}\n}}\n",
            ms(off_time),
            ms(full_time),
            rec_rows.join(",\n"),
        );
        let out = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_e22_storageobs.json"
        );
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("e22: could not write {out}: {e}");
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    vec![t_over, t_rec, t_pipe]
}
