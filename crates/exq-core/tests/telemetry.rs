//! Registry exactness under concurrency. The telemetry invariants the PR
//! pins down: counters never lose increments, a histogram's bucket counts
//! always sum to its observation count, and the wire/cache counters stay
//! exact when eight client threads hammer the TCP serve loop's `RwLock`'d
//! dispatch concurrently.
//!
//! The traffic-generating tests live alone in this binary so registry
//! deltas are exactly this file's own doing (integration test binaries run
//! as separate processes), and take `TRAFFIC` so they are not each other's
//! doing either.

use exq_core::constraints::SecurityConstraint;
use exq_core::evloop::serve_event;
use exq_core::scheme::SchemeKind;
use exq_core::store::{tend, PagedDb, StoreOptions};
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::telemetry;
use exq_core::tenant::{Tenant, TenantRegistry, DEFAULT_DB};
use exq_core::transport::{serve, ServeConfig, ServeHandle, TcpTransport};
use exq_core::{Client, Server};
use exq_xml::Document;
use std::collections::BTreeSet;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

/// Held by each test that sends requests: the wire, cache and span series
/// are process-wide, and `set_trace_all` is a process-wide switch.
static TRAFFIC: Mutex<()> = Mutex::new(());

#[test]
fn eight_thread_hammer_keeps_totals_exact() {
    const THREADS: usize = 8;
    const PER: u64 = 10_000;
    // Unique names: nothing else in this process touches them, so the
    // post-hammer totals are exact, not deltas.
    let c = telemetry::counter("test_hammer_total");
    let g = telemetry::gauge("test_hammer_gauge");
    let h = telemetry::histogram("test_hammer_ns");

    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            s.spawn(move || {
                let c = telemetry::counter("test_hammer_total");
                let g = telemetry::gauge("test_hammer_gauge");
                let h = telemetry::histogram("test_hammer_ns");
                for i in 0..PER {
                    c.inc();
                    g.add(1);
                    g.add(-1);
                    // Spread observations over many octaves.
                    h.observe((t.wrapping_mul(PER) + i) % 1_048_576);
                }
            });
        }
    });

    assert_eq!(c.get(), THREADS as u64 * PER, "lost counter increments");
    assert_eq!(g.get(), 0, "gauge adds/subs must balance");
    assert_eq!(h.count(), THREADS as u64 * PER);
    assert_eq!(
        h.bucket_counts().iter().sum::<u64>(),
        h.count(),
        "bucket counts must sum to the observation count"
    );
    let expected_sum: u64 = (0..THREADS as u64)
        .flat_map(|t| (0..PER).map(move |i| (t.wrapping_mul(PER) + i) % 1_048_576))
        .sum();
    assert_eq!(h.sum_nanos(), expected_sum, "lost histogram sum nanos");
    // Quantiles are monotone and nonzero once observations exist.
    let p50 = h.quantile(0.50);
    let p99 = h.quantile(0.99);
    assert!(p50 <= p99);
    assert!(p99.as_nanos() > 0);

    // The hammered metrics show up in the Prometheus rendering.
    let text = telemetry::render();
    assert!(text.contains("# TYPE test_hammer_total counter"));
    assert!(text.contains("# TYPE test_hammer_ns histogram"));
    assert!(text.contains("test_hammer_ns_count"));
}

fn hosted() -> (Client, Server) {
    let doc = Document::parse(
        r#"<hospital>
            <patient><pname>Betty</pname><SSN>763895</SSN><age>35</age></patient>
            <patient><pname>Matt</pname><SSN>276543</SSN><age>40</age></patient>
           </hospital>"#,
    )
    .unwrap();
    let cs = vec![SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap()];
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 7)
        .unwrap()
        .split()
}

#[test]
fn serve_loop_hammer_keeps_wire_and_cache_counters_exact() {
    const THREADS: usize = 8;
    const PER: usize = 25;
    let _alone = TRAFFIC.lock().unwrap_or_else(|e| e.into_inner());
    let (client, mut server) = hosted();
    // Pin the cache on regardless of any ambient EXQ_CACHE setting, so
    // every query probes the response cache exactly once.
    server.set_cache_entries(Some(1024));
    let shared = Arc::new(RwLock::new(server));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(listener, shared, ServeConfig::default()).unwrap();
    let addr = handle.addr();
    let client = Arc::new(client);

    // The client's wire counters, and the server's own series of the one
    // database `serve` hosts.
    let requests = telemetry::counter("exq_wire_requests_total");
    let sent = telemetry::counter("exq_wire_bytes_sent_total");
    let received = telemetry::counter("exq_wire_bytes_received_total");
    let served = telemetry::counter(&telemetry::db_series("exq_db_requests_total", DEFAULT_DB));
    let hits = telemetry::counter(&telemetry::db_series(
        "exq_cache_response_hits_total",
        DEFAULT_DB,
    ));
    let misses = telemetry::counter(&telemetry::db_series(
        "exq_cache_response_misses_total",
        DEFAULT_DB,
    ));
    let probe_hist = telemetry::histogram("exq_span_server_cache_probe");
    let (req0, sent0, recv0, served0) = (requests.get(), sent.get(), received.get(), served.get());
    let (hits0, misses0, probes0) = (hits.get(), misses.get(), probe_hist.count());

    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                let mut tcp = TcpTransport::connect_default(addr).unwrap();
                for _ in 0..PER {
                    let out = client
                        .query_via(&mut tcp, "//patient[pname = 'Betty']/age")
                        .unwrap();
                    assert_eq!(out.results, ["<age>35</age>"]);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    handle.shutdown();

    let total = (THREADS * PER) as u64;
    assert_eq!(requests.get() - req0, total, "one request frame per query");
    assert_eq!(served.get() - served0, total, "the server saw each one");
    assert!(sent.get() > sent0 && received.get() > recv0);
    assert_eq!(
        (hits.get() - hits0) + (misses.get() - misses0),
        total,
        "every query probes the response cache exactly once"
    );
    assert!(
        hits.get() - hits0 > 0,
        "identical queries must hit the cache"
    );
    assert_eq!(
        probe_hist.count() - probes0,
        total,
        "one cache-probe span observation per query"
    );
    assert_eq!(
        probe_hist.bucket_counts().iter().sum::<u64>(),
        probe_hist.count(),
        "histogram invariant must survive concurrent serve-loop traffic"
    );
}

/// Every field of a request's `QueryProfile` is accounted twice: as a
/// `profile.<field>` span (under a trace) and in one per-db counter family,
/// the db's `exq_db_<field>_total` fed by `finish_profile`, or for a cache
/// hit the response cache's own hit counter. `(field, family)`.
const PROFILE_ACCOUNTS: &[(&str, &str)] = &[
    ("pool_hits", "exq_db_pool_hits_total"),
    ("pages_faulted", "exq_db_pages_faulted_total"),
    ("evictions", "exq_db_evictions_total"),
    ("epoch_retries", "exq_db_epoch_retries_total"),
    ("wal_bytes", "exq_db_wal_bytes_total"),
    ("records_decoded", "exq_db_records_decoded_total"),
    ("blocks_shipped", "exq_db_blocks_shipped_total"),
    ("cache_hit", "exq_cache_response_hits_total"),
];

/// A 48-patient hospital hosted as database `db` behind the event loop,
/// with its store in `dir` and the response cache on. The pool is 32
/// frames of 256 bytes against 48 patients' blocks, so nested block-fetch
/// queries find some pages resident and fault the rest in over evicted
/// ones.
fn host_paged_hospital(db: &str, dir: &Path) -> (Client, ServeHandle, Arc<Tenant>) {
    let mut xml = String::from("<hospital>");
    for i in 0..48 {
        xml.push_str(&format!(
            "<patient><pname>P{i}</pname><SSN>{}</SSN><age>{}</age>\
             <insurance><policy coverage=\"{}\">{}</policy></insurance></patient>",
            100000 + i * 37,
            20 + (i * 7) % 60,
            1000 * (1 + (i * 13) % 900),
            10000 + i * 11,
        ));
    }
    xml.push_str("</hospital>");
    let cs: Vec<_> = ["//insurance", "//patient:(/pname, /SSN)"]
        .iter()
        .map(|c| SecurityConstraint::parse(c).unwrap())
        .collect();
    let (client, resident) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&Document::parse(&xml).unwrap(), &cs, SchemeKind::Opt, 22)
        .unwrap()
        .split();

    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let artifact = dir.join("db.exq");
    resident.save(&artifact).unwrap();
    let opts = StoreOptions {
        page_size: 256,
        cache_bytes: 8192,
    };
    let (server, _db, _) = PagedDb::open_or_migrate(&artifact, db, opts).unwrap();
    let registry = Arc::new(TenantRegistry::new(db).unwrap());
    let tenant = registry
        .create(db, server, client.key_fingerprint(), 0)
        .unwrap();
    let config = ServeConfig {
        cache_entries: Some(64),
        ..ServeConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve_event(listener, registry, config).unwrap();
    (client, handle, tenant)
}

/// With every request traced, the per-query `profile.*` span sums equal the
/// per-db registry counter deltas exactly, component by component, on a
/// paged tenant whose pool is a fraction of its pages — reads that fault,
/// evict and decode, repeats that hit the response cache, inserts that
/// append WAL bytes. Any drift means a second, unattributed accounting path.
#[test]
fn profile_spans_reconcile_exactly_with_db_counters() {
    const DB: &str = "reconcile";
    let _alone = TRAFFIC.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("exq-telemetry-{}", std::process::id()));
    let (mut client, handle, _tenant) = host_paged_hospital(DB, &dir);
    let mut tcp = TcpTransport::connect_default(handle.addr())
        .unwrap()
        .with_db(DB)
        .unwrap();

    let read = |(field, family): &(&str, &str)| {
        let counter = telemetry::db_series(family, DB);
        (
            telemetry::histogram(&format!("exq_span_profile_{field}")).sum_nanos(),
            telemetry::counter(&counter).get(),
        )
    };
    let before: Vec<(u64, u64)> = PROFILE_ACCOUNTS.iter().map(read).collect();

    telemetry::set_trace_all(true);
    let queries: Vec<String> = (0..8)
        .map(|t| format!("//patient[age > {}]/insurance/policy", 20 + 7 * t))
        .chain(["//insurance/policy".into(), "//patient/pname".into()])
        .collect();
    for q in queries.iter().chain(&queries) {
        client.query_via(&mut tcp, q).expect("traced query");
    }
    for i in 0..2u64 {
        let record = format!(
            "<patient><pname>Obs{i}</pname><SSN>9224{i}</SSN><age>41</age>\
             <insurance><policy coverage=\"9000\">2200{i}</policy></insurance></patient>"
        );
        client
            .insert_via(&mut tcp, "/hospital", &record, 0x220 + i)
            .expect("traced insert");
    }
    telemetry::set_trace_all(false);
    drop(tcp);
    handle.shutdown();

    for (account, (span0, counter0)) in PROFILE_ACCOUNTS.iter().zip(before) {
        let (field, _) = *account;
        let (span1, counter1) = read(account);
        assert_eq!(
            span1 - span0,
            counter1 - counter0,
            "{field}: per-query profile spans diverge from the db's counter"
        );
        // One serial connection never races a writer; everything else —
        // hits, faults, evictions, decodes, WAL bytes, shipped blocks,
        // cache hits — must have been exercised for the equality to mean
        // anything.
        if field != "epoch_retries" {
            assert!(counter1 > counter0, "{field} never moved");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every metric family, with its kind, that one process registers when a
/// client and a paged tenant go through a query, a cache hit, an insert, a
/// checkpoint and a scrub step. DESIGN §7's event table names only these.
/// A series added, renamed or retyped anywhere on that path fails
/// `scrape_families_match_the_catalogue` until it is entered here.
const CATALOGUE: &[&str] = &[
    // The event loop and admission.
    "exq_accept_errors_total counter",
    "exq_accept_rejected_total counter",
    "exq_evloop_connections gauge",
    "exq_evloop_queue_depth gauge",
    "exq_evloop_queue_wait_seconds histogram",
    "exq_evloop_wakeups_total counter",
    "exq_server_deadline_shed_total counter",
    "exq_server_inflight gauge",
    "exq_server_shed_total counter",
    // Per database: requests, their profiles, health.
    "exq_db_blocks_shipped_total counter",
    "exq_db_epoch_retries_total counter",
    "exq_db_evictions_total counter",
    "exq_db_health gauge",
    "exq_db_pages_faulted_total counter",
    "exq_db_pool_hits_total counter",
    "exq_db_records_decoded_total counter",
    "exq_db_request_seconds histogram",
    "exq_db_requests_total counter",
    "exq_db_shed_total counter",
    "exq_db_wal_bytes_total counter",
    // Per database: the response cache.
    "exq_cache_response_evictions_total counter",
    "exq_cache_response_hits_total counter",
    "exq_cache_response_misses_total counter",
    // Per database: the store's background work and footprint.
    "exq_db_checkpoint_seconds histogram",
    "exq_db_disk_bytes gauge",
    "exq_store_checkpoint_pages_folded_total counter",
    "exq_store_resident_pages gauge",
    "exq_store_scrub_corrupt_pages_total counter",
    "exq_store_scrub_pages_total counter",
    "exq_store_wal_bytes gauge",
    "exq_store_wal_depth gauge",
    // Server phases.
    "exq_span_server_apply histogram",
    "exq_span_server_assemble histogram",
    "exq_span_server_cache_probe histogram",
    "exq_span_server_dsi_lookup histogram",
    "exq_span_server_sjoin histogram",
    "exq_span_server_value_resolve histogram",
    "exq_span_store_read_block histogram",
    "exq_span_store_wal_append histogram",
    // The client: its phases and its link.
    "exq_span_client_decrypt histogram",
    "exq_span_client_post_process histogram",
    "exq_span_client_translate histogram",
    "exq_span_wire_roundtrip histogram",
    "exq_wire_bytes_received_total counter",
    "exq_wire_bytes_sent_total counter",
    "exq_wire_requests_total counter",
];

/// The argument that makes this binary, run again, play the catalogue
/// session instead of checking it.
const CATALOGUE_SESSION: &str = "catalogue-session";

/// The registry is process-wide and the other tests here add families of
/// their own, so the session runs in a fresh process of this binary — it
/// alone, by exact name — and prints its scrape; this process compares the
/// `# TYPE` lines with [`CATALOGUE`].
#[test]
fn scrape_families_match_the_catalogue() {
    const NAME: &str = "scrape_families_match_the_catalogue";
    if std::env::args().any(|a| a == CATALOGUE_SESSION) {
        // After a newline: the harness has just printed the test's name.
        print!("\n{}", catalogue_session());
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args([NAME, CATALOGUE_SESSION, "--exact", "--nocapture"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "session failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let families: BTreeSet<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .collect();
    let catalogue: BTreeSet<&str> = CATALOGUE.iter().copied().collect();
    let unlisted: Vec<_> = families.difference(&catalogue).collect();
    let gone: Vec<_> = catalogue.difference(&families).collect();
    assert!(
        unlisted.is_empty() && gone.is_empty(),
        "scraped but not catalogued: {unlisted:#?}\ncatalogued but not scraped: {gone:#?}"
    );
}

/// One client and one paged tenant: a query, the same query from the
/// response cache, an insert, then the checkpointer's two passes — the
/// first folds the insert, the idle second scrubs. Returns the scrape.
fn catalogue_session() -> String {
    let dir = std::env::temp_dir().join(format!("exq-catalogue-{}", std::process::id()));
    let (mut client, handle, tenant) = host_paged_hospital("catalogue", &dir);
    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();
    for _ in 0..2 {
        client.query_via(&mut tcp, "//patient/pname").unwrap();
    }
    let record = "<patient><pname>Cat</pname><SSN>1</SSN><age>30</age></patient>";
    client
        .insert_via(&mut tcp, "/hospital", record, 0x29)
        .unwrap();
    drop(tcp);
    handle.shutdown();
    let db = tenant.server.read().unwrap().paged_store().unwrap();
    tend(&tenant);
    tend(&tenant);
    assert_eq!(db.checkpoints_total(), 1, "one checkpoint folded");
    std::fs::remove_dir_all(&dir).ok();
    telemetry::render()
}
