//! Multi-tenant isolation: one serve loop hosting several independently
//! keyed sealed databases must keep them bit-for-bit independent — answers,
//! caches, replay tables, admission slots, and on-disk state — while frames
//! that name no db are answered from the default db.

use exq_core::codec::{Message, FRAME_HEADER_LEN};
use exq_core::constraints::SecurityConstraint;
use exq_core::evloop::serve_event;
use exq_core::retry::Retry;
use exq_core::scheme::SchemeKind;
use exq_core::serve::{ServeConfig, ServeHandle};
use exq_core::store::{PagedDb, StoreOptions};
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::tenant::TenantRegistry;
use exq_core::transport::{TcpTransport, Transport};
use exq_core::wire::ServerQuery;
use exq_core::{Client, Server};
use exq_xml::Document;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

mod common;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("exq-tenants-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A hospital database whose patient names/values are salted by `tag` so
/// every tenant's correct answers are distinguishable, sealed under keys
/// derived from `seed` so every tenant is independently keyed.
fn hosted(tag: &str, seed: u64) -> (Client, Server) {
    let doc = Document::parse(&format!(
        r#"<hospital>
            <patient><pname>Betty-{tag}</pname><SSN>763895</SSN><age>35</age>
              <insurance><policy coverage="1000000">34221</policy></insurance></patient>
            <patient><pname>Matt-{tag}</pname><SSN>276543</SSN><age>40</age>
              <insurance><policy coverage="5000">78543</policy></insurance></patient>
           </hospital>"#
    ))
    .unwrap();
    let cs = vec![
        SecurityConstraint::parse("//insurance").unwrap(),
        SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap(),
    ];
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, seed)
        .unwrap()
        .split()
}

/// Three independently keyed databases behind one registry, plus each
/// tenant's paired client.
fn three_db_registry(prefix: &str) -> (Arc<TenantRegistry>, Vec<(String, Client)>) {
    let registry = Arc::new(TenantRegistry::new(&format!("{prefix}-a")).unwrap());
    let mut clients = Vec::new();
    for (i, suffix) in ["a", "b", "c"].iter().enumerate() {
        let name = format!("{prefix}-{suffix}");
        let (client, server) = hosted(suffix, 1000 + i as u64 * 111);
        registry
            .create(&name, server, client.key_fingerprint(), 0)
            .unwrap();
        clients.push((name, client));
    }
    (registry, clients)
}

fn start(registry: Arc<TenantRegistry>, config: ServeConfig) -> ServeHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    serve_event(listener, registry, config).unwrap()
}

fn connect(handle: &ServeHandle, db: &str) -> TcpTransport {
    TcpTransport::connect_default(handle.addr())
        .unwrap()
        .with_db(db)
        .unwrap()
}

/// Each tenant's client gets exactly its own database's answers, keyed by
/// its own keys, through one shared serve loop.
#[test]
fn three_tenants_answer_independently() {
    let (registry, clients) = three_db_registry("ind");
    assert_eq!(registry.len(), 3);
    let handle = start(Arc::clone(&registry), ServeConfig::default());

    for (name, client) in &clients {
        let suffix = name.rsplit('-').next().unwrap();
        let mut tcp = connect(&handle, name);
        let out = client.query_via(&mut tcp, "//patient/pname").unwrap();
        assert_eq!(
            out.results,
            [
                format!("<pname>Betty-{suffix}</pname>"),
                format!("<pname>Matt-{suffix}</pname>")
            ],
            "wrong answers for tenant {name}"
        );
        // Value predicates exercise the per-tenant value indexes too.
        let out = client
            .query_via(&mut tcp, "//patient[.//policy/@coverage = 5000]/age")
            .unwrap();
        assert_eq!(out.results, ["<age>40</age>"], "tenant {name}");
    }
    // An anonymous (no --db) client lands on the default db.
    let (default_name, default_client) = &clients[0];
    assert_eq!(registry.default_db(), default_name);
    let mut anon = TcpTransport::connect_default(handle.addr()).unwrap();
    let out = default_client
        .query_via(&mut anon, "//patient/age")
        .unwrap();
    assert_eq!(out.results.len(), 2);
    handle.shutdown();
}

/// Unknown and malformed db ids are answered with a typed error frame —
/// never a panic, never another tenant's data — and the server stays up.
#[test]
fn unknown_and_malformed_db_ids_get_typed_errors() {
    let (registry, clients) = three_db_registry("bad");
    let handle = start(Arc::clone(&registry), ServeConfig::default());

    // Well-formed but unregistered name: typed tenant error over the wire.
    let mut tcp = connect(&handle, "no-such-db");
    let err = tcp.send_naive().unwrap_err();
    assert!(
        err.to_string().contains("unknown database"),
        "expected a tenant error, got: {err}"
    );

    // Oversized ids are rejected client-side before anything is sent.
    assert!(TcpTransport::connect_default(handle.addr())
        .unwrap()
        .with_db(&"x".repeat(64))
        .is_err());
    assert!(TcpTransport::connect_default(handle.addr())
        .unwrap()
        .with_db("")
        .is_err());

    // A hostile frame with a malformed db-id field (nonzero padding) gets
    // one error frame, then the connection drops; the server survives.
    let mut frame = Message::NaiveQuery.encode_frame();
    let db_pos = FRAME_HEADER_LEN + 8 + 8 + 4;
    frame[db_pos + 10] = 0xAB; // padding byte beyond the (empty) id
    let crc_pos = FRAME_HEADER_LEN + 8 + 8;
    let crc = exq_core::codec::crc32(&[&frame[..crc_pos], &frame[crc_pos + 4..]]);
    frame[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&frame).unwrap();
    raw.flush().unwrap();
    let reply = common::read_frame(&mut raw).unwrap();
    assert!(
        matches!(Message::decode_frame(&reply), Ok(Message::Error(_))),
        "malformed db id must yield an error frame"
    );

    // Healthy tenants are unaffected.
    let (name, client) = &clients[1];
    let mut ok = connect(&handle, name);
    assert_eq!(
        client
            .query_via(&mut ok, "//patient/age")
            .unwrap()
            .results
            .len(),
        2
    );
    handle.shutdown();
}

/// A hot tenant's inserts and deletes must not invalidate another tenant's
/// cached answers: tenant A's repeat query stays a cache hit with
/// bit-identical results while tenant B mutates concurrently.
#[test]
fn cache_generations_do_not_bleed_across_tenants() {
    let (registry, clients) = three_db_registry("cache");
    let handle = start(
        Arc::clone(&registry),
        ServeConfig {
            cache_entries: Some(64),
            ..ServeConfig::default()
        },
    );
    let (name_a, client_a) = &clients[0];
    let (name_b, _) = &clients[1];
    let mut client_b = clients[1].1.clone();

    let q = "//patient[pname = 'Betty-a']/age";
    let mut tcp_a = connect(&handle, name_a);
    let cold = client_a.query_via(&mut tcp_a, q).unwrap();
    assert!(!cold.served_from_cache);
    let warm = client_a.query_via(&mut tcp_a, q).unwrap();
    assert!(warm.served_from_cache, "repeat query must hit A's cache");
    assert_eq!(warm.results, cold.results);

    // Tenant B churns: insert then delete, bumping *its* generation twice.
    let mut tcp_b = connect(&handle, name_b);
    let record = r#"<patient><pname>Zoe-b</pname><SSN>112233</SSN><age>29</age>
        <insurance><policy coverage="7500">55555</policy></insurance></patient>"#;
    client_b
        .insert_via(&mut tcp_b, "/hospital", record, 9)
        .unwrap();
    let deleted = client_b
        .delete_via(&mut tcp_b, "//patient[age = 29]")
        .unwrap();
    assert_eq!(deleted.deleted, 1);

    // A's cached answer must still be served from cache, bit-identical.
    let after = client_a.query_via(&mut tcp_a, q).unwrap();
    assert!(
        after.served_from_cache,
        "B's mutations must not bump A's cache generation"
    );
    assert_eq!(
        after.results, cold.results,
        "answers must stay bit-identical"
    );

    let stats_a = registry.get(name_a).unwrap().cache_stats();
    let stats_b = registry.get(name_b).unwrap().cache_stats();
    assert!(stats_a.response_hits >= 2, "A: {stats_a:?}");
    assert_eq!(stats_a.generation, 0, "A's generation must be untouched");
    assert!(stats_b.generation >= 2, "B saw mutations: {stats_b:?}");
    handle.shutdown();
}

/// The at-most-once replay ledger is per-tenant: the same req id must
/// dedupe retries within one db while still applying on another db.
#[test]
fn replay_tables_do_not_bleed_across_tenants() {
    let (registry, clients) = three_db_registry("replay");
    let handle = start(Arc::clone(&registry), ServeConfig::default());
    let (name_a, client_a) = &clients[0];
    let (name_b, client_b) = &clients[1];

    let sq_a = client_a
        .translate("//patient[age = 40]")
        .unwrap()
        .server_query
        .unwrap();
    let sq_b = client_b
        .translate("//patient[age = 40]")
        .unwrap()
        .server_query
        .unwrap();

    // Deletes under a chosen request id; the reply is `Deleted(outcome)`.
    let delete_as = |tcp: &mut TcpTransport, req_id: u64, sq: &ServerQuery| match tcp
        .roundtrip_as(req_id, &Message::DeleteWhere(sq.clone()))
        .unwrap()
    {
        Message::Deleted(outcome) => outcome.deleted,
        other => panic!("expected Deleted, got {other:?}"),
    };

    // Same req id, two tenants: both deletes must actually apply.
    let mut tcp_a = connect(&handle, name_a);
    assert_eq!(delete_as(&mut tcp_a, 777, &sq_a), 1);

    let mut tcp_b = connect(&handle, name_b);
    assert_eq!(
        delete_as(&mut tcp_b, 777, &sq_b),
        1,
        "B's mutation must apply — a shared replay table would have \
         returned A's recorded reply instead"
    );

    // Same id again on A: replay hit, the recorded reply comes back even
    // though the subtree is already gone.
    assert_eq!(
        delete_as(&mut tcp_a, 777, &sq_a),
        1,
        "replayed mutation returns its recorded reply"
    );
    // A fresh id really re-executes (nothing left to delete).
    assert_eq!(tcp_a.delete_where(&sq_a).unwrap().deleted, 0);
    handle.shutdown();
}

/// Per-tenant admission: a hot tenant saturating its fair share gets Busy
/// while a quiet tenant's requests keep being admitted and answered
/// bit-identically.
#[test]
fn hot_tenant_sheds_without_starving_quiet_tenant() {
    let (registry, clients) = three_db_registry("fair");
    let handle = start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 8,
            max_inflight_per_db: 1,
            cache_entries: Some(0), // every query is a shed-able miss
            ..ServeConfig::default()
        },
    );
    let (name_hot, _) = &clients[0];
    let (name_quiet, client_quiet) = &clients[2];

    // Hot tenant: several threads hammering uncacheable work on one db.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammers: Vec<_> = (0..4)
        .map(|_| {
            let addr = handle.addr();
            let name = name_hot.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut tcp = TcpTransport::connect_default(addr)
                    .unwrap()
                    .with_db(&name)
                    .unwrap();
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let _ = tcp.send_naive(); // Busy errors are expected
                }
            })
        })
        .collect();

    // Quiet tenant: sequential queries must all be admitted and correct.
    let expected = [
        "<pname>Betty-c</pname>".to_owned(),
        "<pname>Matt-c</pname>".to_owned(),
    ];
    let mut tcp_quiet = connect(&handle, name_quiet);
    for _ in 0..20 {
        let out = client_quiet
            .query_via(&mut tcp_quiet, "//patient/pname")
            .unwrap();
        assert_eq!(out.results, expected, "quiet tenant must never be starved");
    }

    // The hot tenant really was shed at its cap; the quiet tenant never was.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let hot = registry.get(name_hot).unwrap();
    while hot.shed_total() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for h in hammers {
        h.join().unwrap();
    }
    assert!(hot.shed_total() > 0, "hot tenant at cap 1 must shed");
    assert_eq!(
        registry.get(name_quiet).unwrap().shed_total(),
        0,
        "quiet tenant must not inherit the hot tenant's Busy storm"
    );
    // The same counts, as an operator reads them: from the scrape.
    let text = tcp_quiet.metrics_text().unwrap();
    let shed = |db: &str| -> f64 {
        let series = format!("exq_db_shed_total{{db=\"{db}\"}} ");
        let line = text.lines().find_map(|l| l.strip_prefix(series.as_str()));
        line.unwrap_or_else(|| panic!("no {series}in the scrape"))
            .parse()
            .unwrap()
    };
    assert!(shed(name_hot) > 0.0, "hot tenant's sheds must be scraped");
    for (quiet, _) in &clients[1..] {
        assert_eq!(shed(quiet), 0.0, "{quiet} was never shed");
    }
    handle.shutdown();
}

/// Directory-of-databases persistence: save, reload, serve, mutate, kill,
/// restart — every tenant's answers survive identically, an acked insert
/// included, as does the manifest metadata.
#[test]
fn multi_db_layout_survives_restart() {
    let tmp = TempDir::new("layout");
    let dir = tmp.0.join("dbs");
    let (registry, mut clients) = three_db_registry("disk");
    registry.get(&clients[1].0).unwrap().set_max_inflight(5);
    registry.save_dir(&dir).unwrap();
    for (name, _) in &clients {
        let state = TenantRegistry::db_path(&dir, name);
        assert!(PagedDb::is_paged(&state) && !state.exists(), "{name}");
    }

    // Reload and serve: every tenant answers; quotas and fingerprints ride
    // the manifest, whose default wins over the caller's hint.
    let opts = StoreOptions::default();
    let reloaded = Arc::new(TenantRegistry::open(&dir, "ignored-default", opts).unwrap());
    assert_eq!(reloaded.default_db(), registry.default_db());
    assert_eq!(reloaded.names(), registry.names());
    assert_eq!(reloaded.get(&clients[1].0).unwrap().max_inflight(), 5);
    for (name, client) in &clients {
        assert_eq!(
            reloaded.get(name).unwrap().key_fingerprint(),
            client.key_fingerprint(),
            "fingerprint must survive the manifest"
        );
    }
    let handle = start(Arc::clone(&reloaded), ServeConfig::default());
    let (name0, client0) = &mut clients[0];
    client0
        .insert_via(
            &mut connect(&handle, name0),
            "/hospital",
            "<patient><pname>Zoe</pname><SSN>112233</SSN><age>29</age></patient>",
            3,
        )
        .unwrap();
    let mut first_answers = Vec::new();
    for (name, client) in &clients {
        let mut tcp = connect(&handle, name);
        first_answers.push(
            client
                .query_via(&mut tcp, "//patient/pname")
                .unwrap()
                .results,
        );
    }
    assert_eq!(
        first_answers[0].len(),
        3,
        "insert not visible before the kill"
    );
    handle.shutdown(); // "kill": nothing checkpoints, the WAL holds the insert
    drop(reloaded);

    // Restart from disk: bit-identical answers.
    let restarted = Arc::new(TenantRegistry::open(&dir, "ignored-default", opts).unwrap());
    let handle = start(Arc::clone(&restarted), ServeConfig::default());
    for ((name, client), before) in clients.iter().zip(&first_answers) {
        let mut tcp = connect(&handle, name);
        let again = client.query_via(&mut tcp, "//patient/pname").unwrap();
        assert_eq!(&again.results, before, "restart changed {name}'s answers");
    }
    handle.shutdown();
}

/// A single-file server artifact opens as a one-db registry: imported into
/// its paged sibling on the first open, served from the sibling after, the
/// artifact itself never written.
#[test]
fn single_file_artifact_auto_migrates() {
    let tmp = TempDir::new("migrate");
    let (client, server) = hosted("solo", 4242);
    let artifact = tmp.0.join("server.exq");
    server.save(&artifact).unwrap();
    let before = std::fs::read(&artifact).unwrap();

    for open in ["first", "second"] {
        let registry =
            Arc::new(TenantRegistry::open(&artifact, "main", StoreOptions::default()).unwrap());
        assert_eq!(registry.names(), vec!["main".to_owned()]);
        assert!(
            PagedDb::is_paged(&artifact),
            "{open} open: no paged sibling"
        );
        // A registry hosted from one place cannot be saved as another.
        assert!(registry.save_dir(&tmp.0.join("elsewhere")).is_err());
        let handle = start(registry, ServeConfig::default());
        // Anonymous and named routing both reach the db.
        for mut link in [
            TcpTransport::connect_default(handle.addr()).unwrap(),
            connect(&handle, "main"),
        ] {
            let out = client.query_via(&mut link, "//patient/pname").unwrap();
            assert_eq!(out.results.len(), 2, "{open} open");
        }
        handle.shutdown();
    }
    assert_eq!(std::fs::read(&artifact).unwrap(), before);
}

/// The wire has one dialect. A frame whose version byte is anything but
/// the current one — well-formed in every other respect, checksum included —
/// gets exactly one error frame in the current dialect naming the byte it
/// sent, and then the connection closes; the server keeps serving, and a
/// current-version frame that names no db is answered from the default db.
/// Every byte but the current one is foreign, and the read times out, so
/// a version bump cannot turn a listed byte into one the server keeps a
/// connection open for.
#[test]
fn foreign_wire_versions_get_one_typed_error_then_close() {
    use exq_core::codec::PROTOCOL_VERSION;
    let (registry, clients) = three_db_registry("dialect");
    let handle = start(Arc::clone(&registry), ServeConfig::default());

    for version in (0..=u8::MAX).filter(|&v| v != PROTOCOL_VERSION) {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(&Message::NaiveQuery.encode_frame_req(version, 7, 9))
            .unwrap();
        raw.flush().unwrap();
        // Reading to EOF proves both halves: one reply, then the close.
        let mut reply = Vec::new();
        raw.read_to_end(&mut reply)
            .unwrap_or_else(|e| panic!("version byte {version}: no close: {e}"));
        assert_eq!(
            reply[2], PROTOCOL_VERSION,
            "reply to version byte {version}"
        );
        // `decode_frame` verifies the checksum and that nothing trails.
        match Message::decode_frame(&reply) {
            Ok(Message::Error(e)) => assert!(
                e.message.contains(&format!("version {version} ")),
                "error must name version byte {version}: {}",
                e.message
            ),
            other => panic!("expected one Error frame for version byte {version}, got {other:?}"),
        }
    }

    let (default_name, default_client) = &clients[0];
    assert_eq!(registry.default_db(), default_name);
    let mut anon = TcpTransport::connect_default(handle.addr()).unwrap();
    assert_eq!(anon.db(), "");
    let out = default_client
        .query_via(&mut anon, "//patient/pname")
        .unwrap();
    assert_eq!(
        out.results,
        ["<pname>Betty-a</pname>", "<pname>Matt-a</pname>"]
    );
    handle.shutdown();
}

/// Dropping a database removes every one of its `{db="…"}` series from
/// the telemetry exposition — a dropped db must not linger as a frozen
/// ghost on the next scrape.
#[test]
fn dropped_db_series_vanish_from_exposition() {
    let name = "dropvanish-db";
    let registry = TenantRegistry::new(name).unwrap();
    let (client, server) = hosted("dv", 4242);
    registry
        .create(name, server, client.key_fingerprint(), 0)
        .unwrap();
    // Registration creates the per-db counters and the request histogram;
    // traffic bumps them.
    registry.resolve("").unwrap();
    let label = format!("db=\"{name}\"");
    let text = exq_core::telemetry::render();
    for series in [
        format!("exq_db_requests_total{{{label}}} "),
        format!("exq_db_request_seconds_count{{{label}}} "),
        format!("exq_db_request_seconds_bucket{{{label},le=\"+Inf\"}} "),
    ] {
        assert!(
            text.contains(&series),
            "{series} must exist while the db is registered"
        );
    }

    registry.drop_db(name).unwrap();
    let text = exq_core::telemetry::render();
    assert!(
        !text.contains(&label),
        "per-db series must vanish after drop; exposition still has:\n{}",
        text.lines()
            .filter(|l| l.contains(&label))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Other dbs' series are untouched (spot-check the suffix matching).
    assert!(exq_core::telemetry::remove_db_series(name) == 0);
}

/// Per-db latency is one labelled series per database: ids that differ
/// only in `-`, `.` and `_` never share a histogram, and every metric name
/// the exposition carries is a legal one.
#[test]
fn per_db_series_keep_ids_apart_under_legal_metric_names() {
    let ids = ["ward-a", "ward.a", "ward_a"];
    let registry = Arc::new(TenantRegistry::new(ids[0]).unwrap());
    for (i, id) in ids.iter().enumerate() {
        let (client, server) = hosted(id, 600 + i as u64);
        registry
            .create(id, server, client.key_fingerprint(), 0)
            .unwrap();
    }
    let handle = start(Arc::clone(&registry), ServeConfig::default());
    // Each db answers its own number of requests: 1, 2, 3.
    for (i, id) in ids.iter().enumerate() {
        let mut tcp = connect(&handle, id);
        for _ in 0..=i {
            tcp.send_naive().unwrap();
        }
    }
    let text = connect(&handle, ids[0]).metrics_text().unwrap();
    handle.shutdown();
    for (i, id) in ids.iter().enumerate() {
        let series = format!("exq_db_request_seconds_count{{db=\"{id}\"}} {}", i + 1);
        assert!(
            text.lines().any(|l| l == series),
            "no `{series}` in:\n{text}"
        );
    }
    for line in text.lines() {
        let name = match line.strip_prefix("# TYPE ") {
            Some(rest) => rest.split(' ').next().unwrap(),
            None => line.split(['{', ' ']).next().unwrap(),
        };
        let mut chars = name.chars();
        let legal = chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        assert!(legal, "illegal metric name `{name}` in `{line}`");
    }
}

/// Every logical request any client sends carries an id no other client's
/// request carries: two clients inserting into one tenant each get their
/// insert applied, never answered from the other's replay entry — two
/// pipelined links first, then two retrying ones.
#[test]
fn inserts_from_two_clients_are_both_applied() {
    let (registry, clients) = three_db_registry("ids");
    let handle = start(Arc::clone(&registry), ServeConfig::default());
    let (name, client) = &clients[0];
    let mut client = client.clone();
    let count = |client: &Client| {
        let mut tcp = connect(&handle, name);
        client
            .query_via(&mut tcp, "//patient")
            .unwrap()
            .results
            .len()
    };
    let record = |i: u64| {
        format!("<patient><pname>N{i}</pname><SSN>90{i:04}</SSN><age>3{i}</age></patient>")
    };
    let before = count(&client);
    for i in 0..2u64 {
        let mut link = connect(&handle, name);
        let sq = client.translate("/hospital").unwrap().server_query.unwrap();
        let parent = link.locate(&sq).unwrap()[0];
        let slot = link.insertion_slot(parent).unwrap();
        let delta = client.prepare_insert(&slot, &record(i), i).unwrap();
        let replies = link.roundtrip_many(&[Message::ApplyInsert(delta)]).unwrap();
        assert_eq!(replies, [Message::InsertOk]);
    }
    let applied = count(&client) - before;
    assert_eq!(applied, 2, "two acknowledged inserts, {applied} applied");
    for i in 2..4u64 {
        let mut link = Retry::with_defaults(connect(&handle, name));
        client
            .insert_via(&mut link, "/hospital", &record(i), i)
            .unwrap();
    }
    let applied = count(&client) - before - 2;
    assert_eq!(applied, 2, "two acknowledged inserts, {applied} applied");
    handle.shutdown();
}
