//! End-to-end CLI workflow: gen → encrypt → query → insert → delete →
//! aggregate → stats, over real state files in a temp directory.

use exq_cli::*;
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("exq-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Serving options on an ephemeral port with no admission limits.
fn serving(workers: usize, cache_entries: Option<usize>, cache_mb: Option<usize>) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers,
        cache_entries,
        max_inflight: 0,
        max_inflight_per_db: 0,
        deadline_ms: 0,
        cache_mb,
    }
}

fn setup(dir: &TempDir) -> (PathBuf, PathBuf) {
    let doc = dir.path("doc.xml");
    let cons = dir.path("sc.txt");
    cmd_gen("hospital", 4, 1, &doc, Some(&cons)).unwrap();
    let server = dir.path("server.exq");
    let client = dir.path("client.exq");
    let report = cmd_encrypt(&doc, &cons, "opt", 7, &server, &client).unwrap();
    assert!(report.contains("blocks:"));
    (server, client)
}

#[test]
fn full_workflow() {
    let dir = TempDir::new("flow");
    let (server, client) = setup(&dir);

    // Query.
    let out = cmd_query(
        &server,
        &client,
        "//patient[pname = 'Betty']/SSN",
        false,
        None,
    )
    .unwrap();
    assert!(out.contains("763895"), "query output: {out}");
    assert!(out.contains("1 result(s)"));

    // Naive agrees.
    let naive = cmd_query(
        &server,
        &client,
        "//patient[pname = 'Betty']/SSN",
        true,
        None,
    )
    .unwrap();
    assert!(naive.contains("763895"));

    // Aggregate.
    let out = cmd_aggregate(&server, &client, "max", "//policy/@coverage").unwrap();
    assert!(out.starts_with("1000000"), "aggregate output: {out}");
    let out = cmd_aggregate(&server, &client, "count", "//patient").unwrap();
    assert!(out.starts_with('2'));

    // Insert.
    let rec = dir.path("rec.xml");
    std::fs::write(
        &rec,
        "<patient><pname>Zoe</pname><SSN>112233</SSN><age>29</age></patient>",
    )
    .unwrap();
    let out = cmd_insert(&server, &client, "/hospital", &rec, 3).unwrap();
    assert!(out.contains("inserted"));
    let out = cmd_query(
        &server,
        &client,
        "//patient[pname = 'Zoe']/SSN",
        false,
        None,
    )
    .unwrap();
    assert!(out.contains("112233"));

    // Delete.
    let out = cmd_delete(&server, &client, "//patient[age = 29]").unwrap();
    assert!(out.contains("deleted 1"));
    let out = cmd_query(&server, &client, "//patient", false, None).unwrap();
    assert!(out.contains("2 result(s)"), "after delete: {out}");

    // Stats.
    let out = cmd_stats(&server).unwrap();
    assert!(out.contains("encrypted blocks"));

    // Explain.
    let out = cmd_explain(&server, &client, "//patient[age = 35]/pname").unwrap();
    assert!(out.contains("anchor matches"), "explain output: {out}");
    let out = cmd_explain(&server, &client, "//a/../b").unwrap();
    assert!(out.contains("naive fallback"));
}

#[test]
fn export_recovers_plaintext() {
    let dir = TempDir::new("export");
    let (server, client) = setup(&dir);
    let out = dir.path("recovered.xml");
    let report = cmd_export(&server, &client, &out).unwrap();
    assert!(report.contains("exported"));
    let recovered = std::fs::read_to_string(&out).unwrap();
    // All original sensitive values are back, and no artifacts remain.
    for v in ["Betty", "763895", "34221", "1000000"] {
        assert!(recovered.contains(v), "missing {v}");
    }
    assert!(!recovered.contains("_exq_"));
}

#[test]
fn gen_datasets() {
    let dir = TempDir::new("gen");
    for ds in ["xmark", "nasa"] {
        let doc = dir.path(&format!("{ds}.xml"));
        let cons = dir.path(&format!("{ds}.txt"));
        let report = cmd_gen(ds, 16, 5, &doc, Some(&cons)).unwrap();
        assert!(report.contains("wrote"));
        assert!(doc.exists() && cons.exists());
        // Generated constraints re-parse.
        assert!(read_constraints(&cons).unwrap().len() >= 4);
    }
    assert!(cmd_gen("bogus", 1, 1, &dir.path("x.xml"), None).is_err());
}

#[test]
fn usage_errors() {
    let dir = TempDir::new("usage");
    assert!(cmd_query(
        &dir.path("missing"),
        &dir.path("missing2"),
        "//x",
        false,
        None
    )
    .is_err());
    assert!(parse_scheme("nope").is_err());
    let (server, client) = setup(&dir);
    assert!(cmd_aggregate(&server, &client, "median", "//age").is_err());
}

/// An option the command does not know is a usage error naming it —
/// wherever it stands on the line — not a silent flag that swallows the
/// word after it.
#[test]
fn unknown_options_are_usage_errors_naming_the_typo() {
    let exe = env!("CARGO_BIN_EXE_exq");
    let lines: [&[&str]; 6] = [
        &[
            "serve",
            "--server",
            "s.exq",
            "--wrokers",
            "4",
            "--addr",
            "127.0.0.1:0",
        ],
        &[
            "serve",
            "--server",
            "s.exq",
            "--addr",
            "127.0.0.1:0",
            "--wrokers",
        ],
        &[
            "query",
            "--server",
            "s.exq",
            "--wrokers",
            "--client",
            "c.exq",
            "//x",
        ],
        &[
            "query",
            "--server",
            "s.exq",
            "--client",
            "c.exq",
            "//x",
            "--wrokers",
        ],
        &[
            "db",
            "host",
            "--dir",
            "wards",
            "--wrokers",
            "4",
            "--addr",
            "127.0.0.1:0",
        ],
        &[
            "db",
            "host",
            "--dir",
            "wards",
            "--addr",
            "127.0.0.1:0",
            "--wrokers",
        ],
    ];
    for line in lines {
        let out = std::process::Command::new(exe).args(line).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{line:?}");
        assert!(
            stderr.starts_with("error: usage error: unknown option --wrokers\n"),
            "{line:?}: {stderr}"
        );
        assert!(stderr.contains("USAGE:"), "{line:?}: {stderr}");
    }
    // An option of another command is unknown to this one...
    let out = std::process::Command::new(exe)
        .args(["db", "list", "--dir", "wards", "--workers", "4"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --workers"));
    // `--threads` is gone: the client opens blocks on the calling thread,
    // and a server never had a use for it.
    for host in [
        &["serve", "--server"][..],
        &["db", "host", "--dir"],
        &["query", "--server"],
    ] {
        let out = std::process::Command::new(exe)
            .args(host)
            .args(["x", "--addr", "127.0.0.1:0", "--threads", "2"])
            .output()
            .unwrap();
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --threads"));
    }
    // ...while the global ones pass every command's check.
    let out = std::process::Command::new(exe)
        .args(["ping", "--log-level", "off", "--count"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stderr).contains("--count needs a value"));
}

#[test]
fn binary_smoke() {
    // Drive the actual binary once to cover main's dispatch.
    let dir = TempDir::new("bin");
    let doc = dir.path("doc.xml");
    let cons = dir.path("sc.txt");
    cmd_gen("hospital", 4, 1, &doc, Some(&cons)).unwrap();
    let exe = env!("CARGO_BIN_EXE_exq");
    let out = std::process::Command::new(exe)
        .args([
            "encrypt",
            "--in",
            doc.to_str().unwrap(),
            "--constraints",
            cons.to_str().unwrap(),
            "--scheme",
            "opt",
            "--server",
            dir.path("s.exq").to_str().unwrap(),
            "--client",
            dir.path("c.exq").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = std::process::Command::new(exe)
        .args([
            "query",
            "--server",
            dir.path("s.exq").to_str().unwrap(),
            "--client",
            dir.path("c.exq").to_str().unwrap(),
            "//patient/pname",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Betty"));
    // Unknown commands fail with usage, the retired `top` and `debug` too.
    for cmd in ["frobnicate", "top", "debug"] {
        let out = std::process::Command::new(exe)
            .args([cmd, "--addr", "127.0.0.1:1"])
            .output()
            .unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command `{cmd}`")),
            "{stderr}"
        );
    }
}

#[test]
fn default_serve_answers_pipelined_queries_past_idle_connections() {
    let dir = TempDir::new("serve-pipeline");
    let (server, client) = setup(&dir);
    let (handle, _ckpt, _banner) = cmd_serve(&server, &serving(2, Some(64), None)).unwrap();
    let addr = handle.addr().to_string();

    // Four times as many idle connections as workers: they cost the server
    // buffers, not threads, so the query below is not starved.
    let _idle: Vec<std::net::TcpStream> = (0..8)
        .map(|_| std::net::TcpStream::connect(handle.addr()).unwrap())
        .collect();

    // 8 copies of the query in flight on one connection; the command
    // verifies every answer agrees before printing.
    let out = cmd_query_remote(&addr, &client, "//patient/pname", 1, None, 8).unwrap();
    assert!(out.contains("Betty"), "results: {out}");
    assert!(out.contains("8 in flight"), "report: {out}");
    handle.shutdown();
}

#[test]
fn serve_then_stats_scrapes_live_metrics() {
    let dir = TempDir::new("stats-live");
    let (server, client) = setup(&dir);
    let (handle, _ckpt, _banner) = cmd_serve(&server, &serving(2, Some(64), None)).unwrap();
    let addr = handle.addr().to_string();

    // Drive one query so the counters move, then scrape the registry. The
    // client shares this process's registry, so only series the server
    // alone bumps say the scrape is live.
    let out = cmd_query_remote(&addr, &client, "//patient/pname", 1, None, 1).unwrap();
    assert!(out.contains("Betty"));
    let text = cmd_stats_remote(&addr).unwrap();
    assert!(
        text.contains("# TYPE exq_db_requests_total counter"),
        "metrics text: {text}"
    );
    let served = |series: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(series)?.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {series} in metrics text: {text}"))
    };
    assert!(served("exq_db_requests_total{db=\"default\"}") >= 1);
    assert!(served("exq_cache_response_misses_total{db=\"default\"}") >= 1);
    handle.shutdown();
    assert!(
        cmd_stats_remote(&addr).is_err(),
        "server gone, scrape fails"
    );
}

#[test]
fn trace_out_flag_writes_stitched_span_tree() {
    let dir = TempDir::new("trace");
    let (server, client) = setup(&dir);
    let exe = env!("CARGO_BIN_EXE_exq");
    let trace = dir.path("trace.jsonl");
    let out = std::process::Command::new(exe)
        .args([
            "query",
            "--server",
            server.to_str().unwrap(),
            "--client",
            client.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "//patient[pname = 'Betty']/SSN",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("763895"));

    let text = std::fs::read_to_string(&trace).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(lines.len() >= 5, "expected a span tree, got:\n{text}");
    for needle in [
        "\"name\":\"client.translate\"",
        "\"name\":\"wire.roundtrip\"",
        "\"name\":\"server.dsi_lookup\"",
        "\"side\":\"client\"",
        "\"side\":\"server\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    // One stitched tree: a single shared trace id across all spans.
    let trace_ids: std::collections::HashSet<&str> = lines
        .iter()
        .map(|l| {
            let start = l.find("\"trace\":\"").unwrap() + 9;
            &l[start..start + 16]
        })
        .collect();
    assert_eq!(trace_ids.len(), 1, "spans must share one trace id:\n{text}");
}

#[test]
fn serve_and_query_remote() {
    let dir = TempDir::new("serve");
    let (server, client) = setup(&dir);
    // The offline answer, taken while the artifact is still the database.
    let local = cmd_query(
        &server,
        &client,
        "//patient[pname = 'Betty']/SSN",
        false,
        None,
    )
    .unwrap();

    // Bind on an ephemeral port, then query it over the wire.
    let (handle, _ckpt, banner) = cmd_serve(&server, &serving(2, Some(64), None)).unwrap();
    assert!(banner.contains("serving"), "banner: {banner}");
    assert!(banner.contains("cache 64 entries"), "banner: {banner}");
    let addr = handle.addr().to_string();

    let remote =
        cmd_query_remote(&addr, &client, "//patient[pname = 'Betty']/SSN", 1, None, 1).unwrap();
    assert!(remote.contains("763895"), "remote output: {remote}");
    // Local and remote answer lines agree (the byte counter line matches
    // too, since both links count the same frames).
    assert_eq!(remote, local);

    // A repeat of the same remote query hits the server response cache.
    let again =
        cmd_query_remote(&addr, &client, "//patient[pname = 'Betty']/SSN", 1, None, 1).unwrap();
    assert_eq!(again, remote);
    let stats = handle.cache_stats();
    assert!(stats.response_hits >= 1, "stats: {stats:?}");

    handle.shutdown();
    // Server gone: the connect retries, then errors instead of hanging.
    assert!(cmd_query_remote(&addr, &client, "//patient", 0, None, 1).is_err());
}

/// A top-level union runs branch by branch, offline and over the wire, and
/// prints every branch's results above one footer.
#[test]
fn union_query_prints_both_branches_offline_and_remote() {
    const UNION: &str = "//patient/pname | //patient/age";
    let dir = TempDir::new("union");
    let (server, client) = setup(&dir);
    let local = cmd_query(&server, &client, UNION, false, None).unwrap();
    let (handle, _ckpt, _banner) = cmd_serve(&server, &serving(1, Some(64), None)).unwrap();
    let addr = handle.addr().to_string();
    let remote = cmd_query_remote(&addr, &client, UNION, 0, None, 1).unwrap();
    handle.shutdown();
    for out in [&local, &remote] {
        for branch in [
            "<pname>Betty</pname>",
            "<pname>Matt</pname>",
            "<age>35</age>",
        ] {
            assert!(out.contains(branch), "{branch} missing from:\n{out}");
        }
        assert!(out.contains("-- 4 result(s)"), "{out}");
    }
    assert_eq!(remote, local);
}

#[test]
fn ping_measures_live_server_and_fails_on_dead_one() {
    let dir = TempDir::new("ping");
    let (server, _client) = setup(&dir);
    let (handle, _ckpt, _banner) = cmd_serve(&server, &serving(1, Some(0), None)).unwrap();
    let addr = handle.addr().to_string();
    let out = cmd_ping(&addr, 3).unwrap();
    assert!(out.contains("seq=2"), "ping output: {out}");
    assert!(out.contains("3 ping(s)"), "ping output: {out}");
    handle.shutdown();
    assert!(cmd_ping(&addr, 1).is_err(), "dead server must fail ping");
}

/// Two databases, sealed under different seeds, registered in one
/// directory: create → list → host → route with --db → drop.
#[test]
fn db_verbs_manage_a_multi_tenant_directory() {
    let dir = TempDir::new("db-verbs");
    let dbdir = dir.path("dbs");

    // Two independently keyed databases from the same plaintext.
    let doc = dir.path("doc.xml");
    let cons = dir.path("sc.txt");
    cmd_gen("hospital", 4, 1, &doc, Some(&cons)).unwrap();
    let (srv_a, cli_a) = (dir.path("a-server.exq"), dir.path("a-client.exq"));
    let (srv_b, cli_b) = (dir.path("b-server.exq"), dir.path("b-client.exq"));
    cmd_encrypt(&doc, &cons, "opt", 11, &srv_a, &cli_a).unwrap();
    cmd_encrypt(&doc, &cons, "opt", 22, &srv_b, &cli_b).unwrap();

    let out = cmd_db_create(&dbdir, "ward-a", &srv_a, Some(&cli_a), 0).unwrap();
    assert!(out.contains("created database `ward-a`"), "{out}");
    let out = cmd_db_create(&dbdir, "ward-b", &srv_b, Some(&cli_b), 8).unwrap();
    assert!(out.contains("ward-b"), "{out}");
    // Duplicate names are a typed error, not a silent overwrite.
    assert!(cmd_db_create(&dbdir, "ward-a", &srv_b, None, 0).is_err());

    let listing = cmd_db_list(&dbdir).unwrap();
    assert!(listing.contains("ward-a (default)"), "{listing}");
    assert!(listing.contains("ward-b"), "{listing}");
    assert!(listing.contains("max 8 in flight"), "{listing}");
    assert!(listing.contains("2 database(s)"), "{listing}");

    // Host both and route queries by db name; each db only decrypts with
    // its own client artifact.
    let (handle, _ckpt, banner) = cmd_db_host(&dbdir, &serving(2, Some(64), Some(1))).unwrap();
    assert!(banner.contains("2 database(s)"), "{banner}");
    let addr = handle.addr().to_string();
    let out = cmd_query_remote(&addr, &cli_a, "//patient/pname", 1, Some("ward-a"), 1).unwrap();
    assert!(out.contains("Betty"), "{out}");
    let out = cmd_query_remote(&addr, &cli_b, "//patient/pname", 1, Some("ward-b"), 1).unwrap();
    assert!(out.contains("Betty"), "{out}");
    // No --db lands on the default (ward-a) and still answers for cli_a.
    let out = cmd_query_remote(&addr, &cli_a, "//patient/pname", 1, None, 1).unwrap();
    assert!(out.contains("Betty"), "{out}");
    // Unknown db: typed error over the wire, server stays up.
    assert!(cmd_query_remote(&addr, &cli_a, "//patient", 0, Some("ward-z"), 1).is_err());
    let probe = cmd_query_remote(&addr, &cli_b, "//patient/pname", 1, Some("ward-b"), 1).unwrap();
    assert!(probe.contains("Betty"), "{probe}");

    // The metrics scrape breaks traffic out per db.
    let text = cmd_stats_remote(&addr).unwrap();
    assert!(
        text.contains("exq_db_requests_total{db=\"ward-a\"}"),
        "metrics: {text}"
    );
    assert!(
        text.contains("exq_cache_response_hits_total{db=\"ward-b\"}")
            || text.contains("exq_cache_response_misses_total{db=\"ward-b\"}"),
        "metrics: {text}"
    );
    handle.shutdown();

    let out = cmd_db_drop(&dbdir, "ward-b").unwrap();
    assert!(out.contains("1 remaining"), "{out}");
    assert!(
        !dbdir.join("ward-b.exq.pages").exists(),
        "the dropped db's store must be deleted"
    );
    let listing = cmd_db_list(&dbdir).unwrap();
    assert!(!listing.contains("ward-b"), "{listing}");
    assert!(
        cmd_db_drop(&dbdir, "ward-b").is_err(),
        "double drop is typed"
    );

    // A dropped database stays dropped: its name created again, under the
    // other key, serves the new database, not the old store's blocks.
    cmd_db_create(&dbdir, "ward-b", &srv_a, Some(&cli_a), 0).unwrap();
    let (handle, _ckpt, _banner) = cmd_db_host(&dbdir, &serving(1, None, Some(1))).unwrap();
    let addr = handle.addr().to_string();
    let out = cmd_query_remote(&addr, &cli_a, "//patient/pname", 0, Some("ward-b"), 1).unwrap();
    assert!(out.contains("Betty"), "the dropped db came back: {out}");
    handle.shutdown();
    // A store the manifest does not know (a create cut short before the
    // manifest was written) blocks its name until it is dropped.
    let forgetful = exq_core::tenant::Manifest::new("ward-a");
    forgetful.write(&dbdir).unwrap();
    let blocked = cmd_db_create(&dbdir, "ward-b", &srv_b, None, 0);
    assert!(matches!(blocked, Err(CliError::Usage(_))), "{blocked:?}");
    cmd_db_drop(&dbdir, "ward-b").unwrap();
    cmd_db_create(&dbdir, "ward-b", &srv_b, None, 0).unwrap();
}

/// What the build before every database was paged left on disk still
/// hosts: `db host` pointed at a single-file artifact serves it as the
/// default db, and a `MANIFEST` + `<name>.exq` directory lists, hosts (the
/// first host imports each artifact into its paged sibling) and drops.
#[test]
fn db_host_serves_legacy_single_file_artifact() {
    let dir = TempDir::new("db-legacy");
    let (server, client) = setup(&dir);
    let dbdir = dir.path("dbs");
    std::fs::create_dir_all(&dbdir).unwrap();
    std::fs::copy(&server, dbdir.join("ward.exq")).unwrap();
    let mut manifest = exq_core::tenant::Manifest::new("ward");
    manifest.dbs.insert("ward".into(), Default::default());
    manifest.write(&dbdir).unwrap();

    for (path, db) in [(&server, "default"), (&dbdir, "ward")] {
        let (handle, _ckpt, banner) = cmd_db_host(path, &serving(1, None, None)).unwrap();
        assert!(banner.contains(&format!("(default: {db})")), "{banner}");
        let addr = handle.addr().to_string();
        let out = cmd_query_remote(&addr, &client, "//patient/pname", 1, None, 1).unwrap();
        assert!(out.contains("Betty"), "{out}");
        handle.shutdown();
    }
    assert!(exq_core::store::PagedDb::is_paged(&server));
    let listing = cmd_db_list(&dbdir).unwrap();
    assert!(listing.contains("ward (default): healthy"), "{listing}");
    cmd_db_drop(&dbdir, "ward").unwrap();
    let left: Vec<_> = std::fs::read_dir(&dbdir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["MANIFEST"], "drop must remove artifact and store");
}

/// The one way to host, with and without `--cache-mb`: answers match the
/// in-memory server the artifact loads to; an insert and a delete acked
/// over the wire before an unclean stop are both there after a restart;
/// and the artifact, now history, is refused by the seven offline commands
/// (naming the paged sibling and `--addr`) instead of being answered from
/// or rewritten.
#[test]
fn serve_out_of_core_answers_and_persists_mutations() {
    use exq_core::{serve::ServeHandle, transport::TcpTransport, Client, Server};
    const QUERIES: [&str; 3] = [
        "//patient/pname",
        "//patient[pname = 'Betty']/SSN",
        "//patient[.//policy/@coverage >= 10000]/SSN",
    ];
    const ZOE: &str = "<patient><pname>Zoe</pname><SSN>112233</SSN><age>29</age></patient>";
    for cache_mb in [None, Some(1)] {
        let dir = TempDir::new(&format!("ooc-serve-{cache_mb:?}"));
        let (server, client_path) = setup(&dir);
        let artifact = std::fs::read(&server).unwrap();
        let mut twin = Server::load(&server).unwrap();
        let mut client = Client::load(&client_path).unwrap();
        let mut twin_client = client.clone();
        // The wire answers what the twin answers; returns the names.
        let check = |handle: &ServeHandle, c: &Client, twin: &Server| {
            let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();
            let got = QUERIES.map(|q| c.query_via(&mut tcp, q).unwrap().results);
            let want = QUERIES.map(|q| c.query(twin, q).unwrap().results);
            assert_eq!(got, want, "{cache_mb:?}");
            got[0].concat()
        };

        let opts = serving(2, Some(64), cache_mb);
        let (handle, ckpt, banner) = cmd_serve(&server, &opts).unwrap();
        let pool = format!("paged ({} MiB pool", cache_mb.unwrap_or(64));
        assert!(banner.contains(&pool), "{banner}");
        check(&handle, &client, &twin);
        let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();
        client.insert_via(&mut tcp, "/hospital", ZOE, 3).unwrap();
        let gone = client.delete_via(&mut tcp, "//patient[age = 40]").unwrap();
        assert_eq!(gone.deleted, 1);
        twin_client.insert(&mut twin, "/hospital", ZOE, 3).unwrap();
        twin_client
            .delete(&mut twin, "//patient[age = 40]")
            .unwrap();
        check(&handle, &client, &twin);
        // Unclean stop: nobody runs a final checkpoint, so what the next
        // open serves is the last background fold plus the WAL.
        drop((tcp, ckpt));
        handle.shutdown();

        let (handle, _ckpt, _banner) = cmd_serve(&server, &opts).unwrap();
        let names = check(&handle, &client, &twin);
        assert!(names.contains("Zoe") && !names.contains("Matt"), "{names}");
        handle.shutdown();
        assert_eq!(std::fs::read(&server).unwrap(), artifact);

        let rec = dir.path("rec.xml");
        std::fs::write(&rec, ZOE).unwrap();
        let refusals = [
            cmd_query(&server, &client_path, "//patient", false, None),
            cmd_aggregate(&server, &client_path, "count", "//patient"),
            cmd_export(&server, &client_path, &dir.path("out.xml")),
            cmd_explain(&server, &client_path, "//patient"),
            cmd_stats(&server),
            cmd_insert(&server, &client_path, "/hospital", &rec, 3),
            cmd_delete(&server, &client_path, "//patient[age = 35]"),
        ];
        for refusal in refusals {
            let Err(CliError::Usage(m)) = refusal else {
                panic!("expected a usage error, got {refusal:?}");
            };
            assert!(
                m.contains("server.exq.pages") && m.contains("--addr"),
                "{m}"
            );
        }
    }
}

#[test]
fn db_list_reports_out_of_core_footprint() {
    let dir = TempDir::new("ooc-list");
    let (server, _client) = setup(&dir);
    let dbdir = dir.path("dbs");
    let created = cmd_db_create(&dbdir, "ward", &server, None, 0).unwrap();

    // Create imported the artifact straight into the paged store — no copy
    // of it beside — and list reads the same counts back from the store.
    assert!(!dbdir.join("ward.exq").exists());
    let listing = cmd_db_list(&dbdir).unwrap();
    let sizes = created.split(['(', ')']).nth(1).unwrap();
    let sizes = sizes.rsplit_once(", key fp").unwrap().0;
    assert!(listing.contains(&format!("ward (default): healthy, {sizes}, paged:")));
    assert!(listing.contains("bytes on disk"), "{listing}");
    assert!(listing.contains("WAL depth 0"), "{listing}");

    // Hosting changes nothing about where the database lives.
    let (handle, ckpt, _banner) = cmd_db_host(&dbdir, &serving(1, Some(0), None)).unwrap();
    drop(ckpt);
    handle.shutdown();
    assert_eq!(cmd_db_list(&dbdir).unwrap(), listing);
}
