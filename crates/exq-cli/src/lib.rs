//! Command implementations behind the `exq` binary.
//!
//! Each command is a plain function from parsed arguments to a printable
//! report, so the test suite can drive them without spawning processes.

use exq_core::aggregate::Aggregate;
use exq_core::codec::Message;
use exq_core::constraints::SecurityConstraint;
use exq_core::evloop::serve_event;
use exq_core::retry::{Retry, RetryConfig};
use exq_core::scheme::SchemeKind;
use exq_core::serve::{ServeConfig, ServeHandle};
use exq_core::store::{checkpoint_interval, Checkpointer, PagedDb, StoreOptions};
use exq_core::system::{OutsourceConfig, Outsourcer, QueryOutcome};
use exq_core::telemetry;
use exq_core::tenant::{validate_db_id, DbEntry, Manifest, TenantRegistry};
use exq_core::transport::{InProcess, TcpTransport, Transport};
use exq_core::{Client, CoreError, Server};
use exq_xml::{Document, SpanDocument};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// CLI-level error: core error, usage problem, or I/O failure.
#[derive(Debug)]
pub enum CliError {
    Core(CoreError),
    Usage(String),
    Io(std::io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        CliError::Core(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

fn usage<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(msg.into()))
}

/// Applies the global observability flags (`--trace-out`, `--slow-ms`,
/// `--log-level`) to the process-wide telemetry state. Every command
/// accepts them; all three are optional.
pub fn apply_telemetry_flags(
    trace_out: Option<&Path>,
    slow_ms: Option<u64>,
    log_level: Option<&str>,
) -> Result<(), CliError> {
    if let Some(path) = trace_out {
        telemetry::set_trace_out(path)
            .map_err(|e| CliError::Usage(format!("--trace-out {}: {e}", path.display())))?;
    }
    if let Some(ms) = slow_ms {
        telemetry::set_slow_ms(ms);
    }
    if let Some(level) = log_level {
        let level = telemetry::Level::parse(level).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown --log-level `{level}` (off|error|warn|info|debug)"
            ))
        })?;
        telemetry::set_log_level(level);
    }
    Ok(())
}

/// Parses a scheme name.
pub fn parse_scheme(name: &str) -> Result<SchemeKind, CliError> {
    match name {
        "top" => Ok(SchemeKind::Top),
        "sub" => Ok(SchemeKind::Sub),
        "app" => Ok(SchemeKind::App),
        "opt" => Ok(SchemeKind::Opt),
        "match" => Ok(SchemeKind::Match),
        other => usage(format!("unknown scheme `{other}` (top|sub|app|opt|match)")),
    }
}

/// Reads a constraints file: one SC per line, `#` comments and blank lines
/// ignored.
pub fn read_constraints(path: &Path) -> Result<Vec<SecurityConstraint>, CliError> {
    let text = std::fs::read_to_string(path)?;
    parse_constraints(&text)
}

/// Parses constraints from text (same syntax as the file format).
pub fn parse_constraints(text: &str) -> Result<Vec<SecurityConstraint>, CliError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(
            SecurityConstraint::parse(line)
                .map_err(|e| CliError::Usage(format!("constraint on line {}: {e}", i + 1)))?,
        );
    }
    if out.is_empty() {
        return usage("constraints file contains no constraints");
    }
    Ok(out)
}

/// `exq encrypt`: outsource a plaintext document.
pub fn cmd_encrypt(
    input: &Path,
    constraints: &Path,
    scheme: &str,
    seed: u64,
    server_out: &Path,
    client_out: &Path,
) -> Result<String, CliError> {
    let xml = std::fs::read_to_string(input)?;
    let doc =
        SpanDocument::parse(&xml).map_err(|e| CliError::Usage(format!("input document: {e}")))?;
    let cs = read_constraints(constraints)?;
    let kind = parse_scheme(scheme)?;
    let hosted = Outsourcer::new(OutsourceConfig::default()).outsource(&doc, &cs, kind, seed)?;
    if !hosted.scheme.enforces(&doc, &cs) {
        return usage("scheme failed to enforce the constraints (internal error)");
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "encrypted {} ({} bytes, {} nodes) with scheme `{}`",
        input.display(),
        doc.text().len(),
        doc.len(),
        scheme
    );
    let _ = writeln!(
        report,
        "  blocks: {}   scheme size |S|: {}   hosted bytes: {}",
        hosted.setup.block_count,
        hosted.setup.scheme_size,
        hosted.setup.hosted_bytes()
    );
    let _ = writeln!(
        report,
        "  metadata: {} DSI entries, {} value-index entries",
        hosted.setup.dsi_entries, hosted.setup.value_index_entries
    );
    let (client, server) = hosted.split();
    server.save(server_out)?;
    client.save(client_out)?;
    let _ = writeln!(
        report,
        "  server state -> {}   client state -> {}",
        server_out.display(),
        client_out.display()
    );
    Ok(report)
}

/// Loads the artifact an offline command works on. Once a file has been
/// hosted its live state is the paged sibling — updates acked over the wire
/// land there — so answering from, or rewriting, the artifact would use
/// stale data without a word: refuse, naming the sibling and the way in.
fn load_artifact(path: &Path) -> Result<Server, CliError> {
    if PagedDb::is_paged(path) {
        return usage(format!(
            "{} has been hosted: its live state is {}, which only a running server reads \
             and writes; start `exq serve` and use --addr",
            path.display(),
            PagedDb::pages_dir(path).display()
        ));
    }
    Ok(Server::load(path)?)
}

/// `exq query`: run one XPath query through the secure pipeline over an
/// in-process link — or, with `naive`, the baseline that ships the whole
/// database.
pub fn cmd_query(
    server_path: &Path,
    client_path: &Path,
    query: &str,
    naive: bool,
    cache_entries: Option<usize>,
) -> Result<String, CliError> {
    let mut server = load_artifact(server_path)?;
    server.set_cache_entries(cache_entries);
    let client = Client::load(client_path)?;
    let mut link = InProcess::shared(&server);
    let out = if naive {
        client.query_naive_via(&mut link, query)?
    } else {
        client.query_via(&mut link, query)?
    };
    Ok(query_report(&out))
}

/// `exq query --addr`: same pipeline, but the server is a network peer.
/// The link is wrapped in the retry layer: transient failures reconnect
/// and replay (mutation-safe via request ids) up to `retries` extra
/// attempts (`0` = one attempt). With `pipeline > 1` the query is submitted
/// that many times on one connection before any reply is read — a direct
/// probe of the server's pipelined serve path (all answers must agree).
#[allow(clippy::too_many_arguments)]
pub fn cmd_query_remote(
    addr: &str,
    client_path: &Path,
    query: &str,
    retries: u32,
    db: Option<&str>,
    pipeline: usize,
) -> Result<String, CliError> {
    let client = Client::load(client_path)?;
    let mut tcp = TcpTransport::connect_default(addr)?;
    if let Some(db) = db {
        tcp = tcp.with_db(db)?;
    }
    let mut link = Retry::new(
        tcp,
        RetryConfig {
            max_attempts: retries.saturating_add(1),
            ping_before_retry: true,
            ..RetryConfig::default()
        },
    );
    if pipeline > 1 {
        return query_pipelined(&client, &mut link, query, pipeline);
    }
    Ok(query_report(&client.query_via(&mut link, query)?))
}

/// `exq query --addr --pipeline N`: N copies of the translated request in
/// flight on one connection. Every reply must post-process to the same
/// results; the report shows them once, plus the amortized per-query time
/// the pipelining bought.
fn query_pipelined(
    client: &Client,
    link: &mut dyn Transport,
    query: &str,
    n: usize,
) -> Result<String, CliError> {
    let tq = client.translate(query)?;
    let req = match &tq.server_query {
        Some(sq) => Message::Query(sq.clone()),
        None => Message::NaiveQuery,
    };
    let reqs = vec![req; n];
    let started = std::time::Instant::now();
    let replies = link.roundtrip_many(&reqs)?;
    let wall = started.elapsed();
    let mut results: Option<Vec<String>> = None;
    for (i, reply) in replies.iter().enumerate() {
        let resp = match reply {
            Message::Answer(resp) => resp,
            Message::Error(e) => return Err(CliError::Core(e.clone().into_core())),
            other => {
                return usage(format!(
                    "reply {i} is not an answer: message type {:#04x}",
                    other.msg_type()
                ))
            }
        };
        let post = client.post_process(&tq.post_query, resp)?;
        match &results {
            None => results = Some(post.results),
            Some(first) if *first != post.results => {
                return usage(format!(
                    "pipelined reply {i} disagrees with reply 0 — correlation broken?"
                ));
            }
            Some(_) => {}
        }
    }
    let results = results.unwrap_or_default();
    let mut report = String::new();
    for r in &results {
        let _ = writeln!(report, "{r}");
    }
    let _ = writeln!(
        report,
        "-- {} result(s); {n} identical answer(s) with {n} in flight; \
         {wall:.2?} total, {:.2?}/query amortized",
        results.len(),
        wall / n as u32,
    );
    Ok(report)
}

/// `exq ping --addr`: measure liveness round-trip times against a running
/// server. Distinguishes a dead server (connect/ping error) from a slow one
/// (answers, with latency printed).
pub fn cmd_ping(addr: &str, count: u32) -> Result<String, CliError> {
    let mut link = TcpTransport::connect_default(addr)?;
    let mut report = String::new();
    let mut total = std::time::Duration::ZERO;
    let n = count.max(1);
    for i in 0..n {
        let rtt = link.ping()?;
        total += rtt;
        let _ = writeln!(report, "pong from {addr}: seq={i} time={rtt:.2?}");
    }
    let _ = writeln!(report, "-- {n} ping(s), avg {:.2?}", total / n);
    Ok(report)
}

/// A query's results, one a line, and its footer.
fn query_report(out: &QueryOutcome) -> String {
    let mut report = String::new();
    for r in &out.results {
        let _ = writeln!(report, "{r}");
    }
    let _ = writeln!(
        report,
        "-- {} result(s); {} block(s) decrypted; {} bytes from server",
        out.results.len(),
        out.blocks_shipped,
        out.bytes_to_client
    );
    report
}

/// Resolves the buffer-pool budget of each hosted database: the
/// `--cache-mb` flag wins, then the `EXQ_CACHE_MB` environment variable,
/// then [`StoreOptions::default`].
pub fn resolve_store_opts(cache_mb: Option<usize>) -> StoreOptions {
    let env = || std::env::var("EXQ_CACHE_MB").ok()?.parse::<usize>().ok();
    let mut opts = StoreOptions::default();
    if let Some(mb) = cache_mb.or_else(env) {
        opts.cache_bytes = mb.max(1) * 1024 * 1024;
    }
    opts
}

/// The serving flags `exq serve` and `exq db host` share — everything but
/// what to host (`--server` / `--dir`). Field for flag; see USAGE.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    pub addr: String,
    pub workers: usize,
    /// `None` resolves from `EXQ_CACHE` / the default; `Some(0)` disables.
    pub cache_entries: Option<usize>,
    /// `0` = unlimited.
    pub max_inflight: usize,
    /// `0` = an even share of `max_inflight`. Only `db host` has the flag.
    pub max_inflight_per_db: usize,
    /// `0` = no deadline.
    pub deadline_ms: u64,
    /// Buffer-pool MiB per database; see [`resolve_store_opts`].
    pub cache_mb: Option<usize>,
}

impl ServeOptions {
    fn config(&self) -> ServeConfig {
        ServeConfig {
            workers: self.workers,
            cache_entries: self.cache_entries,
            max_inflight: self.max_inflight,
            max_inflight_per_db: self.max_inflight_per_db,
            deadline: std::time::Duration::from_millis(self.deadline_ms),
            ..ServeConfig::default()
        }
    }
}

/// What `exq serve` and `exq db host` both do with their path: open every
/// database it holds through its paged store (importing an artifact that
/// has none yet), start the background [`Checkpointer`], serve. The
/// checkpointer sweeps the serve path's own tenants, so the health a failed
/// checkpoint flips is the health requests are gated on.
fn host(
    path: &Path,
    opts: &ServeOptions,
    store: StoreOptions,
) -> Result<(ServeHandle, Checkpointer, Arc<TenantRegistry>), CliError> {
    let registry = Arc::new(TenantRegistry::open(path, exq_core::DEFAULT_DB, store)?);
    if registry.is_empty() {
        return usage(format!("{} hosts no databases", path.display()));
    }
    let listener = std::net::TcpListener::bind(&opts.addr)?;
    let checkpointer = Checkpointer::spawn(Arc::clone(&registry), checkpoint_interval());
    let handle = serve_event(listener, Arc::clone(&registry), opts.config())?;
    Ok((handle, checkpointer, registry))
}

/// `exq serve`: host a server state file on a TCP address. Returns the
/// running handle plus a banner; the binary parks until interrupted, tests
/// shut the handle down directly. The first serve imports the artifact into
/// its paged sibling, which from then on is the database: sealed blocks page
/// in through the buffer pool, mutations are write-ahead logged, and the
/// returned [`Checkpointer`] folds the log in the background (keep it alive
/// as long as the handle).
pub fn cmd_serve(
    server_path: &Path,
    opts: &ServeOptions,
) -> Result<(ServeHandle, Checkpointer, String), CliError> {
    let store = resolve_store_opts(opts.cache_mb);
    let (handle, checkpointer, registry) = host(server_path, opts, store)?;
    let (blocks, bytes, pages) = {
        let tenant = registry.resolve("")?;
        let server = tenant.server.read().unwrap_or_else(|p| p.into_inner());
        let pages = server
            .paged_store()
            .map_or(0, |db| db.footprint().page_count);
        (server.block_count(), server.hosted_bytes(), pages)
    };
    let cache = handle.cache_stats().capacity;
    let cache_desc = if cache == 0 {
        "cache disabled".to_owned()
    } else {
        format!("cache {cache} entries")
    };
    let load_desc = match (opts.max_inflight, opts.deadline_ms) {
        (0, 0) => String::new(),
        (m, 0) => format!(", max {m} in flight"),
        (0, d) => format!(", {d}ms deadline"),
        (m, d) => format!(", max {m} in flight, {d}ms deadline"),
    };
    let banner = format!(
        "serving {} ({bytes} hosted bytes, {blocks} blocks) on {} with {} worker(s), \
         {cache_desc}{load_desc}, \
         paged ({} MiB pool, {pages} pages on disk)\n",
        server_path.display(),
        handle.addr(),
        opts.workers,
        store.cache_bytes >> 20,
    );
    Ok((handle, checkpointer, banner))
}

/// `exq db create`: import a sealed server state file as a named database
/// of a directory-of-databases — straight into `DBDIR/<name>.exq.pages`,
/// touching no other database. The first database created becomes the
/// default. The optional client state records the sealing key's fingerprint
/// in the manifest so operators can tell which client artifact opens which
/// db.
pub fn cmd_db_create(
    dir: &Path,
    name: &str,
    server_path: &Path,
    client_path: Option<&Path>,
    max_inflight: usize,
) -> Result<String, CliError> {
    validate_db_id(name)?;
    let mut manifest = if dir.join(exq_core::tenant::MANIFEST_FILE).exists() {
        Manifest::read(dir)?
    } else {
        Manifest::new(name)
    };
    let state = TenantRegistry::db_path(dir, name);
    if manifest.dbs.contains_key(name) {
        return Err(CoreError::Tenant(format!("database '{name}' already exists")).into());
    }
    // An existing store is authoritative on open: importing beside one a
    // half-finished create or drop left would serve that one's data.
    if PagedDb::is_paged(&state) || state.exists() {
        return usage(format!(
            "{} still holds a database named `{name}`; `exq db drop` it first",
            dir.display()
        ));
    }
    let mut server = Server::load(server_path)?;
    let key_fingerprint = match client_path {
        Some(p) => Client::load(p)?.key_fingerprint(),
        None => 0,
    };
    std::fs::create_dir_all(dir)?;
    PagedDb::attach_new(
        &mut server,
        &PagedDb::pages_dir(&state),
        name,
        StoreOptions::default(),
    )?;
    let entry = DbEntry {
        key_fingerprint,
        max_inflight,
    };
    manifest.dbs.insert(name.to_owned(), entry);
    manifest.write(dir)?;
    Ok(format!(
        "created database `{name}` in {} ({} blocks, {} hosted bytes, key fp {key_fingerprint:016x})\n",
        dir.display(),
        server.block_count(),
        server.hosted_bytes(),
    ))
}

/// `exq db list`: the databases a directory hosts, with per-db size,
/// quota, and health details; the default db is marked. Read from the
/// manifest and each paged store (on-disk bytes, page count, resident
/// pages, WAL depth — the per-db `{db="..."}` gauges of a live server;
/// sizes are as of the last checkpoint, the WAL depth counts the committed
/// mutations pending on top). Stores are inspected strictly read-only
/// ([`PagedDb::inspect`]) so listing is safe while a live server owns them:
/// nothing truncates a WAL tail a concurrent appender may still be writing.
///
/// The health column reflects what the inspection itself proved: a store
/// that opens and decodes is `healthy`; one whose superblocks, directory,
/// or metadata fail is listed as `faulted: <why>` instead of sinking the
/// whole listing — a hosted directory with one rotten db must still list
/// the other nine.
pub fn cmd_db_list(dir: &Path) -> Result<String, CliError> {
    let manifest = Manifest::read(dir)?;
    let mut report = String::new();
    for (name, entry) in &manifest.dbs {
        let state = TenantRegistry::db_path(dir, name);
        let detail = if !PagedDb::is_paged(&state) {
            "artifact, imported on first `db host`".to_owned()
        } else {
            match PagedDb::inspect(&PagedDb::pages_dir(&state)) {
                Ok(r) => format!(
                    "healthy, {} blocks, {} hosted bytes, paged: {} bytes on disk, \
                     {} pages ({} resident), WAL depth {}",
                    r.block_count,
                    r.hosted_bytes,
                    r.footprint.disk_bytes,
                    r.footprint.page_count,
                    r.footprint.resident_pages,
                    r.footprint.wal_depth
                ),
                Err(e) => format!("faulted: {e}"),
            }
        };
        let marker = if *name == manifest.default_db {
            " (default)"
        } else {
            ""
        };
        let quota = match entry.max_inflight {
            0 => "fair-share".to_owned(),
            n => format!("max {n} in flight"),
        };
        let _ = writeln!(
            report,
            "{name}{marker}: {detail}, key fp {:016x}, {quota}",
            entry.key_fingerprint,
        );
    }
    let _ = writeln!(report, "-- {} database(s)", manifest.dbs.len());
    Ok(report)
}

/// `exq db drop`: remove a database from the directory — its manifest
/// entry, its paged store, and the artifact a directory written before
/// every database was paged may still hold. A store without a manifest
/// entry (an interrupted create) is removed too.
pub fn cmd_db_drop(dir: &Path, name: &str) -> Result<String, CliError> {
    validate_db_id(name)?;
    let mut manifest = Manifest::read(dir)?;
    let state = TenantRegistry::db_path(dir, name);
    let pages = PagedDb::pages_dir(&state);
    if manifest.dbs.remove(name).is_none() && !pages.exists() {
        return Err(CoreError::Tenant(format!("unknown database '{name}'")).into());
    }
    manifest.write(dir)?;
    if pages.exists() {
        std::fs::remove_dir_all(&pages)?;
    }
    if state.exists() {
        std::fs::remove_file(&state)?;
    }
    Ok(format!(
        "dropped database `{name}` from {} ({} remaining)\n",
        dir.display(),
        manifest.dbs.len()
    ))
}

/// `exq db host`: serve every database in a directory on one TCP address,
/// exactly as [`cmd_serve`] serves one. Clients pick a db with `--db`;
/// those that don't get the default db. Each database has its own buffer
/// pool; one [`Checkpointer`] thread sweeps all of them.
pub fn cmd_db_host(
    dir: &Path,
    opts: &ServeOptions,
) -> Result<(ServeHandle, Checkpointer, String), CliError> {
    let store = resolve_store_opts(opts.cache_mb);
    let (handle, checkpointer, registry) = host(dir, opts, store)?;
    let banner = format!(
        "hosting {} database(s) from {} on {} with {} worker(s), paged ({} MiB pool/db), \
         dbs: {} (default: {})\n",
        registry.len(),
        dir.display(),
        handle.addr(),
        opts.workers,
        store.cache_bytes >> 20,
        registry.names().join(", "),
        registry.default_db(),
    );
    Ok((handle, checkpointer, banner))
}

/// `exq aggregate`: MIN/MAX/COUNT over an attribute path.
pub fn cmd_aggregate(
    server_path: &Path,
    client_path: &Path,
    func: &str,
    path: &str,
) -> Result<String, CliError> {
    let server = load_artifact(server_path)?;
    let client = Client::load(client_path)?;
    let agg = match func {
        "min" => Aggregate::Min,
        "max" => Aggregate::Max,
        "count" => Aggregate::Count,
        other => return usage(format!("unknown aggregate `{other}` (min|max|count)")),
    };
    let out = client.aggregate(&server, path, agg)?;
    Ok(format!(
        "{}\n-- {} block(s) decrypted\n",
        out.value.as_deref().unwrap_or("(no value)"),
        out.blocks_decrypted
    ))
}

/// `exq insert`: insert a record under a parent; rewrites both state files.
pub fn cmd_insert(
    server_path: &Path,
    client_path: &Path,
    parent_query: &str,
    record: &Path,
    seed: u64,
) -> Result<String, CliError> {
    let mut server = load_artifact(server_path)?;
    let mut client = Client::load(client_path)?;
    let record_xml = std::fs::read_to_string(record)?;
    let delta = client.insert(&mut server, parent_query, &record_xml, seed)?;
    server.save(server_path)?;
    client.save(client_path)?;
    Ok(format!(
        "inserted under {parent_query}: {} new block(s), {} metadata entries, {} bytes sent\n",
        delta.blocks.len(),
        delta.dsi_entries.len() + delta.value_entries.len(),
        delta.wire_size()
    ))
}

/// `exq delete`: delete matching subtrees; rewrites the server file.
pub fn cmd_delete(server_path: &Path, client_path: &Path, query: &str) -> Result<String, CliError> {
    let mut server = load_artifact(server_path)?;
    let client = Client::load(client_path)?;
    let out = client.delete(&mut server, query)?;
    server.save(server_path)?;
    Ok(format!(
        "deleted {} subtree(s); {} match(es) inside blocks were skipped\n",
        out.deleted, out.skipped_in_block
    ))
}

/// `exq export`: decrypt the full database back to plaintext XML (owner
/// data recovery).
pub fn cmd_export(server_path: &Path, client_path: &Path, out: &Path) -> Result<String, CliError> {
    let server = load_artifact(server_path)?;
    let client = Client::load(client_path)?;
    let doc = client
        .export(&server)?
        .ok_or_else(|| CliError::Usage("hosted database is empty".into()))?;
    std::fs::write(out, doc.text())?;
    Ok(format!(
        "exported {} bytes ({} nodes) to {}\n",
        doc.text().len(),
        doc.len(),
        out.display()
    ))
}

/// `exq explain`: show per-step server-side pruning for a query.
pub fn cmd_explain(
    server_path: &Path,
    client_path: &Path,
    query: &str,
) -> Result<String, CliError> {
    let server = load_artifact(server_path)?;
    let client = Client::load(client_path)?;
    let tq = client.translate(query)?;
    let Some(sq) = &tq.server_query else {
        return Ok("query is not server-evaluable (naive fallback: whole database ships)\n".into());
    };
    let report = server.explain(sq);
    let mut out = String::new();
    for (i, step) in report.steps.iter().enumerate() {
        let marker = if i == report.anchor { " <- anchor" } else { "" };
        let _ = writeln!(
            out,
            "step {i}: tags={:?} candidates={} survivors={} predicates={}{marker}",
            step.tags, step.candidates, step.survivors, step.predicates
        );
    }
    let _ = writeln!(out, "anchor matches: {}", report.anchors);
    Ok(out)
}

/// `exq stats`: server-visible statistics (what the host can see).
pub fn cmd_stats(server_path: &Path) -> Result<String, CliError> {
    let server = load_artifact(server_path)?;
    let m = server.metadata();
    let mut report = String::new();
    let _ = writeln!(report, "hosted bytes:        {}", server.hosted_bytes());
    let _ = writeln!(report, "encrypted blocks:    {}", server.block_count());
    let _ = writeln!(
        report,
        "DSI index:           {} tags, {} interval entries",
        m.dsi_table.tag_count(),
        m.dsi_table.entry_count()
    );
    let _ = writeln!(
        report,
        "value indexes:       {} attributes, {} entries",
        m.value_indexes.len(),
        m.value_indexes.values().map(|t| t.len()).sum::<usize>()
    );
    Ok(report)
}

/// `exq stats --addr`: fetch a running server's metrics registry as
/// Prometheus-style text over the wire.
pub fn cmd_stats_remote(addr: &str) -> Result<String, CliError> {
    let mut link = TcpTransport::connect_default(addr)?;
    Ok(link.metrics_text()?)
}

/// `exq gen`: generate a synthetic dataset (plus its constraint file).
pub fn cmd_gen(
    dataset: &str,
    size_kb: usize,
    seed: u64,
    out: &Path,
    constraints_out: Option<&Path>,
) -> Result<String, CliError> {
    use exq_workload::{hospital, nasa, xmark};
    let (doc, cs): (Document, Vec<SecurityConstraint>) = match dataset {
        "xmark" => (
            xmark::generate(&xmark::XmarkConfig {
                target_bytes: size_kb * 1024,
                seed,
            }),
            xmark::constraints(),
        ),
        "nasa" => (
            nasa::generate(&nasa::NasaConfig {
                target_bytes: size_kb * 1024,
                seed,
            }),
            nasa::constraints(),
        ),
        "hospital" => (hospital::document(), hospital::constraints()),
        other => return usage(format!("unknown dataset `{other}` (xmark|nasa|hospital)")),
    };
    std::fs::write(out, doc.to_xml())?;
    let mut report = format!(
        "wrote {} ({} bytes, {} nodes)\n",
        out.display(),
        doc.serialized_size(),
        doc.len()
    );
    if let Some(cpath) = constraints_out {
        let text: String = cs.iter().map(|c| format!("{c}\n")).collect();
        std::fs::write(cpath, text)?;
        let _ = writeln!(
            report,
            "wrote {} ({} constraints)",
            cpath.display(),
            cs.len()
        );
    }
    Ok(report)
}

pub const USAGE: &str = "\
exq — secure query evaluation over encrypted XML databases (VLDB'06 reproduction)

USAGE:
  exq gen       --dataset xmark|nasa|hospital --size-kb N --seed N --out doc.xml
                [--constraints-out sc.txt]
  exq encrypt   --in doc.xml --constraints sc.txt --scheme opt --seed N
                --server server.exq --client client.exq
  exq query     --server server.exq --client client.exq [--naive]
                [--cache-entries N] 'XPATH'
  exq query     --addr HOST:PORT --client client.exq [--retries N]
                [--db NAME]         (pick a database on a multi-tenant server)
                [--pipeline N]      (submit the query N times in flight on one
                'XPATH'              connection; all answers must agree)
                                    (--retries: reconnect+replay budget, default 3)
  exq serve     --server server.exq --addr HOST:PORT [--workers N]
                [--cache-entries N]   (0 disables the server caches)
                [--max-inflight N]    (shed Busy beyond N concurrent requests; 0=off)
                [--deadline-ms N]     (per-request lock deadline; 0=off)
                [--cache-mb N]        (buffer pool MiB, default 64; env EXQ_CACHE_MB)
                                      (the first serve imports server.exq into
                                       server.exq.pages/ — from then on the database,
                                       write-ahead logged and checkpointed; server.exq
                                       is never written, offline commands refuse it)
  exq db create --dir DBDIR --name NAME --server server.exq [--client client.exq]
                [--max-inflight N]    (import a sealed db into DBDIR/NAME.exq.pages/;
                                       the first one created is the default db)
  exq db list   --dir DBDIR           (hosted databases: health, sizes, on-disk
                                       bytes, page counts, WAL depth, key
                                       fingerprints, quotas)
  exq db drop   --dir DBDIR --name NAME   (remove the db's entry and its store)
  exq db host   --dir DBDIR --addr HOST:PORT [--workers N]
                [--cache-entries N] [--max-inflight N] [--max-inflight-per-db N]
                [--deadline-ms N] [--cache-mb N]
                                      (serve every db in the directory as `serve`
                                       serves one, --cache-mb per db; clients
                                       route with --db, or get the default db)
  exq ping      --addr HOST:PORT [--count N]   (liveness probe round-trips)
  exq aggregate --server server.exq --client client.exq --fn min|max|count 'PATH'
  exq insert    --server server.exq --client client.exq --parent 'QUERY'
                --record rec.xml [--seed N]
  exq delete    --server server.exq --client client.exq 'QUERY'
  exq explain   --server server.exq --client client.exq 'QUERY'
  exq export    --server server.exq --client client.exq --out doc.xml
  exq stats     --server server.exq
  exq stats     --addr HOST:PORT      (live metrics, Prometheus text format)

Global observability flags (every command):
  --trace-out FILE     write per-query span trees as JSON lines
  --slow-ms N          log queries slower than N ms (0 disables)
  --log-level LEVEL    off|error|warn|info|debug (stderr; default warn)
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_parsing() {
        assert!(matches!(parse_scheme("opt"), Ok(SchemeKind::Opt)));
        assert!(matches!(parse_scheme("match"), Ok(SchemeKind::Match)));
        assert!(parse_scheme("bogus").is_err());
    }

    #[test]
    fn constraints_parsing() {
        let text = "# comment\n//insurance\n\n//patient:(/pname, /SSN)\n";
        let cs = parse_constraints(text).unwrap();
        assert_eq!(cs.len(), 2);
        assert!(parse_constraints("# nothing\n").is_err());
        assert!(parse_constraints("//bad:(").is_err());
    }
}
