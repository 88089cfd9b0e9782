//! Multi-tenancy: one serve loop, many named, independently-keyed sealed
//! databases.
//!
//! The paper's deployment model is a data owner outsourcing one encrypted
//! document to an untrusted host; a hosted service runs *many* such
//! databases behind one process. [`TenantRegistry`] maps a database name
//! (the db id every frame carries) to a [`Tenant`]: the sealed
//! [`Server`] state, the fingerprint of the client key that sealed it, a
//! per-db mutation [`ReplayTable`], per-db admission counters and quota,
//! and per-db traffic counters in the telemetry registry.
//!
//! Isolation invariants the registry upholds:
//!
//! * **Caches** — each tenant's server carries its own [`ServerCaches`]
//!   with its own generation counter, so one tenant's mutations never
//!   invalidate another's cached answers. Registered tenants get
//!   `{db="<name>"}`-labeled cache counters.
//! * **Replay** — each tenant has its own replay table, so the same
//!   request id arriving at two dbs dedupes independently (client request
//!   ids are only unique per client, not across tenants).
//! * **Admission** — each tenant has its own in-flight counter and an
//!   optional per-db cap, so one tenant's Busy storm cannot starve
//!   another's fair share of the global limit (see the serve loop).
//!
//! Persistence is a directory-of-databases layout: a checksummed
//! [`Manifest`] naming every db plus one paged store per db,
//! `<name>.exq.pages/`. [`TenantRegistry::open`] is the one way in: it
//! hosts a directory's databases, or a single-file server artifact as the
//! default db, each through [`PagedDb::open_or_migrate`] — an artifact
//! with no paged sibling yet (`exq encrypt` output, or the `<name>.exq`
//! of a directory written before every database was paged) is imported
//! on first open.
//!
//! [`ServerCaches`]: crate::cache::ServerCaches

use crate::codec::{Enc, MAX_DB_ID_LEN};
use crate::error::CoreError;
use crate::persist::{atomic_write, read_file, seal_checksum};
use crate::server::Server;
use crate::store::{PagedDb, StoreOptions};
use crate::telemetry::{self, Counter, Gauge, Histogram, Level};
use crate::transport::ReplayTable;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The database that requests naming no db (an empty db id) route to.
pub const DEFAULT_DB: &str = "default";

/// Serving state of one hosted database after storage faults. Owned by the
/// tenant, surfaced in `exq db list`, the `exq_db_health` gauge and one log
/// line per transition; enforced by the serve path.
///
/// Transitions: a failed WAL append or checkpoint flips `Healthy →
/// Degraded` (reads keep serving from pool + page file, mutations get
/// [`CoreError::Unavailable`]); a successful storage probe on a later
/// checkpointer tick flips back. `Faulted` — storage unusable even for
/// reads (e.g. the scrubber found an unrepairable record) — refuses
/// everything but pings and diagnostics, and only a reopen clears it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DbHealth {
    /// Fully serving.
    Healthy = 0,
    /// Read-only: storage writes are failing, reads still answer.
    Degraded = 1,
    /// Not serving data at all.
    Faulted = 2,
}

impl DbHealth {
    fn from_u8(v: u8) -> DbHealth {
        match v {
            1 => DbHealth::Degraded,
            2 => DbHealth::Faulted,
            _ => DbHealth::Healthy,
        }
    }

    /// Stable lowercase label for CLI columns and logs.
    pub fn label(self) -> &'static str {
        match self {
            DbHealth::Healthy => "healthy",
            DbHealth::Degraded => "degraded",
            DbHealth::Faulted => "faulted",
        }
    }
}

/// Manifest file name inside a database directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Manifest magic (versioned like the other persistence artifacts).
/// Version 2 writes its fields in the one codec and no longer names a
/// state file per database (every writer named it after the db).
const MANIFEST_MAGIC: &[u8; 6] = b"EXQMF2";

/// Retry-after hint stamped on [`CoreError::Unavailable`] refusals: the
/// checkpointer probes degraded storage once per tick, so sooner retries
/// cannot observe a recovery.
pub const HEALTH_RETRY_AFTER_MS: u32 = 1000;

/// Validates a database id: non-empty, at most [`MAX_DB_ID_LEN`] bytes,
/// characters restricted to `[A-Za-z0-9._-]`, and starting with an
/// alphanumeric — safe as a wire field, a telemetry label, and a file
/// name. (Telemetry labels go through [`telemetry::db_series`] anyway, so
/// even a hostile name that slipped past validation could not corrupt the
/// exposition — defense in depth, not a reason to loosen this check.)
pub fn validate_db_id(name: &str) -> Result<(), CoreError> {
    if name.is_empty() {
        return Err(CoreError::Tenant("database name is empty".into()));
    }
    if name.len() > MAX_DB_ID_LEN {
        return Err(CoreError::Tenant(format!(
            "database name '{name}' exceeds {MAX_DB_ID_LEN} bytes"
        )));
    }
    let mut chars = name.chars();
    let first = chars.next().unwrap();
    if !first.is_ascii_alphanumeric() {
        return Err(CoreError::Tenant(format!(
            "database name '{name}' must start with an ASCII letter or digit"
        )));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return Err(CoreError::Tenant(format!(
            "database name '{name}' may only contain [A-Za-z0-9._-]"
        )));
    }
    Ok(())
}

/// One hosted database: sealed server state plus everything the serve loop
/// must keep *per tenant* so tenants cannot interfere with each other.
pub struct Tenant {
    name: String,
    /// The sealed server. Shared (`Arc<RwLock>`) so a caller that already
    /// holds a handle (tests, the single-db [`serve`] wrapper) observes
    /// the same state the serve loop mutates.
    ///
    /// [`serve`]: crate::serve::serve
    pub server: Arc<RwLock<Server>>,
    /// Per-tenant at-most-once mutation ledger: request ids are only
    /// unique per client, so replay suppression must not bleed across dbs.
    pub replay: ReplayTable,
    /// Requests currently admitted for this tenant.
    inflight: AtomicUsize,
    /// Per-db in-flight cap (0 = inherit the serve loop's fair share).
    max_inflight: AtomicUsize,
    /// FNV-1a fingerprint of the sealing client's master key (0 when
    /// unknown, e.g. for servers adopted without their client artifact).
    key_fingerprint: u64,
    /// `exq_db_requests_total{db="<name>"}`.
    requests: Arc<Counter>,
    /// `exq_db_shed_total{db="<name>"}`.
    shed: Arc<Counter>,
    /// `exq_db_request_seconds{db="<name>"}`: admitted requests, admission
    /// to reply.
    request_seconds: Arc<Histogram>,
    /// Per-db resource totals, fed once per request from the request's
    /// taken [`telemetry::QueryProfile`] — so background work (the
    /// checkpointer's own faults and fsyncs) never pollutes them, and the
    /// sum of per-query profiles reconciles with these counters exactly.
    profile: DbProfileCounters,
    /// Current [`DbHealth`] discriminant.
    health: AtomicU8,
    /// Why the db left `Healthy` (empty when healthy).
    health_reason: Mutex<String>,
    /// When the db left `Healthy` (for the recovery event's duration).
    unhealthy_since: Mutex<Option<Instant>>,
    /// `exq_db_health{db="<name>"}`: 0 healthy, 1 degraded, 2 faulted.
    health_gauge: Arc<Gauge>,
}

/// The per-db aggregation of [`telemetry::QueryProfile`]: one counter per
/// profile field, labeled `{db="<name>"}`.
struct DbProfileCounters {
    pool_hits: Arc<Counter>,
    pages_faulted: Arc<Counter>,
    evictions: Arc<Counter>,
    epoch_retries: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    records_decoded: Arc<Counter>,
    blocks_shipped: Arc<Counter>,
}

impl DbProfileCounters {
    fn new(name: &str) -> DbProfileCounters {
        let c = |metric: &str| telemetry::counter(&telemetry::db_series(metric, name));
        DbProfileCounters {
            pool_hits: c("exq_db_pool_hits_total"),
            pages_faulted: c("exq_db_pages_faulted_total"),
            evictions: c("exq_db_evictions_total"),
            epoch_retries: c("exq_db_epoch_retries_total"),
            wal_bytes: c("exq_db_wal_bytes_total"),
            records_decoded: c("exq_db_records_decoded_total"),
            blocks_shipped: c("exq_db_blocks_shipped_total"),
        }
    }
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("key_fingerprint", &self.key_fingerprint)
            .field("inflight", &self.inflight())
            .field("max_inflight", &self.max_inflight())
            .finish_non_exhaustive()
    }
}

impl Tenant {
    fn new(
        name: &str,
        server: Arc<RwLock<Server>>,
        key_fingerprint: u64,
        max_inflight: usize,
    ) -> Tenant {
        Tenant {
            name: name.to_owned(),
            server,
            replay: ReplayTable::default(),
            inflight: AtomicUsize::new(0),
            max_inflight: AtomicUsize::new(max_inflight),
            key_fingerprint,
            requests: telemetry::counter(&telemetry::db_series("exq_db_requests_total", name)),
            shed: telemetry::counter(&telemetry::db_series("exq_db_shed_total", name)),
            request_seconds: telemetry::histogram(&telemetry::db_series(
                "exq_db_request_seconds",
                name,
            )),
            profile: DbProfileCounters::new(name),
            health: AtomicU8::new(DbHealth::Healthy as u8),
            health_reason: Mutex::new(String::new()),
            unhealthy_since: Mutex::new(None),
            health_gauge: telemetry::gauge(&telemetry::db_series("exq_db_health", name)),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn key_fingerprint(&self) -> u64 {
        self.key_fingerprint
    }

    /// Requests currently admitted for this tenant.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    pub(crate) fn enter_inflight(&self) -> usize {
        self.inflight.fetch_add(1, Ordering::SeqCst)
    }

    pub(crate) fn leave_inflight(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    /// The per-db in-flight quota (0 = inherit the fair share).
    pub fn max_inflight(&self) -> usize {
        self.max_inflight.load(Ordering::SeqCst)
    }

    pub fn set_max_inflight(&self, cap: usize) {
        self.max_inflight.store(cap, Ordering::SeqCst);
    }

    /// The cap the admission check enforces for this tenant: its own quota
    /// if set, else the serve loop's computed fair share.
    pub fn effective_cap(&self, fair_share: usize) -> usize {
        let own = self.max_inflight();
        if own > 0 {
            own
        } else {
            fair_share
        }
    }

    /// Requests routed to this tenant (admitted or shed).
    pub fn requests_total(&self) -> u64 {
        self.requests.get()
    }

    /// Requests shed for this tenant at admission.
    pub fn shed_total(&self) -> u64 {
        self.shed.get()
    }

    pub(crate) fn note_request(&self) {
        self.requests.inc();
    }

    pub(crate) fn note_shed(&self) {
        self.shed.inc();
    }

    /// Records one admitted request's latency (off with the telemetry
    /// master switch, like every latency histogram).
    pub(crate) fn note_latency(&self, total: Duration) {
        if telemetry::enabled() {
            self.request_seconds.observe_duration(total);
        }
    }

    /// Folds one finished request's resource profile into this db's
    /// totals. Called exactly once per dispatched request by the serve
    /// paths, so `sum(profiles) == registry counters` holds exactly.
    pub(crate) fn note_profile(&self, p: &telemetry::QueryProfile) {
        self.profile.pool_hits.add(p.pool_hits);
        self.profile.pages_faulted.add(p.pages_faulted);
        self.profile.evictions.add(p.evictions);
        self.profile.epoch_retries.add(p.epoch_retries);
        self.profile.wal_bytes.add(p.wal_bytes);
        self.profile.records_decoded.add(p.records_decoded);
        self.profile.blocks_shipped.add(p.blocks_shipped);
    }

    /// Republishes this tenant's storage gauges (pool occupancy, WAL
    /// depth, disk footprint) if it is paged. Called after checkpoints and
    /// on every metrics scrape so gauges are fresh at read time instead of
    /// trailing the last mutation.
    pub fn refresh_store_gauges(&self) {
        if let Some(db) = crate::store::read_server(&self.server).paged_store() {
            db.publish_metrics();
        }
    }

    /// Current serving health.
    pub fn health(&self) -> DbHealth {
        DbHealth::from_u8(self.health.load(Ordering::SeqCst))
    }

    /// Why the db is not `Healthy` (empty string when it is).
    pub fn health_reason(&self) -> String {
        match self.health_reason.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }

    fn set_health(&self, next: DbHealth, reason: &str) {
        let prev = DbHealth::from_u8(self.health.swap(next as u8, Ordering::SeqCst));
        {
            let mut g = match self.health_reason.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            g.clear();
            g.push_str(reason);
        }
        self.health_gauge.set(next as i64);
        if prev == next {
            return;
        }
        let mut since = match self.unhealthy_since.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if next == DbHealth::Healthy {
            let ms = since.take().map_or(0, |t| t.elapsed().as_millis());
            telemetry::log(
                Level::Info,
                &format!("db `{}` healthy again after {ms} ms", self.name),
            );
        } else {
            if prev == DbHealth::Healthy {
                *since = Some(Instant::now());
            }
            telemetry::log(
                Level::Warn,
                &format!("db `{}` {}: {reason}", self.name, next.label()),
            );
        }
    }

    /// Flips to read-only after a storage write failure. Keeps the first
    /// reason if already degraded; never *improves* a `Faulted` db (that
    /// takes an explicit [`Tenant::set_healthy`] or reopen).
    pub fn set_degraded(&self, reason: &str) {
        if self.health() == DbHealth::Faulted {
            return;
        }
        if self.health() == DbHealth::Degraded {
            return;
        }
        self.set_health(DbHealth::Degraded, reason);
    }

    /// Storage is unusable even for reads.
    pub fn set_faulted(&self, reason: &str) {
        self.set_health(DbHealth::Faulted, reason);
    }

    /// Storage answered a probe; resume full service.
    pub fn set_healthy(&self) {
        self.set_health(DbHealth::Healthy, "");
    }

    /// The serve-path gate: `Ok` when `msg_is_mutation`-class traffic is
    /// allowed, a typed [`CoreError::Unavailable`] otherwise. Read-only
    /// traffic passes unless the db is `Faulted`.
    pub fn admit_health(&self, is_mutation: bool) -> Result<(), CoreError> {
        match self.health() {
            DbHealth::Healthy => Ok(()),
            DbHealth::Degraded if !is_mutation => Ok(()),
            state => Err(CoreError::Unavailable {
                retry_after_ms: HEALTH_RETRY_AFTER_MS,
                reason: format!("{}: {}", state.label(), self.health_reason()),
            }),
        }
    }

    /// Cache counters of this tenant's server.
    pub fn cache_stats(&self) -> crate::cache::CacheStatsSnapshot {
        crate::store::read_server(&self.server).cache_stats()
    }
}

/// A named collection of hosted databases behind one serve loop.
pub struct TenantRegistry {
    inner: RwLock<HashMap<String, Arc<Tenant>>>,
    default_db: String,
}

impl TenantRegistry {
    /// An empty registry whose anonymous requests will route to
    /// `default_db` once a database of that name is created.
    pub fn new(default_db: &str) -> Result<TenantRegistry, CoreError> {
        validate_db_id(default_db)?;
        Ok(TenantRegistry {
            inner: RwLock::new(HashMap::new()),
            default_db: default_db.to_owned(),
        })
    }

    /// Wraps one already-shared server as the sole (default) database, for
    /// the single-db [`serve`]: the caller's `Arc` stays live, and the
    /// server's caches are labelled as [`create`](Self::create) labels
    /// them, so it scrapes like any other hosted database.
    ///
    /// [`serve`]: crate::serve::serve
    pub fn single(name: &str, server: Arc<RwLock<Server>>) -> Result<TenantRegistry, CoreError> {
        let registry = TenantRegistry::new(name)?;
        crate::store::write_server(&server).set_cache_db_label(name);
        let tenant = Arc::new(Tenant::new(name, server, 0, 0));
        registry.lock_write().insert(name.to_owned(), tenant);
        Ok(registry)
    }

    fn lock_read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<Tenant>>> {
        match self.inner.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn lock_write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<Tenant>>> {
        match self.inner.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a database. Rejects invalid names and duplicates with a
    /// typed [`CoreError::Tenant`]; labels the server's caches with the db
    /// name so its stats are scrapeable per tenant.
    pub fn create(
        &self,
        name: &str,
        server: Server,
        key_fingerprint: u64,
        max_inflight: usize,
    ) -> Result<Arc<Tenant>, CoreError> {
        validate_db_id(name)?;
        let mut server = server;
        server.set_cache_db_label(name);
        let server = Arc::new(RwLock::new(server));
        let tenant = Arc::new(Tenant::new(name, server, key_fingerprint, max_inflight));
        let mut map = self.lock_write();
        if map.contains_key(name) {
            return Err(CoreError::Tenant(format!(
                "database '{name}' already exists"
            )));
        }
        map.insert(name.to_owned(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// The tenant a frame's db id routes to: the named db, or the default
    /// db for an empty id. Unknown
    /// names are a typed error, answered as an error frame — never a
    /// panic, never another tenant's data.
    pub fn resolve(&self, db: &str) -> Result<Arc<Tenant>, CoreError> {
        let name = if db.is_empty() { &self.default_db } else { db };
        self.lock_read()
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::Tenant(format!("unknown database '{name}'")))
    }

    /// The named tenant, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.lock_read().get(name).cloned()
    }

    /// Unregisters a database and removes its `{db="<name>"}` series from
    /// the telemetry registry — a dropped db must disappear from the next
    /// scrape, not linger as a frozen ghost. Nothing on disk is touched;
    /// `exq db drop` removes a directory's entry and store.
    pub fn drop_db(&self, name: &str) -> Result<Arc<Tenant>, CoreError> {
        let tenant = self
            .lock_write()
            .remove(name)
            .ok_or_else(|| CoreError::Tenant(format!("unknown database '{name}'")))?;
        telemetry::remove_db_series(name);
        Ok(tenant)
    }

    /// Registered database names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock_read().keys().cloned().collect();
        names.sort();
        names
    }

    pub fn len(&self) -> usize {
        self.lock_read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The database anonymous requests route to.
    pub fn default_db(&self) -> &str {
        &self.default_db
    }

    /// All tenants, sorted by name (for logging and per-db stats).
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        let mut out: Vec<Arc<Tenant>> = self.lock_read().values().cloned().collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Republishes every paged tenant's storage gauges (see
    /// [`Tenant::refresh_store_gauges`]). The serve path calls this on
    /// metrics scrapes so a scrape always reads current occupancy.
    pub fn refresh_store_gauges(&self) {
        for t in self.tenants() {
            t.refresh_store_gauges();
        }
    }

    // ------------------------------------------------------- persistence --

    /// Where a database's artifact sits (or sat) inside `dir`; its paged
    /// store is the `.pages` sibling ([`PagedDb::pages_dir`]).
    pub fn db_path(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("{name}.exq"))
    }

    /// Makes `dir` the directory-of-databases of this registry: every
    /// tenant checkpoints its paged store (a tenant that has none yet —
    /// registered from an in-memory [`Server`] — gets one at
    /// `dir/<name>.exq.pages`), then the manifest is written. The directory
    /// is created if missing.
    pub fn save_dir(&self, dir: &Path) -> Result<(), CoreError> {
        std::fs::create_dir_all(dir).map_err(|e| CoreError::Persist(e.to_string()))?;
        let mut manifest = Manifest::new(&self.default_db);
        for t in self.tenants() {
            let pages = PagedDb::pages_dir(&Self::db_path(dir, &t.name));
            let store = crate::store::read_server(&t.server).paged_store();
            match store {
                None => {
                    let mut server = crate::store::write_server(&t.server);
                    PagedDb::attach_new(&mut server, &pages, &t.name, StoreOptions::default())?;
                }
                Some(db) if db.dir() == pages => {
                    crate::store::checkpoint_once(&t.server)?;
                }
                Some(db) => {
                    return Err(CoreError::Tenant(format!(
                        "database '{}' is hosted from {}, not from {}",
                        t.name,
                        db.dir().display(),
                        dir.display()
                    )))
                }
            }
            let entry = DbEntry {
                key_fingerprint: t.key_fingerprint,
                max_inflight: t.max_inflight(),
            };
            manifest.dbs.insert(t.name.clone(), entry);
        }
        manifest.write(dir)
    }

    /// Hosts what `path` holds, every database through its paged store
    /// with a buffer pool of `opts`: a directory's manifest names the
    /// databases (and the default one); a single-file server artifact is
    /// hosted as `default_db` (key fingerprint unknown).
    pub fn open(
        path: &Path,
        default_db: &str,
        opts: StoreOptions,
    ) -> Result<TenantRegistry, CoreError> {
        let is_dir = path.is_dir();
        let manifest = if is_dir {
            Manifest::read(path)?
        } else {
            let mut single = Manifest::new(default_db);
            single.dbs.insert(default_db.to_owned(), DbEntry::default());
            single
        };
        let registry = TenantRegistry::new(&manifest.default_db)?;
        for (name, entry) in &manifest.dbs {
            let state = if is_dir {
                Self::db_path(path, name)
            } else {
                path.to_path_buf()
            };
            let (server, _db, replay) = PagedDb::open_or_migrate(&state, name, opts)?;
            if replay.replayed + replay.failed > 0 || replay.dropped_torn_tail {
                telemetry::counter(&telemetry::db_series("exq_store_replayed_total", name))
                    .add(replay.replayed as u64);
            }
            registry.create(name, server, entry.key_fingerprint, entry.max_inflight)?;
        }
        Ok(registry)
    }
}

/// What the manifest records about one database beside its name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbEntry {
    /// FNV-1a fingerprint of the sealing client's master key (0 = unknown).
    pub key_fingerprint: u64,
    /// Per-db in-flight cap (0 = inherit the serve loop's fair share).
    pub max_inflight: usize,
}

/// The checksummed `MANIFEST` of a database directory: which database
/// anonymous requests route to, and every hosted database by name. The one
/// definition of the file — [`TenantRegistry::open`] and
/// [`TenantRegistry::save_dir`] go through it, and `exq db create|list|drop`
/// edit a directory with it without opening a single database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    pub default_db: String,
    pub dbs: BTreeMap<String, DbEntry>,
}

impl Manifest {
    /// A manifest naming no database yet.
    pub fn new(default_db: &str) -> Manifest {
        Manifest {
            default_db: default_db.to_owned(),
            dbs: BTreeMap::new(),
        }
    }

    /// Reads and validates `dir/MANIFEST`.
    pub fn read(dir: &Path) -> Result<Manifest, CoreError> {
        let path = dir.join(MANIFEST_FILE);
        let data = std::fs::read(&path)
            .map_err(|e| CoreError::Persist(format!("read {}: {e}", path.display())))?;
        Manifest::from_bytes(&data)
    }

    /// Decodes and validates a manifest file's bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Manifest, CoreError> {
        // It holds no key: a directory written by another version is
        // hosted again by the build that wrote it, or created again.
        let remedy = "create the directory's databases again";
        read_file(data, MANIFEST_MAGIC, "manifest", remedy, |dec| {
            let mut manifest = Manifest::new(&dec.str()?);
            // Each entry is at least a name and two one-byte varints.
            for _ in 0..dec.count(3)? {
                let name = dec.str()?;
                validate_db_id(&name).map_err(|e| CoreError::Persist(format!("manifest: {e}")))?;
                let entry = DbEntry {
                    key_fingerprint: dec.varint()?,
                    max_inflight: dec.usize()?,
                };
                if manifest.dbs.insert(name.clone(), entry).is_some() {
                    return Err(CoreError::Persist(format!(
                        "manifest names database '{name}' twice"
                    )));
                }
            }
            Ok(manifest)
        })
    }

    /// The manifest file's bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.raw(MANIFEST_MAGIC);
        enc.str(&self.default_db);
        enc.usize(self.dbs.len());
        for (name, entry) in &self.dbs {
            enc.str(name);
            enc.varint(entry.key_fingerprint);
            enc.usize(entry.max_inflight);
        }
        seal_checksum(enc.into_bytes())
    }

    /// Writes `dir/MANIFEST` (crash-safe: temp file + fsync + rename).
    pub fn write(&self, dir: &Path) -> Result<(), CoreError> {
        atomic_write(&dir.join(MANIFEST_FILE), &self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_id_validation() {
        assert!(validate_db_id("hospital-east").is_ok());
        assert!(validate_db_id("a").is_ok());
        assert!(validate_db_id("v2.records_x").is_ok());
        assert!(validate_db_id(&"d".repeat(MAX_DB_ID_LEN)).is_ok());

        assert!(validate_db_id("").is_err());
        assert!(validate_db_id(&"d".repeat(MAX_DB_ID_LEN + 1)).is_err());
        assert!(validate_db_id(".hidden").is_err());
        assert!(validate_db_id("-flag").is_err());
        assert!(validate_db_id("has space").is_err());
        assert!(validate_db_id("has/slash").is_err());
        assert!(validate_db_id("há").is_err());
    }

    fn test_server() -> Server {
        crate::server::tests_support::build_server(crate::scheme::SchemeKind::Opt).0
    }

    #[test]
    fn registry_rejects_duplicates_and_unknowns() {
        let registry = TenantRegistry::new("main-reg-test").unwrap();
        registry
            .create("main-reg-test", test_server(), 7, 0)
            .unwrap();
        let err = registry
            .create("main-reg-test", test_server(), 7, 0)
            .unwrap_err();
        assert!(matches!(err, CoreError::Tenant(_)), "got {err:?}");
        assert!(matches!(
            registry.resolve("nope"),
            Err(CoreError::Tenant(_))
        ));
        // Empty id routes to the default db.
        assert_eq!(registry.resolve("").unwrap().name(), "main-reg-test");
        assert_eq!(registry.names(), vec!["main-reg-test".to_owned()]);
        registry.drop_db("main-reg-test").unwrap();
        assert!(registry.is_empty());
        assert!(matches!(registry.resolve(""), Err(CoreError::Tenant(_))));
    }

    #[test]
    fn health_transitions_and_gating() {
        let registry = TenantRegistry::new("health-test-db").unwrap();
        let t = registry
            .create("health-test-db", test_server(), 0, 0)
            .unwrap();
        assert_eq!(t.health(), DbHealth::Healthy);
        assert!(t.admit_health(true).is_ok());

        t.set_degraded("wal append failed");
        assert_eq!(t.health(), DbHealth::Degraded);
        assert_eq!(t.health_reason(), "wal append failed");
        // Reads pass, mutations refuse with the typed error + hint.
        assert!(t.admit_health(false).is_ok());
        match t.admit_health(true) {
            Err(CoreError::Unavailable {
                retry_after_ms,
                reason,
            }) => {
                assert_eq!(retry_after_ms, HEALTH_RETRY_AFTER_MS);
                assert_eq!(reason, "degraded: wal append failed");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        // The first cause sticks while degraded.
        t.set_degraded("second fault");
        assert_eq!(t.health_reason(), "wal append failed");

        t.set_healthy();
        assert_eq!(t.health(), DbHealth::Healthy);
        assert_eq!(t.health_reason(), "");
        assert!(t.admit_health(true).is_ok());

        t.set_faulted("unrepairable record");
        assert!(t.admit_health(false).is_err());
        // Degraded never *improves* a faulted db.
        t.set_degraded("later write error");
        assert_eq!(t.health(), DbHealth::Faulted);
        t.set_healthy();
        assert_eq!(t.health(), DbHealth::Healthy);
    }

    #[test]
    fn effective_cap_prefers_own_quota() {
        let registry = TenantRegistry::new("cap-test-db").unwrap();
        let t = registry.create("cap-test-db", test_server(), 0, 0).unwrap();
        assert_eq!(t.effective_cap(5), 5, "no quota → fair share");
        t.set_max_inflight(2);
        assert_eq!(t.effective_cap(5), 2, "own quota wins");
        assert_eq!(t.effective_cap(0), 2);
    }
}
