//! The serve side: what one running server is configured with, how a
//! decoded request is admitted (or shed), and how it is dispatched against
//! the database it names.
//!
//! A server hosts a [`TenantRegistry`] — one process, many named,
//! independently-keyed sealed databases. Each frame names the db it
//! addresses (empty = the default db); read-style requests share that
//! tenant's read lock and run concurrently, mutations take its write lock.
//! [`serve`] is the single-database convenience: it wraps the caller's
//! `Arc<RwLock<Server>>` as the sole default tenant.
//!
//! How bytes become requests and requests reach a thread is
//! [`crate::evloop`]'s business — the one serve path. This module is what
//! each of its workers runs per request (`serve_one`):
//!
//! * an optional max-in-flight limit and per-request deadline, answering
//!   [`Message::Busy`] instead of queueing unboundedly (cache-hit queries
//!   and cheap stats requests are admitted ahead of misses);
//! * *fair-share* admission: on top of the global in-flight limit each
//!   tenant is capped (its own quota, or `max_inflight` split evenly
//!   across tenants), so one hot tenant's Busy storm cannot starve
//!   another tenant's share of the server;
//! * the per-tenant [`crate::transport::ReplayTable`], so a mutation
//!   replayed by the client-side retry layer is applied at most once;
//! * the per-request resource profile and slow-query accounting.

// Everything crate-private here is called from the epoll event loop, which
// only exists on Linux; elsewhere `serve_event` reports `Unsupported`.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

use crate::codec::{DecodedFrame, Message, WireError};
use crate::error::CoreError;
use crate::server::Server;
use crate::telemetry::{self, Counter, Gauge};
use crate::tenant::{Tenant, TenantRegistry, DEFAULT_DB};
use crate::transport::{answer_request, apply_request_keyed, dispatch_traced};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, LockResult, OnceLock, PoisonError, RwLock, TryLockError, TryLockResult};
use std::thread;
use std::time::{Duration, Instant};

/// Registry handles for the fault-tolerance counters on the serving side.
struct FtMetrics {
    /// Requests refused at admission because the server was saturated.
    shed: Arc<Counter>,
    /// Requests admitted but refused because the server could not be
    /// acquired within the deadline.
    deadline_shed: Arc<Counter>,
    /// Currently admitted requests.
    inflight: Arc<Gauge>,
}

fn ft_metrics() -> &'static FtMetrics {
    static METRICS: OnceLock<FtMetrics> = OnceLock::new();
    METRICS.get_or_init(|| FtMetrics {
        shed: telemetry::counter("exq_server_shed_total"),
        deadline_shed: telemetry::counter("exq_server_deadline_shed_total"),
        inflight: telemetry::gauge("exq_server_inflight"),
    })
}

/// Server-side knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// How long a peer may make *no progress* mid-frame — delivering the
    /// rest of a frame once its first byte has arrived, or draining a reply
    /// it is owed — before it is dropped. Every byte of progress restarts
    /// the budget, so a slow-but-live client dribbling bytes keeps the
    /// connection; an idle connection between frames is never dropped.
    pub io_timeout: Duration,
    /// Ignored: the server has no intra-query threads (its matcher is
    /// set-at-a-time). The field stays only because the frozen perf ledger
    /// names it in a struct literal; it goes once the ledger builds its
    /// config from `Default` (ROADMAP item 1).
    pub threads: usize,
    /// Response-cache entries: `Some(0)` disables caching, `None` resolves
    /// from `EXQ_CACHE` / the default; applied to the served [`Server`].
    pub cache_entries: Option<usize>,
    /// Maximum concurrently admitted requests across all connections
    /// (`0` = unlimited). At the limit, new work is shed with
    /// [`Message::Busy`] — except cache-hit queries and cheap stats
    /// requests, which are still admitted.
    pub max_inflight: usize,
    /// Maximum concurrently admitted requests *per database* (`0` = auto:
    /// each tenant gets a fair share of `max_inflight`, split evenly).
    /// Keeps one hot tenant's burst from occupying every admission slot
    /// and starving quiet tenants.
    pub max_inflight_per_db: usize,
    /// Per-request deadline on acquiring the server (`ZERO` = none). A
    /// request that cannot take its lock within the deadline is answered
    /// [`Message::Busy`] instead of queueing behind a long writer.
    pub deadline: Duration,
    /// The `retry_after_ms` hint carried in `Busy` replies.
    pub retry_after: Duration,
    /// Dispatched requests allowed to wait for a worker before new
    /// arrivals are refused with `Busy` instead of queueing unboundedly
    /// (`0` = auto: 8× `workers`, at least 32).
    pub accept_backlog: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            io_timeout: Duration::from_secs(30),
            threads: 0,
            cache_entries: None,
            max_inflight: 0,
            max_inflight_per_db: 0,
            deadline: Duration::ZERO,
            retry_after: Duration::from_millis(25),
            accept_backlog: 0,
        }
    }
}

impl ServeConfig {
    /// The effective bound on the dispatch queue.
    pub(crate) fn backlog(&self) -> usize {
        if self.accept_backlog > 0 {
            self.accept_backlog
        } else {
            (self.workers.max(1) * 8).max(32)
        }
    }
}

/// Admission state shared by every connection of one running server.
/// Per-tenant state (replay tables, per-db in-flight counters) lives
/// inside the registry's [`Tenant`]s.
pub(crate) struct ServeShared {
    /// The databases this instance hosts.
    pub(crate) registry: Arc<TenantRegistry>,
    /// Requests currently being dispatched across all tenants
    /// (admission-controlled).
    pub(crate) inflight: AtomicUsize,
}

/// Panic-safe in-flight accounting: decrements the global and per-tenant
/// counters (and mirrors the gauge) even if dispatch panics.
struct InflightGuard<'a> {
    shared: &'a ServeShared,
    tenant: &'a Tenant,
}

impl<'a> InflightGuard<'a> {
    fn enter(shared: &'a ServeShared, tenant: &'a Tenant) -> InflightGuard<'a> {
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        tenant.enter_inflight();
        ft_metrics().inflight.add(1);
        InflightGuard { shared, tenant }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
        self.tenant.leave_inflight();
        ft_metrics().inflight.add(-1);
    }
}

/// The per-db admission cap in effect: an explicit `max_inflight_per_db`
/// wins; otherwise `max_inflight` is split evenly across tenants (at
/// least 1 each). `0` = no per-db cap.
fn fair_share(config: &ServeConfig, tenants: usize) -> usize {
    if config.max_inflight_per_db > 0 {
        config.max_inflight_per_db
    } else if config.max_inflight > 0 && tenants > 0 {
        (config.max_inflight / tenants).max(1)
    } else {
        0
    }
}

/// A running server; dropping it (or calling [`ServeHandle::shutdown`])
/// stops the event loop and joins every thread.
pub struct ServeHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) threads: Vec<thread::JoinHandle<()>>,
    pub(crate) registry: Arc<TenantRegistry>,
}

impl ServeHandle {
    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted databases.
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }

    /// Cache counters of the default database (for the `exq serve` banner).
    pub fn cache_stats(&self) -> crate::cache::CacheStatsSnapshot {
        match self.registry.resolve("") {
            Ok(tenant) => tenant.cache_stats(),
            Err(_) => crate::cache::CacheStatsSnapshot::default(),
        }
    }

    /// Stops accepting, drains workers, joins threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // A throwaway connection makes the listener readable, so the event
        // thread observes the flag now instead of at its next tick.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Runs the frame protocol over `listener` against a shared server.
///
/// The server becomes the sole (default) database of a single-tenant
/// registry; frames that don't name a db route to it. Read-style requests
/// are answered under the read lock (concurrently); insert/delete take the
/// write lock. Returns immediately; the returned handle owns the event and
/// worker threads.
pub fn serve(
    listener: TcpListener,
    server: Arc<RwLock<Server>>,
    config: ServeConfig,
) -> std::io::Result<ServeHandle> {
    let registry =
        Arc::new(TenantRegistry::single(DEFAULT_DB, server).expect("default db id is valid"));
    crate::evloop::serve_event(listener, registry, config)
}

/// Applies the cache knob to every hosted instance.
pub(crate) fn apply_tenant_knobs(registry: &TenantRegistry, config: &ServeConfig) {
    for tenant in registry.tenants() {
        crate::store::write_server(&tenant.server).set_cache_entries(config.cache_entries);
    }
}

/// How long a deadline-bounded lock acquisition sleeps between attempts.
const LOCK_POLL: Duration = Duration::from_micros(500);

/// The load-shed reply.
pub(crate) fn busy_reply(retry_after: Duration) -> Message {
    let retry_after_ms = retry_after.as_millis().min(u32::MAX as u128) as u32;
    Message::Busy { retry_after_ms }
}

/// Requests that read no database state: they pass the health gate, so
/// operators can see what is wrong with a sick db, and are never shed.
fn is_diagnostic(req: &Message) -> bool {
    matches!(req, Message::MetricsReq | Message::Ping)
}

/// Request-class half of the admission policy: at an in-flight limit, a
/// request is still admitted only if it is cheap — a diagnostic, or a query
/// the response cache already answers. Shedding expensive misses while
/// still serving hits keeps goodput up under overload. A held write lock
/// means the answer may be invalidated anyway, so it counts as a miss.
fn admitted_under_load(server: &RwLock<Server>, req: &Message) -> bool {
    match req {
        Message::Query(q) => server.try_read().is_ok_and(|g| g.has_cached_response(q)),
        other => is_diagnostic(other),
    }
}

/// Takes a lock through `lock`, or through `try_lock` polled until
/// `deadline` has passed (`None`); ZERO waits forever. Poisoning is
/// recovered as elsewhere in the serve loop.
fn lock_within<G>(
    deadline: Duration,
    lock: impl FnOnce() -> LockResult<G>,
    try_lock: impl Fn() -> TryLockResult<G>,
) -> Option<G> {
    if deadline.is_zero() {
        return Some(lock().unwrap_or_else(PoisonError::into_inner));
    }
    let until = Instant::now() + deadline;
    loop {
        match try_lock() {
            Ok(guard) => return Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => return Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) if Instant::now() >= until => return None,
            Err(TryLockError::WouldBlock) => thread::sleep(LOCK_POLL),
        }
    }
}

/// Dispatches one decoded request under admission control and answers
/// mutations through the tenant's own replay table for at-most-once
/// semantics.
pub(crate) fn serve_one(shared: &ServeShared, config: &ServeConfig, d: &DecodedFrame) -> Message {
    let deadline = config.deadline;
    match &d.msg {
        // Liveness probes answer instantly, without the server lock or an
        // admission slot: a saturated server is alive, not dead.
        Message::Ping => Message::Pong,
        msg if msg.is_mutation() => admit(shared, config, d, |tenant| {
            let server = &tenant.server;
            lock_within(deadline, || server.write(), || server.try_write()).map(|mut guard| {
                let r = apply_request_keyed(&mut guard, &tenant.replay, d.req_id, msg);
                // A persistence failure on the mutation path means the WAL
                // (or store) is not accepting writes: flip this db to
                // read-only now rather than waiting for the checkpointer
                // to find out.
                if let Err(CoreError::Persist(m)) = &r {
                    tenant.set_degraded(m);
                }
                r
            })
        }),
        msg => admit(shared, config, d, |tenant| {
            let server = &tenant.server;
            lock_within(deadline, || server.read(), || server.try_read())
                .map(|guard| answer_request(&guard, msg))
        }),
    }
}

/// What every request goes through around its `body`: resolve the frame's
/// db to a tenant (typed error for unknown dbs), the health gate, the shed
/// test at the global *or* per-db in-flight limit, one admission slot, and
/// the trace scope with the request's resource profile, per-db latency and
/// slow-request accounting. `body` answers under the tenant's lock, or
/// returns `None` when the lock could not be taken within the deadline.
fn admit(
    shared: &ServeShared,
    config: &ServeConfig,
    d: &DecodedFrame,
    body: impl FnOnce(&Tenant) -> Option<Result<Message, CoreError>>,
) -> Message {
    let tenant = match shared.registry.resolve(&d.db) {
        Ok(t) => t,
        Err(e) => return Message::Error(WireError::from_core(&e)),
    };
    tenant.note_request();
    // Health gate: a degraded db refuses mutations (reads keep serving
    // from pool + page file), a faulted db refuses data traffic entirely.
    if !is_diagnostic(&d.msg) {
        if let Err(e) = tenant.admit_health(d.msg.is_mutation()) {
            return Message::Error(WireError::from_core(&e));
        }
    }
    let inflight = shared.inflight.load(Ordering::SeqCst);
    let over_global = config.max_inflight != 0 && inflight >= config.max_inflight;
    let db_cap = tenant.effective_cap(fair_share(config, shared.registry.len()));
    let over_db = db_cap != 0 && tenant.inflight() >= db_cap;
    if (over_global || over_db) && !admitted_under_load(&tenant.server, &d.msg) {
        ft_metrics().shed.inc();
        tenant.note_shed();
        return busy_reply(config.retry_after);
    }
    if matches!(d.msg, Message::MetricsReq) {
        // Scrape-time freshness for every hosted db, not just this one.
        shared.registry.refresh_store_gauges();
    }
    let _guard = InflightGuard::enter(shared, &tenant);
    let started = Instant::now();
    let mut profile = None;
    let reply = dispatch_traced(d.trace, || {
        telemetry::profile_begin();
        let result = body(&tenant).unwrap_or_else(|| {
            ft_metrics().deadline_shed.inc();
            Ok(busy_reply(config.retry_after))
        });
        profile = finish_profile(&tenant, &result);
        result
    });
    let total = started.elapsed();
    tenant.note_latency(total);
    telemetry::note_server_query(tenant.name(), total, profile.as_ref());
    reply
}

/// Closes out one dispatched request's resource profile. Must run inside
/// the dispatch closure (the trace scope is still open there, so the
/// `profile.*` spans ride back on the `Answer`): stamps the reply's
/// shipped blocks and cache outcome into the profile, folds it into the
/// tenant's per-db totals — exactly once per request, which is what makes
/// `sum(profiles) == registry counters` hold — and records each field as
/// a `profile.*` span whose nanosecond value carries the raw count.
fn finish_profile(
    tenant: &Tenant,
    result: &Result<Message, CoreError>,
) -> Option<telemetry::QueryProfile> {
    if let Ok(Message::Answer(resp)) = result {
        telemetry::with_profile(|p| {
            p.blocks_shipped += resp.blocks.len() as u64;
            p.cache_hit = resp.served_from_cache;
        });
    }
    let profile = telemetry::profile_take()?;
    tenant.note_profile(&profile);
    if telemetry::current_trace() != 0 {
        for (name, value) in profile.span_fields() {
            if value > 0 {
                telemetry::record_span(name, Duration::from_nanos(value));
            }
        }
    }
    Some(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests_support::{build_server, mk_step};
    use crate::wire::{SAxis, ServerQuery};

    #[test]
    fn load_admits_only_diagnostics_and_cache_hits() {
        let mut server = build_server(crate::scheme::SchemeKind::Opt).0;
        server.set_cache_entries(Some(8));
        let q = ServerQuery {
            steps: vec![mk_step(SAxis::Descendant, "hospital")],
            anchor: 0,
        };
        let server = RwLock::new(server);
        let query = Message::Query(q.clone());
        // A miss sheds; once the cache holds the answer, the query is cheap.
        assert!(!admitted_under_load(&server, &query));
        server.read().unwrap().answer(&q).unwrap();
        assert!(admitted_under_load(&server, &query));
        // Scrapes always pass; other work sheds.
        assert!(admitted_under_load(&server, &Message::MetricsReq));
        assert!(!admitted_under_load(&server, &Message::NaiveQuery));
        assert!(!admitted_under_load(&server, &Message::FetchBlock(0)));
        // Under a held write lock a cached answer may be stale: only the
        // diagnostics pass.
        let _writer = server.write().unwrap();
        assert!(!admitted_under_load(&server, &query));
        assert!(admitted_under_load(&server, &Message::MetricsReq));
    }
}
