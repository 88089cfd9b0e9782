//! Server-side caching with generation-based invalidation.
//!
//! Deterministic tag and OPESS encryption means identical client queries
//! translate to byte-identical [`ServerQuery`]s, so the server hot path is
//! memoizable: a response cache keyed on the encrypted query's canonical
//! encoding. It is guarded by a monotonically increasing *generation*:
//! every mutation path bumps it, and a cached entry is only served when its
//! stored generation matches the server's current one — stale entries die
//! lazily, without scanning.
//!
//! Concurrency: queries run under the serve loop's `RwLock` **read** guard,
//! so the cache uses interior mutability — it is split into shards, each
//! behind its own `Mutex`, so concurrent readers rarely contend on the
//! same lock. Mutations hold the write lock, so a query never interleaves
//! with a generation bump; tagging entries with the generation captured at
//! query start is therefore race-free.
//!
//! Security: the cache stores only data the server already derives from
//! the ciphertext it hosts (encoded encrypted queries, pruned skeletons,
//! sealed block references). An adversary with server access
//! learns nothing from the cache it could not recompute — no new leakage.
//!
//! [`ServerQuery`]: crate::wire::ServerQuery

use crate::telemetry;
use crate::wire::ServerResponse;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment knob for the response-cache capacity in entries.
/// `0` disables caching entirely; unset or unparsable falls back to
/// [`DEFAULT_CACHE_ENTRIES`]. The CLI's `--cache-entries` overrides it.
pub const CACHE_ENV: &str = "EXQ_CACHE";

/// Default capacity in entries when neither the environment nor the CLI
/// says otherwise.
pub const DEFAULT_CACHE_ENTRIES: usize = 1024;

/// Shard count: enough to keep concurrent readers off each other's locks,
/// small enough that per-shard capacity stays meaningful.
const SHARDS: usize = 8;

/// Resolves the cache capacity: explicit value if given, else `EXQ_CACHE`,
/// else the default. `0` means caching is off.
pub fn resolve_cache_entries(explicit: Option<usize>) -> usize {
    explicit.unwrap_or_else(default_cache_entries)
}

/// The `EXQ_CACHE` environment value, or the default.
pub fn default_cache_entries() -> usize {
    std::env::var(CACHE_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_CACHE_ENTRIES)
}

/// Point-in-time cache counters, read by tests, the `exq serve` banner and
/// the perf ledger; for a tenant's server they are the same atomics the
/// scrape exports as `exq_cache_response_*_total{db="…"}`.
///
/// The four `range_*` fields belonged to a cross-query value-range cache
/// that was removed (it never hit: the response cache absorbs every repeat
/// first). They stay, always 0, because the frozen perf ledger names them;
/// a later benchmark PR drops them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsSnapshot {
    /// Current server generation (bumps on every mutation).
    pub generation: u64,
    /// Configured capacity in entries (0 = caching off).
    pub capacity: u64,
    pub response_hits: u64,
    pub response_misses: u64,
    pub response_evictions: u64,
    pub response_entries: u64,
    pub range_hits: u64,
    pub range_misses: u64,
    pub range_evictions: u64,
    pub range_entries: u64,
}

struct Entry<V> {
    value: V,
    generation: u64,
    /// Last-touch tick for LRU eviction (per shard).
    stamp: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    tick: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            tick: 0,
        }
    }
}

/// A cache's hit, miss and eviction counters: one handle each, counted
/// once. A tenant's cache holds its `{db="<name>"}` registry series, so a
/// [`CacheStatsSnapshot`] and the metrics scrape read the same atomics and
/// the counts survive `set_capacity`; any other cache holds private,
/// unregistered ones that start at zero.
#[derive(Default)]
struct CacheCounters {
    hits: Arc<telemetry::Counter>,
    misses: Arc<telemetry::Counter>,
    evictions: Arc<telemetry::Counter>,
}

impl CacheCounters {
    /// The response cache's `exq_cache_response_*_total{db="<name>"}`.
    fn registered(db: &str) -> Self {
        let c = |what: &str| {
            let name = format!("exq_cache_response_{what}_total");
            telemetry::counter(&telemetry::db_series(&name, db))
        };
        CacheCounters {
            hits: c("hits"),
            misses: c("misses"),
            evictions: c("evictions"),
        }
    }
}

/// A sharded, generation-tagged LRU cache usable through `&self`.
pub struct GenCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Per-shard capacity (total capacity split over [`SHARDS`]).
    per_shard: usize,
    counters: CacheCounters,
}

impl<K: Hash + Eq + Clone, V: Clone> GenCache<K, V> {
    /// `capacity` is the total entry budget across all shards; `0` turns
    /// the cache off (gets always miss silently, inserts are dropped).
    /// Counts privately.
    pub fn new(capacity: usize) -> Self {
        Self::counted(capacity, CacheCounters::default())
    }

    fn counted(capacity: usize, counters: CacheCounters) -> Self {
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(SHARDS)
        };
        GenCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard,
            counters,
        }
    }

    pub fn enabled(&self) -> bool {
        self.per_shard > 0
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns the cached value if present *and* tagged with the current
    /// generation; a stale entry is removed on sight.
    pub fn get(&self, key: &K, generation: u64) -> Option<V> {
        if !self.enabled() {
            return None;
        }
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(e) if e.generation == generation => {
                e.stamp = tick;
                self.counters.hits.inc();
                Some(e.value.clone())
            }
            stale => {
                if stale.is_some() {
                    shard.map.remove(key);
                }
                self.counters.misses.inc();
                None
            }
        }
    }

    /// Whether `key` is present under the current generation, without
    /// promoting the entry in LRU order or touching hit/miss counters.
    /// Used by the serve loop's admission control, where a probe must not
    /// distort the cache statistics of the query it is deciding about.
    pub fn peek(&self, key: &K, generation: u64) -> bool {
        if !self.enabled() {
            return false;
        }
        let shard = self.shard(key).lock().expect("cache shard poisoned");
        matches!(shard.map.get(key), Some(e) if e.generation == generation)
    }

    /// Inserts a value tagged with `generation`, evicting the
    /// least-recently-used entry of the target shard when full.
    pub fn insert(&self, key: K, value: V, generation: u64) {
        if !self.enabled() {
            return;
        }
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let stamp = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard {
            // O(shard) scan — shards are small by construction, and
            // eviction only triggers on inserts into a full shard.
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                shard.map.remove(&k);
                self.counters.evictions.inc();
            }
        }
        shard.map.insert(
            key,
            Entry {
                value,
                generation,
                stamp,
            },
        );
    }

    /// Live entries across all shards (stale ones included until touched).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn counters(&self) -> (u64, u64, u64) {
        let c = &self.counters;
        (c.hits.get(), c.misses.get(), c.evictions.get())
    }
}

/// The server's response cache plus its generation counter.
///
/// Runtime-only state: not persisted, and `Clone` yields a *fresh empty*
/// cache with the same capacity (cloning a server must never share
/// or copy cache contents — the clone revalidates from its own data).
pub struct ServerCaches {
    generation: AtomicU64,
    capacity: usize,
    /// Tenant name whose labeled registry series back the cache, if any.
    db_label: Option<String>,
    /// Encoded `ServerQuery` bytes → full response.
    pub responses: GenCache<Vec<u8>, Arc<ServerResponse>>,
}

impl ServerCaches {
    pub fn new(capacity: usize) -> Self {
        ServerCaches {
            generation: AtomicU64::new(0),
            capacity,
            db_label: None,
            responses: GenCache::new(capacity),
        }
    }

    /// Attaches a tenant label: the cache is rebuilt counting in the
    /// `{db="<name>"}` registry series, so its stats are scrapeable per db
    /// and a snapshot reads what the scrape does.
    pub fn set_db_label(&mut self, db: &str) {
        self.db_label = Some(db.to_owned());
        self.set_capacity(self.capacity);
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The current generation. Captured at query start; entries written
    /// under an older generation are never served.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Invalidates every cached entry by advancing the generation. Called
    /// by every mutation path (insert, delete, universe rebuild).
    pub fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Replaces the cache with a fresh one of the new capacity (generation
    /// and db label preserved; private counters restart from zero, a
    /// db-labelled instance keeps counting in its registry series).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        let counters = match &self.db_label {
            Some(db) => CacheCounters::registered(db),
            None => CacheCounters::default(),
        };
        self.responses = GenCache::counted(capacity, counters);
    }

    pub fn snapshot(&self) -> CacheStatsSnapshot {
        let (rh, rm, re) = self.responses.counters();
        CacheStatsSnapshot {
            generation: self.generation(),
            capacity: self.capacity as u64,
            response_hits: rh,
            response_misses: rm,
            response_evictions: re,
            response_entries: self.responses.len() as u64,
            ..CacheStatsSnapshot::default()
        }
    }
}

impl Default for ServerCaches {
    fn default() -> Self {
        ServerCaches::new(default_cache_entries())
    }
}

impl Clone for ServerCaches {
    fn clone(&self) -> Self {
        // The clone is a *new instance*: it gets a fresh privately counted
        // cache even if the original was db-labelled, so two instances
        // never share one tenant's registry series.
        let fresh = ServerCaches::new(self.capacity);
        fresh.generation.store(self.generation(), Ordering::Release);
        fresh
    }
}

impl std::fmt::Debug for ServerCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCaches")
            .field("stats", &self.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> GenCache<u32, String> {
        GenCache::new(cap)
    }

    #[test]
    fn hit_after_insert_same_generation() {
        let c = cache(16);
        c.insert(1, "a".into(), 0);
        assert_eq!(c.get(&1, 0), Some("a".into()));
        let (h, m, _) = c.counters();
        assert_eq!((h, m), (1, 0));
    }

    #[test]
    fn stale_generation_misses_and_drops() {
        let c = cache(16);
        c.insert(1, "a".into(), 0);
        assert_eq!(c.get(&1, 1), None, "bumped generation must miss");
        assert_eq!(c.len(), 0, "stale entry must be removed on sight");
        assert_eq!(c.get(&1, 0), None, "entry is gone even for the old gen");
    }

    #[test]
    fn zero_capacity_disables() {
        let c = cache(0);
        assert!(!c.enabled());
        c.insert(1, "a".into(), 0);
        assert_eq!(c.get(&1, 0), None);
        let (h, m, e) = c.counters();
        assert_eq!((h, m, e), (0, 0, 0), "disabled cache must not count");
    }

    #[test]
    fn lru_eviction_in_shard() {
        // Capacity 8 → per-shard 1: any two keys in the same shard evict.
        let c = cache(8);
        for k in 0..64u32 {
            c.insert(k, format!("{k}"), 0);
        }
        let total = c.len();
        assert!(total <= 8, "capacity exceeded: {total}");
        let (_, _, ev) = c.counters();
        assert_eq!(ev as usize, 64 - total);
    }

    #[test]
    fn lru_prefers_recently_touched() {
        // One shard of capacity 1: insert a, touch it, insert b (same
        // shard? not guaranteed) — instead verify against a single-shard
        // equivalent by using many inserts of two alternating keys.
        let c = cache(8);
        c.insert(1, "a".into(), 0);
        assert_eq!(c.get(&1, 0), Some("a".into()));
        // Re-inserting the same key must not evict anything.
        c.insert(1, "a2".into(), 0);
        let (_, _, ev) = c.counters();
        assert_eq!(ev, 0);
        assert_eq!(c.get(&1, 0), Some("a2".into()));
    }

    #[test]
    fn snapshot_counters() {
        let mut s = ServerCaches::new(4);
        assert!(s.enabled());
        s.responses.insert(vec![1, 2], Arc::new(resp()), 0);
        assert!(s.responses.get(&vec![1, 2], 0).is_some());
        assert!(s.responses.get(&vec![9], 0).is_none());
        let snap = s.snapshot();
        assert_eq!(snap.response_hits, 1);
        assert_eq!(snap.response_misses, 1);
        assert_eq!(snap.response_entries, 1);
        assert_eq!(snap.capacity, 4);

        s.bump_generation();
        assert_eq!(s.generation(), 1);
        s.set_capacity(0);
        assert!(!s.enabled());
        let snap = s.snapshot();
        assert_eq!(snap.generation, 1, "set_capacity keeps the generation");
        assert_eq!(snap.response_hits, 0, "set_capacity resets counters");
        // An unlabelled cache counts privately: nothing of it is scraped.
        let text = telemetry::render();
        assert!(!text.contains("\nexq_cache_response_hits_total "), "{text}");
    }

    #[test]
    fn db_labeled_counters_are_registry_backed() {
        let mut s = ServerCaches::new(4);
        s.set_db_label("cachetest-db");
        s.responses.insert(vec![1], Arc::new(resp()), 0);
        assert!(s.responses.get(&vec![1], 0).is_some());
        assert!(s.responses.get(&vec![2], 0).is_none());
        let snap = s.snapshot();
        assert_eq!((snap.response_hits, snap.response_misses), (1, 1));
        // The snapshot and the metrics scrape read the same atomics.
        let text = telemetry::render();
        assert!(
            text.contains("exq_cache_response_hits_total{db=\"cachetest-db\"} 1"),
            "labeled series missing from scrape: {text}"
        );
        // Unlike private counters, labelled ones survive capacity changes —
        // the registry series is the source of truth.
        s.set_capacity(8);
        let snap = s.snapshot();
        assert_eq!(snap.response_hits, 1);
        assert_eq!(snap.response_misses, 1);
    }

    #[test]
    fn clone_is_fresh_but_same_config() {
        let s = ServerCaches::new(4);
        s.responses.insert(vec![1], Arc::new(resp()), 0);
        s.bump_generation();
        let c = s.clone();
        assert_eq!(c.capacity(), 4);
        assert_eq!(c.generation(), 1);
        assert!(c.responses.is_empty(), "clone must not share entries");
    }

    fn resp() -> ServerResponse {
        ServerResponse {
            pruned_xml: String::new(),
            blocks: exq_crypto::SealedBlocks::new(),
            offsets: Vec::new(),
            translate_time: std::time::Duration::ZERO,
            process_time: std::time::Duration::ZERO,
            served_from_cache: false,
            spans: Vec::new(),
        }
    }
}
