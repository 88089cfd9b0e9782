//! Observer hooks: how the physical layer reports what it just did.
//!
//! This crate deliberately knows nothing about telemetry (or XML, or
//! encryption) — but the serving layers above need per-event visibility
//! into the storage engine: pool hits and misses, page-fault read
//! latency, evictions under pressure, epoch retries, WAL fsync cost,
//! replay time, compactions, checkpoint folds. Rather than threading
//! callbacks through every constructor, the crate exposes one
//! process-wide [`StoreObserver`] installed once (normally by
//! `exq-core`'s telemetry glue) via [`set_observer`]. Every hook has an
//! empty default body, and until an observer is installed the call sites
//! dispatch to a no-op — a store used stand-alone pays one atomic load
//! per event and nothing else.
//!
//! Hooks fire on the thread that did the work: a page fault reported
//! from a query's serving thread can be attributed to that query, while
//! the background checkpointer's folds land on its own thread. That
//! thread affinity is what makes the layer above's per-query resource
//! profiles exact instead of sampled.

use std::sync::OnceLock;

/// Storage-engine event sink. All methods default to no-ops so an
/// observer only implements what it cares about. Implementations must be
/// cheap and must never call back into the store.
pub trait StoreObserver: Sync + Send {
    /// A buffer-pool lookup found the page resident.
    fn pool_hit(&self) {}
    /// A buffer-pool lookup missed (a disk read follows).
    fn pool_miss(&self) {}
    /// A page was read from disk to satisfy a record read; `nanos` is the
    /// read latency (lock wait included — that *is* the stall the caller
    /// experienced).
    fn page_fault(&self, nanos: u64) {
        let _ = nanos;
    }
    /// The clock sweep evicted a frame to make room (pool at capacity).
    fn eviction(&self) {}
    /// A record read raced a checkpoint publish and retried.
    fn epoch_retry(&self) {}
    /// A WAL append committed: `bytes` framed bytes written, `nanos` for
    /// the write + fsync (the mutation's on-path durability cost).
    fn wal_fsync(&self, bytes: u64, nanos: u64) {
        let _ = (bytes, nanos);
    }
    /// A WAL file was scanned on open: `records` valid records found.
    fn wal_replay(&self, records: u64, nanos: u64) {
        let _ = (records, nanos);
    }
    /// The WAL was compacted after a checkpoint fold.
    fn wal_compaction(&self) {}
    /// A checkpoint committed, folding `pages_folded` rewritten pages.
    fn checkpoint(&self, pages_folded: u64, nanos: u64) {
        let _ = (pages_folded, nanos);
    }
    /// One scrub step finished: `scanned` pages CRC-verified against disk,
    /// `corrupt_records` records found with bytes on a corrupt page.
    fn scrub(&self, scanned: u64, corrupt_records: u64) {
        let _ = (scanned, corrupt_records);
    }
    /// The scrubber quarantined corrupt page `page`, which `records`
    /// records (the directory counting as one) have bytes on.
    fn scrub_corrupt(&self, page: u32, records: u64) {
        let _ = (page, records);
    }
}

struct Noop;
impl StoreObserver for Noop {}

static OBSERVER: OnceLock<&'static dyn StoreObserver> = OnceLock::new();

/// Installs the process-wide observer. First caller wins; later calls
/// return `false` and change nothing (so layered runtimes can install
/// idempotently from every store constructor).
pub fn set_observer(observer: &'static dyn StoreObserver) -> bool {
    OBSERVER.set(observer).is_ok()
}

/// The installed observer, or a no-op if none was installed.
pub(crate) fn obs() -> &'static dyn StoreObserver {
    static NOOP: Noop = Noop;
    match OBSERVER.get() {
        Some(o) => *o,
        None => &NOOP,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountingObserver {
        hits: AtomicU64,
    }

    impl StoreObserver for CountingObserver {
        fn pool_hit(&self) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn unset_observer_is_noop_and_first_install_wins() {
        // Before any install, hooks dispatch to the no-op.
        obs().pool_hit();
        obs().checkpoint(3, 125);

        static FIRST: CountingObserver = CountingObserver {
            hits: AtomicU64::new(0),
        };
        static SECOND: CountingObserver = CountingObserver {
            hits: AtomicU64::new(0),
        };
        let first_won = set_observer(&FIRST);
        // Whatever won (another test may have installed first within this
        // process), the second install must be refused.
        assert!(!set_observer(&SECOND));
        obs().pool_hit();
        if first_won {
            assert_eq!(FIRST.hits.load(Ordering::Relaxed), 1);
            assert_eq!(SECOND.hits.load(Ordering::Relaxed), 0);
        }
    }
}
