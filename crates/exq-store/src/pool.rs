//! The buffer pool: a bounded set of in-memory page frames with clock
//! (second-chance) eviction and pin guards.
//!
//! The pool is keyed by page id and holds each cached page's payload as an
//! `Arc<Vec<u8>>`. A hit hands out a [`PinnedPage`] cloning that `Arc`, so
//! eviction never invalidates bytes a reader is still assembling a record
//! from — the frame leaves the pool, the guard keeps the allocation alive.
//! That makes the pin protocol trivially deadlock-free: readers never block
//! eviction and eviction never blocks readers.
//!
//! Eviction is the classic clock sweep: every frame has a reference bit set
//! on hit; the hand clears bits until it finds one already clear and evicts
//! that frame. The budget is expressed in bytes and converted to a frame
//! count once the page size is known.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A pinned page: cheap to clone, keeps the payload alive independent of
/// the pool's eviction decisions.
#[derive(Debug, Clone, Default)]
pub struct PinnedPage {
    bytes: Arc<Vec<u8>>,
}

impl PinnedPage {
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// A pin on bytes no pool frame holds: a page read past the pool.
impl From<Vec<u8>> for PinnedPage {
    fn from(payload: Vec<u8>) -> PinnedPage {
        PinnedPage {
            bytes: Arc::new(payload),
        }
    }
}

impl std::ops::Deref for PinnedPage {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// Monotonic pool counters, readable without the frame lock.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A point-in-time snapshot of pool behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Frames currently resident.
    pub resident_pages: u64,
    /// Maximum frames the budget allows.
    pub capacity_pages: u64,
}

#[derive(Debug)]
struct Frame {
    page: u32,
    bytes: Arc<Vec<u8>>,
    referenced: bool,
}

#[derive(Debug, Default)]
struct Frames {
    /// Clock order; the hand is an index into this ring.
    ring: Vec<Frame>,
    hand: usize,
    /// page id -> index in `ring`.
    index: HashMap<u32, usize>,
    /// Invalidation stamp: bumped by every [`BufferPool::invalidate`] /
    /// [`BufferPool::clear`]. Readers that fetched a page from disk without
    /// holding the store's write lock pass the stamp they saw *before* the
    /// read into [`BufferPool::insert_if`]; a stamp mismatch means an
    /// invalidation raced the read and the bytes must not be cached.
    stamp: u64,
}

/// The pool itself. Internally synchronized; shared via `Arc`.
#[derive(Debug)]
pub struct BufferPool {
    frames: Mutex<Frames>,
    capacity: usize,
    counters: Counters,
}

impl BufferPool {
    /// Creates a pool holding at most `budget_bytes / page_size` frames
    /// (minimum 4, so tiny test budgets still let multi-page records
    /// assemble while exercising eviction).
    pub fn with_budget(budget_bytes: usize, page_size: usize) -> BufferPool {
        let capacity = (budget_bytes / page_size.max(1)).max(4);
        BufferPool {
            frames: Mutex::new(Frames::default()),
            capacity,
            counters: Counters::default(),
        }
    }

    /// Looks up a page, returning a pin on hit.
    pub fn get(&self, page: u32) -> Option<PinnedPage> {
        let mut f = self.frames.lock().unwrap();
        if let Some(&i) = f.index.get(&page) {
            f.ring[i].referenced = true;
            let bytes = Arc::clone(&f.ring[i].bytes);
            drop(f);
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            Some(PinnedPage { bytes })
        } else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// The current invalidation stamp. Capture it *before* reading a page
    /// from disk outside the store's write lock, then cache the bytes with
    /// [`insert_if`](Self::insert_if).
    pub fn stamp(&self) -> u64 {
        self.frames.lock().unwrap().stamp
    }

    /// Inserts a page only when no invalidation happened since `stamp` was
    /// captured — otherwise the bytes may predate a checkpoint's rewrite of
    /// that page and caching them would serve stale data to later readers.
    /// Always returns a pin on the bytes (the caller's copy is still a
    /// valid read of the state it looked the page up in), and whether the
    /// clock sweep evicted a frame to make room for them.
    pub fn insert_if(&self, stamp: u64, page: u32, payload: Vec<u8>) -> (PinnedPage, bool) {
        let mut f = self.frames.lock().unwrap();
        if f.stamp != stamp {
            return (payload.into(), false);
        }
        let bytes = Arc::new(payload);
        if let Some(&i) = f.index.get(&page) {
            f.ring[i].bytes = Arc::clone(&bytes);
            f.ring[i].referenced = true;
            return (PinnedPage { bytes }, false);
        }
        if f.ring.len() >= self.capacity {
            // Clock sweep: clear reference bits until a clear frame turns
            // up. Bounded: after one full lap every bit is clear.
            loop {
                let hand = f.hand;
                if f.ring[hand].referenced {
                    f.ring[hand].referenced = false;
                    f.hand = (hand + 1) % f.ring.len();
                    continue;
                }
                let evicted = f.ring[hand].page;
                f.index.remove(&evicted);
                f.ring[hand] = Frame {
                    page,
                    bytes: Arc::clone(&bytes),
                    referenced: true,
                };
                f.index.insert(page, hand);
                f.hand = (hand + 1) % f.ring.len();
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                return (PinnedPage { bytes }, true);
            }
        }
        let i = f.ring.len();
        f.ring.push(Frame {
            page,
            bytes: Arc::clone(&bytes),
            referenced: true,
        });
        f.index.insert(page, i);
        (PinnedPage { bytes }, false)
    }

    /// Drops any cached copies of the given pages. Used by checkpointing:
    /// free pages rewritten with new content must not serve stale frames.
    pub fn invalidate(&self, pages: &[u32]) {
        let mut f = self.frames.lock().unwrap();
        f.stamp += 1;
        for &p in pages {
            if let Some(i) = f.index.remove(&p) {
                // Swap-remove keeps the ring dense; fix the moved frame's
                // index entry and keep the hand in range.
                f.ring.swap_remove(i);
                if i < f.ring.len() {
                    let moved = f.ring[i].page;
                    f.index.insert(moved, i);
                }
                if !f.ring.is_empty() {
                    f.hand %= f.ring.len();
                } else {
                    f.hand = 0;
                }
            }
        }
    }

    /// Drops every cached frame.
    pub fn clear(&self) {
        let mut f = self.frames.lock().unwrap();
        f.stamp += 1;
        f.ring.clear();
        f.index.clear();
        f.hand = 0;
    }

    pub fn stats(&self) -> PoolStats {
        let resident = self.frames.lock().unwrap().ring.len() as u64;
        PoolStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            resident_pages: resident,
            capacity_pages: self.capacity as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Caches a page no invalidation can have raced.
    fn insert(pool: &BufferPool, page: u32, payload: Vec<u8>) -> (PinnedPage, bool) {
        pool.insert_if(pool.stamp(), page, payload)
    }

    #[test]
    fn hit_miss_and_eviction() {
        // Budget for exactly 4 frames.
        let pool = BufferPool::with_budget(4 * 128, 128);
        for p in 0..4u32 {
            assert!(pool.get(p).is_none());
            assert!(!insert(&pool, p, vec![p as u8; 8]).1, "room left");
        }
        assert_eq!(pool.stats().resident_pages, 4);
        // Fifth insert forces an eviction: every frame's bit is set, so a
        // full sweep clears them all and evicts the first frame (page 0).
        assert!(insert(&pool, 4, vec![4; 8]).1, "the insert says it evicted");
        let s = pool.stats();
        assert_eq!(s.resident_pages, 4);
        assert_eq!(s.evictions, 1);
        assert!(pool.get(0).is_none());
        // Re-reference page 1, then insert again: the clock skips the
        // referenced frame (second chance) and evicts page 2 instead.
        assert!(pool.get(1).is_some());
        insert(&pool, 5, vec![5; 8]);
        assert!(pool.get(1).is_some());
        assert!(pool.get(2).is_none());
    }

    #[test]
    fn pins_survive_eviction() {
        let pool = BufferPool::with_budget(4 * 128, 128);
        let (pin, _) = insert(&pool, 7, vec![42; 16]);
        // Evict everything.
        pool.clear();
        assert!(pool.get(7).is_none());
        // The pin still holds the bytes.
        assert_eq!(pin.bytes(), &[42u8; 16][..]);
    }

    #[test]
    fn stamped_insert_refuses_after_invalidation() {
        let pool = BufferPool::with_budget(8 * 128, 128);
        let stamp = pool.stamp();
        let (pin, _) = pool.insert_if(stamp, 1, vec![1]);
        assert_eq!(pin.bytes(), &[1][..]);
        assert!(pool.get(1).is_some());
        // A read that raced an invalidation: the returned pin is still a
        // valid snapshot read, but the frame must not be cached.
        let stale_stamp = pool.stamp();
        pool.invalidate(&[1]);
        let (pin, _) = pool.insert_if(stale_stamp, 1, vec![9]);
        assert_eq!(pin.bytes(), &[9][..]);
        assert!(pool.get(1).is_none());
        // With a fresh stamp the insert caches again.
        let (pin, _) = insert(&pool, 1, vec![7]);
        assert_eq!(pin.bytes(), &[7][..]);
        assert!(pool.get(1).is_some());
    }

    #[test]
    fn invalidate_removes_specific_pages() {
        let pool = BufferPool::with_budget(8 * 128, 128);
        for p in 0..6u32 {
            insert(&pool, p, vec![p as u8]);
        }
        pool.invalidate(&[1, 3, 5]);
        assert!(pool.get(1).is_none());
        assert!(pool.get(3).is_none());
        assert!(pool.get(5).is_none());
        assert!(pool.get(0).is_some());
        assert!(pool.get(2).is_some());
        assert!(pool.get(4).is_some());
    }
}
