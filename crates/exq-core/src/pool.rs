//! Scoped fork/join parallelism for the client's block decrypt.
//!
//! The paper's query-answering cost is dominated by the client decrypting
//! and re-parsing every shipped block (§6.4, §7.2). Opening blocks is
//! independent, CPU-bound work, but a block is the wrong unit to hand a
//! thread: `exq_crypto::open_blocks` opens sixteen at a pass into one
//! buffer, so the client cuts a reply into one *run* of blocks per worker
//! (never fewer than a few hundred blocks, or the spawn costs more than the
//! run) and a thread's unit of work is a run. This module provides the one
//! primitive that needs: an order-preserving [`parallel_map`] built on
//! `std::thread::scope` (no external crates, no long-lived pool, nothing to
//! shut down). The server has no use for it — it matches a query over
//! whole sorted lists (see `crate::server`), and fanning that out never
//! paid: server time rose from 4.9 to 7.0 ms between 1 and 8 threads the
//! last time it was swept.
//!
//! Threads are a *knob*, not ambient state: a [`crate::Client`] holds a
//! thread count (resolved once via [`default_threads`], overridable per
//! client and with the `EXQ_THREADS` environment variable) and passes it
//! in. A count of 1 short-circuits to a plain serial loop, so the serial
//! path stays the reference semantics and the parallel path must match it
//! bit for bit (asserted by `tests/equivalence.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "EXQ_THREADS";

/// Items below this count are not worth a thread spawn: scoped spawn +
/// join costs tens of microseconds, which only pays off when each item
/// carries real work (a run of blocks to open).
pub const MIN_PARALLEL_ITEMS: usize = 2;

/// The default degree of parallelism: `EXQ_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism, floored at 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a configured thread count: `0` means "auto" (the
/// [`default_threads`] resolution), anything else is taken literally.
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        default_threads()
    } else {
        configured
    }
}

/// Applies `f` to every item, returning results in input order.
///
/// With `threads <= 1` or fewer than [`MIN_PARALLEL_ITEMS`] items this is a
/// plain serial loop. Otherwise `min(threads, len)` scoped workers pull
/// chunks of indices off a shared atomic counter (dynamic scheduling, so
/// uneven item costs balance) and write each result into its input slot —
/// the output is deterministic regardless of scheduling.
///
/// Panics in `f` propagate: a panicking worker poisons the result mutex and
/// the scope re-raises on join, so no partial output can escape.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n);
    if workers <= 1 || n < MIN_PARALLEL_ITEMS {
        return items.iter().map(&f).collect();
    }
    // Chunked dynamic scheduling: big enough to amortize the atomic,
    // small enough that stragglers rebalance.
    let chunk = (n / (workers * 8)).max(1);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    return;
                }
                let end = (start + chunk).min(n);
                // Compute outside the lock; the lock only orders the
                // (cheap) slot writes.
                let produced: Vec<(usize, R)> = (start..end).map(|i| (i, f(&items[i]))).collect();
                let mut guard = slots.lock().expect("worker panicked");
                for (i, r) in produced {
                    guard[i] = Some(r);
                }
            });
        }
    });

    slots
        .into_inner()
        .expect("worker panicked")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = parallel_map(threads, &items, |&x| x * 3 + 1);
            assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_degenerate_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(8, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map(8, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn resolve_zero_means_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn uneven_work_still_deterministic() {
        // Items with wildly different costs exercise the dynamic scheduler.
        let items: Vec<u64> = (0..64).collect();
        let slow = |&x: &u64| {
            let spin = if x % 13 == 0 { 20_000 } else { 10 };
            let mut acc = x;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let serial: Vec<u64> = items.iter().map(slow).collect();
        assert_eq!(parallel_map(4, &items, slow), serial);
    }
}
