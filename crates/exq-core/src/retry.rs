//! Client-side retry with reconnect, backoff, and at-most-once mutations.
//!
//! [`Retry`] wraps any [`Transport`] and runs one loop over a window of
//! requests; a single request is a window of one. Each logical request
//! keeps the id it was minted with on every resubmission; the server's
//! replay table keys on it, so a mutation whose reply was lost in flight is
//! answered from the table on replay instead of being applied twice.
//! Read-only requests are idempotent and simply re-run.
//!
//! A round sends every request still unanswered, through the wrapped
//! link's own window (a TCP link writes it whole before reading). What
//! retries: server `Busy` replies (honoring the `retry_after_ms` hint),
//! transient error frames of the codec/transport classes, and link
//! failures. Only a failed link is re-dialled before the next round; a link
//! that answered `Busy` is kept. Everything else — query errors, decrypt
//! failures — is deterministic: an error frame is that request's reply, an
//! error from the link itself surfaces at once. Backoff is exponential with
//! seeded jitter ([`crate::fault::SplitMix64`]), so tests are reproducible.

use crate::codec::Message;
use crate::error::CoreError;
use crate::fault::SplitMix64;
use crate::telemetry::{self, Counter};
use crate::transport::{LinkStats, Transport};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

struct RetryMetrics {
    attempts: Arc<Counter>,
    reconnects: Arc<Counter>,
    busy: Arc<Counter>,
}

fn retry_metrics() -> &'static RetryMetrics {
    static METRICS: OnceLock<RetryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| RetryMetrics {
        attempts: telemetry::counter("exq_retry_attempts_total"),
        reconnects: telemetry::counter("exq_retry_reconnects_total"),
        busy: telemetry::counter("exq_retry_busy_total"),
    })
}

/// Knobs for [`Retry`].
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Rounds per window (first try included). `1` disables retrying.
    pub max_attempts: u32,
    /// Sleep before the second round; doubles each further round.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for backoff jitter (and nothing else): fixed seed → fixed
    /// retry timing, which the chaos suite relies on.
    pub jitter_seed: u64,
    /// Ping before each retry round to tell a dead server (fail fast, don't
    /// burn the budget waiting on big-query timeouts) from a slow one.
    pub ping_before_retry: bool,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x5EED,
            ping_before_retry: false,
        }
    }
}

/// Cumulative counts of retry activity on one [`Retry`] wrapper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Rounds beyond the first, across all windows.
    pub retries: u64,
    /// Reconnects performed between rounds.
    pub reconnects: u64,
    /// `Busy` replies honored with backoff.
    pub busy: u64,
    /// Windows that exhausted the budget and surfaced an error.
    pub exhausted: u64,
}

/// The retrying transport wrapper. See the module docs for semantics.
pub struct Retry<T: Transport> {
    inner: T,
    config: RetryConfig,
    rng: SplitMix64,
    stats: RetryStats,
}

impl<T: Transport> Retry<T> {
    pub fn new(inner: T, config: RetryConfig) -> Retry<T> {
        let rng = SplitMix64::new(config.jitter_seed);
        Retry {
            inner,
            config,
            rng,
            stats: RetryStats::default(),
        }
    }

    /// Default config.
    pub fn with_defaults(inner: T) -> Retry<T> {
        Retry::new(inner, RetryConfig::default())
    }

    /// Retry activity so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// The wrapped transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Exponential backoff with full jitter, floored at 1ms so round
    /// pacing is real even for tiny bases.
    fn backoff(&mut self, attempt: u32, floor: Duration) -> Duration {
        let base = self.config.base_backoff.max(Duration::from_millis(1));
        let exp = base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.config.max_backoff).max(floor);
        let jitter = self.rng.next_f64() * 0.5 + 0.5; // [0.5, 1.0)
        capped.mul_f64(jitter)
    }
}

/// Whether a roundtrip error means the link failed. Transport and codec
/// failures may be the link's fault; everything else is deterministic.
fn transient_error(err: &CoreError) -> bool {
    matches!(err, CoreError::Transport(_) | CoreError::Codec(_))
}

impl<T: Transport> Transport for Retry<T> {
    fn roundtrip_as(&mut self, req_id: u64, req: &Message) -> Result<Message, CoreError> {
        let mut reply = [None];
        self.roundtrip_window(&[(req_id, req)], &mut reply)?;
        let [reply] = reply;
        Ok(reply.expect("a window that returns Ok fills every slot"))
    }

    fn roundtrip_window(
        &mut self,
        window: &[(u64, &Message)],
        replies: &mut [Option<Message>],
    ) -> Result<(), CoreError> {
        let attempts = self.config.max_attempts.max(1);
        let mut last_err: Option<CoreError> = None;
        let mut link_failed = false;
        // Pacing floor: the strongest `Busy` hint of the last round.
        let mut busy_floor = Duration::ZERO;
        for attempt in 0..attempts {
            let pending: Vec<usize> = (0..window.len())
                .filter(|&i| replies[i].is_none())
                .collect();
            if pending.is_empty() {
                return Ok(());
            }
            if attempt > 0 {
                self.stats.retries += 1;
                retry_metrics().attempts.inc();
                let pause = self.backoff(attempt - 1, std::mem::take(&mut busy_floor));
                thread::sleep(pause);
                if link_failed {
                    // Replies owed on the old link died with it; the ids are
                    // stable, so resent mutations meet the replay table.
                    self.stats.reconnects += 1;
                    retry_metrics().reconnects.inc();
                    if let Err(e) = self.inner.reconnect() {
                        last_err = Some(e);
                        continue;
                    }
                    link_failed = false;
                }
                // Dead server ⇒ ping fails fast and the round is spent on
                // backoff, not on a long query timeout.
                if self.config.ping_before_retry {
                    if let Err(e) = self.inner.ping() {
                        last_err = Some(e);
                        link_failed = true;
                        continue;
                    }
                }
            }
            let round: Vec<(u64, &Message)> = pending.iter().map(|&i| window[i]).collect();
            let mut got = vec![None; round.len()];
            let outcome = self.inner.roundtrip_window(&round, &mut got);
            for (&i, reply) in pending.iter().zip(got) {
                match reply {
                    None => {}
                    Some(Message::Busy { retry_after_ms }) => {
                        self.stats.busy += 1;
                        retry_metrics().busy.inc();
                        // Honor the server's pacing hint as a floor.
                        let hint = Duration::from_millis(retry_after_ms as u64);
                        busy_floor = busy_floor.max(hint);
                        last_err = Some(CoreError::Transport(format!(
                            "server busy after {attempts} attempts"
                        )));
                    }
                    // Wire codes 7 and 8 mirror `CoreError::Codec` /
                    // `CoreError::Transport`: the frame did not arrive
                    // intact, and the server closes a connection after one.
                    // Code 10 (`CoreError::Unavailable`) carries a
                    // retry-after hint but is deliberately NOT transient: the
                    // db is degraded after a storage fault and burning the
                    // budget hammering it cannot help — it is the reply, and
                    // the caller decides when to probe again.
                    Some(Message::Error(e)) if e.code == 7 || e.code == 8 => {
                        last_err = Some(e.into_core());
                        link_failed = true;
                    }
                    Some(reply) => replies[i] = Some(reply),
                }
            }
            match outcome {
                Ok(()) => {}
                Err(e) if transient_error(&e) => {
                    last_err = Some(e);
                    link_failed = true;
                }
                Err(e) => return Err(e),
            }
        }
        if replies.iter().all(Option::is_some) {
            return Ok(());
        }
        self.stats.exhausted += 1;
        Err(last_err.unwrap_or_else(|| {
            CoreError::Transport(format!("retry budget exhausted after {attempts} attempts"))
        }))
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }

    fn reconnect(&mut self) -> Result<(), CoreError> {
        self.inner.reconnect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A scripted fake transport: a queue of outcomes per roundtrip.
    struct Scripted {
        outcomes: RefCell<Vec<Result<Message, CoreError>>>,
        seen_ids: Vec<u64>,
        reconnects: u64,
        stats: LinkStats,
    }

    impl Scripted {
        fn new(mut outcomes: Vec<Result<Message, CoreError>>) -> Scripted {
            outcomes.reverse(); // pop from the back in order
            Scripted {
                outcomes: RefCell::new(outcomes),
                seen_ids: Vec::new(),
                reconnects: 0,
                stats: LinkStats::default(),
            }
        }
    }

    impl Transport for Scripted {
        fn roundtrip_as(&mut self, req_id: u64, _req: &Message) -> Result<Message, CoreError> {
            self.seen_ids.push(req_id);
            self.stats.requests += 1;
            self.outcomes
                .borrow_mut()
                .pop()
                .unwrap_or(Ok(Message::Pong))
        }

        fn stats(&self) -> LinkStats {
            self.stats
        }

        fn reconnect(&mut self) -> Result<(), CoreError> {
            self.reconnects += 1;
            Ok(())
        }
    }

    fn fast() -> RetryConfig {
        RetryConfig {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 7,
            ping_before_retry: false,
        }
    }

    #[test]
    fn transient_failure_retries_with_stable_id() {
        let inner = Scripted::new(vec![
            Err(CoreError::Transport("boom".into())),
            Ok(Message::InsertOk),
        ]);
        let mut retry = Retry::new(inner, fast());
        let reply = retry.roundtrip(&Message::Ping).unwrap();
        assert_eq!(reply, Message::InsertOk);
        let inner = retry.into_inner();
        assert_eq!(inner.seen_ids.len(), 2);
        // Both attempts carried the same nonzero request id.
        assert_ne!(inner.seen_ids[0], 0);
        assert_eq!(inner.seen_ids[0], inner.seen_ids[1]);
        assert_eq!(inner.reconnects, 1);
    }

    #[test]
    fn distinct_logical_requests_get_distinct_ids() {
        let inner = Scripted::new(vec![Ok(Message::Pong), Ok(Message::Pong)]);
        let mut retry = Retry::new(inner, fast());
        retry.roundtrip(&Message::Ping).unwrap();
        retry.roundtrip(&Message::Ping).unwrap();
        let inner = retry.into_inner();
        assert_ne!(inner.seen_ids[0], inner.seen_ids[1]);
    }

    #[test]
    fn busy_reply_is_retried_then_succeeds() {
        let inner = Scripted::new(vec![
            Ok(Message::Busy { retry_after_ms: 1 }),
            Ok(Message::Pong),
        ]);
        let mut retry = Retry::new(inner, fast());
        assert_eq!(retry.roundtrip(&Message::Ping).unwrap(), Message::Pong);
        assert_eq!(retry.retry_stats().busy, 1);
        // A link that answered `Busy` is alive: it is not re-dialled.
        assert_eq!(retry.retry_stats().reconnects, 0);
        assert_eq!(retry.into_inner().reconnects, 0);
    }

    /// After `Busy` or a failed link only the unanswered requests go out
    /// again, each under the id it was first sent with.
    #[test]
    fn window_resends_only_unanswered_requests_under_their_ids() {
        let inner = Scripted::new(vec![
            Ok(Message::InsertOk),
            Ok(Message::Busy { retry_after_ms: 1 }),
            Ok(Message::Pong),
            Err(CoreError::Transport("cut".into())),
            Ok(Message::Pong),
        ]);
        let mut retry = Retry::new(inner, fast());
        let reqs = [Message::Ping, Message::Ping, Message::Ping, Message::Ping];
        let window: Vec<(u64, &Message)> = reqs
            .iter()
            .zip([11, 12, 13, 14])
            .map(|(r, id)| (id, r))
            .collect();
        let mut replies = vec![None; reqs.len()];
        retry.roundtrip_window(&window, &mut replies).unwrap();
        assert_eq!(
            replies,
            [
                Some(Message::InsertOk),
                Some(Message::Pong),
                Some(Message::Pong),
                Some(Message::Pong)
            ]
        );
        let inner = retry.into_inner();
        // Round one: 11 answered, 12 busy, 13 answered, 14 lost with the
        // link, which is re-dialled once. Round two: 12 and 14 only.
        assert_eq!(inner.seen_ids, [11, 12, 13, 14, 12, 14]);
        assert_eq!(inner.reconnects, 1);
    }

    #[test]
    fn deterministic_errors_do_not_retry() {
        let inner = Scripted::new(vec![Err(CoreError::Query("no such tag".into()))]);
        let mut retry = Retry::new(inner, fast());
        let err = retry.roundtrip(&Message::Ping).unwrap_err();
        assert_eq!(err, CoreError::Query("no such tag".into()));
        assert_eq!(retry.retry_stats().retries, 0);
        assert_eq!(retry.into_inner().seen_ids.len(), 1);
    }

    #[test]
    fn unavailable_reply_is_not_retried() {
        use crate::codec::WireError;
        let degraded = Message::Error(WireError::from_core(&CoreError::Unavailable {
            retry_after_ms: 250,
            reason: "degraded: wal append failed".into(),
        }));
        let inner = Scripted::new(vec![Ok(degraded.clone()), Ok(Message::Pong)]);
        let mut retry = Retry::new(inner, fast());
        // The error frame surfaces on the first attempt — no backoff loop.
        assert_eq!(retry.roundtrip(&Message::Ping).unwrap(), degraded);
        assert_eq!(retry.retry_stats().retries, 0);
        assert_eq!(retry.into_inner().seen_ids.len(), 1);
    }

    #[test]
    fn budget_exhaustion_surfaces_last_error() {
        let inner = Scripted::new(vec![
            Err(CoreError::Transport("a".into())),
            Err(CoreError::Transport("b".into())),
            Err(CoreError::Transport("c".into())),
        ]);
        let mut retry = Retry::new(inner, fast());
        let err = retry.roundtrip(&Message::Ping).unwrap_err();
        assert_eq!(err, CoreError::Transport("c".into()));
        assert_eq!(retry.retry_stats().exhausted, 1);
        assert_eq!(retry.retry_stats().retries, 2);
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let mk = || Retry::new(Scripted::new(vec![]), fast());
        let mut a = mk();
        let mut b = mk();
        for attempt in 0..4 {
            assert_eq!(
                a.backoff(attempt, Duration::ZERO),
                b.backoff(attempt, Duration::ZERO)
            );
        }
    }
}
