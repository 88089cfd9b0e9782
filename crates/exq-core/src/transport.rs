//! The client side of the link: how encoded frames leave a client and how
//! one decoded request is answered.
//!
//! [`Transport`] abstracts the link. Two implementations:
//!
//! * [`InProcess`] — wraps a direct `Server` reference but still pushes
//!   every request and response through the frame codec, so byte accounting
//!   and decode hardening are identical to the networked path;
//! * [`TcpTransport`] — a real socket (std only, no async runtime), with
//!   connect retry + exponential backoff and per-request I/O timeouts. It
//!   pipelines: a window of requests is written before any reply is read.
//!
//! Every request crosses either link under a request id minted once from
//! the process-wide source trace ids use, and its reply is taken only under
//! an id the link is still waiting for.
//!
//! The request dispatch both ends share lives here too:
//! [`answer_request`] / [`apply_request`] map one decoded request onto a
//! [`Server`], and a [`ReplayTable`] makes a mutation replayed by the
//! client-side retry layer ([`crate::retry::Retry`]) apply at most once.
//! The server side — listener, admission, shedding, worker dispatch — is
//! [`crate::serve`] and [`crate::evloop`].
//!
//! The peer is untrusted at the framing layer: decode errors never panic,
//! and a reply that fails to decode surfaces as a typed error.

use crate::codec::{
    frame_len_of, DecodedFrame, Message, WireError, FRAME_HEADER_LEN, PROTOCOL_VERSION,
};
use crate::error::CoreError;
use crate::server::Server;
use crate::telemetry::{self, Counter};
use crate::update::{DeleteOutcome, InsertDelta, InsertionSlot};
use crate::wire::{ServerQuery, ServerResponse};
use exq_crypto::SealedBlock;
use exq_index::dsi::Interval;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

// The serve side moved to `crate::serve`; these names stay reachable here
// because the perf ledger (`ledger/`, its own workspace, frozen by
// BENCHMARK.json) and the single-database call sites import them from
// `exq_core::transport`.
pub use crate::serve::{serve, ServeConfig, ServeHandle};

/// Registry handles for wire-traffic counters, resolved once — the
/// steady-state cost per frame is three relaxed atomic adds.
struct WireMetrics {
    requests: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
}

fn wire_metrics() -> &'static WireMetrics {
    static METRICS: OnceLock<WireMetrics> = OnceLock::new();
    METRICS.get_or_init(|| WireMetrics {
        requests: telemetry::counter("exq_wire_requests_total"),
        bytes_sent: telemetry::counter("exq_wire_bytes_sent_total"),
        bytes_received: telemetry::counter("exq_wire_bytes_received_total"),
    })
}

/// Exact byte accounting for one transport: every frame that crossed the
/// link (or would have, for [`InProcess`]), measured in encoded bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    pub requests: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

impl LinkStats {
    /// Traffic since an earlier snapshot.
    pub fn since(&self, earlier: &LinkStats) -> LinkStats {
        LinkStats {
            requests: self.requests - earlier.requests,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
        }
    }
}

/// A client-side link to a server.
///
/// Every request goes out under a request id and its reply must come back
/// under the same one. [`Transport::roundtrip_as`] moves one request under
/// the caller's id and [`Transport::roundtrip_window`] a window of them;
/// [`Transport::roundtrip`] and [`Transport::roundtrip_many`] mint a fresh
/// nonzero id per logical request. The typed helpers wrap `roundtrip` with
/// request construction and response matching. Implementations must keep
/// [`LinkStats`] exact: encoded frame lengths, nothing estimated.
pub trait Transport {
    /// Sends one request under `req_id` and returns the raw response
    /// message (which may be an error frame — the typed helpers convert
    /// those to `Err`). The retry layer resends a logical request under its
    /// first id, so the server's [`ReplayTable`] applies a mutation once.
    fn roundtrip_as(&mut self, req_id: u64, req: &Message) -> Result<Message, CoreError>;

    /// Cumulative traffic over this transport.
    fn stats(&self) -> LinkStats;

    /// Sends every `(request id, request)` of `window` and stores each
    /// reply in the same slot of `replies`. A failure ends the window: the
    /// replies read before it stay in their slots and the error is
    /// returned. The default sends one request after another.
    fn roundtrip_window(
        &mut self,
        window: &[(u64, &Message)],
        replies: &mut [Option<Message>],
    ) -> Result<(), CoreError> {
        for (&(req_id, req), slot) in window.iter().zip(replies) {
            *slot = Some(self.roundtrip_as(req_id, req)?);
        }
        Ok(())
    }

    /// Drops the current link and establishes a fresh one; cumulative
    /// [`LinkStats`] survive. The retry layer calls it after the link
    /// failed. A link with no connection to lose keeps this no-op default.
    fn reconnect(&mut self) -> Result<(), CoreError> {
        Ok(())
    }

    /// Sends one request under a fresh id.
    fn roundtrip(&mut self, req: &Message) -> Result<Message, CoreError> {
        self.roundtrip_as(telemetry::fresh_id(), req)
    }

    /// Sends every request under its own fresh id, as one window, and
    /// returns the replies in request order.
    fn roundtrip_many(&mut self, reqs: &[Message]) -> Result<Vec<Message>, CoreError> {
        let window: Vec<(u64, &Message)> = reqs
            .iter()
            .map(|req| (telemetry::fresh_id(), req))
            .collect();
        let mut replies = vec![None; reqs.len()];
        self.roundtrip_window(&window, &mut replies)?;
        Ok(replies
            .into_iter()
            .map(|reply| reply.expect("a window that returns Ok fills every slot"))
            .collect())
    }

    /// Liveness probe: one `Ping`/`Pong` roundtrip, returning its duration.
    /// The retry layer uses this before a retry round to tell a dead server
    /// (ping fails) from a slow one (ping answers while a big query would
    /// not have).
    fn ping(&mut self) -> Result<Duration, CoreError> {
        let started = Instant::now();
        match self.roundtrip(&Message::Ping)? {
            Message::Pong => Ok(started.elapsed()),
            other => Err(unexpected("Pong", other)),
        }
    }

    /// Evaluate a translated query. Under an active trace, the roundtrip is
    /// a span and the server's returned spans are stitched in beneath it.
    fn send_query(&mut self, q: &ServerQuery) -> Result<ServerResponse, CoreError> {
        let guard = telemetry::span("wire.roundtrip");
        match self.roundtrip(&Message::Query(q.clone()))? {
            Message::Answer(mut r) => {
                let spans = std::mem::take(&mut r.spans);
                telemetry::adopt_spans(&spans, guard.id());
                Ok(r)
            }
            other => Err(unexpected("Answer", other)),
        }
    }

    /// Ship the whole hosted database (naive baseline).
    fn send_naive(&mut self) -> Result<ServerResponse, CoreError> {
        let guard = telemetry::span("wire.roundtrip");
        match self.roundtrip(&Message::NaiveQuery)? {
            Message::Answer(mut r) => {
                let spans = std::mem::take(&mut r.spans);
                telemetry::adopt_spans(&spans, guard.id());
                Ok(r)
            }
            other => Err(unexpected("Answer", other)),
        }
    }

    /// Fetch one sealed block.
    fn fetch_block(&mut self, id: u32) -> Result<Option<SealedBlock>, CoreError> {
        match self.roundtrip(&Message::FetchBlock(id))? {
            Message::Block(b) => Ok(b),
            other => Err(unexpected("Block", other)),
        }
    }

    /// Minimum or maximum ciphertext under an encrypted attribute.
    fn value_extreme(
        &mut self,
        attr_key: &str,
        max: bool,
    ) -> Result<Option<(u128, u32)>, CoreError> {
        let req = Message::ValueExtreme {
            attr_key: attr_key.to_owned(),
            max,
        };
        match self.roundtrip(&req)? {
            Message::Extreme(e) => Ok(e),
            other => Err(unexpected("Extreme", other)),
        }
    }

    /// Intervals matching a translated query (update path).
    fn locate(&mut self, q: &ServerQuery) -> Result<Vec<Interval>, CoreError> {
        match self.roundtrip(&Message::Locate(q.clone()))? {
            Message::Intervals(ivs) => Ok(ivs),
            other => Err(unexpected("Intervals", other)),
        }
    }

    /// Request an insertion slot under a parent interval.
    fn insertion_slot(&mut self, parent: Interval) -> Result<InsertionSlot, CoreError> {
        match self.roundtrip(&Message::InsertionSlotReq(parent))? {
            Message::Slot(s) => Ok(s),
            other => Err(unexpected("Slot", other)),
        }
    }

    /// Apply a prepared insertion.
    fn apply_insert(&mut self, delta: &InsertDelta) -> Result<(), CoreError> {
        match self.roundtrip(&Message::ApplyInsert(delta.clone()))? {
            Message::InsertOk => Ok(()),
            other => Err(unexpected("InsertOk", other)),
        }
    }

    /// Delete all subtrees matching a translated query.
    fn delete_where(&mut self, q: &ServerQuery) -> Result<DeleteOutcome, CoreError> {
        match self.roundtrip(&Message::DeleteWhere(q.clone()))? {
            Message::Deleted(outcome) => Ok(outcome),
            other => Err(unexpected("Deleted", other)),
        }
    }

    /// The server's metrics registry as Prometheus-style text.
    fn metrics_text(&mut self) -> Result<String, CoreError> {
        match self.roundtrip(&Message::MetricsReq)? {
            Message::MetricsText(text) => Ok(text),
            other => Err(unexpected("MetricsText", other)),
        }
    }
}

/// Error frames become their carried error; everything else is a protocol
/// violation.
fn unexpected(want: &str, got: Message) -> CoreError {
    match got {
        Message::Error(e) => e.into_core(),
        other => CoreError::Transport(format!(
            "expected {want} response, got message type {:#04x}",
            other.msg_type()
        )),
    }
}

// --------------------------------------------------------------- dispatch --

/// Answers a read-style request against a shared server. Mutating requests
/// are rejected (the caller must hold exclusive access for those).
pub fn answer_request(server: &Server, req: &Message) -> Result<Message, CoreError> {
    match req {
        Message::Query(q) => server.answer(q).map(Message::Answer),
        Message::NaiveQuery => server.answer_naive().map(Message::Answer),
        Message::FetchBlock(id) => server.fetch_block(*id).map(Message::Block),
        Message::ValueExtreme { attr_key, max } => {
            Ok(Message::Extreme(server.value_extreme(attr_key, *max)))
        }
        Message::Locate(q) => Ok(Message::Intervals(server.locate(q))),
        Message::InsertionSlotReq(iv) => server.insertion_slot(*iv).map(Message::Slot),
        Message::MetricsReq => {
            // A scrape must read *current* occupancy, not the gauges as of
            // the last mutation: republish this server's storage gauges
            // before rendering. (The serve loop additionally refreshes
            // every registered tenant.)
            if let Some(db) = server.paged_store() {
                db.publish_metrics();
            }
            Ok(Message::MetricsText(telemetry::render()))
        }
        Message::Ping => Ok(Message::Pong),
        Message::ApplyInsert(_) | Message::DeleteWhere(_) => Err(CoreError::Transport(
            "mutating request on a read-only server handle".into(),
        )),
        other => Err(CoreError::Transport(format!(
            "not a request: message type {:#04x}",
            other.msg_type()
        ))),
    }
}

/// Answers any request, including mutations.
pub fn apply_request(server: &mut Server, req: &Message) -> Result<Message, CoreError> {
    match req {
        Message::ApplyInsert(delta) => server.apply_insert(delta).map(|()| Message::InsertOk),
        Message::DeleteWhere(q) => server.delete_where(q).map(Message::Deleted),
        other => answer_request(server, other),
    }
}

/// Recorded replies retained for mutation deduplication. Generously larger
/// than any plausible number of concurrently retrying mutations.
pub const REPLAY_CAPACITY: usize = 1024;

/// The server-side at-most-once ledger: request id → the reply produced
/// when that mutation was first applied. A retried mutation (same id, sent
/// again because the client never saw the reply) is answered from the
/// ledger instead of being applied twice.
///
/// Bounded FIFO: old entries are evicted once [`REPLAY_CAPACITY`] newer
/// mutations have completed, by which point the original client has long
/// exhausted its retry budget.
pub struct ReplayTable {
    inner: Mutex<ReplayInner>,
    capacity: usize,
}

#[derive(Default)]
struct ReplayInner {
    replies: HashMap<u64, Message>,
    order: VecDeque<u64>,
}

impl ReplayTable {
    pub fn new(capacity: usize) -> ReplayTable {
        ReplayTable {
            inner: Mutex::new(ReplayInner::default()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ReplayInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The recorded reply for `req_id`, if that mutation already ran.
    pub fn get(&self, req_id: u64) -> Option<Message> {
        self.lock().replies.get(&req_id).cloned()
    }

    /// Records the reply for a completed mutation, evicting the oldest
    /// entry when full.
    pub fn record(&self, req_id: u64, reply: Message) {
        let mut inner = self.lock();
        if inner.replies.insert(req_id, reply).is_none() {
            inner.order.push_back(req_id);
            while inner.order.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.replies.remove(&old);
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.lock().replies.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ReplayTable {
    fn default() -> ReplayTable {
        ReplayTable::new(REPLAY_CAPACITY)
    }
}

/// Mutations answered from a replay table instead of re-applied.
fn replay_hits() -> &'static Counter {
    static HITS: OnceLock<Arc<Counter>> = OnceLock::new();
    HITS.get_or_init(|| telemetry::counter("exq_replay_hits_total"))
}

/// [`apply_request`] with at-most-once replay protection: a mutation
/// carrying a nonzero request id that the table has already seen returns
/// its recorded reply instead of being re-applied. Must be called with the
/// same exclusive access as `apply_request` — the check-then-record is only
/// race-free because mutations serialize on the server's write lock.
pub fn apply_request_keyed(
    server: &mut Server,
    replay: &ReplayTable,
    req_id: u64,
    req: &Message,
) -> Result<Message, CoreError> {
    if req.is_mutation() && req_id != 0 {
        if let Some(reply) = replay.get(req_id) {
            replay_hits().inc();
            return Ok(reply);
        }
        let reply = apply_request(server, req)?;
        // Errors are not recorded: applying a mutation is atomic, so a
        // deterministic failure simply fails again on replay.
        replay.record(req_id, reply.clone());
        return Ok(reply);
    }
    apply_request(server, req)
}

/// Runs a dispatch closure under a server-side trace scope for `trace`
/// (0 = untraced, inert scope); spans collected during dispatch ride back
/// on `Answer` responses so the client can stitch them into its tree.
/// Errors become error frames here so span collection can't be skipped.
/// When trace-all is on, untraced frames get a server-local trace id —
/// mutations and raw pipeline clients never stamp their frames, and a
/// server operator who asked for everything should still see them.
pub(crate) fn dispatch_traced(
    trace: u64,
    dispatch: impl FnOnce() -> Result<Message, CoreError>,
) -> Message {
    let trace = if trace == 0 && telemetry::tracing_wanted() {
        telemetry::new_trace_id()
    } else {
        trace
    };
    let scope = telemetry::begin_trace(trace, telemetry::Side::Server);
    let result = dispatch();
    let spans = scope.finish();
    let mut reply = match result {
        Ok(msg) => msg,
        Err(e) => Message::Error(WireError::from_core(&e)),
    };
    if let Message::Answer(resp) = &mut reply {
        resp.spans = spans;
    }
    reply
}

// -------------------------------------------------------------- in-process --

enum ServerHandle<'a> {
    Shared(&'a Server),
    Exclusive(&'a mut Server),
}

/// The in-process transport: a direct server reference behind the full
/// frame codec. Every request is encoded, decoded, dispatched, and its
/// response encoded and decoded again — so hardening and byte accounting
/// match the TCP path bit for bit.
pub struct InProcess<'a> {
    server: ServerHandle<'a>,
    stats: LinkStats,
    /// At-most-once ledger for mutations, honored exactly like the serve
    /// loop's so retry semantics are testable without sockets.
    replay: ReplayTable,
}

impl<'a> InProcess<'a> {
    /// Read-only link: queries, block fetches, aggregates. Mutating
    /// requests are answered with an error frame.
    pub fn shared(server: &'a Server) -> InProcess<'a> {
        InProcess {
            server: ServerHandle::Shared(server),
            stats: LinkStats::default(),
            replay: ReplayTable::default(),
        }
    }

    /// Full link including insert/delete.
    pub fn exclusive(server: &'a mut Server) -> InProcess<'a> {
        InProcess {
            server: ServerHandle::Exclusive(server),
            stats: LinkStats::default(),
            replay: ReplayTable::default(),
        }
    }
}

impl Transport for InProcess<'_> {
    fn roundtrip_as(&mut self, req_id: u64, req: &Message) -> Result<Message, CoreError> {
        let frame = req.encode_frame_req(PROTOCOL_VERSION, telemetry::current_trace(), req_id);
        self.stats.requests += 1;
        self.stats.bytes_sent += frame.len() as u64;
        // Decode our own frame: the server must only ever see what survives
        // the codec, exactly as over a socket.
        let d = Message::decode_frame_ext(&frame)?;
        // `dispatch_traced` pushes a *fresh* collector: the server runs on
        // the client's thread here, and the shield keeps server spans out
        // of the client's collector (they arrive via the response instead,
        // exactly as over TCP).
        let replay = &self.replay;
        let resp = dispatch_traced(d.trace, || match &mut self.server {
            ServerHandle::Shared(s) => answer_request(s, &d.msg),
            ServerHandle::Exclusive(s) => apply_request_keyed(s, replay, d.req_id, &d.msg),
        });
        // Replies echo the request's trace and request ids, exactly as the
        // serve loop's do, so the bytes on the "wire" are the same.
        let resp_frame = resp.encode_reply(&d);
        self.stats.bytes_received += resp_frame.len() as u64;
        let m = wire_metrics();
        m.requests.inc();
        m.bytes_sent.add(frame.len() as u64);
        m.bytes_received.add(resp_frame.len() as u64);
        Ok(Message::decode_frame(&resp_frame)?)
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }
}

// --------------------------------------------------------------------- tcp --

/// Connection/retry/timeout knobs for [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Timeout for each connect attempt.
    pub connect_timeout: Duration,
    /// Total connect attempts before giving up.
    pub connect_attempts: u32,
    /// Sleep before the second attempt; doubles each further attempt.
    pub retry_backoff: Duration,
    /// Per-request read/write timeout.
    pub io_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(2),
            connect_attempts: 5,
            retry_backoff: Duration::from_millis(50),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// A blocking TCP client link speaking the frame protocol. A window of
/// requests is written before any reply is read, so many can be in flight
/// on one connection; replies are matched to requests by id. The resolved
/// peer addresses and config are retained so the link can be re-dialed
/// mid-session ([`Transport::reconnect`]) after a failure.
pub struct TcpTransport {
    stream: TcpStream,
    peer: SocketAddr,
    addrs: Vec<SocketAddr>,
    config: TcpConfig,
    stats: LinkStats,
    /// Database the frames address on a multi-tenant server (empty = the
    /// server's default db).
    db: String,
}

/// Reads one reply frame off a client link: the fixed header first, so the
/// length is checked ([`Message::parse_header`]) before the buffer for the
/// rest is sized — reserved, not zero-filled: the socket's bytes are the
/// first written to it. Returns the decoded frame and its exact length on
/// the wire, counted into the received-bytes metric.
fn read_frame(
    stream: &mut TcpStream,
    peer: SocketAddr,
) -> Result<(DecodedFrame, usize), CoreError> {
    let receive_failed = |e| CoreError::Transport(format!("receive from {peer} failed: {e}"));
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header).map_err(receive_failed)?;
    let (_, payload_len) = Message::parse_header(&header)?;
    let total = frame_len_of(payload_len);
    let mut frame = Vec::with_capacity(total);
    frame.extend_from_slice(&header);
    let rest = (total - FRAME_HEADER_LEN) as u64;
    let got = (stream.take(rest).read_to_end(&mut frame)).map_err(receive_failed)?;
    if (got as u64) < rest {
        // What `read_exact` says of a stream that ends early.
        return Err(receive_failed(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "failed to fill whole buffer",
        )));
    }
    wire_metrics().bytes_received.add(frame.len() as u64);
    Ok((Message::decode_frame_ext(&frame)?, frame.len()))
}

/// One dial pass over the resolved addresses, with retry + backoff.
fn dial(addrs: &[SocketAddr], config: &TcpConfig) -> Result<(TcpStream, SocketAddr), CoreError> {
    let mut backoff = config.retry_backoff;
    let mut last_err = String::new();
    for attempt in 0..config.connect_attempts.max(1) {
        if attempt > 0 {
            thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        for peer in addrs {
            match TcpStream::connect_timeout(peer, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(config.io_timeout))
                        .map_err(|e| CoreError::Transport(e.to_string()))?;
                    stream
                        .set_write_timeout(Some(config.io_timeout))
                        .map_err(|e| CoreError::Transport(e.to_string()))?;
                    return Ok((stream, *peer));
                }
                Err(e) => last_err = e.to_string(),
            }
        }
    }
    Err(CoreError::Transport(format!(
        "connect to {addrs:?} failed after {} attempts: {last_err}",
        config.connect_attempts.max(1)
    )))
}

impl TcpTransport {
    /// Connects with retry and exponential backoff.
    pub fn connect(addr: impl ToSocketAddrs, config: TcpConfig) -> Result<TcpTransport, CoreError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| CoreError::Transport(format!("address resolution failed: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(CoreError::Transport("address resolved to nothing".into()));
        }
        let (stream, peer) = dial(&addrs, &config)?;
        Ok(TcpTransport {
            stream,
            peer,
            addrs,
            config,
            stats: LinkStats::default(),
            db: String::new(),
        })
    }

    /// Connects with default [`TcpConfig`].
    pub fn connect_default(addr: impl ToSocketAddrs) -> Result<TcpTransport, CoreError> {
        TcpTransport::connect(addr, TcpConfig::default())
    }

    /// Addresses every subsequent frame to the named database on a
    /// multi-tenant server (builder form). Rejects invalid db ids up
    /// front, before anything hits the wire.
    pub fn with_db(mut self, db: &str) -> Result<TcpTransport, CoreError> {
        crate::tenant::validate_db_id(db)?;
        self.db = db.to_owned();
        Ok(self)
    }

    /// The database this transport addresses (empty = server default).
    pub fn db(&self) -> &str {
        &self.db
    }

    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }
}

impl Transport for TcpTransport {
    fn roundtrip_as(&mut self, req_id: u64, req: &Message) -> Result<Message, CoreError> {
        let mut reply = [None];
        self.roundtrip_window(&[(req_id, req)], &mut reply)?;
        let [reply] = reply;
        Ok(reply.expect("a window that returns Ok fills every slot"))
    }

    /// Writes the whole window, then reads one reply per request.
    fn roundtrip_window(
        &mut self,
        window: &[(u64, &Message)],
        replies: &mut [Option<Message>],
    ) -> Result<(), CoreError> {
        let trace = telemetry::current_trace();
        let m = wire_metrics();
        for &(req_id, req) in window {
            let frame = req.encode_frame_db(trace, req_id, &self.db)?;
            self.stream
                .write_all(&frame)
                .and_then(|_| self.stream.flush())
                .map_err(|e| CoreError::Transport(format!("send to {} failed: {e}", self.peer)))?;
            self.stats.requests += 1;
            self.stats.bytes_sent += frame.len() as u64;
            m.requests.inc();
            m.bytes_sent.add(frame.len() as u64);
        }
        for _ in window {
            let (d, received) = read_frame(&mut self.stream, self.peer)?;
            self.stats.bytes_received += received as u64;
            // Only an id this window still waits for is taken: a late reply
            // to a request that timed out earlier on this connection, or a
            // second reply under one id, is an error, never an answer.
            let slot = window
                .iter()
                .zip(replies.iter())
                .position(|(&(req_id, _), reply)| req_id == d.req_id && reply.is_none())
                .ok_or_else(|| {
                    CoreError::Transport(format!(
                        "reply carries request id {:#x}, which this link is not waiting for",
                        d.req_id
                    ))
                })?;
            replies[slot] = Some(d.msg);
        }
        Ok(())
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Re-dials the stored peer addresses with the original config,
    /// replacing the (possibly dead) stream. Replies still owed on the old
    /// stream are abandoned with it.
    fn reconnect(&mut self) -> Result<(), CoreError> {
        let (stream, peer) = dial(&self.addrs, &self.config)?;
        self.stream = stream;
        self.peer = peer;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WireCodec;

    #[test]
    fn link_stats_deltas() {
        let a = LinkStats {
            requests: 2,
            bytes_sent: 100,
            bytes_received: 900,
        };
        let b = LinkStats {
            requests: 5,
            bytes_sent: 180,
            bytes_received: 1400,
        };
        assert_eq!(
            b.since(&a),
            LinkStats {
                requests: 3,
                bytes_sent: 80,
                bytes_received: 500,
            }
        );
    }

    #[test]
    fn unexpected_error_frame_surfaces_core_error() {
        let err = unexpected(
            "Answer",
            Message::Error(WireError::from_core(&CoreError::Query("bad".into()))),
        );
        assert_eq!(err, CoreError::Query("bad".into()));
        let err = unexpected("Answer", Message::InsertOk);
        assert!(matches!(err, CoreError::Transport(_)));
    }

    #[test]
    fn in_process_counts_exact_frame_bytes() {
        // A server over the tiniest possible database.
        let doc = exq_xml::Document::parse("<r><a/></r>").unwrap();
        let hosted = crate::system::Outsourcer::new(crate::system::OutsourceConfig::default())
            .outsource(&doc, &[], crate::scheme::SchemeKind::Opt, 3)
            .unwrap();
        let (_, server) = hosted.split();
        let mut t = InProcess::shared(&server);
        let before = t.stats();
        assert_eq!(before, LinkStats::default());
        let resp = t.send_naive().unwrap();
        let stats = t.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(
            stats.bytes_sent as usize,
            Message::NaiveQuery.encode_frame().len()
        );
        assert_eq!(
            stats.bytes_received as usize,
            frame_len_of(resp.encoded_len())
        );
        assert_eq!(stats.bytes_received as usize, resp.payload_bytes());
    }

    #[test]
    fn replay_table_dedupes_and_evicts() {
        let table = ReplayTable::new(2);
        assert!(table.is_empty());
        table.record(1, Message::InsertOk);
        table.record(2, Message::InsertOk);
        assert_eq!(table.get(1), Some(Message::InsertOk));
        // Re-recording the same id must not consume a second slot.
        table.record(1, Message::InsertOk);
        assert_eq!(table.len(), 2);
        // A third distinct id evicts the oldest.
        table.record(3, Message::InsertOk);
        assert_eq!(table.len(), 2);
        assert!(table.get(1).is_none());
        assert!(table.get(2).is_some());
        assert!(table.get(3).is_some());
    }

    #[test]
    fn shared_handle_rejects_mutations() {
        let doc = exq_xml::Document::parse("<r><a/></r>").unwrap();
        let hosted = crate::system::Outsourcer::new(crate::system::OutsourceConfig::default())
            .outsource(&doc, &[], crate::scheme::SchemeKind::Opt, 3)
            .unwrap();
        let (_, server) = hosted.split();
        let mut t = InProcess::shared(&server);
        let q = ServerQuery {
            steps: vec![crate::wire::SStep {
                axis: crate::wire::SAxis::Descendant,
                tags: vec!["a".into()],
                preds: vec![],
            }],
            anchor: 0,
        };
        let err = t.delete_where(&q).unwrap_err();
        assert!(matches!(err, CoreError::Transport(_)), "got {err:?}");
    }
}
