//! The serve path: one event thread multiplexing every connection over
//! `epoll`, with query execution on a worker pool. This is the only
//! server — "how a request reaches a thread" is answered here and nowhere
//! else.
//!
//! The event thread owns *all* sockets, so thousands of idle connections
//! cost buffers, not threads, and never starve a fresh client:
//!
//! * **epoll via raw syscalls** — the private `sys` module declares the four
//!   libc entry points (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//!   `eventfd`) directly; `std` already links libc, so no external crate
//!   is needed, in keeping with the repo's no-external-crates rule;
//! * **nonblocking sockets, partial-frame state machines** — each
//!   connection accumulates bytes in a read buffer and replies in a write
//!   buffer; a frame is dispatched only once complete, and any number of
//!   frames may be in flight per connection (replies echo the request id,
//!   so the client correlates them in any order);
//! * **compute off the event thread** — decoded requests go to worker
//!   threads over a bounded queue; workers run [`crate::serve`]'s
//!   admission/fair-share/replay path (`serve_one`) and push encoded
//!   replies to a completion queue, waking the event thread through an
//!   `eventfd`;
//! * **stall budgets** — a peer that makes no progress for `io_timeout`
//!   while mid-frame, or while owing us a drained reply, is dropped
//!   without pinning anything but its own buffers. Progress resets the
//!   budget: every byte received (or accepted by the socket) restarts it,
//!   so a slow-but-live peer dribbling a large frame is served. A
//!   connection idle *between* frames has no budget and is never dropped.
//!
//! `Ping` is answered inline on the event thread (a saturated worker pool
//! must not make the server look dead), and a full dispatch queue answers
//! `Busy` immediately — admission pressure is visible to clients, never an
//! unbounded queue.
//!
//! Serving needs Linux. On other targets [`serve_event`] returns
//! [`std::io::ErrorKind::Unsupported`]; the client transports,
//! [`crate::transport::InProcess`] and everything offline stay portable.

#[cfg(target_os = "linux")]
pub use linux::serve_event;

/// Serving is built on epoll: on this target there is no server, only the
/// portable client side.
#[cfg(not(target_os = "linux"))]
pub fn serve_event(
    _listener: std::net::TcpListener,
    _registry: std::sync::Arc<crate::tenant::TenantRegistry>,
    _config: crate::serve::ServeConfig,
) -> std::io::Result<crate::serve::ServeHandle> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "serving needs Linux: the event loop is built on epoll",
    ))
}

#[cfg(target_os = "linux")]
mod linux {
    use super::sys;
    use crate::codec::{
        frame_len_of, CodecError, DecodedFrame, Message, WireError, FRAME_HEADER_LEN,
        PROTOCOL_VERSION, TRACE_FIELD_LEN,
    };
    use crate::serve::{
        apply_tenant_knobs, busy_reply, serve_one, ServeConfig, ServeHandle, ServeShared,
    };
    use crate::telemetry::{self, Counter, Gauge, Histogram};
    use crate::tenant::TenantRegistry;
    use std::collections::HashMap;
    use std::fs::File;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Mutex, OnceLock};
    use std::thread;
    use std::time::{Duration, Instant};

    /// Registry handles for the event-loop gauges and accept-path counters.
    struct EvMetrics {
        /// `accept(2)` failures (fd exhaustion, aborted handshakes, …).
        accept_errors: Arc<Counter>,
        /// Requests refused with `Busy` because the dispatch queue was full.
        accept_rejected: Arc<Counter>,
        /// Connections currently registered with the event loop.
        connections: Arc<Gauge>,
        /// `epoll_wait` returns (readiness wakeups, including timeouts).
        wakeups: Arc<Counter>,
        /// Requests dispatched to workers and not yet completed.
        queue_depth: Arc<Gauge>,
        /// Time a request spent in the dispatch queue before a worker
        /// picked it up: the worker pool's saturation signal.
        queue_wait: Arc<Histogram>,
    }

    fn ev_metrics() -> &'static EvMetrics {
        static METRICS: OnceLock<EvMetrics> = OnceLock::new();
        METRICS.get_or_init(|| EvMetrics {
            accept_errors: telemetry::counter("exq_accept_errors_total"),
            accept_rejected: telemetry::counter("exq_accept_rejected_total"),
            connections: telemetry::gauge("exq_evloop_connections"),
            wakeups: telemetry::counter("exq_evloop_wakeups_total"),
            queue_depth: telemetry::gauge("exq_evloop_queue_depth"),
            queue_wait: telemetry::histogram("exq_evloop_queue_wait_seconds"),
        })
    }

    /// epoll token of the listening socket.
    const TOKEN_LISTENER: u64 = u64::MAX;
    /// epoll token of the completion-queue eventfd.
    const TOKEN_WAKE: u64 = u64::MAX - 1;
    /// Events fetched per `epoll_wait`.
    const MAX_EVENTS: usize = 256;
    /// Read scratch size: large enough to drain a burst of pipelined
    /// frames per readiness event without repeated syscalls.
    const READ_CHUNK: usize = 64 * 1024;

    /// One request handed to a worker.
    struct Job {
        token: u64,
        frame: DecodedFrame,
        /// When the event loop enqueued it (queue-wait attribution).
        enqueued: Instant,
    }

    /// One encoded reply on its way back to the writer.
    struct Completion {
        token: u64,
        bytes: Vec<u8>,
    }

    /// Per-connection state machine.
    struct Conn {
        stream: TcpStream,
        /// Bytes received but not yet framed.
        rbuf: Vec<u8>,
        /// Encoded replies not yet written, from `wpos`.
        wbuf: Vec<u8>,
        wpos: usize,
        /// Requests dispatched to workers, replies still owed.
        inflight: usize,
        /// No more reads: peer EOF, framing error, or shutdown. The
        /// connection closes once owed replies are written (or time out).
        closing: bool,
        /// EPOLLOUT currently registered.
        want_write: bool,
        /// Mid-frame stall budget: armed while a partial frame sits in
        /// `rbuf`, restarted by every byte of progress.
        read_deadline: Option<Instant>,
        /// Write stall budget: armed while the socket refuses bytes we owe,
        /// cleared by progress.
        write_deadline: Option<Instant>,
    }

    impl Conn {
        fn interest(&self) -> u32 {
            let mut ev = sys::EPOLLIN | sys::EPOLLRDHUP;
            if self.want_write {
                ev |= sys::EPOLLOUT;
            }
            ev
        }
    }

    /// Runs the frame protocol over `listener` against a registry of sealed
    /// databases. Frames route by the db id they carry (empty = the
    /// registry's default db). Unknown db ids are answered with a typed
    /// tenant error, never a panic or a dropped connection. Returns
    /// immediately; the returned handle owns the event and worker threads.
    pub fn serve_event(
        listener: TcpListener,
        registry: Arc<TenantRegistry>,
        config: ServeConfig,
    ) -> std::io::Result<ServeHandle> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        tune_listen_backlog(&listener, &config);
        apply_tenant_knobs(&registry, &config);
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ServeShared {
            registry: Arc::clone(&registry),
            inflight: AtomicUsize::new(0),
        });

        let epoll = sys::Epoll::new()?;
        let wake = Arc::new(sys::event_fd()?);
        epoll.add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wake.as_raw_fd(), sys::EPOLLIN, TOKEN_WAKE)?;

        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.backlog());
        let job_rx = Arc::new(Mutex::new(job_rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));

        let mut threads = Vec::with_capacity(config.workers.max(1) + 1);
        for _ in 0..config.workers.max(1) {
            let rx = Arc::clone(&job_rx);
            let shr = Arc::clone(&shared);
            let cfg = config.clone();
            let done = Arc::clone(&completions);
            let wake = Arc::clone(&wake);
            threads.push(thread::spawn(move || loop {
                let job = match rx.lock() {
                    Ok(guard) => guard.recv(),
                    Err(poisoned) => poisoned.into_inner().recv(),
                };
                let Ok(job) = job else { return }; // event loop gone
                ev_metrics().queue_depth.add(-1);
                if telemetry::enabled() {
                    ev_metrics()
                        .queue_wait
                        .observe_duration(job.enqueued.elapsed());
                }
                let d = &job.frame;
                let reply = serve_one(&shr, &cfg, d);
                let bytes = reply.encode_reply(d);
                match done.lock() {
                    Ok(mut guard) => guard.push(Completion {
                        token: job.token,
                        bytes,
                    }),
                    Err(poisoned) => poisoned.into_inner().push(Completion {
                        token: job.token,
                        bytes,
                    }),
                }
                sys::wake(&wake);
            }));
        }

        {
            let stop_flag = Arc::clone(&stop);
            threads.push(thread::spawn(move || {
                EventLoop {
                    epoll,
                    listener,
                    wake,
                    job_tx,
                    completions,
                    stop: stop_flag,
                    config,
                    conns: HashMap::new(),
                    next_token: 0,
                    accept_resume: None,
                    accept_backoff: Duration::from_millis(1),
                    accept_failing: false,
                }
                .run();
            }));
        }

        Ok(ServeHandle {
            addr,
            stop,
            threads,
            registry,
        })
    }

    struct EventLoop {
        epoll: sys::Epoll,
        listener: TcpListener,
        wake: Arc<File>,
        job_tx: mpsc::SyncSender<Job>,
        completions: Arc<Mutex<Vec<Completion>>>,
        stop: Arc<AtomicBool>,
        config: ServeConfig,
        conns: HashMap<u64, Conn>,
        /// Monotonic connection tokens — never reused, so a completion for
        /// a closed connection cannot alias a new one on the same fd.
        next_token: u64,
        /// While set, accepting is paused (fd exhaustion backoff); the
        /// listener is re-armed when the instant passes.
        accept_resume: Option<Instant>,
        accept_backoff: Duration,
        /// The last accept failed (reset by a successful accept): only the
        /// first error of a streak is logged, the rest are counted.
        accept_failing: bool,
    }

    impl EventLoop {
        fn run(mut self) {
            // The tick bounds deadline sweeps and shutdown latency even if
            // no readiness event arrives, so a stalled peer is dropped at
            // most one tick past its `io_timeout`.
            let tick = (self.config.io_timeout / 4)
                .clamp(Duration::from_millis(10), Duration::from_millis(200));
            let mut events = [sys::EpollEvent::empty(); MAX_EVENTS];
            let mut scratch = vec![0u8; READ_CHUNK];
            while let Ok(n) = self.epoll.wait(&mut events, tick) {
                ev_metrics().wakeups.inc();
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                for ev in &events[..n] {
                    match ev.token() {
                        TOKEN_LISTENER => self.accept_ready(),
                        TOKEN_WAKE => sys::drain(&self.wake),
                        token => self.conn_ready(token, ev.events(), &mut scratch),
                    }
                }
                self.drain_completions();
                self.sweep(Instant::now());
            }
            // Shutdown: closing the sockets here unblocks nothing (workers
            // drain via the dropped job sender) and every fd is owned, so
            // teardown is just drops.
            let open = self.conns.len() as i64;
            ev_metrics().connections.add(-open);
        }

        // ------------------------------------------------------- accept --

        fn accept_ready(&mut self) {
            if self.accept_resume.is_some() {
                return; // paused: re-armed by the sweep
            }
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        self.accept_backoff = Duration::from_millis(1);
                        self.accept_failing = false;
                        self.register(stream);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        // EMFILE and friends persist; pause the listener so
                        // a level-triggered epoll doesn't spin on it.
                        ev_metrics().accept_errors.inc();
                        if !std::mem::replace(&mut self.accept_failing, true) {
                            telemetry::log(
                                telemetry::Level::Warn,
                                &format!("accept failed, backing off: {e}"),
                            );
                        }
                        let _ = self.epoll.del(self.listener.as_raw_fd());
                        self.accept_resume = Some(Instant::now() + self.accept_backoff);
                        self.accept_backoff =
                            (self.accept_backoff * 2).min(Duration::from_millis(100));
                        break;
                    }
                }
            }
        }

        fn register(&mut self, stream: TcpStream) {
            if stream.set_nonblocking(true).is_err() {
                return;
            }
            stream.set_nodelay(true).ok();
            let token = self.next_token;
            self.next_token += 1;
            let conn = Conn {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                inflight: 0,
                closing: false,
                want_write: false,
                read_deadline: None,
                write_deadline: None,
            };
            if self
                .epoll
                .add(conn.stream.as_raw_fd(), conn.interest(), token)
                .is_err()
            {
                return;
            }
            self.conns.insert(token, conn);
            ev_metrics().connections.add(1);
        }

        // --------------------------------------------------- connections --

        fn conn_ready(&mut self, token: u64, events: u32, scratch: &mut [u8]) {
            if events & sys::EPOLLERR != 0 {
                self.close(token);
                return;
            }
            if events & sys::EPOLLOUT != 0 && !self.flush(token) {
                self.close(token);
                return;
            }
            if events & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0 {
                self.read_ready(token, scratch);
            }
        }

        fn read_ready(&mut self, token: u64, scratch: &mut [u8]) {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.closing {
                loop {
                    match conn.stream.read(scratch) {
                        Ok(0) => {
                            conn.closing = true;
                            break;
                        }
                        Ok(n) => {
                            conn.rbuf.extend_from_slice(&scratch[..n]);
                            // Progress restarts the mid-frame budget:
                            // `process_frames` re-arms it from now if a
                            // partial frame is still pending.
                            conn.read_deadline = None;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            self.close(token);
                            return;
                        }
                    }
                }
            }
            self.process_frames(token);
            if let Some(conn) = self.conns.get(&token) {
                let drained = conn.closing && conn.inflight == 0 && conn.wbuf.len() == conn.wpos;
                if drained || !self.flush(token) {
                    self.close(token);
                }
            }
        }

        /// Extracts and dispatches every complete frame in the read buffer.
        fn process_frames(&mut self, token: u64) {
            loop {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.closing && conn.rbuf.is_empty() {
                    return;
                }
                if conn.rbuf.len() < FRAME_HEADER_LEN {
                    // Empty = idle (no budget); partial header = mid-frame.
                    conn.read_deadline = if conn.rbuf.is_empty() {
                        None
                    } else {
                        Some(
                            conn.read_deadline
                                .unwrap_or_else(|| Instant::now() + self.config.io_timeout),
                        )
                    };
                    return;
                }
                let mut header = [0u8; FRAME_HEADER_LEN];
                header.copy_from_slice(&conn.rbuf[..FRAME_HEADER_LEN]);
                let (_, payload_len) = match Message::parse_header(&header) {
                    Ok(v) => v,
                    Err(e) => {
                        // Framing is unrecoverable: answer once, stop
                        // reading, close when the reply drains.
                        let bytes = error_frame(&e, 0, 0);
                        conn.rbuf.clear();
                        conn.closing = true;
                        self.queue_reply(token, bytes);
                        return;
                    }
                };
                let total = frame_len_of(payload_len);
                if conn.rbuf.len() < total {
                    conn.read_deadline = Some(
                        conn.read_deadline
                            .unwrap_or_else(|| Instant::now() + self.config.io_timeout),
                    );
                    return;
                }
                let reply_inline = match Message::decode_frame_ext(&conn.rbuf[..total]) {
                    Err(e) => {
                        let (trace, req_id) = salvage_frame_ids(&conn.rbuf[..total]);
                        conn.rbuf.clear();
                        conn.closing = true;
                        self.queue_reply(token, error_frame(&e, trace, req_id));
                        return;
                    }
                    Ok(d) => {
                        conn.rbuf.drain(..total);
                        conn.read_deadline = None;
                        if matches!(d.msg, Message::Ping) {
                            // Liveness answers never queue behind work.
                            Some(Message::Pong.encode_reply(&d))
                        } else {
                            match self.job_tx.try_send(Job {
                                token,
                                frame: d,
                                enqueued: Instant::now(),
                            }) {
                                Ok(()) => {
                                    ev_metrics().queue_depth.add(1);
                                    conn.inflight += 1;
                                    None
                                }
                                Err(mpsc::TrySendError::Full(job)) => {
                                    // Dispatch queue saturated: shed here,
                                    // visibly, instead of queueing without
                                    // bound.
                                    ev_metrics().accept_rejected.inc();
                                    Some(
                                        busy_reply(self.config.retry_after)
                                            .encode_reply(&job.frame),
                                    )
                                }
                                Err(mpsc::TrySendError::Disconnected(_)) => {
                                    conn.closing = true;
                                    None
                                }
                            }
                        }
                    }
                };
                if let Some(bytes) = reply_inline {
                    self.queue_reply(token, bytes);
                }
            }
        }

        // -------------------------------------------------------- writes --

        /// Queues one encoded reply. With nothing pending — the usual
        /// case — the reply's own buffer becomes the write buffer; behind a
        /// partly written one it is appended, so replies leave in the order
        /// they were queued.
        fn queue_reply(&mut self, token: u64, bytes: Vec<u8>) {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.wpos == conn.wbuf.len() {
                conn.wbuf = bytes;
                conn.wpos = 0;
            } else {
                conn.wbuf.extend_from_slice(&bytes);
            }
            if !self.flush(token) {
                self.close(token);
            }
        }

        /// Writes as much of the pending buffer as the socket takes.
        /// Returns `false` if the connection is dead.
        fn flush(&mut self, token: u64) -> bool {
            let Some(conn) = self.conns.get_mut(&token) else {
                return true;
            };
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => return false,
                    Ok(n) => {
                        conn.wpos += n;
                        conn.write_deadline = None;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        conn.write_deadline = Some(
                            conn.write_deadline
                                .unwrap_or_else(|| Instant::now() + self.config.io_timeout),
                        );
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
            if conn.wpos >= conn.wbuf.len() {
                // Drained: the buffer goes, so an idle connection holds
                // nothing of the largest reply it ever carried.
                conn.wbuf = Vec::new();
                conn.wpos = 0;
                conn.write_deadline = None;
            }
            let want_write = conn.wpos < conn.wbuf.len();
            if want_write != conn.want_write {
                conn.want_write = want_write;
                let fd = conn.stream.as_raw_fd();
                let interest = conn.interest();
                if self.epoll.modify(fd, interest, token).is_err() {
                    return false;
                }
            }
            true
        }

        // --------------------------------------------------- completions --

        fn drain_completions(&mut self) {
            let done: Vec<Completion> = {
                let mut guard = match self.completions.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                std::mem::take(&mut *guard)
            };
            for completion in done {
                let Some(conn) = self.conns.get_mut(&completion.token) else {
                    continue; // connection died while the worker ran
                };
                conn.inflight = conn.inflight.saturating_sub(1);
                if conn.closing && conn.inflight == 0 && conn.wbuf.len() == conn.wpos {
                    // Peer already gone and nothing else owed: the reply
                    // has no reader.
                    self.close(completion.token);
                    continue;
                }
                self.queue_reply(completion.token, completion.bytes);
            }
        }

        // -------------------------------------------------------- sweeps --

        fn sweep(&mut self, now: Instant) {
            // Re-arm a paused listener once the backoff elapsed.
            if self.accept_resume.is_some_and(|t| now >= t) {
                self.accept_resume = None;
                if self
                    .epoll
                    .add(self.listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)
                    .is_ok()
                {
                    self.accept_ready();
                }
            }
            let expired: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| {
                    c.read_deadline.is_some_and(|d| now >= d)
                        || c.write_deadline.is_some_and(|d| now >= d)
                        || (c.closing && c.inflight == 0 && c.wbuf.len() == c.wpos)
                })
                .map(|(&t, _)| t)
                .collect();
            for token in expired {
                self.close(token);
            }
        }

        fn close(&mut self, token: u64) {
            if let Some(conn) = self.conns.remove(&token) {
                // Dropping the stream closes the fd, which removes it from
                // the epoll interest list.
                drop(conn);
                ev_metrics().connections.add(-1);
            }
        }
    }

    /// Raises the kernel accept backlog on an already-listening socket.
    ///
    /// `TcpListener::bind` hardcodes a backlog of 128; a burst of ~1000
    /// simultaneous connects (seen with 1000 clients opening at once against
    /// 8 workers) overflows the SYN queue and the excess either times out or
    /// sees `ECONNREFUSED` before the event loop ever accepts. POSIX allows
    /// re-calling `listen(2)` on a listening socket to grow the backlog, so
    /// that is exactly what this does — the kernel still clamps to
    /// `net.core.somaxconn`. Best-effort: a failure keeps the default backlog
    /// rather than refusing to serve.
    fn tune_listen_backlog(listener: &TcpListener, config: &ServeConfig) {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn listen(fd: std::ffi::c_int, backlog: std::ffi::c_int) -> std::ffi::c_int;
        }
        let want = config.backlog().max(1024).min(i32::MAX as usize) as std::ffi::c_int;
        // SAFETY: `listen(2)` on a descriptor the borrowed listener keeps
        // open; it reads no memory of ours.
        if unsafe { listen(listener.as_raw_fd(), want) } != 0 {
            telemetry::log(
                telemetry::Level::Warn,
                &format!(
                    "listen backlog {want} not applied: {}",
                    std::io::Error::last_os_error()
                ),
            );
        }
    }

    /// The trace and request ids of a complete raw frame whose decode
    /// failed: they sit at fixed offsets, so they survive payload-level
    /// corruption. (After a checksum failure the ids are untrustworthy, but
    /// echoing them is harmless — the worst case is an error the client
    /// cannot correlate.)
    fn salvage_frame_ids(frame: &[u8]) -> (u64, u64) {
        let id_at =
            |pos: usize| u64::from_le_bytes(frame[pos..pos + 8].try_into().expect("8-byte slice"));
        (
            id_at(FRAME_HEADER_LEN),
            id_at(FRAME_HEADER_LEN + TRACE_FIELD_LEN),
        )
    }

    /// Encodes a codec failure as an error frame echoing whatever ids were
    /// salvageable.
    fn error_frame(err: &CodecError, trace: u64, req_id: u64) -> Vec<u8> {
        let core: crate::error::CoreError = err.clone().into();
        Message::Error(WireError::from_core(&core)).encode_frame_req(
            PROTOCOL_VERSION,
            trace,
            req_id,
        )
    }
}

/// Raw Linux bindings: the four libc entry points the event loop needs,
/// declared directly (std already links libc; no external crate).
#[cfg(target_os = "linux")]
mod sys {
    use std::fs::File;
    use std::io;
    use std::io::{Read, Write};
    use std::os::fd::{AsRawFd, FromRawFd, RawFd};
    use std::time::Duration;

    // The kernel/glibc `struct epoll_event` is packed on x86_64 (the
    // 64-bit data field is 4-byte aligned there) and naturally aligned
    // everywhere else; matching glibc's definition exactly is what makes
    // calling its functions sound.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        events: u32,
        data: u64,
    }

    impl EpollEvent {
        pub(super) fn empty() -> EpollEvent {
            EpollEvent { events: 0, data: 0 }
        }

        pub(super) fn events(&self) -> u32 {
            // By-value reads are safe even when the struct is packed.
            self.events
        }

        pub(super) fn token(&self) -> u64 {
            self.data
        }
    }

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EFD_CLOEXEC: i32 = 0x80000;
    const EFD_NONBLOCK: i32 = 0x800;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
    }

    /// An epoll instance; the fd closes on drop (via the wrapping `File`).
    pub(super) struct Epoll {
        file: File,
    }

    impl Epoll {
        pub(super) fn new() -> io::Result<Epoll> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` is a fresh, owned descriptor.
            Ok(Epoll {
                file: unsafe { File::from_raw_fd(fd) },
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.file.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        pub(super) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        pub(super) fn del(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Waits for readiness, returning the number of events filled in.
        /// `EINTR` is reported as zero events, not an error.
        pub(super) fn wait(
            &self,
            events: &mut [EpollEvent],
            timeout: Duration,
        ) -> io::Result<usize> {
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let rc = unsafe {
                epoll_wait(
                    self.file.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(rc as usize)
        }
    }

    /// A nonblocking eventfd wrapped in a `File` (closes on drop; `&File`
    /// is `Read + Write`, so workers and the event thread share one fd).
    pub(super) fn event_fd() -> io::Result<File> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh, owned descriptor.
        Ok(unsafe { File::from_raw_fd(fd) })
    }

    /// Nudges the event loop: adds 1 to the eventfd counter. Best-effort —
    /// a full counter still leaves the loop's periodic tick as backstop.
    pub(super) fn wake(fd: &File) {
        let _ = (&*fd).write(&1u64.to_ne_bytes());
    }

    /// Clears the eventfd counter after a wake.
    pub(super) fn drain(fd: &File) {
        let mut buf = [0u8; 8];
        let _ = (&*fd).read(&mut buf);
    }
}
