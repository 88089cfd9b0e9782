//! Seeded fault injection for the transport layer.
//!
//! Two injectors, both deterministic from a seed + rate schedule so every
//! failure mode is reproducible in tests:
//!
//! * [`FaultTransport`] — wraps any [`Transport`] and injects failures at
//!   the message level: requests lost before delivery, replies lost after
//!   the server applied the request (the case that makes at-most-once
//!   semantics interesting), single-bit frame corruption, and stalls. A
//!   failure leaves the link *broken* — further roundtrips fail until
//!   [`Transport::reconnect`], exactly like a dead socket.
//! * [`ChaosProxy`] — a real TCP forwarder that cuts, corrupts, chops, and
//!   stalls the byte stream between a live client and server, for
//!   socket-level chaos tests and the serve→kill→reconnect smoke test
//!   (its upstream can be re-pointed at a restarted server).
//!
//! The RNG is [`SplitMix64`]: tiny, seedable, and shared with the retry
//! layer's jitter so the whole fault schedule derives from one seed.

use crate::codec::Message;
use crate::error::CoreError;
use crate::telemetry::{self, Counter};
use crate::transport::{LinkStats, Transport};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

fn faults_injected() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| telemetry::counter("exq_faults_injected_total"))
}

// ------------------------------------------------------------------- rng --

/// The one seedable PRNG of fault schedules and retry jitter, `exq-store`'s.
pub use exq_store::SplitMix64;

// ---------------------------------------------------------- fault config --

/// Per-roundtrip fault probabilities for [`FaultTransport`]. All rates are
/// independent Bernoulli trials in `[0, 1]`, drawn in a fixed order from
/// the seeded RNG so a given seed always yields the same schedule.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// RNG seed; the entire fault schedule is a pure function of it.
    pub seed: u64,
    /// Probability the request is lost before reaching the server: the
    /// server never sees it (a connect reset mid-send).
    pub drop_request_rate: f64,
    /// Probability the reply is lost after the server processed the
    /// request — the dangerous half: the work happened, the client can't
    /// know. Retried mutations hit the replay table here.
    pub drop_response_rate: f64,
    /// Probability the reply frame suffers a single bit flip (caught by
    /// the frame checksum, surfacing as a codec error).
    pub corrupt_rate: f64,
    /// Probability a roundtrip stalls for [`FaultConfig::stall`] first.
    pub stall_rate: f64,
    /// Injected latency for stall faults.
    pub stall: Duration,
}

impl FaultConfig {
    /// A schedule with every rate zero — useful as a baseline.
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_request_rate: 0.0,
            drop_response_rate: 0.0,
            corrupt_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::from_millis(1),
        }
    }

    /// A uniform schedule: every fault kind at `rate`.
    pub fn uniform(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_request_rate: rate,
            drop_response_rate: rate,
            corrupt_rate: rate,
            stall_rate: rate,
            stall: Duration::from_millis(1),
        }
    }
}

/// Counts of injected faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    pub dropped_requests: u64,
    pub dropped_responses: u64,
    pub corrupted: u64,
    pub stalled: u64,
}

impl FaultTally {
    pub fn total(&self) -> u64 {
        self.dropped_requests + self.dropped_responses + self.corrupted + self.stalled
    }
}

// ------------------------------------------------------- fault transport --

/// A [`Transport`] wrapper that injects seeded faults around the inner
/// link. After a drop fault the wrapper is *broken*: every roundtrip fails
/// with a transport error until [`Transport::reconnect`] — mirroring a TCP
/// link whose socket died, so the retry layer's reconnect path is exercised
/// for real.
pub struct FaultTransport<T> {
    inner: T,
    config: FaultConfig,
    rng: SplitMix64,
    broken: bool,
    tally: FaultTally,
}

impl<T: Transport> FaultTransport<T> {
    pub fn new(inner: T, config: FaultConfig) -> FaultTransport<T> {
        let rng = SplitMix64::new(config.seed);
        FaultTransport {
            inner,
            config,
            rng,
            broken: false,
            tally: FaultTally::default(),
        }
    }

    /// Counts of faults injected so far.
    pub fn tally(&self) -> FaultTally {
        self.tally
    }

    /// The wrapped transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn break_link(&mut self, what: &str) -> CoreError {
        faults_injected().inc();
        self.broken = true;
        CoreError::Transport(format!("injected fault: {what}"))
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn roundtrip_as(&mut self, req_id: u64, req: &Message) -> Result<Message, CoreError> {
        if self.broken {
            return Err(CoreError::Transport(
                "injected fault: link broken (reconnect required)".into(),
            ));
        }
        // Fixed draw order — stall, drop-request, deliver, drop-response,
        // corrupt — keeps the schedule a pure function of the seed.
        if self.rng.chance(self.config.stall_rate) {
            self.tally.stalled += 1;
            faults_injected().inc();
            thread::sleep(self.config.stall);
        }
        if self.rng.chance(self.config.drop_request_rate) {
            self.tally.dropped_requests += 1;
            return Err(self.break_link("request lost before delivery"));
        }
        let reply = self.inner.roundtrip_as(req_id, req)?;
        if self.rng.chance(self.config.drop_response_rate) {
            self.tally.dropped_responses += 1;
            return Err(self.break_link("response lost after delivery"));
        }
        if self.rng.chance(self.config.corrupt_rate) {
            self.tally.corrupted += 1;
            faults_injected().inc();
            // Re-encode the reply, flip one bit, and decode: the checksum
            // (or framing) must catch it, surfacing a typed codec error —
            // never a silently different answer.
            let mut frame = reply.encode_frame();
            let pos = self.rng.below(frame.len() as u64) as usize;
            let bit = self.rng.below(8) as u8;
            frame[pos] ^= 1 << bit;
            return match Message::decode_frame(&frame) {
                // A flip the codec can't distinguish from a valid frame
                // would be a checksum collision; with CRC32 over the whole
                // frame a single-bit flip is always caught.
                Ok(m) => Ok(m),
                Err(e) => Err(e.into()),
            };
        }
        Ok(reply)
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }

    fn reconnect(&mut self) -> Result<(), CoreError> {
        self.inner.reconnect()?;
        self.broken = false;
        Ok(())
    }
}

// ------------------------------------------------------------ chaos proxy --

/// Byte-stream fault probabilities for [`ChaosProxy`], applied per chunk
/// pumped in either direction.
#[derive(Debug, Clone)]
pub struct ProxyFaults {
    /// RNG seed (each pump thread derives its own stream from it).
    pub seed: u64,
    /// Probability a chunk triggers a connection cut.
    pub cut_rate: f64,
    /// Probability one bit of a chunk is flipped.
    pub corrupt_rate: f64,
    /// Probability a chunk is delayed by [`ProxyFaults::stall`].
    pub stall_rate: f64,
    /// Injected per-chunk delay for stall faults.
    pub stall: Duration,
}

impl ProxyFaults {
    /// A transparent proxy: no faults.
    pub fn none(seed: u64) -> ProxyFaults {
        ProxyFaults {
            seed,
            cut_rate: 0.0,
            corrupt_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::from_millis(1),
        }
    }
}

/// A TCP forwarder between clients and an upstream server that injects
/// byte-level faults. The upstream can be swapped at runtime
/// ([`ChaosProxy::set_upstream`]) so a client holding the proxy address can
/// survive a server restart on a new port — the serve→kill→reconnect smoke
/// test in CI drives exactly that.
pub struct ChaosProxy {
    addr: SocketAddr,
    upstream: Arc<Mutex<SocketAddr>>,
    faults: ProxyFaults,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts forwarding to `upstream`.
    pub fn start(upstream: SocketAddr, faults: ProxyFaults) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let upstream = Arc::new(Mutex::new(upstream));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let upstream = Arc::clone(&upstream);
            let stop = Arc::clone(&stop);
            let faults = faults.clone();
            thread::spawn(move || {
                let mut conn_seq: u64 = 0;
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(client) = conn else { continue };
                    conn_seq += 1;
                    let target = match upstream.lock() {
                        Ok(guard) => *guard,
                        Err(poisoned) => *poisoned.into_inner(),
                    };
                    let Ok(server) = TcpStream::connect_timeout(&target, Duration::from_secs(2))
                    else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    spawn_pumps(client, server, &faults, conn_seq, &stop);
                }
            })
        };
        Ok(ChaosProxy {
            addr,
            upstream,
            faults,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address — what clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Re-points new connections at a different upstream (existing pumps
    /// keep their old peer until they die).
    pub fn set_upstream(&self, upstream: SocketAddr) {
        match self.upstream.lock() {
            Ok(mut guard) => *guard = upstream,
            Err(poisoned) => *poisoned.into_inner() = upstream,
        }
    }

    /// The configured fault schedule.
    pub fn faults(&self) -> &ProxyFaults {
        &self.faults
    }

    /// Stops accepting and joins the accept thread. Live pump threads wind
    /// down on their own once either side closes.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// Starts the two pump threads for one proxied connection. Each direction
/// gets its own RNG stream derived from the seed and connection number, so
/// fault placement is deterministic per (seed, connection, direction).
fn spawn_pumps(
    client: TcpStream,
    server: TcpStream,
    faults: &ProxyFaults,
    conn_seq: u64,
    stop: &Arc<AtomicBool>,
) {
    let c2 = match client.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let s2 = match server.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    for (src, dst, dir) in [(client, s2, 0u64), (server, c2, 1u64)] {
        let faults = faults.clone();
        let stop = Arc::clone(stop);
        let seed = faults
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(conn_seq * 2 + dir);
        thread::spawn(move || pump(src, dst, faults, SplitMix64::new(seed), stop));
    }
}

/// Copies bytes `src` → `dst`, rolling the fault dice per chunk. Returns
/// (closing both directions) on EOF, error, cut fault, or proxy shutdown.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    faults: ProxyFaults,
    mut rng: SplitMix64,
    stop: Arc<AtomicBool>,
) {
    // Short read timeouts keep the pump responsive to shutdown.
    let _ = src.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if rng.chance(faults.stall_rate) {
            faults_injected().inc();
            thread::sleep(faults.stall);
        }
        if rng.chance(faults.cut_rate) {
            faults_injected().inc();
            // A mid-stream cut: possibly forward a partial prefix first,
            // then kill the connection — the peer sees a truncated frame.
            let keep = rng.below(n as u64 + 1) as usize;
            if keep > 0 {
                let _ = dst.write_all(&buf[..keep]);
                let _ = dst.flush();
            }
            break;
        }
        if rng.chance(faults.corrupt_rate) {
            faults_injected().inc();
            let pos = rng.below(n as u64) as usize;
            let bit = rng.below(8) as u8;
            buf[pos] ^= 1 << bit;
        }
        if dst.write_all(&buf[..n]).and_then(|()| dst.flush()).is_err() {
            break;
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // Different seeds diverge immediately.
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
        // f64 draws stay in [0, 1).
        let mut d = SplitMix64::new(7);
        for _ in 0..1000 {
            let f = d.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_edges() {
        let mut r = SplitMix64::new(1);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
        assert_eq!(r.below(0), 0);
        for _ in 0..100 {
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn fault_schedule_is_seed_deterministic() {
        // Two RNGs with the same seed roll the same faults in the same
        // order — the property the chaos suite depends on.
        let cfg = FaultConfig::uniform(99, 0.3);
        let mut a = SplitMix64::new(cfg.seed);
        let mut b = SplitMix64::new(cfg.seed);
        let rolls_a: Vec<bool> = (0..64).map(|_| a.chance(0.3)).collect();
        let rolls_b: Vec<bool> = (0..64).map(|_| b.chance(0.3)).collect();
        assert_eq!(rolls_a, rolls_b);
        assert!(rolls_a.iter().any(|&x| x));
        assert!(rolls_a.iter().any(|&x| !x));
    }
}
