//! The always-on flight recorder: a lock-free ring of recent structured
//! events, from scratch (no external crates, per repo policy).
//!
//! Logs answer "what happened?"; metrics answer "how much?"; neither
//! answers "what happened *just before* the incident?". The recorder
//! keeps the last [`CAPACITY`] operationally interesting events —
//! admissions, sheds, Busy replies, checkpoint begin/end, slow WAL
//! fsyncs, pool-pressure evictions, slow queries, accept errors — in a
//! fixed-size ring that writers never block on and that costs nothing to
//! carry when nobody looks at it. Two consumers read it: the `FlightReq`
//! wire frame (`exq debug --addr`) dumps it as JSON lines from a live
//! server, and the panic hook dumps it to stderr so a crashing server
//! leaves its last seconds behind.
//!
//! ## Lock-free design
//!
//! Writers claim a ticket from a global atomic counter; the ticket picks
//! a slot (`ticket % CAPACITY`) and doubles as the slot's generation
//! stamp. Each slot is a seqlock of plain `AtomicU64` words (no
//! `unsafe`): the writer stores an *odd* stamp, writes the payload
//! words, then stores the *even* stamp `(ticket + 1) << 1` — SeqCst
//! fences on both sides order the payload against the stamps. A reader
//! loads the stamp, copies the payload, fences, and re-loads the stamp:
//! any mismatch or odd value means a concurrent writer and the slot is
//! skipped. Torn events are therefore *detected and dropped*, never
//! emitted. Memory is `CAPACITY` slots of 8 words + a stamp — fixed at
//! init, bounded forever.
//!
//! Event timestamps are microseconds since the recorder's first use;
//! [`dump_json`] reports the Unix-epoch microseconds of that instant so
//! consumers can reconstruct absolute times.

use crate::telemetry;
use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Ring capacity (power of two). 512 events of ~72 bytes ≈ 36 KiB —
/// small enough to be always-on, deep enough to cover the seconds before
/// an incident at realistic event rates.
pub const CAPACITY: usize = 512;

/// Bytes of the db name stored inline per event (longer names truncate;
/// db ids are ≤ 63 bytes, and the first 24 identify them in practice).
pub const DB_BYTES: usize = 24;

/// What happened. The discriminant is stored in the slot and must stay
/// stable across versions (dump output is consumed by tooling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A request passed admission control. `a` = global in-flight after.
    Admit = 1,
    /// Admission shed a request. `a` = global in-flight, `b` = db cap.
    Shed = 2,
    /// A Busy reply went out (shed, deadline miss, or full event-loop
    /// queue). `a` = retry-after ms.
    Busy = 3,
    /// A checkpoint began. `a` = WAL depth entering the fold.
    CheckpointBegin = 4,
    /// A checkpoint committed. `a` = pages folded, `b` = duration µs.
    CheckpointEnd = 5,
    /// A WAL fsync exceeded [`FSYNC_SLOW_NANOS`]. `a` = bytes, `b` = µs.
    WalFsyncSlow = 6,
    /// Pool evictions under pressure (sampled: one event per
    /// [`EVICT_SAMPLE`] evictions). `a` = total evictions so far.
    EvictPressure = 7,
    /// A dispatched request crossed the slow threshold. `a` = µs,
    /// `b` = pages faulted, `c` = blocks shipped.
    SlowQuery = 8,
    /// `accept(2)` failed and the listener backed off. `a` = consecutive
    /// errors.
    AcceptError = 9,
    /// A db's health dropped after a storage fault. `a` = new health
    /// (1 = degraded read-only, 2 = faulted).
    Degraded = 10,
    /// A degraded db's storage probe succeeded; back to healthy.
    /// `a` = milliseconds spent degraded (0 when unknown).
    Recovered = 11,
    /// The scrubber quarantined and rebuilt corrupt pages. `a` = records
    /// repaired, `b` = pages quarantined, `c` = records lost (unrepairable).
    ScrubRepair = 12,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Admit => "admit",
            Kind::Shed => "shed",
            Kind::Busy => "busy",
            Kind::CheckpointBegin => "checkpoint_begin",
            Kind::CheckpointEnd => "checkpoint_end",
            Kind::WalFsyncSlow => "wal_fsync_slow",
            Kind::EvictPressure => "evict_pressure",
            Kind::SlowQuery => "slow_query",
            Kind::AcceptError => "accept_error",
            Kind::Degraded => "degraded",
            Kind::Recovered => "recovered",
            Kind::ScrubRepair => "scrub_repair",
        }
    }

    fn from_code(code: u64) -> Option<Kind> {
        Some(match code {
            1 => Kind::Admit,
            2 => Kind::Shed,
            3 => Kind::Busy,
            4 => Kind::CheckpointBegin,
            5 => Kind::CheckpointEnd,
            6 => Kind::WalFsyncSlow,
            7 => Kind::EvictPressure,
            8 => Kind::SlowQuery,
            9 => Kind::AcceptError,
            10 => Kind::Degraded,
            11 => Kind::Recovered,
            12 => Kind::ScrubRepair,
            _ => return None,
        })
    }

    /// Names for the generic `a`/`b`/`c` payload words, per kind, so the
    /// JSON dump is self-describing. `None` omits the field.
    fn arg_names(self) -> [Option<&'static str>; 3] {
        match self {
            Kind::Admit => [Some("inflight"), None, None],
            Kind::Shed => [Some("inflight"), Some("cap"), None],
            Kind::Busy => [Some("retry_after_ms"), None, None],
            Kind::CheckpointBegin => [Some("wal_depth"), None, None],
            Kind::CheckpointEnd => [Some("pages_folded"), Some("dur_us"), None],
            Kind::WalFsyncSlow => [Some("bytes"), Some("dur_us"), None],
            Kind::EvictPressure => [Some("evictions_total"), None, None],
            Kind::SlowQuery => [Some("dur_us"), Some("pages_faulted"), Some("blocks")],
            Kind::AcceptError => [Some("consecutive"), None, None],
            Kind::Degraded => [Some("health"), None, None],
            Kind::Recovered => [Some("degraded_ms"), None, None],
            Kind::ScrubRepair => [Some("repaired"), Some("quarantined"), Some("lost")],
        }
    }
}

/// WAL fsyncs slower than this get a [`Kind::WalFsyncSlow`] event (5 ms:
/// an order of magnitude past a healthy commit on local storage).
pub const FSYNC_SLOW_NANOS: u64 = 5_000_000;

/// One [`Kind::EvictPressure`] event per this many evictions — steady
/// thrash is one line per batch instead of flooding the ring.
pub const EVICT_SAMPLE: u64 = 64;

/// Payload words per slot: timestamp, kind|db_len, 3 words of db name,
/// a, b, c.
const WORDS: usize = 8;
const W_TS: usize = 0;
const W_META: usize = 1;
const W_DB0: usize = 2; // ..W_DB0+3
const W_A: usize = 5;
const W_B: usize = 6;
const W_C: usize = 7;

struct Slot {
    /// 0 = never written; odd = write in progress; even `(t + 1) << 1` =
    /// ticket `t`'s event is complete.
    stamp: AtomicU64,
    words: [AtomicU64; WORDS],
}

struct Recorder {
    slots: Vec<Slot>,
    head: AtomicU64,
    /// Unix-epoch µs at init; event timestamps are µs since `epoch`.
    epoch_unix_us: u64,
    epoch: Instant,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        slots: (0..CAPACITY)
            .map(|_| Slot {
                stamp: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect(),
        head: AtomicU64::new(0),
        epoch_unix_us: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0),
        epoch: Instant::now(),
    })
}

/// Records one event. Lock-free and wait-free apart from the one
/// `fetch_add`; safe from any thread, including under the frame lock of a
/// buffer pool. Gated on the telemetry master switch so the telemetry-off
/// configuration measures a true zero-instrumentation baseline.
pub fn event(kind: Kind, db: &str, a: u64, b: u64, c: u64) {
    if !telemetry::enabled() {
        return;
    }
    let r = recorder();
    let ticket = r.head.fetch_add(1, Ordering::Relaxed);
    let slot = &r.slots[(ticket as usize) & (CAPACITY - 1)];
    let ts = r.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64;

    let name = db.as_bytes();
    let db_len = name.len().min(DB_BYTES);
    let mut db_words = [0u64; 3];
    for (i, &byte) in name[..db_len].iter().enumerate() {
        db_words[i / 8] |= (byte as u64) << ((i % 8) * 8);
    }

    // Seqlock write: odd stamp → payload → even stamp, fenced so the
    // payload cannot be observed outside the odd window.
    slot.stamp.store(((ticket + 1) << 1) - 1, Ordering::SeqCst);
    fence(Ordering::SeqCst);
    slot.words[W_TS].store(ts, Ordering::Relaxed);
    slot.words[W_META].store(kind as u64 | ((db_len as u64) << 8), Ordering::Relaxed);
    for (i, w) in db_words.iter().enumerate() {
        slot.words[W_DB0 + i].store(*w, Ordering::Relaxed);
    }
    slot.words[W_A].store(a, Ordering::Relaxed);
    slot.words[W_B].store(b, Ordering::Relaxed);
    slot.words[W_C].store(c, Ordering::Relaxed);
    fence(Ordering::SeqCst);
    slot.stamp.store((ticket + 1) << 1, Ordering::SeqCst);
}

/// Sampled eviction-pressure event: call on every eviction with the
/// running total; emits once per [`EVICT_SAMPLE`].
pub fn evict_pressure(total_evictions: u64) {
    if total_evictions.is_multiple_of(EVICT_SAMPLE) {
        event(Kind::EvictPressure, "", total_evictions, 0, 0);
    }
}

/// One decoded event (consistent snapshot of a slot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (older events have smaller numbers; gaps
    /// mean the ring lapped).
    pub seq: u64,
    /// Microseconds since the recorder epoch.
    pub ts_us: u64,
    pub kind: Kind,
    pub db: String,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

fn read_slot(slot: &Slot) -> Option<Event> {
    let s1 = slot.stamp.load(Ordering::SeqCst);
    if s1 == 0 || s1 & 1 == 1 {
        return None;
    }
    let mut words = [0u64; WORDS];
    for (i, w) in words.iter_mut().enumerate() {
        *w = slot.words[i].load(Ordering::Relaxed);
    }
    fence(Ordering::SeqCst);
    if slot.stamp.load(Ordering::SeqCst) != s1 {
        return None; // torn: a writer raced the copy
    }
    let meta = words[W_META];
    let kind = Kind::from_code(meta & 0xFF)?;
    let db_len = ((meta >> 8) & 0xFF) as usize;
    if db_len > DB_BYTES {
        return None;
    }
    let mut db = Vec::with_capacity(db_len);
    for i in 0..db_len {
        db.push(((words[W_DB0 + i / 8] >> ((i % 8) * 8)) & 0xFF) as u8);
    }
    Some(Event {
        seq: (s1 >> 1) - 1,
        ts_us: words[W_TS],
        kind,
        db: String::from_utf8_lossy(&db).into_owned(),
        a: words[W_A],
        b: words[W_B],
        c: words[W_C],
    })
}

/// A consistent snapshot of the ring, oldest first. Slots a writer is
/// mid-update on are skipped — the dump never contains a torn event.
pub fn snapshot() -> Vec<Event> {
    let r = recorder();
    let mut out: Vec<Event> = r.slots.iter().filter_map(read_slot).collect();
    out.sort_by_key(|e| e.seq);
    out
}

/// JSON string escaping for db names (which validated ids never need, but
/// the dump must stay parseable whatever ended up in the ring).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn event_json(e: &Event, epoch_unix_us: u64) -> String {
    let mut line = format!(
        "{{\"seq\":{},\"unix_us\":{},\"event\":\"{}\"",
        e.seq,
        epoch_unix_us.saturating_add(e.ts_us),
        e.kind.name()
    );
    if !e.db.is_empty() {
        let _ = write!(line, ",\"db\":\"{}\"", escape_json(&e.db));
    }
    for (name, value) in e.kind.arg_names().iter().zip([e.a, e.b, e.c]) {
        if let Some(name) = name {
            let _ = write!(line, ",\"{name}\":{value}");
        }
    }
    line.push('}');
    line
}

/// The ring as JSON lines, oldest event first — the payload of the
/// `FlightDump` wire reply and of the panic-hook dump.
pub fn dump_json() -> String {
    let epoch = recorder().epoch_unix_us;
    let mut out = String::new();
    for e in snapshot() {
        out.push_str(&event_json(&e, epoch));
        out.push('\n');
    }
    out
}

/// Validates that `text` is well-formed JSON lines: every non-empty line
/// parses as one self-contained JSON value. Returns the line count.
/// Shared by `exq debug --check` and the test suite so validation needs
/// no external JSON dependency.
pub fn validate_json_lines(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rest = json_value(line.trim()).map_err(|e| format!("line {}: {e}", i + 1))?;
        if !rest.trim_start().is_empty() {
            return Err(format!("line {}: trailing garbage after value", i + 1));
        }
        n += 1;
    }
    Ok(n)
}

/// Minimal recursive-descent JSON checker: consumes one value from the
/// front of `s`, returning the unconsumed tail.
fn json_value(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    let mut chars = s.char_indices();
    match chars.next().map(|(_, c)| c) {
        Some('{') => json_sequence(&s[1..], '}', true),
        Some('[') => json_sequence(&s[1..], ']', false),
        Some('"') => json_string(s).map(|(rest, _)| rest),
        Some('t') => s.strip_prefix("true").ok_or("bad literal".to_string()),
        Some('f') => s.strip_prefix("false").ok_or("bad literal".to_string()),
        Some('n') => s.strip_prefix("null").ok_or("bad literal".to_string()),
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(s.len());
            s[..end]
                .parse::<f64>()
                .map_err(|_| format!("bad number `{}`", &s[..end]))?;
            Ok(&s[end..])
        }
        Some(c) => Err(format!("unexpected `{c}`")),
        None => Err("empty value".to_string()),
    }
}

/// Consumes `{…}` / `[…]` bodies after the opening bracket.
fn json_sequence(mut s: &str, close: char, keyed: bool) -> Result<&str, String> {
    s = s.trim_start();
    if let Some(rest) = s.strip_prefix(close) {
        return Ok(rest);
    }
    loop {
        if keyed {
            let (rest, _) = json_string(s.trim_start())?;
            s = rest.trim_start();
            s = s.strip_prefix(':').ok_or("missing `:`".to_string())?;
        }
        s = json_value(s)?.trim_start();
        if let Some(rest) = s.strip_prefix(',') {
            s = rest.trim_start();
            continue;
        }
        return s
            .strip_prefix(close)
            .ok_or_else(|| format!("missing `{close}`"));
    }
}

/// Consumes one JSON string (opening quote included in `s`).
fn json_string(s: &str) -> Result<(&str, &str), String> {
    let body = s.strip_prefix('"').ok_or("expected string".to_string())?;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Ok((&body[i + c.len_utf8()..], &body[..i]));
        }
    }
    Err("unterminated string".to_string())
}

/// Installs a panic hook that dumps the flight recorder to stderr before
/// chaining to the previous hook — a crashing server leaves its last
/// seconds of history in the log. Idempotent per process.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let dump = dump_json();
            if dump.is_empty() {
                eprintln!("[exq:flight] recorder empty at panic");
            } else {
                eprintln!(
                    "[exq:flight] last {} event(s) before panic:",
                    dump.lines().count()
                );
                eprint!("{dump}");
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roundtrip_through_the_ring() {
        event(Kind::Shed, "orders", 7, 3, 0);
        event(
            Kind::CheckpointEnd,
            "a-db-name-longer-than-twenty-four-bytes",
            12,
            900,
            0,
        );
        let snap = snapshot();
        let shed = snap
            .iter()
            .rfind(|e| e.kind == Kind::Shed && e.db == "orders");
        let shed = shed.expect("shed event present");
        assert_eq!((shed.a, shed.b), (7, 3));
        let ckpt = snap
            .iter()
            .rfind(|e| e.kind == Kind::CheckpointEnd)
            .expect("checkpoint event present");
        assert_eq!(
            ckpt.db, "a-db-name-longer-than-tw",
            "name truncates at {DB_BYTES}"
        );
        let dump = dump_json();
        let lines = validate_json_lines(&dump).expect("dump is valid JSON lines");
        assert!(lines >= 2);
        assert!(dump.contains("\"event\":\"shed\""));
        assert!(dump.contains("\"inflight\":7"));
    }

    #[test]
    fn ring_is_bounded() {
        for i in 0..(CAPACITY as u64 * 3) {
            event(Kind::Admit, "x", i, 0, 0);
        }
        let snap = snapshot();
        assert!(snap.len() <= CAPACITY);
        // Sequence numbers strictly increase within a snapshot.
        for pair in snap.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn json_lines_validator_accepts_and_rejects() {
        assert_eq!(
            validate_json_lines("{\"a\":1}\n{\"b\":[1,2,{\"c\":\"x\"}]}\n").unwrap(),
            2
        );
        assert_eq!(validate_json_lines("").unwrap(), 0);
        assert_eq!(validate_json_lines("null\n-1.5e3\n\"str\"\n").unwrap(), 3);
        assert!(validate_json_lines("{\"a\":1} trailing\n").is_err());
        assert!(validate_json_lines("{\"a\":}\n").is_err());
        assert!(validate_json_lines("{\"a\" 1}\n").is_err());
        assert!(validate_json_lines("\"unterminated\n").is_err());
        assert!(validate_json_lines("[1,2\n").is_err());
    }

    #[test]
    fn escaped_db_names_stay_parseable() {
        event(Kind::Busy, "we\"ird\\db", 100, 0, 0);
        let dump = dump_json();
        validate_json_lines(&dump).expect("escaped name parses");
        assert!(dump.contains("we\\\"ird\\\\db"));
    }
}
