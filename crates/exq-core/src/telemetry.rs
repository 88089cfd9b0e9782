//! Self-contained observability: a sharded metrics registry, query-scoped
//! trace spans, and exporters — no external crates, matching repo policy.
//!
//! Three layers:
//!
//! * **Metrics registry** — named [`Counter`]s, [`Gauge`]s, and log2-bucketed
//!   latency [`Histogram`]s behind atomics, global and shared across the
//!   process. Lookups hash the name to one of 8 `RwLock`'d shards; hot paths
//!   cache the returned `Arc` handle so steady-state cost is a relaxed
//!   atomic add. Memory is bounded by the set of distinct metric names (all
//!   compile-time constants in this codebase): a histogram is 64 buckets +
//!   count + sum = 528 bytes, counters/gauges 8 bytes each.
//!
//! * **Trace spans** — a query begins a trace ([`begin_trace`]) holding a
//!   thread-local span collector; [`span`] (RAII, self-timed) and
//!   [`record_span`] (externally measured duration, guaranteed equal to the
//!   reported stat) append [`SpanRec`]s to it. Collectors stack: a server
//!   dispatch on the *same* thread (the in-process transport) pushes a fresh
//!   shielded collector, so client and server spans never interleave. The
//!   trace id crosses the wire in the frame header; server spans return
//!   inside the response and are re-parented under the client's roundtrip
//!   span by [`adopt_spans`], stitching one tree. Span `start_ns` offsets
//!   are relative to each side's own trace epoch (no clock sync assumed);
//!   durations are exact.
//!
//! * **Exporters** — a JSON-lines trace sink ([`set_trace_out`]), a
//!   Prometheus-style text exposition ([`render`]), a leveled stderr logger
//!   ([`log`]/[`set_log_level`]) keeping stdout clean for machine-readable
//!   output, and a slow-query log ([`set_slow_ms`]).
//!
//! [`set_enabled`] (or `EXQ_TELEMETRY=0`) turns span recording off for
//! overhead measurement (experiment e17); counters stay on — they are
//! single atomic adds.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- metrics --

/// Number of registry shards; name-hash picks the shard.
const SHARDS: usize = 8;

/// Histogram bucket count: bucket `i` holds observations with
/// `floor(log2(nanos)) == i`, spanning the full `u64` nanosecond range.
pub const HIST_BUCKETS: usize = 64;

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log2-bucketed latency histogram over nanoseconds. The invariant the
/// concurrency tests pin down: the sum of bucket counts always equals the
/// observation count.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

/// `floor(log2(nanos))` with 0 mapped to bucket 0.
fn bucket_index(nanos: u64) -> usize {
    63 - nanos.max(1).leading_zeros() as usize
}

/// Inclusive upper bound of bucket `i` in nanoseconds.
fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

impl Histogram {
    pub fn observe(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket counters.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Quantile estimate (`0.0..=1.0`): the upper bound of the bucket where
    /// the cumulative count crosses `q * total`. Resolution is one octave —
    /// plenty for p50/p90/p99 dashboards.
    pub fn quantile(&self, q: f64) -> Duration {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut acc = 0u64;
        for (i, c) in counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Duration::from_nanos(bucket_upper(i));
            }
        }
        Duration::from_nanos(bucket_upper(HIST_BUCKETS - 1))
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Sharded name → metric map. One global instance lives behind
/// [`registry`]; separate instances exist only in tests.
#[derive(Debug, Default)]
pub struct Registry {
    shards: [RwLock<HashMap<String, Metric>>; SHARDS],
}

/// FNV-1a; no need for DoS resistance — names are compile-time constants.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let shard = &self.shards[shard_of(name)];
        if let Some(m) = shard.read().expect("registry shard").get(name) {
            return m.clone();
        }
        let mut w = shard.write().expect("registry shard");
        w.entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Panics if `name` is already registered as a different kind —
    /// metric names are compile-time constants, so that is a programming
    /// error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::default()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Removes every series carrying this database's `{db="…"}` label —
    /// called when a database is dropped, so its gauges and counters stop
    /// exporting their last values forever. Handles still held by live
    /// objects keep counting privately; they are simply no longer
    /// rendered. Returns the number of series removed.
    pub fn remove_db_series(&self, db: &str) -> usize {
        let suffix = format!("{{db=\"{}\"}}", escape_label(db));
        let mut removed = 0;
        for shard in &self.shards {
            let mut w = shard.write().expect("registry shard");
            let before = w.len();
            w.retain(|name, _| !name.ends_with(&suffix));
            removed += before - w.len();
        }
        removed
    }

    /// Prometheus-style text exposition, sorted by name so the output is
    /// diffable: one `# TYPE` line per metric family, then its series. A
    /// histogram writes cumulative `_bucket` rows (seconds) and
    /// `_sum`/`_count`; a labelled one (`name{db="…"}`) carries its labels
    /// on every row, `le` last.
    pub fn render(&self) -> String {
        let mut entries: Vec<(String, Metric)> = Vec::new();
        for shard in &self.shards {
            let guard = shard.read().expect("registry shard");
            entries.extend(guard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        let mut typed = "";
        for (name, metric) in &entries {
            // Family names never hold `{`, so the first one opens the labels.
            let (family, labels) = match name.split_once('{') {
                Some((family, rest)) => (family, rest.strip_suffix('}').unwrap_or(rest)),
                None => (name.as_str(), ""),
            };
            if family != typed {
                out.push_str(&format!("# TYPE {family} {}\n", metric.kind()));
                typed = family;
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Metric::Histogram(h) => {
                    let (braced, le_lead) = if labels.is_empty() {
                        (String::new(), String::new())
                    } else {
                        (format!("{{{labels}}}"), format!("{labels},"))
                    };
                    let mut acc = 0u64;
                    for (i, c) in h.bucket_counts().iter().enumerate() {
                        if *c == 0 {
                            continue;
                        }
                        acc += c;
                        let le = bucket_upper(i) as f64 / 1e9;
                        out.push_str(&format!("{family}_bucket{{{le_lead}le=\"{le}\"}} {acc}\n"));
                    }
                    out.push_str(&format!("{family}_bucket{{{le_lead}le=\"+Inf\"}} {acc}\n"));
                    out.push_str(&format!(
                        "{family}_sum{braced} {}\n{family}_count{braced} {}\n",
                        h.sum_nanos() as f64 / 1e9,
                        h.count()
                    ));
                }
            }
        }
        out
    }
}

/// The process-global registry. First access also applies the
/// `EXQ_TELEMETRY` environment knob (`0`/`off`/`false` disable spans).
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        if let Ok(v) = std::env::var("EXQ_TELEMETRY") {
            if matches!(v.as_str(), "0" | "off" | "false") {
                set_enabled(false);
            }
        }
        Registry::new()
    })
}

pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

pub fn histogram(name: &str) -> Arc<Histogram> {
    registry().histogram(name)
}

/// Renders the global registry's Prometheus-style exposition.
pub fn render() -> String {
    registry().render()
}

/// Escapes a string for use as a Prometheus label *value*: backslash,
/// double quote, and newline are backslash-escaped exactly as the
/// exposition format requires. The escaping is injective, so two distinct
/// db ids can never collide into one series name (`a"}` vs `a\"}` stay
/// distinct) and the rendered exposition stays parseable whatever the
/// label contains.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// The canonical name of a per-database series: `name{db="<escaped id>"}`.
/// Every per-db metric in the codebase is built through this helper, which
/// is what lets [`remove_db_series`] find them all by suffix when a
/// database is dropped.
pub fn db_series(name: &str, db: &str) -> String {
    format!("{name}{{db=\"{}\"}}", escape_label(db))
}

/// Removes this database's per-db series from the global registry.
pub fn remove_db_series(db: &str) -> usize {
    registry().remove_db_series(db)
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Master switch for span recording (traces + span histograms). Counters
/// are unaffected — they are single atomic adds.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ----------------------------------------------------------------- traces --

/// Which end of the wire produced a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Client,
    Server,
}

impl Side {
    pub fn as_str(&self) -> &'static str {
        match self {
            Side::Client => "client",
            Side::Server => "server",
        }
    }
}

/// One completed span. `parent == 0` means root (within its side before
/// stitching). `start_ns` is relative to the owning side's trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub side: Side,
    pub start_ns: u64,
    pub dur_ns: u64,
}

struct ActiveTrace {
    trace: u64,
    side: Side,
    /// Current parent span id for new spans (0 at trace root).
    parent: u64,
    spans: Vec<SpanRec>,
    epoch: Instant,
}

thread_local! {
    /// Stack of active collectors: the in-process transport dispatches the
    /// server on the client's thread, and the pushed server collector
    /// shields the client's so spans never interleave.
    static TRACES: RefCell<Vec<ActiveTrace>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide id source, seeded from the OS randomness behind
/// `RandomState`: ids must be distinct across processes with no
/// coordination, and every frame carries one to the untrusted server, so
/// the seed must say nothing about this process (no pid, no start time).
fn id_source() -> &'static AtomicU64 {
    static SRC: OnceLock<AtomicU64> = OnceLock::new();
    SRC.get_or_init(|| {
        use std::hash::BuildHasher;
        let seed = std::collections::hash_map::RandomState::new().hash_one(0u64);
        AtomicU64::new(seed | 1)
    })
}

/// Fresh nonzero id, for traces, spans and requests alike; golden-ratio
/// stride keeps ids spread.
pub(crate) fn fresh_id() -> u64 {
    let v = id_source().fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    if v == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        v
    }
}

/// Allocates a new trace id (client-side, at query entry).
pub fn new_trace_id() -> u64 {
    fresh_id()
}

/// Trace id of this thread's innermost active collector; 0 when untraced.
/// This is what transports stamp into the frame header.
pub fn current_trace() -> u64 {
    TRACES.with(|t| t.borrow().last().map(|a| a.trace).unwrap_or(0))
}

/// RAII handle for an active trace; [`TraceScope::finish`] yields the
/// collected spans. Dropping without finishing discards them.
pub struct TraceScope {
    pushed: bool,
    done: bool,
}

/// Pushes a span collector for `trace` onto this thread's stack. A `trace`
/// of 0 (untraced peer) yields an inert scope that collects nothing.
pub fn begin_trace(trace: u64, side: Side) -> TraceScope {
    if trace == 0 || !enabled() {
        return TraceScope {
            pushed: false,
            done: false,
        };
    }
    TRACES.with(|t| {
        t.borrow_mut().push(ActiveTrace {
            trace,
            side,
            parent: 0,
            spans: Vec::new(),
            epoch: Instant::now(),
        })
    });
    TraceScope {
        pushed: true,
        done: false,
    }
}

impl TraceScope {
    /// True when this scope actually collects spans.
    pub fn is_active(&self) -> bool {
        self.pushed
    }

    /// Pops the collector and returns its spans.
    pub fn finish(mut self) -> Vec<SpanRec> {
        self.done = true;
        if !self.pushed {
            return Vec::new();
        }
        TRACES
            .with(|t| t.borrow_mut().pop())
            .map(|a| a.spans)
            .unwrap_or_default()
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.pushed && !self.done {
            TRACES.with(|t| {
                t.borrow_mut().pop();
            });
        }
    }
}

fn observe_span_metric(name: &str, dur: Duration) {
    let mut metric = String::with_capacity(9 + name.len());
    metric.push_str("exq_span_");
    metric.extend(name.chars().map(|c| if c == '.' { '_' } else { c }));
    histogram(&metric).observe_duration(dur);
}

/// Records a span with an externally measured duration — used where the
/// code already times a phase, so the span duration and the reported stat
/// are the *same* number. Feeds the span histogram even when no trace is
/// active; appends a [`SpanRec`] only under an active trace. The span's
/// start is back-dated `dur` from now.
pub fn record_span(name: &str, dur: Duration) {
    if !enabled() {
        return;
    }
    observe_span_metric(name, dur);
    TRACES.with(|t| {
        let mut t = t.borrow_mut();
        if let Some(active) = t.last_mut() {
            let end = active.epoch.elapsed();
            let start = end.checked_sub(dur).unwrap_or(Duration::ZERO);
            let rec = SpanRec {
                trace: active.trace,
                id: fresh_id(),
                parent: active.parent,
                name: name.to_owned(),
                side: active.side,
                start_ns: start.as_nanos().min(u64::MAX as u128) as u64,
                dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
            };
            active.spans.push(rec);
        }
    });
}

/// Self-timing RAII span: times from construction to drop and becomes the
/// parent of spans recorded while it is live.
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    id: u64,
    /// Whether a collector was active at construction (and we became its
    /// current parent).
    active: bool,
    prev_parent: u64,
}

/// Opens a self-timed span. Cheap no-op (one atomic load, one `Instant`)
/// when telemetry is disabled or no trace is active.
pub fn span(name: &'static str) -> SpanGuard {
    let mut g = SpanGuard {
        name,
        start: Instant::now(),
        id: 0,
        active: false,
        prev_parent: 0,
    };
    if enabled() {
        TRACES.with(|t| {
            if let Some(a) = t.borrow_mut().last_mut() {
                g.id = fresh_id();
                g.active = true;
                g.prev_parent = a.parent;
                a.parent = g.id;
            }
        });
    }
    g
}

impl SpanGuard {
    /// Span id (0 when no trace was active), used to re-parent adopted
    /// remote spans under this span.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        if !enabled() {
            return;
        }
        observe_span_metric(self.name, dur);
        if !self.active {
            return;
        }
        TRACES.with(|t| {
            let mut t = t.borrow_mut();
            if let Some(a) = t.last_mut() {
                a.parent = self.prev_parent;
                let end = a.epoch.elapsed();
                let start = end.checked_sub(dur).unwrap_or(Duration::ZERO);
                let rec = SpanRec {
                    trace: a.trace,
                    id: self.id,
                    parent: self.prev_parent,
                    name: self.name.to_owned(),
                    side: a.side,
                    start_ns: start.as_nanos().min(u64::MAX as u128) as u64,
                    dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
                };
                a.spans.push(rec);
            }
        });
    }
}

/// Merges spans returned by the peer into this thread's active trace,
/// re-writing their trace id and hanging their roots (`parent == 0`) under
/// `parent` — typically the roundtrip span. No-op when untraced.
pub fn adopt_spans(spans: &[SpanRec], parent: u64) {
    if spans.is_empty() {
        return;
    }
    TRACES.with(|t| {
        let mut t = t.borrow_mut();
        if let Some(a) = t.last_mut() {
            for s in spans {
                let mut s = s.clone();
                s.trace = a.trace;
                if s.parent == 0 {
                    s.parent = parent;
                }
                a.spans.push(s);
            }
        }
    });
}

// -------------------------------------------------------------- exporters --

fn trace_sink() -> &'static Mutex<Option<BufWriter<File>>> {
    static SINK: OnceLock<Mutex<Option<BufWriter<File>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Opens (truncating) a JSON-lines trace sink; every finished trace's spans
/// are appended one JSON object per line.
pub fn set_trace_out(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    *trace_sink().lock().expect("trace sink") = Some(BufWriter::new(file));
    Ok(())
}

/// Flushes and closes the trace sink (mainly for tests).
pub fn clear_trace_out() {
    if let Some(mut w) = trace_sink().lock().expect("trace sink").take() {
        let _ = w.flush();
    }
}

/// True when a trace sink is open.
pub fn trace_out_set() -> bool {
    trace_sink().lock().expect("trace sink").is_some()
}

static TRACE_ALL: AtomicBool = AtomicBool::new(false);

/// Forces per-query trace collection even without a sink — used by the
/// overhead experiment (e17) to measure span machinery without file I/O.
pub fn set_trace_all(on: bool) {
    TRACE_ALL.store(on, Ordering::Relaxed);
}

/// Should a new query start a trace? Yes when telemetry is on and either a
/// sink is open or tracing is forced.
pub fn tracing_wanted() -> bool {
    enabled() && (TRACE_ALL.load(Ordering::Relaxed) || trace_out_set())
}

/// Serializes one span as a JSON object. Span names are code-controlled
/// identifiers (no quotes/backslashes), so no escaping is needed.
pub fn span_json(s: &SpanRec) -> String {
    format!(
        "{{\"trace\":\"{:016x}\",\"id\":\"{:016x}\",\"parent\":\"{:016x}\",\
         \"name\":\"{}\",\"side\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
        s.trace,
        s.id,
        s.parent,
        s.name,
        s.side.as_str(),
        s.start_ns,
        s.dur_ns
    )
}

/// Writes a finished trace's spans to the sink, one JSON line per span.
/// Silently a no-op when no sink is open.
pub fn write_trace(spans: &[SpanRec]) {
    if spans.is_empty() {
        return;
    }
    let mut guard = trace_sink().lock().expect("trace sink");
    if let Some(w) = guard.as_mut() {
        for s in spans {
            let _ = writeln!(w, "{}", span_json(s));
        }
        let _ = w.flush();
    }
}

// ----------------------------------------------------------------- logger --

/// Log severity; `Off` silences everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Off = 0,
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
}

impl Level {
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "off" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

static LOG_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

pub fn log_level() -> Level {
    match LOG_LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        _ => Level::Debug,
    }
}

/// Operational logging goes to **stderr** so stdout stays machine-readable.
pub fn log(level: Level, msg: &str) {
    if level == Level::Off || (level as u8) > LOG_LEVEL.load(Ordering::Relaxed) {
        return;
    }
    eprintln!("[exq:{}] {msg}", level.as_str());
}

// --------------------------------------------------------- query profiles --

/// Per-query resource profile: what one dispatched request actually cost
/// the storage engine. Collected on the serving thread between
/// [`profile_begin`] and [`profile_take`]; the paged-store glue adds what
/// each batch read and WAL append returns as the work happens, so the
/// totals are exact per-request attribution, not sampled estimates. The
/// serve path attaches the profile to the request's trace spans, the
/// slow-query log, and the per-db registry counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryProfile {
    /// Buffer-pool lookups that found the page resident.
    pub pool_hits: u64,
    /// Pages read from disk to satisfy this request (one per pool miss).
    pub pages_faulted: u64,
    /// Pool evictions this request's inserts triggered.
    pub evictions: u64,
    /// Record reads that raced a checkpoint publish and retried.
    pub epoch_retries: u64,
    /// WAL bytes this request appended (mutations only).
    pub wal_bytes: u64,
    /// Store records decoded (sealed blocks, postings, metadata images).
    pub records_decoded: u64,
    /// Sealed blocks shipped in the answer.
    pub blocks_shipped: u64,
    /// Whether the response-cache probe hit.
    pub cache_hit: bool,
}

impl QueryProfile {
    /// The profile as `(span name, raw count)` pairs, for riding a trace
    /// as `profile.*` spans: the count travels in the span's nanosecond
    /// field, so profiles reach the client inside `Answer` spans with no
    /// wire-format change. Consumers (`exq explain`, the reconciliation
    /// test in `tests/telemetry.rs`) read the nanos back as counts.
    pub fn span_fields(&self) -> [(&'static str, u64); 8] {
        [
            ("profile.pool_hits", self.pool_hits),
            ("profile.pages_faulted", self.pages_faulted),
            ("profile.evictions", self.evictions),
            ("profile.epoch_retries", self.epoch_retries),
            ("profile.wal_bytes", self.wal_bytes),
            ("profile.records_decoded", self.records_decoded),
            ("profile.blocks_shipped", self.blocks_shipped),
            ("profile.cache_hit", self.cache_hit as u64),
        ]
    }
}

thread_local! {
    /// The serving thread's active profile. At most one request is
    /// dispatched per thread at a time (the serve path executes a request
    /// start-to-finish on one worker thread), so a single slot suffices.
    static PROFILE: RefCell<Option<QueryProfile>> = const { RefCell::new(None) };
}

/// Starts profile collection on this thread. No-op when telemetry is
/// disabled, so the telemetry-off configuration pays only the master
/// switch's atomic load.
pub fn profile_begin() {
    if !enabled() {
        return;
    }
    PROFILE.with(|p| *p.borrow_mut() = Some(QueryProfile::default()));
}

/// Ends collection and returns the profile (`None` when collection never
/// began — telemetry off, or a thread that isn't serving a request).
pub fn profile_take() -> Option<QueryProfile> {
    PROFILE.with(|p| p.borrow_mut().take())
}

/// Applies `f` to this thread's active profile, if any. The inactive path
/// is a single thread-local borrow — cheap enough for pool hit/miss rates.
pub fn with_profile(f: impl FnOnce(&mut QueryProfile)) {
    PROFILE.with(|p| {
        if let Some(prof) = p.borrow_mut().as_mut() {
            f(prof);
        }
    });
}

// ------------------------------------------------------------- slow query --

static SLOW_NS: AtomicU64 = AtomicU64::new(0);

/// Queries and requests slower than this are logged at `warn`; a server
/// also counts its slow requests in `exq_slow_queries_total`. 0 disables.
pub fn set_slow_ms(ms: u64) {
    SLOW_NS.store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
}

/// Client-side slow-query log: one `warn` line for a query whose
/// client-observed total crossed the threshold.
pub fn note_query(desc: &str, total: Duration, served_from_cache: bool) {
    let threshold = SLOW_NS.load(Ordering::Relaxed);
    let total_ns = total.as_nanos().min(u64::MAX as u128) as u64;
    if threshold > 0 && total_ns >= threshold {
        log(
            Level::Warn,
            &format!(
                "slow query ({:.2} ms{}): {desc}",
                total.as_secs_f64() * 1e3,
                if served_from_cache { ", cached" } else { "" }
            ),
        );
    }
}

/// Server-side slow-request accounting: applies the slow threshold to one
/// dispatched request and, when crossed, logs the db name annotated with
/// the request's resource profile — a slow query arrives explaining *why*
/// it was slow (faults? evictions? WAL stalls?), not just that it was.
pub fn note_server_query(db: &str, total: Duration, profile: Option<&QueryProfile>) {
    let threshold = SLOW_NS.load(Ordering::Relaxed);
    let total_ns = total.as_nanos().min(u64::MAX as u128) as u64;
    if threshold == 0 || total_ns < threshold {
        return;
    }
    counter("exq_slow_queries_total").inc();
    let detail = match profile {
        Some(p) => format!(
            " [{} pool hits, {} faulted, {} evicted, {} retries, {} wal B, \
             {} decoded, {} blocks, cache {}]",
            p.pool_hits,
            p.pages_faulted,
            p.evictions,
            p.epoch_retries,
            p.wal_bytes,
            p.records_decoded,
            p.blocks_shipped,
            if p.cache_hit { "hit" } else { "miss" },
        ),
        None => String::new(),
    };
    log(
        Level::Warn,
        &format!(
            "slow request ({:.2} ms) on db `{db}`{detail}",
            total.as_secs_f64() * 1e3
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(1), 3);
        assert_eq!(bucket_upper(63), u64::MAX);
        for n in [0u64, 1, 2, 3, 5, 1000, u64::MAX] {
            assert!(n <= bucket_upper(bucket_index(n)));
        }
    }

    #[test]
    fn histogram_quantiles_and_invariant() {
        let h = Histogram::default();
        for nanos in [10u64, 20, 30, 1_000, 2_000, 100_000, 1_000_000] {
            h.observe(nanos);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
        assert_eq!(
            h.sum_nanos(),
            10 + 20 + 30 + 1_000 + 2_000 + 100_000 + 1_000_000
        );
        // p50 lands in the bucket holding the 4th observation (1000ns →
        // bucket 9, upper bound 1023).
        assert_eq!(h.quantile(0.5), Duration::from_nanos(1023));
        assert!(h.quantile(1.0) >= Duration::from_nanos(1_000_000));
        assert_eq!(Histogram::default().quantile(0.9), Duration::ZERO);
    }

    #[test]
    fn registry_render_sorted_and_typed() {
        let r = Registry::new();
        r.counter("zz_total").add(3);
        r.gauge("aa_gauge").set(-7);
        r.histogram("mm_hist").observe(100);
        let text = r.render();
        let aa = text.find("# TYPE aa_gauge gauge").expect("gauge line");
        let mm = text.find("# TYPE mm_hist histogram").expect("hist line");
        let zz = text.find("# TYPE zz_total counter").expect("counter line");
        assert!(aa < mm && mm < zz, "names not sorted:\n{text}");
        assert!(text.contains("zz_total 3"));
        assert!(text.contains("aa_gauge -7"));
        assert!(text.contains("mm_hist_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("mm_hist_count 1"));
    }

    #[test]
    fn counter_handles_alias_one_metric() {
        let r = Registry::new();
        let a = r.counter("same");
        let b = r.counter("same");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("same").get(), 3);
    }

    #[test]
    fn trace_scope_collects_and_shields() {
        let outer = begin_trace(42, Side::Client);
        record_span("outer.work", Duration::from_millis(1));
        {
            // Simulates the in-process server dispatch on the same thread.
            let inner = begin_trace(42, Side::Server);
            record_span("inner.work", Duration::from_millis(2));
            let spans = inner.finish();
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].name, "inner.work");
            assert_eq!(spans[0].side, Side::Server);
            adopt_spans(&spans, 7);
        }
        let spans = outer.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer.work");
        assert_eq!(spans[1].name, "inner.work");
        assert_eq!(spans[1].parent, 7, "adopted root re-parented");
        assert_eq!(spans[1].trace, 42);
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn span_guard_nests_parents() {
        let scope = begin_trace(9, Side::Client);
        let parent_id;
        {
            let g = span("parent.phase");
            parent_id = g.id();
            record_span("child.phase", Duration::from_micros(5));
        }
        record_span("sibling.phase", Duration::from_micros(5));
        let spans = scope.finish();
        assert_eq!(spans.len(), 3);
        let child = spans.iter().find(|s| s.name == "child.phase").unwrap();
        assert_eq!(child.parent, parent_id);
        let parent = spans.iter().find(|s| s.name == "parent.phase").unwrap();
        assert_eq!(parent.parent, 0);
        let sib = spans.iter().find(|s| s.name == "sibling.phase").unwrap();
        assert_eq!(sib.parent, 0);
    }

    #[test]
    fn untraced_thread_records_nothing() {
        assert_eq!(current_trace(), 0);
        record_span("floating.span", Duration::from_micros(1));
        let g = span("floating.guard");
        assert_eq!(g.id(), 0);
        drop(g);
        let inert = begin_trace(0, Side::Client);
        assert!(!inert.is_active());
        assert!(inert.finish().is_empty());
    }

    #[test]
    fn level_parse_roundtrip() {
        for l in [
            Level::Off,
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn span_json_shape() {
        let s = SpanRec {
            trace: 0xABC,
            id: 1,
            parent: 0,
            name: "client.translate".into(),
            side: Side::Client,
            start_ns: 5,
            dur_ns: 17,
        };
        let j = span_json(&s);
        assert!(j.contains("\"trace\":\"0000000000000abc\""));
        assert!(j.contains("\"name\":\"client.translate\""));
        assert!(j.contains("\"side\":\"client\""));
        assert!(j.contains("\"dur_ns\":17"));
    }

    #[test]
    fn fresh_ids_distinct_and_nonzero() {
        let a = new_trace_id();
        let b = new_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn label_escaping_is_injective_on_hostile_pairs() {
        // The classic collision: `a"}` raw vs `a\"}` would render the same
        // without injective escaping.
        assert_ne!(escape_label("a\"}"), escape_label("a\\\"}"));
        assert_eq!(escape_label("plain-db_1.x"), "plain-db_1.x");
        assert_eq!(escape_label("q\"uote"), "q\\\"uote");
        assert_eq!(escape_label("back\\slash"), "back\\\\slash");
        assert_eq!(escape_label("new\nline"), "new\\nline");
        assert_ne!(db_series("m", "a\"}"), db_series("m", "a\\\"}"));
    }

    #[test]
    fn remove_db_series_drops_only_that_db() {
        let r = Registry::new();
        r.counter(&db_series("exq_test_requests_total", "keep"))
            .add(1);
        r.counter(&db_series("exq_test_requests_total", "gone"))
            .add(2);
        r.gauge(&db_series("exq_test_depth", "gone")).set(9);
        r.counter("exq_test_global_total").add(5);
        let removed = r.remove_db_series("gone");
        assert_eq!(removed, 2);
        let text = r.render();
        assert!(text.contains("{db=\"keep\"}"));
        assert!(!text.contains("{db=\"gone\"}"));
        assert!(text.contains("exq_test_global_total 5"));
        assert_eq!(r.remove_db_series("gone"), 0);
    }

    #[test]
    fn profile_collects_only_between_begin_and_take() {
        assert_eq!(profile_take(), None);
        with_profile(|p| p.pool_hits += 1); // inactive: dropped
        profile_begin();
        with_profile(|p| {
            p.pool_hits += 2;
            p.wal_bytes += 100;
        });
        with_profile(|p| p.cache_hit = true);
        let p = profile_take().expect("profile active");
        assert_eq!(p.pool_hits, 2);
        assert_eq!(p.wal_bytes, 100);
        assert!(p.cache_hit);
        assert_eq!(profile_take(), None, "take clears the slot");
    }
}
