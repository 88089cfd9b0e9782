//! One run of one workload: set up, warm, measure, verify.
//!
//! Load shape: a closed loop with one client thread on one TCP connection
//! (wire v5), because the paper's model is one data owner awaiting each
//! answer and the box's cores are shared by client and server. Every answer
//! is checked against the plaintext oracle; the check itself is kept off
//! the clock, so `queries_per_s` is verified answers over the time the
//! client spent inside operations (queries, mutations and `tend`).
//!
//! The bounded timing metrics describe the run's quiet pass — every
//! position of the schedule at the fastest of its repetitions; see
//! `Tally::quiet_pass` for why. The same statistics as they fell are the
//! `raw.*` per-layer metrics. Counts are taken as they fell.

use crate::host::{set_up, Hosted};
use crate::layers::{self, Capture, MAX_CAPTURES};
use crate::oracle::Oracle;
use crate::stats::{highest_supported_percentile, median, us, Samples};
use crate::trace::{TraceAgg, RETAINED_SPANS};
use crate::workload::{Op, Schedule, Spec};
use crate::Res;
use exq_core::client::{PostProcessed, TranslatedQuery};
use exq_core::telemetry::{self, Side};
use exq_core::transport::{LinkStats, TcpTransport, Transport};
use exq_core::wire::ServerResponse;
use exq_core::CoreError;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much one run measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole passes until about this much time has gone by.
    Time(Duration),
    /// Exactly this many passes: every count repeats from run to run.
    Passes(u64),
}

/// What a run reports: the contract's `attempted`/`failed` plus metrics by
/// catalogue name.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form lines for the human reader (sample counts, file paths).
    pub notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Everything the closed loop counts.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub verified_queries: u64,
    pub query: Samples,
    pub insert: Samples,
    pub delete: Samples,
    pub tend: Samples,
    /// Time spent inside operations of every kind.
    pub busy: Duration,
    pub reply_bytes: u64,
    pub query_bytes: u64,
    pub blocks: u64,
    pub results: u64,
    /// The four steps of a traced insert, and the delete round trip.
    pub locate: Samples,
    pub slot: Samples,
    pub prepare: Samples,
    pub apply: Samples,
    /// First failures, for the error message.
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Books the latency of one operation of the kind `samples` selects.
    fn timed(&mut self, samples: fn(&mut Tally) -> &mut Samples, latency: Duration) {
        samples(self).push(latency);
        self.busy += latency;
    }

    /// Verified answers over the time inside operations, as it fell.
    fn raw_queries_per_s(&self) -> f64 {
        self.verified_queries as f64 / self.busy.as_secs_f64()
    }

    /// Folds `passes` passes into one, each position of the schedule at its
    /// fastest repetition.
    ///
    /// Every pass runs the same operations in the same order against the
    /// same state: one client, no timer thread (the driver calls `tend`), a
    /// response cache the burst empties at the same point of every pass and
    /// a clock pool that the same accesses drive through the same states.
    /// What differs between two repetitions of a position is the machine,
    /// and this one's cores lose 8 to 60 % of their throughput to something
    /// outside the VM, shifting by the second and drifting over minutes:
    /// statistics of the latencies as they fell spread 10 to 28 % from run
    /// to run, more than the widest bound the driver allows (README.md has
    /// the measurements). A neighbour only ever slows an operation down, so
    /// the fastest repetition estimates what the program costs.
    ///
    /// The estimate is blind to whatever hits a position in some
    /// repetitions only, a wake-up the scheduler delays as much as a lock
    /// the program holds too long; the `raw.*` metrics are there for that.
    pub fn quiet_pass(&self, passes: u64) -> QuietPass {
        let fold = |s: &Samples| s.fastest_by_position(passes as usize);
        let query = fold(&self.query);
        let others = [&self.insert, &self.delete, &self.tend];
        QuietPass {
            busy_s: (query.sum_ms() + others.iter().map(|s| fold(s).sum_ms()).sum::<f64>()) / 1e3,
            query,
        }
    }
}

/// One pass of the schedule with every operation at the fastest of its
/// repetitions.
pub struct QuietPass {
    pub query: Samples,
    /// Time inside operations of every kind, seconds.
    busy_s: f64,
}

impl QuietPass {
    pub fn queries_per_s(&self) -> f64 {
        self.query.len() as f64 / self.busy_s
    }
}

/// Span collection for the traced passes.
struct Tracing<'a> {
    agg: &'a mut TraceAgg,
    captures: &'a mut Vec<Capture>,
}

/// One hosted workload with its client connection, oracle and schedule.
pub struct Driver {
    pub hosted: Hosted,
    transport: TcpTransport,
    oracle: Oracle,
    schedule: Schedule,
    next_pass: u64,
}

impl Driver {
    pub fn new(spec: Spec, paged: bool, seed: u64, scratch: &Path) -> Res<Driver> {
        let hosted = set_up(&spec, paged, seed, scratch)?;
        Driver::over(spec, hosted, seed)
    }

    fn over(spec: Spec, hosted: Hosted, seed: u64) -> Res<Driver> {
        let transport = hosted.connect()?;
        let schedule = Schedule::new(spec, Arc::clone(&hosted.doc), seed);
        let oracle = Oracle::new(Arc::clone(&hosted.doc));
        Ok(Driver {
            hosted,
            transport,
            oracle,
            schedule,
            next_pass: 0,
        })
    }

    /// Runs the next pass of the schedule.
    fn pass(&mut self, tally: &mut Tally, mut tracing: Option<Tracing<'_>>) -> Res<()> {
        let ops = self.schedule.pass(self.next_pass);
        self.next_pass += 1;
        for op in &ops {
            tally.attempted += 1;
            match op {
                Op::Query(q) => match tracing.as_mut() {
                    Some(t) => self.traced_query(q, tally, t)?,
                    None => self.query(q, tally)?,
                },
                Op::Insert { record, seed } => {
                    self.insert(record, *seed, tally, tracing.is_some())?
                }
                Op::Delete { query } => self.delete(query, tally)?,
                Op::Tend => {
                    let t = Instant::now();
                    exq_core::store::tend(&self.hosted.tenant);
                    tally.timed(|t| &mut t.tend, t.elapsed());
                }
            }
        }
        Ok(())
    }

    /// `Client::run`, as a user of the library would call it.
    fn query(&mut self, q: &str, tally: &mut Tally) -> Res<()> {
        let before = self.transport.stats();
        let t = Instant::now();
        let out = self.hosted.client.run(&mut self.transport, q);
        let latency = t.elapsed();
        let traffic = self.transport.stats().since(&before);
        self.settle(q, latency, traffic, out, tally).map(|_| ())
    }

    /// Books one finished query — latency, bytes, counts — and checks its
    /// answer against the oracle. Hands back what crossed the wire, for the
    /// traced run's captures, when the query succeeded.
    fn settle(
        &mut self,
        q: &str,
        latency: Duration,
        traffic: LinkStats,
        out: Result<(TranslatedQuery, ServerResponse, PostProcessed), CoreError>,
        tally: &mut Tally,
    ) -> Res<Option<(TranslatedQuery, ServerResponse)>> {
        let (tq, resp, post) = match out {
            Ok(parts) => parts,
            Err(e) => {
                tally.fail(format!("{q}: {e}"));
                return Ok(None);
            }
        };
        tally.timed(|t| &mut t.query, latency);
        tally.reply_bytes += traffic.bytes_received;
        tally.query_bytes += traffic.bytes_sent;
        tally.blocks += resp.blocks.len() as u64;
        tally.results += post.results.len() as u64;
        if self.oracle.check(q, post.results)? {
            tally.verified_queries += 1;
        } else {
            tally.fail(format!("{q}: answer differs from the plaintext oracle"));
        }
        Ok(Some((tq, resp)))
    }

    /// The same steps as `Client::run` under a benchmark-owned `query` span
    /// with one child span per layer boundary.
    fn traced_query(&mut self, q: &str, tally: &mut Tally, tracing: &mut Tracing<'_>) -> Res<()> {
        let before = self.transport.stats();
        let scope = telemetry::begin_trace(telemetry::new_trace_id(), Side::Client);
        let started = Instant::now();
        let root = telemetry::span("query");
        let out = (|| {
            let tq = {
                let _g = telemetry::span("client.translate");
                self.hosted.client.translate(q)?
            };
            // `send_query` opens `wire.roundtrip` and hangs the server's
            // spans beneath it.
            let resp = match &tq.server_query {
                Some(sq) => self.transport.send_query(sq)?,
                None => self.transport.send_naive()?,
            };
            let post = {
                let _g = telemetry::span("client.post");
                let post = self.hosted.client.post_process(&tq.post_query, &resp)?;
                telemetry::record_span("client.decrypt", post.decrypt_time);
                telemetry::record_span("client.post_process", post.post_process_time);
                post
            };
            Ok((tq, resp, post))
        })();
        drop(root);
        let latency = started.elapsed();
        let mut spans = scope.finish();
        let traffic = self.transport.stats().since(&before);
        if let Ok((_, _, post)) = &out {
            // `record_span` back-dates from the moment it is called; decrypt
            // really ended where post-process began.
            if let Some(d) = spans.iter_mut().find(|s| s.name == "client.decrypt") {
                d.start_ns = d
                    .start_ns
                    .saturating_sub(post.post_process_time.as_nanos() as u64);
            }
            tracing.agg.add_query(spans);
        }
        if let Some((tq, resp)) = self.settle(q, latency, traffic, out, tally)? {
            let fresh = tracing.captures.len() < MAX_CAPTURES
                && tracing.captures.iter().all(|c| c.query != q);
            if let (true, Some(server_query)) = (fresh, tq.server_query) {
                tracing.captures.push(Capture {
                    query: q.to_owned(),
                    server_query,
                    response: resp,
                });
            }
        }
        Ok(())
    }

    /// `Client::insert_via`; with `by_steps` the same four calls are made
    /// one by one through the `Transport` so each can be timed.
    fn insert(&mut self, record: &str, seed: u64, tally: &mut Tally, by_steps: bool) -> Res<()> {
        const PARENT: &str = "/hospital";
        let started = Instant::now();
        let out = if by_steps {
            (|| {
                let tq = self.hosted.client.translate(PARENT)?;
                let sq = tq
                    .server_query
                    .ok_or_else(|| CoreError::Query("parent not evaluable".into()))?;
                let t = Instant::now();
                let parents = self.transport.locate(&sq)?;
                tally.locate.push(t.elapsed());
                let parent = parents
                    .first()
                    .copied()
                    .ok_or_else(|| CoreError::Query("parent not found".into()))?;
                let t = Instant::now();
                let slot = self.transport.insertion_slot(parent)?;
                tally.slot.push(t.elapsed());
                let t = Instant::now();
                let delta = self.hosted.client.prepare_insert(&slot, record, seed)?;
                tally.prepare.push(t.elapsed());
                let t = Instant::now();
                self.transport.apply_insert(&delta)?;
                tally.apply.push(t.elapsed());
                Ok(())
            })()
        } else {
            self.hosted
                .client
                .insert_via(&mut self.transport, PARENT, record, seed)
                .map(|_| ())
        };
        tally.timed(|t| &mut t.insert, started.elapsed());
        match out {
            Ok(()) => self.oracle.insert_under_root(record),
            Err(e) => {
                tally.fail(format!("insert: {e}"));
                Ok(())
            }
        }
    }

    fn delete(&mut self, query: &str, tally: &mut Tally) -> Res<()> {
        let t = Instant::now();
        let out = self.hosted.client.delete_via(&mut self.transport, query);
        tally.timed(|t| &mut t.delete, t.elapsed());
        match out {
            Ok(outcome) => {
                let expected = self.oracle.delete(query)?;
                if outcome.deleted != expected || outcome.skipped_in_block != 0 {
                    tally.fail(format!(
                        "{query}: deleted {} (skipped {}), oracle deleted {expected}",
                        outcome.deleted, outcome.skipped_in_block
                    ));
                }
            }
            Err(e) => tally.fail(format!("{query}: {e}")),
        }
        Ok(())
    }

    /// Untraced passes until the budget is used: at least one, and for a
    /// time budget until the next pass would on average overshoot it. A run
    /// always ends on a whole pass, so the mix of operations — and every
    /// per-query count — is the same however many passes fit.
    pub fn measure(&mut self, budget: Budget) -> Res<(Tally, u64)> {
        let started = Instant::now();
        let mut tally = Tally::default();
        let mut passes = 0u64;
        loop {
            self.pass(&mut tally, None)?;
            passes += 1;
            match budget {
                Budget::Passes(want) if passes >= want => return Ok((tally, passes)),
                Budget::Time(limit) => {
                    let elapsed = started.elapsed();
                    if elapsed + elapsed / (2 * passes as u32) >= limit {
                        return Ok((tally, passes));
                    }
                }
                Budget::Passes(_) => {}
            }
        }
    }
}

fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

fn fail_if_any(tally: &Tally) -> Res<()> {
    if tally.failed == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} of {} operations failed; first: {}",
            tally.failed,
            tally.attempted,
            tally.failures.join(" | ")
        )
        .into())
    }
}

/// Set-ups per run: set-up time is reported as their median, because the
/// fsyncs of a paged set-up make a single one swing by a factor of two.
fn setups(smoke: bool) -> usize {
    if smoke {
        3
    } else {
        5
    }
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(
    spec: Spec,
    seed: u64,
    budget: Budget,
    smoke: bool,
    scratch: &Path,
) -> Res<Report> {
    let mut setup_s = Vec::new();
    let mut hosted = None;
    for _ in 0..setups(smoke) {
        drop(hosted.take());
        let h = set_up(&spec, spec.paged, seed, scratch)?;
        setup_s.push(h.times.total.as_secs_f64());
        hosted = Some(h);
    }
    let hosted = hosted.expect("at least one set-up");
    let mut driver = Driver::over(spec, hosted, seed)?;

    // One untimed pass warms pools, lazy state and the oracle's memo.
    let mut warm = Tally::default();
    driver.pass(&mut warm, None)?;
    fail_if_any(&warm)?;

    let (tally, passes) = driver.measure(budget)?;
    fail_if_any(&tally)?;
    let quiet = tally.quiet_pass(passes);

    let queries = tally.query.len();
    let mut r = Report {
        attempted: tally.attempted,
        failed: tally.failed,
        ..Report::default()
    };
    r.put("setup_s", median(&setup_s));
    r.put("query_p50_ms", quiet.query.percentile_ms(50.0));
    r.put("query_p95_ms", quiet.query.percentile_ms(95.0));
    r.put("queries_per_s", quiet.queries_per_s());
    r.put(
        "reply_bytes_per_query",
        tally.reply_bytes as f64 / queries as f64,
    );
    r.put(
        "hosted_bytes_per_plain_byte",
        driver.hosted.hosted_bytes as f64 / driver.hosted.plain_bytes as f64,
    );
    r.put("peak_rss_mb", peak_rss_mb()?);
    r.notes.push(format!(
        "the quiet pass of {passes} passes of {} queries; {queries} query samples in all ({} inserts, {} deletes), which support up to p{}",
        quiet.query.len(),
        tally.insert.len(),
        tally.delete.len(),
        highest_supported_percentile(queries).unwrap_or(0.0),
    ));
    r.notes.push(format!(
        "as they fell: p50 {:.3} ms, p95 {:.3} ms, {:.2} queries/s",
        tally.query.percentile_ms(50.0),
        tally.query.percentile_ms(95.0),
        tally.raw_queries_per_s(),
    ));
    Ok(r)
}

/// Counter readings the per-layer run takes before and after its passes.
struct Counters {
    cache: exq_core::cache::CacheStatsSnapshot,
    pool: Option<exq_store::PoolStats>,
    pages_faulted: u64,
    records_decoded: u64,
    wal_bytes: u64,
    queue_wait_ns: u64,
    queue_wait_count: u64,
    checkpoints: u64,
}

impl Counters {
    fn read(hosted: &Hosted) -> Counters {
        let db_counter = |name: &str| {
            telemetry::counter(&telemetry::db_series(name, hosted.tenant.name())).get()
        };
        let wait = telemetry::histogram("exq_evloop_queue_wait_seconds");
        Counters {
            cache: hosted.tenant.cache_stats(),
            pool: hosted.db.as_ref().map(|db| db.pool_stats()),
            pages_faulted: db_counter("exq_db_pages_faulted_total"),
            records_decoded: db_counter("exq_db_records_decoded_total"),
            wal_bytes: db_counter("exq_db_wal_bytes_total"),
            queue_wait_ns: wait.sum_nanos(),
            queue_wait_count: wait.count(),
            checkpoints: hosted.db.as_ref().map_or(0, |db| db.checkpoints_total()),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: every per-layer metric. The time budget is split
/// between alternating untraced and traced passes (their difference is the
/// tracing overhead; 40 %), the layer timings on captured inputs (20 %)
/// and, for a paged workload with caches off, the same schedule against a
/// resident twin (10 %); set-ups, warm passes and whole-pass overshoot take the rest, so
/// that a traced run lasts about as long as an untraced one.
pub fn per_layer(spec: Spec, seed: u64, budget: Budget, scratch: &Path) -> Res<Report> {
    let mut driver = Driver::new(spec, spec.paged, seed, scratch)?;
    let times = driver.hosted.times;
    let mut warm = Tally::default();
    driver.pass(&mut warm, None)?;
    fail_if_any(&warm)?;

    let (max_pairs, slice) = match budget {
        Budget::Time(d) => (u64::MAX, d),
        Budget::Passes(n) => (n, Duration::ZERO),
    };
    let before = Counters::read(&driver.hosted);
    let mut agg = TraceAgg::new();
    let mut captures = Vec::new();
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let started = Instant::now();
    let mut pairs = 0u64;
    while pairs == 0 || (pairs < max_pairs && started.elapsed() < slice * 2 / 5) {
        driver.pass(&mut plain, None)?;
        let tracing = Tracing {
            agg: &mut agg,
            captures: &mut captures,
        };
        driver.pass(&mut traced, Some(tracing))?;
        pairs += 1;
    }
    let after = Counters::read(&driver.hosted);
    fail_if_any(&plain)?;
    fail_if_any(&traced)?;

    let mut pings: Vec<f64> = Vec::new();
    for _ in 0..200 {
        pings.push(us(driver.transport.ping()?));
    }
    let micro = {
        let server = driver
            .hosted
            .tenant
            .server
            .read()
            .map_err(|_| "server lock poisoned")?;
        layers::per_query(
            &captures,
            &driver.hosted.client,
            driver.oracle.doc(),
            &server,
            slice / 5,
        )?
    };
    let kernels = layers::kernels();

    let queries = (plain.query.len() + traced.query.len()) as f64;
    let (mut inserts, mut deletes) = (plain.insert.clone(), plain.delete.clone());
    inserts.extend(&traced.insert);
    deletes.extend(&traced.delete);
    let mut r = Report {
        attempted: plain.attempted + traced.attempted,
        failed: 0,
        ..Report::default()
    };

    r.put("workload.generate_s", times.generate.as_secs_f64());
    r.put("scheme.build_s", times.scheme_build.as_secs_f64());
    r.put("encrypt.encrypt_database_s", times.encrypt.as_secs_f64());
    r.put("encrypt.blocks", driver.hosted.blocks as f64);
    r.put("server.new_s", times.server_new.as_secs_f64());
    r.put("store.attach_new_s", times.attach_new.as_secs_f64());
    r.put("store.open_s", times.open.as_secs_f64());

    let span_ms = |name: &str| agg.per_query(name) / 1e6;
    let span_us = |name: &str| agg.per_query(name) / 1e3;
    r.put("client.translate_us", span_us("client.translate"));
    r.put("xpath.parse_us", micro.xpath_parse.mean_us());
    r.put("client.decrypt_ms", span_ms("client.decrypt"));
    r.put("crypto.open_block_ms", micro.open_blocks.mean_ms());
    r.put("crypto.open_block_mb_s", micro.open_block_mb_s);
    r.put("crypto.chacha_mb_s", kernels.chacha_mb_s);
    r.put("xml.parse_ms", micro.xml_parse.mean_ms());
    r.put("xml.parse_mb_s", micro.xml_parse_mb_s);
    r.put("client.post_process_ms", span_ms("client.post_process"));
    r.put("xpath.eval_plain_ms", micro.eval_plain.mean_ms());
    r.put(
        "client.blocks_per_query",
        (plain.blocks + traced.blocks) as f64 / queries,
    );
    r.put(
        "client.results_per_query",
        (plain.results + traced.results) as f64 / queries,
    );

    let codec_ms = micro.encode_query.mean_ms()
        + micro.decode_query.mean_ms()
        + micro.encode_answer.mean_ms()
        + micro.decode_answer.mean_ms();
    let server_ms = ratio(agg.server_ns() as f64 / 1e6, agg.queries as f64);
    r.put("codec.encode_query_us", micro.encode_query.mean_us());
    r.put("codec.decode_query_us", micro.decode_query.mean_us());
    r.put("codec.encode_answer_ms", micro.encode_answer.mean_ms());
    r.put("codec.decode_answer_ms", micro.decode_answer.mean_ms());
    r.put("codec.crc32_mb_s", kernels.crc32_mb_s);
    r.put(
        "codec.query_bytes",
        (plain.query_bytes + traced.query_bytes) as f64 / queries,
    );
    r.put("transport.roundtrip_ms", span_ms("wire.roundtrip"));
    r.put("transport.ping_us", median(&pings));
    r.put(
        "transport.self_ms",
        span_ms("wire.roundtrip") - server_ms - codec_ms,
    );
    r.put(
        "evloop.queue_wait_us",
        ratio(
            (after.queue_wait_ns - before.queue_wait_ns) as f64 / 1e3,
            (after.queue_wait_count - before.queue_wait_count) as f64,
        ),
    );

    r.put("server.cache_probe_us", span_us("server.cache_probe"));
    r.put("server.dsi_lookup_ms", span_ms("server.dsi_lookup"));
    r.put("server.value_resolve_ms", span_ms("server.value_resolve"));
    r.put("server.sjoin_ms", span_ms("server.sjoin"));
    r.put("server.assemble_ms", span_ms("server.assemble"));
    r.put(
        "server.process_ms",
        span_ms("server.value_resolve") + span_ms("server.sjoin") + span_ms("server.assemble"),
    );
    r.put("server.candidates_per_query", micro.candidates_per_query);
    r.put("server.survivors_per_query", micro.survivors_per_query);
    r.put(
        "server.useful_work_ratio",
        ratio(micro.survivors_per_query, micro.candidates_per_query),
    );
    r.put("index.btree_range_us", micro.btree_range.mean_us());
    r.put("index.join_anc_desc_us", micro.join_anc_desc.mean_us());

    let delta = |f: fn(&exq_core::cache::CacheStatsSnapshot) -> u64| {
        (f(&after.cache) - f(&before.cache)) as f64
    };
    let (hits, misses) = (delta(|c| c.response_hits), delta(|c| c.response_misses));
    let (range_hits, range_misses) = (delta(|c| c.range_hits), delta(|c| c.range_misses));
    r.put("cache.response_hit_ratio", ratio(hits, hits + misses));
    r.put(
        "cache.range_hit_ratio",
        ratio(range_hits, range_hits + range_misses),
    );
    r.put("cache.response_evictions", delta(|c| c.response_evictions));
    r.put("cache.generation_bumps", delta(|c| c.generation));

    let (pool_hits, pool_misses, pool_evictions) = match (before.pool, after.pool) {
        (Some(b), Some(a)) => (
            (a.hits - b.hits) as f64,
            (a.misses - b.misses) as f64,
            (a.evictions - b.evictions) as f64,
        ),
        _ => (0.0, 0.0, 0.0),
    };
    r.put(
        "store.pool_hit_ratio",
        ratio(pool_hits, pool_hits + pool_misses),
    );
    r.put("store.pool_misses_per_query", pool_misses / queries);
    r.put("store.evictions_per_query", pool_evictions / queries);
    r.put(
        "store.pages_faulted_per_query",
        (after.pages_faulted - before.pages_faulted) as f64 / queries,
    );
    r.put(
        "store.records_decoded_per_query",
        (after.records_decoded - before.records_decoded) as f64 / queries,
    );
    r.put("store.read_block_ms", span_ms("store.read_block"));

    // Serving stops here: the store probes need the directory to
    // themselves, and the twin needs the cores.
    let footprint = driver.hosted.db.as_ref().map(|db| db.footprint());
    let plain_bytes = driver.hosted.plain_bytes as f64;
    let spans_path = spans_file(scratch, spec.name);
    agg.write_jsonl(&spans_path)?;
    let store_dir = driver.hosted.take_store_dir();
    drop(driver);
    let probe = match &store_dir {
        Some(dir) => Some(layers::store_probe(dir.path(), spec.page_size)?),
        None => None,
    };
    drop(store_dir);
    let quiet = plain.quiet_pass(pairs);
    // The twin compares stores, so it runs where no response cache stands
    // between the median query and the store.
    let has_twin = spec.paged && spec.cache_entries == 0;
    let paged_p50 = if has_twin {
        quiet.query.percentile_ms(50.0)
    } else {
        0.0
    };
    let twin_p50 = if has_twin {
        let mut twin = Driver::new(spec, false, seed, scratch)?;
        let mut warm = Tally::default();
        twin.pass(&mut warm, None)?;
        fail_if_any(&warm)?;
        let (tally, passes) = twin.measure(match budget {
            Budget::Time(_) => Budget::Time(slice / 10),
            passes => passes,
        })?;
        fail_if_any(&tally)?;
        tally.quiet_pass(passes).query.percentile_ms(50.0)
    } else {
        0.0
    };

    let acc_us =
        |f: fn(&layers::StoreProbe) -> &layers::Acc| probe.as_ref().map_or(0.0, |p| f(p).mean_us());
    r.put("store.get_cold_us", acc_us(|p| &p.get_cold));
    r.put("store.get_warm_us", acc_us(|p| &p.get_warm));
    r.put("index.load_postings_us", acc_us(|p| &p.load_postings));
    r.put(
        "store.page_count",
        footprint.map_or(0.0, |f| f.page_count as f64),
    );
    r.put(
        "store.disk_bytes",
        footprint.map_or(0.0, |f| f.disk_bytes as f64),
    );
    r.put(
        "store.disk_bytes_per_plain_byte",
        footprint.map_or(0.0, |f| f.disk_bytes as f64 / plain_bytes),
    );
    r.put("store.paged_p50_ms", paged_p50);
    r.put("store.resident_twin_p50_ms", twin_p50);
    r.put("store.paged_over_resident", ratio(paged_p50, twin_p50));
    r.put(
        "store.tend_ms",
        ratio(
            plain.tend.sum_ms() + traced.tend.sum_ms(),
            (plain.tend.len() + traced.tend.len()) as f64,
        ),
    );
    r.put(
        "store.checkpoints",
        (after.checkpoints - before.checkpoints) as f64,
    );
    r.put(
        "store.wal_bytes_per_mutation",
        ratio(
            (after.wal_bytes - before.wal_bytes) as f64,
            (inserts.len() + deletes.len()) as f64,
        ),
    );

    r.put("update.insert_p50_ms", inserts.percentile_ms(50.0));
    r.put("update.delete_p50_ms", deletes.percentile_ms(50.0));
    r.put("update.locate_ms", traced.locate.mean_ms());
    r.put("update.slot_ms", traced.slot.mean_ms());
    r.put("update.prepare_ms", traced.prepare.mean_ms());
    r.put("update.apply_ms", traced.apply.mean_ms());
    r.put("update.delete_where_ms", deletes.mean_ms());

    r.put("raw.query_p50_ms", plain.query.percentile_ms(50.0));
    r.put("raw.query_p95_ms", plain.query.percentile_ms(95.0));
    r.put("raw.queries_per_s", plain.raw_queries_per_s());
    r.put(
        "raw.busy_over_quiet",
        ratio(plain.busy.as_secs_f64(), quiet.busy_s * pairs as f64),
    );

    // Both sides' quiet passes, so a slow spell during one side's passes
    // does not read as tracing cost.
    let plain_mean = quiet.query.mean_ms();
    let traced_mean = traced.quiet_pass(pairs).query.mean_ms();
    let query_ns = agg.query_ns() as f64;
    let client_ns = (agg.total("client.translate") + agg.total("client.post")) as f64;
    let wire_ns = agg.total("wire.roundtrip") as f64 - agg.server_ns() as f64;
    r.put("trace.query_ms", ratio(query_ns / 1e6, agg.queries as f64));
    r.put("trace.client_share", ratio(client_ns, query_ns));
    r.put("trace.wire_share", ratio(wire_ns, query_ns));
    r.put(
        "trace.server_share",
        ratio(agg.server_ns() as f64, query_ns),
    );
    r.put("trace.coverage", agg.coverage());
    r.put(
        "trace.overhead_pct",
        ratio(traced_mean - plain_mean, plain_mean) * 100.0,
    );
    r.put("trace.traced_queries", agg.queries as f64);
    r.put(
        "trace.spans_per_query",
        ratio(agg.spans as f64, agg.queries as f64),
    );
    r.notes.push(format!(
        "{pairs} untraced+traced pass pairs, {} traced queries, {} captures, least-covered query {:.3}; the first {RETAINED_SPANS} spans are in {}",
        agg.queries,
        captures.len(),
        agg.min_coverage,
        spans_path.display(),
    ));
    Ok(r)
}

/// Where a workload's retained spans are written.
pub fn spans_file(scratch: &Path, workload: &str) -> PathBuf {
    scratch.join(format!("{workload}.spans.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, Dataset};

    fn metric(r: &Report, name: &str) -> f64 {
        r.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} not reported"))
            .1
    }

    /// Two tiny runs of the read-write workload — the one with caches, a
    /// paged store, mutations and checkpoints — must agree on every count.
    #[test]
    fn exact_count_metrics_repeat_from_run_to_run() {
        let scratch = crate::scratch_dir().unwrap().with_file_name("ledger-unit");
        let tiny = Spec {
            dataset: Dataset::Hospital { patients: 60 },
            ..spec("hospital_rw", true).unwrap()
        };
        let untraced = || end_to_end(tiny, 9, Budget::Passes(2), true, &scratch).unwrap();
        let (a, b) = (untraced(), untraced());
        assert_eq!(a.failed, 0);
        assert_eq!(a.attempted, b.attempted);
        for name in ["reply_bytes_per_query", "hosted_bytes_per_plain_byte"] {
            assert_eq!(metric(&a, name), metric(&b, name), "{name}");
        }

        let traced = || per_layer(tiny, 9, Budget::Passes(1), &scratch).unwrap();
        let (a, b) = (traced(), traced());
        for name in [
            "cache.response_hit_ratio",
            "cache.generation_bumps",
            "store.pool_misses_per_query",
            "store.pages_faulted_per_query",
            "store.records_decoded_per_query",
            "store.wal_bytes_per_mutation",
            "client.blocks_per_query",
            "codec.query_bytes",
            "encrypt.blocks",
        ] {
            assert_eq!(metric(&a, name), metric(&b, name), "{name}");
        }
        assert!(metric(&a, "cache.response_hit_ratio") > 0.5);
        assert!(metric(&a, "store.pool_misses_per_query") > 0.0);
        assert!(metric(&a, "trace.coverage") >= 0.95);
    }
}
