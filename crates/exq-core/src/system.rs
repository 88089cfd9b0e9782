//! End-to-end hosted-database wrapper (Figure 1).
//!
//! [`Outsourcer::outsource`] runs the whole owner-side pipeline — scheme
//! construction, encryption, metadata building — and returns a
//! [`HostedDatabase`] holding the client and the server. Queries run
//! through the full round trip with per-phase timing (§7.2's six measured
//! phases) and simulated-link transmission accounting (the paper used a
//! 100 Mbps LAN; we model bytes/bandwidth so "transmission is negligible"
//! is checkable rather than assumed).

use crate::client::Client;
use crate::constraints::SecurityConstraint;
use crate::encrypt::{encrypt_database, EncryptStats};
use crate::error::CoreError;
use crate::scheme::{EncryptionScheme, SchemeKind};
use crate::server::Server;
use crate::telemetry;
use crate::transport::{InProcess, Transport};
use exq_crypto::KeyChain;
use exq_xml::TreeView;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Link and setup configuration.
#[derive(Debug, Clone)]
pub struct OutsourceConfig {
    /// Simulated link bandwidth in bits per second (paper: 100 Mbps).
    pub bandwidth_bps: f64,
    /// Simulated one-way link latency.
    pub latency: Duration,
    /// Era-faithful decryption cost model. The paper's dominant cost is
    /// client-side block decryption (2006-era 3DES in Java, ~10 MB/s);
    /// ChaCha20 on modern hardware runs three orders of magnitude faster,
    /// which would invert the paper's phase ordering. The simulated cost
    /// is *added* to the measured decryption time, exactly like the
    /// simulated link is added for transmission.
    pub era: EraCostModel,
}

/// Simulated 2006-era decryption costs.
#[derive(Debug, Clone)]
pub struct EraCostModel {
    /// Sustained decryption throughput in bytes per second.
    pub decrypt_bytes_per_sec: f64,
    /// Fixed per-block overhead (key schedule, envelope parsing).
    pub per_block: Duration,
}

impl EraCostModel {
    /// Defaults matching the paper's testbed ballpark: 2006-era Java
    /// 3DES decryption plus XML re-parsing ran at single-digit MB/s,
    /// an order of magnitude below the 100 Mbps link — which is what makes
    /// the paper's "transmission is negligible" observation true.
    pub fn vldb2006() -> EraCostModel {
        EraCostModel {
            decrypt_bytes_per_sec: 3e6,
            per_block: Duration::from_micros(3),
        }
    }
}

impl Default for OutsourceConfig {
    fn default() -> Self {
        OutsourceConfig {
            bandwidth_bps: 100e6,
            latency: Duration::from_micros(200),
            era: EraCostModel::vldb2006(),
        }
    }
}

/// Owner-side pipeline entry point.
#[derive(Debug, Clone, Default)]
pub struct Outsourcer {
    config: OutsourceConfig,
}

impl Outsourcer {
    pub fn new(config: OutsourceConfig) -> Outsourcer {
        Outsourcer { config }
    }

    /// Encrypts `doc` under `constraints` with the given scheme kind and
    /// stands up the client/server pair. `seed` drives every random choice
    /// (keys, DSI gaps, OPESS weights/scales, decoys) for reproducibility.
    pub fn outsource(
        &self,
        doc: &impl TreeView,
        constraints: &[SecurityConstraint],
        kind: SchemeKind,
        seed: u64,
    ) -> Result<HostedDatabase, CoreError> {
        let scheme = EncryptionScheme::build(doc, constraints, kind)?;
        let keys = KeyChain::from_seed(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD5EA_5EED);
        let out = encrypt_database(doc, &scheme, &keys, &mut rng)?;
        let server = Server::new(&out);
        let client = Client::new(out.client_state.clone());
        Ok(HostedDatabase {
            client,
            server,
            setup: out.stats,
            scheme,
            config: self.config.clone(),
        })
    }
}

/// A hosted database: the client/server pair plus setup statistics.
#[derive(Debug, Clone)]
pub struct HostedDatabase {
    pub client: Client,
    pub server: Server,
    /// Owner-side encryption statistics (§7.4 metrics).
    pub setup: EncryptStats,
    pub scheme: EncryptionScheme,
    pub config: OutsourceConfig,
}

/// The six measured phases of §7.2.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTiming {
    pub client_translate: Duration,
    pub server_translate: Duration,
    pub server_process: Duration,
    /// Simulated transmission time (latency + payload/bandwidth).
    pub transmit: Duration,
    pub decrypt: Duration,
    pub post_process: Duration,
}

impl PhaseTiming {
    pub fn total(&self) -> Duration {
        self.client_translate
            + self.server_translate
            + self.server_process
            + self.transmit
            + self.decrypt
            + self.post_process
    }
}

/// Result of one query round trip.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Serialized result nodes (exactly `Q(D)`).
    pub results: Vec<String>,
    pub timing: PhaseTiming,
    pub bytes_to_server: usize,
    pub bytes_to_client: usize,
    pub blocks_shipped: usize,
    /// Whether the naive fallback (unsupported server axis) was used.
    pub naive_fallback: bool,
    /// Whether the server answered (any branch) from its response cache.
    pub served_from_cache: bool,
}

impl HostedDatabase {
    /// Splits into the client/server pair.
    pub fn split(self) -> (Client, Server) {
        (self.client, self.server)
    }

    /// Runs one query through the secure pipeline (in-process link).
    pub fn query(&self, query: &str) -> Result<QueryOutcome, CoreError> {
        let mut link = InProcess::shared(&self.server);
        run_query(&self.client, &mut link, &self.config, query, false)
    }

    /// Runs one query through the naive baseline of §7.3: the server ships
    /// the whole encrypted database, the client decrypts everything and
    /// evaluates locally.
    pub fn query_naive(&self, query: &str) -> Result<QueryOutcome, CoreError> {
        let mut link = InProcess::shared(&self.server);
        run_query(&self.client, &mut link, &self.config, query, true)
    }
}

impl Client {
    /// Round-trip convenience with default link parameters over an
    /// in-process link.
    pub fn query(&self, server: &Server, query: &str) -> Result<QueryOutcome, CoreError> {
        let mut link = InProcess::shared(server);
        run_query(self, &mut link, &OutsourceConfig::default(), query, false)
    }

    /// Round trip over an arbitrary transport (e.g. [`TcpTransport`]) with
    /// default link parameters; byte counts come from the transport's own
    /// frame accounting.
    ///
    /// [`TcpTransport`]: crate::transport::TcpTransport
    pub fn query_via(
        &self,
        transport: &mut dyn Transport,
        query: &str,
    ) -> Result<QueryOutcome, CoreError> {
        run_query(self, transport, &OutsourceConfig::default(), query, false)
    }

    /// [`query_via`](Self::query_via) through the naive baseline of §7.3:
    /// every branch asks the server for the whole encrypted database and
    /// is evaluated here.
    pub fn query_naive_via(
        &self,
        transport: &mut dyn Transport,
        query: &str,
    ) -> Result<QueryOutcome, CoreError> {
        run_query(self, transport, &OutsourceConfig::default(), query, true)
    }
}

fn run_query(
    client: &Client,
    transport: &mut dyn Transport,
    config: &OutsourceConfig,
    query: &str,
    force_naive: bool,
) -> Result<QueryOutcome, CoreError> {
    // Telemetry wrapper: open a client trace for the whole query (union
    // branches included — `current_trace() == 0` keeps recursion from
    // nesting traces), sink the stitched spans, and feed the slow-query
    // log. All of it is inert unless tracing was requested.
    let scope = if telemetry::tracing_wanted() && telemetry::current_trace() == 0 {
        Some(telemetry::begin_trace(
            telemetry::new_trace_id(),
            telemetry::Side::Client,
        ))
    } else {
        None
    };
    let started = std::time::Instant::now();
    let out = run_query_inner(client, transport, config, query, force_naive);
    if let Some(scope) = scope {
        telemetry::write_trace(&scope.finish());
    }
    if let Ok(o) = &out {
        telemetry::note_query(query, started.elapsed(), o.served_from_cache);
    }
    out
}

fn run_query_inner(
    client: &Client,
    transport: &mut dyn Transport,
    config: &OutsourceConfig,
    query: &str,
    force_naive: bool,
) -> Result<QueryOutcome, CoreError> {
    // Top-level unions run branch by branch; results merge with
    // string-level deduplication (first occurrence wins).
    let branches =
        exq_xpath::Path::parse_union(query).map_err(|e| CoreError::Query(e.to_string()))?;
    if branches.len() > 1 {
        let mut merged: Vec<String> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut timing = PhaseTiming::default();
        let mut bytes_to_server = 0;
        let mut bytes_to_client = 0;
        let mut blocks_shipped = 0;
        let mut naive_fallback = false;
        let mut served_from_cache = false;
        for b in &branches {
            let out = run_query_inner(client, transport, config, &b.to_string(), force_naive)?;
            for r in out.results {
                if seen.insert(r.clone()) {
                    merged.push(r);
                }
            }
            timing.client_translate += out.timing.client_translate;
            timing.server_translate += out.timing.server_translate;
            timing.server_process += out.timing.server_process;
            timing.transmit += out.timing.transmit;
            timing.decrypt += out.timing.decrypt;
            timing.post_process += out.timing.post_process;
            bytes_to_server += out.bytes_to_server;
            bytes_to_client += out.bytes_to_client;
            blocks_shipped += out.blocks_shipped;
            naive_fallback |= out.naive_fallback;
            served_from_cache |= out.served_from_cache;
        }
        merged.sort();
        return Ok(QueryOutcome {
            results: merged,
            timing,
            bytes_to_server,
            bytes_to_client,
            blocks_shipped,
            naive_fallback,
            served_from_cache,
        });
    }
    let tq = client.translate(query)?;
    // The span *is* the reported stat: record the measured duration rather
    // than re-timing, so traces and phase timings always agree.
    telemetry::record_span("client.translate", tq.translate_time);
    let naive = force_naive || tq.server_query.is_none();
    // Byte accounting is read off the transport: exact encoded frame
    // lengths in both directions, identical for in-process and TCP links.
    let before = transport.stats();
    let resp = if naive {
        transport.send_naive()?
    } else {
        transport.send_query(tq.server_query.as_ref().unwrap())?
    };
    let traffic = transport.stats().since(&before);
    let bytes_to_server = traffic.bytes_sent as usize;
    let bytes_to_client = traffic.bytes_received as usize;
    let block_sizes: Vec<usize> = resp.blocks.iter().map(|b| b.ciphertext.len()).collect();
    let post = client.post_process(&tq.post_query, &resp)?;
    telemetry::record_span("client.decrypt", post.decrypt_time);
    telemetry::record_span("client.post_process", post.post_process_time);
    let transmit = simulate_link(config, bytes_to_server + bytes_to_client);
    let decrypt = post.decrypt_time + simulate_decrypt(config, &block_sizes);
    Ok(QueryOutcome {
        results: post.results,
        timing: PhaseTiming {
            client_translate: tq.translate_time,
            server_translate: resp.translate_time,
            server_process: resp.process_time,
            transmit,
            decrypt,
            post_process: post.post_process_time,
        },
        bytes_to_server,
        bytes_to_client,
        blocks_shipped: resp.blocks.len(),
        naive_fallback: naive,
        served_from_cache: resp.served_from_cache,
    })
}

fn simulate_link(config: &OutsourceConfig, bytes: usize) -> Duration {
    let secs = (bytes as f64 * 8.0) / config.bandwidth_bps;
    config.latency * 2 + Duration::from_secs_f64(secs)
}

/// Simulated era decryption time for a set of blocks: one client worker
/// decrypts them one after another, as the client itself does.
fn simulate_decrypt(config: &OutsourceConfig, block_bytes: &[usize]) -> Duration {
    let era = &config.era;
    let cost = |bytes: usize| {
        Duration::from_secs_f64(bytes as f64 / era.decrypt_bytes_per_sec) + era.per_block
    };
    block_bytes.iter().map(|&bytes| cost(bytes)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::SecurityConstraint;
    use exq_xml::Document;

    fn doc() -> Document {
        Document::parse("<r><p><n>Betty</n><s>763895</s></p><p><n>Matt</n><s>276543</s></p></r>")
            .unwrap()
    }

    fn cs() -> Vec<SecurityConstraint> {
        vec![SecurityConstraint::parse("//p:(/n, /s)").unwrap()]
    }

    #[test]
    fn era_model_inflates_decrypt_only() {
        let hosted = Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc(), &cs(), SchemeKind::Opt, 1)
            .unwrap();
        let out = hosted.query("//p[n = 'Betty']/s").unwrap();
        assert!(
            out.blocks_shipped > 0,
            "era model needs shipped blocks to matter"
        );
        // Assert on the simulated component itself, not on a wall-clock
        // measurement (µs-scale and load-sensitive).
        let shipped = vec![64usize; out.blocks_shipped];
        assert!(simulate_decrypt(&OutsourceConfig::default(), &shipped) > Duration::ZERO);
    }

    #[test]
    fn link_simulation_scales_with_bytes() {
        let slow = OutsourceConfig {
            bandwidth_bps: 1e6,
            ..OutsourceConfig::default()
        };
        let fast = OutsourceConfig::default();
        let d = doc();
        let hosted_slow = Outsourcer::new(slow)
            .outsource(&d, &cs(), SchemeKind::Top, 1)
            .unwrap();
        let hosted_fast = Outsourcer::new(fast)
            .outsource(&d, &cs(), SchemeKind::Top, 1)
            .unwrap();
        let a = hosted_slow.query("//p").unwrap();
        let b = hosted_fast.query("//p").unwrap();
        assert!(a.timing.transmit > b.timing.transmit);
    }

    #[test]
    fn phase_totals_add_up() {
        let t = PhaseTiming {
            client_translate: Duration::from_millis(1),
            server_translate: Duration::from_millis(2),
            server_process: Duration::from_millis(3),
            transmit: Duration::from_millis(4),
            decrypt: Duration::from_millis(5),
            post_process: Duration::from_millis(6),
        };
        assert_eq!(t.total(), Duration::from_millis(21));
    }

    #[test]
    fn union_merges_and_dedups() {
        let d = doc();
        let hosted = Outsourcer::new(OutsourceConfig::default())
            .outsource(&d, &cs(), SchemeKind::Opt, 1)
            .unwrap();
        let out = hosted.query("//n | //n").unwrap();
        assert_eq!(out.results.len(), 2, "duplicate branches must dedup");
        let out = hosted.query("//n | //s").unwrap();
        assert_eq!(out.results.len(), 4);
    }
}
