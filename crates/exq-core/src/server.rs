//! The untrusted server (§6.2).
//!
//! The server stores the visible document, the sealed blocks, and the
//! metadata `M` (DSI index table, block table, OPESS value indexes). Query
//! answering follows the paper's three steps:
//!
//! 1. **structure translation** — each query step's tags are looked up in
//!    the DSI index table to obtain candidate interval lists;
//! 2. **value translation** — each value predicate's ciphertext range is
//!    scanned in the B-tree, yielding the set of blocks containing matching
//!    occurrences;
//! 3. **final joins** — structural semi-joins (forward and backward passes)
//!    prune the candidates; surviving anchor-step matches determine the
//!    pruned visible document and the block set shipped to the client.
//!
//! The server never decrypts anything; it cannot, it has no keys.

use crate::cache::{CacheStatsSnapshot, ServerCaches};
use crate::codec::WireCodec;
use crate::encrypt::{marker_block_id, EncryptedOutput, ServerMetadata, BLOCK_MARKER_TAG};
use crate::error::CoreError;
use crate::store::{BlockStore, PagedDb};
use crate::telemetry;
use crate::wire::{SAxis, SPred, SStep, ServerQuery, ServerResponse};
use exq_crypto::SealedBlock;
use exq_index::dsi::Interval;
use exq_index::sjoin::{sort_intervals, IntervalUniverse};
use exq_xml::{Document, NodeId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// One step of an [`ExplainReport`].
#[derive(Debug, Clone)]
pub struct ExplainStep {
    /// Server-visible tag keys probed in the DSI table.
    pub tags: Vec<String>,
    /// Interval candidates the table returned.
    pub candidates: usize,
    /// Candidates surviving axis + predicate filtering and the backward pass.
    pub survivors: usize,
    /// Number of predicates evaluated at this step.
    pub predicates: usize,
}

/// Server-side execution explanation (candidate pruning per step).
#[derive(Debug, Clone)]
pub struct ExplainReport {
    pub steps: Vec<ExplainStep>,
    /// The anchor step index whose matches determine the response.
    pub anchor: usize,
    /// Matches at the anchor step.
    pub anchors: usize,
}

/// The hosting server.
#[derive(Debug, Clone)]
pub struct Server {
    visible: Document,
    interval_to_visible: HashMap<Interval, NodeId>,
    metadata: ServerMetadata,
    universe: IntervalUniverse,
    /// Top-level universe intervals (no enclosing member), precomputed
    /// whenever the universe is (re)built so `apply_axis` from the document
    /// node is a set probe instead of a per-candidate containment stab.
    top_level: HashSet<Interval>,
    /// Sealed blocks: fully resident, or paged in through an out-of-core
    /// store (see `crate::store`).
    blocks: BlockStore,
    /// Blocks tombstoned by deletions (update support).
    dead_blocks: HashSet<u32>,
    /// Worker threads for intra-query candidate filtering and response
    /// assembly (resolved; >= 1). Runtime-only: not persisted.
    threads: usize,
    /// The response cache with its generation counter.
    /// Runtime-only: not persisted, and cloning yields fresh empty caches.
    caches: ServerCaches,
}

/// Per-query resolution of every ciphertext value range to its matching
/// live-block set (the lazy "step 2" of query answering, §6.2, hoisted to a
/// pre-pass). Built once per query from the *query alone* — the entries
/// depend only on the B-trees, never on which candidate is being tested —
/// so predicate filtering over it is read-only and safe to fan out across
/// threads.
#[derive(Debug, Default)]
struct ValueBlockCache {
    by_range: HashMap<(String, u128, u128), HashSet<u32>>,
}

impl ValueBlockCache {
    fn get(&self, attr: &str, lo: u128, hi: u128) -> Option<&HashSet<u32>> {
        self.by_range.get(&(attr.to_owned(), lo, hi))
    }
}

impl Server {
    /// Builds the server from the owner's encrypted output.
    pub fn new(out: &EncryptedOutput) -> Server {
        let universe = IntervalUniverse::new(out.metadata.dsi_table.all_intervals().to_vec());
        let top_level = universe.roots().collect();
        let mut interval_to_visible = HashMap::new();
        for n in out.visible.iter() {
            if let Some(Some(iv)) = out.visible_intervals.get(n.index()) {
                interval_to_visible.insert(*iv, n);
            }
        }
        Server {
            visible: out.visible.clone(),
            interval_to_visible,
            metadata: out.metadata.clone(),
            universe,
            top_level,
            blocks: BlockStore::Resident(out.blocks.iter().cloned().map(Arc::new).collect()),
            dead_blocks: HashSet::new(),
            threads: crate::pool::default_threads(),
            caches: ServerCaches::default(),
        }
    }

    /// Sets the intra-query worker count; `0` means auto (the `EXQ_THREADS`
    /// / available-parallelism resolution). Intra-query parallelism composes
    /// with the transport layer's connection concurrency: queries run under
    /// the serve loop's `RwLock` *read* guard, so concurrent clients and
    /// these workers share the server without exclusion.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = crate::pool::resolve_threads(threads);
    }

    /// The resolved intra-query worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Reconfigures the response-cache capacity in entries.
    /// `Some(0)` disables caching; `None` resolves from `EXQ_CACHE` /
    /// the default. Existing entries and counters are dropped.
    pub fn set_cache_entries(&mut self, entries: Option<usize>) {
        self.caches
            .set_capacity(crate::cache::resolve_cache_entries(entries));
    }

    /// The configured cache capacity (0 = caching off).
    pub fn cache_entries(&self) -> usize {
        self.caches.capacity()
    }

    /// Labels this server's caches with a tenant db name: hit/miss/eviction
    /// counts become `{db="<name>"}`-labeled registry series, so
    /// `exq stats` can break out per-tenant cache traffic and the
    /// `CacheStats` wire reply reads the same atomics as the metrics
    /// scrape. Existing entries and local counters are dropped.
    pub fn set_cache_db_label(&mut self, db: &str) {
        self.caches.set_db_label(db);
    }

    /// Point-in-time cache counters (also served over the wire via
    /// `CacheStatsReq`).
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.caches.snapshot()
    }

    /// True when a block id refers to live data.
    pub(crate) fn block_live(&self, id: u32) -> bool {
        !self.dead_blocks.contains(&id) && (id as usize) < self.blocks.len()
    }

    /// Total bytes the server hosts (visible doc + blocks) — what the naive
    /// method ships for every query. For a paged server the block total is
    /// tracked, not recomputed, so this never touches disk.
    pub fn hosted_bytes(&self) -> usize {
        self.visible.serialized_size() + self.blocks.payload_bytes() as usize
    }

    /// Total stored bytes of every sealed block (tombstoned included).
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.blocks.payload_bytes()
    }

    /// Number of sealed blocks hosted.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Fetches one sealed block by id (used by the MIN/MAX aggregate path,
    /// which ships a single block instead of a query response). On a paged
    /// server this may read from disk; a store failure is a typed error,
    /// never a silently-missing block.
    pub fn fetch_block(&self, id: u32) -> Result<Option<exq_crypto::SealedBlock>, CoreError> {
        if !self.block_live(id) {
            return Ok(None);
        }
        Ok(self.blocks.get(id)?.map(|b| (*b).clone()))
    }

    // --- out-of-core plumbing (see `crate::store`) ------------------------

    /// The paged store backing this server, when hosted out-of-core.
    pub fn paged_store(&self) -> Option<Arc<PagedDb>> {
        match &self.blocks {
            BlockStore::Resident(_) => None,
            BlockStore::Paged { db, .. } => Some(Arc::clone(db)),
        }
    }

    /// Converts a resident server to paged mode. The store must already
    /// hold every block (a full checkpoint ran); the resident copies drop.
    pub(crate) fn attach_paged(&mut self, db: Arc<PagedDb>) {
        if let BlockStore::Resident(v) = &self.blocks {
            let payload_bytes = v.iter().map(|b| b.stored_size() as u64).sum();
            self.blocks = BlockStore::Paged {
                db,
                count: v.len() as u32,
                payload_bytes,
                overlay: HashMap::new(),
            };
        }
    }

    /// Blocks inserted since the last checkpoint, in id order.
    pub(crate) fn overlay_blocks(&self) -> Vec<(u32, Arc<SealedBlock>)> {
        match &self.blocks {
            BlockStore::Resident(_) => Vec::new(),
            BlockStore::Paged { overlay, .. } => {
                let mut v: Vec<(u32, Arc<SealedBlock>)> =
                    overlay.iter().map(|(&id, b)| (id, Arc::clone(b))).collect();
                v.sort_unstable_by_key(|&(id, _)| id);
                v
            }
        }
    }

    /// Drops overlay entries the predicate marks durable (checkpointed).
    pub(crate) fn drain_overlay_if(&mut self, durable: impl Fn(u32) -> bool) {
        if let BlockStore::Paged { overlay, .. } = &mut self.blocks {
            overlay.retain(|&id, _| !durable(id));
        }
    }

    /// Appends a mutation record to the WAL when paged (fsync = commit);
    /// a no-op for resident servers.
    pub(crate) fn log_mutation(&self, kind: u8, payload: &[u8]) -> Result<(), CoreError> {
        if let BlockStore::Paged { db, .. } = &self.blocks {
            db.append_wal(kind, payload)?;
        }
        Ok(())
    }

    /// Read-only access to the hosted metadata (used by the security
    /// analysis, which models an attacker *on* the server).
    pub fn metadata(&self) -> &ServerMetadata {
        &self.metadata
    }

    // --- update-support plumbing (see `crate::update`) -------------------

    pub(crate) fn visible_node_of(&self, iv: &Interval) -> Option<NodeId> {
        self.interval_to_visible
            .get(iv)
            .copied()
            .filter(|&n| self.visible.is_live(n))
    }

    pub(crate) fn visible_element_name(&self, n: NodeId) -> Option<&str> {
        self.visible.element_name(n)
    }

    /// Every server-known interval strictly inside `parent` (table entries
    /// plus visible-node intervals, including text).
    pub(crate) fn known_intervals_within(&self, parent: &Interval) -> Vec<Interval> {
        let mut out: Vec<Interval> = self
            .metadata
            .dsi_table
            .all_intervals()
            .iter()
            .filter(|iv| parent.contains(iv))
            .copied()
            .collect();
        out.extend(
            self.interval_to_visible
                .keys()
                .filter(|iv| parent.contains(iv))
                .copied(),
        );
        out
    }

    pub(crate) fn push_block(&mut self, block: SealedBlock) {
        self.blocks.push(block);
        self.caches.bump_generation();
    }

    pub(crate) fn apply_metadata_delta(
        &mut self,
        dsi_entries: &[(String, Interval)],
        block_entries: &[(Interval, u32)],
        value_entries: &[(String, u128, u32)],
    ) {
        for (tag, iv) in dsi_entries {
            self.metadata.dsi_table.add(tag, *iv);
        }
        self.metadata.dsi_table.seal();
        for &(iv, id) in block_entries {
            self.metadata.block_table.add(iv, id);
        }
        self.metadata.block_table.seal();
        for (attr, cipher, id) in value_entries {
            self.metadata
                .value_indexes
                .entry(attr.clone())
                .or_default()
                .insert(*cipher, *id);
        }
        self.rebuild_universe();
    }

    pub(crate) fn rebuild_universe(&mut self) {
        self.universe = IntervalUniverse::new(self.metadata.dsi_table.all_intervals().to_vec());
        self.top_level = self.universe.roots().collect();
        self.caches.bump_generation();
    }

    /// Splices an `_exq_iv`-annotated fragment under a visible parent,
    /// registering the new intervals.
    pub(crate) fn splice_annotated(
        &mut self,
        frag: &Document,
        node: NodeId,
        vis_parent: NodeId,
    ) -> Result<(), CoreError> {
        use crate::update::IV_ATTR;
        let parse_iv = |v: &str| -> Result<Interval, CoreError> {
            let (lo, hi) = v
                .split_once(',')
                .ok_or_else(|| CoreError::Response("bad interval annotation".into()))?;
            let lo = lo
                .parse()
                .map_err(|_| CoreError::Response("bad interval lo".into()))?;
            let hi = hi
                .parse()
                .map_err(|_| CoreError::Response("bad interval hi".into()))?;
            // The annotation comes from the (untrusted-at-this-layer) wire;
            // reject inverted intervals rather than trip Interval::new's
            // invariant.
            if lo >= hi {
                return Err(CoreError::Response("inverted interval annotation".into()));
            }
            Ok(Interval::new(lo, hi))
        };
        match frag.node(node).kind() {
            exq_xml::NodeKind::Element(t) => {
                let name = frag.tag_name(*t).to_owned();
                let el = self.visible.add_element(Some(vis_parent), &name);
                // First pass: collect annotations and real attributes.
                let mut own_iv = None;
                let mut attr_ivs: Vec<(String, Interval)> = Vec::new();
                let mut real_attrs: Vec<(String, String)> = Vec::new();
                for &a in frag.node(node).attrs() {
                    if let exq_xml::NodeKind::Attribute(at, v) = frag.node(a).kind() {
                        let an = frag.tag_name(*at);
                        if an == IV_ATTR {
                            own_iv = Some(parse_iv(v)?);
                        } else if let Some(real) = an.strip_prefix(&format!("{IV_ATTR}_")) {
                            attr_ivs.push((real.to_owned(), parse_iv(v)?));
                        } else {
                            real_attrs.push((an.to_owned(), v.clone()));
                        }
                    }
                }
                let own_iv = own_iv
                    .ok_or_else(|| CoreError::Response("unannotated fragment node".into()))?;
                self.interval_to_visible.insert(own_iv, el);
                for (an, v) in &real_attrs {
                    let attr = self.visible.add_attr(el, an, v);
                    if let Some((_, aiv)) = attr_ivs.iter().find(|(n, _)| n == an) {
                        self.interval_to_visible.insert(*aiv, attr);
                    }
                }
                for &c in frag.node(node).children() {
                    self.splice_annotated(frag, c, el)?;
                }
                Ok(())
            }
            exq_xml::NodeKind::Text(v) => {
                self.visible.add_text(vis_parent, v);
                Ok(())
            }
            exq_xml::NodeKind::Attribute(..) => Ok(()),
        }
    }

    // --- persistence plumbing (see `crate::persist`) ----------------------

    /// `(pre-order position among elements+attributes, interval)` pairs for
    /// the visible document — the persistence keying of the interval map.
    pub(crate) fn interval_positions(&self) -> Vec<(usize, Interval)> {
        let node_to_iv: HashMap<NodeId, Interval> = self
            .interval_to_visible
            .iter()
            .map(|(&iv, &n)| (n, iv))
            .collect();
        self.visible
            .iter()
            .filter(|&n| !self.visible.node(n).is_text())
            .enumerate()
            .filter_map(|(pos, n)| node_to_iv.get(&n).map(|&iv| (pos, iv)))
            .collect()
    }

    /// Every hosted block in id order. Pages the whole database in when
    /// out-of-core (full save / naive answer paths only).
    pub(crate) fn collect_blocks(&self) -> Result<Vec<Arc<SealedBlock>>, CoreError> {
        self.blocks.collect()
    }

    pub(crate) fn dead_block_ids(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.dead_blocks.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Reassembles a server from persisted parts (resident blocks).
    pub(crate) fn from_parts(
        visible: Document,
        pos_intervals: HashMap<usize, Interval>,
        metadata: ServerMetadata,
        blocks: Vec<SealedBlock>,
        dead_blocks: HashSet<u32>,
    ) -> Server {
        Self::from_store_parts(
            visible,
            pos_intervals,
            metadata,
            BlockStore::Resident(blocks.into_iter().map(Arc::new).collect()),
            dead_blocks,
        )
    }

    /// Reassembles a server around an arbitrary block store (the paged
    /// open path hands in a `BlockStore::Paged`).
    pub(crate) fn from_store_parts(
        visible: Document,
        pos_intervals: HashMap<usize, Interval>,
        metadata: ServerMetadata,
        blocks: BlockStore,
        dead_blocks: HashSet<u32>,
    ) -> Server {
        let mut interval_to_visible = HashMap::with_capacity(pos_intervals.len());
        for (pos, n) in visible
            .iter()
            .filter(|&n| !visible.node(n).is_text())
            .enumerate()
        {
            if let Some(&iv) = pos_intervals.get(&pos) {
                interval_to_visible.insert(iv, n);
            }
        }
        let universe = IntervalUniverse::new(metadata.dsi_table.all_intervals().to_vec());
        let top_level = universe.roots().collect();
        Server {
            visible,
            interval_to_visible,
            metadata,
            universe,
            top_level,
            blocks,
            dead_blocks,
            threads: crate::pool::default_threads(),
            caches: ServerCaches::default(),
        }
    }

    /// Removes a victim interval's visible subtree and metadata; `false`
    /// when the victim lives strictly inside a block (cannot be removed).
    pub(crate) fn remove_visible_subtree(&mut self, victim: &Interval) -> bool {
        let Some(vis) = self.visible_node_of(victim) else {
            return false;
        };
        self.visible.detach(vis);
        self.interval_to_visible.retain(|iv, _| !victim.covers(iv));
        self.metadata.dsi_table.remove_within(*victim);
        for id in self.metadata.block_table.remove_within(*victim) {
            self.dead_blocks.insert(id);
        }
        self.caches.bump_generation();
        true
    }

    /// The visible document as the attacker sees it.
    pub fn visible_xml(&self) -> String {
        self.visible.to_xml()
    }

    /// The naive method of §7.3: ship the entire hosted database. On a
    /// paged server this reads every block back through the buffer pool.
    pub fn answer_naive(&self) -> Result<ServerResponse, CoreError> {
        let start = Instant::now();
        let resp = ServerResponse {
            pruned_xml: self.visible.to_xml(),
            blocks: self
                .collect_blocks()?
                .into_iter()
                .filter(|b| self.block_live(b.id))
                .collect(),
            translate_time: std::time::Duration::ZERO,
            process_time: start.elapsed(),
            served_from_cache: false,
            spans: Vec::new(),
        };
        telemetry::record_span("server.assemble", resp.process_time);
        Ok(resp)
    }

    /// Whether the response cache already holds the answer to `q` under the
    /// current generation. A pure probe for the serve loop's admission
    /// control: no LRU promotion, no hit/miss counting.
    pub fn has_cached_response(&self, q: &ServerQuery) -> bool {
        !q.steps.is_empty()
            && self
                .caches
                .responses
                .peek(&q.encode(), self.caches.generation())
    }

    /// Answers a translated query. Fallible because a paged server reads
    /// shipped blocks through the store; a read failure is a typed error
    /// answered as an error frame — never a partial response.
    pub fn answer(&self, q: &ServerQuery) -> Result<ServerResponse, CoreError> {
        if q.steps.is_empty() {
            // Degenerate query (`.`): equivalent to the naive method.
            // Not cached — it ships the whole database anyway.
            return self.answer_naive();
        }
        // Response cache: deterministic tag/OPESS encryption makes
        // identical client queries encode to byte-identical `ServerQuery`s,
        // so the canonical encoding is the memo key. Entries are tagged
        // with the generation captured *before* computing; queries run
        // under the serve loop's read guard and mutations under its write
        // guard, so the generation cannot move mid-query.
        let generation = self.caches.generation();
        let cache_key = if self.caches.responses.enabled() {
            // Time the key encode + probe for real: a warm query's
            // `translate_time` is its probe cost, not a fake zero.
            let t_probe = Instant::now();
            let key = q.encode();
            let probe = self.caches.responses.get(&key, generation);
            let probe_time = t_probe.elapsed();
            telemetry::record_span("server.cache_probe", probe_time);
            if let Some(hit) = probe {
                let t = Instant::now();
                let pruned_xml = hit.pruned_xml.clone();
                // Arc clones — the ciphertext payloads are shared, not copied.
                let blocks = hit.blocks.clone();
                let assemble_time = t.elapsed();
                telemetry::record_span("server.assemble", assemble_time);
                return Ok(ServerResponse {
                    pruned_xml,
                    blocks,
                    translate_time: probe_time,
                    process_time: assemble_time,
                    served_from_cache: true,
                    spans: Vec::new(),
                });
            }
            Some(key)
        } else {
            None
        };
        // Step 1: structure translation — candidate intervals per step.
        let t0 = Instant::now();
        let step_candidates: Vec<Vec<Interval>> =
            q.steps.iter().map(|s| self.candidates(s)).collect();
        let translate_time = t0.elapsed();
        // The span *is* the reported stat: same measured duration.
        telemetry::record_span("server.dsi_lookup", translate_time);

        let t1 = Instant::now();
        // Step 2 up front: resolve every ciphertext range in the query to
        // its block set, so the per-candidate passes below are read-only.
        let t_resolve = Instant::now();
        let cache = self.build_value_cache(&q.steps);
        telemetry::record_span("server.value_resolve", t_resolve.elapsed());
        let t_sjoin = Instant::now();
        let survivors = self.match_survivors(q, &step_candidates, &cache);
        let n = q.steps.len();
        // Step 3: response assembly. Ship every anchor match's region plus
        // one witness region per predicate at steps above the anchor, so
        // the client can re-verify the full query exactly.
        let anchor_idx = q.anchor.min(n.saturating_sub(1));
        let mut targets: Vec<Interval> = survivors[anchor_idx].clone();
        for (i, step) in q.steps.iter().enumerate().take(anchor_idx) {
            if step.preds.is_empty() {
                continue;
            }
            let witnesses = crate::pool::parallel_map(self.threads, &survivors[i], |c| {
                step.preds
                    .iter()
                    .filter_map(|pred| self.pred_witness(c, pred, &cache))
                    .collect::<Vec<Interval>>()
            });
            targets.extend(witnesses.into_iter().flatten());
        }
        telemetry::record_span("server.sjoin", t_sjoin.elapsed());
        let t_assemble = Instant::now();
        let (pruned_xml, blocks) = self.assemble(&targets)?;
        telemetry::record_span("server.assemble", t_assemble.elapsed());
        let resp = ServerResponse {
            pruned_xml,
            blocks,
            translate_time,
            process_time: t1.elapsed(),
            served_from_cache: false,
            spans: Vec::new(),
        };
        if let Some(key) = cache_key {
            self.caches
                .responses
                .insert(key, Arc::new(resp.clone()), generation);
        }
        Ok(resp)
    }

    /// Resolves one ciphertext range against an attribute's B-tree,
    /// dropping tombstoned blocks.
    fn value_blocks(&self, attr: &str, lo: u128, hi: u128) -> HashSet<u32> {
        self.metadata
            .value_indexes
            .get(attr)
            .map(|t| {
                t.range(lo, hi)
                    .into_iter()
                    .filter(|&b| self.block_live(b))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Walks every predicate reachable from `steps` (including relative
    /// patterns nested inside predicates) and resolves each encrypted value
    /// range once. The resulting cache depends only on the query and the
    /// hosted indexes — never on a candidate — so all later passes share it
    /// immutably.
    fn build_value_cache(&self, steps: &[SStep]) -> ValueBlockCache {
        fn walk(server: &Server, steps: &[SStep], cache: &mut ValueBlockCache) {
            for step in steps {
                for pred in &step.preds {
                    match pred {
                        SPred::Exists(inner) => walk(server, inner, cache),
                        SPred::Value { path, range, .. } => {
                            walk(server, path, cache);
                            if let Some((attr, r)) = range {
                                cache
                                    .by_range
                                    .entry((attr.clone(), r.lo, r.hi))
                                    .or_insert_with(|| server.value_blocks(attr, r.lo, r.hi));
                            }
                        }
                    }
                }
            }
        }
        let mut cache = ValueBlockCache::default();
        walk(self, steps, &mut cache);
        cache
    }

    /// One witness interval demonstrating that `pred` holds at `ctx`
    /// (shipped so the client can re-check the predicate exactly).
    fn pred_witness(
        &self,
        ctx: &Interval,
        pred: &SPred,
        cache: &ValueBlockCache,
    ) -> Option<Interval> {
        match pred {
            SPred::Exists(steps) => self.eval_relative(*ctx, steps, cache).into_iter().next(),
            SPred::Value { path, range, plain } => {
                let targets = if path.is_empty() {
                    vec![*ctx]
                } else {
                    self.eval_relative(*ctx, path, cache)
                };
                let matching_blocks: Option<&HashSet<u32>> = range
                    .as_ref()
                    .and_then(|(attr, r)| cache.get(attr, r.lo, r.hi));
                targets.into_iter().find(|t| {
                    let plain_ok = plain.as_ref().is_some_and(|(op, lit)| {
                        self.interval_to_visible.get(t).is_some_and(|&n| {
                            op.holds(lit.compare_with(&self.visible.text_value(n)))
                        })
                    });
                    let enc_ok = matching_blocks.is_some_and(|set| {
                        self.metadata
                            .block_table
                            .covering_block(t)
                            .is_some_and(|b| set.contains(&b))
                    });
                    plain_ok || enc_ok
                })
            }
        }
    }

    /// Explains how a translated query would execute: per-step candidate
    /// counts from the DSI table, survivors after the forward pass
    /// (axis + predicate filtering), and survivors after the backward pass —
    /// the server-side equivalent of a database EXPLAIN.
    pub fn explain(&self, q: &ServerQuery) -> ExplainReport {
        let step_candidates: Vec<Vec<Interval>> =
            q.steps.iter().map(|s| self.candidates(s)).collect();
        let survivors = if q.steps.is_empty() {
            Vec::new()
        } else {
            let cache = self.build_value_cache(&q.steps);
            self.match_survivors(q, &step_candidates, &cache)
        };
        let steps = q
            .steps
            .iter()
            .enumerate()
            .map(|(i, step)| ExplainStep {
                tags: step.tags.clone(),
                candidates: step_candidates.get(i).map_or(0, Vec::len),
                survivors: survivors.get(i).map_or(0, Vec::len),
                predicates: step.preds.len(),
            })
            .collect();
        let anchor = q.anchor.min(q.steps.len().saturating_sub(1));
        let anchors = survivors.get(anchor).map_or(0, Vec::len);
        ExplainReport {
            steps,
            anchor,
            anchors,
        }
    }

    /// Matches a query's intervals at the final step (used by updates to
    /// locate parents/victims without assembling a response).
    pub fn locate(&self, q: &ServerQuery) -> Vec<Interval> {
        if q.steps.is_empty() {
            return Vec::new();
        }
        let step_candidates: Vec<Vec<Interval>> =
            q.steps.iter().map(|s| self.candidates(s)).collect();
        let cache = self.build_value_cache(&q.steps);
        let survivors = self.match_survivors(q, &step_candidates, &cache);
        survivors.last().cloned().unwrap_or_default()
    }

    /// Forward + backward structural passes; returns per-step survivors.
    ///
    /// Predicate filtering is the per-candidate hot loop: every candidate's
    /// predicates evaluate independently against the immutable value cache,
    /// so the filter fans out across the configured worker threads while
    /// keeping the serial path's candidate order exactly.
    fn match_survivors(
        &self,
        q: &ServerQuery,
        step_candidates: &[Vec<Interval>],
        cache: &ValueBlockCache,
    ) -> Vec<Vec<Interval>> {
        // Forward pass with predicate filtering.
        let mut survivors: Vec<Vec<Interval>> = Vec::with_capacity(q.steps.len());
        for (i, step) in q.steps.iter().enumerate() {
            let ctx: Option<&[Interval]> = if i == 0 {
                None
            } else {
                Some(&survivors[i - 1])
            };
            let mut cands = self.apply_axis(ctx, step.axis, &step_candidates[i]);
            if !step.preds.is_empty() {
                cands = crate::pool::parallel_filter(self.threads, cands, |c| {
                    step.preds.iter().all(|p| self.pred_holds(c, p, cache))
                });
            }
            let empty = cands.is_empty();
            survivors.push(cands);
            if empty {
                break;
            }
        }
        while survivors.len() < q.steps.len() {
            survivors.push(Vec::new());
        }

        // Backward pass: keep only intervals leading to a full match.
        // Splitting the survivor list gives simultaneous access to level i
        // (mutable) and level i+1 (shared) without cloning level i+1.
        let n = q.steps.len();
        for i in (0..n.saturating_sub(1)).rev() {
            let next_axis = q.steps[i + 1].axis;
            let (head, tail) = survivors.split_at_mut(i + 1);
            let cur = &mut head[i];
            let next: &[Interval] = &tail[0];
            match next_axis {
                SAxis::Descendant => {
                    let keep = exq_index::sjoin::semijoin_anc(cur, next);
                    let kept: Vec<Interval> = keep.into_iter().map(|k| cur[k]).collect();
                    *cur = kept;
                }
                SAxis::DescendantOrSelf => {
                    let keep: HashSet<usize> = exq_index::sjoin::semijoin_anc(cur, next)
                        .into_iter()
                        .collect();
                    let next_set: HashSet<Interval> = next.iter().copied().collect();
                    let kept: Vec<Interval> = cur
                        .iter()
                        .enumerate()
                        .filter(|(k, c)| keep.contains(k) || next_set.contains(*c))
                        .map(|(_, c)| *c)
                        .collect();
                    *cur = kept;
                }
                SAxis::Child | SAxis::Attribute => {
                    let parents: HashSet<Interval> = next
                        .iter()
                        .filter_map(|d| self.universe.tightest_container(d))
                        .collect();
                    cur.retain(|c| parents.contains(c));
                }
            }
        }

        survivors
    }

    /// DSI-table lookups for one step. The table guarantees sortedness at
    /// seal time (posting lists and the interval union), so the common
    /// cases — wildcard and single-tag — copy a pre-sorted slice with no
    /// per-query sort; only multi-tag unions still merge.
    fn candidates(&self, step: &SStep) -> Vec<Interval> {
        match step.tags.as_slice() {
            // Wildcard: the sorted, deduped union is precomputed.
            [] => self.metadata.dsi_table.all_intervals().to_vec(),
            [tag] => {
                let list = self.metadata.dsi_table.lookup(tag);
                debug_assert!(
                    list.windows(2)
                        .all(|w| (w[0].lo, std::cmp::Reverse(w[0].hi))
                            < (w[1].lo, std::cmp::Reverse(w[1].hi))),
                    "DSI posting list for {tag:?} not sorted/deduped at seal time"
                );
                list.to_vec()
            }
            tags => {
                let mut out: Vec<Interval> = tags
                    .iter()
                    .flat_map(|t| self.metadata.dsi_table.lookup(t).iter().copied())
                    .collect();
                sort_intervals(&mut out);
                out.dedup();
                out
            }
        }
    }

    /// Applies an axis between a context set (`None` = the virtual document
    /// node) and candidates. Inputs and output are sorted interval lists.
    fn apply_axis(
        &self,
        ctx: Option<&[Interval]>,
        axis: SAxis,
        cands: &[Interval],
    ) -> Vec<Interval> {
        match ctx {
            None => match axis {
                // From the document node, descendant(-or-self) reaches
                // everything.
                SAxis::Descendant | SAxis::DescendantOrSelf => cands.to_vec(),
                // Child of the document node = top-level intervals
                // (precomputed whenever the universe is rebuilt).
                SAxis::Child | SAxis::Attribute => cands
                    .iter()
                    .copied()
                    .filter(|c| self.top_level.contains(c))
                    .collect(),
            },
            Some(ctx) => match axis {
                SAxis::Descendant => {
                    let idx = exq_index::sjoin::semijoin_desc(ctx, cands);
                    idx.into_iter().map(|i| cands[i]).collect()
                }
                SAxis::DescendantOrSelf => {
                    let ctx_set: HashSet<Interval> = ctx.iter().copied().collect();
                    let mut out: Vec<Interval> = exq_index::sjoin::semijoin_desc(ctx, cands)
                        .into_iter()
                        .map(|i| cands[i])
                        .collect();
                    out.extend(cands.iter().copied().filter(|c| ctx_set.contains(c)));
                    exq_index::sjoin::sort_intervals(&mut out);
                    out.dedup();
                    out
                }
                SAxis::Child | SAxis::Attribute => {
                    let ctx_set: HashSet<Interval> = ctx.iter().copied().collect();
                    cands
                        .iter()
                        .copied()
                        .filter(|c| {
                            self.universe
                                .tightest_container(c)
                                .is_some_and(|t| ctx_set.contains(&t))
                        })
                        .collect()
                }
            },
        }
    }

    /// Evaluates a relative pattern from a single context interval.
    fn eval_relative(
        &self,
        ctx: Interval,
        steps: &[SStep],
        cache: &ValueBlockCache,
    ) -> Vec<Interval> {
        let mut cur = vec![ctx];
        for step in steps {
            let cands = self.candidates(step);
            let mut next = self.apply_axis(Some(&cur), step.axis, &cands);
            next.retain(|c| step.preds.iter().all(|p| self.pred_holds(c, p, cache)));
            cur = next;
            if cur.is_empty() {
                break;
            }
        }
        cur
    }

    fn pred_holds(&self, ctx: &Interval, pred: &SPred, cache: &ValueBlockCache) -> bool {
        match pred {
            SPred::Exists(steps) => !self.eval_relative(*ctx, steps, cache).is_empty(),
            SPred::Value { path, range, plain } => {
                let targets = if path.is_empty() {
                    vec![*ctx]
                } else {
                    self.eval_relative(*ctx, path, cache)
                };
                if targets.is_empty() {
                    return false;
                }
                let resolved;
                let matching_blocks: Option<&HashSet<u32>> = match range {
                    None => None,
                    Some((attr, r)) => match cache.get(attr, r.lo, r.hi) {
                        Some(set) => Some(set),
                        // A range the pre-pass did not see (defensive only:
                        // `build_value_cache` walks every reachable pred).
                        None => {
                            resolved = self.value_blocks(attr, r.lo, r.hi);
                            Some(&resolved)
                        }
                    },
                };
                targets.iter().any(|t| {
                    let plain_ok = plain.as_ref().is_some_and(|(op, lit)| {
                        self.interval_to_visible.get(t).is_some_and(|&n| {
                            op.holds(lit.compare_with(&self.visible.text_value(n)))
                        })
                    });
                    let enc_ok = matching_blocks.is_some_and(|set| {
                        self.metadata
                            .block_table
                            .covering_block(t)
                            .is_some_and(|b| set.contains(&b))
                    });
                    plain_ok || enc_ok
                })
            }
        }
    }

    /// Builds the pruned visible document + block set for the anchor set.
    ///
    /// One pass marks the region in a per-node table over the visible
    /// arena, one pass writes it: `pruned_xml` is serialized straight from
    /// `self.visible`, and the marked set is ancestor-closed (a chain is
    /// always marked with its target), so membership alone decides emission.
    /// Marking is O(region) however the anchors nest or repeat: a subtree
    /// already marked whole is not walked again, and a chain stops at the
    /// first marked ancestor.
    fn assemble(&self, anchors: &[Interval]) -> Result<(String, Vec<Arc<SealedBlock>>), CoreError> {
        if anchors.is_empty() {
            return Ok((String::new(), Vec::new()));
        }
        let mut region = Region {
            visible: &self.visible,
            marker_tag: self.visible.tag_id(BLOCK_MARKER_TAG),
            marks: vec![Mark::Out; self.visible.arena_len()],
            block_ids: Vec::new(),
            stack: Vec::new(),
        };
        for a in anchors {
            if let Some(&v) = self.interval_to_visible.get(a) {
                // Visible anchor: chain + full subtree + blocks under it.
                region.mark(v);
            } else if let Some(b) = self.metadata.block_table.covering_block(a) {
                // Anchor inside a block: chain to the marker + the block.
                region.block_ids.push(b);
                if let Some(rep) = self.metadata.block_table.representative(b) {
                    if let Some(&marker) = self.interval_to_visible.get(&rep) {
                        region.mark(marker);
                    }
                }
            }
        }
        let Region {
            marks,
            mut block_ids,
            ..
        } = region;
        block_ids.sort_unstable();
        block_ids.dedup();

        let pruned_xml = self
            .visible
            .to_xml_filtered(|n| marks[n.index()] != Mark::Out);
        block_ids.retain(|&b| self.block_live(b));
        Ok((pruned_xml, self.blocks.get_many(&block_ids)?))
    }
}

/// Where a visible node stands in the answer region being assembled.
#[derive(Clone, Copy, PartialEq)]
enum Mark {
    Out,
    /// Shipped, as context: the node and its attributes, not all its children.
    Kept,
    /// Shipped with its whole subtree.
    Whole,
}

/// The answer region of one query over the visible arena (see
/// [`Server::assemble`]).
struct Region<'a> {
    visible: &'a Document,
    marker_tag: Option<exq_xml::TagId>,
    marks: Vec<Mark>,
    /// Blocks the region needs, in discovery order, duplicates included.
    block_ids: Vec<u32>,
    stack: Vec<NodeId>,
}

impl Region<'_> {
    /// Marks `v`'s subtree whole — collecting the id of every block marker
    /// in it — and `v`'s ancestors as context.
    fn mark(&mut self, v: NodeId) {
        self.stack.push(v);
        while let Some(n) = self.stack.pop() {
            if self.marks[n.index()] == Mark::Whole {
                continue;
            }
            self.marks[n.index()] = Mark::Whole;
            let node = self.visible.node(n);
            if let exq_xml::NodeKind::Element(t) = node.kind() {
                if Some(*t) == self.marker_tag {
                    self.block_ids.extend(marker_block_id(self.visible, n));
                }
            }
            self.stack.extend(node.attrs());
            self.stack.extend(node.children());
        }
        let mut cur = v;
        while let Some(p) = self.visible.node(cur).parent() {
            if self.marks[p.index()] != Mark::Out {
                break;
            }
            // Attributes ride along with any shipped element.
            self.marks[p.index()] = Mark::Kept;
            for a in self.visible.node(p).attrs() {
                self.marks[a.index()] = Mark::Kept;
            }
            cur = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::SecurityConstraint;
    use crate::scheme::{EncryptionScheme, SchemeKind};
    use crate::wire::{SAxis, SStep};
    use exq_crypto::KeyChain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn server(kind: SchemeKind) -> (Server, crate::encrypt::ClientCryptoState) {
        let doc = Document::parse(
            r#"<hospital><patient><pname>Betty</pname><SSN>763895</SSN></patient>
               <patient><pname>Matt</pname><SSN>276543</SSN></patient></hospital>"#,
        )
        .unwrap();
        let cs = vec![SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap()];
        let scheme = EncryptionScheme::build(&doc, &cs, kind).unwrap();
        let keys = KeyChain::from_seed(3);
        let mut rng = StdRng::seed_from_u64(3);
        let out = crate::encrypt::encrypt_database(&doc, &scheme, &keys, &mut rng).unwrap();
        (Server::new(&out), out.client_state)
    }

    fn step(axis: SAxis, tag: &str) -> SStep {
        SStep {
            axis,
            tags: vec![tag.to_owned()],
            preds: Vec::new(),
        }
    }

    #[test]
    fn locate_finds_plain_tags() {
        let (s, _) = server(SchemeKind::Opt);
        let q = ServerQuery {
            steps: vec![step(SAxis::Descendant, "patient")],
            anchor: 0,
        };
        assert_eq!(s.locate(&q).len(), 2);
        // Unknown tag matches nothing.
        let q = ServerQuery {
            steps: vec![step(SAxis::Descendant, "ghost")],
            anchor: 0,
        };
        assert!(s.locate(&q).is_empty());
    }

    #[test]
    fn locate_child_chain() {
        let (s, _) = server(SchemeKind::Opt);
        let q = ServerQuery {
            steps: vec![
                step(SAxis::Child, "hospital"),
                step(SAxis::Child, "patient"),
            ],
            anchor: 1,
        };
        assert_eq!(s.locate(&q).len(), 2);
        // Wrong root tag kills the chain.
        let q = ServerQuery {
            steps: vec![step(SAxis::Child, "clinic"), step(SAxis::Child, "patient")],
            anchor: 1,
        };
        assert!(s.locate(&q).is_empty());
    }

    #[test]
    fn wildcard_step_uses_all_intervals() {
        let (s, _) = server(SchemeKind::Opt);
        let q = ServerQuery {
            steps: vec![SStep {
                axis: SAxis::Descendant,
                tags: Vec::new(),
                preds: Vec::new(),
            }],
            anchor: 0,
        };
        // Every table interval (plain + encrypted tags) is a candidate.
        assert_eq!(
            s.locate(&q).len(),
            s.metadata().dsi_table.all_intervals().len()
        );
    }

    #[test]
    fn insertion_slot_requires_visible_parent() {
        let (s, state) = server(SchemeKind::Opt);
        // A visible patient works.
        let q = ServerQuery {
            steps: vec![step(SAxis::Descendant, "patient")],
            anchor: 0,
        };
        let parent = s.locate(&q)[0];
        let slot = s.insertion_slot(parent).unwrap();
        assert!(slot.gap_lo < slot.gap_hi);
        assert_eq!(slot.next_block_id as usize, s.block_count());
        // An interval inside a block has no visible node.
        let cipher = state.keys.tag_cipher();
        let enc_tag = cipher.encrypt("pname");
        let hidden = s.metadata().dsi_table.lookup(&enc_tag)[0];
        assert!(s.insertion_slot(hidden).is_err());
    }

    #[test]
    fn answer_naive_ships_everything() {
        let (s, _) = server(SchemeKind::Opt);
        let resp = s.answer_naive().unwrap();
        assert_eq!(resp.blocks.len(), s.block_count());
        assert_eq!(resp.pruned_xml, s.visible_xml());
    }

    #[test]
    fn empty_query_degenerates_to_naive() {
        let (s, _) = server(SchemeKind::Opt);
        let resp = s
            .answer(&ServerQuery {
                steps: Vec::new(),
                anchor: 0,
            })
            .unwrap();
        assert_eq!(resp.blocks.len(), s.block_count());
    }
}

#[cfg(test)]
mod explain_tests {
    use super::tests_support::*;
    use super::*;
    use crate::wire::SAxis;

    #[test]
    fn explain_reports_pruning() {
        let (s, _) = build_server(crate::scheme::SchemeKind::Opt);
        let q = ServerQuery {
            steps: vec![
                mk_step(SAxis::Child, "hospital"),
                mk_step(SAxis::Child, "patient"),
            ],
            anchor: 1,
        };
        let r = s.explain(&q);
        assert_eq!(r.steps.len(), 2);
        assert_eq!(r.anchor, 1);
        assert_eq!(r.anchors, 2);
        assert!(r.steps[0].candidates >= r.steps[0].survivors);
    }

    #[test]
    fn explain_empty_query() {
        let (s, _) = build_server(crate::scheme::SchemeKind::Opt);
        let r = s.explain(&ServerQuery {
            steps: Vec::new(),
            anchor: 0,
        });
        assert!(r.steps.is_empty());
        assert_eq!(r.anchors, 0);
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::constraints::SecurityConstraint;
    use crate::scheme::{EncryptionScheme, SchemeKind};
    use crate::wire::SAxis;
    use exq_crypto::KeyChain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn build_server(kind: SchemeKind) -> (Server, crate::encrypt::ClientCryptoState) {
        let doc = Document::parse(
            r#"<hospital><patient><pname>Betty</pname><SSN>763895</SSN></patient>
               <patient><pname>Matt</pname><SSN>276543</SSN></patient></hospital>"#,
        )
        .unwrap();
        let cs = vec![SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap()];
        let scheme = EncryptionScheme::build(&doc, &cs, kind).unwrap();
        let keys = KeyChain::from_seed(3);
        let mut rng = StdRng::seed_from_u64(3);
        let out = crate::encrypt::encrypt_database(&doc, &scheme, &keys, &mut rng).unwrap();
        (Server::new(&out), out.client_state)
    }

    pub(crate) fn mk_step(axis: SAxis, tag: &str) -> crate::wire::SStep {
        crate::wire::SStep {
            axis,
            tags: vec![tag.to_owned()],
            preds: Vec::new(),
        }
    }
}
