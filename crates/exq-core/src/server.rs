//! The untrusted server (§6.2).
//!
//! The server stores the visible document, the sealed blocks, and the
//! metadata `M` (DSI index table, block table, OPESS value indexes). The
//! visible document is held as its own serialization, the text its writer
//! wrote, with the byte span of each universe position's visible node
//! (`crate::visible`); no tree is kept beside it, and a reply's visible
//! region is copied out of that text by position. Query answering follows
//! the paper's three steps:
//!
//! 1. **structure translation** — each query step's tags are looked up in
//!    the DSI index table, which holds every tag's entries as positions in
//!    its interval universe (every listed interval once, in join order):
//!    no query maps an interval;
//! 2. **value translation** — each value predicate's ciphertext range is
//!    looked up in its value index, yielding the set of blocks containing matching
//!    occurrences;
//! 3. **final joins** — one matcher, `Server::match_steps`, evaluates a
//!    step sequence set-at-a-time: a forward pass applies each step's axis
//!    and predicates to whole sorted position lists, a backward pass keeps
//!    what leads to a full match. Parent, subtree end, visible span, value
//!    number and enclosing block are arrays over positions, so a child step
//!    either way is one stack merge, a child of the document node is a
//!    member with no parent, and a value test reads in place — a plaintext
//!    one compares its node's number with the literal's, and reads the
//!    node's text only where either has none; an encrypted one reads the
//!    enclosing block — the joins never hash. The trunk is that function
//!    from the document node. A predicate is a branch, so filtering a
//!    step's list by it is the same function with that list as the context
//!    (a value test applied once, to the branch's last list). A small
//!    context pays for its own span only: `apply_axis` first cuts the
//!    posting list down to `[first member, furthest subtree end)`, which
//!    holds everything a supported axis — child, attribute, descendant,
//!    descendant-or-self — can reach. Surviving anchor-step matches and,
//!    per predicate above the anchor, one witness per survivor determine
//!    the pruned visible document and the block set shipped to the client:
//!    each kept subtree is one slice of the visible text, each ancestor its
//!    start tag and a close tag, and the blocks are the block table's roots
//!    among the copied positions. The witnesses too are one branch match,
//!    from the whole survivor list: going back up the branch's lists, each
//!    member's first reachable last-list member is a least-value merge
//!    (`Server::witnesses`).
//!
//! The server never decrypts anything; it cannot, it has no keys.

use crate::cache::{CacheStatsSnapshot, ServerCaches};
use crate::codec::WireCodec;
use crate::encrypt::{EncryptedOutput, ServerMetadata};
use crate::error::CoreError;
use crate::store::{BlockStore, PagedDb};
use crate::telemetry;
use crate::update::{CheckedInsert, InsertDelta};
use crate::visible::{VisibleFragment, VisibleText};
use crate::wire::{SAxis, SPred, SStep, ServerQuery, ServerResponse};
use exq_crypto::{SealedBlock, SealedBlocks};
use exq_index::dsi::Interval;
use exq_index::sjoin::{
    least_child, least_desc, semijoin_anc, semijoin_child, semijoin_desc, semijoin_parent,
    IntervalUniverse, NONE,
};
use exq_xpath::Comparison;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// The visible document as its serialization, with the byte span of
    /// each universe position's visible node: the server's one map from an
    /// interval to its visible node (text nodes have none). Spliced with
    /// the metadata by every insert and delete.
    visible: VisibleText,
    /// The DSI table, whose universe holds the matcher's positions, the
    /// block table over it, and the value indexes.
    metadata: ServerMetadata,
    /// Sealed blocks: fully resident, or paged in through an out-of-core
    /// store (see `crate::store`).
    blocks: BlockStore,
    /// Blocks tombstoned by deletions (update support).
    dead_blocks: HashSet<u32>,
    /// The response cache with its generation counter.
    /// Runtime-only: not persisted, and cloning yields fresh empty caches.
    caches: ServerCaches,
}

/// Every ciphertext value range a query mentions, resolved to its live
/// blocks as a table indexed by block id (step 2, done once up front: the
/// entries depend on the query and the value indexes alone, never on a
/// candidate).
type ResolvedRanges<'q> = HashMap<(&'q str, u128, u128), Vec<bool>>;

/// One step sequence matched from one context (see [`Server::match_steps`]).
/// Every list holds universe positions, ascending, i.e. in document order.
struct Matched {
    /// The context members with a full match below them, in context order.
    hits: Vec<u32>,
    /// Per step, the members on a full match; the last is its forward
    /// list untouched.
    survivors: Vec<Vec<u32>>,
}

/// A query's trunk, looked up, resolved and matched: what `answer`,
/// `explain` and `locate` each read.
struct Evaluated<'q> {
    translate_time: Duration,
    /// DSI candidates per step, before any join.
    candidates: Vec<usize>,
    survivors: Vec<Vec<u32>>,
    resolved: ResolvedRanges<'q>,
}

impl Server {
    /// Builds the server from the owner's encrypted output, reading its
    /// visible fragment as a load reads a persisted one.
    pub fn new(out: &EncryptedOutput) -> Server {
        let bytes = out.blocks.iter().map(|b| b.ciphertext.len()).sum();
        let mut resident = SealedBlocks::with_capacity(out.blocks.len(), bytes);
        resident.extend(&out.blocks);
        Server::from_store_parts(
            &out.visible,
            out.metadata.clone(),
            BlockStore::Resident(resident),
            HashSet::new(),
        )
        .expect("the owner's visible document follows its index")
    }

    /// The DSI table's interval universe: the positions the matcher joins.
    fn universe(&self) -> &IntervalUniverse {
        self.metadata.dsi_table.universe()
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
    /// `exq stats` can break out per-tenant cache traffic and
    /// [`Server::cache_stats`] reads the same atomics as the metrics
    /// scrape. Existing entries and local counters are dropped.
    pub fn set_cache_db_label(&mut self, db: &str) {
        self.caches.set_db_label(db);
    }

    /// Point-in-time cache counters.
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
        self.visible.xml().len() + self.blocks.payload_bytes() as usize
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
    pub fn fetch_block(&self, id: u32) -> Result<Option<SealedBlock>, CoreError> {
        if !self.block_live(id) {
            return Ok(None);
        }
        self.blocks.get(id)
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

    /// The universe position of a server-known interval that has a
    /// visible node.
    pub(crate) fn visible_node_of(&self, iv: &Interval) -> Option<u32> {
        let p = self.universe().find(iv)?;
        self.visible.is_visible(p).then_some(p)
    }

    /// The tag of the visible element at a position.
    pub(crate) fn visible_element_name(&self, p: u32) -> Option<&str> {
        self.visible.element_name(p)
    }

    /// Applies an insert that [`Server::check_insert`] passed; nothing here
    /// can fail. The blocks are appended, the run of new intervals is
    /// spliced into the metadata ([`ServerMetadata::splice_in`]) as the last
    /// members of the parent's subtree — `k` new positions, every later one
    /// moved up by `k` — and the fragment's text and spans go into the
    /// visible text as the parent's last content.
    pub(crate) fn splice_insert(&mut self, delta: &InsertDelta, checked: CheckedInsert) {
        let CheckedInsert { under, frag, run } = checked;
        for b in &delta.blocks {
            self.blocks.push(b.clone());
        }
        let at = self.metadata.splice_in(
            under,
            run.members(),
            &delta.dsi_entries,
            &delta.block_entries,
            &delta.value_entries,
        );
        let u = self.metadata.dsi_table.universe();
        self.visible.splice_in(u, under, at, frag);
        self.caches.bump_generation();
    }

    /// Removes a victim interval's visible subtree and metadata; `false`
    /// when the victim has no visible node (it lives strictly inside a
    /// block, or an earlier victim's subtree took it). Its subtree is one
    /// run of positions, cut out of the visible text and the metadata
    /// ([`ServerMetadata::cut`]); every later position moves down by the
    /// run's length.
    pub(crate) fn remove_visible_subtree(&mut self, victim: &Interval) -> bool {
        let Some(p) = self.visible_node_of(victim) else {
            return false;
        };
        self.visible.cut(self.metadata.dsi_table.universe(), p);
        let (_, dead) = self.metadata.cut(p);
        self.dead_blocks.extend(dead);
        self.caches.bump_generation();
        true
    }

    // --- persistence plumbing (see `crate::persist`) ----------------------

    /// `(pre-order position among elements+attributes, interval)` pairs for
    /// the visible document — the persistence keying of its spans.
    pub(crate) fn interval_positions(&self) -> Vec<(u32, Interval)> {
        self.visible.interval_positions(self.universe())
    }

    /// `(offset, representative)` for every block, in document order — the
    /// persisted places of the blocks in the visible text.
    pub(crate) fn block_offsets(&self) -> Vec<(u32, Interval)> {
        self.visible.block_offsets(self.universe())
    }

    /// Every hosted block in id order. Pages the whole database in when
    /// out-of-core (full save / naive answer paths only).
    pub(crate) fn collect_blocks(&self) -> Result<SealedBlocks, CoreError> {
        self.blocks.collect()
    }

    pub(crate) fn dead_block_ids(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.dead_blocks.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Assembles a server around its block store: resident at set-up and
    /// on artifact load, paged on open. The visible fragment is read over
    /// the metadata's universe ([`VisibleText::read`]); one that does not
    /// follow the index is refused.
    pub(crate) fn from_store_parts(
        visible: &VisibleFragment,
        metadata: ServerMetadata,
        blocks: BlockStore,
        dead_blocks: HashSet<u32>,
    ) -> Result<Server, CoreError> {
        let (dsi, u) = (&metadata.dsi_table, metadata.dsi_table.universe());
        // A block the store lacks, or a tombstoned one, covers nothing.
        let live = |id: u32| {
            (id as usize) < blocks.len() && (dead_blocks.is_empty() || !dead_blocks.contains(&id))
        };
        let block_at = |p| metadata.block_table.block_at(p).filter(|&id| live(id));
        let visible = VisibleText::read(visible, u, block_at, |tag| dsi.positions(tag))
            .map_err(|why| CoreError::Persist(format!("visible doc: {why}")))?;
        Ok(Server {
            visible,
            metadata,
            blocks,
            dead_blocks,
            caches: ServerCaches::default(),
        })
    }

    /// The visible document as the attacker sees it.
    pub fn visible_xml(&self) -> &str {
        self.visible.xml()
    }

    #[cfg(test)]
    pub(crate) fn visible_text(&self) -> &VisibleText {
        &self.visible
    }

    /// The naive method of §7.3: ship the entire hosted database. On a
    /// paged server this reads every block back through the buffer pool.
    pub fn answer_naive(&self) -> Result<ServerResponse, CoreError> {
        let start = Instant::now();
        // The whole text is the root's region, which holds every block.
        let u = self.universe();
        let root: &[u32] = if u.is_empty() { &[] } else { &[0] };
        let (mut ids, mut offsets) = (Vec::new(), Vec::new());
        let blocks = &self.metadata.block_table;
        let resp = ServerResponse {
            pruned_xml: self.visible.region(u, blocks, root, &mut ids, &mut offsets),
            blocks: self.blocks.get_many(&ids)?,
            offsets,
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
                // One copy of the table: its buffer and its entries.
                let blocks = hit.blocks.clone();
                let offsets = hit.offsets.clone();
                let assemble_time = t.elapsed();
                telemetry::record_span("server.assemble", assemble_time);
                return Ok(ServerResponse {
                    pruned_xml,
                    blocks,
                    offsets,
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
        let started = Instant::now();
        let ev = self.evaluate(q);
        let t_assemble = Instant::now();
        let (pruned_xml, blocks, offsets) = self.assemble(q, &ev)?;
        telemetry::record_span("server.assemble", t_assemble.elapsed());
        let resp = ServerResponse {
            pruned_xml,
            blocks,
            offsets,
            translate_time: ev.translate_time,
            process_time: started.elapsed().saturating_sub(ev.translate_time),
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

    /// Explains how a translated query would execute: per-step candidate
    /// counts from the DSI table and survivors after the forward (axis +
    /// predicates) and backward passes — the server-side equivalent of a
    /// database EXPLAIN.
    pub fn explain(&self, q: &ServerQuery) -> ExplainReport {
        let ev = self.evaluate(q);
        let steps = q
            .steps
            .iter()
            .enumerate()
            .map(|(i, step)| ExplainStep {
                tags: step.tags.clone(),
                candidates: ev.candidates[i],
                survivors: ev.survivors[i].len(),
                predicates: step.preds.len(),
            })
            .collect();
        let anchor = q.anchor.min(q.steps.len().saturating_sub(1));
        ExplainReport {
            steps,
            anchor,
            anchors: ev.survivors.get(anchor).map_or(0, Vec::len),
        }
    }

    /// Matches a query's intervals at the final step (used by updates to
    /// locate parents/victims without assembling a response).
    pub fn locate(&self, q: &ServerQuery) -> Vec<Interval> {
        let found = self.evaluate(q).survivors.pop().unwrap_or_default();
        let u = self.universe();
        found.into_iter().map(|p| u.interval(p)).collect()
    }

    /// The paper's three steps for a query's trunk, written out once.
    fn evaluate<'q>(&self, q: &'q ServerQuery) -> Evaluated<'q> {
        // Step 1: structure translation — each step's posting list.
        let t = Instant::now();
        let lists = self.lookup(&q.steps);
        let translate_time = t.elapsed();
        // The span *is* the reported stat: same measured duration.
        telemetry::record_span("server.dsi_lookup", translate_time);
        // Step 2 up front: every ciphertext range in the query to its block
        // set, so the joins below only read.
        let t = Instant::now();
        let mut resolved = ResolvedRanges::new();
        self.resolve_ranges(&q.steps, &mut resolved);
        telemetry::record_span("server.value_resolve", t.elapsed());
        // Step 3: the trunk is a step sequence from the document node.
        let t = Instant::now();
        let matched = self.match_steps(None, &q.steps, &lists, None, &resolved);
        telemetry::record_span("server.sjoin", t.elapsed());
        Evaluated {
            translate_time,
            candidates: lists.iter().map(|l| l.len()).collect(),
            survivors: matched.survivors,
            resolved,
        }
    }

    /// Resolves every value range reachable from `steps` (branches nested
    /// in predicates included) against its attribute's value index, once
    /// each, dropping tombstoned blocks.
    fn resolve_ranges<'q>(&self, steps: &'q [SStep], out: &mut ResolvedRanges<'q>) {
        for pred in steps.iter().flat_map(|s| &s.preds) {
            let (SPred::Exists(branch) | SPred::Value { path: branch, .. }) = pred;
            self.resolve_ranges(branch, out);
            if let SPred::Value {
                range: Some((attr, r)),
                ..
            } = pred
            {
                out.entry((attr, r.lo, r.hi)).or_insert_with(|| {
                    let mut live = vec![false; self.blocks.len()];
                    let ids = self.metadata.value_indexes.get(attr).into_iter();
                    for &b in ids.flat_map(|index| index.range(r.lo, r.hi)) {
                        if self.block_live(b) {
                            live[b as usize] = true;
                        }
                    }
                    live
                });
            }
        }
    }

    /// DSI table lookups, one ascending position list per step: a
    /// single-tag step borrows its list, a wildcard borrows every position,
    /// and a multi-tag step merges its tags' lists.
    fn lookup<'s>(&'s self, steps: &[SStep]) -> Vec<Cow<'s, [u32]>> {
        let table = &self.metadata.dsi_table;
        let posting = |tag: &String| table.positions(tag);
        let candidates = |step: &SStep| match step.tags.as_slice() {
            [] => Cow::Borrowed(table.all()),
            [tag] => Cow::Borrowed(posting(tag)),
            tags => {
                let mut out: Vec<u32> = tags.iter().flat_map(posting).copied().collect();
                out.sort_unstable();
                out.dedup();
                Cow::Owned(out)
            }
        };
        steps.iter().map(candidates).collect()
    }

    /// The one matcher: `steps` (with `lists`, their posting lists) matched
    /// from `ctx` (`None` = the virtual document node). The forward pass
    /// applies each step's axis, then its predicates, to the whole list
    /// reached so far — `last_test`, a value predicate's comparison, is one
    /// more filter on the last step's list; the backward pass keeps what
    /// leads to a full match, one level up at a time, the context last. An
    /// empty `steps` tests the context members themselves.
    fn match_steps(
        &self,
        ctx: Option<&[u32]>,
        steps: &[SStep],
        lists: &[Cow<'_, [u32]>],
        last_test: Option<&dyn Fn(u32) -> bool>,
        resolved: &ResolvedRanges<'_>,
    ) -> Matched {
        let n = steps.len();
        let mut survivors: Vec<Vec<u32>> = Vec::with_capacity(n);
        for (i, step) in steps.iter().enumerate() {
            let from = survivors.last().map(Vec::as_slice).or(ctx);
            let mut list = self.apply_axis(from, step.axis, &lists[i]);
            for pred in &step.preds {
                list = self.match_branch(&list, pred, resolved).hits;
            }
            if let (Some(test), true) = (last_test, i + 1 == n) {
                list.retain(|&p| test(p));
            }
            let dead_end = list.is_empty();
            survivors.push(list);
            if dead_end {
                break;
            }
        }
        survivors.resize(n, Vec::new());
        // Splitting gives level i (mutable) and level i+1 (shared) at once.
        for i in (1..n).rev() {
            let (above, below) = survivors.split_at_mut(i);
            self.keep_leading_to(&mut above[i - 1], steps[i].axis, &below[0]);
        }
        let mut hits = ctx.unwrap_or_default().to_vec();
        match (steps.first(), last_test) {
            // Nothing to keep from the document node or an empty context.
            _ if hits.is_empty() => {}
            (Some(step), _) => self.keep_leading_to(&mut hits, step.axis, &survivors[0]),
            (None, Some(test)) => hits.retain(|&p| test(p)),
            (None, None) => {}
        }
        Matched { hits, survivors }
    }

    /// A predicate is a branch: matched from `ctx` like any step sequence.
    /// `hits` are the members the predicate holds at. The value test — a
    /// plaintext comparison on the visible node, or the enclosing block being
    /// in the range's resolved set, both read off the per-position arrays —
    /// is written here and nowhere else. The plaintext comparison is
    /// prepared once per call; it compares the number the node keeps
    /// ([`VisibleText::number`]) when that and the literal are both
    /// numbers, and the node's string value otherwise.
    fn match_branch(&self, ctx: &[u32], pred: &SPred, resolved: &ResolvedRanges<'_>) -> Matched {
        match pred {
            SPred::Exists(steps) => {
                self.match_steps(Some(ctx), steps, &self.lookup(steps), None, resolved)
            }
            SPred::Value { path, range, plain } => {
                let live = range
                    .as_ref()
                    .and_then(|(attr, r)| resolved.get(&(attr.as_str(), r.lo, r.hi)));
                let plain = plain.as_ref().map(|(op, lit)| Comparison::new(*op, lit));
                let test = |p: u32| {
                    let plain_ok = plain.as_ref().is_some_and(|cmp| {
                        cmp.holds_number(self.visible.number(p)).unwrap_or_else(|| {
                            (self.visible.string_value(p)).is_some_and(|v| cmp.holds(&v))
                        })
                    });
                    plain_ok
                        || live.is_some_and(|live| {
                            self.metadata
                                .block_table
                                .block_at(p)
                                .is_some_and(|b| live.get(b as usize) == Some(&true))
                        })
                };
                self.match_steps(Some(ctx), path, &self.lookup(path), Some(&test), resolved)
            }
        }
    }

    /// Applies an axis between a context set (`None` = the virtual document
    /// node) and a posting list.
    fn apply_axis(&self, ctx: Option<&[u32]>, axis: SAxis, cands: &[u32]) -> Vec<u32> {
        let u = self.universe();
        let Some(ctx) = ctx else {
            return match axis {
                // From the document node, descendant(-or-self) reaches
                // everything, and child reaches the members with no parent.
                SAxis::Descendant | SAxis::DescendantOrSelf => cands.to_vec(),
                SAxis::Child | SAxis::Attribute => cands
                    .iter()
                    .copied()
                    .filter(|&c| u.parent(c).is_none())
                    .collect(),
            };
        };
        // No axis reaches outside the context's subtrees, and those lie in
        // `[first member, furthest subtree end)`: a small context pays for
        // the run of the posting list inside that span, not for the list.
        let (Some(&first), Some(end)) = (ctx.first(), ctx.iter().map(|&c| u.end(c)).max()) else {
            return Vec::new();
        };
        let cands = &cands[cands.partition_point(|&c| c < first)..];
        let cands = &cands[..cands.partition_point(|&c| c < end)];
        match axis {
            SAxis::Descendant => semijoin_desc(u, ctx, cands, false),
            SAxis::DescendantOrSelf => semijoin_desc(u, ctx, cands, true),
            SAxis::Child | SAxis::Attribute => semijoin_child(u, ctx, cands),
        }
    }

    /// Every member of `ctx`'s witness for `pred`, in `ctx` order: the first
    /// member, in document order, of the branch's last list as matched from
    /// that member alone, or [`NONE`] where the predicate fails. One match
    /// from the whole context serves every member. Going up the branch's
    /// lists, a member's first reachable last-list member is the least over
    /// the members its step reaches one list down, and that reach is its
    /// own, however the context nests.
    fn witnesses(&self, ctx: &[u32], pred: &SPred, resolved: &ResolvedRanges<'_>) -> Vec<u32> {
        let (SPred::Exists(steps) | SPred::Value { path: steps, .. }) = pred;
        let Matched { hits, survivors } = self.match_branch(ctx, pred, resolved);
        let Some(last) = survivors.last() else {
            // An empty path tests the context members themselves.
            let mut hits = hits.into_iter().peekable();
            return ctx
                .iter()
                .map(|&c| hits.next_if_eq(&c).map_or(NONE, |_| c))
                .collect();
        };
        let u = self.universe();
        let mut first = last.clone();
        for (i, step) in steps.iter().enumerate().rev() {
            let above = if i == 0 { ctx } else { &survivors[i - 1] };
            first = match step.axis {
                SAxis::Descendant => least_desc(u, above, &survivors[i], &first, false),
                SAxis::DescendantOrSelf => least_desc(u, above, &survivors[i], &first, true),
                SAxis::Child | SAxis::Attribute => least_child(u, above, &survivors[i], &first),
            };
        }
        first
    }

    /// The backward pass's one move: keeps the members of `cur` from which
    /// `axis` reaches a member of `next`. Both are ascending position lists.
    fn keep_leading_to(&self, cur: &mut Vec<u32>, axis: SAxis, next: &[u32]) {
        let u = self.universe();
        *cur = match axis {
            SAxis::Descendant => semijoin_anc(u, cur, next, false),
            SAxis::DescendantOrSelf => semijoin_anc(u, cur, next, true),
            SAxis::Child | SAxis::Attribute => semijoin_parent(u, cur, next),
        };
    }

    /// Builds the pruned visible document + block set of a reply: every
    /// anchor match's region, plus one witness region per predicate per
    /// survivor at steps above the anchor so the client can re-verify the
    /// full query exactly ([`Server::witnesses`], one branch match per
    /// predicate and step).
    ///
    /// The region is copied out of the visible text by position
    /// ([`VisibleText::region`]): a visible anchor is kept with its subtree,
    /// an anchor inside a block keeps that block's root, and every kept
    /// position's ancestors are context. The blocks inside a kept subtree
    /// come off the block table as the copy goes by, each with its offset
    /// in the region, in document order.
    fn assemble(
        &self,
        q: &ServerQuery,
        ev: &Evaluated<'_>,
    ) -> Result<(String, SealedBlocks, Vec<u32>), CoreError> {
        let anchor = q.anchor.min(q.steps.len() - 1);
        let mut anchors = ev.survivors[anchor].clone();
        for (step, survivors) in q.steps.iter().zip(&ev.survivors).take(anchor) {
            for pred in &step.preds {
                let witnesses = self.witnesses(survivors, pred, &ev.resolved);
                anchors.extend(witnesses.into_iter().filter(|&w| w != NONE));
            }
        }
        if anchors.is_empty() {
            return Ok((String::new(), SealedBlocks::new(), Vec::new()));
        }
        let u = self.universe();
        // An anchor inside a block keeps the block's root: the nearest
        // enclosing member with a place in the text.
        let wholes: Vec<u32> = anchors
            .iter()
            .filter_map(|&a| {
                std::iter::successors(Some(a), |&p| u.parent(p))
                    .find(|&p| self.visible.is_visible(p))
            })
            .collect();
        let (mut ids, mut offsets) = (Vec::new(), Vec::new());
        let blocks = &self.metadata.block_table;
        let pruned_xml = self
            .visible
            .region(u, blocks, &wholes, &mut ids, &mut offsets);
        Ok((pruned_xml, self.blocks.get_many(&ids)?, offsets))
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{build_server as server, mk_step as step};
    use super::*;
    use crate::scheme::SchemeKind;
    use crate::wire::{SAxis, SStep};
    use exq_index::sjoin::sort_intervals;
    use exq_index::DsiIndexTable;
    use exq_xml::Document;

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
        // Every table interval (plain + encrypted tags) is a candidate, once.
        let mut every: Vec<Interval> = s
            .metadata()
            .dsi_table
            .iter()
            .flat_map(|(_, list)| list.iter().copied())
            .collect();
        sort_intervals(&mut every);
        every.dedup();
        assert_eq!(s.locate(&q), every);
    }

    /// An interval that two tags' lists share is one universe member, and
    /// both tags' posting lists point at it.
    #[test]
    fn shared_interval_is_one_member() {
        let (mut s, _) = server(SchemeKind::Opt);
        let before = s.universe().clone();
        let table = &s.metadata.dsi_table;
        let patient = *table.lookup("patient").iter().nth(1).unwrap();
        let lists = table
            .iter()
            .map(|(tag, list)| (tag, list.iter().copied().collect()));
        let ward = ("ward", vec![patient]);
        s.metadata.dsi_table = DsiIndexTable::from_entries(lists.chain([ward])).unwrap();
        // The universe did not move, so the block table and the visible
        // spans still fit it.
        assert_eq!(*s.universe(), before);
        let at = s.metadata.dsi_table.positions("patient")[1];
        assert_eq!(s.universe().interval(at), patient);
        assert_eq!(s.metadata.dsi_table.positions("ward"), [at]);
        let q = |tag: &str| ServerQuery {
            steps: vec![step(SAxis::Descendant, tag)],
            anchor: 0,
        };
        assert_eq!(s.locate(&q("ward")), [patient]);
        assert_eq!(s.locate(&q("patient")).len(), 2);
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
        let hidden = *s
            .metadata()
            .dsi_table
            .lookup(&enc_tag)
            .iter()
            .next()
            .unwrap();
        assert!(s.insertion_slot(hidden).is_err());
    }

    /// One branch match from a whole survivor list picks, for every
    /// survivor, the witness that matching the branch from that survivor
    /// alone picks: the first member of its last list. Contexts nest (`a`
    /// inside `a`), so a witness inside an outer survivor's span can belong
    /// to an inner one only.
    #[test]
    fn witnesses_equal_one_match_per_survivor() {
        use crate::constraints::SecurityConstraint;
        use crate::system::{OutsourceConfig, Outsourcer};
        let doc = Document::parse(
            "<doc><a><k>1</k><b>t</b><a><k>2</k><c><b>u</b></c>\
               <a><b>u</b><a><b>w</b><k>4</k></a></a></a><c><a/></c></a>\
             <a><c>s</c><a><k>7</k><b>z</b></a></a></doc>",
        )
        .unwrap();
        let queries = [
            "//a[b]//k",
            "//a[a/b]/k",
            "//a[c/a]/k",
            "//a[.//b = 'u']//k",
            "//a[a[k]/b]/c",
            "//a[.//a[b]]/k",
            "//a[k > 1]//a/b",
            "//a[. = '1t']/k",
            "/doc/a[.//c//b]/a",
            "//a[a][c/b]//k",
        ];
        for kind in [SchemeKind::Opt, SchemeKind::Top] {
            let cs = [SecurityConstraint::parse("//a:(/k, /b)").unwrap()];
            let (client, s) = Outsourcer::new(OutsourceConfig::default())
                .outsource(&doc, &cs, kind, 5)
                .unwrap()
                .split();
            let mut compared = 0;
            for q in queries {
                let sq = client.translate(q).unwrap().server_query.unwrap();
                let ev = s.evaluate(&sq);
                for (step, survivors) in sq.steps.iter().zip(&ev.survivors) {
                    for pred in &step.preds {
                        let one_at_a_time: Vec<u32> = survivors
                            .iter()
                            .map(|c| {
                                let m = s.match_branch(&[*c], pred, &ev.resolved);
                                let last = m.survivors.last().unwrap_or(&m.hits);
                                last.first().copied().unwrap_or(NONE)
                            })
                            .collect();
                        let set = s.witnesses(survivors, pred, &ev.resolved);
                        assert_eq!(set, one_at_a_time, "{q} under {kind:?}");
                        compared += survivors.len();
                    }
                }
            }
            assert!(compared >= 12, "{compared} survivors compared");
        }
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

/// The splice is a from-scratch build done in place: after any sequence of
/// inserts and deletes the metadata and the visible spans equal a build over
/// the tables' own entries and the visible text, reparsed.
#[cfg(test)]
mod splice_tests {
    use super::*;
    use crate::constraints::SecurityConstraint;
    use crate::scheme::SchemeKind;
    use crate::system::{OutsourceConfig, Outsourcer};
    use crate::Client;
    use exq_index::{BlockTable, DsiIndexTable};
    use exq_xml::Document;
    use proptest::prelude::*;

    /// Records to insert: plain, with a block inside, wholly a block, a
    /// leaf, an empty element a later insert makes a first child of, text
    /// beside elements, and an element whose only children are blocks.
    const RECORDS: &[&str] = &[
        "<patient><pname>Zoe</pname><SSN>112233</SSN><age>29</age></patient>",
        "<visit day=\"3\"><ward>east</ward><insurance><policy coverage=\"75\">5</policy></insurance></visit>",
        "<insurance><policy coverage=\"9\">1</policy></insurance>",
        "<age>61</age>",
        "<patient/>",
        "<note kind=\"x\">text<b/>more</note>",
        "<cover><insurance><policy>2</policy></insurance><insurance><policy>3</policy></insurance></cover>",
    ];

    #[derive(Debug, Clone)]
    enum Op {
        /// Insert a record under a visible element; `shared` also files one
        /// of its intervals under a second tag.
        Insert {
            parent: usize,
            record: usize,
            shared: bool,
        },
        /// Delete the subtree at a position, or the record inserted last.
        Delete { at: usize, last: bool },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<usize>(), 0..RECORDS.len(), any::<bool>()).prop_map(
                |(parent, record, shared)| Op::Insert {
                    parent,
                    record,
                    shared
                }
            ),
            (any::<usize>(), any::<bool>()).prop_map(|(at, last)| Op::Delete { at, last }),
        ]
    }

    fn hosted() -> (Client, Server) {
        let doc = Document::parse(
            "<hospital><patient><pname>Betty</pname><SSN>763895</SSN><age>35</age>\
               <insurance><policy coverage=\"1000\">34221</policy></insurance></patient>\
             <ward><patient><pname>Matt</pname><SSN>276543</SSN><age>40</age></patient></ward>\
             <cover><insurance><policy>7</policy></insurance><insurance><policy>8</policy></insurance></cover>\
             tail</hospital>",
        )
        .unwrap();
        let cs: Vec<SecurityConstraint> = ["//insurance", "//patient:(/pname, /SSN)"]
            .iter()
            .map(|c| SecurityConstraint::parse(c).unwrap())
            .collect();
        Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, &cs, SchemeKind::Opt, 11)
            .unwrap()
            .split()
    }

    /// The spliced metadata against a fresh build over the DSI table's own
    /// entries and the block table's own representatives. The visible text
    /// with each block written in at its offset is what the writer writes
    /// of it, reparsed, and its spans and numbers equal those the one
    /// reader finds over the fresh build: they place every element, every
    /// attribute and every block in document order, and every position
    /// without one is inside a block.
    fn assert_fresh(s: &Server, step: &str) {
        let dsi = &s.metadata.dsi_table;
        let lists = dsi.iter().map(|(tag, list)| (tag, list.iter().copied()));
        let fresh = DsiIndexTable::from_entries(lists).expect("the entries nest");
        assert_eq!(*dsi, fresh, "DSI table after {step}");
        let reps = s.metadata.block_table.iter(dsi);
        let blocks = BlockTable::new(&fresh, reps).expect("the blocks are disjoint");
        assert_eq!(s.metadata.block_table, blocks, "block table after {step}");
        let frag = VisibleFragment {
            xml: s.visible_xml().to_owned(),
            intervals: s.interval_positions(),
            blocks: s.block_offsets(),
        };
        // Each block written in as an element of its own.
        let mut xml = frag.xml.clone();
        for &(offset, _) in frag.blocks.iter().rev() {
            xml.insert_str(offset as usize, "<blk/>");
        }
        let doc = match xml.as_str() {
            "" => Document::new(),
            xml => Document::parse(xml).unwrap(),
        };
        assert_eq!(
            doc.to_xml().replace("<blk/>", ""),
            frag.xml,
            "visible text after {step}"
        );
        let visible = doc.iter().filter(|&n| !doc.node(n).is_text());
        let placed = visible
            .filter(|&n| doc.element_name(n) != Some("blk"))
            .count();
        let ordinals: Vec<u32> = frag.intervals.iter().map(|&(ordinal, _)| ordinal).collect();
        assert_eq!(
            ordinals,
            (0..placed as u32).collect::<Vec<_>>(),
            "visible nodes after {step}"
        );
        let rebuilt = VisibleText::read(
            &frag,
            fresh.universe(),
            |p| blocks.block_at(p),
            |tag| fresh.positions(tag),
        );
        assert_eq!(
            rebuilt.as_ref(),
            Ok(&s.visible),
            "visible spans after {step}"
        );
    }

    fn run(ops: &[Op]) {
        let (mut client, mut s) = hosted();
        assert_fresh(&s, "set-up");
        let mut last = None;
        for (i, op) in ops.iter().enumerate() {
            let step = format!("op {i}: {op:?}");
            match *op {
                Op::Insert {
                    parent,
                    record,
                    shared,
                } => {
                    let parents: Vec<u32> = (0..s.universe().len() as u32)
                        .filter(|&p| s.visible_element_name(p).is_some())
                        .collect();
                    if parents.is_empty() {
                        continue;
                    }
                    let parent = s.universe().interval(parents[parent % parents.len()]);
                    let slot = s.insertion_slot(parent).unwrap();
                    let mut delta = match client.prepare_insert(&slot, RECORDS[record], i as u64) {
                        // Inserts under one parent halve its free labels.
                        Err(CoreError::Query(why)) if why.contains("exhausted") => continue,
                        prepared => prepared.unwrap(),
                    };
                    if shared {
                        let (_, iv) = delta.dsi_entries[delta.dsi_entries.len() / 2].clone();
                        delta.dsi_entries.push(("ward".to_owned(), iv));
                    }
                    s.apply_insert(&delta).unwrap();
                    last = delta
                        .dsi_entries
                        .iter()
                        .map(|&(_, iv)| iv)
                        .min_by_key(|iv| iv.lo);
                }
                Op::Delete { last: true, .. } if last.is_some() => {
                    assert!(s.remove_visible_subtree(&last.take().unwrap()), "{step}");
                }
                Op::Delete { at, .. } => {
                    // Position 0 is the root, which takes the rest with it;
                    // a member inside a block has no visible node and stays.
                    let u = s.universe();
                    if !u.is_empty() {
                        let victim = u.interval((at % u.len()) as u32);
                        let had = s.visible_node_of(&victim).is_some();
                        assert_eq!(s.remove_visible_subtree(&victim), had, "{step}");
                        if last.is_some_and(|l| {
                            l == victim || victim.contains(&l) || l.contains(&victim)
                        }) {
                            last = None;
                        }
                    }
                }
            }
            assert_fresh(&s, &step);
        }
    }

    /// A parent whose only child is deleted is written empty, and an
    /// insert under an empty element opens it again.
    #[test]
    fn an_emptied_parent_collapses_and_expands_again() {
        let (mut client, mut s) = hosted();
        let named = |s: &Server, tag: &str| {
            (0..s.universe().len() as u32).find(|&p| s.visible_element_name(p) == Some(tag))
        };
        let ward = named(&s, "ward").unwrap();
        let patient = (ward..s.universe().end(ward))
            .find(|&p| s.visible_element_name(p) == Some("patient"))
            .unwrap();
        assert!(s.remove_visible_subtree(&s.universe().interval(patient)));
        assert!(s.visible_xml().contains("<ward/>"), "{}", s.visible_xml());
        assert_fresh(&s, "the ward's patient deleted");
        let slot = s.insertion_slot(s.universe().interval(ward)).unwrap();
        let delta = client.prepare_insert(&slot, RECORDS[3], 1).unwrap();
        s.apply_insert(&delta).unwrap();
        assert!(s.visible_xml().contains("<ward><age>61</age></ward>"));
        assert_fresh(&s, "an age inserted into the empty ward");
    }

    /// Deleting the root leaves an empty visible document and universe,
    /// which persist and reload as such.
    #[test]
    fn a_deleted_root_leaves_an_empty_document() {
        let (_, mut s) = hosted();
        assert!(s.remove_visible_subtree(&s.universe().interval(0)));
        assert_eq!(s.visible_xml(), "");
        assert!(s.universe().is_empty());
        assert_fresh(&s, "the root deleted");
        let reloaded = Server::load_bytes(&s.save_bytes().unwrap()).unwrap();
        assert_eq!(reloaded.visible_xml(), "");
        assert_eq!(reloaded.hosted_bytes(), s.hosted_bytes());
    }

    /// A delta whose block entries nest is refused before anything
    /// changes: a block covers its representative's whole subtree, so one
    /// inside another would leave the block table unable to say which.
    #[test]
    fn nested_block_entries_are_refused() {
        let (mut client, s) = hosted();
        let parent = s.universe().interval(0);
        let slot = s.insertion_slot(parent).unwrap();
        let good = client.prepare_insert(&slot, RECORDS[2], 1).unwrap();
        assert!(s.check_insert(&good).is_ok());
        let (rep, id) = good.block_entries[0];
        let (_, inner) = good
            .dsi_entries
            .iter()
            .find(|(_, iv)| rep.contains(iv))
            .unwrap();
        let mut nested = good.clone();
        nested.block_entries.push((*inner, id));
        match s.check_insert(&nested) {
            Err(CoreError::Delta(msg)) => assert!(msg.contains("inside another"), "{msg}"),
            _ => panic!("nested block entries were not refused"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn splice_equals_a_fresh_index(ops in proptest::collection::vec(op(), 1..12)) {
            run(&ops);
        }
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
    use exq_xml::Document;
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
