//! Incremental updates — the paper's future-work item #3.
//!
//! The integer DSI labeling makes this possible without global relabeling:
//! gaps are wide (see `exq_index::dsi::UPDATE_STRIDE`), so a new record's
//! intervals can be nested into the slack between a parent's last child and
//! the parent's upper bound. The protocol:
//!
//! * **insert** — the client locates the parent (a translated query), asks
//!   the server for an [`InsertionSlot`] (the free label range plus the next
//!   block id), applies the *stored encryption policy* (the scheme's chosen
//!   paths) to the new record, labels it inside the slot, seals its blocks,
//!   and sends an [`InsertDelta`]: the record's visible fragment (its text
//!   and its blocks' offsets, as set-up hands the server the whole
//!   document) plus the DSI/block/value-index entries. The server checks the delta before it
//!   logs or changes anything (`Server::check_insert`): its intervals
//!   must be one nested run strictly inside the slot, so a refused delta
//!   never reaches the WAL. Then it splices everything in.
//! * **delete** — the client sends a translated query; the server detaches
//!   matching visible subtrees, drops their metadata entries, and tombstones
//!   their blocks. Victims strictly inside a block cannot be removed
//!   server-side (the server cannot rewrite ciphertext) and are reported as
//!   skipped.
//!
//! Neither rebuilds the server's index. A subtree's intervals are one run
//! in join order, so an insert's run goes into the DSI table's interval
//! universe, its posting lists, the block table and the visible-node array
//! as the last members of its parent's subtree; a delete cuts its victim's
//! run out of the same places. Either way every later position moves by
//! the run's length, and nothing is sorted again. WAL replay applies a logged
//! mutation through the same splice; only opening a server builds the
//! index from scratch.
//!
//! Security caveats (this goes beyond what the paper analyzes): repeated
//! inserts of the same value let the attacker watch the OPESS histogram
//! evolve, and inserted blocks are visibly newer than the original ones.
//! The per-update leakage is bounded by the same counting arguments, but
//! the formal guarantees of §4–6 are only proved for the static database.

use crate::client::Client;
use crate::encrypt::{build_visible, OpessAttr, ValueCodec, DECOY_TAG};
use crate::error::CoreError;
use crate::server::Server;
use crate::telemetry;
use crate::visible::{VisibleFragment, VisibleText};
use exq_crypto::{seal_blocks, OpessPlan, SealedBlock};
use exq_index::dsi::{DsiLabeling, Interval};
use exq_index::sjoin::{sort_intervals, IntervalUniverse};
use exq_xml::{Document, NodeId, NodeKind};
use exq_xpath::eval_document;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// What the server offers the client for an insertion under a parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertionSlot {
    pub parent: Interval,
    /// Open label range `(gap_lo, gap_hi)` available for the new subtree.
    pub gap_lo: u64,
    pub gap_hi: u64,
    /// Block ids the client may assign to new blocks, starting here.
    pub next_block_id: u32,
}

/// The client-prepared insertion payload.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertDelta {
    pub parent: Interval,
    /// The record's visible part: its text and its blocks' offsets.
    pub visible: VisibleFragment,
    pub blocks: Vec<SealedBlock>,
    /// `(table key, interval)` additions for the DSI index table.
    pub dsi_entries: Vec<(String, Interval)>,
    /// `(representative interval, block id)` additions.
    pub block_entries: Vec<(Interval, u32)>,
    /// `(encrypted attribute, ciphertext, block id)` additions.
    pub value_entries: Vec<(String, u128, u32)>,
}

impl InsertDelta {
    /// Exact wire size: the length of the encoded `ApplyInsert` frame this
    /// delta travels in (header and framing fields included).
    pub fn wire_size(&self) -> usize {
        use crate::codec::WireCodec;
        crate::codec::frame_len_of(self.encoded_len())
    }
}

/// Result of a delete request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteOutcome {
    /// Matching subtrees removed.
    pub deleted: usize,
    /// Matches that could not be removed because they live strictly inside
    /// an encryption block.
    pub skipped_in_block: usize,
}

/// An [`InsertDelta`] that [`Server::check_insert`] passed: what the splice
/// needs, worked out before anything changed.
pub(crate) struct CheckedInsert {
    /// The parent's universe position.
    pub(crate) under: u32,
    /// The visible fragment read over the run.
    pub(crate) frag: VisibleText,
    /// The delta's distinct DSI intervals in join order: the run the
    /// universe takes.
    pub(crate) run: IntervalUniverse,
}

impl Server {
    /// The universe position of an insertion parent: a visible element.
    fn insertion_parent(&self, parent: &Interval) -> Result<u32, CoreError> {
        let under = self
            .visible_node_of(parent)
            .ok_or_else(|| CoreError::Query("insertion parent is not a visible node".into()))?;
        match self.visible_element_name(under) {
            Some(_) => Ok(under),
            None => Err(CoreError::Query(
                "insertion parent must be a visible element".into(),
            )),
        }
    }

    /// The free label range under the member at `under`: after its last
    /// server-known child, which ends after every other member inside it,
    /// up to its end.
    fn gap(&self, under: u32, parent: Interval) -> Interval {
        let u = self.metadata().dsi_table.universe();
        let lo = u.last_child(under).map_or(parent.lo, |q| u.interval(q).hi);
        Interval { lo, hi: parent.hi }
    }

    /// Offers an insertion slot under the given (visible) parent interval.
    pub fn insertion_slot(&self, parent: Interval) -> Result<InsertionSlot, CoreError> {
        let gap = self.gap(self.insertion_parent(&parent)?, parent);
        Ok(InsertionSlot {
            parent,
            gap_lo: gap.lo,
            gap_hi: gap.hi,
            next_block_id: self.block_count() as u32,
        })
    }

    /// Checks a delta against the server as it is, changing nothing. The
    /// splice relies on what is checked here, so a delta is refused with
    /// [`CoreError::Delta`] unless:
    /// - its parent is a visible element;
    /// - every DSI interval lies strictly inside the parent's free gap (so
    ///   none is inverted or already present);
    /// - its DSI intervals are one nested run: one outermost interval, and
    ///   each other one strictly inside an earlier one or strictly after it,
    ///   never overlapping;
    /// - block representatives are among those intervals, no representative
    ///   lies inside another, and the blocks take the next free ids, which
    ///   are the only ones its block entries name;
    /// - its visible fragment reads over the run as a server's visible
    ///   document reads over its universe ([`VisibleText::read`]), its root
    ///   at the outermost interval.
    pub(crate) fn check_insert(&self, delta: &InsertDelta) -> Result<CheckedInsert, CoreError> {
        let refuse = |why: &str| Err(CoreError::Delta(why.to_owned()));
        let under = self.insertion_parent(&delta.parent)?;
        let gap = self.gap(under, delta.parent);
        let mut run: Vec<Interval> = delta.dsi_entries.iter().map(|&(_, iv)| iv).collect();
        if run.iter().any(|iv| iv.lo >= iv.hi || !gap.contains(iv)) {
            return refuse("an interval lies outside the insertion slot");
        }
        sort_intervals(&mut run);
        run.dedup();
        // One nested run: the intervals nest or are disjoint, and the
        // first one's subtree holds them all.
        let len = run.len();
        let nested =
            IntervalUniverse::from_sorted(run).filter(|u| len > 0 && u.end(0) == len as u32);
        let Some(run) = nested else {
            return refuse("the intervals are not one nested run");
        };

        let first_id = self.block_count() as u32;
        let ids = first_id..first_id + delta.blocks.len() as u32;
        if delta
            .blocks
            .iter()
            .zip(ids.clone())
            .any(|(b, id)| b.id != id)
        {
            return refuse("block ids are not the next free ones");
        }
        if delta
            .block_entries
            .iter()
            .any(|(rep, id)| !ids.contains(id) || run.find(rep).is_none())
        {
            return refuse("a block entry names a block or interval the delta lacks");
        }
        let mut reps = delta.block_entries.clone();
        reps.sort_unstable_by_key(|(rep, _)| rep.lo);
        if reps.windows(2).any(|w| w[0].0.hi >= w[1].0.lo) {
            return refuse("one block entry lies inside another");
        }

        // A position is in a block when the last representative starting
        // at or before it ends at or after it.
        let block_at = |p: u32| {
            let iv = run.interval(p);
            let i = reps.partition_point(|(rep, _)| rep.lo <= iv.lo);
            (i > 0 && reps[i - 1].0.hi >= iv.hi).then(|| reps[i - 1].1)
        };
        // Each tag's positions in the run, ascending.
        let mut filed: HashMap<&str, Vec<u32>> = HashMap::new();
        for (tag, iv) in &delta.dsi_entries {
            filed.entry(tag).or_default().extend(run.find(iv));
        }
        filed.values_mut().for_each(|ps| ps.sort_unstable());
        let filed = |tag: &str| filed.get(tag).map_or(&[][..], Vec::as_slice);
        let frag = VisibleText::read(&delta.visible, &run, block_at, filed)
            .map_err(|why| CoreError::Delta(format!("visible fragment: {why}")))?;
        Ok(CheckedInsert { under, frag, run })
    }

    /// Applies a client-prepared insertion. The delta is checked first: a
    /// refused one ([`CoreError::Delta`]) is neither logged nor applied. On a paged server the delta's wire encoding is then
    /// appended to the WAL (fsync = commit) *before* the in-memory apply,
    /// so a kill at any later point replays it on open.
    pub fn apply_insert(&mut self, delta: &InsertDelta) -> Result<(), CoreError> {
        use crate::codec::WireCodec;
        let checked = self.check_insert(delta)?;
        self.log_mutation(crate::store::KIND_INSERT, &delta.encode())?;
        let t = Instant::now();
        self.splice_insert(delta, checked);
        telemetry::record_span("server.apply", t.elapsed());
        Ok(())
    }

    /// The in-memory insert apply, shared by the live path and WAL replay.
    pub(crate) fn apply_insert_unlogged(&mut self, delta: &InsertDelta) -> Result<(), CoreError> {
        let checked = self.check_insert(delta)?;
        self.splice_insert(delta, checked);
        Ok(())
    }

    /// Deletes every subtree matched by the translated query. WAL-logged
    /// like [`Server::apply_insert`] when paged.
    pub fn delete_where(
        &mut self,
        q: &crate::wire::ServerQuery,
    ) -> Result<DeleteOutcome, CoreError> {
        use crate::codec::WireCodec;
        self.log_mutation(crate::store::KIND_DELETE, &q.encode())?;
        let t = Instant::now();
        let out = self.delete_where_unlogged(q);
        telemetry::record_span("server.apply", t.elapsed());
        Ok(out)
    }

    /// The in-memory delete apply, shared by the live path and WAL replay.
    pub(crate) fn delete_where_unlogged(&mut self, q: &crate::wire::ServerQuery) -> DeleteOutcome {
        let mut out = DeleteOutcome {
            deleted: 0,
            skipped_in_block: 0,
        };
        for v in self.locate(q) {
            if self.remove_visible_subtree(&v) {
                out.deleted += 1;
            } else {
                out.skipped_in_block += 1;
            }
        }
        out
    }
}

impl Client {
    /// Inserts `record_xml` as a new child of the first node matching
    /// `parent_query`, applying the stored encryption policy (in-process
    /// link).
    pub fn insert(
        &mut self,
        server: &mut Server,
        parent_query: &str,
        record_xml: &str,
        seed: u64,
    ) -> Result<InsertDelta, CoreError> {
        let mut link = crate::transport::InProcess::exclusive(server);
        self.insert_via(&mut link, parent_query, record_xml, seed)
    }

    /// [`Client::insert`] over an arbitrary transport: locate the parent,
    /// request a slot, prepare the delta locally, apply it remotely — four
    /// round trips, all framed.
    pub fn insert_via(
        &mut self,
        transport: &mut dyn crate::transport::Transport,
        parent_query: &str,
        record_xml: &str,
        seed: u64,
    ) -> Result<InsertDelta, CoreError> {
        let tq = self.translate(parent_query)?;
        let sq = tq
            .server_query
            .ok_or_else(|| CoreError::Query("parent query not server-evaluable".into()))?;
        let parents = transport.locate(&sq)?;
        let parent = parents
            .first()
            .copied()
            .ok_or_else(|| CoreError::Query("insertion parent not found".into()))?;
        let slot = transport.insertion_slot(parent)?;
        let delta = self.prepare_insert(&slot, record_xml, seed)?;
        transport.apply_insert(&delta)?;
        Ok(delta)
    }

    /// Prepares the insertion payload for a slot (exposed separately so
    /// tests and tools can inspect deltas before applying them).
    pub fn prepare_insert(
        &mut self,
        slot: &InsertionSlot,
        record_xml: &str,
        seed: u64,
    ) -> Result<InsertDelta, CoreError> {
        let record = Document::parse(record_xml).map_err(|e| CoreError::Query(e.to_string()))?;
        record.root().ok_or(CoreError::EmptyDocument)?;
        let mut rng = StdRng::seed_from_u64(seed);

        // 1. Apply the stored encryption policy to the record.
        let targets = self.policy_targets(&record);

        // 2. Decoys on leaf-element targets.
        let mut working = record.clone();
        let decoy_prf = self.state().keys.decoy_prf();
        for (i, &t) in targets.iter().enumerate() {
            let is_leaf = working
                .node(t)
                .children()
                .iter()
                .all(|&c| !working.node(c).is_element());
            if is_leaf {
                let d = working.add_element(Some(t), DECOY_TAG);
                let mut buf = [0u8; 6];
                decoy_prf.fill(&(slot.gap_lo ^ i as u64).to_le_bytes(), &mut buf);
                let val: String = buf.iter().map(|&b| (b'a' + b % 26) as char).collect();
                working.add_text(d, &val);
            }
        }

        // 3. Label inside the slot.
        let labeling = DsiLabeling::assign_in_slot(&working, &mut rng, slot.gap_lo, slot.gap_hi)
            .ok_or_else(|| {
                CoreError::Query("insertion slot exhausted; re-outsource to relabel".into())
            })?;

        // 4. Block membership.
        let mut block_of: Vec<Option<u32>> =
            vec![None; working.iter().map(|n| n.index() + 1).max().unwrap_or(0)];
        for (i, &t) in targets.iter().enumerate() {
            for n in working.descendants(t) {
                block_of[n.index()] = Some(slot.next_block_id + i as u32);
            }
        }

        // 5. Seal blocks.
        let keys = &self.state().keys;
        let plaintexts: Vec<String> = targets.iter().map(|&t| working.node_to_xml(t)).collect();
        let mut to_seal = Vec::with_capacity(targets.len());
        let mut block_entries = Vec::with_capacity(targets.len());
        for ((i, &t), xml) in targets.iter().enumerate().zip(&plaintexts) {
            let id = slot.next_block_id + i as u32;
            let nonce = keys.insert_nonce(id, xml.as_bytes());
            to_seal.push((id, nonce, xml.as_bytes()));
            let rep = labeling.interval(t).expect("target labeled");
            block_entries.push((rep, id));
        }
        let blocks = seal_blocks(&keys.block_key(), &to_seal);

        // 6. Visible fragment + DSI entries + vocabulary updates.
        let cipher = self.state().keys.tag_cipher();
        let visible = build_visible(&working, &block_of);
        let mut dsi_entries = Vec::new();
        insert_dsi_entries(
            &working,
            working.root().unwrap(),
            &block_of,
            &labeling,
            &cipher,
            &mut dsi_entries,
        );
        // Vocabulary updates so future query translation knows the forms.
        {
            let state = self.state_mut();
            for n in working.iter() {
                let key = match working.node(n).kind() {
                    NodeKind::Element(t) => working.tag_name(*t).to_owned(),
                    NodeKind::Attribute(t, _) => format!("@{}", working.tag_name(*t)),
                    NodeKind::Text(_) => continue,
                };
                if block_of[n.index()].is_some() {
                    state.encrypted_tags.insert(key);
                } else {
                    state.plain_tags.insert(key);
                }
            }
        }

        // 7. Value-index entries for encrypted leaf values.
        let mut value_entries = Vec::new();
        for n in working.iter() {
            let Some(b) = block_of[n.index()] else {
                continue;
            };
            let (attr, value) = match working.node(n).kind() {
                NodeKind::Text(v) => {
                    let p = working.node(n).parent().expect("text parent");
                    let Some(tag) = working.element_name(p) else {
                        continue;
                    };
                    if tag == DECOY_TAG {
                        continue;
                    }
                    (tag.to_owned(), v.clone())
                }
                NodeKind::Attribute(t, v) => (format!("@{}", working.tag_name(*t)), v.clone()),
                NodeKind::Element(_) => continue,
            };
            let ciphers_scale = self.value_ciphers_for_insert(&attr, &value, &mut rng)?;
            let enc_attr = cipher.encrypt(&attr);
            for (c, scale) in ciphers_scale {
                for _ in 0..scale {
                    value_entries.push((enc_attr.clone(), c, b));
                }
            }
        }

        Ok(InsertDelta {
            parent: slot.parent,
            visible,
            blocks,
            dsi_entries,
            block_entries,
            value_entries,
        })
    }

    /// Deletes every subtree matching `query` (in-process link).
    pub fn delete(&self, server: &mut Server, query: &str) -> Result<DeleteOutcome, CoreError> {
        let mut link = crate::transport::InProcess::exclusive(server);
        self.delete_via(&mut link, query)
    }

    /// [`Client::delete`] over an arbitrary transport.
    pub fn delete_via(
        &self,
        transport: &mut dyn crate::transport::Transport,
        query: &str,
    ) -> Result<DeleteOutcome, CoreError> {
        let tq = self.translate(query)?;
        let sq = tq
            .server_query
            .ok_or_else(|| CoreError::Query("delete query not server-evaluable".into()))?;
        transport.delete_where(&sq)
    }

    /// Encryption targets for a new record under the stored policy.
    fn policy_targets(&self, record: &Document) -> Vec<NodeId> {
        let mut roots: BTreeSet<NodeId> = BTreeSet::new();
        for p in &self.state().scheme_paths {
            for n in eval_document(record, p) {
                let el = match record.node(n).kind() {
                    NodeKind::Element(_) => n,
                    _ => record.node(n).parent().expect("non-root binding"),
                };
                let el = if self.state().lift_to_parent {
                    record.node(el).parent().unwrap_or(el)
                } else {
                    el
                };
                roots.insert(el);
            }
        }
        // Drop nested targets.
        roots
            .iter()
            .copied()
            .filter(|&n| !record.ancestors(n).iter().any(|a| roots.contains(a)))
            .collect()
    }

    /// Ciphertexts (with scale) for one inserted occurrence of `value`.
    fn value_ciphers_for_insert(
        &mut self,
        attr: &str,
        value: &str,
        rng: &mut StdRng,
    ) -> Result<Vec<(u128, u32)>, CoreError> {
        if !self.state().opess.contains_key(attr) {
            // First encrypted occurrence of this attribute: fresh plan.
            let codec = ValueCodec::build(&[value]);
            let v = codec
                .encode(value)
                .ok_or_else(|| CoreError::Opess(format!("unencodable value for {attr}")))?;
            let plan = OpessPlan::build(&[(v, 1)], self.state().keys.ope_key(attr), rng)
                .map_err(|e| CoreError::Opess(e.to_string()))?;
            let ciphers: Vec<(u128, u32)> = plan
                .entries()
                .iter()
                .flat_map(|e| e.chunks.iter().map(move |c| (c.ciphertext, e.scale)))
                .collect();
            self.state_mut()
                .opess
                .insert(attr.to_owned(), OpessAttr { plan, codec });
            return Ok(ciphers);
        }
        let opess = &self.state().opess[attr];
        let v = opess
            .codec
            .encode_query(value)
            .ok_or_else(|| CoreError::Opess(format!("unencodable value for {attr}")))?;
        // Existing value: reuse one of its chunks; new value: a fresh band.
        if let Some(entry) = opess.plan.entries().iter().find(|e| e.plaintext == v) {
            let j = (rng.gen_range(0..entry.chunks.len() as u32)) as usize;
            Ok(vec![(entry.chunks[j].ciphertext, entry.scale)])
        } else {
            let scale = rng.gen_range(1..=10);
            Ok(opess
                .plan
                .insert_ciphertexts(v)
                .into_iter()
                .map(|c| (c, scale))
                .collect())
        }
    }
}

/// The DSI entries of an inserted record: plaintext tags outside blocks,
/// Vernam-encrypted ones inside, each node its own entry (no grouping).
fn insert_dsi_entries(
    working: &Document,
    node: NodeId,
    block_of: &[Option<u32>],
    labeling: &DsiLabeling,
    cipher: &exq_crypto::TagCipher,
    dsi_entries: &mut Vec<(String, Interval)>,
) {
    let NodeKind::Element(t) = working.node(node).kind() else {
        // Text carries no table entry.
        return;
    };
    let in_block = block_of[node.index()].is_some();
    let key = |name: String| {
        if in_block {
            cipher.encrypt(&name)
        } else {
            name
        }
    };
    dsi_entries.push((
        key(working.tag_name(*t).to_owned()),
        labeling.interval(node).expect("labeled"),
    ));
    for &a in working.node(node).attrs() {
        if let NodeKind::Attribute(at, _) = working.node(a).kind() {
            let iv = labeling.interval(a).expect("attr labeled");
            dsi_entries.push((key(format!("@{}", working.tag_name(*at))), iv));
        }
    }
    for &c in working.node(node).children() {
        insert_dsi_entries(working, c, block_of, labeling, cipher, dsi_entries);
    }
}
