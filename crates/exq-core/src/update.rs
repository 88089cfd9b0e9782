//! Incremental updates — the paper's future-work item #3.
//!
//! The integer DSI labeling makes this possible without global relabeling:
//! gaps are wide (see `exq_index::dsi::UPDATE_STRIDE`), so a new record's
//! intervals can be nested into the slack between a parent's last child and
//! the parent's upper bound. The protocol:
//!
//! * **insert** — the client locates the parent (a translated query), asks
//!   the server for an [`InsertionSlot`] (the free label range plus the next
//!   block id), and runs set-up's pipeline over the new record: the
//!   *stored encryption policy* (the scheme's chosen paths) picks its
//!   targets ([`EncryptionScheme::targets_of`]), and set-up's encoder writes
//!   its decoys, seals its blocks and files its DSI entries, grouped as
//!   set-up groups them, with labels inside the slot. It sends an
//!   [`InsertDelta`]: the record's visible fragment (its text and its
//!   blocks' offsets, as set-up hands the server the whole document) plus
//!   the DSI/block/value-index entries. The server checks the delta before
//!   it logs or changes anything (`Server::check_insert`): its intervals
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
//! An inserted block's same-tag siblings are one grouped entry, as at
//! set-up, so the server does not learn how many there are. The
//! per-update leakage is bounded by the same counting arguments, but
//! the formal guarantees of §4–6 are only proved for the static database.

use crate::client::Client;
use crate::encrypt::{Encoder, OpessAttr, TagMemo, ValueCodec};
use crate::error::CoreError;
use crate::scheme::EncryptionScheme;
use crate::server::Server;
use crate::telemetry;
use crate::visible::{VisibleFragment, VisibleText};
use exq_crypto::{OpessPlan, SealedBlock};
use exq_index::dsi::{DsiLabeling, Interval};
use exq_index::sjoin::{sort_intervals, IntervalUniverse};
use exq_xml::SpanDocument;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::iter;
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
    /// tests and tools can inspect deltas before applying them). The record
    /// goes through set-up's target choice and encoder, labeled inside the
    /// slot, its blocks numbered from the slot's next id and sealed under
    /// insert nonces; its values extend the stored OPESS plans.
    pub fn prepare_insert(
        &mut self,
        slot: &InsertionSlot,
        record_xml: &str,
        seed: u64,
    ) -> Result<InsertDelta, CoreError> {
        let record =
            SpanDocument::parse(record_xml).map_err(|e| CoreError::Query(e.to_string()))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let state = self.state();
        let keys = &state.keys;
        let targets =
            EncryptionScheme::targets_of(&record, &state.scheme_paths, state.lift_to_parent);
        let label = |text: &SpanDocument| {
            DsiLabeling::assign_in_slot(text, &mut rng, slot.gap_lo, slot.gap_hi).ok_or_else(|| {
                CoreError::Query("insertion slot exhausted; re-outsource to relabel".into())
            })
        };
        let (decoy_base, first_id) = (slot.gap_lo, slot.next_block_id);
        let encoder = Encoder::new(&record, &targets, keys, decoy_base, first_id, label)?;
        let mut tags = TagMemo::new(keys.tag_cipher());
        let sealed = encoder.seal(keys, |id, xml| keys.insert_nonce(id, xml), &mut tags);
        let state = self.state_mut();
        state.encrypted_tags.extend(sealed.encrypted_tags);
        state.plain_tags.extend(sealed.plain_tags);

        let mut value_entries = Vec::new();
        for (attr, value, block) in encoder.values() {
            let enc_attr = tags.encrypt(&attr).to_owned();
            for (c, scale) in self.value_ciphers_for_insert(&attr, &value, &mut rng)? {
                value_entries.extend(iter::repeat_n((enc_attr.clone(), c, block), scale as usize));
            }
        }
        Ok(InsertDelta {
            parent: slot.parent,
            visible: sealed.visible,
            blocks: sealed.blocks,
            dsi_entries: (sealed.dsi_entries.into_iter())
                .flat_map(|(tag, ivs)| ivs.into_iter().map(move |iv| (tag.clone(), iv)))
                .collect(),
            block_entries: sealed.block_entries,
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
