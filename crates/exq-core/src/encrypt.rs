//! The data-owner side: block encryption, decoys, and server metadata
//! construction (§4.1, §5).
//!
//! [`encrypt_database`] applies an [`EncryptionScheme`] to a document and
//! produces everything in Figure 1's data flow:
//!
//! * the **visible document** — the original tree with each encryption block
//!   cut out, and where each block was cut out as a byte offset into its
//!   text;
//! * the **sealed blocks** — each target subtree (plus decoy, §4.1)
//!   serialized and ChaCha20-sealed;
//! * the **server metadata** (§5): the DSI index table with Vernam-encrypted
//!   tags and same-tag adjacent grouping for block-internal nodes, the
//!   encryption block table, and one OPESS value index (a sorted run) per
//!   encrypted leaf attribute;
//! * the **client state**: key chain, the encrypted/plain tag vocabularies,
//!   and the OPESS plans + categorical codecs needed for query translation.
//!
//! Every random draw happens on the calling thread, in one fixed order. The
//! OPESS descents, which need only each attribute's OPE key, run in runs on
//! the process's other cores while the calling thread builds everything
//! else; the output does not depend on how many cores there are.

use crate::error::CoreError;
use crate::scheme::EncryptionScheme;
use crate::visible::VisibleFragment;
use exq_crypto::{seal_blocks, KeyChain, OpeKey, OpessDraft, OpessPlan, SealedBlock, TagCipher};
use exq_index::{
    dsi::{DsiLabeling, Interval},
    BlockTable, DsiIndexTable, ValueIndex,
};
use exq_xml::{escape_attr, escape_text, Document, NodeId, NodeKind};
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

/// Tag of decoy children inserted into leaf blocks (§4.1).
pub const DECOY_TAG: &str = "_exq_decoy";

/// Server-side metadata (the `M` of Figure 1).
#[derive(Debug, Clone, Default)]
pub struct ServerMetadata {
    pub dsi_table: DsiIndexTable,
    pub block_table: BlockTable,
    /// Per-attribute OPESS value index; keys are the server-visible
    /// (Vernam-encrypted) attribute names.
    pub value_indexes: HashMap<String, ValueIndex>,
}

impl ServerMetadata {
    /// Total metadata entries (structural + value) — the index-size metric.
    pub fn entry_count(&self) -> usize {
        let values: usize = self.value_indexes.values().map(ValueIndex::len).sum();
        self.dsi_table.entry_count() + values
    }

    /// Splices an inserted subtree's entries in: `run`, its distinct DSI
    /// intervals in join order, goes in as the last members under the
    /// member at `under`, and each attribute's value entries are one merge
    /// into its index. Returns the position the run starts at.
    pub(crate) fn splice_in(
        &mut self,
        under: u32,
        run: &[Interval],
        dsi_entries: &[(String, Interval)],
        block_entries: &[(Interval, u32)],
        value_entries: &[(String, u128, u32)],
    ) -> u32 {
        let at = self.dsi_table.splice_in(under, run, dsi_entries);
        self.block_table
            .splice_in(&self.dsi_table, at, block_entries);
        let mut attrs: Vec<&String> = value_entries.iter().map(|(attr, ..)| attr).collect();
        attrs.sort_unstable();
        attrs.dedup();
        for attr in attrs {
            let entries = value_entries.iter().filter(|(a, ..)| a == attr);
            self.value_indexes
                .entry(attr.clone())
                .or_default()
                .merge(entries.map(|&(_, cipher, id)| (cipher, id)));
        }
        at
    }

    /// Cuts out the member at `p`, which no block covers, with its subtree;
    /// returns the positions they held and the ids of the blocks inside.
    pub(crate) fn cut(&mut self, p: u32) -> (Range<u32>, Vec<u32>) {
        let cut = self.dsi_table.cut(p);
        (cut.clone(), self.block_table.cut(cut))
    }
}

/// How query-literal strings map into the OPESS numeric domain.
#[derive(Debug, Clone)]
pub enum ValueCodec {
    /// All domain values parse as numbers; encode by parsing.
    Numeric,
    /// Categorical domain: alphabetically sorted distinct values map to
    /// their rank (the paper's "client keeps the mapping between categorical
    /// values and natural numbers").
    Categorical(Vec<String>),
}

impl ValueCodec {
    /// Builds a codec from the distinct domain values.
    pub fn build(values: &[&str]) -> ValueCodec {
        if values.iter().all(|v| v.trim().parse::<f64>().is_ok()) {
            ValueCodec::Numeric
        } else {
            let mut sorted: Vec<String> = values.iter().map(|s| s.to_string()).collect();
            sorted.sort();
            sorted.dedup();
            ValueCodec::Categorical(sorted)
        }
    }

    /// Encodes a *domain* value; `None` when it cannot be represented.
    pub fn encode(&self, v: &str) -> Option<f64> {
        match self {
            ValueCodec::Numeric => v.trim().parse::<f64>().ok(),
            ValueCodec::Categorical(sorted) => sorted
                .binary_search_by(|x| x.as_str().cmp(v))
                .ok()
                .map(|i| i as f64),
        }
    }

    /// Encodes a *query* literal: absent categorical values land between
    /// their alphabetic neighbors so range translations stay correct.
    pub fn encode_query(&self, v: &str) -> Option<f64> {
        match self {
            ValueCodec::Numeric => v.trim().parse::<f64>().ok(),
            ValueCodec::Categorical(sorted) => {
                Some(match sorted.binary_search_by(|x| x.as_str().cmp(v)) {
                    Ok(i) => i as f64,
                    Err(ins) => ins as f64 - 0.5,
                })
            }
        }
    }
}

/// The client-side OPESS state for one encrypted attribute.
#[derive(Debug, Clone)]
pub struct OpessAttr {
    pub plan: OpessPlan,
    pub codec: ValueCodec,
}

/// Everything the client keeps after outsourcing (besides the keys being
/// derivable from the master key, this is small: vocabularies + OPESS
/// parameters).
#[derive(Debug, Clone)]
pub struct ClientCryptoState {
    pub keys: KeyChain,
    /// Plaintext tags (elements, and attributes as `@name`) that occur
    /// inside encryption blocks.
    pub encrypted_tags: HashSet<String>,
    /// Tags that occur outside blocks (visible to the server in plaintext).
    pub plain_tags: HashSet<String>,
    /// OPESS plan per encrypted leaf attribute (plaintext attribute name).
    pub opess: HashMap<String, OpessAttr>,
    /// The encryption policy, re-applied to inserted records: absolute
    /// paths whose bindings are encrypted, and whether to lift to parents
    /// (`sub` scheme).
    pub scheme_paths: Vec<exq_xpath::Path>,
    pub lift_to_parent: bool,
}

/// Owner-side encryption statistics (§7.4 metrics).
#[derive(Debug, Clone, Default)]
pub struct EncryptStats {
    pub encrypt_time: Duration,
    pub block_count: usize,
    /// Total sealed-block bytes including per-block envelope overhead.
    pub encrypted_bytes: usize,
    /// Serialized visible-document bytes.
    pub visible_bytes: usize,
    pub dsi_entries: usize,
    pub value_index_entries: usize,
    pub scheme_size: u64,
}

impl EncryptStats {
    /// Total bytes hosted on the server (visible + blocks), the
    /// "size of the encrypted document" of §7.4.
    pub fn hosted_bytes(&self) -> usize {
        self.encrypted_bytes + self.visible_bytes
    }
}

/// The full output of the owner-side pipeline.
#[derive(Debug, Clone)]
pub struct EncryptedOutput {
    /// The visible document and each block's offset in it.
    pub visible: VisibleFragment,
    pub blocks: Vec<SealedBlock>,
    pub metadata: ServerMetadata,
    pub client_state: ClientCryptoState,
    pub stats: EncryptStats,
}

/// Applies `scheme` to `doc`, producing the hosted artifacts.
pub fn encrypt_database(
    doc: &Document,
    scheme: &EncryptionScheme,
    keys: &KeyChain,
    rng: &mut impl Rng,
) -> Result<EncryptedOutput, CoreError> {
    let start = Instant::now();
    doc.root().ok_or(CoreError::EmptyDocument)?;

    // 1. Working copy with decoys inserted into leaf blocks.
    let mut working = doc.clone();
    let decoy_prf = keys.decoy_prf();
    for (i, t) in scheme.targets.iter().enumerate() {
        if t.decoy {
            let decoy_el = working.add_element(Some(t.node), DECOY_TAG);
            working.add_text(decoy_el, &decoy_value(&decoy_prf, i as u64));
        }
    }

    // 2. DSI labeling of the working document (block internals included:
    //    their intervals go into the DSI table under encrypted tags).
    let labeling = DsiLabeling::assign(&working, rng);

    // 3. Block membership: node -> block id.
    let mut block_of: Vec<Option<u32>> = vec![None; working.arena_len()];
    for (i, t) in scheme.targets.iter().enumerate() {
        for n in working.descendants(t.node) {
            block_of[n.index()] = Some(i as u32);
        }
    }

    // 4. Every OPESS plan drafted: the set-up's last draws from `rng`,
    //    in attribute order. What is left of a plan is the descent of its
    //    displaced values, which needs only the attribute's OPE key.
    let drafts = draft_value_indexes(&working, &block_of, keys, rng)?;
    let runs: Vec<(&OpeKey, &[u64])> = drafts
        .iter()
        .flat_map(|d| {
            let ope = d.draft.ope();
            d.draft
                .displaced()
                .chunks(DESCENT_RUN)
                .map(move |run| (ope, run))
        })
        .collect();
    let descended: Vec<OnceLock<Vec<u128>>> = runs.iter().map(|_| OnceLock::new()).collect();
    let next_run = AtomicUsize::new(0);
    let descend = || loop {
        let i = next_run.fetch_add(1, Ordering::Relaxed);
        let Some(&(ope, run)) = runs.get(i) else {
            return;
        };
        descended[i]
            .set(ope.encrypt_many(run))
            .expect("a run is taken once");
    };

    // 5–8. The descents run on the other cores while this thread builds
    //      everything that outlives them, then joins them. The workers
    //      allocate nothing but their runs' ciphertexts.
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get) - 1;
    let mut tags = TagMemo::new(keys.tag_cipher());
    let mut encrypted_tags = HashSet::new();
    let mut plain_tags = HashSet::new();
    let (blocks, visible, dsi_table, block_table) = thread::scope(|s| {
        for _ in 0..workers.min(runs.len()) {
            s.spawn(descend);
        }

        // 5. Seal blocks.
        let blocks = {
            let plaintexts: Vec<String> = scheme
                .targets
                .iter()
                .map(|t| working.node_to_xml(t.node))
                .collect();
            let to_seal: Vec<(u32, [u8; 12], &[u8])> = plaintexts
                .iter()
                .enumerate()
                .map(|(i, xml)| (i as u32, keys.nonce("block", i as u64), xml.as_bytes()))
                .collect();
            seal_blocks(&keys.block_key(), &to_seal)
        };

        // 6. Visible document + its blocks' offsets.
        let visible = build_visible(&working, &block_of);

        // 7–8. DSI index table (with grouping) + block table.
        let mut dsi_entries = HashMap::new();
        build_dsi_table(
            &working,
            working.root().unwrap(),
            &block_of,
            &labeling,
            &mut tags,
            &mut dsi_entries,
            &mut encrypted_tags,
            &mut plain_tags,
        );
        let dsi_table =
            DsiIndexTable::from_entries(dsi_entries).expect("DSI intervals nest or are disjoint");
        let reps = scheme.targets.iter().enumerate().map(|(i, t)| {
            let rep = labeling.interval(t.node).expect("block root labeled");
            (rep, i as u32)
        });
        let block_table =
            BlockTable::new(&dsi_table, reps).expect("block roots are listed, disjoint subtrees");

        descend();
        (blocks, visible, dsi_table, block_table)
    });

    // 9. Each plan finished from its runs, and its value index loaded.
    let descended = descended
        .into_iter()
        .map(|run| run.into_inner().expect("every run descended"));
    let (value_indexes, opess, value_entries) = finish_value_indexes(drafts, descended, &mut tags);

    let stats = EncryptStats {
        encrypt_time: start.elapsed(),
        block_count: blocks.len(),
        encrypted_bytes: blocks.iter().map(SealedBlock::stored_size).sum(),
        visible_bytes: visible.xml.len(),
        dsi_entries: dsi_table.entry_count(),
        value_index_entries: value_entries,
        scheme_size: scheme.size(doc),
    };

    Ok(EncryptedOutput {
        visible,
        blocks,
        metadata: ServerMetadata {
            dsi_table,
            block_table,
            value_indexes,
        },
        client_state: ClientCryptoState {
            keys: keys.clone(),
            encrypted_tags,
            plain_tags,
            opess,
            scheme_paths: scheme.paths.clone(),
            lift_to_parent: scheme.lift_to_parent,
        },
        stats,
    })
}

fn decoy_value(prf: &exq_crypto::Prf, i: u64) -> String {
    const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    let mut buf = [0u8; 6];
    prf.fill(&i.to_le_bytes(), &mut buf);
    buf.iter()
        .map(|&b| ALPHA[b as usize % 26] as char)
        .collect()
}

/// Writes the visible part of `working` as its writer would, each block
/// cut out and the offset where it was cut out written. An element whose
/// only children are blocks is written `<x></x>`, so every offset lies
/// inside its parent. The one builder of visible documents: set-up and
/// inserts both call it.
pub(crate) fn build_visible(working: &Document, block_of: &[Option<u32>]) -> VisibleFragment {
    let mut frag = VisibleFragment::default();
    if let Some(root) = working.root() {
        write_node(working, block_of, root, &mut frag);
    }
    frag
}

/// [`build_visible`]'s walk.
fn write_node(
    working: &Document,
    block_of: &[Option<u32>],
    node: NodeId,
    frag: &mut VisibleFragment,
) {
    if block_of[node.index()].is_some() {
        frag.offsets.push(frag.xml.len() as u32);
        return;
    }
    let xml = &mut frag.xml;
    match working.node(node).kind() {
        NodeKind::Text(t) => xml.push_str(&escape_text(t)),
        NodeKind::Element(t) => {
            let name = working.tag_name(*t);
            xml.push('<');
            xml.push_str(name);
            for &a in working.node(node).attrs() {
                if let NodeKind::Attribute(an, v) = working.node(a).kind() {
                    xml.push(' ');
                    xml.push_str(working.tag_name(*an));
                    xml.push_str("=\"");
                    xml.push_str(&escape_attr(v));
                    xml.push('"');
                }
            }
            let children = working.node(node).children();
            if children.is_empty() {
                xml.push_str("/>");
                return;
            }
            xml.push('>');
            for &c in children {
                write_node(working, block_of, c, frag);
            }
            let xml = &mut frag.xml;
            xml.push_str("</");
            xml.push_str(name);
            xml.push('>');
        }
        NodeKind::Attribute(..) => unreachable!("attributes handled with their element"),
    }
}

/// The tag cipher behind a memo: a build encrypts each distinct name once,
/// however many table entries carry it.
struct TagMemo {
    cipher: TagCipher,
    seen: HashMap<String, String>,
}

impl TagMemo {
    fn new(cipher: TagCipher) -> Self {
        TagMemo {
            cipher,
            seen: HashMap::new(),
        }
    }

    fn encrypt(&mut self, name: &str) -> &str {
        if !self.seen.contains_key(name) {
            let c = self.cipher.encrypt(name);
            self.seen.insert(name.to_owned(), c);
        }
        &self.seen[name]
    }
}

/// One DSI index table entry, filed under its tag.
fn add(table: &mut HashMap<String, Vec<Interval>>, tag: &str, iv: Interval) {
    table.entry(tag.to_owned()).or_default().push(iv);
}

/// Collects the DSI index table's entries: plaintext tags outside blocks,
/// Vernam-encrypted tags with adjacent same-tag grouping inside blocks.
#[allow(clippy::too_many_arguments)]
fn build_dsi_table(
    doc: &Document,
    node: NodeId,
    block_of: &[Option<u32>],
    labeling: &DsiLabeling,
    tags: &mut TagMemo,
    table: &mut HashMap<String, Vec<Interval>>,
    encrypted_tags: &mut HashSet<String>,
    plain_tags: &mut HashSet<String>,
) {
    // Attributes first (no grouping: names are unique per element).
    for &a in doc.node(node).attrs() {
        if let NodeKind::Attribute(at, _) = doc.node(a).kind() {
            let name = format!("@{}", doc.tag_name(*at));
            let iv = labeling.interval(a).expect("attribute labeled");
            if block_of[a.index()].is_some() {
                encrypted_tags.insert(name.clone());
                add(table, tags.encrypt(&name), iv);
            } else {
                plain_tags.insert(name.clone());
                add(table, &name, iv);
            }
        }
    }
    // The node itself.
    if let NodeKind::Element(t) = doc.node(node).kind() {
        let name = doc.tag_name(*t).to_owned();
        let iv = labeling.interval(node).expect("element labeled");
        if block_of[node.index()].is_some() {
            encrypted_tags.insert(name.clone());
        } else {
            plain_tags.insert(name.clone());
            add(table, &name, iv);
        }
        // Entry addition for block-internal elements happens in the parent's
        // grouping pass below; the only element without a parent pass is the
        // document root (relevant under the `top` scheme).
        if block_of[node.index()].is_some() && doc.node(node).parent().is_none() {
            add(table, tags.encrypt(&name), iv);
        }
        // Grouping pass over element children that live inside blocks:
        // runs of adjacent same-tag children in the same block merge into
        // one span interval (§5.1.1).
        let children = doc.node(node).children();
        let mut run: Option<(String, u32, Interval)> = None;
        for &c in children {
            let cur = match doc.node(c).kind() {
                NodeKind::Element(ct) if block_of[c.index()].is_some() => Some((
                    doc.tag_name(*ct).to_owned(),
                    block_of[c.index()].unwrap(),
                    labeling.interval(c).expect("child labeled"),
                )),
                _ => None,
            };
            match (&mut run, cur) {
                (Some((rt, rb, riv)), Some((ct, cb, civ))) if *rt == ct && *rb == cb => {
                    *riv = riv.span(&civ);
                }
                (prev, cur) => {
                    if let Some((rt, _, riv)) = prev.take() {
                        add(table, tags.encrypt(&rt), riv);
                    }
                    *prev = cur;
                }
            }
        }
        if let Some((rt, _, riv)) = run {
            add(table, tags.encrypt(&rt), riv);
        }
        // Recurse.
        for &c in children {
            build_dsi_table(
                doc,
                c,
                block_of,
                labeling,
                tags,
                table,
                encrypted_tags,
                plain_tags,
            );
        }
    }
}

/// Displaced values per unit of descent work. A cut between two runs
/// repeats at most the 65 coins of one root-to-leaf path; small runs let
/// the cores finish close together. A 1200-patient hospital's `policy`,
/// its largest attribute, is 3 555 values: fourteen runs.
const DESCENT_RUN: usize = 256;

/// One encrypted attribute between its draft and its value index.
struct AttrDraft {
    attr: String,
    codec: ValueCodec,
    /// Block ids of the occurrences, per encoded value (`f64` bits), in
    /// document order.
    blocks: HashMap<u64, Vec<u32>>,
    draft: OpessDraft,
}

/// Drafts an OPESS plan per attribute of the leaf values inside blocks,
/// attributes in name order.
fn draft_value_indexes(
    doc: &Document,
    block_of: &[Option<u32>],
    keys: &KeyChain,
    rng: &mut impl Rng,
) -> Result<Vec<AttrDraft>, CoreError> {
    // attribute name -> [(value, block id)]
    let mut occ: HashMap<String, Vec<(&str, u32)>> = HashMap::new();
    for n in doc.iter() {
        let Some(b) = block_of[n.index()] else {
            continue;
        };
        match doc.node(n).kind() {
            NodeKind::Text(v) => {
                let parent = doc.node(n).parent().expect("text has parent");
                let Some(tag) = doc.element_name(parent) else {
                    continue;
                };
                if tag == DECOY_TAG {
                    continue;
                }
                occ.entry(tag.to_owned()).or_default().push((v, b));
            }
            NodeKind::Attribute(at, v) => {
                let name = format!("@{}", doc.tag_name(*at));
                occ.entry(name).or_default().push((v, b));
            }
            NodeKind::Element(_) => {}
        }
    }

    // Deterministic iteration order for reproducibility.
    let mut occ: Vec<(String, Vec<(&str, u32)>)> = occ.into_iter().collect();
    occ.sort_by(|a, b| a.0.cmp(&b.0));
    let mut drafts = Vec::with_capacity(occ.len());
    for (attr, occurrences) in occ {
        let distinct: Vec<&str> = {
            let mut v: Vec<&str> = occurrences.iter().map(|&(s, _)| s).collect();
            v.sort();
            v.dedup();
            v
        };
        let codec = ValueCodec::build(&distinct);
        let mut blocks: HashMap<u64, Vec<u32>> = HashMap::new();
        for (v, b) in occurrences {
            let Some(x) = codec.encode(v) else {
                return Err(CoreError::Opess(format!(
                    "value `{v}` of `{attr}` not encodable"
                )));
            };
            blocks.entry(x.to_bits()).or_default().push(b);
        }
        // The histogram in the encoded domain.
        let hist: Vec<(f64, u32)> = blocks
            .iter()
            .map(|(&x, bs)| (f64::from_bits(x), bs.len() as u32))
            .collect();
        let draft = OpessPlan::draft(&hist, keys.ope_key(&attr), rng)
            .map_err(|e| CoreError::Opess(e.to_string()))?;
        drafts.push(AttrDraft {
            attr,
            codec,
            blocks,
            draft,
        });
    }
    Ok(drafts)
}

type ValueIndexes = (
    HashMap<String, ValueIndex>,
    HashMap<String, OpessAttr>,
    usize,
);

/// Finishes each draft from `descended`, the ciphertexts of every run in
/// order, and loads its attribute's value index in one pass.
fn finish_value_indexes(
    drafts: Vec<AttrDraft>,
    mut descended: impl Iterator<Item = Vec<u128>>,
    tags: &mut TagMemo,
) -> ValueIndexes {
    let mut indexes = HashMap::new();
    let mut opess = HashMap::new();
    let mut total_entries = 0usize;
    for AttrDraft {
        attr,
        codec,
        blocks,
        draft,
    } in drafts
    {
        let runs = draft.displaced().len().div_ceil(DESCENT_RUN);
        let plan = draft.finish(descended.by_ref().take(runs).flatten());

        // Assign occurrences to chunks: each occurrence is one entry per
        // scale step under its chunk's ciphertext.
        let mut entries: Vec<(u128, u32)> = Vec::with_capacity(plan.index_entry_count() as usize);
        for entry in plan.entries() {
            let blocks = &blocks[&entry.plaintext.to_bits()];
            let scale = entry.scale as usize;
            if entry.count == 1 {
                // Singleton: every chunk ciphertext points to the lone block.
                for c in &entry.chunks {
                    entries.extend(std::iter::repeat_n((c.ciphertext, blocks[0]), scale));
                }
                continue;
            }
            let mut it = blocks.iter();
            for c in &entry.chunks {
                for _ in 0..c.occurrences {
                    let b = *it.next().expect("chunk sizes sum to the count");
                    entries.extend(std::iter::repeat_n((c.ciphertext, b), scale));
                }
            }
        }
        // Plaintexts closer together than the OPE domain resolves can
        // interleave their chunks; a stable sort then keeps the index the
        // one merging these entries in turn would build.
        if !entries.is_sorted_by_key(|&(k, _)| k) {
            entries.sort_by_key(|&(k, _)| k);
        }
        let index = ValueIndex::from_sorted(entries).expect("sorted just above");
        total_entries += index.len();
        indexes.insert(tags.encrypt(&attr).to_owned(), index);
        opess.insert(attr, OpessAttr { plan, codec });
    }
    (indexes, opess, total_entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::SecurityConstraint;
    use crate::scheme::{EncryptionScheme, SchemeKind};
    use exq_crypto::open_block;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn doc() -> Document {
        Document::parse(
            r#"<hospital>
                <patient><pname>Betty</pname><SSN>763895</SSN><age>35</age>
                  <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
                  <insurance><policy coverage="1000000">34221</policy>
                              <policy coverage="10000">44louis</policy></insurance></patient>
                <patient><pname>Matt</pname><SSN>276543</SSN><age>40</age>
                  <treat><disease>leukemia</disease><doctor>Brown</doctor></treat>
                  <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
                  <insurance><policy coverage="5000">78543</policy></insurance></patient>
               </hospital>"#,
        )
        .unwrap()
    }

    fn constraints() -> Vec<SecurityConstraint> {
        [
            "//insurance",
            "//patient:(/pname, /SSN)",
            "//patient:(/pname, //disease)",
            "//treat:(/disease, /doctor)",
        ]
        .iter()
        .map(|s| SecurityConstraint::parse(s).unwrap())
        .collect()
    }

    fn encrypt(kind: SchemeKind) -> (Document, EncryptedOutput) {
        let d = doc();
        let s = EncryptionScheme::build(&d, &constraints(), kind).unwrap();
        let keys = KeyChain::from_seed(77);
        let mut rng = StdRng::seed_from_u64(5);
        let out = encrypt_database(&d, &s, &keys, &mut rng).unwrap();
        (d, out)
    }

    #[test]
    fn blocks_decrypt_back_to_subtrees() {
        let (_, out) = encrypt(SchemeKind::Opt);
        assert!(!out.blocks.is_empty());
        let key = out.client_state.keys.block_key();
        for b in &out.blocks {
            let pt = open_block(&key, b).unwrap();
            let xml = String::from_utf8(pt).unwrap();
            Document::parse(&xml).unwrap();
        }
    }

    #[test]
    fn visible_document_places_blocks_not_secrets() {
        let (_, out) = encrypt(SchemeKind::Opt);
        let xml = &out.visible.xml;
        assert_eq!(out.visible.offsets.len(), out.blocks.len());
        // The node-type SC //insurance hides the whole insurance subtree.
        for secret in ["34221", "78543", "1000000", "policy", "coverage"] {
            assert!(!xml.contains(secret), "leaked {secret}");
        }
        // Association SCs require at least one endpoint hidden per pair.
        let hidden = |s: &str| !xml.contains(s);
        assert!(
            hidden("Betty") || hidden("763895"),
            "pname–SSN association leaked"
        );
        assert!(
            hidden("Betty") || hidden("diarrhea"),
            "pname–disease association leaked"
        );
        assert!(
            hidden("diarrhea") || hidden("Smith"),
            "disease–doctor association leaked"
        );
        // Non-sensitive structure stays visible.
        assert!(xml.contains("<hospital>"));
        assert!(xml.contains("<patient>"));
    }

    #[test]
    fn top_scheme_single_block() {
        let (_, out) = encrypt(SchemeKind::Top);
        assert_eq!(out.blocks.len(), 1);
        assert_eq!(out.visible.xml, "");
        assert_eq!(out.visible.offsets, [0]);
    }

    #[test]
    fn dsi_table_hides_encrypted_tags() {
        let (_, out) = encrypt(SchemeKind::Opt);
        let table = &out.metadata.dsi_table;
        // pname is encrypted by every reasonable cover here.
        assert!(out.client_state.encrypted_tags.contains("pname"));
        assert!(
            table.lookup("pname").is_empty(),
            "plaintext sensitive tag in table"
        );
        let cipher = out.client_state.keys.tag_cipher();
        assert!(!table.lookup(&cipher.encrypt("pname")).is_empty());
        // hospital stays plaintext.
        assert_eq!(table.lookup("hospital").len(), 1);
    }

    #[test]
    fn block_table_has_representative_intervals() {
        let (_, out) = encrypt(SchemeKind::Opt);
        let meta = &out.metadata;
        assert_eq!(
            meta.block_table.iter(&meta.dsi_table).count(),
            out.blocks.len()
        );
        for (iv, id) in meta.block_table.iter(&meta.dsi_table) {
            assert!(iv.lo < iv.hi);
            assert!((id as usize) < out.blocks.len());
        }
    }

    #[test]
    fn value_indexes_flat_histogram() {
        let (_, out) = encrypt(SchemeKind::Opt);
        assert!(!out.metadata.value_indexes.is_empty());
        for attr in out.client_state.opess.values() {
            let hist = attr.plan.split_histogram();
            let m = attr.plan.m();
            for h in hist {
                assert!(h == 1 || (m - 1..=m + 1).contains(&h));
            }
        }
    }

    #[test]
    fn decoys_inserted_into_leaf_blocks() {
        let (_, out) = encrypt(SchemeKind::Opt);
        let key = out.client_state.keys.block_key();
        let mut any_decoy = false;
        for b in &out.blocks {
            let xml = String::from_utf8(open_block(&key, b).unwrap()).unwrap();
            if xml.contains(DECOY_TAG) {
                any_decoy = true;
            }
        }
        assert!(any_decoy, "no decoys found in any block");
    }

    #[test]
    fn equal_plaintexts_seal_to_distinct_ciphertexts() {
        // The two identical <disease>diarrhea</disease> blocks must differ.
        let d = doc();
        let cs = vec![SecurityConstraint::parse("//disease").unwrap()];
        let s = EncryptionScheme::build(&d, &cs, SchemeKind::Opt).unwrap();
        let keys = KeyChain::from_seed(1);
        let mut rng = StdRng::seed_from_u64(1);
        let out = encrypt_database(&d, &s, &keys, &mut rng).unwrap();
        let diarrhea: Vec<&SealedBlock> = out.blocks.iter().collect();
        for i in 0..diarrhea.len() {
            for j in i + 1..diarrhea.len() {
                assert_ne!(diarrhea[i].ciphertext, diarrhea[j].ciphertext);
            }
        }
    }

    /// Every element and attribute of the text is a position outside
    /// every block, and the blocks stand, in document order, where the
    /// text is the whole document's text with each block's serialization
    /// cut out.
    #[test]
    fn visible_offsets_align() {
        let (d, out) = encrypt(SchemeKind::Opt);
        let visible = Document::parse(&out.visible.xml).unwrap();
        let nodes = visible.iter().filter(|&n| !visible.node(n).is_text());
        let meta = &out.metadata;
        let u = meta.dsi_table.universe();
        let outside = (0..u.len() as u32).filter(|&p| meta.block_table.block_at(p).is_none());
        assert_eq!(nodes.count(), outside.count());
        let mut reps: Vec<(Interval, u32)> = meta.block_table.iter(&meta.dsi_table).collect();
        reps.sort_by_key(|(rep, _)| rep.lo);
        assert_eq!(out.visible.offsets.len(), reps.len());
        let key = out.client_state.keys.block_key();
        let mut whole = out.visible.xml.clone();
        for (&offset, (_, id)) in out.visible.offsets.iter().zip(&reps).rev() {
            let block = String::from_utf8(open_block(&key, &out.blocks[*id as usize]).unwrap());
            whole.insert_str(offset as usize, &block.unwrap());
        }
        let mut whole = Document::parse(&whole).unwrap();
        for decoy in whole.elements_by_tag(DECOY_TAG) {
            whole.detach(decoy);
        }
        assert_eq!(whole.to_xml(), d.to_xml());
    }

    #[test]
    fn grouping_merges_adjacent_same_tag_siblings() {
        // Both policies of patient 1 sit in one insurance block and are
        // adjacent same-tag siblings: the DSI table must hold one merged
        // interval spanning both, not two.
        let (d, out) = encrypt(SchemeKind::Opt);
        let cipher = out.client_state.keys.tag_cipher();
        let policies = d.elements_by_tag("policy");
        assert_eq!(policies.len(), 3);
        let entries = out.metadata.dsi_table.lookup(&cipher.encrypt("policy"));
        assert_eq!(entries.len(), 2, "adjacent policies should be grouped");
    }

    #[test]
    fn stats_populated() {
        let (_, out) = encrypt(SchemeKind::Opt);
        assert!(out.stats.block_count > 0);
        assert!(out.stats.encrypted_bytes > 0);
        assert!(out.stats.visible_bytes > 0);
        assert!(out.stats.dsi_entries > 0);
        assert!(out.stats.value_index_entries > 0);
        assert!(out.stats.hosted_bytes() > out.stats.encrypted_bytes);
    }

    /// Two plaintexts one ulp apart interleave their chunks' ciphertexts;
    /// the value index still holds every entry, in key order.
    #[test]
    fn value_index_of_interleaved_chunks() {
        let mut xml = String::from("<r>");
        // A count of 3 beside two of 40 keeps the chunks small and many.
        for i in 0..83 {
            let v = ["1", "1.0000000000000002", "7"][if i < 80 { i % 2 } else { 2 }];
            xml.push_str(&format!("<p><v>{v}</v></p>"));
        }
        xml.push_str("</r>");
        let d = Document::parse(&xml).unwrap();
        let cs = vec![SecurityConstraint::parse("//v").unwrap()];
        let s = EncryptionScheme::build(&d, &cs, SchemeKind::Opt).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let out = encrypt_database(&d, &s, &KeyChain::from_seed(3), &mut rng).unwrap();
        let plan = &out.client_state.opess["v"].plan;
        let ciphertexts: Vec<u128> = plan
            .entries()
            .iter()
            .flat_map(|e| e.chunks.iter().map(|c| c.ciphertext))
            .collect();
        assert!(!ciphertexts.is_sorted(), "the chunks should interleave");
        let index = out.metadata.value_indexes.values().next().unwrap();
        assert!(index.iter().map(|(k, _)| k).is_sorted(), "key order");
        assert_eq!(index.len() as u64, plan.index_entry_count());
    }

    #[test]
    fn codec_numeric_and_categorical() {
        let c = ValueCodec::build(&["10", "2", "33"]);
        assert!(matches!(c, ValueCodec::Numeric));
        assert_eq!(c.encode("2"), Some(2.0));
        let c = ValueCodec::build(&["flu", "cold", "flu"]);
        match &c {
            ValueCodec::Categorical(sorted) => assert_eq!(sorted, &["cold", "flu"]),
            _ => panic!(),
        }
        assert_eq!(c.encode("cold"), Some(0.0));
        assert_eq!(c.encode("flu"), Some(1.0));
        assert_eq!(c.encode("zzz"), None);
        assert_eq!(c.encode_query("aaa"), Some(-0.5));
        assert_eq!(c.encode_query("dog"), Some(0.5));
        assert_eq!(c.encode_query("flu"), Some(1.0));
    }
}
