//! The client: query translation, decryption, and post-processing
//! (§6.1, §6.4).
//!
//! Translation replaces tags with their server-visible forms (Vernam
//! ciphertext for encrypted tags, plaintext otherwise — a tag occurring both
//! inside and outside blocks contributes both forms) and value predicates
//! with OPESS ciphertext ranges per Figure 7(a). Queries using axes the
//! server cannot evaluate over intervals (`parent`, `following-sibling`,
//! explicit `self` steps) fall back to the naive method transparently.
//!
//! Post-processing reconstructs a partial document from the server's pruned
//! response — decrypting blocks, parsing each in at its byte offset,
//! removing decoys — and re-runs the whole query on it to obtain the final
//! answer, which equals the answer on the plaintext database. The server
//! ships a witness for each predicate above the anchor so that the re-run
//! can check it.

use crate::encrypt::{ClientCryptoState, DECOY_TAG};
use crate::error::CoreError;
use crate::server::Server;
use crate::wire::{SAxis, SPred, SStep, ServerQuery, ServerResponse};
use exq_crypto::{open_blocks, OpenedBlocks, RangeOp, SealedBlocks};
use exq_xml::{NodeType, ParseError, SpanBuilder, SpanDocument, TreeView, Verdict};
use exq_xpath::{eval, Axis, CmpOp, Literal, NodeTest, Path, Predicate};
use std::time::{Duration, Instant};

/// Synthetic root used when several root-level blocks must splice into one
/// reconstruction (a document holds exactly one root element).
const SPLICE_ROOT_TAG: &str = "_exq_splice";

/// The data owner's query-side state.
#[derive(Debug, Clone)]
pub struct Client {
    state: ClientCryptoState,
}

/// A translated query plus what the client needs for post-processing.
#[derive(Debug, Clone)]
pub struct TranslatedQuery {
    /// What goes to the server, or `None` when the query needs the naive
    /// fallback (unsupported server axis).
    pub server_query: Option<ServerQuery>,
    /// The query the client re-runs on the reconstructed document: the
    /// whole query, whether the server evaluated it or shipped everything.
    pub post_query: Path,
    /// Time spent translating (§7.2's client translation time).
    pub translate_time: Duration,
}

/// The client-side result of one query round trip.
#[derive(Debug, Clone)]
pub struct PostProcessed {
    /// Serialized XML of each result node.
    pub results: Vec<String>,
    pub decrypt_time: Duration,
    pub post_process_time: Duration,
    pub blocks_decrypted: usize,
}

impl Client {
    pub fn new(state: ClientCryptoState) -> Client {
        Client { state }
    }

    /// Does nothing: the client opens a reply's blocks on the calling
    /// thread, sixteen to a pass (DESIGN.md §3 says why). Kept for callers
    /// that still set a count, such as the perf ledger.
    pub fn set_threads(&mut self, _threads: usize) {}

    pub fn state(&self) -> &ClientCryptoState {
        &self.state
    }

    /// A stable 64-bit fingerprint of this client's master key (FNV-1a over
    /// the key bytes). Recorded per tenant in the multi-db registry and
    /// manifest so operators can tell which key a hosted database expects
    /// without ever storing the key server-side.
    pub fn key_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &self.state.keys.master_key() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    pub(crate) fn state_mut(&mut self) -> &mut ClientCryptoState {
        &mut self.state
    }

    /// Translates an XPath string (§6.1).
    pub fn translate(&self, query: &str) -> Result<TranslatedQuery, CoreError> {
        let start = Instant::now();
        let path = Path::parse(query).map_err(|e| CoreError::Query(e.to_string()))?;
        let server_query = self.translate_path(&path);
        // The client re-runs the FULL query on the reconstruction: the
        // server ships predicate witnesses for steps above the anchor, so
        // every predicate is re-checkable exactly (see `translate_path`).
        Ok(TranslatedQuery {
            server_query,
            post_query: path,
            translate_time: start.elapsed(),
        })
    }

    /// Executes the full round trip over a transport. The client never
    /// touches a `Server` directly: whether the link is [`InProcess`] or
    /// TCP, requests and responses travel as encoded frames.
    ///
    /// [`InProcess`]: crate::transport::InProcess
    pub fn run(
        &self,
        transport: &mut dyn crate::transport::Transport,
        query: &str,
    ) -> Result<(TranslatedQuery, ServerResponse, PostProcessed), CoreError> {
        let tq = self.translate(query)?;
        let resp = match &tq.server_query {
            Some(sq) => transport.send_query(sq)?,
            None => transport.send_naive()?,
        };
        let post = self.post_process(&tq.post_query, &resp)?;
        Ok((tq, resp, post))
    }

    /// Authenticates and decrypts every shipped block, sixteen to a pass.
    /// Errors name the block a loop over the blocks in shipped order would:
    /// the first that does not verify or, ahead of it, the first that is not
    /// text.
    fn decrypt_blocks<'t>(&self, blocks: &'t SealedBlocks) -> Result<OpenedBlocks<'t>, CoreError> {
        let key = self.state.keys.block_key();
        open_blocks(&key, blocks).map_err(|(bad, e)| {
            let ahead: SealedBlocks = blocks.iter().take(bad).collect();
            let opened =
                open_blocks(&key, &ahead).expect("every block before the first bad tag verifies");
            match block_texts(&ahead, &opened) {
                Err(not_text) => not_text,
                Ok(_) => CoreError::Block(e.to_string()),
            }
        })
    }

    /// Decrypts, reconstructs, and evaluates the post query (§6.4).
    pub fn post_process(
        &self,
        post_query: &Path,
        resp: &ServerResponse,
    ) -> Result<PostProcessed, CoreError> {
        let t0 = Instant::now();
        let opened = self.decrypt_blocks(&resp.blocks)?;
        let texts = block_texts(&resp.blocks, &opened)?;
        let decrypt_time = t0.elapsed();

        let t1 = Instant::now();
        // An element's result is its slice of the reconstruction's text; an
        // attribute's or a text's is its value.
        let results = match self.reconstruct(&resp.pruned_xml, &resp.offsets, &texts)? {
            None => Vec::new(),
            Some(doc) => eval(&doc, post_query)
                .into_iter()
                .map(|n| match doc.node_type(n) {
                    NodeType::Element(_) => doc.xml(n).to_owned(),
                    _ => doc.string_value(n).into_owned(),
                })
                .collect(),
        };
        // The plaintext goes before the clock stops: freeing it belongs to
        // post-processing.
        drop(opened);
        Ok(PostProcessed {
            results,
            decrypt_time,
            post_process_time: t1.elapsed(),
            blocks_decrypted: resp.blocks.len(),
        })
    }

    /// Reconstructs the complete plaintext database from the server — the
    /// owner's data-recovery path (decrypt everything, splice, strip
    /// decoys): the reconstruction, its text canonical. Returns `None` only
    /// for an empty hosted database.
    pub fn export(&self, server: &Server) -> Result<Option<SpanDocument>, CoreError> {
        let resp = server.answer_naive()?;
        let opened = self.decrypt_blocks(&resp.blocks)?;
        let texts = block_texts(&resp.blocks, &opened)?;
        self.reconstruct(&resp.pruned_xml, &resp.offsets, &texts)
    }

    /// Reconstructs the reply as text: the reply with each shipped block
    /// parsed in at its offset, read into a [`SpanDocument`] whose node
    /// numbers are in document order. The tokenizer stops at each offset
    /// and parses that block in where it stands, so an element whose only
    /// children are blocks, `<x></x>`, holds them. The parser shows each
    /// start tag to a hook before it builds anything: a decoy is skipped,
    /// and never becomes a node or a byte of the text. A skipped element's
    /// content is still checked (nesting, tag matching, repeated attributes)
    /// but nothing inside it is asked about or parsed in — the content it
    /// would have added went with it.
    ///
    /// Offsets are where the blocks stand, one per block in shipped order,
    /// which is document order. An offset count that is not the block
    /// count, an offset inside markup or outside the root element, one
    /// before the offset ahead of it, or one past the end is a malformed
    /// response naming the first bad one. A block that is not XML is
    /// reported when its offset is reached, so the first bad block wins.
    ///
    /// An empty `pruned_xml` with shipped blocks is the fully-encrypted-root
    /// case: the server has no visible context to send, but the blocks are
    /// the answer — every offset is 0, and they splice at the root level in
    /// shipped order rather than being dropped. `None` is returned only
    /// when *nothing* came back (an empty hosted database).
    fn reconstruct<'s>(
        &self,
        pruned_xml: &'s str,
        offsets: &[u32],
        blocks: &[&'s str],
    ) -> Result<Option<SpanDocument>, CoreError> {
        if offsets.len() != blocks.len() {
            return Err(CoreError::Response(format!(
                "{} block offsets for {} blocks",
                offsets.len(),
                blocks.len()
            )));
        }
        let bytes = pruned_xml.len() + blocks.iter().map(|xml| xml.len()).sum::<usize>();
        let mut out = SpanBuilder::with_capacity(bytes);
        let decoy = out.intern(DECOY_TAG);
        let skip_decoy = |tag: &exq_xml::StartTag<'_, 's>| match tag.name == decoy {
            true => Verdict::Skip,
            false => Verdict::Keep,
        };
        let parse_block = |out: &mut SpanBuilder<'s>, xml: &'s str| {
            out.parse_fragment(xml, |_, tag| Ok::<_, ParseError>(skip_decoy(tag)))
                .map_err(|e| CoreError::Block(format!("block not XML: {e}")))
        };
        if pruned_xml.is_empty() {
            if blocks.is_empty() {
                return Ok(None);
            }
            if let Some(i) = offsets.iter().position(|&o| o != 0) {
                let message = format!("block {i}'s offset {} is past the empty text", offsets[i]);
                return Err(CoreError::Response(message));
            }
            // One block: its root becomes the document root (the common
            // fully-encrypted-root shape). Several blocks cannot share the
            // root slot, so they splice under a synthetic wrapper element;
            // descendant-axis post-queries see through it unchanged.
            let wrap = blocks.len() > 1;
            if wrap {
                out.open(SPLICE_ROOT_TAG);
            }
            for xml in blocks {
                parse_block(&mut out, xml)?;
            }
            if wrap {
                out.close();
            }
            return Ok(Some(out.finish()));
        }
        out.parse_stopping(
            pruned_xml,
            offsets,
            |_, tag| Ok(skip_decoy(tag)),
            |out, i| parse_block(out, blocks[i]),
        )?;
        Ok(Some(out.finish()))
    }

    /// Translates a path into a server pattern; `None` on unsupported axes.
    ///
    /// The **anchor** is the highest (closest-to-root) step whose predicate
    /// set the server can only over-approximate or cannot prove with one
    /// witness — encrypted value predicates are exact only at block
    /// granularity, unsupported predicates are dropped server-side entirely,
    /// and a branch with a predicate before its last step outgrows its
    /// witness ([`witness_falls_short`]). The server ships each anchor match's
    /// whole region, plus one witness region per positive predicate above
    /// the anchor, so the client's re-run of the full query on the
    /// reconstruction is exact: positive predicates are monotone (holding
    /// on the shipped subset implies holding on `D`), and non-monotone
    /// predicates (`not`, `!=`, positional) always sit at or below the
    /// anchor, whose region is complete. Predicates that look *upward*
    /// (parent / following-sibling inside a predicate) cannot be re-checked
    /// on a pruned response at all; those queries fall back to naive.
    fn translate_path(&self, path: &Path) -> Option<ServerQuery> {
        // Upward-looking predicates anywhere force the naive path.
        if path
            .steps
            .iter()
            .any(|s| s.predicates.iter().any(pred_looks_upward))
        {
            return None;
        }
        let mut steps = Vec::with_capacity(path.steps.len());
        let mut anchor_cap = usize::MAX;
        for (i, step) in path.steps.iter().enumerate() {
            // A trailing text() step is evaluated client-side only.
            if step.test == NodeTest::Text && i + 1 == path.steps.len() {
                break;
            }
            let axis = match step.axis {
                Axis::Child => SAxis::Child,
                Axis::Descendant => SAxis::Descendant,
                Axis::DescendantOrSelf => SAxis::DescendantOrSelf,
                Axis::Attribute => SAxis::Attribute,
                Axis::SelfAxis | Axis::Parent | Axis::FollowingSibling => return None,
            };
            let tags = self.translate_test(&step.test, axis)?;
            let mut preds = Vec::with_capacity(step.predicates.len());
            for p in &step.predicates {
                match self.translate_pred(p) {
                    Some(sp) => {
                        if matches!(&sp, SPred::Value { range: Some(_), .. })
                            || witness_falls_short(&sp)
                        {
                            anchor_cap = anchor_cap.min(i);
                        }
                        preds.push(sp);
                    }
                    // Unsupported predicate: server over-approximates,
                    // client must re-verify from this step down.
                    None => anchor_cap = anchor_cap.min(i),
                }
            }
            steps.push(SStep { axis, tags, preds });
        }
        if steps.is_empty() {
            return None;
        }
        let anchor = (steps.len() - 1).min(anchor_cap);
        Some(ServerQuery { steps, anchor })
    }

    /// The DSI-table keys for a node test (possibly both plain + encrypted).
    fn translate_test(&self, test: &NodeTest, axis: SAxis) -> Option<Vec<String>> {
        match test {
            NodeTest::Wildcard => Some(Vec::new()),
            NodeTest::Text => None,
            NodeTest::Name(name) => {
                let key = match axis {
                    SAxis::Attribute => format!("@{name}"),
                    _ => name.clone(),
                };
                let mut tags = Vec::new();
                if self.state.plain_tags.contains(&key) {
                    tags.push(key.clone());
                }
                if self.state.encrypted_tags.contains(&key) {
                    tags.push(self.state.keys.tag_cipher().encrypt(&key));
                }
                if tags.is_empty() {
                    // Unknown tag: send the plaintext form; it will match
                    // nothing, which is the correct (empty) answer.
                    tags.push(key);
                }
                Some(tags)
            }
        }
    }

    fn translate_pred(&self, pred: &Predicate) -> Option<SPred> {
        match pred {
            // Positional and boolean predicates are evaluated client-side
            // only: returning None makes the server over-approximate and
            // caps the anchor at this step, so the client re-checks exactly.
            Predicate::Position(_)
            | Predicate::And(..)
            | Predicate::Or(..)
            | Predicate::Not(..) => None,
            // Substring predicates have no encrypted-domain evaluation
            // (OPESS preserves order, not containment): same client-side
            // treatment as booleans.
            Predicate::Contains(..) | Predicate::StartsWith(..) => None,
            Predicate::Exists(path) => {
                let steps = self.translate_relative(path)?;
                Some(SPred::Exists(steps))
            }
            Predicate::Compare(path, op, lit) => {
                let steps = self.translate_relative(path)?;
                // The predicate's target attribute name.
                let attr_key = attr_key_of(path)?;
                let enc = self.state.opess.get(&attr_key).and_then(|attr| {
                    let v = attr.codec.encode_query(&lit.as_text())?;
                    let range = attr.plan.translate(to_range_op(*op), v);
                    Some((self.state.keys.tag_cipher().encrypt(&attr_key), range))
                });
                let plain = self
                    .state
                    .plain_tags
                    .contains(&attr_key)
                    .then(|| (*op, lit.clone()));
                if enc.is_none() && plain.is_none() {
                    // Attribute unknown anywhere: predicate can never hold.
                    // Encode as an impossible plain comparison.
                    return Some(SPred::Value {
                        path: steps,
                        range: None,
                        plain: Some((CmpOp::Eq, Literal::Str("\u{0}unsatisfiable".into()))),
                    });
                }
                Some(SPred::Value {
                    path: steps,
                    range: enc,
                    plain,
                })
            }
        }
    }

    fn translate_relative(&self, path: &Path) -> Option<Vec<SStep>> {
        let mut out = Vec::with_capacity(path.steps.len());
        for step in &path.steps {
            let axis = match step.axis {
                Axis::Child => SAxis::Child,
                Axis::Descendant => SAxis::Descendant,
                Axis::DescendantOrSelf => SAxis::DescendantOrSelf,
                Axis::Attribute => SAxis::Attribute,
                _ => return None,
            };
            if step.test == NodeTest::Text {
                // Value predicates on text() compare the parent's value:
                // stop the structural path here.
                break;
            }
            let tags = self.translate_test(&step.test, axis)?;
            let mut preds = Vec::new();
            for p in &step.predicates {
                preds.push(self.translate_pred(p)?);
            }
            out.push(SStep { axis, tags, preds });
        }
        Some(out)
    }
}

/// Each block's plaintext as text, in block order; `opened` is `blocks`
/// opened. The plaintexts are checked as UTF-8 once, end to end,
/// and each block's ends as character boundaries, so a block that stops
/// inside a character is not text, whatever the next block starts with.
/// Only a reply that fails is checked again block by block, to name the
/// first bad block.
fn block_texts<'a>(
    blocks: &SealedBlocks,
    opened: &'a OpenedBlocks<'_>,
) -> Result<Vec<&'a str>, CoreError> {
    if let Ok(all) = std::str::from_utf8(opened.as_bytes()) {
        let texts = (0..blocks.len()).map(|i| all.get(opened.span(i)));
        if let Some(texts) = texts.collect() {
            return Ok(texts);
        }
    }
    let text = |bytes| {
        std::str::from_utf8(bytes).map_err(|e| CoreError::Block(format!("block not UTF-8: {e}")))
    };
    opened.iter().map(text).collect()
}

/// The attribute name a comparison predicate targets: `@name` for attribute
/// steps, the final element tag otherwise (self-comparisons have no name).
fn attr_key_of(path: &Path) -> Option<String> {
    let last = path.steps.last()?;
    match (&last.axis, &last.test) {
        (Axis::Attribute, NodeTest::Name(n)) => Some(format!("@{n}")),
        (_, NodeTest::Name(n)) => Some(n.clone()),
        (_, NodeTest::Text) => {
            // [x/text() = v] targets x.
            let prev = path.steps.get(path.steps.len().checked_sub(2)?)?;
            match &prev.test {
                NodeTest::Name(n) => Some(n.clone()),
                _ => None,
            }
        }
        _ => None,
    }
}

/// The server's one witness for a predicate above the anchor is the
/// branch's *last*-step match — its subtree whole, its ancestors bare. A
/// predicate on an earlier branch step (`[a[k]/a]`) has its evidence under
/// one of those bare ancestors, so the client could not re-check it: such a
/// predicate's step must be at or below the anchor, whose region is whole.
fn witness_falls_short(pred: &SPred) -> bool {
    let (SPred::Exists(branch) | SPred::Value { path: branch, .. }) = pred;
    branch
        .split_last()
        .is_some_and(|(_, before)| before.iter().any(|s| !s.preds.is_empty()))
}

fn to_range_op(op: CmpOp) -> RangeOp {
    match op {
        CmpOp::Eq => RangeOp::Eq,
        CmpOp::Ne => RangeOp::Ne,
        CmpOp::Lt => RangeOp::Lt,
        CmpOp::Le => RangeOp::Le,
        CmpOp::Gt => RangeOp::Gt,
        CmpOp::Ge => RangeOp::Ge,
    }
}

/// Does a predicate (recursively) contain a path step that looks upward or
/// sideways (parent / following-sibling)? Self steps are fine: they stay on
/// the node. Such predicates cannot be re-verified on a pruned response.
fn pred_looks_upward(pred: &Predicate) -> bool {
    fn path_upward(p: &Path) -> bool {
        p.steps.iter().any(|s| {
            matches!(s.axis, Axis::Parent | Axis::FollowingSibling)
                || s.predicates.iter().any(pred_looks_upward)
        })
    }
    match pred {
        Predicate::Exists(p) => path_upward(p),
        Predicate::Compare(p, _, _) => path_upward(p),
        Predicate::Contains(p, _) | Predicate::StartsWith(p, _) => path_upward(p),
        Predicate::Position(_) => false,
        Predicate::And(a, b) | Predicate::Or(a, b) => pred_looks_upward(a) || pred_looks_upward(b),
        Predicate::Not(a) => pred_looks_upward(a),
    }
}
