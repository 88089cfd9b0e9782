//! Persistence: serialize the server's hosted state and the client's key
//! material to compact binary files, so a hosted database outlives the
//! process (and so the `exq` CLI can operate on real files).
//!
//! The format is a hand-rolled tagged binary layout (no external codec
//! dependencies in the core): little-endian integers, length-prefixed
//! strings/blobs, and a versioned magic header per artifact.
//!
//! The visible document is stored as the client hands it over, a
//! [`VisibleFragment`]: its text, and each interval keyed by its node's
//! *pre-order position among elements and attributes*, which is invariant
//! under serialize→parse (text nodes are excluded: adjacent text merging
//! could shift their positions, and the server never looks up text
//! intervals). Load reads it with the server's one reader.
//!
//! Versions: the magic's last byte. Version 2 added the trailing checksum;
//! version 3 keys each OPE coin by its tree node's position (see
//! `exq_crypto::ope`), which moves every value-index ciphertext and query
//! range, so a version-2 artifact would load and then answer value
//! predicates wrongly. Server version 4 seals blocks with RFC 8439's
//! ChaCha20-Poly1305 tag (`exq_crypto::block`): nonces and ciphertexts are
//! version 3's, every tag moved, so a version-3 artifact would load and
//! then fail every block it ships. Only the current version loads; any
//! other is a [`CoreError::Persist`] naming it. The paged store's metadata
//! record moved with the server artifact (version 1 to 2, then 3;
//! `crate::store`). The client file holds no tag and stays at version 3.
//!
//! Crash safety: an artifact ends with a CRC32 over everything before it,
//! verified on load — a truncated or bit-flipped file yields a clean
//! [`CoreError::Persist`], never garbage state. Saves go through a temp
//! file + `sync_all` + atomic rename, so a crash mid-save leaves the
//! previous artifact intact.

use crate::client::Client;
use crate::encrypt::{ClientCryptoState, OpessAttr, ServerMetadata, ValueCodec};
use crate::error::CoreError;
use crate::server::Server;
use crate::store::BlockStore;
use crate::visible::VisibleFragment;
use exq_crypto::opess::{ChunkCipher, PlanEntry};
use exq_crypto::{KeyChain, OpessPlan, SealedBlocks, SealedRef};
use exq_index::dsi::Interval;
use exq_index::{BlockTable, DsiIndexTable, Postings, ValueIndex};
use exq_xpath::Path;
use std::collections::{HashMap, HashSet};

const SERVER_MAGIC: &[u8; 6] = b"EXQSV4";
const CLIENT_MAGIC: &[u8; 6] = b"EXQCL3";

/// Refuses `data` when it starts with another version of `magic` (its last
/// byte). Every format this guards holds keys or what was encrypted under
/// them, and a version bump moved that, so the remedy is always a fresh
/// encryption.
pub(crate) fn refuse_other_version(
    data: &[u8],
    magic: &[u8; 6],
    what: &str,
) -> Result<(), CoreError> {
    match data.get(..6) {
        Some(head) if head[..5] == magic[..5] && head[5] != magic[5] => {
            Err(CoreError::Persist(format!(
                "{what} is version {}, this build reads version {} only: \
                 encrypt the database again",
                head[5].escape_ascii(),
                magic[5].escape_ascii()
            )))
        }
        _ => Ok(()),
    }
}

/// Validates the artifact's magic and trailing checksum — a CRC32 over
/// everything before it — returning the body between the two.
pub(crate) fn checked_body<'a>(
    data: &'a [u8],
    magic: &[u8; 6],
    what: &str,
) -> Result<&'a [u8], CoreError> {
    let head = data.get(..6).ok_or_else(|| {
        CoreError::Persist(format!("not a {what} state file: shorter than its magic"))
    })?;
    if head != magic {
        return Err(CoreError::Persist(format!("not a {what} state file")));
    }
    let split = data
        .len()
        .checked_sub(4)
        .filter(|&s| s >= 6)
        .ok_or_else(|| CoreError::Persist(format!("{what} state file truncated")))?;
    let (payload, check) = data.split_at(split);
    let stored = u32::from_le_bytes([check[0], check[1], check[2], check[3]]);
    let computed = crate::codec::crc32(&[payload]);
    if stored != computed {
        return Err(CoreError::Persist(format!(
            "{what} state file corrupted: checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    Ok(&payload[6..])
}

/// Appends the trailing CRC32 to a serialized artifact.
pub(crate) fn seal_checksum(mut buf: Vec<u8>) -> Vec<u8> {
    let crc = crate::codec::crc32(&[&buf]);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Crash-safe write: temp file in the target's directory, `sync_all`, then
/// atomic rename over the destination. A crash at any point leaves either
/// the old artifact or the new one, never a torn mix.
pub(crate) fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> Result<(), CoreError> {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_owned());
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(CoreError::Persist(e.to_string()));
    }
    Ok(())
}

// ---------------------------------------------------------------- codec --

/// Minimal byte writer (shared with the paged-store metadata codec).
#[derive(Default)]
pub(crate) struct W {
    pub(crate) buf: Vec<u8>,
}

impl W {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
    pub(crate) fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Minimal byte reader (shared with the paged-store metadata codec).
pub(crate) struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        R { buf, pos: 0 }
    }
    pub(crate) fn err(msg: &str) -> CoreError {
        CoreError::Persist(msg.to_owned())
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Self::err("truncated input"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn u128(&mut self) -> Result<u128, CoreError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, CoreError> {
        let n = self.u64()? as usize;
        if n > self.buf.len() {
            return Err(Self::err("length prefix exceeds input"));
        }
        Ok(self.take(n)?.to_vec())
    }
    /// Reads an element count, bounding it by the remaining input (each
    /// element occupies at least `min_entry_size` bytes) so corrupted
    /// prefixes cannot trigger huge allocations.
    pub(crate) fn count(&mut self, min_entry_size: usize) -> Result<usize, CoreError> {
        let n = self.u64()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(min_entry_size.max(1))
            .is_none_or(|need| need > remaining)
        {
            return Err(Self::err("count prefix exceeds input"));
        }
        Ok(n)
    }
    pub(crate) fn string(&mut self) -> Result<String, CoreError> {
        String::from_utf8(self.bytes()?).map_err(|_| Self::err("non-UTF-8 string"))
    }
    pub(crate) fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

pub(crate) fn interval(w: &mut W, iv: Interval) {
    w.u64(iv.lo);
    w.u64(iv.hi);
}

pub(crate) fn read_interval(r: &mut R) -> Result<Interval, CoreError> {
    let lo = r.u64()?;
    let hi = r.u64()?;
    if lo >= hi {
        return Err(R::err("degenerate interval"));
    }
    Ok(Interval::new(lo, hi))
}

// ------------------------------------------------------ server sections --
//
// The hosted state is written in two layouts: the single-file artifact
// (`SERVER_MAGIC`, below) and the paged store's metadata record (`EXQPM3`,
// `crate::store`). They differ in where the posting lists and the sealed
// blocks go; the sections here are the ones both carry, byte for byte, and
// each has this one writer and this one reader.

/// The visible document, then its intervals keyed by element/attribute
/// pre-order position.
pub(crate) fn write_visible(w: &mut W, server: &Server) {
    w.string(server.visible_xml());
    let positions = server.interval_positions();
    w.u64(positions.len() as u64);
    for (pos, iv) in positions {
        w.u64(pos as u64);
        interval(w, iv);
    }
}

/// Reads [`write_visible`]'s section as written; the server's reader
/// checks it.
pub(crate) fn read_visible(r: &mut R) -> Result<VisibleFragment, CoreError> {
    let xml = r.string()?;
    let n = r.count(24)?;
    let mut intervals = Vec::with_capacity(n);
    for _ in 0..n {
        let ordinal = u32::try_from(r.u64()?)
            .map_err(|_| R::err("visible doc: an ordinal names no element or attribute"))?;
        intervals.push((ordinal, read_interval(r)?));
    }
    Ok(VisibleFragment { xml, intervals })
}

/// The DSI table's posting lists in persisted order. The backing map
/// iterates in per-instance hash order; sorting by tag makes logically
/// identical servers serialize byte-identically, and index `k` here *is*
/// posting record `(2<<32)|k` of a paged store.
pub(crate) fn sorted_postings(server: &Server) -> Vec<(&str, Postings<'_>)> {
    let mut entries: Vec<(&str, Postings<'_>)> = server.metadata().dsi_table.iter().collect();
    entries.sort_by_key(|&(tag, _)| tag);
    entries
}

/// The block table as persisted: `(representative, block id)` pairs.
pub(crate) type BlockPairs = Vec<(Interval, u32)>;

/// The server metadata over its persisted entries: a
/// [`CoreError::Persist`] where the tables refuse them.
pub(crate) fn metadata_from<T: Into<String>>(
    dsi_entries: Vec<(T, Vec<Interval>)>,
    blocks: BlockPairs,
    value_indexes: HashMap<String, ValueIndex>,
) -> Result<ServerMetadata, CoreError> {
    let refuse = |why: &str| CoreError::Persist(why.to_owned());
    let dsi_table = DsiIndexTable::from_entries(dsi_entries)
        .ok_or_else(|| refuse("DSI index table: two intervals overlap"))?;
    let block_table = BlockTable::new(&dsi_table, blocks)
        .ok_or_else(|| refuse("block table: a representative is unlisted or in another block"))?;
    Ok(ServerMetadata {
        dsi_table,
        block_table,
        value_indexes,
    })
}

/// The block table, then the value indexes (attributes sorted).
pub(crate) fn write_tables(w: &mut W, meta: &ServerMetadata) {
    let blocks: Vec<(Interval, u32)> = meta.block_table.iter(&meta.dsi_table).collect();
    w.u64(blocks.len() as u64);
    for (iv, id) in blocks {
        interval(w, iv);
        w.u32(id);
    }
    let vi = &meta.value_indexes;
    w.u64(vi.len() as u64);
    let mut attrs: Vec<&String> = vi.keys().collect();
    attrs.sort();
    for attr in attrs {
        w.string(attr);
        w.u64(vi[attr].len() as u64);
        for (k, v) in vi[attr].iter() {
            w.u128(k);
            w.u32(v);
        }
    }
}

/// Reads [`write_tables`]'s section: the block table's pairs, which
/// [`metadata_from`] builds over the DSI table, and the value indexes.
pub(crate) fn read_tables(
    r: &mut R,
) -> Result<(BlockPairs, HashMap<String, ValueIndex>), CoreError> {
    let n = r.count(20)?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        let iv = read_interval(r)?;
        blocks.push((iv, r.u32()?));
    }
    let mut value_indexes = HashMap::new();
    for _ in 0..r.count(16)? {
        let attr = r.string()?;
        let n = r.count(20)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push((r.u128()?, r.u32()?));
        }
        // Written in key order by `write_tables`: kept as read, and
        // refused whole if the order is broken.
        let index = ValueIndex::from_sorted(entries).ok_or_else(|| {
            CoreError::Persist(format!("value index `{attr}` is out of key order"))
        })?;
        value_indexes.insert(attr, index);
    }
    Ok((blocks, value_indexes))
}

/// The tombstoned block ids, ascending.
pub(crate) fn write_dead(w: &mut W, server: &Server) {
    let dead = server.dead_block_ids();
    w.u64(dead.len() as u64);
    for id in dead {
        w.u32(id);
    }
}

/// Reads [`write_dead`]'s section.
pub(crate) fn read_dead(r: &mut R) -> Result<HashSet<u32>, CoreError> {
    let k = r.count(4)?;
    let mut dead = HashSet::with_capacity(k);
    for _ in 0..k {
        dead.insert(r.u32()?);
    }
    Ok(dead)
}

// ---------------------------------------------------------------- server --

impl Server {
    /// Serializes the full hosted state.
    ///
    /// Fallible because a paged server reads its sealed blocks back through
    /// the store; an all-in-RAM server cannot actually fail here.
    pub fn save_bytes(&self) -> Result<Vec<u8>, CoreError> {
        let mut w = W::default();
        w.buf.extend_from_slice(SERVER_MAGIC);
        write_visible(&mut w, self);

        let dsi = sorted_postings(self);
        w.u64(dsi.len() as u64);
        for (tag, ivs) in dsi {
            w.string(tag);
            w.u64(ivs.len() as u64);
            for &iv in ivs.iter() {
                interval(&mut w, iv);
            }
        }
        write_tables(&mut w, self.metadata());

        // Blocks (including tombstoned slots: ids are positional).
        let blocks = self.collect_blocks()?;
        w.u64(blocks.len() as u64);
        for b in &blocks {
            w.u32(b.id);
            w.buf.extend_from_slice(&b.nonce);
            w.bytes(b.ciphertext);
            w.buf.extend_from_slice(&b.tag);
        }
        write_dead(&mut w, self);
        Ok(seal_checksum(w.buf))
    }

    /// Restores a server from [`save_bytes`](Self::save_bytes) output.
    pub fn load_bytes(data: &[u8]) -> Result<Server, CoreError> {
        refuse_other_version(data, SERVER_MAGIC, "server state file")?;
        let mut r = R::new(checked_body(data, SERVER_MAGIC, "server")?);
        let visible = read_visible(&mut r)?;

        let mut dsi_entries = Vec::new();
        for _ in 0..r.count(16)? {
            let tag = r.string()?;
            let list = (0..r.count(16)?).map(|_| read_interval(&mut r));
            dsi_entries.push((tag, list.collect::<Result<_, _>>()?));
        }
        let (blocks, value_indexes) = read_tables(&mut r)?;

        let k = r.count(40)?;
        let mut sealed = SealedBlocks::with_capacity(k, 0);
        for _ in 0..k {
            sealed.push(SealedRef {
                id: r.u32()?,
                nonce: r.take(12)?.try_into().unwrap(),
                ciphertext: &r.bytes()?,
                tag: r.take(16)?.try_into().unwrap(),
            });
        }
        let dead = read_dead(&mut r)?;
        if !r.finished() {
            return Err(R::err("trailing bytes"));
        }

        Server::from_store_parts(
            &visible,
            metadata_from(dsi_entries, blocks, value_indexes)?,
            BlockStore::Resident(sealed),
            dead,
        )
    }

    /// Saves to a file (crash-safe: temp file + fsync + atomic rename).
    pub fn save(&self, path: &std::path::Path) -> Result<(), CoreError> {
        atomic_write(path, &self.save_bytes()?)
    }

    /// Loads from a file.
    pub fn load(path: &std::path::Path) -> Result<Server, CoreError> {
        let data = std::fs::read(path).map_err(|e| CoreError::Persist(e.to_string()))?;
        Server::load_bytes(&data)
    }
}

// ---------------------------------------------------------------- client --

impl Client {
    /// Serializes the client's state (keys + vocabularies + OPESS plans).
    pub fn save_bytes(&self) -> Vec<u8> {
        let s = self.state();
        let mut w = W::default();
        w.buf.extend_from_slice(CLIENT_MAGIC);
        w.buf.extend_from_slice(&s.keys.master_key());

        string_set(&mut w, &s.encrypted_tags);
        string_set(&mut w, &s.plain_tags);

        let mut attrs: Vec<&String> = s.opess.keys().collect();
        attrs.sort();
        w.u64(attrs.len() as u64);
        for attr in attrs {
            let oa = &s.opess[attr];
            w.string(attr);
            match &oa.codec {
                ValueCodec::Numeric => w.u8(0),
                ValueCodec::Categorical(values) => {
                    w.u8(1);
                    w.u64(values.len() as u64);
                    for v in values {
                        w.string(v);
                    }
                }
            }
            let plan = &oa.plan;
            w.u32(plan.m());
            w.f64(plan.delta());
            w.u64(plan.weight_prefix().len() as u64);
            for &wp in plan.weight_prefix() {
                w.f64(wp);
            }
            w.u64(plan.entries().len() as u64);
            for e in plan.entries() {
                w.f64(e.plaintext);
                w.u32(e.count);
                w.u32(e.scale);
                w.u64(e.chunks.len() as u64);
                for c in &e.chunks {
                    w.u128(c.ciphertext);
                    w.u32(c.occurrences);
                }
            }
        }

        w.u64(s.scheme_paths.len() as u64);
        for p in &s.scheme_paths {
            w.string(&p.to_string());
        }
        w.u8(u8::from(s.lift_to_parent));
        seal_checksum(w.buf)
    }

    /// Restores a client from [`save_bytes`](Self::save_bytes) output.
    pub fn load_bytes(data: &[u8]) -> Result<Client, CoreError> {
        refuse_other_version(data, CLIENT_MAGIC, "client state file")?;
        let body = checked_body(data, CLIENT_MAGIC, "client")?;
        let mut r = R::new(body);
        let master: [u8; 32] = r.take(32)?.try_into().unwrap();
        let keys = KeyChain::new(master);

        let encrypted_tags = read_string_set(&mut r)?;
        let plain_tags = read_string_set(&mut r)?;

        let n = r.count(16)?;
        let mut opess = HashMap::with_capacity(n);
        for _ in 0..n {
            let attr = r.string()?;
            let codec = match r.u8()? {
                0 => ValueCodec::Numeric,
                1 => {
                    let k = r.count(8)?;
                    let mut values = Vec::with_capacity(k);
                    for _ in 0..k {
                        values.push(r.string()?);
                    }
                    ValueCodec::Categorical(values)
                }
                _ => return Err(R::err("unknown codec tag")),
            };
            let m = r.u32()?;
            let delta = r.f64()?;
            let k = r.count(8)?;
            let mut weights = Vec::with_capacity(k);
            for _ in 0..k {
                weights.push(r.f64()?);
            }
            let k = r.count(24)?;
            let mut entries = Vec::with_capacity(k);
            for _ in 0..k {
                let plaintext = r.f64()?;
                let count = r.u32()?;
                let scale = r.u32()?;
                let cn = r.count(20)?;
                let mut chunks = Vec::with_capacity(cn);
                for _ in 0..cn {
                    let ciphertext = r.u128()?;
                    let occurrences = r.u32()?;
                    chunks.push(ChunkCipher {
                        ciphertext,
                        occurrences,
                    });
                }
                entries.push(PlanEntry {
                    plaintext,
                    count,
                    chunks,
                    scale,
                });
            }
            let plan = OpessPlan::from_parts(keys.ope_key(&attr), m, weights, delta, entries);
            opess.insert(attr, OpessAttr { plan, codec });
        }

        let k = r.count(8)?;
        let mut scheme_paths = Vec::with_capacity(k);
        for _ in 0..k {
            let p = r.string()?;
            scheme_paths.push(Path::parse(&p).map_err(|e| CoreError::Persist(e.to_string()))?);
        }
        let lift_to_parent = r.u8()? != 0;
        if !r.finished() {
            return Err(R::err("trailing bytes"));
        }

        Ok(Client::new(ClientCryptoState {
            keys,
            encrypted_tags,
            plain_tags,
            opess,
            scheme_paths,
            lift_to_parent,
        }))
    }

    /// Saves to a file (crash-safe: temp file + fsync + atomic rename).
    pub fn save(&self, path: &std::path::Path) -> Result<(), CoreError> {
        atomic_write(path, &self.save_bytes())
    }

    /// Loads from a file.
    pub fn load(path: &std::path::Path) -> Result<Client, CoreError> {
        let data = std::fs::read(path).map_err(|e| CoreError::Persist(e.to_string()))?;
        Client::load_bytes(&data)
    }
}

fn string_set(w: &mut W, set: &HashSet<String>) {
    let mut v: Vec<&String> = set.iter().collect();
    v.sort();
    w.u64(v.len() as u64);
    for s in v {
        w.string(s);
    }
}

fn read_string_set(r: &mut R) -> Result<HashSet<String>, CoreError> {
    let n = r.count(8)?;
    let mut out = HashSet::with_capacity(n);
    for _ in 0..n {
        out.insert(r.string()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::SecurityConstraint;
    use crate::scheme::SchemeKind;
    use crate::system::{OutsourceConfig, Outsourcer};
    use exq_xml::Document;

    /// Three patients, their ages encrypted.
    fn hosted() -> Server {
        let doc = Document::parse(
            "<h><p><n>a</n><age>30</age></p><p><n>b</n><age>41</age></p>\
             <p><n>c</n><age>52</age></p></h>",
        )
        .unwrap();
        let cs = [SecurityConstraint::parse("//age").unwrap()];
        Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, &cs, SchemeKind::Opt, 5)
            .unwrap()
            .split()
            .1
    }

    fn le(iv: Interval) -> Vec<u8> {
        [iv.lo.to_le_bytes(), iv.hi.to_le_bytes()].concat()
    }

    /// `bytes` with its last occurrence of `from` (which it must hold)
    /// replaced by `to`, checksum resealed, then loaded: a persist error,
    /// whose message is returned.
    fn load_edited(bytes: &[u8], from: &[u8], to: &[u8]) -> String {
        let at = bytes
            .windows(from.len())
            .rposition(|w| w == from)
            .expect("the bytes in the artifact");
        let mut edited = bytes[..bytes.len() - 4].to_vec();
        edited[at..at + from.len()].copy_from_slice(to);
        match Server::load_bytes(&seal_checksum(edited)) {
            Err(CoreError::Persist(msg)) => msg,
            other => panic!("expected a persist error, got {other:?}"),
        }
    }

    /// Two DSI intervals that overlap without nesting, in an artifact whose
    /// checksum is valid, are a typed error: the joins assume they nest or
    /// are disjoint.
    #[test]
    fn overlapping_dsi_intervals_are_refused() {
        let server = hosted();
        let bytes = server.save_bytes().unwrap();
        assert!(Server::load_bytes(&bytes).is_ok());
        // The first two patients, adjacent in the `p` list: only there do
        // their intervals follow one another with nothing between.
        let p: Vec<Interval> = server
            .metadata()
            .dsi_table
            .lookup("p")
            .iter()
            .copied()
            .collect();
        let (a, b) = (p[0], p[1]);
        assert!(a.hi < b.lo);
        let into_b = Interval::new(a.lo, b.lo + (b.hi - b.lo) / 2);
        let msg = load_edited(
            &bytes,
            &[le(a), le(b)].concat(),
            &[le(into_b), le(b)].concat(),
        );
        assert!(msg.contains("overlap"), "{msg}");
    }

    /// A block representative that no tag lists, in an artifact whose
    /// checksum is valid, is a typed error: a block covers the positions
    /// of its representative's subtree, and this one has none.
    #[test]
    fn unlisted_block_representative_is_refused() {
        let server = hosted();
        let bytes = server.save_bytes().unwrap();
        let meta = server.metadata();
        let (rep, id) = meta.block_table.iter(&meta.dsi_table).next().unwrap();
        let unlisted = Interval::new(rep.lo, rep.hi - 1);
        assert!(meta.dsi_table.universe().find(&unlisted).is_none());
        // The block table is the last section holding the representative.
        let msg = load_edited(
            &bytes,
            &[le(rep), id.to_le_bytes().to_vec()].concat(),
            &[le(unlisted), id.to_le_bytes().to_vec()].concat(),
        );
        assert!(msg.contains("representative"), "{msg}");
    }

    /// Three patients, their ages encrypted and each name keyed by `k`:
    /// the visible document's last node is an attribute.
    fn keyed() -> Server {
        let doc = Document::parse(
            "<h><p><age>30</age><n k=\"1\">a</n></p><p><age>41</age><n k=\"2\">b</n></p>\
             <p><age>52</age><n k=\"3\">c</n></p></h>",
        )
        .unwrap();
        let cs = [SecurityConstraint::parse("//age").unwrap()];
        Outsourcer::new(OutsourceConfig::default())
            .outsource(&doc, &cs, SchemeKind::Opt, 5)
            .unwrap()
            .split()
            .1
    }

    /// A visible section's pair as written.
    fn pair((ordinal, iv): (u32, Interval)) -> Vec<u8> {
        [(ordinal as u64).to_le_bytes().to_vec(), le(iv)].concat()
    }

    /// `bytes` with the visible section's pairs `from` (consecutive, as
    /// written) replaced by `to`, its pair count set to match, the
    /// checksum resealed, then loaded: a persist error, whose message is
    /// returned.
    fn load_with_pairs(
        server: &Server,
        from: &[(u32, Interval)],
        to: &[(u32, Interval)],
    ) -> String {
        let bytes = server.save_bytes().unwrap();
        assert!(Server::load_bytes(&bytes).is_ok());
        let count_at = 6 + 8 + server.visible_xml().len();
        let pairs = server.interval_positions();
        let (from, to) = (from.iter().copied(), to.iter().copied());
        let (from, to): (Vec<u8>, Vec<u8>) =
            (from.flat_map(pair).collect(), to.flat_map(pair).collect());
        let at = bytes.windows(from.len()).position(|w| w == from).unwrap();
        assert!(at > count_at && at < count_at + 8 + 24 * pairs.len());
        let count = pairs.len() + to.len() / 24 - from.len() / 24;
        let edited = [
            &bytes[..count_at],
            &(count as u64).to_le_bytes(),
            &bytes[count_at + 8..at],
            &to,
            &bytes[at + from.len()..bytes.len() - 4],
        ]
        .concat();
        match Server::load_bytes(&seal_checksum(edited)) {
            Err(CoreError::Persist(msg)) => msg,
            other => panic!("expected a persist error, got {other:?}"),
        }
    }

    /// A pair whose ordinal is past the visible document's last element or
    /// attribute is refused; it would leave that attribute unplaced.
    #[test]
    fn an_ordinal_naming_no_node_is_refused() {
        let server = keyed();
        let last = *server.interval_positions().last().unwrap();
        let msg = load_with_pairs(&server, &[last], &[(last.0 + 5, last.1)]);
        assert!(msg.contains("names no element or attribute"), "{msg}");
    }

    /// Two pairs written out of ordinal order are refused.
    #[test]
    fn ordinals_out_of_order_are_refused() {
        let server = keyed();
        let pairs = server.interval_positions();
        let (a, b) = (pairs[1], pairs[2]);
        let msg = load_with_pairs(&server, &[a, b], &[b, a]);
        assert!(msg.contains("do not ascend"), "{msg}");
    }

    /// A pair whose interval the DSI table does not list is refused; it
    /// would leave its attribute out of every answer.
    #[test]
    fn an_interval_outside_the_universe_is_refused() {
        let server = keyed();
        let u = server.metadata().dsi_table.universe();
        let pairs = server.interval_positions();
        let (o, iv) = pairs[pairs.len() - 1];
        let stray = Interval::new(iv.lo, iv.hi - 1);
        assert!(u.find(&stray).is_none());
        let msg = load_with_pairs(&server, &[(o, iv)], &[(o, stray)]);
        assert!(msg.contains("not in the index"), "{msg}");
    }

    /// An attribute's pair left out, so its position has no visible node
    /// and no block covers it, is refused.
    #[test]
    fn a_position_neither_visible_nor_in_a_block_is_refused() {
        let server = keyed();
        let last = *server.interval_positions().last().unwrap();
        let msg = load_with_pairs(&server, &[last], &[]);
        assert!(msg.contains("neither visible nor inside a block"), "{msg}");
    }

    /// A value index whose entries are out of key order, in an artifact
    /// whose checksum is valid, is a typed error naming the index.
    #[test]
    fn value_index_out_of_key_order_is_refused() {
        let server = hosted();
        let bytes = server.save_bytes().unwrap();
        assert!(Server::load_bytes(&bytes).is_ok());

        // Two neighbouring entries with distinct keys, as written.
        let (attr, index) = server.metadata().value_indexes.iter().next().unwrap();
        let entries: Vec<(u128, u32)> = index.iter().collect();
        let at = (1..entries.len())
            .find(|&i| entries[i - 1].0 < entries[i].0)
            .expect("two distinct keys");
        let record = |(k, v): (u128, u32)| [&k.to_le_bytes()[..], &v.to_le_bytes()].concat();
        let (first, second) = (record(entries[at - 1]), record(entries[at]));
        let pair = [first.as_slice(), &second].concat();
        let start = bytes
            .windows(pair.len())
            .position(|w| w == pair)
            .expect("the entries in the artifact");

        let mut swapped = bytes[..bytes.len() - 4].to_vec();
        swapped[start..start + pair.len()].copy_from_slice(&[second, first].concat());
        let swapped = seal_checksum(swapped);
        match Server::load_bytes(&swapped) {
            Err(CoreError::Persist(msg)) => {
                assert!(
                    msg.contains("out of key order") && msg.contains(attr.as_str()),
                    "{msg}"
                )
            }
            other => panic!("expected a persist error, got {other:?}"),
        }
    }
}
