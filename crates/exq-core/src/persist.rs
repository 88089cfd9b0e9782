//! Persistence: the server's hosted state and the client's key material as
//! files, so a hosted database outlives the process (and so the `exq` CLI
//! can operate on real files).
//!
//! A file is a versioned magic, then a body in the one binary codec
//! (`crate::codec`'s `Enc`/`Dec`: messages, WAL records and files), then,
//! for the artifact, the client file and the manifest, a CRC32 over
//! everything before it.
//!
//! The hosted state is one image (`write_image`, `read_image`): the
//! visible document as the client hands it over, a [`VisibleFragment`]
//! (its text and each block's offset in it);
//! the DSI table's tags in posting-record order; the block table's pairs;
//! the value indexes; the block count and payload bytes; the tombstoned
//! block ids. It sits in two containers, which differ only in where the
//! posting lists and the sealed blocks go:
//! - the artifact, `EXQSV7 | image | posting lists in tag order | sealed
//!   blocks as a reply's table | crc`;
//! - the paged store's metadata record (`crate::store`), `EXQPM6 | image`,
//!   beside one record per posting list and per block.
//!
//! Versions: the magic's last byte. Version 2 added the trailing checksum;
//! version 3 keys each OPE coin by its tree node's position (see
//! `exq_crypto::ope`), which moves every value-index ciphertext and query
//! range; server version 4 seals blocks with RFC 8439's ChaCha20-Poly1305
//! tag (`exq_crypto::block`). Server version 5, paged metadata version 4,
//! client version 4 and manifest version 2 write their fields in the one
//! codec (varints where they were fixed-width) and the artifact's sections
//! as the one image; no key, nonce, ciphertext or tag moved. Server version
//! 6 and paged metadata version 5 hold a visible text with its blocks cut
//! out and each block's byte offset in it, where the text held an element
//! naming each block. Server version 7 and paged metadata version 6 keep
//! the visible document as its text and its offsets alone; the versions
//! before also held each element's and attribute's interval and each
//! block's representative. Only the current version loads; any other is a
//! [`CoreError::Persist`] naming it.
//!
//! Crash safety: a truncated or bit-flipped file yields a clean
//! [`CoreError::Persist`], never garbage state. Saves go through a temp
//! file + `sync_all` + atomic rename, so a crash mid-save leaves the
//! previous artifact intact.

use crate::client::Client;
use crate::codec::{
    decode_block_pairs, decode_value_entry, encode_block_pairs, encode_value_entry, encode_visible,
    Dec, Enc, WireCodec, MIN_VALUE_ENTRY_LEN,
};
use crate::encrypt::{ClientCryptoState, OpessAttr, ServerMetadata, ValueCodec};
use crate::error::CoreError;
use crate::server::Server;
use crate::store::BlockStore;
use crate::visible::VisibleFragment;
use exq_crypto::opess::{ChunkCipher, PlanEntry};
use exq_crypto::{KeyChain, OpessPlan, SealedBlocks};
use exq_index::dsi::Interval;
use exq_index::{BlockTable, DsiIndexTable, Postings, ValueIndex};
use exq_xpath::Path;
use std::collections::{HashMap, HashSet};

const SERVER_MAGIC: &[u8; 6] = b"EXQSV7";
const CLIENT_MAGIC: &[u8; 6] = b"EXQCL4";

/// The remedy for a file that holds keys or what was encrypted under them:
/// every version bump moved that or the layout, so the database is set up
/// afresh.
pub(crate) const ENCRYPT_AGAIN: &str = "encrypt the database again";

/// Refuses `data` when it starts with another version of `magic` (its last
/// byte), naming both versions and `remedy`.
pub(crate) fn refuse_other_version(
    data: &[u8],
    magic: &[u8; 6],
    what: &str,
    remedy: &str,
) -> Result<(), CoreError> {
    match data.get(..6) {
        Some(head) if head[..5] == magic[..5] && head[5] != magic[5] => {
            Err(CoreError::Persist(format!(
                "{what} is version {}, this build reads version {} only: {remedy}",
                head[5].escape_ascii(),
                magic[5].escape_ascii()
            )))
        }
        _ => Ok(()),
    }
}

/// Decodes a file's `body` with `read`, which must take all of it. The
/// codec's errors are a [`CoreError::Persist`] naming the file.
pub(crate) fn decode_body<T>(
    what: &str,
    body: &[u8],
    read: impl FnOnce(&mut Dec<'_>) -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    let mut dec = Dec::new(body);
    let read = read(&mut dec).and_then(|v| {
        dec.finish()?;
        Ok(v)
    });
    read.map_err(|e| match e {
        CoreError::Codec(why) => CoreError::Persist(format!("{what}: {why}")),
        e => e,
    })
}

/// Reads a checksummed file: refuses another version of `magic` (naming
/// it and `remedy`), checks the magic and the trailing CRC32 over
/// everything before it, and decodes the body between the two with
/// [`decode_body`].
pub(crate) fn read_file<T>(
    data: &[u8],
    magic: &[u8; 6],
    what: &str,
    remedy: &str,
    read: impl FnOnce(&mut Dec<'_>) -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    refuse_other_version(data, magic, what, remedy)?;
    let head = data
        .get(..6)
        .ok_or_else(|| CoreError::Persist(format!("not a {what}: shorter than its magic")))?;
    if head != magic {
        return Err(CoreError::Persist(format!("not a {what}")));
    }
    let split = data
        .len()
        .checked_sub(4)
        .filter(|&s| s >= 6)
        .ok_or_else(|| CoreError::Persist(format!("{what} truncated")))?;
    let (payload, check) = data.split_at(split);
    let stored = u32::from_le_bytes([check[0], check[1], check[2], check[3]]);
    let computed = crate::codec::crc32(&[payload]);
    if stored != computed {
        return Err(CoreError::Persist(format!(
            "{what} corrupted: checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    decode_body(what, &payload[6..], read)
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

// ----------------------------------------------------------------- image --

/// The DSI table's posting lists in persisted order. The backing map
/// iterates in per-instance hash order; sorting by tag makes logically
/// identical servers serialize byte-identically, and index `k` here *is*
/// posting record `(2<<32)|k` of a paged store.
pub(crate) fn sorted_postings(server: &Server) -> Vec<(&str, Postings<'_>)> {
    let mut entries: Vec<(&str, Postings<'_>)> = server.metadata().dsi_table.iter().collect();
    entries.sort_by_key(|&(tag, _)| tag);
    entries
}

/// Writes the server's image (see the module docs) and returns its posting
/// lists in the image's tag order, which each container stores its own way.
pub(crate) fn write_image<'s>(server: &'s Server, enc: &mut Enc) -> Vec<(&'s str, Postings<'s>)> {
    encode_visible(server.visible_xml(), &server.block_offsets(), enc);
    let lists = sorted_postings(server);
    enc.usize(lists.len());
    for (tag, _) in &lists {
        enc.str(tag);
    }
    let meta = server.metadata();
    let blocks: Vec<(Interval, u32)> = meta.block_table.iter(&meta.dsi_table).collect();
    encode_block_pairs(&blocks, enc);
    let mut attrs: Vec<(&String, &ValueIndex)> = meta.value_indexes.iter().collect();
    attrs.sort_by_key(|&(attr, _)| attr);
    enc.usize(attrs.len());
    for (attr, index) in attrs {
        enc.str(attr);
        enc.usize(index.len());
        for (cipher, id) in index.iter() {
            encode_value_entry(cipher, id, enc);
        }
    }
    enc.varint(server.block_count() as u64);
    enc.varint(server.payload_bytes());
    let dead = server.dead_block_ids();
    enc.usize(dead.len());
    for id in dead {
        enc.varint(id as u64);
    }
    lists
}

/// The hosted state but its posting lists and sealed blocks, as read.
pub(crate) struct MetaImage {
    pub(crate) visible: VisibleFragment,
    /// Tag names in posting-record order.
    pub(crate) tags: Vec<String>,
    blocks: Vec<(Interval, u32)>,
    value_indexes: HashMap<String, ValueIndex>,
    pub(crate) block_count: u32,
    pub(crate) payload_bytes: u64,
    dead: HashSet<u32>,
}

/// The one reader of [`write_image`]'s section.
pub(crate) fn read_image(dec: &mut Dec<'_>) -> Result<MetaImage, CoreError> {
    let visible = VisibleFragment::decode_from(dec)?;
    let tags = (0..dec.count(1)?)
        .map(|_| dec.str())
        .collect::<Result<_, _>>()?;
    let blocks = decode_block_pairs(dec)?;
    let mut value_indexes = HashMap::new();
    for _ in 0..dec.count(2)? {
        let attr = dec.str()?;
        let n = dec.count(MIN_VALUE_ENTRY_LEN)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(decode_value_entry(dec)?);
        }
        // Written in key order: kept as read, and refused whole if the
        // order is broken.
        let index = ValueIndex::from_sorted(entries).ok_or_else(|| {
            CoreError::Persist(format!("value index `{attr}` is out of key order"))
        })?;
        value_indexes.insert(attr, index);
    }
    Ok(MetaImage {
        visible,
        tags,
        blocks,
        value_indexes,
        block_count: dec.u32()?,
        payload_bytes: dec.varint()?,
        dead: (0..dec.count(1)?)
            .map(|_| dec.u32())
            .collect::<Result<_, _>>()?,
    })
}

impl MetaImage {
    /// The server over this image, its posting lists (in tag order) and
    /// its blocks: a [`CoreError::Persist`] where the tables or the
    /// visible fragment's reader refuse them.
    pub(crate) fn into_server(
        self,
        lists: Vec<Vec<Interval>>,
        blocks: BlockStore,
    ) -> Result<Server, CoreError> {
        let refuse = |why: &str| CoreError::Persist(why.to_owned());
        let dsi_table = DsiIndexTable::from_entries(self.tags.into_iter().zip(lists))
            .ok_or_else(|| refuse("DSI index table: two intervals overlap"))?;
        let block_table = BlockTable::new(&dsi_table, self.blocks).ok_or_else(|| {
            refuse("block table: a representative is unlisted or in another block")
        })?;
        let metadata = ServerMetadata {
            dsi_table,
            block_table,
            value_indexes: self.value_indexes,
        };
        Server::from_store_parts(&self.visible, metadata, blocks, self.dead)
    }
}

// ---------------------------------------------------------------- server --

impl Server {
    /// Serializes the full hosted state.
    ///
    /// Fallible because a paged server reads its sealed blocks back through
    /// the store; an all-in-RAM server cannot actually fail here.
    pub fn save_bytes(&self) -> Result<Vec<u8>, CoreError> {
        let mut enc = Enc::new();
        enc.raw(SERVER_MAGIC);
        for (_, list) in write_image(self, &mut enc) {
            enc.usize(list.len());
            for iv in list.iter() {
                iv.encode_into(&mut enc);
            }
        }
        // Tombstoned slots included: ids are positional.
        self.collect_blocks()?.encode_into(&mut enc);
        Ok(seal_checksum(enc.into_bytes()))
    }

    /// Restores a server from [`save_bytes`](Self::save_bytes) output.
    pub fn load_bytes(data: &[u8]) -> Result<Server, CoreError> {
        let what = "server state file";
        let (image, lists, blocks) = read_file(data, SERVER_MAGIC, what, ENCRYPT_AGAIN, |dec| {
            let image = read_image(dec)?;
            let mut lists = Vec::with_capacity(image.tags.len());
            for _ in &image.tags {
                let list = (0..dec.count(2)?).map(|_| Interval::decode_from(dec));
                lists.push(list.collect::<Result<_, _>>()?);
            }
            Ok((image, lists, SealedBlocks::decode_from(dec)?))
        })?;
        if blocks.iter().enumerate().any(|(i, b)| b.id as usize != i) {
            return Err(CoreError::Persist(format!(
                "{what}: block ids are not positional"
            )));
        }
        let blocks = BlockStore::Resident(blocks);
        if blocks.len() != image.block_count as usize
            || blocks.payload_bytes() != image.payload_bytes
        {
            return Err(CoreError::Persist(format!(
                "{what}: the image's block count or bytes are not its blocks'"
            )));
        }
        image.into_server(lists, blocks)
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
        let mut enc = Enc::new();
        enc.raw(CLIENT_MAGIC);
        enc.raw(&s.keys.master_key());
        for set in [&s.encrypted_tags, &s.plain_tags] {
            let mut names: Vec<&String> = set.iter().collect();
            names.sort();
            enc.usize(names.len());
            for name in names {
                enc.str(name);
            }
        }

        let mut attrs: Vec<(&String, &OpessAttr)> = s.opess.iter().collect();
        attrs.sort_by_key(|&(attr, _)| attr);
        enc.usize(attrs.len());
        for (attr, oa) in attrs {
            enc.str(attr);
            match &oa.codec {
                ValueCodec::Numeric => enc.u8(0),
                ValueCodec::Categorical(values) => {
                    enc.u8(1);
                    enc.usize(values.len());
                    for v in values {
                        enc.str(v);
                    }
                }
            }
            let plan = &oa.plan;
            enc.varint(plan.m() as u64);
            enc.f64(plan.delta());
            enc.usize(plan.weight_prefix().len());
            for &wp in plan.weight_prefix() {
                enc.f64(wp);
            }
            enc.usize(plan.entries().len());
            for e in plan.entries() {
                enc.f64(e.plaintext);
                enc.varint(e.count as u64);
                enc.varint(e.scale as u64);
                enc.usize(e.chunks.len());
                for c in &e.chunks {
                    enc.u128(c.ciphertext);
                    enc.varint(c.occurrences as u64);
                }
            }
        }

        enc.usize(s.scheme_paths.len());
        for p in &s.scheme_paths {
            enc.str(&p.to_string());
        }
        enc.bool(s.lift_to_parent);
        seal_checksum(enc.into_bytes())
    }

    /// Restores a client from [`save_bytes`](Self::save_bytes) output.
    pub fn load_bytes(data: &[u8]) -> Result<Client, CoreError> {
        let what = "client state file";
        let state = read_file(data, CLIENT_MAGIC, what, ENCRYPT_AGAIN, |dec| {
            let keys = KeyChain::new(dec.array()?);
            let mut sets = [HashSet::new(), HashSet::new()];
            for set in &mut sets {
                for _ in 0..dec.count(1)? {
                    set.insert(dec.str()?);
                }
            }
            let [encrypted_tags, plain_tags] = sets;

            let mut opess = HashMap::new();
            for _ in 0..dec.count(13)? {
                let attr = dec.str()?;
                let codec = match dec.u8()? {
                    0 => ValueCodec::Numeric,
                    1 => ValueCodec::Categorical(
                        (0..dec.count(1)?)
                            .map(|_| dec.str())
                            .collect::<Result<_, _>>()?,
                    ),
                    _ => return Err(CoreError::Persist(format!("{what}: unknown codec tag"))),
                };
                let m = dec.u32()?;
                let delta = dec.f64()?;
                let weights = (0..dec.count(8)?)
                    .map(|_| dec.f64())
                    .collect::<Result<_, _>>()?;
                let mut entries = Vec::new();
                for _ in 0..dec.count(11)? {
                    let plaintext = dec.f64()?;
                    let count = dec.u32()?;
                    let scale = dec.u32()?;
                    let mut chunks = Vec::new();
                    for _ in 0..dec.count(17)? {
                        let ciphertext = dec.u128()?;
                        let occurrences = dec.u32()?;
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

            let mut scheme_paths = Vec::new();
            for _ in 0..dec.count(1)? {
                let p = Path::parse(&dec.str()?).map_err(|e| CoreError::Persist(e.to_string()))?;
                scheme_paths.push(p);
            }
            Ok(ClientCryptoState {
                keys,
                encrypted_tags,
                plain_tags,
                opess,
                scheme_paths,
                lift_to_parent: dec.bool()?,
            })
        })?;
        Ok(Client::new(state))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::SecurityConstraint;
    use crate::scheme::SchemeKind;
    use crate::system::{OutsourceConfig, Outsourcer};
    use exq_xml::Document;
    use proptest::prelude::*;

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

    /// A block id or a value index's, as written.
    fn varint(v: u32) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.varint(v as u64);
        enc.into_bytes()
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
        edited.splice(at..at + from.len(), to.iter().copied());
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
            &[a.encode(), b.encode()].concat(),
            &[into_b.encode(), b.encode()].concat(),
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
        // The block table is the one section holding the representative
        // followed by its id.
        let msg = load_edited(
            &bytes,
            &[rep.encode(), varint(id)].concat(),
            &[unlisted.encode(), varint(id)].concat(),
        );
        assert!(msg.contains("representative"), "{msg}");
    }

    /// A sealed-block table other than the one the image counts, or whose
    /// ids are not positional, in an artifact whose checksum is valid, is
    /// refused.
    #[test]
    fn blocks_the_image_does_not_count_are_refused() {
        let server = hosted();
        let bytes = server.save_bytes().unwrap();
        let body = &bytes[..bytes.len() - 4];
        let blocks = server.collect_blocks().unwrap();
        let table = blocks.encode();
        assert!(body.ends_with(&table), "the table closes the body");
        let mut fewer = SealedBlocks::new();
        fewer.extend_from(&blocks, 0..blocks.len() - 1);
        let mut renumbered = SealedBlocks::new();
        for b in &blocks {
            renumbered.push(exq_crypto::SealedRef { id: b.id ^ 1, ..b });
        }
        for (edit, why) in [(fewer, "block count"), (renumbered, "not positional")] {
            let edited = [&body[..body.len() - table.len()], &edit.encode()].concat();
            match Server::load_bytes(&seal_checksum(edited)) {
                Err(CoreError::Persist(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("expected a persist error, got {other:?}"),
            }
        }
    }

    /// Three patients, their ages encrypted and each name keyed by `k`:
    /// the visible document's last node is an attribute.
    fn keyed() -> Server {
        keyed_with_client().1
    }

    fn keyed_with_client() -> (Client, Server) {
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
    }

    /// The server's artifact with its visible section edited by `edit`, the
    /// checksum resealed, then loaded: a persist error, whose message is
    /// returned.
    fn load_with_visible(server: &Server, edit: impl FnOnce(&mut VisibleFragment)) -> String {
        let bytes = server.save_bytes().unwrap();
        assert!(Server::load_bytes(&bytes).is_ok());
        let mut frag = VisibleFragment {
            xml: server.visible_xml().to_owned(),
            offsets: server.block_offsets(),
        };
        let written = frag.encode();
        assert_eq!(
            &bytes[6..6 + written.len()],
            written,
            "the image opens the body"
        );
        edit(&mut frag);
        let edited = [
            &bytes[..6],
            &frag.encode(),
            &bytes[6 + written.len()..bytes.len() - 4],
        ]
        .concat();
        match Server::load_bytes(&seal_checksum(edited)) {
            Err(CoreError::Persist(msg)) => msg,
            other => panic!("expected a persist error, got {other:?}"),
        }
    }

    /// An element written after the visible document's last node has no
    /// position left to take, and is refused.
    #[test]
    fn a_visible_node_with_no_position_is_refused() {
        let msg = load_with_visible(&keyed(), |frag| {
            frag.xml = frag.xml.replacen("</h>", "<x/></h>", 1);
        });
        assert!(msg.contains("a visible node has no position"), "{msg}");
    }

    /// The last attribute left out, so its position has no visible node
    /// and no block covers it, is refused.
    #[test]
    fn a_position_neither_visible_nor_in_a_block_is_refused() {
        let msg = load_with_visible(&keyed(), |frag| {
            frag.xml = frag.xml.replacen(" k=\"3\"", "", 1);
        });
        assert!(msg.contains("neither visible nor inside a block"), "{msg}");
    }

    /// A block's offset left out, or one more written where a visible node
    /// stands, is refused: the block would never ship, or a place would
    /// stand for no block. A node moved out of its parent is refused too.
    #[test]
    fn block_offsets_that_do_not_place_every_block_are_refused() {
        let server = keyed();
        type Edit = fn(&mut VisibleFragment);
        let cases: [(&str, Edit); 3] = [
            ("has no offset", |frag| {
                frag.offsets.pop();
            }),
            ("places no block's root", |frag| {
                frag.offsets.insert(0, frag.offsets[0])
            }),
            ("do not follow", |frag| {
                let (from, to) = ("<n k=\"1\">a</n></p>", "</p><n k=\"1\">a</n>");
                frag.xml = frag.xml.replacen(from, to, 1);
            }),
        ];
        for (why, edit) in cases {
            let msg = load_with_visible(&server, edit);
            assert!(msg.contains(why), "{why}: {msg}");
        }
    }

    /// A visible element or attribute renamed, in an artifact whose
    /// checksum is valid, is refused: its interval is filed under the old
    /// name, so a query for that name would silently miss it.
    #[test]
    fn a_mislabelled_visible_node_is_refused() {
        let server = keyed();
        let renames = [
            ("<n k=\"1\">a</n>", "<m k=\"1\">a</m>"),
            (" k=\"2\"", " j=\"2\""),
        ];
        for (from, to) in renames {
            let msg = load_with_visible(&server, |frag| {
                assert!(frag.xml.contains(from), "{from} in {}", frag.xml);
                frag.xml = frag.xml.replacen(from, to, 1);
            });
            assert!(
                msg.contains("is not a tag its interval is filed under"),
                "{msg}"
            );
        }
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
        let record = |(k, v): (u128, u32)| [k.to_le_bytes().to_vec(), varint(v)].concat();
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

    /// How a hostile file differs from a good one behind a valid checksum.
    #[derive(Debug, Clone)]
    enum Damage {
        /// The body cut short.
        Truncate(usize),
        /// A varint written over the body: a count or length prefix where
        /// it lands on one, its value anywhere up to the widest a varint
        /// holds.
        Overwrite(usize, u64),
    }

    fn damage() -> impl Strategy<Value = Damage> {
        let value = prop_oneof![0u64..300, 1u64 << 20..1 << 40, u64::MAX >> 8..u64::MAX];
        prop_oneof![
            any::<usize>().prop_map(Damage::Truncate),
            (any::<usize>(), value).prop_map(|(at, v)| Damage::Overwrite(at, v)),
        ]
    }

    /// `file` (magic, body, and a checksum when `sealed`) with its body
    /// damaged and, when sealed, the checksum resealed.
    fn damaged(file: &[u8], sealed: bool, damage: &Damage) -> Vec<u8> {
        let end = file.len() - if sealed { 4 } else { 0 };
        let mut out = file[..end].to_vec();
        match damage {
            Damage::Truncate(at) => out.truncate(6 + at % (end - 6)),
            Damage::Overwrite(at, v) => {
                let at = 6 + at % (end - 6);
                let mut enc = Enc::new();
                enc.varint(*v);
                let v = enc.into_bytes();
                out.splice(at..(at + v.len()).min(end), v);
            }
        }
        match sealed {
            true => seal_checksum(out),
            false => out,
        }
    }

    /// Ok, or the typed error of a damaged file.
    fn typed<T>(decoded: Result<T, CoreError>) -> Result<(), TestCaseError> {
        match decoded {
            Ok(_) | Err(CoreError::Persist(_)) => Ok(()),
            Err(other) => Err(TestCaseError::fail(format!("{other:?}"))),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The four file decoders — server artifact, client file, paged
        /// metadata record and manifest — over a body cut short or with a
        /// count or length prefix overwritten, behind a valid checksum:
        /// `Ok` or a typed persist error, never a panic, and no allocation
        /// sized from a count the bytes left cannot hold.
        #[test]
        fn damaged_files_are_typed_errors(damage in damage()) {
            let (client, server) = keyed_with_client();
            let server_file = server.save_bytes().unwrap();
            typed(Server::load_bytes(&damaged(&server_file, true, &damage)))?;
            typed(Client::load_bytes(&damaged(&client.save_bytes(), true, &damage)))?;
            let meta = crate::store::encode_meta(&server);
            typed(crate::store::read_meta(&damaged(&meta, false, &damage)))?;
            let mut manifest = crate::tenant::Manifest::new("ward-a");
            for (name, key_fingerprint) in [("ward-a", u64::MAX), ("ward-b", 7)] {
                let entry = crate::tenant::DbEntry { key_fingerprint, max_inflight: 4 };
                manifest.dbs.insert(name.to_owned(), entry);
            }
            let manifest = manifest.to_bytes();
            typed(crate::tenant::Manifest::from_bytes(&damaged(&manifest, true, &damage)))?;
        }
    }
}
