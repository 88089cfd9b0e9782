//! Encryption-block sealing.
//!
//! An encryption block is a serialized XML subtree (plus its decoy) that is
//! encrypted as a unit and stored on the server opaquely. We seal it with
//! the ChaCha20-Poly1305 AEAD of RFC 8439, and prepend a fixed header. The
//! header models the W3C XML-Encryption envelope overhead the paper
//! mentions in §7.4 (`EncryptionType`, `EncryptionMethod`, …): its *size* is
//! what makes fine-grained schemes pay a per-block constant, so we account
//! for it explicitly.
//!
//! The ciphertext is the plaintext XORed with ChaCha20 keystream under the
//! block's nonce from block counter 1. The tag is RFC 8439's: Poly1305,
//! keyed by ChaCha20 block 0 under that nonce, over the 12-byte AAD
//! `"blocktag" | id` and the ciphertext, each zero-padded to 16 bytes, then
//! their two lengths. So a block costs one key block and `ceil(len / 64)`
//! keystream blocks of ChaCha, and `ceil(len / 16) + 2` Poly1305 blocks.
//! The AEAD's integrity rests on nonces never repeating under one key:
//! set-up derives a block's nonce from its id, an insert from its id and
//! plaintext (`exq-core`).
//!
//! Blocks are independent of each other, which is what [`open_blocks`] and
//! [`seal_blocks`] use: they take a whole reply (or a whole database), draw
//! [`LANES`] blocks' one-time keys and keystream in one pass each, and run
//! four Poly1305 chains side by side. [`open_block`] and
//! [`seal_block`] are the one-block instance of the same code.
//!
//! A reply's blocks are one [`SealedBlocks`] table: every ciphertext end to
//! end in one buffer and a fixed-size entry per block, so thousands of
//! small blocks travel, open and splice without an allocation each.

use crate::chacha::{
    block_lanes, key_words, nonce_words, xor_lane, ChaCha20, LANES, MIN_BUSY_LANES,
};
use crate::poly1305::{block_words, Poly1305};
use std::ops::Range;

/// Serialized per-block envelope overhead in bytes, approximating the W3C
/// XML-Encryption metadata the paper's measured systems carried per block.
pub const BLOCK_HEADER_BYTES: usize = 96;

/// Length of the authentication tag.
pub const TAG_BYTES: usize = 16;

/// A sealed block as stored on the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlock {
    /// Server-visible block id.
    pub id: u32,
    /// Per-block nonce: never the same for two different blocks under one
    /// key.
    pub nonce: [u8; 12],
    /// Ciphertext bytes.
    pub ciphertext: Vec<u8>,
    /// RFC 8439 tag over (id, ciphertext) under a key drawn from the nonce.
    pub tag: [u8; TAG_BYTES],
}

impl SealedBlock {
    /// Total stored size, including the modeled envelope header.
    pub fn stored_size(&self) -> usize {
        SealedRef::from(self).stored_size()
    }
}

/// A sealed block wherever its bytes are kept: on its own (a
/// [`SealedBlock`]) or as one block of a [`SealedBlocks`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedRef<'a> {
    pub id: u32,
    pub nonce: [u8; 12],
    pub ciphertext: &'a [u8],
    pub tag: [u8; TAG_BYTES],
}

impl SealedRef<'_> {
    /// Total stored size, including the modeled envelope header.
    pub fn stored_size(&self) -> usize {
        BLOCK_HEADER_BYTES + self.ciphertext.len() + TAG_BYTES
    }

    /// The block on its own.
    pub fn to_block(&self) -> SealedBlock {
        SealedBlock {
            id: self.id,
            nonce: self.nonce,
            ciphertext: self.ciphertext.to_vec(),
            tag: self.tag,
        }
    }
}

impl<'a> From<&'a SealedBlock> for SealedRef<'a> {
    fn from(b: &'a SealedBlock) -> Self {
        SealedRef {
            id: b.id,
            nonce: b.nonce,
            ciphertext: &b.ciphertext,
            tag: b.tag,
        }
    }
}

/// Sealed blocks in one buffer: every ciphertext end to end, and one
/// fixed-size entry per block. Filling the table copies each ciphertext
/// once; after that nothing of it costs an allocation per block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SealedBlocks {
    ciphertext: Vec<u8>,
    entries: Vec<Entry>,
}

/// One block of a [`SealedBlocks`]: its ciphertext stops at `end` and
/// starts where the previous block's stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    id: u32,
    nonce: [u8; 12],
    tag: [u8; TAG_BYTES],
    end: usize,
}

impl SealedBlocks {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `blocks` blocks of `bytes` ciphertext
    /// bytes in all.
    pub fn with_capacity(blocks: usize, bytes: usize) -> Self {
        SealedBlocks {
            ciphertext: Vec::with_capacity(bytes),
            entries: Vec::with_capacity(blocks),
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `i`-th block, if there is one.
    pub fn get(&self, i: usize) -> Option<SealedRef<'_>> {
        let e = self.entries.get(i)?;
        Some(SealedRef {
            id: e.id,
            nonce: e.nonce,
            ciphertext: &self.ciphertext[self.span(i)],
            tag: e.tag,
        })
    }

    /// Every block, in table order.
    pub fn iter(&self) -> SealedIter<'_> {
        SealedIter {
            ciphertext: &self.ciphertext,
            entries: self.entries.iter(),
            start: 0,
        }
    }

    /// Appends a block, copying its ciphertext in.
    pub fn push<'b>(&mut self, block: impl Into<SealedRef<'b>>) {
        let b = block.into();
        self.ciphertext.extend_from_slice(b.ciphertext);
        self.entries.push(Entry {
            id: b.id,
            nonce: b.nonce,
            tag: b.tag,
            end: self.ciphertext.len(),
        });
    }

    /// Appends blocks `run` of `other`, their ciphertexts in one copy.
    pub fn extend_from(&mut self, other: &SealedBlocks, run: Range<usize>) {
        let Some(last) = run.end.checked_sub(1).filter(|&l| l >= run.start) else {
            return;
        };
        let from = other.span(run.start).start;
        let to = other.entries[last].end;
        let shift = self.ciphertext.len();
        self.ciphertext
            .extend_from_slice(&other.ciphertext[from..to]);
        let moved = other.entries[run].iter().map(|e| Entry {
            end: e.end - from + shift,
            ..*e
        });
        self.entries.extend(moved);
    }

    /// Where block `i`'s ciphertext lies in the table's buffer.
    fn span(&self, i: usize) -> Range<usize> {
        span(&self.entries, i)
    }
}

/// Where the `i`-th of `entries` lies: from the previous block's end to
/// its own.
fn span(entries: &[Entry], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { entries[i - 1].end };
    start..entries[i].end
}

impl<'b, B: Into<SealedRef<'b>>> Extend<B> for SealedBlocks {
    fn extend<I: IntoIterator<Item = B>>(&mut self, blocks: I) {
        let blocks = blocks.into_iter();
        self.entries.reserve(blocks.size_hint().0);
        for b in blocks {
            self.push(b);
        }
    }
}

impl<'b, B: Into<SealedRef<'b>>> FromIterator<B> for SealedBlocks {
    fn from_iter<I: IntoIterator<Item = B>>(blocks: I) -> Self {
        let mut table = SealedBlocks::new();
        table.extend(blocks);
        table
    }
}

impl FromIterator<SealedBlock> for SealedBlocks {
    fn from_iter<I: IntoIterator<Item = SealedBlock>>(blocks: I) -> Self {
        let mut table = SealedBlocks::new();
        for b in blocks {
            table.push(&b);
        }
        table
    }
}

impl<'a> IntoIterator for &'a SealedBlocks {
    type Item = SealedRef<'a>;
    type IntoIter = SealedIter<'a>;
    fn into_iter(self) -> SealedIter<'a> {
        self.iter()
    }
}

/// The blocks of a [`SealedBlocks`], in table order: each ciphertext
/// starts at `start`, where the last one stopped.
#[derive(Debug, Clone)]
pub struct SealedIter<'a> {
    ciphertext: &'a [u8],
    entries: std::slice::Iter<'a, Entry>,
    start: usize,
}

impl<'a> Iterator for SealedIter<'a> {
    type Item = SealedRef<'a>;
    fn next(&mut self) -> Option<SealedRef<'a>> {
        let e = self.entries.next()?;
        let ciphertext = &self.ciphertext[self.start..e.end];
        self.start = e.end;
        Some(SealedRef {
            id: e.id,
            nonce: e.nonce,
            ciphertext,
            tag: e.tag,
        })
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl ExactSizeIterator for SealedIter<'_> {}

/// Errors from opening a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockCryptError {
    /// The authentication tag did not verify: wrong key or tampered data.
    BadTag,
}

impl std::fmt::Display for BlockCryptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockCryptError::BadTag => write!(f, "block authentication failed"),
        }
    }
}

impl std::error::Error for BlockCryptError {}

/// Seals plaintext bytes into a block.
pub fn seal_block(key: &[u8; 32], id: u32, nonce: [u8; 12], plaintext: &[u8]) -> SealedBlock {
    let mut ciphertext = plaintext.to_vec();
    ChaCha20::new(key, &nonce).apply_keystream(1, &mut ciphertext);
    let tag = batch_tags(key, &[Job::new(id, nonce, &ciphertext)])[0];
    SealedBlock {
        id,
        nonce,
        ciphertext,
        tag,
    }
}

/// Opens a sealed block, verifying the tag first.
pub fn open_block<'a>(
    key: &[u8; 32],
    block: impl Into<SealedRef<'a>>,
) -> Result<Vec<u8>, BlockCryptError> {
    let block = block.into();
    if !tags_match(&batch_tags(key, &[Job::sealed(block)])[0], &block.tag) {
        return Err(BlockCryptError::BadTag);
    }
    let mut plaintext = block.ciphertext.to_vec();
    ChaCha20::new(key, &block.nonce).apply_keystream(1, &mut plaintext);
    Ok(plaintext)
}

/// Whether two tags are equal, in time that does not depend on where they
/// differ: every byte's difference is folded in before the one test, since
/// an early exit would tell a forger how many leading bytes they got right.
fn tags_match(a: &[u8; TAG_BYTES], b: &[u8; TAG_BYTES]) -> bool {
    a.iter().zip(b).fold(0, |diff, (x, y)| diff | (x ^ y)) == 0
}

/// Seals many blocks, each given as `(id, nonce, plaintext)`: the same
/// blocks [`seal_block`] makes one by one, in the order given.
pub fn seal_blocks(key: &[u8; 32], blocks: &[(u32, [u8; 12], &[u8])]) -> Vec<SealedBlock> {
    let bytes = blocks.iter().map(|b| b.2.len()).sum();
    let mut table = SealedBlocks::with_capacity(blocks.len(), bytes);
    table.extend(blocks.iter().map(|&(id, nonce, ciphertext)| SealedRef {
        id,
        nonce,
        ciphertext,
        tag: [0; TAG_BYTES],
    }));
    let mut jobs = in_lane_order(
        blocks
            .iter()
            .map(|&(id, nonce, data)| Job::new(id, nonce, data)),
    );
    let entries = &table.entries;
    apply_keystream(key, &jobs, &mut table.ciphertext, |i| span(entries, i));
    for job in &mut jobs {
        job.data = &table.ciphertext[span(entries, job.index)];
    }
    let tags = batch_tags(key, &jobs);
    for (entry, tag) in table.entries.iter_mut().zip(tags) {
        entry.tag = tag;
    }
    table.iter().map(|b| b.to_block()).collect()
}

/// Opens a table of sealed blocks into one buffer, verifying every tag
/// before any plaintext is produced: the ciphertext is copied once and the
/// keystream XORed over it. On failure, names the first block (by position
/// in the table) that did not verify.
pub fn open_blocks<'t>(
    key: &[u8; 32],
    blocks: &'t SealedBlocks,
) -> Result<OpenedBlocks<'t>, (usize, BlockCryptError)> {
    let jobs = in_lane_order(blocks.iter().map(Job::sealed));
    let tags = batch_tags(key, &jobs);
    let forged = |(expected, entry): (_, &Entry)| !tags_match(expected, &entry.tag);
    if let Some(i) = tags.iter().zip(&blocks.entries).position(forged) {
        return Err((i, BlockCryptError::BadTag));
    }
    let mut bytes = blocks.ciphertext.clone();
    apply_keystream(key, &jobs, &mut bytes, |i| blocks.span(i));
    Ok(OpenedBlocks { bytes, blocks })
}

/// The plaintexts of one [`open_blocks`] call, end to end in one buffer:
/// block `i`'s plaintext lies where its ciphertext lay in the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenedBlocks<'t> {
    bytes: Vec<u8>,
    blocks: &'t SealedBlocks,
}

impl OpenedBlocks<'_> {
    /// Number of blocks opened.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The plaintext of the table's `i`-th block.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.span(i)]
    }

    /// Where the `i`-th block's plaintext lies in [`as_bytes`](Self::as_bytes).
    pub fn span(&self, i: usize) -> Range<usize> {
        self.blocks.span(i)
    }

    /// Every plaintext, end to end in table order.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Every plaintext, in table order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// What the tag and the keystream need of one block: `data` is the
/// ciphertext for the tag, and whichever side is at hand for the
/// keystream. `index` is the block's position in its batch, which a batch
/// goes through out of order.
#[derive(Clone, Copy)]
struct Job<'a> {
    index: usize,
    id: u32,
    nonce: [u8; 12],
    data: &'a [u8],
}

impl<'a> Job<'a> {
    fn new(id: u32, nonce: [u8; 12], data: &'a [u8]) -> Self {
        Job {
            index: 0,
            id,
            nonce,
            data,
        }
    }

    fn sealed(block: SealedRef<'a>) -> Self {
        Job::new(block.id, block.nonce, block.ciphertext)
    }

    /// Whole 16-byte blocks of ciphertext.
    fn whole_blocks(&self) -> usize {
        self.data.len() / 16
    }

    /// The tag's first Poly1305 block: the AAD `"blocktag" | id`, padded.
    fn aad_block(&self) -> [u64; 2] {
        [u64::from_le_bytes(*b"blocktag"), self.id as u64]
    }

    /// Ciphertext block `k`, which is whole.
    fn data_block(&self, k: usize) -> [u64; 2] {
        let block = self.data[16 * k..16 * k + 16].try_into();
        block_words(block.expect("a range of sixteen bytes"))
    }

    /// Poly1305 over the ciphertext from whole block `from` on, the last
    /// part block zero-padded, then the lengths of the AAD and the
    /// ciphertext: all the tag takes after the AAD and the blocks before.
    fn finish_tag(&self, mac: &mut Poly1305, from: usize) {
        for k in from..self.whole_blocks() {
            mac.block(self.data_block(k));
        }
        let tail = &self.data[16 * self.whole_blocks()..];
        if !tail.is_empty() {
            let mut padded = [0; 16];
            padded[..tail.len()].copy_from_slice(tail);
            mac.block(block_words(&padded));
        }
        mac.block([AAD_BYTES, self.data.len() as u64]);
    }
}

/// Length of the tag's AAD, `"blocktag" | id`.
const AAD_BYTES: u64 = 12;

/// How many blocks' Poly1305 chains run side by side: each block of a chain
/// waits on the last one's multiplies, and a few chains fill that wait.
const INTERLEAVE: usize = 4;

/// Numbers a batch's jobs by position and puts them in the order they go
/// through the lanes: ascending count of 16-byte blocks (a counting sort),
/// so that the blocks sharing a lane pass or an interleaved Poly1305 run
/// are of nearly one length and few lanes idle. Only speed depends on the
/// order.
fn in_lane_order<'a>(jobs: impl ExactSizeIterator<Item = Job<'a>> + Clone) -> Vec<Job<'a>> {
    // Blocks this long are several lanes' worth of work each; how they are
    // grouped no longer matters, so they share the last bucket.
    const BUCKETS: usize = 256;
    let bucket = |job: &Job| job.data.len().div_ceil(16).min(BUCKETS - 1);
    let mut next = [0; BUCKETS];
    for job in jobs.clone() {
        next[bucket(&job)] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        start += std::mem::replace(slot, start);
    }
    let mut sorted = vec![Job::new(0, [0; 12], &[]); jobs.len()];
    for (index, job) in jobs.enumerate() {
        let slot = &mut next[bucket(&job)];
        sorted[*slot] = Job { index, ..job };
        *slot += 1;
    }
    sorted
}

/// The nonces of up to [`LANES`] jobs, word-sliced for [`block_lanes`].
fn sliced_nonces(group: &[Job]) -> [[u32; LANES]; 3] {
    let mut nonces = [[0; LANES]; 3];
    for (l, job) in group.iter().enumerate() {
        for (lanes, word) in nonces.iter_mut().zip(nonce_words(&job.nonce)) {
            lanes[l] = word;
        }
    }
    nonces
}

/// The tag of every job of a batch, by position in the batch. A lane
/// group's one-time keys are ChaCha20 block 0 under each nonce, drawn in
/// one pass (one block each below [`MIN_BUSY_LANES`]); their Poly1305
/// chains then run [`INTERLEAVE`] at a time for as long as all of them
/// have whole blocks left, and finish one at a time.
fn batch_tags(key: &[u8; 32], jobs: &[Job]) -> Vec<[u8; TAG_BYTES]> {
    let key_words = key_words(key);
    let mut tags = vec![[0; TAG_BYTES]; jobs.len()];
    for group in jobs.chunks(LANES) {
        let mut macs = [Poly1305::default(); LANES];
        let nonces = sliced_nonces(group);
        if group.len() >= MIN_BUSY_LANES {
            let ks = block_lanes::<LANES>(&key_words, &[0; LANES], &nonces);
            for (l, mac) in macs.iter_mut().enumerate() {
                *mac = Poly1305::new(core::array::from_fn(|w| ks[w][l]));
            }
        } else {
            for (l, mac) in macs.iter_mut().enumerate().take(group.len()) {
                let ks = block_lanes::<1>(&key_words, &[0], &nonces.map(|w| [w[l]]));
                *mac = Poly1305::new(core::array::from_fn(|w| ks[w][0]));
            }
        }
        for (jobs, macs) in group.chunks(INTERLEAVE).zip(macs.chunks_mut(INTERLEAVE)) {
            for (mac, job) in macs.iter_mut().zip(jobs) {
                mac.block(job.aad_block());
            }
            let common = jobs.iter().map(Job::whole_blocks).min().unwrap_or(0);
            for k in 0..common {
                for (mac, job) in macs.iter_mut().zip(jobs) {
                    mac.block(job.data_block(k));
                }
            }
            for (mac, job) in macs.iter_mut().zip(jobs) {
                job.finish_tag(mac, common);
                tags[job.index] = mac.finish();
            }
        }
    }
    tags
}

/// XORs every job's keystream (its nonce, block counters from 1) over
/// `bytes[span(job.index)]`, which is as long as the job's `data`.
fn apply_keystream(
    key: &[u8; 32],
    jobs: &[Job],
    bytes: &mut [u8],
    span: impl Fn(usize) -> Range<usize>,
) {
    let key_words = key_words(key);
    for group in jobs.chunks(LANES) {
        let nonces = sliced_nonces(group);
        // Keystream block `done` of every lane at once, for as long as
        // enough lanes reach that far; the longer ones finish on their own.
        let mut done = 0;
        let reaching = |done| group.iter().filter(move |job| job.data.len() > 64 * done);
        while reaching(done).count() >= MIN_BUSY_LANES {
            let ks = block_lanes::<LANES>(&key_words, &[1 + done as u32; LANES], &nonces);
            for (l, job) in group.iter().enumerate() {
                if let Some(chunk) = bytes[span(job.index)].chunks_mut(64).nth(done) {
                    xor_lane(&ks, l, chunk);
                }
            }
            done += 1;
        }
        for job in reaching(done) {
            let rest = &mut bytes[span(job.index)][64 * done..];
            ChaCha20::new(key, &job.nonce).apply_keystream(1 + done as u32, rest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 32] = [11u8; 32];

    #[test]
    fn seal_open_roundtrip() {
        let pt = b"<patient><pname>Betty</pname><decoy>xyya</decoy></patient>";
        let b = seal_block(&KEY, 7, [1u8; 12], pt);
        assert_ne!(b.ciphertext, pt.to_vec());
        assert_eq!(open_block(&KEY, &b).unwrap(), pt.to_vec());
    }

    #[test]
    fn wrong_key_rejected() {
        let b = seal_block(&KEY, 7, [1u8; 12], b"secret");
        let other = [12u8; 32];
        assert_eq!(open_block(&other, &b), Err(BlockCryptError::BadTag));
    }

    #[test]
    fn tampering_detected() {
        let mut b = seal_block(&KEY, 7, [1u8; 12], b"secret");
        b.ciphertext[0] ^= 1;
        assert_eq!(open_block(&KEY, &b), Err(BlockCryptError::BadTag));
    }

    #[test]
    fn id_bound_into_tag() {
        let mut b = seal_block(&KEY, 7, [1u8; 12], b"secret");
        b.id = 8;
        assert_eq!(open_block(&KEY, &b), Err(BlockCryptError::BadTag));
    }

    #[test]
    fn distinct_nonces_distinct_ciphertexts() {
        let a = seal_block(&KEY, 1, [1u8; 12], b"same plaintext");
        let b = seal_block(&KEY, 1, [2u8; 12], b"same plaintext");
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    #[test]
    fn stored_size_includes_header() {
        let b = seal_block(&KEY, 1, [0u8; 12], b"12345");
        assert_eq!(b.stored_size(), BLOCK_HEADER_BYTES + 5 + TAG_BYTES);
    }

    #[test]
    fn empty_plaintext() {
        let b = seal_block(&KEY, 1, [0u8; 12], b"");
        assert_eq!(open_block(&KEY, &b).unwrap(), Vec::<u8>::new());
    }

    /// RFC 8439 §2.8.2, the AEAD test vector. Its AAD is twelve bytes, as
    /// the block tag's is, so only the AAD block differs: the ciphertext
    /// comes out of `seal_block`, and the tag out of the block path's
    /// padding and lengths under the vector's own AAD.
    #[test]
    fn rfc_8439_aead_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
        let nonce = [7, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer \
you only one tip for the future, sunscreen would be it.";
        let sealed = seal_block(&key, 1, nonce, plaintext);
        assert_eq!(sealed.ciphertext, RFC_AEAD_CIPHERTEXT);

        let one_time = ChaCha20::new(&key, &nonce).block(0);
        let mut mac = Poly1305::new(core::array::from_fn(|w| {
            u32::from_le_bytes(one_time[4 * w..4 * w + 4].try_into().unwrap())
        }));
        let aad = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let mut padded = [0; 16];
        padded[..12].copy_from_slice(&aad);
        mac.block(block_words(&padded));
        Job::new(1, nonce, &sealed.ciphertext).finish_tag(&mut mac, 0);
        assert_eq!(
            mac.finish(),
            [
                0x1a, 0xe1, 0x0b, 0x59, 0x4f, 0x09, 0xe2, 0x6a, 0x7e, 0x90, 0x2e, 0xcb, 0xd0, 0x60,
                0x06, 0x91
            ]
        );
    }

    /// RFC 8439 §2.8.2: the ciphertext of the sunscreen plaintext.
    const RFC_AEAD_CIPHERTEXT: [u8; 114] = [
        0xd3, 0x1a, 0x8d, 0x34, 0x64, 0x8e, 0x60, 0xdb, 0x7b, 0x86, 0xaf, 0xbc, 0x53, 0xef, 0x7e,
        0xc2, 0xa4, 0xad, 0xed, 0x51, 0x29, 0x6e, 0x08, 0xfe, 0xa9, 0xe2, 0xb5, 0xa7, 0x36, 0xee,
        0x62, 0xd6, 0x3d, 0xbe, 0xa4, 0x5e, 0x8c, 0xa9, 0x67, 0x12, 0x82, 0xfa, 0xfb, 0x69, 0xda,
        0x92, 0x72, 0x8b, 0x1a, 0x71, 0xde, 0x0a, 0x9e, 0x06, 0x0b, 0x29, 0x05, 0xd6, 0xa5, 0xb6,
        0x7e, 0xcd, 0x3b, 0x36, 0x92, 0xdd, 0xbd, 0x7f, 0x2d, 0x77, 0x8b, 0x8c, 0x98, 0x03, 0xae,
        0xe3, 0x28, 0x09, 0x1b, 0x58, 0xfa, 0xb3, 0x24, 0xe4, 0xfa, 0xd6, 0x75, 0x94, 0x55, 0x85,
        0x80, 0x8b, 0x48, 0x31, 0xd7, 0xbc, 0x3f, 0xf4, 0xde, 0xf0, 0x8e, 0x4b, 0x7a, 0x9d, 0xe5,
        0x76, 0xd2, 0x65, 0x86, 0xce, 0xc6, 0x4b, 0x61, 0x16,
    ];

    /// A run copied from another table is those blocks, wherever it lands
    /// and whatever their lengths (an empty ciphertext and an empty run
    /// among them).
    #[test]
    fn a_run_copies_as_its_blocks() {
        let blocks: Vec<SealedBlock> = (0..6u32)
            .map(|i| seal_block(&KEY, i, [i as u8; 12], &vec![b'x'; i as usize * 7]))
            .collect();
        let all: SealedBlocks = blocks.iter().collect();
        let mut table: SealedBlocks = blocks[5..].iter().collect();
        table.extend_from(&all, 1..4);
        table.extend_from(&all, 2..2);
        table.extend_from(&all, 0..1);
        let want = [5, 1, 2, 3, 0].map(|i| &blocks[i]);
        assert_eq!(table, want.into_iter().collect());
    }

    /// The tag comparison looks at all sixteen bytes: a tag wrong only in
    /// its first byte and one wrong only in its last are both refused, one
    /// block at a time and inside a batch.
    #[test]
    fn a_tag_wrong_in_any_one_byte_is_refused() {
        let good: Vec<SealedBlock> = (0..20)
            .map(|i| seal_block(&KEY, i, [i as u8; 12], b"<a>secret</a>"))
            .collect();
        for byte in [0, TAG_BYTES - 1] {
            let mut blocks = good.clone();
            blocks[13].tag[byte] ^= 0x80;
            assert_eq!(open_block(&KEY, &blocks[13]), Err(BlockCryptError::BadTag));
            assert_eq!(
                open_blocks(&KEY, &blocks.iter().collect()),
                Err((13, BlockCryptError::BadTag))
            );
        }
        assert_eq!(open_blocks(&KEY, &good.iter().collect()).unwrap().len(), 20);
    }
}
