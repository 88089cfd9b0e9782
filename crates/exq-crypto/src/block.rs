//! Encryption-block sealing.
//!
//! An encryption block is a serialized XML subtree (plus its decoy) that is
//! encrypted as a unit and stored on the server opaquely. We seal with
//! ChaCha20 plus a PRF-based authentication tag, and prepend a fixed header.
//! The header models the W3C XML-Encryption envelope overhead the paper
//! mentions in §7.4 (`EncryptionType`, `EncryptionMethod`, …): its *size* is
//! what makes fine-grained schemes pay a per-block constant, so we account
//! for it explicitly.
//!
//! What a sealed block costs is ChaCha blocks: one for the tag chain's
//! length prefix, one per 12 bytes of tag input (24 bytes of label, id and
//! nonce, then the ciphertext), one to emit the tag, and one per 64 bytes
//! of keystream — `2 + ceil((24 + len) / 12) + ceil(len / 64)`, so the tag
//! is nine tenths of a 50-byte block. A chain is sequential inside a block
//! and independent across blocks, which is what [`open_blocks`] and
//! [`seal_blocks`] use: they take a whole reply (or a whole database) and
//! run [`LANES`] blocks' chains and keystreams side by side.

use crate::chacha::{block_lanes, nonce_words, xor_lane, ChaCha20, LANES, MIN_BUSY_LANES};
use crate::prf::{chunk_words, Prf};
use std::borrow::Borrow;

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
    /// Per-block nonce (fresh per block id and encryption run).
    pub nonce: [u8; 12],
    /// Ciphertext bytes.
    pub ciphertext: Vec<u8>,
    /// PRF authentication tag over (id, nonce, ciphertext).
    pub tag: [u8; TAG_BYTES],
}

impl SealedBlock {
    /// Total stored size, including the modeled envelope header.
    pub fn stored_size(&self) -> usize {
        BLOCK_HEADER_BYTES + self.ciphertext.len() + TAG_BYTES
    }
}

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
    let [tag] = auth_tags(&Prf::new(*key), &[Job::new(id, nonce, &ciphertext)]);
    SealedBlock {
        id,
        nonce,
        ciphertext,
        tag,
    }
}

/// Opens a sealed block, verifying the tag first.
pub fn open_block(key: &[u8; 32], block: &SealedBlock) -> Result<Vec<u8>, BlockCryptError> {
    let [expected] = auth_tags(&Prf::new(*key), &[Job::sealed(block)]);
    if !tags_match(&expected, &block.tag) {
        return Err(BlockCryptError::BadTag);
    }
    let mut plaintext = block.ciphertext.clone();
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
    let jobs = blocks
        .iter()
        .map(|&(id, nonce, data)| Job::new(id, nonce, data));
    let mut jobs = in_lane_order(jobs);
    let sealed = keystream(key, &jobs);
    for job in &mut jobs {
        job.data = sealed.get(job.index);
    }
    let tags = batch_tags(key, &jobs);
    let block = |(&(id, nonce, _), (ciphertext, tag)): (_, (&[u8], _))| SealedBlock {
        id,
        nonce,
        ciphertext: ciphertext.to_vec(),
        tag,
    };
    blocks
        .iter()
        .zip(sealed.iter().zip(tags))
        .map(block)
        .collect()
}

/// Opens many sealed blocks into one buffer, verifying every tag before any
/// plaintext is produced. On failure, names the first block (by position in
/// `blocks`) that did not verify.
pub fn open_blocks<B: Borrow<SealedBlock>>(
    key: &[u8; 32],
    blocks: &[B],
) -> Result<OpenedBlocks, (usize, BlockCryptError)> {
    let jobs = in_lane_order(blocks.iter().map(|b| Job::sealed(b.borrow())));
    let tags = batch_tags(key, &jobs);
    let forged = |(expected, block): (_, &B)| !tags_match(expected, &block.borrow().tag);
    match tags.iter().zip(blocks).position(forged) {
        Some(i) => Err((i, BlockCryptError::BadTag)),
        None => Ok(keystream(key, &jobs)),
    }
}

/// The plaintexts of one [`open_blocks`] call, end to end in one buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenedBlocks {
    bytes: Vec<u8>,
    /// `ends[i]` is where block `i`'s plaintext stops; it starts where block
    /// `i - 1`'s stopped.
    ends: Vec<usize>,
}

impl OpenedBlocks {
    /// Number of blocks opened.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The plaintext of the `i`-th block given to [`open_blocks`].
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.span(i)]
    }

    /// Every plaintext, in the order the blocks were given.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.get(i))
    }

    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }
}

/// What the tag chain and the keystream need of one block: `data` is the
/// ciphertext for the chain, and whichever side is at hand for the
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

    fn sealed(block: &'a SealedBlock) -> Self {
        Job::new(block.id, block.nonce, &block.ciphertext)
    }

    /// Length of the tag input `"blocktag" | id | nonce | ciphertext`.
    fn tag_input_len(&self) -> usize {
        24 + self.data.len()
    }

    /// The `k`-th 12-byte chunk of the tag input: the label and id, the
    /// nonce, then the ciphertext — the 24-byte front is exactly two chunks.
    fn tag_input_chunk(&self, k: usize) -> [u32; 3] {
        match k {
            0 => [
                u32::from_le_bytes(*b"bloc"),
                u32::from_le_bytes(*b"ktag"),
                self.id,
            ],
            1 => nonce_words(&self.nonce),
            _ => chunk_words(self.data, k - 2),
        }
    }
}

/// Numbers a batch's jobs by position and puts them in the order they go
/// through the lanes: ascending tag-chain length (a counting sort), so that
/// the [`LANES`] blocks sharing a pass have chains and keystreams of nearly
/// one length and few lanes idle. Only speed depends on the order.
fn in_lane_order<'a>(jobs: impl ExactSizeIterator<Item = Job<'a>> + Clone) -> Vec<Job<'a>> {
    // Chains this long are several lanes' worth of work each; how they are
    // grouped no longer matters, so they share the last bucket.
    const BUCKETS: usize = 256;
    let bucket = |job: &Job| job.tag_input_len().div_ceil(12).min(BUCKETS - 1);
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

/// The authentication tags of up to `N` jobs.
fn auth_tags<const N: usize>(prf: &Prf, jobs: &[Job]) -> [[u8; TAG_BYTES]; N] {
    let mut lens = [0; N];
    for (len, job) in lens.iter_mut().zip(jobs) {
        *len = job.tag_input_len();
    }
    prf.eval_u128_lanes::<N>(&lens[..jobs.len()], |l, k| jobs[l].tag_input_chunk(k))
        .map(u128::to_le_bytes)
}

/// The authentication tag of every job of a batch, by position in the batch.
fn batch_tags(key: &[u8; 32], jobs: &[Job]) -> Vec<[u8; TAG_BYTES]> {
    let prf = Prf::new(*key);
    let mut tags = vec![[0; TAG_BYTES]; jobs.len()];
    for group in jobs.chunks(LANES) {
        for (job, tag) in group.iter().zip(auth_tags::<LANES>(&prf, group)) {
            tags[job.index] = tag;
        }
    }
    tags
}

/// Every job's `data` XORed with its keystream (its nonce, block counters
/// from 1), by position in the batch.
fn keystream(key: &[u8; 32], jobs: &[Job]) -> OpenedBlocks {
    let mut ends = vec![0; jobs.len()];
    for job in jobs {
        ends[job.index] = job.data.len();
    }
    let mut total = 0;
    for end in &mut ends {
        total += *end;
        *end = total;
    }
    let mut out = OpenedBlocks {
        bytes: vec![0; total],
        ends,
    };
    for job in jobs {
        let span = out.span(job.index);
        out.bytes[span].copy_from_slice(job.data);
    }
    let key_words = crate::chacha::key_words(key);
    for group in jobs.chunks(LANES) {
        let mut nonces = [[0; LANES]; 3];
        for (l, job) in group.iter().enumerate() {
            for (lanes, word) in nonces.iter_mut().zip(nonce_words(&job.nonce)) {
                lanes[l] = word;
            }
        }
        // Keystream block `done` of every lane at once, for as long as
        // enough lanes reach that far; the longer ones finish on their own.
        let mut done = 0;
        let reaching = |done| group.iter().filter(move |job| job.data.len() > 64 * done);
        while reaching(done).count() >= MIN_BUSY_LANES {
            let ks = block_lanes::<LANES>(&key_words, &[1 + done as u32; LANES], &nonces);
            for (l, job) in group.iter().enumerate() {
                let span = out.span(job.index);
                if let Some(chunk) = out.bytes[span].chunks_mut(64).nth(done) {
                    xor_lane(&ks, l, chunk);
                }
            }
            done += 1;
        }
        for job in reaching(done) {
            let span = out.span(job.index);
            let rest = &mut out.bytes[span][64 * done..];
            ChaCha20::new(key, &job.nonce).apply_keystream(1 + done as u32, rest);
        }
    }
    out
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
                open_blocks(&KEY, &blocks),
                Err((13, BlockCryptError::BadTag))
            );
        }
        assert_eq!(open_blocks(&KEY, &good).unwrap().len(), 20);
    }
}
