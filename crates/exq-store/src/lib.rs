//! Out-of-core paged storage for hosted encrypted databases.
//!
//! The serving layers above (`exq-core`) keep a hosted database's *payload*
//! — sealed ciphertext blocks and index posting lists — in a page file
//! behind a pinning buffer pool, so a database several times larger than
//! RAM serves queries whose latency depends on the *working set*, not the
//! database size. Mutations append logical records to a write-ahead log
//! instead of rewriting the artifact, and a background checkpointer folds
//! the log into the page file off the serving path.
//!
//! This crate is the physical layer and knows nothing about XML or
//! encryption: it stores opaque variable-length **records** keyed by `u64`
//! ids across fixed-size pages. The pieces:
//!
//! * [`page`] — the page file: fixed-size pages, CRC32 per page, and a
//!   double-buffered superblock (two slots, monotonically versioned) so a
//!   torn superblock write falls back to the previous durable state.
//! * [`pool`] — the buffer pool: a byte budget's worth of page frames with
//!   clock (second-chance) eviction and pin guards that keep a page's bytes
//!   alive while a reader assembles a record from them.
//! * [`wal`] — the write-ahead log: length+CRC framed records with
//!   monotonic sequence numbers, fsync'd on append, replay that cleanly
//!   drops a torn tail but reports mid-file corruption as a typed error.
//! * [`store`] — [`PagedStore`]: the record directory plus copy-on-write
//!   checkpointing that folds dirty records into free pages, flips the
//!   superblock, and compacts the log — a kill at any instant leaves
//!   either the old durable state (plus the log) or the new one.
//! * [`vfs`] — the filesystem seam: every file operation above goes
//!   through a [`Vfs`], either the real OS filesystem ([`OsVfs`]) or a
//!   seeded in-memory [`FaultVfs`] that injects EIO/ENOSPC, torn writes,
//!   lying fsyncs, power cuts, and bit rot for crash-torture tests.
//!
//! The store reports to its caller and to nobody else: a batch read returns
//! its [`ReadCost`] (pool hits, page faults, evictions, epoch retries), a
//! checkpoint the pages it folded, a scrub step its [`ScrubReport`], and the
//! pool keeps running totals in [`PoolStats`]. What to count, and where,
//! is the business of the layer that knows which request it is serving.

pub mod page;
pub mod pool;
pub mod store;
pub mod vfs;
pub mod wal;

pub use page::{PageFile, DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, MIN_PAGE_SIZE, PAGE_HEADER_BYTES};
pub use pool::{BufferPool, PinnedPage, PoolStats};
pub use store::{
    CorruptRecord, PagedStore, ReadCost, ScrubReport, StoreFootprint, StoreOptions, StoreReader,
    SCRUB_DIRECTORY,
};
pub use vfs::{os_vfs, FaultConfig, FaultVfs, OpenMode, OsVfs, SplitMix64, Vfs, VfsFile};
pub use wal::{Wal, WalRecord, WalReplay};

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// On-disk state failed validation (bad magic, CRC mismatch, impossible
    /// lengths). The caller never sees garbage bytes — corruption is always
    /// a typed error.
    Corrupt(String),
    /// A record id was requested that the directory does not hold.
    MissingRecord(u64),
    /// The test-only crash injection point fired (see
    /// [`PagedStore::inject_checkpoint_crash`]).
    InjectedCrash,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage io: {e}"),
            StoreError::Corrupt(m) => write!(f, "storage corrupt: {m}"),
            StoreError::MissingRecord(id) => write!(f, "missing record {id:#x}"),
            StoreError::InjectedCrash => write!(f, "injected checkpoint crash"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Slicing-by-8 tables for CRC-32 (IEEE, reflected): `TABLES[0]` is the
/// classic byte-at-a-time table, `TABLES[k][b]` the CRC of byte `b`
/// followed by `k` zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over a byte slice — the one
/// checksum of the repository: pages, WAL records, and (through
/// `exq_core::codec::crc32`) wire frames and persisted artifacts.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Inputs shorter than this stay on the tables: a fold needs four 16-byte
/// blocks to start and a fixed reduction to finish.
const FOLD_MIN_LEN: usize = 128;

/// Extends `crc`, the CRC-32 of some prefix (`0` for the empty one), over
/// `bytes`: `crc32_update(crc32(a), b) == crc32(a ‖ b)`, at any alignment.
/// Two kernels compute it, picked by CPU detection alone: carry-less
/// multiply folding where the CPU has `pclmulqdq` and the input is long
/// enough to pay for it, the slicing-by-8 tables everywhere else.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN_LEN && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU was just found to support `pclmulqdq`, the one
        // requirement of `crc32_update_folded`.
        return unsafe { crc32_update_folded(crc, bytes) };
    }
    crc32_update_tables(crc, bytes)
}

/// The portable kernel: eight bytes per step through [`CRC32_TABLES`].
fn crc32_update_tables(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The folding kernel (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", the reflected IEEE instance):
/// the leading whole 16-byte blocks — when there are at least four — are
/// folded by carry-less multiplication, and what follows them goes through
/// the tables, so any length is accepted and equals
/// [`crc32_update_tables`].
///
/// # Safety
/// The CPU must support `pclmulqdq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
unsafe fn crc32_update_folded(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    // x^(512±32), x^(128±32) and x^64 mod P, bit-reflected; then P itself
    // and μ = ⌊x^64 / P⌋ for the Barrett step.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    #[inline(always)]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("a 16-byte block");
        // SAFETY: `block` is 16 readable bytes, and an unaligned load asks
        // nothing else of its address.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `x` moved past the distance `k` encodes, plus the block found there.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    let (body, tail) = bytes.split_at(bytes.len() & !15);
    let mut quads = body.chunks_exact(64);
    let Some(first) = quads.next() else {
        return crc32_update_tables(crc, bytes);
    };

    // Four accumulators, 64 bytes a step.
    let mut x = [
        _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(!crc as i32)),
        load(&first[16..32]),
        load(&first[32..48]),
        load(&first[48..]),
    ];
    let k = _mm_set_epi64x(K2, K1);
    for quad in &mut quads {
        for (x, block) in x.iter_mut().zip(quad.chunks_exact(16)) {
            *x = fold(*x, k, load(block));
        }
    }
    // Four to one, then 16 bytes a step.
    let k = _mm_set_epi64x(K4, K3);
    let mut x = fold(fold(fold(x[0], k, x[1]), k, x[2]), k, x[3]);
    for block in quads.remainder().chunks_exact(16) {
        x = fold(x, k, load(block));
    }
    // 128 bits to 64, to 32 (Barrett).
    let low_words = _mm_setr_epi32(!0, 0, !0, 0);
    let x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k));
    let x = _mm_xor_si128(
        _mm_srli_si128::<4>(x),
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low_words), _mm_set_epi64x(0, K5)),
    );
    let p_mu = _mm_set_epi64x(MU, P);
    let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low_words), p_mu);
    let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low_words), p_mu);
    let c = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t))) as u32;
    crc32_update_tables(!c, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook bit-at-a-time CRC-32, as the reference.
    fn crc32_bitwise(crc: u32, bytes: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_multi_part_equals_concatenated() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32(&data), "split {split}");
        }
    }

    #[test]
    fn crc32_matches_reference_at_every_length_and_alignment() {
        // xorshift64: a fixed pseudo-random byte stream and length sequence.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let buf: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        let lens = (0..64)
            .chain([4095, 4096])
            .chain((0..100).map(|_| (next() % 4097) as usize));
        for len in lens {
            for align in 0..8 {
                let s = &buf[align..align + len];
                assert_eq!(crc32(s), crc32_bitwise(0, s), "len {len} align {align}");
            }
        }
    }

    /// Every kernel this host can run, by name: the dispatching entry point
    /// and the tables always, the folding kernel where the CPU has
    /// `pclmulqdq` — and a line saying so where it has not.
    type Kernel = fn(u32, &[u8]) -> u32;
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![
            ("dispatched", crc32_update),
            ("tables", crc32_update_tables),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: `pclmulqdq` was just detected.
            all.push(("folded", |c, b| unsafe { crc32_update_folded(c, b) }));
        }
        if all.len() == 2 {
            eprintln!("crc32: no pclmulqdq on this CPU, the folded kernel is skipped");
        }
        all
    }

    /// xorshift64: a fixed pseudo-random byte stream.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32_kernels_match_reference_at_every_length_and_alignment() {
        let buf = noise(1024 + 16);
        for (name, kernel) in kernels() {
            for len in 0..=1024 {
                for align in 0..16 {
                    let s = &buf[align..align + len];
                    assert_eq!(
                        kernel(0, s),
                        crc32_bitwise(0, s),
                        "{name} len {len} align {align}"
                    );
                }
            }
        }
    }

    #[test]
    fn crc32_kernels_extend_a_nonzero_crc() {
        let buf = noise(700);
        for (name, kernel) in kernels() {
            for crc in [1, 0xCBF4_3926, 0x8000_0000, !0] {
                for len in [0, 1, 15, 63, 64, 127, 128, 129, 300, 700] {
                    let s = &buf[..len];
                    assert_eq!(
                        kernel(crc, s),
                        crc32_bitwise(crc, s),
                        "{name} crc {crc:#x} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn crc32_kernels_chain_across_every_split_point() {
        let data = noise(300);
        let whole = crc32_bitwise(0, &data);
        for (name, kernel) in kernels() {
            for split in 0..=data.len() {
                let (a, b) = data.split_at(split);
                assert_eq!(kernel(kernel(0, a), b), whole, "{name} split {split}");
            }
        }
    }

    #[test]
    fn crc32_kernels_match_reference_on_long_inputs() {
        let buf = noise((2 << 20) + 1);
        for len in [(64 << 10) + 1, 2 << 20] {
            // Off the allocation's alignment, as a frame's checksummed tail is.
            let s = &buf[1..1 + len];
            let want = crc32_bitwise(0, s);
            for (name, kernel) in kernels() {
                assert_eq!(kernel(0, s), want, "{name} len {len}");
            }
        }
    }
}
