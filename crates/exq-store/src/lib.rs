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

pub mod obs;
pub mod page;
pub mod pool;
pub mod store;
pub mod vfs;
pub mod wal;

pub use obs::{set_observer, StoreObserver};
pub use page::{PageFile, DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, MIN_PAGE_SIZE, PAGE_HEADER_BYTES};
pub use pool::{BufferPool, PinnedPage, PoolStats};
pub use store::{
    CorruptRecord, PagedStore, ScrubReport, StoreFootprint, StoreOptions, StoreReader,
    SCRUB_DIRECTORY,
};
pub use vfs::{os_vfs, FaultConfig, FaultVfs, OpenMode, OsVfs, Vfs, VfsFile};
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
/// checksum kernel of the repository: pages, WAL records, and (through
/// `exq_core::codec::crc32`) wire frames and persisted artifacts.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends `crc`, the CRC-32 of some prefix (`0` for the empty one), over
/// `bytes`: `crc32_update(crc32(a), b) == crc32(a ‖ b)`. Eight bytes per
/// step, at any alignment.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook bit-at-a-time CRC-32, as the reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
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
                assert_eq!(crc32(s), crc32_bitwise(s), "len {len} align {align}");
            }
        }
    }
}
