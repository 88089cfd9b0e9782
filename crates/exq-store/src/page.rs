//! The page file: fixed-size pages with a CRC32 each, plus a
//! double-buffered superblock.
//!
//! Layout (all little-endian):
//!
//! ```text
//! page 0         superblock slot A ┐ alternating targets; the valid slot
//! page 1         superblock slot B ┘ with the higher version wins on open
//! page 2..N      data pages
//! ```
//!
//! Every page is `page_size` bytes: a 8-byte header — `crc32: u32` over
//! (`used` ‖ payload\[..used\]), `used: u32` — followed by the payload. A
//! torn or bit-flipped page fails its CRC on read and surfaces as a typed
//! [`StoreError::Corrupt`], never as garbage bytes.
//!
//! The superblock is an ordinary CRC'd page whose payload is the store
//! epoch: magic, monotone version, page size, the WAL sequence number the
//! checkpoint folded in, and the page chain holding the record directory.
//! Checkpoints write the *other* slot, so a kill mid-write leaves the
//! previous slot intact and recovery falls back to it.

use crate::vfs::{OpenMode, Vfs, VfsFile};
use crate::{crc32, StoreError};
use std::path::Path;

/// Default page size: 8 KiB (within the 4–16 KiB band native XML stores
/// use; big enough that a typical sealed block spans a handful of pages).
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Smallest allowed page size (tests use tiny pages to force multi-page
/// records and eviction with small data).
pub const MIN_PAGE_SIZE: usize = 128;

/// Largest allowed page size.
pub const MAX_PAGE_SIZE: usize = 1 << 20;

/// Bytes of per-page header (`crc32` + `used`).
pub const PAGE_HEADER_BYTES: usize = 8;

/// Superblock payload magic.
const SUPER_MAGIC: &[u8; 8] = b"EXQPGSB1";

/// The two reserved superblock page ids.
pub const SUPER_SLOTS: [u32; 2] = [0, 1];

/// A decoded superblock: the durable epoch the page file is at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// Monotone checkpoint version; the higher valid slot wins on open.
    pub version: u64,
    /// Page size this file was created with (fixed for the file's life).
    pub page_size: u64,
    /// Highest WAL sequence number folded into this checkpoint. Replay
    /// skips log records at or below it.
    pub wal_seq: u64,
    /// Total byte length of the encoded record directory.
    pub dir_len: u64,
    /// Page chain holding the encoded directory.
    pub dir_pages: Vec<u32>,
}

impl Superblock {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(44 + 4 * self.dir_pages.len());
        out.extend_from_slice(SUPER_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.page_size.to_le_bytes());
        out.extend_from_slice(&self.wal_seq.to_le_bytes());
        out.extend_from_slice(&self.dir_len.to_le_bytes());
        out.extend_from_slice(&(self.dir_pages.len() as u32).to_le_bytes());
        for &p in &self.dir_pages {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> Result<Superblock, StoreError> {
        let err = |m: &str| StoreError::Corrupt(format!("superblock: {m}"));
        if bytes.len() < 44 || &bytes[..8] != SUPER_MAGIC {
            return Err(err("bad magic"));
        }
        let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let version = u64_at(8);
        let page_size = u64_at(16);
        let wal_seq = u64_at(24);
        let dir_len = u64_at(32);
        let n = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
        if bytes.len() != 44 + 4 * n {
            return Err(err("directory chain length mismatch"));
        }
        let dir_pages = (0..n)
            .map(|i| u32::from_le_bytes(bytes[44 + 4 * i..48 + 4 * i].try_into().unwrap()))
            .collect();
        Ok(Superblock {
            version,
            page_size,
            wal_seq,
            dir_len,
            dir_pages,
        })
    }
}

/// Recovers a page file's page size from its head bytes without knowing it
/// in advance. `head` must hold the first `min(file_len, 2 * MAX_PAGE_SIZE)`
/// bytes of the file.
///
/// Slot 0 starts at offset 0, so when it is intact its CRC-validated
/// superblock names the size directly. When slot 0 is torn (a crash mid
/// superblock flip), slot 1 begins exactly one page in — so any
/// CRC-validated superblock whose file offset equals its own recorded page
/// size identifies it. Only when *both* slots fail does this return `None`.
pub fn probe_page_size(head: &[u8], file_len: u64) -> Option<usize> {
    let plausible = |sz: usize| {
        (MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&sz)
            && file_len >= 2 * sz as u64
            && file_len.is_multiple_of(sz as u64)
    };
    if let Some(sb) = decode_superblock_at(head, 0) {
        let sz = sb.page_size as usize;
        if plausible(sz) {
            return Some(sz);
        }
    }
    let scan_end = head
        .len()
        .saturating_sub(PAGE_HEADER_BYTES + SUPER_MAGIC.len());
    for pos in MIN_PAGE_SIZE..=scan_end.min(MAX_PAGE_SIZE) {
        if &head[pos + PAGE_HEADER_BYTES..pos + PAGE_HEADER_BYTES + 8] == SUPER_MAGIC
            && plausible(pos)
        {
            if let Some(sb) = decode_superblock_at(head, pos) {
                if sb.page_size as usize == pos {
                    return Some(pos);
                }
            }
        }
    }
    None
}

/// Decodes a CRC-valid superblock page starting at byte `off` of `head`,
/// without needing the page size (the CRC covers only the used payload).
fn decode_superblock_at(head: &[u8], off: usize) -> Option<Superblock> {
    let rest = head.get(off..)?;
    if rest.len() < PAGE_HEADER_BYTES {
        return None;
    }
    let stored = u32::from_le_bytes(rest[0..4].try_into().unwrap());
    let used = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
    if used > rest.len() - PAGE_HEADER_BYTES {
        return None;
    }
    if stored != crc32(&rest[4..PAGE_HEADER_BYTES + used]) {
        return None;
    }
    Superblock::decode(&rest[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + used]).ok()
}

/// The page file handle. All reads verify the per-page CRC; all writes
/// compute it. Not internally synchronized — [`PagedStore`] wraps it in a
/// lock.
///
/// [`PagedStore`]: crate::store::PagedStore
#[derive(Debug)]
pub struct PageFile {
    file: Box<dyn VfsFile>,
    page_size: usize,
    /// Pages currently allocated in the file (file length / page size).
    pages: u32,
}

impl PageFile {
    /// Creates a fresh page file with two zeroed (invalid) superblock
    /// slots. The caller must write a valid superblock before the file is
    /// openable.
    pub fn create(vfs: &dyn Vfs, path: &Path, page_size: usize) -> Result<PageFile, StoreError> {
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(StoreError::Corrupt(format!(
                "page size {page_size} outside [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
            )));
        }
        let mut file = vfs.open(path, OpenMode::CreateTruncate)?;
        file.set_len(2 * page_size as u64)?;
        Ok(PageFile {
            file,
            page_size,
            pages: 2,
        })
    }

    /// Opens an existing page file read-write. The caller passes the page
    /// size it expects (see [`probe_page_size`] for reading it from the
    /// file itself); the superblock read then validates it properly.
    pub fn open(vfs: &dyn Vfs, path: &Path, page_size: usize) -> Result<PageFile, StoreError> {
        let file = vfs.open(path, OpenMode::ReadWrite)?;
        Self::with_file(file, page_size)
    }

    /// Opens an existing page file for reading only — never writes, so it
    /// is safe against a store another process (or another handle in this
    /// one) currently owns. Calling [`write_page`](Self::write_page) on the
    /// result fails with an I/O error.
    pub fn open_read(vfs: &dyn Vfs, path: &Path, page_size: usize) -> Result<PageFile, StoreError> {
        let file = vfs.open(path, OpenMode::Read)?;
        Self::with_file(file, page_size)
    }

    fn with_file(mut file: Box<dyn VfsFile>, page_size: usize) -> Result<PageFile, StoreError> {
        let len = file.len()?;
        if page_size < MIN_PAGE_SIZE || len < 2 * page_size as u64 {
            return Err(StoreError::Corrupt(format!(
                "page file shorter than its superblocks ({len} bytes)"
            )));
        }
        let pages = (len / page_size as u64) as u32;
        Ok(PageFile {
            file,
            page_size,
            pages,
        })
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Usable payload bytes per page.
    pub fn payload_capacity(&self) -> usize {
        self.page_size - PAGE_HEADER_BYTES
    }

    /// Pages currently allocated (superblocks included).
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// Re-derives [`pages`](Self::pages) from the file's current length,
    /// which another handle on the same file may have extended.
    pub fn restat(&mut self) -> Result<u32, StoreError> {
        self.pages = (self.file.len()? / self.page_size as u64) as u32;
        Ok(self.pages)
    }

    /// On-disk size in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.pages as u64 * self.page_size as u64
    }

    /// Reads one page's payload, verifying the CRC.
    pub fn read_page(&mut self, id: u32) -> Result<Vec<u8>, StoreError> {
        // Another handle on the same file may have extended it since this
        // one snapshotted its length (checkpoints allocate fresh pages);
        // re-derive the count before declaring `id` bad.
        if id >= self.pages && id >= self.restat()? {
            return Err(StoreError::Corrupt(format!(
                "page {id} out of range (file has {})",
                self.pages
            )));
        }
        let mut buf = vec![0u8; self.page_size];
        self.file
            .read_exact_at(id as u64 * self.page_size as u64, &mut buf)?;
        let stored = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let used = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
        if used > self.payload_capacity() {
            return Err(StoreError::Corrupt(format!(
                "page {id}: used length {used} exceeds capacity"
            )));
        }
        let computed = crc32(&buf[4..PAGE_HEADER_BYTES + used]);
        if stored != computed {
            return Err(StoreError::Corrupt(format!(
                "page {id}: checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        buf.drain(..PAGE_HEADER_BYTES);
        buf.truncate(used);
        Ok(buf)
    }

    /// Writes one page's payload (must fit the capacity), extending the
    /// file if `id` is the next page. Durability is the caller's business
    /// ([`sync`](Self::sync)).
    pub fn write_page(&mut self, id: u32, payload: &[u8]) -> Result<(), StoreError> {
        if payload.len() > self.payload_capacity() {
            return Err(StoreError::Corrupt(format!(
                "payload {} exceeds page capacity {}",
                payload.len(),
                self.payload_capacity()
            )));
        }
        if id > self.pages {
            return Err(StoreError::Corrupt(format!(
                "non-contiguous page allocation: {id} > {}",
                self.pages
            )));
        }
        let mut buf = vec![0u8; self.page_size];
        buf[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        buf[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + payload.len()].copy_from_slice(payload);
        let crc = crc32(&buf[4..PAGE_HEADER_BYTES + payload.len()]);
        buf[0..4].copy_from_slice(&crc.to_le_bytes());
        self.file
            .write_all_at(id as u64 * self.page_size as u64, &buf)?;
        if id == self.pages {
            self.pages += 1;
        }
        Ok(())
    }

    /// fsync.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync()
    }

    /// Reads the newest valid superblock: tries both slots, tolerating a
    /// corrupt one (that is the double-buffering working as designed), and
    /// returns the valid slot with the highest version plus its slot index.
    pub fn read_superblock(&mut self) -> Result<(Superblock, usize), StoreError> {
        let mut best: Option<(Superblock, usize)> = None;
        for (slot, &page) in SUPER_SLOTS.iter().enumerate() {
            let Ok(payload) = self.read_page(page) else {
                continue;
            };
            let Ok(sb) = Superblock::decode(&payload) else {
                continue;
            };
            if sb.page_size != self.page_size as u64 {
                return Err(StoreError::Corrupt(format!(
                    "superblock page size {} does not match file page size {}",
                    sb.page_size, self.page_size
                )));
            }
            if best.as_ref().is_none_or(|(b, _)| sb.version > b.version) {
                best = Some((sb, slot));
            }
        }
        best.ok_or_else(|| StoreError::Corrupt("no valid superblock in either slot".into()))
    }

    /// Writes a superblock into the slot the *previous* valid one does not
    /// occupy, fsyncs, and returns. The data pages it references must
    /// already be durable (the caller syncs them first).
    pub fn write_superblock(
        &mut self,
        sb: &Superblock,
        previous_slot: usize,
    ) -> Result<(), StoreError> {
        let target = SUPER_SLOTS[(previous_slot + 1) % 2];
        let payload = sb.encode();
        if payload.len() > self.payload_capacity() {
            return Err(StoreError::Corrupt(format!(
                "directory chain too long for one superblock page ({} bytes)",
                payload.len()
            )));
        }
        self.write_page(target, &payload)?;
        self.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::OsVfs;
    use std::fs::OpenOptions;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("exq-store-page-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn page_roundtrip_and_crc() {
        let path = tmp("roundtrip.exqp");
        let mut f = PageFile::create(&OsVfs, &path, MIN_PAGE_SIZE).unwrap();
        f.write_page(2, b"hello pages").unwrap();
        f.write_page(3, &[]).unwrap();
        assert_eq!(f.read_page(2).unwrap(), b"hello pages");
        assert_eq!(f.read_page(3).unwrap(), b"");
        // Flip a payload bit on disk: the read must fail, not return junk.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut raw = OpenOptions::new().write(true).open(&path).unwrap();
            raw.seek(SeekFrom::Start(2 * MIN_PAGE_SIZE as u64 + 12))
                .unwrap();
            raw.write_all(&[0xFF]).unwrap();
        }
        let mut f = PageFile::open(&OsVfs, &path, MIN_PAGE_SIZE).unwrap();
        assert!(matches!(f.read_page(2), Err(StoreError::Corrupt(_))));
        assert_eq!(f.read_page(3).unwrap(), b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn superblock_two_slot_fallback() {
        let path = tmp("super.exqp");
        let mut f = PageFile::create(&OsVfs, &path, MIN_PAGE_SIZE).unwrap();
        // Fresh file: no valid superblock at all.
        assert!(f.read_superblock().is_err());
        let v1 = Superblock {
            version: 1,
            page_size: MIN_PAGE_SIZE as u64,
            wal_seq: 0,
            dir_len: 0,
            dir_pages: vec![],
        };
        f.write_superblock(&v1, 1).unwrap(); // lands in slot 0
        assert_eq!(f.read_superblock().unwrap(), (v1.clone(), 0));
        let v2 = Superblock {
            version: 2,
            wal_seq: 9,
            ..v1.clone()
        };
        f.write_superblock(&v2, 0).unwrap(); // lands in slot 1
        assert_eq!(f.read_superblock().unwrap(), (v2.clone(), 1));
        // Corrupt the newer slot: recovery falls back to version 1.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut raw = OpenOptions::new().write(true).open(&path).unwrap();
            raw.seek(SeekFrom::Start(MIN_PAGE_SIZE as u64 + 9)).unwrap();
            raw.write_all(&[0xAA]).unwrap();
        }
        let mut f = PageFile::open(&OsVfs, &path, MIN_PAGE_SIZE).unwrap();
        assert_eq!(f.read_superblock().unwrap(), (v1, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn probe_page_size_survives_torn_slot0() {
        let path = tmp("probe.exqp");
        let mut f = PageFile::create(&OsVfs, &path, 256).unwrap();
        let v1 = Superblock {
            version: 1,
            page_size: 256,
            wal_seq: 0,
            dir_len: 0,
            dir_pages: vec![],
        };
        f.write_superblock(&v1, 1).unwrap(); // slot 0
        let v2 = Superblock { version: 2, ..v1 };
        f.write_superblock(&v2, 0).unwrap(); // slot 1
        drop(f);
        let probe = |path: &Path| {
            let head = std::fs::read(path).unwrap();
            let len = head.len() as u64;
            probe_page_size(&head, len)
        };
        assert_eq!(probe(&path), Some(256), "intact slot 0");
        // Tear slot 0 (crash mid-flip targeting it): slot 1 still names it.
        let scribble = |path: &Path, off: u64| {
            use std::io::{Seek, SeekFrom, Write};
            let mut raw = OpenOptions::new().write(true).open(path).unwrap();
            raw.seek(SeekFrom::Start(off)).unwrap();
            raw.write_all(&[0xFF; 16]).unwrap();
        };
        scribble(&path, 0);
        assert_eq!(probe(&path), Some(256), "torn slot 0, intact slot 1");
        // Both slots torn: nothing to recover from.
        scribble(&path, 256);
        assert_eq!(probe(&path), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_capacity_enforced() {
        let path = tmp("cap.exqp");
        let mut f = PageFile::create(&OsVfs, &path, MIN_PAGE_SIZE).unwrap();
        let too_big = vec![0u8; MIN_PAGE_SIZE - PAGE_HEADER_BYTES + 1];
        assert!(f.write_page(2, &too_big).is_err());
        // Non-contiguous allocation is a bug, not silent file growth.
        assert!(f.write_page(9, b"x").is_err());
        std::fs::remove_file(&path).ok();
    }
}
