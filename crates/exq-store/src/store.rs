//! [`PagedStore`]: opaque records over pages, plus WAL and checkpointing.
//!
//! A store lives in its own directory holding two files:
//!
//! ```text
//! data.exqp   page file (superblocks + data pages, CRC each)
//! log.wal     write-ahead log
//! ```
//!
//! Records are variable-length byte strings keyed by `u64` ids. The
//! **directory** maps an id to `(len, page chain, offset in first page)` and
//! is itself stored in pages referenced by the superblock. Reads pin pages
//! through the buffer pool.
//!
//! ## Page layout
//!
//! A record that fits one page's payload shares a page with its neighbours
//! in id order: a page payload is nothing but record bytes laid end to end,
//! and the directory entry says which bytes are whose. A longer record owns
//! a chain of whole pages. A checkpoint lays its dirty records onto pages in
//! id order, starting the next page when a record does not fit what is left
//! of the current one — id order being, for the layers above, block order,
//! document order, and the order every answer ships blocks in — so a run of
//! consecutive ids costs one page fault, not one each.
//!
//! There is no slot directory inside a page because nothing is ever updated
//! in place: **a page that any published entry references is never written
//! again, so a part-filled page is never topped up.** A rewritten record
//! moves to a page of the checkpoint that rewrote it; the bytes it leaves
//! behind are dead until the last record on that page has moved or gone, at
//! which point no entry references the page and it is free.
//!
//! ## Checkpoint protocol (copy-on-write)
//!
//! 1. Write dirty records and the new directory into **free** pages only —
//!    pages no entry of the current durable directory references — extending
//!    the file as needed. The old state remains fully intact.
//! 2. `fsync` the page file.
//! 3. Write the new superblock (version+1, the folded `wal_seq`) into the
//!    *alternate* slot and `fsync`. This single page flip is the commit
//!    point: a kill before it recovers to the old state plus the log; a
//!    kill after it recovers to the new state.
//! 4. Compact the WAL, dropping records with `seq ≤ wal_seq`. A kill
//!    between 3 and 4 is harmless — replay skips records the superblock
//!    already covers.
//!
//! ## Reads do not wait on checkpoints
//!
//! The writer state (page file write handle, superblock, slot) lives behind
//! one mutex that a checkpoint holds for its whole fold; the *published*
//! record directory lives behind a separate short-lived mutex, and reads go
//! through a dedicated read-only file handle. Because a checkpoint only
//! ever writes **free** pages — never a page the published directory
//! references — a read that snapshotted the directory stays consistent for
//! as long as no new directory is published. Each publish bumps an epoch
//! counter; a read that observes the epoch changing retries (publishes are
//! instants, so at most once in practice), and after a few raced retries it
//! falls back to the writer lock, which excludes checkpoints entirely.

use crate::page::{self, PageFile, Superblock};
use crate::pool::{BufferPool, PinnedPage, PoolStats};
use crate::vfs::{os_vfs, OpenMode, Vfs};
use crate::wal::{Wal, WalRecord, WalReplay};
use crate::{StoreError, DEFAULT_PAGE_SIZE};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks a mutex, past any poisoning: a panicking holder (a failed
/// checkpoint on the background thread, say) must degrade the store, not
/// wedge every later caller behind a `PoisonError`. The store's invariants
/// are structured so any interrupted writer leaves recoverable state (the
/// copy-on-write protocol never touches published pages).
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub const DATA_FILE: &str = "data.exqp";
pub const WAL_FILE: &str = "log.wal";

/// Tuning knobs for opening/creating a store.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Page size for a *new* store; existing stores keep the size they
    /// were created with.
    pub page_size: usize,
    /// Buffer-pool budget in bytes.
    pub cache_bytes: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            page_size: DEFAULT_PAGE_SIZE,
            cache_bytes: 64 << 20,
        }
    }
}

/// Point-in-time on-disk / in-memory footprint of a store.
#[derive(Debug, Clone, Copy)]
pub struct StoreFootprint {
    /// Page file + WAL bytes on disk.
    pub disk_bytes: u64,
    /// Pages allocated in the page file (superblocks included).
    pub page_count: u64,
    /// Pages currently resident in the buffer pool.
    pub resident_pages: u64,
    /// Buffer-pool frame capacity.
    pub capacity_pages: u64,
    /// Records currently in the WAL awaiting checkpoint.
    pub wal_depth: u64,
    /// WAL file size in bytes.
    pub wal_bytes: u64,
    /// Pages the scrubber has quarantined (never reused for allocation).
    pub quarantined_pages: u64,
}

/// Test-only crash injection points inside [`PagedStore::checkpoint`].
pub mod crash {
    /// No injected crash (default).
    pub const NONE: u8 = 0;
    /// Fail after writing data/directory pages, before the fsync.
    pub const BEFORE_DATA_SYNC: u8 = 1;
    /// Fail after the data fsync, before the superblock flip.
    pub const BEFORE_FLIP: u8 = 2;
    /// Fail after the superblock flip, before WAL compaction.
    pub const BEFORE_COMPACT: u8 = 3;
}

/// Where a record lives: the bytes `[offset, offset + len)` of its one
/// page's payload, which other records may share — or, when it is longer
/// than a page, the concatenated payloads of a chain of whole pages it owns
/// (`offset` 0).
#[derive(Debug, Clone, PartialEq, Eq)]
struct RecordLoc {
    len: u64,
    pages: Vec<u32>,
    offset: u32,
}

type Directory = BTreeMap<u64, RecordLoc>;

/// Set in a directory entry's page count when an offset field follows it.
/// Entries written before records shared pages never carry it: they decode
/// as what they are, records at offset 0 of pages they own.
const HAS_OFFSET: u32 = 1 << 31;

impl RecordLoc {
    /// Reads the record through `page`, which fetches one page's payload:
    /// a slice of its one page, left pinned in `held` for the next record
    /// on that page, or the gathered payloads of its chain.
    fn read<'a, E: From<StoreError>>(
        &self,
        id: u64,
        held: &'a mut Held,
        mut page: impl FnMut(u32) -> Result<PinnedPage, E>,
    ) -> Result<Cow<'a, [u8]>, E> {
        let corrupt = |what: String| StoreError::Corrupt(format!("record {id:#x}: {what}"));
        if let [p] = self.pages[..] {
            if held.page != p {
                let pin = page(p)?;
                *held = Held { page: p, pin };
            }
            let start = self.offset as usize;
            let bytes = held.pin.get(start..start + self.len as usize);
            let outside = || format!("bytes {start}+{} lie outside its page", self.len);
            return Ok(Cow::Borrowed(bytes.ok_or_else(|| corrupt(outside()))?));
        }
        let mut out = Vec::with_capacity(self.len as usize);
        for &p in &self.pages {
            out.extend_from_slice(&page(p)?);
        }
        if out.len() as u64 != self.len {
            let (holds, says) = (out.len(), self.len);
            let what = format!("page chain holds {holds} bytes, directory says {says}");
            return Err(corrupt(what).into());
        }
        Ok(Cow::Owned(out))
    }
}

/// The shared page a checkpoint is filling: its payload so far and the
/// `(id, offset, len)` of each record in it.
#[derive(Default)]
struct SharedPage {
    image: Vec<u8>,
    records: Vec<(u64, u32, u64)>,
}

impl SharedPage {
    /// Writes the finished page as page `p` and enters its records in `dir`.
    fn close(self, p: u32, file: &mut PageFile, dir: &mut Directory) -> Result<(), StoreError> {
        file.write_page(p, &self.image)?;
        for (id, offset, len) in self.records {
            let pages = vec![p];
            dir.insert(id, RecordLoc { len, pages, offset });
        }
        Ok(())
    }
}

/// The shared page a run of reads last pinned. Page 0 is a superblock, which
/// no record lives on, so it stands for "none yet".
#[derive(Default)]
struct Held {
    page: u32,
    pin: PinnedPage,
}

/// Why a read through the pool did not produce a page.
enum PinError {
    /// A checkpoint published since the directory snapshot was taken, so the
    /// page may have been freed and rewritten: what was fetched, or failed to
    /// be, says nothing about that snapshot.
    Raced,
    Store(StoreError),
}

impl From<StoreError> for PinError {
    fn from(e: StoreError) -> PinError {
        PinError::Store(e)
    }
}

/// What one [`PagedStore::read_many`] call cost the buffer pool. A pool miss
/// is always followed by the disk read it calls for, so the faults count the
/// misses too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCost {
    /// Page lookups that found the page resident.
    pub pool_hits: u64,
    /// Pages read from disk.
    pub pages_faulted: u64,
    /// Frames the clock sweep evicted to make room for those pages.
    pub evictions: u64,
    /// Times a checkpoint published mid-read and the read carried on
    /// against the new directory.
    pub epoch_retries: u64,
}

/// Pseudo record id the scrubber reports when a *directory* page — not a
/// record's data page — fails its CRC. Repair is a forced directory
/// rewrite rather than a record rebuild.
pub const SCRUB_DIRECTORY: u64 = u64::MAX;

/// One record endangered by a corrupt page, surfaced by
/// [`PagedStore::scrub_step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptRecord {
    /// Record id (or [`SCRUB_DIRECTORY`]).
    pub id: u64,
    /// The pages it lives on that failed their CRC (now quarantined).
    pub pages: Vec<u32>,
}

/// What one bounded scrub step covered and found.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Distinct pages whose CRC was verified this step.
    pub scanned_pages: u64,
    /// The pages that failed, each quarantined once however many records
    /// share it.
    pub corrupt_pages: Vec<u32>,
    /// Every record with bytes on a corrupt page, awaiting repair by the
    /// layer above.
    pub corrupt: Vec<CorruptRecord>,
    /// True when this step finished a full pass over the store.
    pub completed_pass: bool,
}

/// The writer side of the store: held for the whole of a checkpoint, never
/// touched by reads.
#[derive(Debug)]
struct Inner {
    file: PageFile,
    superblock: Superblock,
    slot: usize,
}

/// The paged store. Internally synchronized; share via `Arc`.
#[derive(Debug)]
pub struct PagedStore {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    inner: Mutex<Inner>,
    /// The published record directory (BTreeMap so directory encoding —
    /// and thus checkpoint output — is deterministic). Locked only for
    /// lookups and the post-checkpoint swap, never across I/O.
    published: Mutex<Arc<Directory>>,
    /// Bumped on every directory publish; reads validate against it.
    dir_epoch: AtomicU64,
    /// Read-only page file handle serving [`get`](Self::get) misses.
    reader: Mutex<PageFile>,
    wal: Mutex<Wal>,
    pool: BufferPool,
    crash_at: AtomicU8,
    /// Pages whose CRC failed a scrub: suspected bad media, excluded from
    /// allocation for the store's lifetime (cleared by a reopen).
    quarantined: Mutex<HashSet<u32>>,
    /// Next page id a scrub step starts from (0 = start of a pass).
    scrub_cursor: Mutex<u32>,
}

impl PagedStore {
    /// Creates a fresh, empty store in `dir` on the real filesystem.
    pub fn create(dir: &Path, opts: StoreOptions) -> Result<PagedStore, StoreError> {
        Self::create_with(os_vfs(), dir, opts)
    }

    /// Creates a fresh, empty store in `dir` over the given [`Vfs`]
    /// (created if absent; existing store files are truncated).
    pub fn create_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        opts: StoreOptions,
    ) -> Result<PagedStore, StoreError> {
        vfs.create_dir_all(dir)?;
        let data_path = dir.join(DATA_FILE);
        let mut file = PageFile::create(&*vfs, &data_path, opts.page_size)?;
        let sb = Superblock {
            version: 1,
            page_size: opts.page_size as u64,
            wal_seq: 0,
            dir_len: 0,
            dir_pages: vec![],
        };
        file.write_superblock(&sb, 1)?; // lands in slot 0
        let reader = PageFile::open_read(&*vfs, &data_path, opts.page_size)?;
        let wal = Wal::create(Arc::clone(&vfs), &dir.join(WAL_FILE), 1)?;
        Ok(PagedStore {
            dir: dir.to_path_buf(),
            vfs,
            inner: Mutex::new(Inner {
                file,
                superblock: sb,
                slot: 0,
            }),
            published: Mutex::new(Arc::default()),
            dir_epoch: AtomicU64::new(0),
            reader: Mutex::new(reader),
            wal: Mutex::new(wal),
            pool: BufferPool::with_budget(opts.cache_bytes, opts.page_size),
            crash_at: AtomicU8::new(crash::NONE),
            quarantined: Mutex::new(HashSet::new()),
            scrub_cursor: Mutex::new(0),
        })
    }

    /// True if `dir` looks like a paged store (has a page file).
    pub fn exists(dir: &Path) -> bool {
        dir.join(DATA_FILE).is_file()
    }

    /// [`exists`](Self::exists) over an arbitrary [`Vfs`].
    pub fn exists_in(vfs: &dyn Vfs, dir: &Path) -> bool {
        vfs.exists(&dir.join(DATA_FILE))
    }

    /// Opens an existing store on the real filesystem.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<(PagedStore, WalReplay), StoreError> {
        Self::open_with(os_vfs(), dir, opts)
    }

    /// Opens an existing store, restoring the newest durable superblock
    /// and scanning the WAL. Returns the store plus the log records **not
    /// yet folded into the checkpoint** (`seq > superblock.wal_seq`) for
    /// the logical layer to replay.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        opts: StoreOptions,
    ) -> Result<(PagedStore, WalReplay), StoreError> {
        let data_path = dir.join(DATA_FILE);
        let page_size = Self::detect_page_size(&*vfs, &data_path, opts.page_size)?;
        let mut file = PageFile::open(&*vfs, &data_path, page_size)?;
        let (superblock, slot) = file.read_superblock()?;
        let directory = Self::load_directory(&mut file, &superblock)?;
        let reader = PageFile::open_read(&*vfs, &data_path, page_size)?;
        // The compacted log alone no longer remembers how far the sequence
        // advanced; floor it past everything the checkpoint covers so new
        // appends never reuse a folded sequence number.
        let (wal, mut replay) = Wal::open(
            Arc::clone(&vfs),
            &dir.join(WAL_FILE),
            superblock.wal_seq + 1,
        )?;
        // Records the checkpoint already folded in must not replay twice.
        replay.records.retain(|r| r.seq > superblock.wal_seq);
        Ok((
            PagedStore {
                dir: dir.to_path_buf(),
                vfs,
                inner: Mutex::new(Inner {
                    file,
                    superblock,
                    slot,
                }),
                published: Mutex::new(Arc::new(directory)),
                dir_epoch: AtomicU64::new(0),
                reader: Mutex::new(reader),
                wal: Mutex::new(wal),
                pool: BufferPool::with_budget(opts.cache_bytes, page_size),
                crash_at: AtomicU8::new(crash::NONE),
                quarantined: Mutex::new(HashSet::new()),
                scrub_cursor: Mutex::new(0),
            },
            replay,
        ))
    }

    /// Recovers the page size from the file via [`page::probe_page_size`]:
    /// a CRC-validated superblock in either slot names it, even when the
    /// other slot is torn mid-flip. Only when both slots fail does the
    /// caller's hint stand in (and the real superblock read then reports
    /// the corruption properly).
    fn detect_page_size(vfs: &dyn Vfs, path: &Path, hint: usize) -> Result<usize, StoreError> {
        let mut f = vfs.open(path, OpenMode::Read)?;
        let len = f.len()?;
        let head_len = len.min(2 * page::MAX_PAGE_SIZE as u64) as usize;
        let mut head = vec![0u8; head_len];
        f.read_exact_at(0, &mut head)?;
        Ok(page::probe_page_size(&head, len).unwrap_or(hint))
    }

    /// Reads and decodes the directory a superblock names. Every length and
    /// page id in it is checked here, against the file it came from, before
    /// anything allocates by one or follows the other.
    fn load_directory(file: &mut PageFile, sb: &Superblock) -> Result<Directory, StoreError> {
        let capacity = file.payload_capacity();
        let file_pages = file.restat()?;
        if sb.dir_len > (sb.dir_pages.len() * capacity) as u64 {
            return Err(StoreError::Corrupt(format!(
                "superblock: directory of {} bytes cannot fit its {} pages",
                sb.dir_len,
                sb.dir_pages.len()
            )));
        }
        let mut raw = Vec::with_capacity(sb.dir_len as usize);
        for &p in &sb.dir_pages {
            if p < 2 {
                return Err(StoreError::Corrupt(format!(
                    "superblock: directory chain names reserved page {p}"
                )));
            }
            raw.extend_from_slice(&file.read_page(p)?);
        }
        if raw.len() < sb.dir_len as usize {
            return Err(StoreError::Corrupt(format!(
                "directory pages hold {} bytes, superblock says {}",
                raw.len(),
                sb.dir_len
            )));
        }
        raw.truncate(sb.dir_len as usize);
        Self::decode_directory(&raw, capacity, file_pages)
    }

    fn encode_directory(dir: &Directory) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(dir.len() as u64).to_le_bytes());
        for (id, loc) in dir {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&loc.len.to_le_bytes());
            let n = loc.pages.len() as u32;
            if loc.offset == 0 {
                out.extend_from_slice(&n.to_le_bytes());
            } else {
                out.extend_from_slice(&(n | HAS_OFFSET).to_le_bytes());
                out.extend_from_slice(&loc.offset.to_le_bytes());
            }
            for &p in &loc.pages {
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a directory image for a file of `file_pages` pages with
    /// `capacity` payload bytes each. An entry that could not describe a
    /// record in such a file — a page outside it, more bytes than its pages
    /// hold, a slice past the end of its page — is corruption.
    fn decode_directory(
        raw: &[u8],
        capacity: usize,
        file_pages: u32,
    ) -> Result<Directory, StoreError> {
        let err = |m: &str| StoreError::Corrupt(format!("directory: {m}"));
        let u32_at = |b: &[u8], i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        let u64_at = |b: &[u8], i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        let (head, mut rest) = raw
            .split_at_checked(8)
            .ok_or_else(|| err("truncated header"))?;
        let count = u64_at(head, 0);
        if count > (rest.len() / 20) as u64 {
            return Err(err("more entries than the bytes present could hold"));
        }
        let mut take = |n: usize, what: &str| {
            let (taken, tail) = rest.split_at_checked(n).ok_or_else(|| err(what))?;
            rest = tail;
            Ok::<_, StoreError>(taken)
        };
        let mut dir = BTreeMap::new();
        for _ in 0..count {
            let entry = take(20, "truncated entry")?;
            let (id, len, n) = (u64_at(entry, 0), u64_at(entry, 8), u32_at(entry, 16));
            let offset = match n & HAS_OFFSET {
                0 => 0,
                _ => u32_at(take(4, "truncated offset")?, 0),
            };
            let n = (n & !HAS_OFFSET) as usize;
            let pages: Vec<u32> = take(4 * n, "truncated page chain")?
                .chunks_exact(4)
                .map(|b| u32_at(b, 0))
                .collect();
            if pages.iter().any(|p| !(2..file_pages).contains(p)) {
                return Err(err("entry names a page outside the file"));
            }
            let fits = match n {
                1 => len
                    .checked_add(offset as u64)
                    .is_some_and(|end| end <= capacity as u64),
                _ => offset == 0 && n <= file_pages as usize && len <= (n * capacity) as u64,
            };
            if !fits {
                return Err(err("entry holds more bytes than its pages can"));
            }
            dir.insert(id, RecordLoc { len, pages, offset });
        }
        if !rest.is_empty() {
            return Err(err("trailing bytes"));
        }
        Ok(dir)
    }

    /// Directory path this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of records in the directory.
    pub fn record_count(&self) -> usize {
        locked(&self.published).len()
    }

    /// Whether the directory holds a record with this id.
    pub fn contains(&self, id: u64) -> bool {
        locked(&self.published).contains_key(&id)
    }

    /// All record ids, ascending.
    pub fn record_ids(&self) -> Vec<u64> {
        locked(&self.published).keys().copied().collect()
    }

    /// Reads one record, pinning its pages through the buffer pool.
    pub fn get(&self, id: u64) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::new();
        self.read_many(&[id], |_, bytes| {
            out = bytes.into_owned();
            Ok(())
        })?;
        Ok(out)
    }

    /// Reads the records `ids` in the order given, handing `visit` each
    /// one's position in `ids` and its bytes — for a record that fits a
    /// page, a slice of the pinned frame itself. Consecutive records on one
    /// page share one pin, so ids in ascending order (the order a checkpoint
    /// packs them in) cost one pool lookup per page, not per record.
    ///
    /// Never waits on a running checkpoint: the directory snapshot is one
    /// short critical section and page misses go through the read-only
    /// handle. Each record is read whole against one directory epoch; a
    /// batch that a checkpoint publishes across carries on from the first
    /// record not yet delivered, against the new directory.
    ///
    /// Returns what the reads cost the pool, for the caller to charge to
    /// whatever it is serving.
    pub fn read_many(
        &self,
        ids: &[u64],
        mut visit: impl FnMut(usize, Cow<[u8]>) -> Result<(), StoreError>,
    ) -> Result<ReadCost, StoreError> {
        let mut next = 0;
        let mut cost = ReadCost::default();
        // A checkpoint publishing mid-read invalidates the directory
        // snapshot the read used; retry (at most once in practice — a
        // publish is an instant, not the checkpoint's whole duration).
        for _ in 0..8 {
            if self.read_from(ids, &mut next, &mut visit, &mut cost)? {
                return Ok(cost);
            }
            cost.epoch_retries += 1;
        }
        // Pathological publish rate: the writer lock excludes checkpoints,
        // so under it the snapshot cannot be invalidated.
        let _writer = locked(&self.inner);
        if self.read_from(ids, &mut next, &mut visit, &mut cost)? {
            return Ok(cost);
        }
        Err(StoreError::Corrupt(format!(
            "record {:#x}: directory epoch changed under the writer lock",
            ids[next]
        )))
    }

    /// The published directory and the epoch it was published at, read
    /// under the one lock a publish swaps and bumps them under.
    fn snapshot(&self) -> (u64, Arc<Directory>) {
        let dir = locked(&self.published);
        (self.dir_epoch.load(Ordering::SeqCst), Arc::clone(&dir))
    }

    /// Delivers `ids[*next..]` against one directory snapshot. `Ok(false)`
    /// means a checkpoint published before the record at `*next` was read
    /// whole; every record before it has been delivered.
    fn read_from(
        &self,
        ids: &[u64],
        next: &mut usize,
        visit: &mut impl FnMut(usize, Cow<[u8]>) -> Result<(), StoreError>,
        cost: &mut ReadCost,
    ) -> Result<bool, StoreError> {
        let (epoch, dir) = self.snapshot();
        let mut held = Held::default();
        while let Some(&id) = ids.get(*next) {
            // Present-or-absent was decided at one consistent instant, so a
            // miss needs no retry.
            let loc = dir.get(&id).ok_or(StoreError::MissingRecord(id))?;
            match loc.read(id, &mut held, |p| self.pin(p, epoch, cost)) {
                Ok(bytes) => visit(*next, bytes)?,
                Err(PinError::Raced) => return Ok(false),
                Err(PinError::Store(e)) => return Err(e),
            }
            *next += 1;
        }
        Ok(true)
    }

    /// Pins page `p` as the directory published at `epoch` describes it:
    /// from the pool, else from disk, adding what that took to `cost`.
    fn pin(&self, p: u32, epoch: u64, cost: &mut ReadCost) -> Result<PinnedPage, PinError> {
        let raced = || self.dir_epoch.load(Ordering::SeqCst) != epoch;
        let pin = match self.pool.get(p) {
            Some(pin) => {
                cost.pool_hits += 1;
                pin
            }
            None => {
                // The stamp is captured before the disk read: if an
                // invalidation (checkpoint rewriting pages) races the
                // read, insert_if refuses to cache possibly-stale bytes.
                let stamp = self.pool.stamp();
                let payload = { locked(&self.reader).read_page(p) };
                cost.pages_faulted += 1;
                match payload {
                    Ok(payload) => {
                        let (pin, evicted) = self.pool.insert_if(stamp, p, payload);
                        cost.evictions += evicted as u64;
                        pin
                    }
                    Err(_) if raced() => return Err(PinError::Raced),
                    Err(e) => return Err(e.into()),
                }
            }
        };
        if raced() {
            return Err(PinError::Raced);
        }
        Ok(pin)
    }

    /// Appends a logical record to the WAL and fsyncs. `Ok(seq)` means the
    /// mutation is committed.
    pub fn append_wal(&self, kind: u8, payload: &[u8]) -> Result<u64, StoreError> {
        locked(&self.wal).append(kind, payload)
    }

    /// Highest WAL sequence folded into the durable checkpoint.
    pub fn checkpointed_seq(&self) -> u64 {
        locked(&self.inner).superblock.wal_seq
    }

    /// Sequence number the next WAL append will use.
    pub fn wal_next_seq(&self) -> u64 {
        locked(&self.wal).next_seq()
    }

    /// Arms a one-shot crash injection point (see [`crash`]) for the next
    /// [`checkpoint`](Self::checkpoint) call. Test-only.
    pub fn inject_checkpoint_crash(&self, point: u8) {
        self.crash_at.store(point, Ordering::SeqCst);
    }

    fn crash_if(&self, point: u8) -> Result<(), StoreError> {
        if self.crash_at.load(Ordering::SeqCst) == point {
            self.crash_at.store(crash::NONE, Ordering::SeqCst);
            return Err(StoreError::InjectedCrash);
        }
        Ok(())
    }

    /// Folds dirty records into the page file (copy-on-write) and declares
    /// every WAL record with `seq ≤ wal_seq` durable, then compacts the
    /// log. `None` content removes the record. Returns the number of pages
    /// written ("folded") by this checkpoint — data and directory pages —
    /// so the layer above can account checkpoint I/O per database.
    pub fn checkpoint(
        &self,
        dirty: &[(u64, Option<Vec<u8>>)],
        wal_seq: u64,
    ) -> Result<u64, StoreError> {
        self.checkpoint_impl(dirty, wal_seq, false)
    }

    /// Rewrites the given records (and, always, the directory) through the
    /// ordinary copy-on-write fold without advancing the folded WAL
    /// sequence: the scrubber's repair primitive. Because the fold only
    /// writes free, non-quarantined pages, the rebuilt records land on
    /// fresh media and the corrupt pages become unreferenced.
    pub fn rewrite_records(&self, dirty: &[(u64, Option<Vec<u8>>)]) -> Result<u64, StoreError> {
        let seq = self.checkpointed_seq();
        self.checkpoint_impl(dirty, seq, true)
    }

    fn checkpoint_impl(
        &self,
        dirty: &[(u64, Option<Vec<u8>>)],
        wal_seq: u64,
        force: bool,
    ) -> Result<u64, StoreError> {
        let mut inner = locked(&self.inner);
        if !force && dirty.is_empty() && wal_seq <= inner.superblock.wal_seq {
            return Ok(0);
        }
        let (_, cur_dir) = self.snapshot();
        // Pages the current durable state references: never overwrite them.
        // (This is also what keeps in-flight reads safe without a lock —
        // they only ever touch pages the published directory references —
        // and why a part-filled page is left as it is: topping it up would
        // be a write to a referenced page.)
        let mut referenced: HashSet<u32> = [0u32, 1].into_iter().collect();
        for loc in cur_dir.values() {
            referenced.extend(loc.pages.iter().copied());
        }
        referenced.extend(inner.superblock.dir_pages.iter().copied());

        let quarantined = locked(&self.quarantined).clone();
        let total = inner.file.pages();
        let mut free: Vec<u32> = (2..total)
            .filter(|p| !referenced.contains(p) && !quarantined.contains(p))
            .collect();
        free.reverse(); // pop() yields the lowest ids first
        let mut next_new = total;
        let mut written: Vec<u32> = Vec::new();
        let mut alloc = || -> u32 {
            let p = free.pop().unwrap_or_else(|| {
                next_new += 1;
                next_new - 1
            });
            written.push(p);
            p
        };

        let capacity = inner.file.payload_capacity();
        let mut new_dir = Directory::clone(&cur_dir);
        // Id order, the last write of an id winning: what is packed where
        // depends on the dirty set alone, and neighbours in id order — the
        // order the layers above read in — land on the same page.
        let dirty: BTreeMap<u64, Option<&[u8]>> =
            dirty.iter().map(|(id, c)| (*id, c.as_deref())).collect();
        // A record longer than a page is cut into whole pages of its own;
        // any other goes onto the open shared page, which is written, and
        // the next one opened, when a record does not fit what is left of it.
        let mut open = SharedPage::default();
        for (id, content) in dirty {
            let Some(bytes) = content else {
                new_dir.remove(&id);
                continue;
            };
            let len = bytes.len() as u64;
            if bytes.len() > capacity {
                let mut pages = Vec::new();
                for chunk in bytes.chunks(capacity) {
                    let p = alloc();
                    inner.file.write_page(p, chunk)?;
                    pages.push(p);
                }
                let offset = 0;
                new_dir.insert(id, RecordLoc { len, pages, offset });
                continue;
            }
            if open.image.len() + bytes.len() > capacity {
                std::mem::take(&mut open).close(alloc(), &mut inner.file, &mut new_dir)?;
            }
            open.records.push((id, open.image.len() as u32, len));
            open.image.extend_from_slice(bytes);
        }
        if !open.records.is_empty() {
            open.close(alloc(), &mut inner.file, &mut new_dir)?;
        }

        let encoded = Self::encode_directory(&new_dir);
        let mut dir_pages = Vec::new();
        let mut dir_chunks: Vec<&[u8]> = encoded.chunks(capacity).collect();
        if dir_chunks.is_empty() {
            dir_chunks.push(&[]);
        }
        for chunk in dir_chunks {
            let p = alloc();
            inner.file.write_page(p, chunk)?;
            dir_pages.push(p);
        }

        self.crash_if(crash::BEFORE_DATA_SYNC)?;
        inner.file.sync()?;
        self.crash_if(crash::BEFORE_FLIP)?;

        let sb = Superblock {
            version: inner.superblock.version + 1,
            page_size: inner.superblock.page_size,
            wal_seq: wal_seq.max(inner.superblock.wal_seq),
            dir_len: encoded.len() as u64,
            dir_pages,
        };
        let slot = inner.slot;
        inner.file.write_superblock(&sb, slot)?;
        inner.slot = (slot + 1) % 2;
        inner.superblock = sb;
        // Freshly written pages may shadow stale frames cached from an
        // earlier epoch (free-page reuse): drop them *before* publishing
        // the new directory, so no reader can reach them through it.
        self.pool.invalidate(&written);
        {
            let mut dir = locked(&self.published);
            *dir = Arc::new(new_dir);
            self.dir_epoch.fetch_add(1, Ordering::SeqCst);
        }
        drop(inner);

        self.crash_if(crash::BEFORE_COMPACT)?;
        locked(&self.wal).compact(wal_seq)?;
        Ok(written.len() as u64)
    }

    /// Verifies the CRCs of up to `max_pages` referenced pages against the
    /// *disk* image (the buffer pool is deliberately bypassed — a cached
    /// frame can mask rotted media indefinitely). The page is the scrub
    /// unit: each referenced page is verified once per pass however many
    /// records share it, and a corrupt one is quarantined (excluded from
    /// future allocation) once and reported for *every* record with bytes
    /// on it, for the layer above to rebuild via
    /// [`rewrite_records`](Self::rewrite_records).
    ///
    /// Each call is one bounded step of a cyclic pass in page-id order: the
    /// cursor persists across calls, so a background thread can spread a
    /// full-store scan over many idle ticks. Runs under the writer lock
    /// (excluding checkpoints) so the directory cannot shift mid-scan;
    /// reads stay unaffected.
    pub fn scrub_step(&self, max_pages: usize) -> Result<ScrubReport, StoreError> {
        let mut inner = locked(&self.inner);
        let mut cursor = locked(&self.scrub_cursor);
        let mut report = ScrubReport::default();

        // Every referenced page this pass has yet to verify, and whose
        // bytes it holds.
        let mut owners: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let (_, dir) = self.snapshot();
        let directory = inner.superblock.dir_pages.iter();
        let records = dir
            .iter()
            .flat_map(|(&id, loc)| loc.pages.iter().map(move |p| (p, id)));
        for (&p, id) in directory.map(|p| (p, SCRUB_DIRECTORY)).chain(records) {
            if p >= *cursor {
                owners.entry(p).or_default().push(id);
            }
        }

        let mut corrupt: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut todo = owners.iter();
        *cursor = loop {
            let Some((&p, ids)) = todo.next() else {
                report.completed_pass = true;
                break 0;
            };
            if report.scanned_pages == max_pages as u64 {
                break p; // resume here next tick
            }
            report.scanned_pages += 1;
            // A read error is not a corruption verdict; the page stays
            // unverified and the next pass retries.
            if let Err(StoreError::Corrupt(_)) = inner.file.read_page(p) {
                // Deliberately do NOT drop the pool frame of a quarantined
                // page: a cached frame passed its CRC when it was read, so
                // it is the last good copy of rotted media — both the bytes
                // readers keep being served and the source
                // [`salvage_record`] re-seals every record on the page
                // from. Quarantine only stops the *page slot* from being
                // reallocated; the frame dies naturally when the clock
                // evicts it.
                locked(&self.quarantined).insert(p);
                report.corrupt_pages.push(p);
                for &id in ids {
                    corrupt.entry(id).or_default().push(p);
                }
            }
        };
        report.corrupt = corrupt
            .into_iter()
            .map(|(id, pages)| CorruptRecord { id, pages })
            .collect();
        Ok(report)
    }

    /// Best-effort recovery of a record whose disk image is corrupt: reads
    /// it from buffer-pool frames (CRC-verified when they were loaded)
    /// where it can, falling back to disk for pages the pool does not hold.
    /// `None` when any page is unobtainable from either source.
    pub fn salvage_record(&self, id: u64) -> Option<Vec<u8>> {
        let (_, dir) = self.snapshot();
        let mut inner = locked(&self.inner);
        let page = |p| match self.pool.get(p) {
            Some(pin) => Ok(pin),
            None => inner.file.read_page(p).map(PinnedPage::from),
        };
        let mut held = Held::default();
        let read = dir.get(&id)?.read::<StoreError>(id, &mut held, page);
        Some(read.ok()?.into_owned())
    }

    /// Every decodable record currently in the WAL file (folded or not):
    /// the scrubber's other repair source, for records whose insert is
    /// still in the log tail.
    pub fn wal_records(&self) -> Result<Vec<WalRecord>, StoreError> {
        locked(&self.wal).records()
    }

    /// fsyncs the WAL and page file without writing anything: degraded
    /// mode's "is storage answering again?" recovery probe.
    pub fn probe_sync(&self) -> Result<(), StoreError> {
        locked(&self.wal).probe_sync()?;
        locked(&self.inner).file.sync()
    }

    /// Pages currently quarantined by the scrubber.
    pub fn quarantined_pages(&self) -> u64 {
        locked(&self.quarantined).len() as u64
    }

    /// The [`Vfs`] this store was opened against.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }

    /// The on-disk pages currently published for `id` — one it may share,
    /// or a chain it owns (repair tooling uses this to correlate scrub
    /// reports with records).
    pub fn record_pages(&self, id: u64) -> Option<Vec<u32>> {
        locked(&self.published).get(&id).map(|l| l.pages.clone())
    }

    /// Buffer-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// On-disk and residency footprint.
    pub fn footprint(&self) -> StoreFootprint {
        let inner = locked(&self.inner);
        let (page_bytes, pages) = (inner.file.disk_bytes(), inner.file.pages());
        drop(inner);
        let wal = locked(&self.wal);
        let (wal_bytes, wal_depth) = (wal.bytes(), wal.depth());
        drop(wal);
        let pool = self.pool.stats();
        StoreFootprint {
            disk_bytes: page_bytes + wal_bytes,
            page_count: pages as u64,
            resident_pages: pool.resident_pages,
            capacity_pages: pool.capacity_pages,
            wal_depth,
            wal_bytes,
            quarantined_pages: self.quarantined_pages(),
        }
    }
}

/// A read-only snapshot view of a store directory, for inspection and
/// reporting tools (`exq db list`). Opens **nothing** for writing: the WAL
/// is scanned via [`Wal::replay`] — no torn-tail truncation, no compaction
/// — and pages go through a read-only handle, so it is safe to run against
/// a store a live server currently owns. The view is the last durable
/// checkpoint; [`StoreReader::wal_depth`] reports how many committed
/// mutations are still pending on top of it.
#[derive(Debug)]
pub struct StoreReader {
    file: PageFile,
    superblock: Superblock,
    directory: Directory,
    wal_depth: u64,
    wal_bytes: u64,
}

impl StoreReader {
    /// Opens a read-only view of the store in `dir`. `page_size_hint` is
    /// only consulted when both superblock slots fail to name the size.
    pub fn open(dir: &Path, page_size_hint: usize) -> Result<StoreReader, StoreError> {
        Self::open_with(os_vfs(), dir, page_size_hint)
    }

    /// [`open`](Self::open) against an explicit [`Vfs`].
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        page_size_hint: usize,
    ) -> Result<StoreReader, StoreError> {
        let data_path = dir.join(DATA_FILE);
        let page_size = PagedStore::detect_page_size(&*vfs, &data_path, page_size_hint)?;
        let mut file = PageFile::open_read(&*vfs, &data_path, page_size)?;
        let (superblock, _slot) = file.read_superblock()?;
        let directory = PagedStore::load_directory(&mut file, &superblock)?;
        let wal_path = dir.join(WAL_FILE);
        let replay = Wal::replay_with(&*vfs, &wal_path)?;
        let wal_depth = replay
            .records
            .iter()
            .filter(|r| r.seq > superblock.wal_seq)
            .count() as u64;
        let wal_bytes = vfs.open(&wal_path, OpenMode::Read)?.len()?;
        Ok(StoreReader {
            file,
            superblock,
            directory,
            wal_depth,
            wal_bytes,
        })
    }

    /// Reads one record as of the last durable checkpoint.
    pub fn get(&mut self, id: u64) -> Result<Vec<u8>, StoreError> {
        let loc = self
            .directory
            .get(&id)
            .ok_or(StoreError::MissingRecord(id))?;
        let page = |p| self.file.read_page(p).map(PinnedPage::from);
        let mut held = Held::default();
        Ok(loc.read::<StoreError>(id, &mut held, page)?.into_owned())
    }

    /// Number of records in the checkpointed directory.
    pub fn record_count(&self) -> usize {
        self.directory.len()
    }

    /// Whether the checkpointed directory holds a record with this id.
    pub fn contains(&self, id: u64) -> bool {
        self.directory.contains_key(&id)
    }

    /// The durable superblock this view reflects.
    pub fn superblock(&self) -> &Superblock {
        &self.superblock
    }

    /// Committed WAL records not yet folded into the checkpoint.
    pub fn wal_depth(&self) -> u64 {
        self.wal_depth
    }

    /// On-disk footprint. There is no buffer pool behind a reader, so the
    /// residency fields are zero.
    pub fn footprint(&self) -> StoreFootprint {
        StoreFootprint {
            disk_bytes: self.file.disk_bytes() + self.wal_bytes,
            page_count: self.file.pages() as u64,
            resident_pages: 0,
            capacity_pages: 0,
            wal_depth: self.wal_depth,
            wal_bytes: self.wal_bytes,
            quarantined_pages: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("exq-store-store-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_opts() -> StoreOptions {
        StoreOptions {
            page_size: crate::MIN_PAGE_SIZE,
            cache_bytes: 4 * crate::MIN_PAGE_SIZE, // 4 frames: constant eviction
        }
    }

    #[test]
    fn checkpoint_get_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        let store = PagedStore::create(&dir, tiny_opts()).unwrap();
        // Record 2 spans multiple tiny pages.
        let big: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        store
            .checkpoint(
                &[
                    (1, Some(b"small".to_vec())),
                    (2, Some(big.clone())),
                    (3, Some(vec![])),
                ],
                0,
            )
            .unwrap();
        assert_eq!(store.get(1).unwrap(), b"small");
        assert_eq!(store.get(2).unwrap(), big);
        assert_eq!(store.get(3).unwrap(), b"");
        assert!(matches!(store.get(9), Err(StoreError::MissingRecord(9))));
        drop(store);
        let (store, replay) = PagedStore::open(&dir, tiny_opts()).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(store.record_count(), 3);
        assert_eq!(store.get(2).unwrap(), big);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cow_checkpoint_reuses_free_pages_without_stale_reads() {
        let dir = tmpdir("cow");
        let store = PagedStore::create(&dir, tiny_opts()).unwrap();
        let a: Vec<u8> = vec![0xAA; 500];
        let b: Vec<u8> = vec![0xBB; 500];
        store.checkpoint(&[(1, Some(a))], 0).unwrap();
        let pages_after_first = store.footprint().page_count;
        // Read to warm the pool, then rewrite the record several times:
        // free-page reuse must not grow the file unboundedly or serve
        // stale cached frames.
        for round in 0..5u8 {
            assert!(store.get(1).is_ok());
            let fresh: Vec<u8> = vec![0xB0 | round; 500];
            store.checkpoint(&[(1, Some(fresh.clone()))], 0).unwrap();
            assert_eq!(store.get(1).unwrap(), fresh, "round {round}");
        }
        let pages_final = store.footprint().page_count;
        // Old + new copies coexist transiently, so at most ~2x the single
        // copy footprint plus directory pages.
        assert!(
            pages_final <= pages_after_first * 2 + 4,
            "file grew {pages_after_first} -> {pages_final} pages"
        );
        store.checkpoint(&[(2, Some(b.clone()))], 0).unwrap();
        assert_eq!(store.get(2).unwrap(), b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_records_replay_only_once() {
        let dir = tmpdir("replay-once");
        let store = PagedStore::create(&dir, tiny_opts()).unwrap();
        let s1 = store.append_wal(7, b"one").unwrap();
        let _s2 = store.append_wal(7, b"two").unwrap();
        // Checkpoint folds seq 1 only.
        store.checkpoint(&[(1, Some(b"x".to_vec()))], s1).unwrap();
        drop(store);
        let (_store, replay) = PagedStore::open(&dir, tiny_opts()).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2], "only the unfolded record replays");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_injection_preserves_old_state() {
        for point in [crash::BEFORE_DATA_SYNC, crash::BEFORE_FLIP] {
            let dir = tmpdir(&format!("crash-{point}"));
            let store = PagedStore::create(&dir, tiny_opts()).unwrap();
            store
                .checkpoint(&[(1, Some(b"stable".to_vec()))], 0)
                .unwrap();
            let seq = store.append_wal(9, b"pending").unwrap();
            store.inject_checkpoint_crash(point);
            let err = store
                .checkpoint(&[(1, Some(b"NEWER".to_vec()))], seq)
                .unwrap_err();
            assert!(matches!(err, StoreError::InjectedCrash));
            drop(store);
            // Reopen: old record intact, WAL record still pending replay.
            let (store, replay) = PagedStore::open(&dir, tiny_opts()).unwrap();
            assert_eq!(store.get(1).unwrap(), b"stable");
            assert_eq!(replay.records.len(), 1);
            assert_eq!(replay.records[0].payload, b"pending");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn crash_between_flip_and_compact_skips_folded_records() {
        let dir = tmpdir("crash-compact");
        let store = PagedStore::create(&dir, tiny_opts()).unwrap();
        let seq = store.append_wal(9, b"folded").unwrap();
        store.inject_checkpoint_crash(crash::BEFORE_COMPACT);
        let err = store
            .checkpoint(&[(1, Some(b"new".to_vec()))], seq)
            .unwrap_err();
        assert!(matches!(err, StoreError::InjectedCrash));
        drop(store);
        // The flip landed, so the new state is durable and the stale WAL
        // record must NOT replay again.
        let (store, replay) = PagedStore::open(&dir, tiny_opts()).unwrap();
        assert_eq!(store.get(1).unwrap(), b"new");
        assert!(replay.records.is_empty());
        assert_eq!(store.checkpointed_seq(), seq);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_seq_stays_monotone_across_compaction_and_reopen() {
        let dir = tmpdir("seq-floor");
        let store = PagedStore::create(&dir, tiny_opts()).unwrap();
        store.append_wal(1, b"one").unwrap();
        let s2 = store.append_wal(1, b"two").unwrap();
        // Fold both records: the WAL compacts to empty.
        store.checkpoint(&[(1, Some(b"x".to_vec()))], s2).unwrap();
        drop(store);
        // Reopen the now-empty log: the next sequence must start past the
        // superblock's wal_seq, not back at 1.
        let (store, replay) = PagedStore::open(&dir, tiny_opts()).unwrap();
        assert!(replay.records.is_empty());
        let s3 = store.append_wal(1, b"after-reopen").unwrap();
        assert!(s3 > s2, "seq {s3} must exceed folded seq {s2}");
        drop(store);
        // The fsync-acknowledged mutation must survive the next recovery
        // instead of being retained away as already-folded.
        let (store, replay) = PagedStore::open(&dir, tiny_opts()).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].payload, b"after-reopen");
        assert_eq!(replay.records[0].seq, s3);
        assert_eq!(store.checkpointed_seq(), s2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_recovers_page_size_from_slot1_when_slot0_is_torn() {
        let dir = tmpdir("torn-slot0");
        // Non-default page size: a hint-based fallback cannot guess it.
        let store = PagedStore::create(&dir, tiny_opts()).unwrap();
        store
            .checkpoint(&[(1, Some(b"survivor".to_vec()))], 0)
            .unwrap(); // newest superblock lands in slot 1
        drop(store);
        // Tear slot 0, as a crash mid-flip targeting it would.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut raw = std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join(DATA_FILE))
                .unwrap();
            raw.seek(SeekFrom::Start(0)).unwrap();
            raw.write_all(&[0xFF; 32]).unwrap();
        }
        // Open with the *default* options: the hint (8 KiB) is wrong, so
        // only probing slot 1 can recover the real size.
        let (store, replay) = PagedStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(store.get(1).unwrap(), b"survivor");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reads_stay_consistent_during_concurrent_checkpoints() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let dir = tmpdir("concurrent");
        let store = Arc::new(PagedStore::create(&dir, tiny_opts()).unwrap());
        // A multi-page record, so one read spans several pool lookups, and
        // three small ones that share a page, so that a shared page is what
        // each checkpoint moves and the one after it overwrites.
        const LENS: [(u64, usize); 4] = [(1, 600), (2, 30), (3, 30), (4, 30)];
        let version = |round: u8| -> Vec<(u64, Option<Vec<u8>>)> {
            LENS.iter()
                .map(|&(id, len)| (id, Some(vec![round; len])))
                .collect()
        };
        store.checkpoint(&version(0), 0).unwrap();
        assert_eq!(store.record_pages(2), store.record_pages(4));

        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while !done.load(Ordering::SeqCst) {
                        // Every published version of a record is its length
                        // in identical bytes; anything else is a torn or
                        // stale read.
                        let check = |i: usize, out: Cow<[u8]>| {
                            assert_eq!(out.len(), LENS[i].1);
                            assert!(
                                out.iter().all(|&b| b == out[0]),
                                "mixed-version read of record {}: {out:?}",
                                LENS[i].0
                            );
                            Ok(())
                        };
                        store.read_many(&[1, 2, 3, 4], check).unwrap();
                        check(0, store.get(1).unwrap().into()).unwrap();
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();

        // Rewrite every record 40 times; free-page reuse makes the new
        // version land on pages the previous-but-one version occupied.
        for round in 1..=40u8 {
            store.checkpoint(&version(round), 0).unwrap();
        }
        done.store(true, Ordering::SeqCst);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader made no progress");
        }
        for (id, len) in LENS {
            assert_eq!(store.get(id).unwrap(), vec![40u8; len]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_reader_inspects_without_touching_the_wal() {
        let dir = tmpdir("reader");
        let store = PagedStore::create(&dir, tiny_opts()).unwrap();
        let s1 = store.append_wal(1, b"folded").unwrap();
        store
            .checkpoint(&[(1, Some(b"payload".to_vec()))], s1)
            .unwrap();
        store.append_wal(1, b"pending").unwrap();
        drop(store);
        // Leave a torn tail, as a crash mid-append would.
        let wal_path = dir.join(WAL_FILE);
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..full.len() - 2]).unwrap();
        let torn_len = full.len() as u64 - 2;

        let mut rd = StoreReader::open(&dir, crate::MIN_PAGE_SIZE).unwrap();
        assert_eq!(rd.get(1).unwrap(), b"payload");
        assert_eq!(rd.record_count(), 1);
        assert_eq!(rd.superblock().wal_seq, s1);
        assert_eq!(rd.wal_depth(), 0, "the torn record never committed");
        let fp = rd.footprint();
        assert_eq!(fp.resident_pages, 0);
        assert!(fp.disk_bytes > 0);

        // The whole point: inspection must not have truncated the torn
        // tail (a live server may still be appending those bytes).
        assert_eq!(
            std::fs::metadata(&wal_path).unwrap().len(),
            torn_len,
            "read-only inspection modified the WAL"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_removal() {
        let dir = tmpdir("removal");
        let store = PagedStore::create(&dir, tiny_opts()).unwrap();
        store
            .checkpoint(&[(1, Some(b"a".to_vec())), (2, Some(b"b".to_vec()))], 0)
            .unwrap();
        store.checkpoint(&[(1, None)], 0).unwrap();
        assert!(!store.contains(1));
        assert_eq!(store.get(2).unwrap(), b"b");
        drop(store);
        let (store, _) = PagedStore::open(&dir, tiny_opts()).unwrap();
        assert_eq!(store.record_ids(), vec![2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    const CAP: usize = crate::MIN_PAGE_SIZE - crate::PAGE_HEADER_BYTES;

    /// xorshift64: a fixed pseudo-random stream per seed.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// One page of the data file as it is on disk, header included.
    fn disk_page(dir: &Path, p: u32) -> Vec<u8> {
        let file = std::fs::read(dir.join(DATA_FILE)).unwrap();
        let at = p as usize * crate::MIN_PAGE_SIZE;
        file[at..at + crate::MIN_PAGE_SIZE].to_vec()
    }

    fn flip_disk_bit(dir: &Path, p: u32, byte: usize) {
        let path = dir.join(DATA_FILE);
        let mut file = std::fs::read(&path).unwrap();
        file[p as usize * crate::MIN_PAGE_SIZE + byte] ^= 0x10;
        std::fs::write(&path, file).unwrap();
    }

    #[test]
    fn packed_records_roundtrip_across_size_mixes_and_reopen() {
        let edges = [0, 1, CAP - 1, CAP, CAP + 1, 3 * CAP + 7];
        for seed in 1..=16u64 {
            let dir = tmpdir(&format!("mix-{seed}"));
            let mut next = rng(seed);
            let records: Vec<(u64, Option<Vec<u8>>)> = (0..48u64)
                .map(|i| {
                    let len = match next() % 3 {
                        0 => edges[(next() % 6) as usize],
                        _ => (next() % (CAP as u64 / 2)) as usize,
                    };
                    let id = i * 5 + next() % 5;
                    (
                        id,
                        Some((0..len).map(|j| (id as usize * 7 + j) as u8).collect()),
                    )
                })
                .collect();
            let store = PagedStore::create(&dir, tiny_opts()).unwrap();
            store.checkpoint(&records, 0).unwrap();

            let check = |store: &PagedStore| {
                let ids: Vec<u64> = records.iter().map(|(id, _)| *id).collect();
                let mut seen = 0;
                let visit = |i: usize, bytes: Cow<[u8]>| {
                    assert_eq!(i, seen, "seed {seed}: delivery order");
                    assert_eq!(Some(&*bytes), records[i].1.as_deref(), "seed {seed}");
                    seen += 1;
                    Ok(())
                };
                store.read_many(&ids, visit).unwrap();
                assert_eq!(seen, records.len());
                let mut shared = HashSet::new();
                let mut owned = HashSet::new();
                for (id, bytes) in &records {
                    let len = bytes.as_ref().unwrap().len();
                    assert_eq!(&store.get(*id).unwrap(), bytes.as_ref().unwrap());
                    let pages = store.record_pages(*id).unwrap();
                    assert_eq!(pages.len(), len.div_ceil(CAP).max(1), "seed {seed}");
                    if len > CAP {
                        // A chain's pages are its own.
                        assert!(pages.iter().all(|p| owned.insert(*p)), "seed {seed}");
                    } else {
                        shared.insert(pages[0]);
                    }
                }
                assert!(shared.is_disjoint(&owned), "seed {seed}");
            };
            check(&store);
            drop(store);
            let (store, _) = PagedStore::open(&dir, tiny_opts()).unwrap();
            check(&store);
            let mut rd = StoreReader::open(&dir, crate::MIN_PAGE_SIZE).unwrap();
            for (id, bytes) in &records {
                assert_eq!(&rd.get(*id).unwrap(), bytes.as_ref().unwrap());
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn small_records_share_pages_and_consecutive_ids_share_one_pin() {
        let dir = tmpdir("share");
        let store = PagedStore::create(&dir, StoreOptions::default()).unwrap();
        let records: Vec<(u64, Option<Vec<u8>>)> = (0..400u64)
            .map(|id| (id, Some(vec![id as u8; 170])))
            .collect();
        store.checkpoint(&records, 0).unwrap();
        // 400 records of 170 bytes: 48 to an 8 KiB page.
        let pages: HashSet<u32> = (0..400)
            .flat_map(|id| store.record_pages(id).unwrap())
            .collect();
        assert_eq!(pages.len(), 9);
        let before = store.pool_stats();
        let ids: Vec<u64> = (0..400).collect();
        let cost = store.read_many(&ids, |_, _| Ok(())).unwrap();
        let after = store.pool_stats();
        assert_eq!(after.misses - before.misses, 9, "one fault per page");
        assert_eq!(after.hits, before.hits, "and no second lookup of it");
        // The call reports the same cost the pool counted.
        let faulted_only = ReadCost {
            pages_faulted: 9,
            ..ReadCost::default()
        };
        assert_eq!(cost, faulted_only);
        let again = store.read_many(&ids, |_, _| Ok(())).unwrap();
        assert_eq!((again.pool_hits, again.pages_faulted), (9, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn referenced_pages_are_never_rewritten_and_free_when_their_last_record_goes() {
        let dir = tmpdir("invariant");
        let store = PagedStore::create(&dir, tiny_opts()).unwrap();
        let small = |tag: u8| Some(vec![tag; 20]);
        store
            .checkpoint(&[(1, small(1)), (2, small(2)), (3, small(3))], 0)
            .unwrap();
        let shared = store.record_pages(1).unwrap();
        assert_eq!(
            store.record_pages(3).unwrap(),
            shared,
            "one part-filled page"
        );
        let image = disk_page(&dir, shared[0]);

        // A record that would fit the page's free space goes elsewhere...
        store.checkpoint(&[(4, small(4))], 0).unwrap();
        assert_ne!(store.record_pages(4).unwrap(), shared);
        // ...a rewritten neighbour moves out, a removed one just goes...
        store.checkpoint(&[(2, small(22)), (1, None)], 0).unwrap();
        assert_ne!(store.record_pages(2).unwrap(), shared);
        assert_eq!(store.get(2).unwrap(), vec![22; 20]);
        assert!(!store.contains(1));
        // ...and through it all the page still serves its last record from
        // the bytes the first checkpoint wrote.
        for round in 0..4 {
            store.checkpoint(&[(10 + round, small(9))], 0).unwrap();
            assert_eq!(store.record_pages(3).unwrap(), shared);
            assert_eq!(store.get(3).unwrap(), vec![3; 20]);
            assert_eq!(disk_page(&dir, shared[0]), image, "round {round}");
        }

        // Once its last record has gone the page is free, and allocation
        // (lowest free page first) takes it up again.
        store.checkpoint(&[(3, None)], 0).unwrap();
        store.checkpoint(&[(20, small(7))], 0).unwrap();
        store.checkpoint(&[(21, small(8))], 0).unwrap();
        assert_ne!(disk_page(&dir, shared[0]), image, "freed page never reused");
        for (id, tag) in [(2, 22), (4, 4), (20, 7), (21, 8)] {
            assert_eq!(store.get(id).unwrap(), vec![tag; 20]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn packing_depends_on_the_dirty_set_not_its_order() {
        let mut next = rng(77);
        let mut records: Vec<(u64, Option<Vec<u8>>)> = (0..60u64)
            .map(|id| {
                (
                    id,
                    Some(vec![id as u8; (next() % (2 * CAP as u64)) as usize]),
                )
            })
            .collect();
        let image = |name: &str, records: &[(u64, Option<Vec<u8>>)]| {
            let dir = tmpdir(name);
            let store = PagedStore::create(&dir, tiny_opts()).unwrap();
            store.checkpoint(records, 0).unwrap();
            let bytes = std::fs::read(dir.join(DATA_FILE)).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            bytes
        };
        let in_order = image("det-a", &records);
        records.reverse();
        records.swap(3, 40);
        assert_eq!(image("det-b", &records), in_order);
    }

    #[test]
    fn scrub_reports_every_record_on_a_rotted_shared_page() {
        let dir = tmpdir("scrub-shared");
        let opts = StoreOptions {
            page_size: crate::MIN_PAGE_SIZE,
            cache_bytes: 64 * crate::MIN_PAGE_SIZE,
        };
        let store = PagedStore::create(&dir, opts).unwrap();
        let records: Vec<(u64, Option<Vec<u8>>)> = (1..=9u64)
            .map(|id| (id, Some(vec![id as u8; if id == 9 { 3 * CAP } else { 25 }])))
            .collect();
        store.checkpoint(&records, 0).unwrap();
        let rotted = store.record_pages(1).unwrap()[0];
        let on_it: Vec<u64> = (1..=9)
            .filter(|&id| store.record_pages(id).unwrap().contains(&rotted))
            .collect();
        assert_eq!(
            on_it,
            [1, 2, 3, 4],
            "four 25-byte records to a 120-byte page"
        );
        // Distinct pages a pass must verify: the records' and the directory's.
        let mut referenced: HashSet<u32> = (1..=9)
            .flat_map(|id| store.record_pages(id).unwrap())
            .collect();
        referenced.extend(locked(&store.inner).superblock.dir_pages.iter().copied());

        // Warm the pool, then rot the page on disk.
        assert_eq!(store.get(2).unwrap(), vec![2; 25]);
        flip_disk_bit(&dir, rotted, 40);
        let report = store.scrub_step(usize::MAX).unwrap();
        assert!(report.completed_pass);
        assert_eq!(report.scanned_pages, referenced.len() as u64);
        assert_eq!(report.corrupt_pages, [rotted]);
        assert_eq!(store.quarantined_pages(), 1);
        let reported: Vec<u64> = report.corrupt.iter().map(|c| c.id).collect();
        assert_eq!(reported, on_it);
        assert!(report.corrupt.iter().all(|c| c.pages == [rotted]));

        // The frame keeps serving and is what every one of them repairs from.
        let rebuilt: Vec<(u64, Option<Vec<u8>>)> = on_it
            .iter()
            .map(|&id| (id, Some(store.salvage_record(id).expect("pool frame"))))
            .collect();
        assert_eq!(rebuilt, records[..4]);
        store.rewrite_records(&rebuilt).unwrap();
        let fresh = store.record_pages(1).unwrap();
        assert_ne!(fresh, [rotted]);
        for &id in &on_it {
            assert_eq!(store.record_pages(id).unwrap(), fresh, "repaired together");
            assert_eq!(store.get(id).unwrap(), vec![id as u8; 25]);
        }
        let clean = store.scrub_step(usize::MAX).unwrap();
        assert!(clean.completed_pass && clean.corrupt.is_empty());

        // A cold pool has nothing to salvage from.
        flip_disk_bit(&dir, fresh[0], 40);
        drop(store);
        let (store, _) = PagedStore::open(&dir, opts).unwrap();
        let report = store.scrub_step(usize::MAX).unwrap();
        assert_eq!(report.corrupt.len(), 4);
        assert!(on_it.iter().all(|&id| store.salvage_record(id).is_none()));
        assert!(matches!(store.get(1), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_steps_cover_each_page_once_per_pass() {
        let dir = tmpdir("scrub-steps");
        let store = PagedStore::create(&dir, tiny_opts()).unwrap();
        let records: Vec<(u64, Option<Vec<u8>>)> = (0..40u64)
            .map(|id| (id, Some(vec![id as u8; 50])))
            .collect();
        store.checkpoint(&records, 0).unwrap();
        let full = store.scrub_step(usize::MAX).unwrap().scanned_pages;
        assert_eq!(full, 20 + 9, "two records to a page, and the directory");
        let (mut scanned, mut steps) = (0, 0);
        loop {
            let report = store.scrub_step(7).unwrap();
            assert!(report.scanned_pages <= 7);
            scanned += report.scanned_pages;
            steps += 1;
            if report.completed_pass {
                break;
            }
        }
        assert_eq!((scanned, steps), (full, 5));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A directory image as the encoder before shared pages wrote it: per
    /// entry `id, len, page count, pages`, no offsets anywhere.
    fn old_directory(entries: &[(u64, u64, &[u32])]) -> Vec<u8> {
        let mut out = (entries.len() as u64).to_le_bytes().to_vec();
        for (id, len, pages) in entries {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
            for p in *pages {
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
        out
    }

    /// Writes a store by hand: the given data pages from page 2 up, then the
    /// directory image on the page after them, then a superblock naming it.
    fn handmade_store(name: &str, pages: &[&[u8]], directory: &[u8], dir_len: u64) -> PathBuf {
        let dir = tmpdir(name);
        let vfs = os_vfs();
        let mut file = PageFile::create(&*vfs, &dir.join(DATA_FILE), crate::MIN_PAGE_SIZE).unwrap();
        for (i, payload) in pages.iter().enumerate() {
            file.write_page(2 + i as u32, payload).unwrap();
        }
        let dir_page = 2 + pages.len() as u32;
        file.write_page(dir_page, directory).unwrap();
        let sb = Superblock {
            version: 1,
            page_size: crate::MIN_PAGE_SIZE as u64,
            wal_seq: 0,
            dir_len,
            dir_pages: vec![dir_page],
        };
        file.write_superblock(&sb, 1).unwrap();
        Wal::create(vfs, &dir.join(WAL_FILE), 1).unwrap();
        dir
    }

    #[test]
    fn a_store_in_the_old_directory_encoding_opens_and_serves() {
        let long: Vec<u8> = (0..2 * CAP).map(|i| i as u8).collect();
        let image = old_directory(&[(1, 5, &[2]), (7, 2 * CAP as u64, &[3, 4])]);
        let dir = handmade_store(
            "old-format",
            &[b"alpha", &long[..CAP], &long[CAP..]],
            &image,
            image.len() as u64,
        );
        let (store, _) = PagedStore::open(&dir, tiny_opts()).unwrap();
        assert_eq!(store.get(1).unwrap(), b"alpha");
        assert_eq!(store.get(7).unwrap(), long);
        // Entries at offset 0 still encode as they always did.
        assert_eq!(
            PagedStore::encode_directory(&locked(&store.published)),
            image
        );
        // New records pack beside the old ones, which stay where they are.
        store
            .checkpoint(
                &[(2, Some(b"beta".to_vec())), (3, Some(b"gamma".to_vec()))],
                0,
            )
            .unwrap();
        assert_eq!(store.record_pages(2), store.record_pages(3));
        assert_eq!(store.record_pages(1).unwrap(), [2]);
        drop(store);
        let (store, _) = PagedStore::open(&dir, tiny_opts()).unwrap();
        let all: Vec<Vec<u8>> = [1, 2, 3, 7]
            .iter()
            .map(|&id| store.get(id).unwrap())
            .collect();
        assert_eq!(
            all,
            [b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec(), long]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One raw directory entry: `n` is the page-count field as written,
    /// flag bit and all.
    fn raw_entry(id: u64, len: u64, n: u32, offset: Option<u32>, pages: &[u32]) -> Vec<u8> {
        let mut out = id.to_le_bytes().to_vec();
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
        out.extend(offset.iter().flat_map(|o| o.to_le_bytes()));
        out.extend(pages.iter().flat_map(|p| p.to_le_bytes()));
        out
    }

    fn raw_directory(count: u64, entries: &[Vec<u8>]) -> Vec<u8> {
        let mut out = count.to_le_bytes().to_vec();
        out.extend(entries.iter().flatten());
        out
    }

    #[test]
    fn hostile_directory_entries_are_typed_errors_before_any_allocation() {
        // Decoded for a ten-page file of 120-byte payloads.
        let decode = |raw: &[u8]| PagedStore::decode_directory(raw, CAP, 10);
        let one = |entry: Vec<u8>| decode(&raw_directory(1, &[entry]));
        let packed = HAS_OFFSET | 1;
        // The well-formed neighbours of each hostile case decode.
        assert!(one(raw_entry(1, CAP as u64, 1, None, &[2])).is_ok());
        assert!(one(raw_entry(1, 20, packed, Some(100), &[9])).is_ok());
        assert!(one(raw_entry(1, 2 * CAP as u64, 2, None, &[2, 3])).is_ok());
        assert!(one(raw_entry(1, 0, 0, None, &[])).is_ok());
        let hostile = [
            ("length past one page", raw_entry(1, 1 << 60, 1, None, &[2])),
            (
                "length past a chain",
                raw_entry(1, 1 << 60, 2, None, &[2, 3]),
            ),
            (
                "length wraps with offset",
                raw_entry(1, u64::MAX, packed, Some(1), &[2]),
            ),
            (
                "slice past the page end",
                raw_entry(1, 21, packed, Some(100), &[2]),
            ),
            (
                "offset past the page end",
                raw_entry(1, 0, packed, Some(121), &[2]),
            ),
            (
                "offset on a chain",
                raw_entry(1, 10, HAS_OFFSET | 2, Some(4), &[2, 3]),
            ),
            ("bytes without pages", raw_entry(1, 1, 0, None, &[])),
            ("superblock page", raw_entry(1, 5, 1, None, &[1])),
            ("page past the file", raw_entry(1, 5, 1, None, &[10])),
            (
                "chain longer than the file",
                raw_entry(1, 5, 11, None, &[2; 11]),
            ),
            (
                "chain count past the bytes",
                raw_entry(1, 5, !HAS_OFFSET, None, &[2]),
            ),
            (
                "offset flag without offset",
                raw_entry(1, 5, packed, None, &[]),
            ),
        ];
        for (what, entry) in hostile {
            assert!(matches!(one(entry), Err(StoreError::Corrupt(_))), "{what}");
        }
        let good = raw_entry(1, 5, 1, None, &[2]);
        for count in [2, 1 << 40, u64::MAX] {
            let raw = raw_directory(count, std::slice::from_ref(&good));
            assert!(
                matches!(decode(&raw), Err(StoreError::Corrupt(_))),
                "count {count}"
            );
        }
        assert!(decode(&[0; 7]).is_err());
        let mut trailing = raw_directory(1, &[good]);
        trailing.push(0);
        assert!(decode(&trailing).is_err());
    }

    #[test]
    fn hostile_lengths_in_a_crc_valid_image_fail_open_with_a_typed_error() {
        // A directory entry claiming 2^60 bytes on one page.
        let image = raw_directory(1, &[raw_entry(1, 1 << 60, 1, None, &[2])]);
        let dir = handmade_store("hostile-entry", &[b"alpha"], &image, image.len() as u64);
        let err = PagedStore::open(&dir, tiny_opts()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        assert!(StoreReader::open(&dir, crate::MIN_PAGE_SIZE).is_err());
        std::fs::remove_dir_all(&dir).ok();

        // A superblock claiming a 2^60-byte directory on one page.
        let image = old_directory(&[(1, 5, &[2])]);
        let dir = handmade_store("hostile-super", &[b"alpha"], &image, 1 << 60);
        let err = PagedStore::open(&dir, tiny_opts()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutated_directory_images_open_or_fail_typed_and_never_panic() {
        let records: Vec<(u64, Option<Vec<u8>>)> = (0..12u64)
            .map(|id| {
                (
                    id,
                    Some(vec![id as u8; [10, 60, CAP, 2 * CAP + 5][id as usize % 4]]),
                )
            })
            .collect();
        let dir = tmpdir("mutate");
        let store = PagedStore::create(&dir, tiny_opts()).unwrap();
        store.checkpoint(&records, 0).unwrap();
        let (sb, slot) = {
            let inner = locked(&store.inner);
            (inner.superblock.clone(), (inner.slot + 1) % 2)
        };
        drop(store);
        let pristine = std::fs::read(dir.join(DATA_FILE)).unwrap();
        let vfs = os_vfs();
        let mut next = rng(2024);
        let (mut opened, mut refused) = (0, 0);
        for _ in 0..400 {
            std::fs::write(dir.join(DATA_FILE), &pristine).unwrap();
            let mut file =
                PageFile::open(&*vfs, &dir.join(DATA_FILE), crate::MIN_PAGE_SIZE).unwrap();
            // Mutate one to three bytes of a directory page, or a superblock
            // field, and write it back so that its CRC is good again.
            if next().is_multiple_of(4) {
                let mut sb = sb.clone();
                match next() % 3 {
                    0 => sb.dir_len = next() >> (next() % 64),
                    1 => sb.dir_pages[0] = (next() % 40) as u32,
                    _ => sb.dir_pages.push((next() % 40) as u32),
                }
                sb.version += 1;
                file.write_superblock(&sb, slot).unwrap();
            } else {
                let p = sb.dir_pages[(next() % sb.dir_pages.len() as u64) as usize];
                let mut payload = file.read_page(p).unwrap();
                for _ in 0..1 + next() % 3 {
                    let at = (next() % payload.len() as u64) as usize;
                    payload[at] = match next() % 3 {
                        0 => 0xFF,
                        1 => 0,
                        _ => next() as u8,
                    };
                }
                file.write_page(p, &payload).unwrap();
            }
            drop(file);
            match PagedStore::open(&dir, tiny_opts()) {
                Ok((store, _)) => {
                    opened += 1;
                    // Whatever decoded must be safe to read through.
                    for id in store.record_ids() {
                        let _ = store.get(id);
                        let _ = store.salvage_record(id);
                    }
                    let _ = store.scrub_step(usize::MAX);
                }
                Err(StoreError::Corrupt(_)) => refused += 1,
                Err(e) => panic!("untyped failure: {e}"),
            }
        }
        assert!(
            opened > 20 && refused > 20,
            "{opened} opened, {refused} refused"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
