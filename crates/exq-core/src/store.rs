//! Out-of-core hosting: the glue between [`Server`] and the paged storage
//! engine in `exq-store`.
//!
//! Every hosted database is *paged*: the metadata (DSI table, block table,
//! value indexes, visible document) stays resident — the query planner
//! probes it on every request — while the sealed block payloads, the
//! dominant bytes, live in an [`exq_store::PagedStore`] and page in on
//! demand through its buffer pool; a pool that holds the whole database is
//! what resident hosting used to be. (A [`Server`] nobody has given a
//! directory — [`Server::new`], a loaded artifact — keeps its blocks in
//! RAM and persists by rewriting one artifact file.) Record ids follow
//! [`exq_index::paged`]: record 0 is the metadata image, `(1<<32)|b` is
//! block `b`, `(2<<32)|k` is posting list `k`.
//!
//! ## Mutations: log-then-apply
//!
//! `apply_insert` / `delete_where` on a paged server first append the
//! mutation's wire encoding to the WAL (fsync = commit point), then apply
//! it in memory; new blocks land in a small overlay map until the next
//! checkpoint folds them into pages. Replay on open re-applies the logged
//! mutations through the same code path, so a kill -9 at any moment either
//! recovers the mutation (it was acked) or cleanly drops a torn tail (it
//! was not).
//!
//! ## Checkpointing
//!
//! [`checkpoint_once`] encodes the metadata image and the posting lists
//! and takes the overlay blocks under the read lock (queries keep flowing),
//! folds them into the page file copy-on-write outside it, flips the superblock,
//! compacts the WAL, and finally drains the overlay under a brief write
//! lock. The dirty set is O(metadata + update): block payloads already on
//! pages are never rewritten. [`Checkpointer`] runs this on a background
//! thread off the serving path.

use crate::codec::Enc;
use crate::error::CoreError;
use crate::persist::{
    decode_body, read_image, refuse_other_version, sorted_postings, write_image, MetaImage,
    ENCRYPT_AGAIN,
};
use crate::server::Server;
use crate::telemetry::{self, Counter, Gauge};
use exq_crypto::{SealedBlock, SealedBlocks, SealedRef};
use exq_index::paged::{
    block_record_id, encode_postings, load_postings, posting_record_id, REC_META,
};
use exq_store::store::{DATA_FILE, WAL_FILE};
use exq_store::PagedStore;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

pub use exq_store::{PoolStats, StoreFootprint, StoreOptions};

/// Magic of the paged metadata record (record id 0), which holds the
/// hosted state's image (`crate::persist`). Version 6 moved with server
/// artifact version 7; any other version is refused, before the WAL is
/// replayed.
const META_MAGIC: &[u8; 6] = b"EXQPM6";

/// WAL record kind: an `InsertDelta` wire encoding.
pub(crate) const KIND_INSERT: u8 = 3;
/// WAL record kind: a `ServerQuery` wire encoding (delete-where).
pub(crate) const KIND_DELETE: u8 = 2;
/// Retired WAL record kind: an insert whose visible fragment carried its
/// intervals as `lo,hi` annotation attributes. A log holding one is refused
/// at open, never replayed.
const KIND_ANNOTATED_INSERT: u8 = 1;

impl From<exq_store::StoreError> for CoreError {
    fn from(e: exq_store::StoreError) -> CoreError {
        CoreError::Persist(format!("store: {e}"))
    }
}

/// What WAL replay did while opening a paged database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Logged mutations re-applied.
    pub replayed: usize,
    /// Logged mutations whose re-application failed (deterministic: the
    /// live call failed identically after its WAL append).
    pub failed: usize,
    /// True when a torn record tail was truncated from the log.
    pub dropped_torn_tail: bool,
}

/// The sealed-block side of a [`Server`]: either fully resident or backed
/// by a paged store with an overlay of not-yet-checkpointed blocks.
#[derive(Debug, Clone)]
pub(crate) enum BlockStore {
    /// Every block in RAM (the classic mode), as one table whose block `i`
    /// has id `i`.
    Resident(SealedBlocks),
    /// Blocks page in through `db`; `overlay` holds blocks inserted since
    /// the last checkpoint.
    Paged {
        db: Arc<PagedDb>,
        count: u32,
        payload_bytes: u64,
        overlay: HashMap<u32, Arc<SealedBlock>>,
    },
}

impl BlockStore {
    pub(crate) fn len(&self) -> usize {
        match self {
            BlockStore::Resident(v) => v.len(),
            BlockStore::Paged { count, .. } => *count as usize,
        }
    }

    /// Total stored bytes of every block (tombstoned included).
    pub(crate) fn payload_bytes(&self) -> u64 {
        match self {
            BlockStore::Resident(v) => v.iter().map(|b| b.stored_size() as u64).sum(),
            BlockStore::Paged { payload_bytes, .. } => *payload_bytes,
        }
    }

    pub(crate) fn get(&self, id: u32) -> Result<Option<SealedBlock>, CoreError> {
        Ok(self.get_many(&[id])?.get(0).map(|b| b.to_block()))
    }

    /// The blocks `ids` name, in that order, skipping ids past the end, as
    /// one table. A paged store reads every block not in the overlay in one
    /// batch, straight into the table, so ascending ids cost one page pin
    /// per page rather than per block.
    pub(crate) fn get_many(&self, ids: &[u32]) -> Result<SealedBlocks, CoreError> {
        match self {
            BlockStore::Resident(v) => {
                let held = ids.iter().filter_map(|&id| v.get(id as usize));
                let bytes = held.map(|b| b.ciphertext.len()).sum();
                let mut table = SealedBlocks::with_capacity(ids.len(), bytes);
                // A run of consecutive ids is one copy.
                let in_range = |&id: &usize| id < v.len();
                let mut ids = ids
                    .iter()
                    .map(|&id| id as usize)
                    .filter(in_range)
                    .peekable();
                while let Some(start) = ids.next() {
                    let mut end = start + 1;
                    while ids.next_if_eq(&end).is_some() {
                        end += 1;
                    }
                    table.extend_from(v, start..end);
                }
                Ok(table)
            }
            BlockStore::Paged {
                db, count, overlay, ..
            } => {
                let held = || ids.iter().copied().filter(|id| id < count);
                let on_pages: Vec<u32> = held().filter(|id| !overlay.contains_key(id)).collect();
                let paged = db.load_blocks(&on_pages)?;
                if paged.len() == held().count() {
                    return Ok(paged);
                }
                let mut paged = paged.iter();
                let mut table = SealedBlocks::new();
                for id in held() {
                    match overlay.get(&id) {
                        Some(b) => table.push(&**b),
                        None => table.extend(paged.next()),
                    }
                }
                Ok(table)
            }
        }
    }

    pub(crate) fn push(&mut self, block: SealedBlock) {
        match self {
            BlockStore::Resident(v) => v.push(&block),
            BlockStore::Paged {
                count,
                payload_bytes,
                overlay,
                ..
            } => {
                let id = block.id;
                *payload_bytes += block.stored_size() as u64;
                overlay.insert(id, Arc::new(block));
                *count = (*count).max(id + 1);
            }
        }
    }

    /// Every block, in id order (pages the whole database in when paged).
    pub(crate) fn collect(&self) -> Result<SealedBlocks, CoreError> {
        self.get_many(&(0..self.len() as u32).collect::<Vec<u32>>())
    }
}

fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

/// A paged database: the store plus the per-db series of its background
/// work — checkpoints and scrub steps — and of its footprint. What a
/// request's reads and appends cost goes to the request's profile instead.
pub struct PagedDb {
    store: PagedStore,
    label: String,
    /// Times every checkpoint; its count is [`PagedDb::checkpoints_total`].
    checkpoint_seconds: Arc<telemetry::Histogram>,
    pages_folded: Arc<Counter>,
    scrub_pages: Arc<Counter>,
    scrub_corrupt_pages: Arc<Counter>,
    resident_pages: Arc<Gauge>,
    disk_bytes: Arc<Gauge>,
    wal_depth: Arc<Gauge>,
    wal_bytes: Arc<Gauge>,
}

impl std::fmt::Debug for PagedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedDb")
            .field("label", &self.label)
            .field("dir", &self.store.dir())
            .finish_non_exhaustive()
    }
}

impl PagedDb {
    fn with_store(store: PagedStore, label: &str) -> Arc<PagedDb> {
        let g = |name: &str| telemetry::gauge(&telemetry::db_series(name, label));
        let c = |name: &str| telemetry::counter(&telemetry::db_series(name, label));
        Arc::new(PagedDb {
            store,
            label: label.to_owned(),
            checkpoint_seconds: telemetry::histogram(&telemetry::db_series(
                "exq_db_checkpoint_seconds",
                label,
            )),
            pages_folded: c("exq_store_checkpoint_pages_folded_total"),
            scrub_pages: c("exq_store_scrub_pages_total"),
            scrub_corrupt_pages: c("exq_store_scrub_corrupt_pages_total"),
            resident_pages: g("exq_store_resident_pages"),
            disk_bytes: g("exq_db_disk_bytes"),
            wal_depth: g("exq_store_wal_depth"),
            wal_bytes: g("exq_store_wal_bytes"),
        })
    }

    /// The paged store of the database whose artifact is (or was) at
    /// `artifact`: a sibling directory named `<file>.pages`.
    pub fn pages_dir(artifact: &Path) -> PathBuf {
        suffixed(artifact, ".pages")
    }

    /// True when `artifact` already has a paged sibling.
    pub fn is_paged(artifact: &Path) -> bool {
        PagedStore::exists(&Self::pages_dir(artifact))
    }

    /// Opens the database whose artifact is (or was) at `path`. If its
    /// paged sibling exists it is authoritative (the WAL replays on top of
    /// the last checkpoint); otherwise this is the first hosting of the
    /// artifact and it is imported: [`attach_new`](Self::attach_new) writes
    /// every record into a fresh paged store. The artifact is left
    /// untouched.
    pub fn open_or_migrate(
        path: &Path,
        label: &str,
        opts: StoreOptions,
    ) -> Result<(Server, Arc<PagedDb>, ReplaySummary), CoreError> {
        let dir = Self::pages_dir(path);
        if PagedStore::exists(&dir) {
            return Self::open(&dir, label, opts);
        }
        let mut server = Server::load(path)?;
        let db = Self::attach_new(&mut server, &dir, label, opts)?;
        Ok((server, db, ReplaySummary::default()))
    }

    /// Converts a live resident server in place: writes its state
    /// (metadata image, posting lists, every sealed block) into a fresh
    /// paged store at `dir` and attaches it. Returns the store handle.
    pub fn attach_new(
        server: &mut Server,
        dir: &Path,
        label: &str,
        opts: StoreOptions,
    ) -> Result<Arc<PagedDb>, CoreError> {
        Self::attach_new_with(server, exq_store::os_vfs(), dir, label, opts)
    }

    /// [`attach_new`](Self::attach_new) against an explicit
    /// [`exq_store::Vfs`] (the crash-torture harness runs whole databases
    /// on a [`exq_store::FaultVfs`]).
    ///
    /// All or nothing: the store is built and checkpointed under a
    /// temporary sibling name and its two files then move into `dir`, the
    /// data file — the one [`PagedStore::exists`] looks for — last. A kill
    /// at any point leaves either no store at `dir`, so the next open
    /// imports again, or a complete one.
    pub fn attach_new_with(
        server: &mut Server,
        vfs: Arc<dyn exq_store::Vfs>,
        dir: &Path,
        label: &str,
        opts: StoreOptions,
    ) -> Result<Arc<PagedDb>, CoreError> {
        let building = suffixed(dir, ".tmp");
        let store = PagedStore::create_with(Arc::clone(&vfs), &building, opts)?;
        let mut dirty = resident_records(server);
        for b in &server.collect_blocks()? {
            dirty.push((block_record_id(b.id), Some(encode_block_record(b))));
        }
        store.checkpoint(&dirty, 0)?;
        drop(store);
        vfs.create_dir_all(dir)?;
        for file in [WAL_FILE, DATA_FILE] {
            vfs.rename(&building.join(file), &dir.join(file))?;
        }
        let _ = std::fs::remove_dir(&building); // emptied above; nothing to remove on an in-memory Vfs
        let (store, _) = PagedStore::open_with(vfs, dir, opts)?;
        let db = Self::with_store(store, label);
        server.attach_paged(Arc::clone(&db));
        db.publish_metrics();
        Ok(db)
    }

    /// Opens an existing paged store and rebuilds the server: metadata
    /// image + posting lists hydrate the resident structures, then the WAL
    /// replays mutations committed after the last checkpoint.
    pub fn open(
        dir: &Path,
        label: &str,
        opts: StoreOptions,
    ) -> Result<(Server, Arc<PagedDb>, ReplaySummary), CoreError> {
        Self::open_with(exq_store::os_vfs(), dir, label, opts)
    }

    /// [`open`](Self::open) against an explicit [`exq_store::Vfs`].
    pub fn open_with(
        vfs: Arc<dyn exq_store::Vfs>,
        dir: &Path,
        label: &str,
        opts: StoreOptions,
    ) -> Result<(Server, Arc<PagedDb>, ReplaySummary), CoreError> {
        let (store, replay) = PagedStore::open_with(vfs, dir, opts)?;
        let db = Self::with_store(store, label);
        let mut server = decode_meta(&db.store.get(REC_META)?, &db)?;
        let mut summary = ReplaySummary {
            dropped_torn_tail: replay.dropped_torn_tail,
            ..ReplaySummary::default()
        };
        for rec in &replay.records {
            // Replay errors are deterministic mirrors of the live call's
            // outcome (the mutation was logged before it was applied), so
            // a failed record is counted, not fatal — the recovered state
            // matches the pre-crash state exactly.
            let ok = match rec.kind {
                KIND_INSERT => {
                    use crate::codec::WireCodec;
                    let delta = crate::update::InsertDelta::decode(&rec.payload)
                        .map_err(|e| CoreError::Persist(format!("WAL insert record: {e}")))?;
                    server.apply_insert_unlogged(&delta).is_ok()
                }
                KIND_DELETE => {
                    use crate::codec::WireCodec;
                    let q = crate::wire::ServerQuery::decode(&rec.payload)
                        .map_err(|e| CoreError::Persist(format!("WAL delete record: {e}")))?;
                    server.delete_where_unlogged(&q);
                    true
                }
                KIND_ANNOTATED_INSERT => {
                    return Err(CoreError::Persist(format!(
                        "WAL record {} is an insert in the retired annotated-fragment \
                         encoding (kind {KIND_ANNOTATED_INSERT}), which this build does not \
                         replay: open the store with the build that wrote it and checkpoint",
                        rec.seq
                    )))
                }
                k => {
                    return Err(CoreError::Persist(format!(
                        "WAL record {} has unknown kind {k}",
                        rec.seq
                    )))
                }
            };
            if ok {
                summary.replayed += 1;
            } else {
                summary.failed += 1;
            }
        }
        db.publish_metrics();
        Ok((server, db, summary))
    }

    /// Reads the sealed block records `ids` in one batch: one directory
    /// snapshot, one pin per page, each block decoded straight from the
    /// pinned frame. What the read cost the pool is charged to the request
    /// this thread is serving.
    pub(crate) fn load_blocks(&self, ids: &[u32]) -> Result<SealedBlocks, CoreError> {
        if ids.is_empty() {
            return Ok(SealedBlocks::new());
        }
        let t = Instant::now();
        let records: Vec<u64> = ids.iter().map(|&id| block_record_id(id)).collect();
        let mut blocks = SealedBlocks::with_capacity(ids.len(), 0);
        let cost = self.store.read_many(&records, |i, raw| {
            blocks.push(decode_block_record(ids[i], &raw)?);
            Ok(())
        })?;
        telemetry::with_profile(|p| {
            p.pool_hits += cost.pool_hits;
            p.pages_faulted += cost.pages_faulted;
            p.evictions += cost.evictions;
            p.epoch_retries += cost.epoch_retries;
            p.records_decoded += blocks.len() as u64;
        });
        telemetry::record_span("store.read_block", t.elapsed());
        Ok(blocks)
    }

    /// Appends one mutation record to the WAL; `Ok` means fsynced. The
    /// framed bytes written are charged to the request this thread is
    /// serving.
    pub(crate) fn append_wal(&self, kind: u8, payload: &[u8]) -> Result<u64, CoreError> {
        let t = Instant::now();
        let seq = self.store.append_wal(kind, payload)?;
        telemetry::record_span("store.wal_append", t.elapsed());
        let framed = (exq_store::wal::FRAME_OVERHEAD + payload.len()) as u64;
        telemetry::with_profile(|p| p.wal_bytes += framed);
        self.publish_metrics();
        Ok(seq)
    }

    /// Whether a block record is already durable in pages.
    pub(crate) fn block_checkpointed(&self, id: u32) -> bool {
        self.store.contains(block_record_id(id))
    }

    /// The store's on-disk / residency footprint.
    pub fn footprint(&self) -> StoreFootprint {
        self.store.footprint()
    }

    /// Buffer-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.store.pool_stats()
    }

    /// The telemetry db label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The directory the store lives in.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Arms a one-shot crash injection point in the next checkpoint
    /// (see [`exq_store::crash`]). Test hook.
    #[doc(hidden)]
    pub fn inject_checkpoint_crash(&self, point: u8) {
        self.store.inject_checkpoint_crash(point);
    }

    /// Pushes the store's footprint into the per-db telemetry gauges.
    pub fn publish_metrics(&self) {
        let fp = self.store.footprint();
        self.resident_pages.set(fp.resident_pages as i64);
        self.disk_bytes.set(fp.disk_bytes as i64);
        self.wal_depth.set(fp.wal_depth as i64);
        self.wal_bytes.set(fp.wal_bytes as i64);
    }

    /// Checkpoints folded under this database's label: the observation
    /// count of `exq_db_checkpoint_seconds{db}`.
    pub fn checkpoints_total(&self) -> u64 {
        self.checkpoint_seconds.count()
    }

    /// Read-only inspection of the paged store at `dir`, for reporting
    /// tools (`exq db list`). Unlike [`PagedDb::open`], this never opens
    /// the WAL for writing — no torn-tail truncation, no compaction — so
    /// it is safe against a store a live server currently owns. The
    /// numbers are as of the last durable checkpoint; the footprint's
    /// `wal_depth` counts committed mutations still pending on top.
    pub fn inspect(dir: &Path) -> Result<PagedDbReport, CoreError> {
        let mut rd = exq_store::StoreReader::open(dir, exq_store::DEFAULT_PAGE_SIZE)?;
        let meta = read_meta(&rd.get(REC_META)?)?;
        Ok(PagedDbReport {
            block_count: meta.block_count,
            hosted_bytes: meta.visible.xml.len() as u64 + meta.payload_bytes,
            footprint: rd.footprint(),
        })
    }
}

/// What [`PagedDb::inspect`] reports about a paged database directory, as
/// of its last durable checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct PagedDbReport {
    /// Sealed blocks the checkpointed metadata records (tombstones
    /// included) — [`Server::block_count`] of the checkpointed state.
    pub block_count: u32,
    /// [`Server::hosted_bytes`] of the checkpointed state: visible
    /// document + block payload bytes.
    pub hosted_bytes: u64,
    /// On-disk footprint; residency fields are zero (a read-only view has
    /// no buffer pool).
    pub footprint: StoreFootprint,
}

/// The records every checkpoint rewrites from resident state: the metadata
/// image, then posting list `k` for each tag in persisted order.
fn resident_records(server: &Server) -> Vec<(u64, Option<Vec<u8>>)> {
    let mut dirty = vec![(REC_META, Some(encode_meta(server)))];
    for (k, (_, list)) in sorted_postings(server).into_iter().enumerate() {
        dirty.push((
            posting_record_id(k as u32),
            Some(encode_postings(list.iter())),
        ));
    }
    dirty
}

/// Encodes the metadata record (record 0): the image, whose posting lists
/// and blocks live in their own records.
pub(crate) fn encode_meta(server: &Server) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.raw(META_MAGIC);
    write_image(server, &mut enc);
    enc.into_bytes()
}

/// Reads [`encode_meta`]'s record: [`decode_meta`] builds a server from it,
/// [`PagedDb::inspect`] reads its counts.
pub(crate) fn read_meta(bytes: &[u8]) -> Result<MetaImage, CoreError> {
    let what = "paged metadata record";
    refuse_other_version(bytes, META_MAGIC, what, ENCRYPT_AGAIN)?;
    let body = bytes
        .strip_prefix(META_MAGIC.as_slice())
        .ok_or_else(|| CoreError::Persist(format!("{what} has wrong magic")))?;
    decode_body(what, body, read_image)
}

/// Rebuilds a server from the metadata record, loading posting lists
/// through the store (their pages pin and release like any other read).
fn decode_meta(bytes: &[u8], db: &Arc<PagedDb>) -> Result<Server, CoreError> {
    let image = read_meta(bytes)?;
    let lists = (0..image.tags.len() as u32)
        .map(|k| load_postings(&db.store, k))
        .collect::<Result<_, exq_store::StoreError>>()?;
    let blocks = BlockStore::Paged {
        db: Arc::clone(db),
        count: image.block_count,
        payload_bytes: image.payload_bytes,
        overlay: HashMap::new(),
    };
    image.into_server(lists, blocks)
}

/// Block record layout: `[nonce 12][tag 16][ciphertext..]`. The id is the
/// record id's low 32 bits, so it is not stored again.
fn encode_block_record<'a>(b: impl Into<SealedRef<'a>>) -> Vec<u8> {
    let b = b.into();
    let mut out = Vec::with_capacity(28 + b.ciphertext.len());
    out.extend_from_slice(&b.nonce);
    out.extend_from_slice(&b.tag);
    out.extend_from_slice(b.ciphertext);
    out
}

fn decode_block_record(id: u32, raw: &[u8]) -> Result<SealedRef<'_>, exq_store::StoreError> {
    if raw.len() < 28 {
        return Err(exq_store::StoreError::Corrupt(format!(
            "block record {id} truncated ({} bytes)",
            raw.len()
        )));
    }
    Ok(SealedRef {
        id,
        nonce: raw[..12].try_into().unwrap(),
        tag: raw[12..28].try_into().unwrap(),
        ciphertext: &raw[28..],
    })
}

pub(crate) fn read_server(lock: &RwLock<Server>) -> std::sync::RwLockReadGuard<'_, Server> {
    match lock.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

pub(crate) fn write_server(lock: &RwLock<Server>) -> std::sync::RwLockWriteGuard<'_, Server> {
    match lock.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Folds everything committed so far into the page file. Returns `false`
/// when the server is not paged or there is nothing to fold.
///
/// The resident records are encoded, and the overlay blocks taken, under
/// the *same* read guard that captures the WAL horizon, so a mutation is
/// either in both (folded, then dropped from the log) or in neither (stays
/// in the log) — never double-applied on recovery. Nothing is copied to
/// get there: the guard is held for the encode alone, and a writer waits
/// that long. Queries keep flowing throughout; the page write runs outside
/// the lock, and the write lock is only taken at the end, briefly, to
/// drain the overlay.
pub fn checkpoint_once(server: &RwLock<Server>) -> Result<bool, CoreError> {
    let t = Instant::now();
    let (mut dirty, overlay, wal_seq, db) = {
        let g = read_server(server);
        let Some(db) = g.paged_store() else {
            return Ok(false);
        };
        if db.store.footprint().wal_depth == 0 {
            db.publish_metrics();
            return Ok(false);
        }
        let wal_seq = db.store.wal_next_seq() - 1;
        (resident_records(&g), g.overlay_blocks(), wal_seq, db)
    };
    // Tags removed by deletions leave stale posting records past the last
    // list written (`dirty` is the metadata image plus one record a list).
    let mut k = dirty.len() as u32 - 1;
    while db.store.contains(posting_record_id(k)) {
        dirty.push((posting_record_id(k), None));
        k += 1;
    }
    // Only blocks not yet in pages are written: O(update), not O(db).
    for (id, b) in overlay {
        if !db.block_checkpointed(id) {
            dirty.push((block_record_id(id), Some(encode_block_record(&*b))));
        }
    }
    let folded = db.store.checkpoint(&dirty, wal_seq)?;
    {
        let mut g = write_server(server);
        g.drain_overlay_if(|id| db.block_checkpointed(id));
    }
    // Checkpoints are rare: timed whatever the telemetry switch says, so
    // the count doubles as the checkpoint counter.
    db.checkpoint_seconds.observe_duration(t.elapsed());
    db.pages_folded.add(folded);
    db.publish_metrics();
    Ok(true)
}

/// Page budget of one background scrub step: enough to sweep a multi-GB
/// store in minutes of idle ticks without stealing a tick's latency.
pub const SCRUB_PAGES_PER_TICK: usize = 256;

/// What one [`scrub_once`] step did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Pages CRC-verified against disk this step.
    pub scanned: u64,
    /// Records on corrupt pages rebuilt onto fresh pages.
    pub repaired: u64,
    /// Corrupt pages quarantined (never reallocated), each counted once
    /// however many records share it.
    pub quarantined: u64,
    /// Corrupt records no repair source could rebuild — the db must be
    /// marked faulted by the caller.
    pub lost: u64,
    /// Whether the step finished a full cyclic pass over the store.
    pub completed_pass: bool,
}

/// One bounded step of the self-healing scrub: verifies up to `max_pages`
/// page CRCs against the *disk* image and rebuilds whatever is corrupt.
/// Records share pages, so one corrupt page reports every record with bytes
/// on it, and is quarantined once.
///
/// The repair ladder, per reported record:
///
/// 1. **Resident state** — the metadata image and posting lists are fully
///    reconstructible from the in-memory server; block records inserted
///    since the last checkpoint still sit in the overlay. Re-encode.
/// 2. **Buffer pool** — a checkpointed block whose disk page rotted may
///    still have the good frame cached ([`PagedStore::salvage_record`]).
/// 3. **WAL tail** — the insert delta that sealed the block may still be
///    in the log; decode it and re-encode the block.
/// 4. Nothing worked: the record is **lost** and the caller must flip the
///    db to `Faulted` — serving a hole as an answer is not an option.
///
/// Rebuilt records land together on fresh pages via
/// [`PagedStore::rewrite_records`]
/// (a forced copy-on-write fold at the current WAL horizon), so the repair
/// itself is crash-safe: a kill mid-repair leaves the old directory, and
/// the next pass finds the same corruption again.
pub fn scrub_once(server: &RwLock<Server>, max_pages: usize) -> Result<ScrubOutcome, CoreError> {
    let g = read_server(server);
    let Some(db) = g.paged_store() else {
        return Ok(ScrubOutcome::default());
    };
    let report = db.store.scrub_step(max_pages)?;
    db.scrub_pages.add(report.scanned_pages);
    db.scrub_corrupt_pages
        .add(report.corrupt_pages.len() as u64);
    let mut out = ScrubOutcome {
        scanned: report.scanned_pages,
        completed_pass: report.completed_pass,
        ..ScrubOutcome::default()
    };
    if report.corrupt.is_empty() {
        return Ok(out);
    }

    let overlay: HashMap<u32, Arc<SealedBlock>> = g.overlay_blocks().into_iter().collect();
    let lists = sorted_postings(&g);
    let mut dirty: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
    out.quarantined = report.corrupt_pages.len() as u64;
    for rec in &report.corrupt {
        match rec.id {
            // The in-memory directory is authoritative; any forced fold
            // rewrites the on-disk chain onto fresh pages.
            exq_store::SCRUB_DIRECTORY => {}
            REC_META => dirty.push((REC_META, Some(encode_meta(&g)))),
            id if id >> 32 == 2 => {
                let k = (id & 0xFFFF_FFFF) as usize;
                // Posting lists live in the resident server; an index past
                // the current tag set is a stale record — drop it.
                dirty.push((
                    id,
                    lists.get(k).map(|(_, list)| encode_postings(list.iter())),
                ));
            }
            id if id >> 32 == 1 => {
                let bid = (id & 0xFFFF_FFFF) as u32;
                if let Some(b) = overlay.get(&bid) {
                    dirty.push((id, Some(encode_block_record(&**b))));
                } else if let Some(raw) = db.store.salvage_record(id) {
                    dirty.push((id, Some(raw)));
                } else if let Some(b) = wal_tail_block(&db, bid)? {
                    dirty.push((id, Some(encode_block_record(&b))));
                } else {
                    out.lost += 1;
                }
            }
            _ => out.lost += 1,
        }
    }
    out.repaired = dirty.len() as u64;
    db.store.rewrite_records(&dirty)?;
    db.publish_metrics();
    telemetry::log(
        telemetry::Level::Warn,
        &format!(
            "db `{}`: scrub quarantined {} corrupt page(s), repaired {} record(s), lost {}",
            db.label, out.quarantined, out.repaired, out.lost
        ),
    );
    Ok(out)
}

/// Last resort of the block repair ladder: scans the WAL tail's insert
/// deltas for sealed block `bid` (the insert that created a block may not
/// be folded yet — then its payload is still in the log, byte-exact).
fn wal_tail_block(db: &PagedDb, bid: u32) -> Result<Option<SealedBlock>, CoreError> {
    use crate::codec::WireCodec;
    let mut found = None;
    for rec in db.store.wal_records()? {
        if rec.kind != KIND_INSERT {
            continue;
        }
        let Ok(delta) = crate::update::InsertDelta::decode(&rec.payload) else {
            continue;
        };
        if let Some(b) = delta.blocks.into_iter().find(|b| b.id == bid) {
            found = Some(b); // later records win, like replay order
        }
    }
    Ok(found)
}

/// Resolves the background checkpoint interval: `EXQ_CHECKPOINT_MS`
/// (milliseconds), default 2000.
pub fn checkpoint_interval() -> Duration {
    let ms = std::env::var("EXQ_CHECKPOINT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(2000)
        .max(1);
    Duration::from_millis(ms)
}

/// A background checkpointer: folds the WAL into pages off the serving
/// path. Stops (and joins) on drop.
pub struct Checkpointer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Checkpointer {
    /// Spawns the checkpoint thread for a tenant registry: each sweep
    /// [`tend`]s every hosted db — checkpointing it, probing degraded
    /// storage for recovery, and spending idle ticks scrubbing page CRCs.
    /// The tenant list is re-read every sweep so dbs created or dropped
    /// after spawn are picked up.
    pub fn spawn(registry: Arc<crate::tenant::TenantRegistry>, interval: Duration) -> Checkpointer {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("exq-checkpoint".into())
            .spawn(move || {
                let tick = Duration::from_millis(20).min(interval);
                let mut since = Duration::ZERO;
                while !stop2.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    since += tick;
                    if since < interval {
                        continue;
                    }
                    since = Duration::ZERO;
                    for t in registry.tenants() {
                        tend(&t);
                    }
                }
            })
            .expect("spawn checkpointer");
        Checkpointer {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Checkpointer {
    /// Signals the thread and joins it.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One maintenance pass over one hosted db — the unit of the background
/// sweep, public so tests and single-shot tools can drive it without the
/// thread. In order:
///
/// * `Faulted` dbs are left alone (only a reopen clears that state).
/// * A `Degraded` db gets a storage probe ([`PagedStore::probe_sync`]):
///   if the WAL and page file fsync again, the db flips back to healthy
///   and this very pass resumes checkpointing; if not, it stays
///   read-only until the next sweep.
/// * A checkpoint failure (or panic — the fold runs under
///   `catch_unwind`, and the store's internal locks recover from poison)
///   flips the db to `Degraded` instead of killing the thread: reads
///   keep serving, the WAL keeps its committed tail, and the fold is
///   retried after recovery.
/// * An idle tick (nothing to fold) is spent scrubbing up to
///   [`SCRUB_PAGES_PER_TICK`] page CRCs; an unrepairable record flips
///   the db to `Faulted`.
pub fn tend(tenant: &crate::tenant::Tenant) {
    use crate::tenant::DbHealth;
    let server = &tenant.server;
    match tenant.health() {
        DbHealth::Faulted => return,
        DbHealth::Degraded => {
            let probe = {
                let g = read_server(server);
                match g.paged_store() {
                    Some(db) => db.store.probe_sync().map_err(CoreError::from),
                    None => Ok(()),
                }
            };
            if probe.is_err() {
                return;
            }
            tenant.set_healthy();
        }
        DbHealth::Healthy => {}
    }
    let folded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| checkpoint_once(server)));
    match folded {
        Ok(Ok(true)) => {}
        Ok(Ok(false)) => {
            // Idle: spend the tick verifying page CRCs.
            match scrub_once(server, SCRUB_PAGES_PER_TICK) {
                Ok(out) if out.lost > 0 => {
                    tenant.set_faulted(&format!("{} record(s) unrepairable", out.lost));
                }
                Ok(_) => {}
                Err(e) => tenant.set_degraded(&format!("scrub failed: {e}")),
            }
        }
        Ok(Err(e)) => tenant.set_degraded(&format!("checkpoint failed: {e}")),
        Err(_) => tenant.set_degraded("checkpoint panicked"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeKind;
    use crate::server::tests_support::build_server;

    /// A log holding an insert in the retired annotated-fragment encoding
    /// is refused at open by name, not counted as a failed replay.
    #[test]
    fn a_retired_insert_record_is_refused_by_name() {
        let dir = std::env::temp_dir().join(format!("exq-retired-kind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut server, _) = build_server(SchemeKind::Opt);
        let db =
            PagedDb::attach_new(&mut server, &dir, "retired", StoreOptions::default()).unwrap();
        db.append_wal(KIND_ANNOTATED_INSERT, b"an annotated fragment")
            .unwrap();
        drop((server, db));
        match PagedDb::open(&dir, "retired", StoreOptions::default()) {
            Err(CoreError::Persist(msg)) => {
                assert!(msg.contains("retired") && msg.contains("kind 1"), "{msg}")
            }
            other => panic!(
                "expected a persist error, got {:?}",
                other.map(|(_, _, r)| r)
            ),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A version-5 metadata record holds each visible node's interval
    /// beside the text. It is refused by a typed error that names its
    /// version, and a store holding one is refused before its WAL is
    /// replayed.
    #[test]
    fn a_version_five_metadata_record_is_refused_by_name() {
        let (mut server, _) = build_server(SchemeKind::Opt);
        let mut meta = encode_meta(&server);
        assert!(read_meta(&meta).is_ok());
        meta[5] = b'5';
        let named = |msg: &str| msg.contains("is version 5") && msg.contains("version 6");
        match read_meta(&meta) {
            Err(CoreError::Persist(msg)) => assert!(named(&msg), "{msg}"),
            other => panic!("expected a persist error, got {:?}", other.map(|_| ())),
        }
        let dir = std::env::temp_dir().join(format!("exq-meta-v5-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = PagedDb::attach_new(&mut server, &dir, "v5", StoreOptions::default()).unwrap();
        db.store.rewrite_records(&[(REC_META, Some(meta))]).unwrap();
        db.append_wal(KIND_INSERT, b"no delta").unwrap();
        drop((server, db));
        match PagedDb::open(&dir, "v5", StoreOptions::default()) {
            Err(CoreError::Persist(msg)) => assert!(named(&msg), "{msg}"),
            other => panic!(
                "expected a persist error, got {:?}",
                other.map(|(_, _, r)| r)
            ),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
