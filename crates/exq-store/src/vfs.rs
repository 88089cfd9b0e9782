//! The virtual filesystem boundary: every byte the storage engine moves
//! crosses a [`Vfs`].
//!
//! The page file, both superblock slots, the write-ahead log, and
//! checkpoint temp files all do their I/O through the `Vfs`/[`VfsFile`]
//! traits instead of `std::fs` directly. Two implementations ship:
//!
//! * [`OsVfs`] — the real filesystem. The default everywhere; a store
//!   built over it behaves exactly as before this layer existed.
//! * [`FaultVfs`] — a deterministic, seeded, in-memory filesystem that
//!   injects the ways disks actually fail: EIO and ENOSPC on read, write
//!   and fsync; short and torn writes (a failed write that still applied a
//!   prefix); lying fsyncs (reported durable, dropped at the next power
//!   cut); whole-process power cuts at a chosen operation number; and
//!   targeted per-page bit rot. Every file tracks *volatile* vs *durable*
//!   bytes — a simulated power cut rolls every file back to its durable
//!   image, which is precisely the write-back loss a real kernel page
//!   cache exhibits.
//!
//! `FaultVfs` is fully deterministic per seed: the same seed and the same
//! operation sequence produce the same fault schedule and the same
//! byte-level file states (the property tests pin this down). That is
//! what makes the crash-torture harness reproducible from a seed in a CI
//! log.

use crate::StoreError;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// How a file is opened through a [`Vfs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Existing file, reads only. Writes through the handle fail.
    Read,
    /// Existing file, reads and writes.
    ReadWrite,
    /// Create (or truncate) the file, reads and writes.
    CreateTruncate,
}

/// An open file handle. Positioned I/O only — handles carry no cursor, so
/// a failed operation never leaves one in an ambiguous seek state.
// `len` is fallible disk metadata, not a collection length — `is_empty`
// would be a second fallible syscall wrapper nobody needs.
#[allow(clippy::len_without_is_empty)]
pub trait VfsFile: Send + std::fmt::Debug {
    /// Reads exactly `buf.len()` bytes starting at byte `off`.
    fn read_exact_at(&mut self, off: u64, buf: &mut [u8]) -> Result<(), StoreError>;
    /// Writes all of `data` starting at byte `off`, extending the file
    /// (zero-filled) if `off` lies past the end.
    fn write_all_at(&mut self, off: u64, data: &[u8]) -> Result<(), StoreError>;
    /// Truncates or zero-extends the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> Result<(), StoreError>;
    /// fsync: promise everything written so far to stable storage.
    fn sync(&mut self) -> Result<(), StoreError>;
    /// Current file length in bytes.
    fn len(&mut self) -> Result<u64, StoreError>;
}

/// A filesystem the storage engine runs over. Implementations are shared
/// (`Arc<dyn Vfs>`) between the writer, reader, and WAL handles of a
/// store.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Opens `path` in the given mode.
    fn open(&self, path: &Path, mode: OpenMode) -> Result<Box<dyn VfsFile>, StoreError>;
    /// Reads a whole file (WAL replay; never used for the page file).
    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError>;
    /// Atomically renames `from` over `to` (checkpoint temp-file commit).
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> Result<(), StoreError>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// The default [`Vfs`]: the operating system's filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsVfs;

/// A process-wide `Arc<OsVfs>` for the common default path.
pub fn os_vfs() -> Arc<dyn Vfs> {
    Arc::new(OsVfs)
}

#[derive(Debug)]
struct OsFile {
    file: std::fs::File,
}

impl VfsFile for OsFile {
    fn read_exact_at(&mut self, off: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(buf)?;
        Ok(())
    }

    fn write_all_at(&mut self, off: u64, data: &[u8]) -> Result<(), StoreError> {
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(data)?;
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> Result<(), StoreError> {
        self.file.set_len(len)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_all()?;
        Ok(())
    }

    fn len(&mut self) -> Result<u64, StoreError> {
        Ok(self.file.metadata()?.len())
    }
}

impl Vfs for OsVfs {
    fn open(&self, path: &Path, mode: OpenMode) -> Result<Box<dyn VfsFile>, StoreError> {
        let file = match mode {
            OpenMode::Read => OpenOptions::new().read(true).open(path)?,
            OpenMode::ReadWrite => OpenOptions::new().read(true).write(true).open(path)?,
            OpenMode::CreateTruncate => OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)?,
        };
        Ok(Box::new(OsFile { file }))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        Ok(std::fs::read(path)?)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), StoreError> {
        std::fs::create_dir_all(path)?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.is_file()
    }
}

/// SplitMix64: a tiny, high-quality, seedable PRNG (Steele et al.,
/// "Fast splittable pseudorandom number generators", OOPSLA 2014). Every
/// fault schedule is a pure function of its seed and the operation
/// sequence: this one's, the transport faults' and retry jitter in
/// `exq-core`. Never for cryptography.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits → the full double mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One Bernoulli trial with probability `rate` (clamped to `[0, 1]`).
    pub fn chance(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.next_f64() < rate
    }

    /// Uniform in `[0, bound)`; `0`, drawing nothing, when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Fault rates and triggers for a [`FaultVfs`], all deterministic per
/// seed. Rates are per-mille (0 = never, 1000 = always).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// EIO probability per read operation.
    pub read_err_per_mille: u16,
    /// EIO probability per write operation (nothing is applied).
    pub write_err_per_mille: u16,
    /// ENOSPC probability per write operation. Like the real thing, a
    /// seeded *prefix* of the data may land before the error: mid-record
    /// disk-full leaves a torn tail.
    pub enospc_per_mille: u16,
    /// Torn-write probability per write operation: a seeded prefix is
    /// applied, then EIO.
    pub torn_write_per_mille: u16,
    /// EIO probability per fsync (nothing is promoted to durable).
    pub sync_err_per_mille: u16,
    /// Lying-fsync probability per fsync: reports `Ok` but promotes
    /// nothing — the data is lost at the next power cut.
    pub lying_fsync_per_mille: u16,
}

/// One in-memory file: the volatile view (what reads observe) and the
/// durable view (what survives a power cut).
#[derive(Debug, Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    durable: Vec<u8>,
}

#[derive(Debug, Default)]
struct MemFs {
    files: BTreeMap<PathBuf, MemFile>,
}

#[derive(Debug)]
struct FaultState {
    fs: Mutex<MemFs>,
    cfg: Mutex<FaultConfig>,
    rng: Mutex<SplitMix64>,
    /// Total faultable operations performed (reads + writes + syncs).
    ops: AtomicU64,
    /// Power cut at this operation number (the op itself fails).
    crash_at_op: AtomicU64,
    /// After a power cut every operation fails until [`FaultVfs::revive`].
    crashed: AtomicBool,
}

const NO_CRASH: u64 = u64::MAX;

/// The seeded fault-injection [`Vfs`]. Fully in-memory; clone the handle
/// freely — all clones share the same filesystem and fault schedule.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    state: Arc<FaultState>,
}

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking holder never leaves MemFs half-updated in a way later
    // operations can't survive; recover instead of wedging the store.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn eio(what: &str) -> StoreError {
    StoreError::Io(std::io::Error::other(format!("injected fault: {what}")))
}

impl FaultVfs {
    /// A fault-free in-memory filesystem seeded for later fault schedules.
    pub fn new(seed: u64) -> FaultVfs {
        FaultVfs {
            state: Arc::new(FaultState {
                fs: Mutex::new(MemFs::default()),
                cfg: Mutex::new(FaultConfig::default()),
                rng: Mutex::new(SplitMix64::new(seed)),
                ops: AtomicU64::new(0),
                crash_at_op: AtomicU64::new(NO_CRASH),
                crashed: AtomicBool::new(false),
            }),
        }
    }

    /// Replaces the fault rates (takes effect on the next operation).
    pub fn set_config(&self, cfg: FaultConfig) {
        *locked(&self.state.cfg) = cfg;
    }

    /// Arms a power cut at absolute operation number `op` (see
    /// [`ops`](Self::ops)): that operation fails, every file rolls back
    /// to its durable image, and all later operations fail until
    /// [`revive`](Self::revive).
    pub fn crash_at_op(&self, op: u64) {
        self.state.crash_at_op.store(op, Ordering::SeqCst);
    }

    /// Pulls the power right now.
    pub fn power_cut(&self) {
        self.do_power_cut();
    }

    /// Clears the crashed flag and any armed power cut; the durable file
    /// images are what recovery now sees.
    pub fn revive(&self) {
        self.state.crash_at_op.store(NO_CRASH, Ordering::SeqCst);
        self.state.crashed.store(false, Ordering::SeqCst);
    }

    /// Whether a power cut has fired and [`revive`](Self::revive) has not.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    /// Faultable operations performed so far.
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    /// Flips one bit of `path` at byte `offset` in **both** the volatile
    /// and durable images: silent media bit rot, visible only to CRCs.
    pub fn rot_bit(&self, path: &Path, offset: u64, bit: u8) -> bool {
        let mut fs = locked(&self.state.fs);
        let Some(f) = fs.files.get_mut(path) else {
            return false;
        };
        let mask = 1u8 << (bit % 8);
        let mut hit = false;
        for img in [&mut f.data, &mut f.durable] {
            if let Some(b) = img.get_mut(offset as usize) {
                *b ^= mask;
                hit = true;
            }
        }
        hit
    }

    /// The volatile bytes of `path`, if it exists.
    pub fn file_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        locked(&self.state.fs)
            .files
            .get(path)
            .map(|f| f.data.clone())
    }

    /// The durable bytes of `path`, if it exists.
    pub fn durable_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        locked(&self.state.fs)
            .files
            .get(path)
            .map(|f| f.durable.clone())
    }

    /// All file paths, sorted.
    pub fn paths(&self) -> Vec<PathBuf> {
        locked(&self.state.fs).files.keys().cloned().collect()
    }

    /// A digest over every file's path, volatile and durable bytes —
    /// byte-level state equality for the determinism property tests.
    pub fn state_digest(&self) -> u64 {
        let fs = locked(&self.state.fs);
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            let c = crate::crc32(bytes) as u64;
            acc = (acc ^ c).wrapping_mul(0x1000_0000_01b3).rotate_left(17);
        };
        for (path, f) in &fs.files {
            mix(path.to_string_lossy().as_bytes());
            mix(&f.data);
            mix(&f.durable);
        }
        acc
    }

    fn do_power_cut(&self) {
        self.state.crashed.store(true, Ordering::SeqCst);
        let mut fs = locked(&self.state.fs);
        for f in fs.files.values_mut() {
            f.data = f.durable.clone();
        }
    }

    /// Counts one faultable operation, firing an armed power cut when its
    /// number comes up. Returns `Err` when the filesystem is (now) dead.
    fn tick_op(&self) -> Result<(), StoreError> {
        let op = self.state.ops.fetch_add(1, Ordering::SeqCst);
        if op >= self.state.crash_at_op.load(Ordering::SeqCst) && !self.crashed() {
            self.do_power_cut();
        }
        if self.crashed() {
            return Err(eio("power cut"));
        }
        Ok(())
    }

    fn draw_per_mille(&self) -> u64 {
        locked(&self.state.rng).below(1000)
    }

    /// Seeded prefix length for a torn write of `len` bytes: at least one
    /// byte short of complete so the tear is observable.
    fn torn_len(&self, len: usize) -> usize {
        locked(&self.state.rng).below(len as u64) as usize
    }
}

impl Vfs for FaultVfs {
    fn open(&self, path: &Path, mode: OpenMode) -> Result<Box<dyn VfsFile>, StoreError> {
        if self.crashed() {
            return Err(eio("power cut"));
        }
        let mut fs = locked(&self.state.fs);
        match mode {
            OpenMode::Read | OpenMode::ReadWrite => {
                if !fs.files.contains_key(path) {
                    return Err(StoreError::Io(std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        format!("{}: no such file", path.display()),
                    )));
                }
            }
            OpenMode::CreateTruncate => {
                // Creation truncates both views: the directory entry is
                // modeled as immediately durable (rename commits below
                // share this simplification; see the module docs).
                fs.files.insert(path.to_path_buf(), MemFile::default());
            }
        }
        Ok(Box::new(FaultFile {
            vfs: self.clone(),
            path: path.to_path_buf(),
            read_only: mode == OpenMode::Read,
        }))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        self.tick_op()?;
        if self.draw_per_mille() < locked(&self.state.cfg).read_err_per_mille as u64 {
            return Err(eio("read EIO"));
        }
        locked(&self.state.fs)
            .files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| {
                StoreError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("{}: no such file", path.display()),
                ))
            })
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        self.tick_op()?;
        if self.draw_per_mille() < locked(&self.state.cfg).write_err_per_mille as u64 {
            return Err(eio("rename EIO"));
        }
        let mut fs = locked(&self.state.fs);
        let f = fs.files.remove(from).ok_or_else(|| {
            StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{}: no such file", from.display()),
            ))
        })?;
        fs.files.insert(to.to_path_buf(), f);
        Ok(())
    }

    fn create_dir_all(&self, _path: &Path) -> Result<(), StoreError> {
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        locked(&self.state.fs).files.contains_key(path)
    }
}

#[derive(Debug)]
struct FaultFile {
    vfs: FaultVfs,
    path: PathBuf,
    read_only: bool,
}

impl FaultFile {
    /// Runs `f` over this file's in-memory image.
    fn with_file<R>(&self, f: impl FnOnce(&mut MemFile) -> R) -> Result<R, StoreError> {
        let mut fs = locked(&self.vfs.state.fs);
        let file = fs.files.get_mut(&self.path).ok_or_else(|| {
            StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{}: file vanished", self.path.display()),
            ))
        })?;
        Ok(f(file))
    }

    fn write_guard(&self) -> Result<(), StoreError> {
        if self.read_only {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "write through a read-only handle",
            )));
        }
        Ok(())
    }
}

/// Copies `data` into `img` at `off`, zero-extending as needed.
fn apply_write(img: &mut Vec<u8>, off: u64, data: &[u8]) {
    let end = off as usize + data.len();
    if img.len() < end {
        img.resize(end, 0);
    }
    img[off as usize..end].copy_from_slice(data);
}

impl VfsFile for FaultFile {
    fn read_exact_at(&mut self, off: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        self.vfs.tick_op()?;
        if self.vfs.draw_per_mille() < locked(&self.vfs.state.cfg).read_err_per_mille as u64 {
            return Err(eio("read EIO"));
        }
        self.with_file(|f| {
            let end = off as usize + buf.len();
            if f.data.len() < end {
                return Err(StoreError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("read past EOF ({} < {end})", f.data.len()),
                )));
            }
            buf.copy_from_slice(&f.data[off as usize..end]);
            Ok(())
        })?
    }

    fn write_all_at(&mut self, off: u64, data: &[u8]) -> Result<(), StoreError> {
        self.write_guard()?;
        self.vfs.tick_op()?;
        let cfg = *locked(&self.vfs.state.cfg);
        let draw = self.vfs.draw_per_mille();
        let enospc_to = cfg.enospc_per_mille as u64;
        let eio_to = enospc_to + cfg.write_err_per_mille as u64;
        let torn_to = eio_to + cfg.torn_write_per_mille as u64;
        if draw < enospc_to {
            // Mid-record disk-full: a prefix lands, then the error.
            let n = self.vfs.torn_len(data.len());
            self.with_file(|f| apply_write(&mut f.data, off, &data[..n]))?;
            return Err(StoreError::Io(std::io::Error::other(
                "injected fault: ENOSPC (disk full)",
            )));
        }
        if draw < eio_to {
            return Err(eio("write EIO"));
        }
        if draw < torn_to {
            let n = self.vfs.torn_len(data.len());
            self.with_file(|f| apply_write(&mut f.data, off, &data[..n]))?;
            return Err(eio("torn write"));
        }
        self.with_file(|f| apply_write(&mut f.data, off, data))
    }

    fn set_len(&mut self, len: u64) -> Result<(), StoreError> {
        self.write_guard()?;
        self.vfs.tick_op()?;
        if self.vfs.draw_per_mille() < locked(&self.vfs.state.cfg).write_err_per_mille as u64 {
            return Err(eio("truncate EIO"));
        }
        self.with_file(|f| f.data.resize(len as usize, 0))
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.vfs.tick_op()?;
        let cfg = *locked(&self.vfs.state.cfg);
        let draw = self.vfs.draw_per_mille();
        if draw < cfg.sync_err_per_mille as u64 {
            return Err(eio("fsync EIO"));
        }
        if draw < cfg.sync_err_per_mille as u64 + cfg.lying_fsync_per_mille as u64 {
            // The lie: report durable, promote nothing.
            return Ok(());
        }
        self.with_file(|f| f.durable = f.data.clone())
    }

    fn len(&mut self) -> Result<u64, StoreError> {
        self.with_file(|f| f.data.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn fault_free_roundtrip_matches_os_semantics() {
        let vfs = FaultVfs::new(7);
        let mut f = vfs.open(&p("a"), OpenMode::CreateTruncate).unwrap();
        f.write_all_at(0, b"hello").unwrap();
        f.write_all_at(8, b"gap").unwrap(); // zero-fills the hole
        let mut buf = [0u8; 11];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello\0\0\0gap");
        assert_eq!(f.len().unwrap(), 11);
        f.set_len(5).unwrap();
        assert_eq!(vfs.read(&p("a")).unwrap(), b"hello");
        assert!(vfs.exists(&p("a")));
        assert!(!vfs.exists(&p("b")));
        vfs.rename(&p("a"), &p("b")).unwrap();
        assert!(vfs.exists(&p("b")));
        assert!(vfs.open(&p("a"), OpenMode::Read).is_err());
    }

    #[test]
    fn power_cut_drops_unsynced_writes() {
        let vfs = FaultVfs::new(1);
        let mut f = vfs.open(&p("x"), OpenMode::CreateTruncate).unwrap();
        f.write_all_at(0, b"durable").unwrap();
        f.sync().unwrap();
        f.write_all_at(7, b"+volatile").unwrap();
        assert_eq!(vfs.file_bytes(&p("x")).unwrap(), b"durable+volatile");
        vfs.power_cut();
        assert!(f.write_all_at(0, b"zz").is_err(), "dead after the cut");
        vfs.revive();
        assert_eq!(vfs.file_bytes(&p("x")).unwrap(), b"durable");
    }

    #[test]
    fn lying_fsync_loses_data_at_power_cut() {
        let vfs = FaultVfs::new(2);
        let mut f = vfs.open(&p("x"), OpenMode::CreateTruncate).unwrap();
        f.write_all_at(0, b"base").unwrap();
        f.sync().unwrap();
        vfs.set_config(FaultConfig {
            lying_fsync_per_mille: 1000,
            ..FaultConfig::default()
        });
        f.write_all_at(4, b"-lost").unwrap();
        f.sync().unwrap(); // lies
        vfs.power_cut();
        vfs.revive();
        assert_eq!(vfs.file_bytes(&p("x")).unwrap(), b"base");
    }

    #[test]
    fn crash_at_op_fires_once_at_that_op() {
        let vfs = FaultVfs::new(3);
        let mut f = vfs.open(&p("x"), OpenMode::CreateTruncate).unwrap();
        f.write_all_at(0, b"one").unwrap();
        f.sync().unwrap();
        let next = vfs.ops();
        vfs.crash_at_op(next + 1);
        f.write_all_at(3, b"two").unwrap(); // op `next`: still alive
        assert!(f.sync().is_err(), "op next+1 is the cut");
        assert!(vfs.crashed());
        vfs.revive();
        assert_eq!(vfs.file_bytes(&p("x")).unwrap(), b"one");
    }

    #[test]
    fn torn_write_applies_a_strict_prefix() {
        let vfs = FaultVfs::new(4);
        let mut f = vfs.open(&p("x"), OpenMode::CreateTruncate).unwrap();
        vfs.set_config(FaultConfig {
            torn_write_per_mille: 1000,
            ..FaultConfig::default()
        });
        assert!(f.write_all_at(0, b"0123456789").is_err());
        let got = vfs.file_bytes(&p("x")).unwrap();
        assert!(got.len() < 10, "torn write applied all 10 bytes");
        assert_eq!(got[..], b"0123456789"[..got.len()]);
    }

    #[test]
    fn bit_rot_flips_exactly_one_bit() {
        let vfs = FaultVfs::new(5);
        let mut f = vfs.open(&p("x"), OpenMode::CreateTruncate).unwrap();
        f.write_all_at(0, &[0u8; 8]).unwrap();
        f.sync().unwrap();
        assert!(vfs.rot_bit(&p("x"), 3, 2));
        assert_eq!(vfs.file_bytes(&p("x")).unwrap()[3], 0b100);
        assert_eq!(vfs.durable_bytes(&p("x")).unwrap()[3], 0b100);
        assert!(!vfs.rot_bit(&p("x"), 99, 0), "offset past EOF");
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let vfs = FaultVfs::new(seed);
            vfs.set_config(FaultConfig {
                write_err_per_mille: 300,
                torn_write_per_mille: 200,
                sync_err_per_mille: 100,
                ..FaultConfig::default()
            });
            let mut f = vfs.open(&p("x"), OpenMode::CreateTruncate).unwrap();
            let mut outcomes = Vec::new();
            for i in 0..64u64 {
                outcomes.push(f.write_all_at(i * 8, &[i as u8; 8]).is_ok());
                outcomes.push(f.sync().is_ok());
            }
            (outcomes, vfs.state_digest())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds should diverge");
    }
}
