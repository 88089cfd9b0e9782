//! The write-ahead log.
//!
//! A WAL file is an 8-byte magic header followed by framed records:
//!
//! ```text
//! [len: u32] [seq: u64] [kind: u8] [payload: len bytes] [crc32: u32]
//! ```
//!
//! `crc32` covers `seq ‖ kind ‖ payload`. `seq` is strictly monotone within
//! a file. An append is *committed* when the fsync after it returns — the
//! caller acknowledges the mutation only then.
//!
//! Replay policy (the crash contract):
//!
//! * A **torn tail** — the file ends mid-record, or the final record's CRC
//!   is bad — is the expected artifact of a crash during append. Replay
//!   drops it and reports a clean recovery: that record was never
//!   acknowledged, so nothing committed is lost.
//! * A bad record **with valid data after it** cannot be a torn append —
//!   that is real corruption, reported as [`StoreError::Corrupt`] so the
//!   layer above refuses to serve garbage.

use crate::vfs::{OpenMode, OsVfs, Vfs, VfsFile};
use crate::{crc32, StoreError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WAL_MAGIC: &[u8; 8] = b"EXQWAL1\n";

/// Bytes a record's frame adds to its payload: length, sequence, kind, CRC.
pub const FRAME_OVERHEAD: usize = 4 + 8 + 1 + 4;

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub kind: u8,
    pub payload: Vec<u8>,
}

/// The outcome of scanning a WAL file.
#[derive(Debug)]
pub struct WalReplay {
    /// Records with valid frames, in file order.
    pub records: Vec<WalRecord>,
    /// True when a torn tail was dropped (crash during the final append).
    pub dropped_torn_tail: bool,
}

/// An append-only WAL handle. Not internally synchronized — the owner
/// wraps it in a lock and holds it across `append`.
#[derive(Debug)]
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    file: Box<dyn VfsFile>,
    next_seq: u64,
    /// Bytes of committed records in the file (magic included). This is
    /// the authoritative tail: a failed append never advances it.
    bytes: u64,
    records: u64,
    /// A failed append could not truncate its partial frame back off the
    /// file; the next append must restore the clean boundary first.
    tail_dirty: bool,
}

impl Wal {
    /// Creates an empty WAL (truncating any existing file) with the given
    /// first sequence number.
    pub fn create(vfs: Arc<dyn Vfs>, path: &Path, first_seq: u64) -> Result<Wal, StoreError> {
        let mut file = vfs.open(path, OpenMode::CreateTruncate)?;
        file.write_all_at(0, WAL_MAGIC)?;
        file.sync()?;
        Ok(Wal {
            vfs,
            path: path.to_path_buf(),
            file,
            next_seq: first_seq,
            bytes: WAL_MAGIC.len() as u64,
            records: 0,
            tail_dirty: false,
        })
    }

    /// Opens an existing WAL, scanning it fully (via [`Wal::replay`]) to
    /// find the tail, and truncating a torn tail so subsequent appends
    /// start on a clean boundary. Returns the handle and the replayable
    /// records.
    ///
    /// `first_seq` floors the next sequence number: after a checkpoint
    /// compacts the log to empty, the surviving records alone no longer
    /// remember how far the sequence advanced, so the owner passes the
    /// highest sequence its durable state covers plus one. Without the
    /// floor, appends after a reopen would reuse already-folded sequence
    /// numbers and the next recovery would silently skip them.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        first_seq: u64,
    ) -> Result<(Wal, WalReplay), StoreError> {
        let replay = Self::replay_with(&*vfs, path)?;
        let valid_len = WAL_MAGIC.len() as u64
            + replay
                .records
                .iter()
                .map(|r| (FRAME_OVERHEAD + r.payload.len()) as u64)
                .sum::<u64>();
        let mut file = vfs.open(path, OpenMode::ReadWrite)?;
        if replay.dropped_torn_tail {
            file.set_len(valid_len)?;
            file.sync()?;
        }
        let next_seq = replay
            .records
            .last()
            .map(|r| r.seq + 1)
            .unwrap_or(1)
            .max(first_seq);
        Ok((
            Wal {
                vfs,
                path: path.to_path_buf(),
                file,
                next_seq,
                bytes: valid_len,
                records: replay.records.len() as u64,
                tail_dirty: false,
            },
            replay,
        ))
    }

    /// Scans a WAL file on the real filesystem. See
    /// [`replay_with`](Self::replay_with).
    pub fn replay(path: &Path) -> Result<WalReplay, StoreError> {
        Self::replay_with(&OsVfs, path)
    }

    /// Scans a WAL file without opening it for writing, classifying a torn
    /// tail (clean) vs. mid-file corruption (typed error).
    pub fn replay_with(vfs: &dyn Vfs, path: &Path) -> Result<WalReplay, StoreError> {
        let buf = vfs.read(path)?;
        if buf.len() < WAL_MAGIC.len() || &buf[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(StoreError::Corrupt("wal: bad magic".into()));
        }
        let mut records = Vec::new();
        let mut pos = WAL_MAGIC.len();
        let mut torn_at: Option<usize> = None;
        let mut last_seq = 0u64;
        while pos < buf.len() {
            let Some(rec) = Self::decode_frame(&buf[pos..]) else {
                torn_at = Some(pos);
                break;
            };
            if rec.seq <= last_seq && !records.is_empty() {
                return Err(StoreError::Corrupt(format!(
                    "wal: sequence regressed ({} after {})",
                    rec.seq, last_seq
                )));
            }
            last_seq = rec.seq;
            pos += FRAME_OVERHEAD + rec.payload.len();
            records.push(rec);
        }
        if let Some(at) = torn_at {
            // Torn tail is fine only if nothing decodable follows. Scan
            // forward for any later frame that parses: if one does, the bad
            // bytes are mid-file corruption, not a crashed append.
            let rest = &buf[at..];
            for skip in 1..rest.len().saturating_sub(FRAME_OVERHEAD) {
                if Self::decode_frame(&rest[skip..]).is_some() {
                    return Err(StoreError::Corrupt(format!(
                        "wal: corrupt record at byte {at} with valid data after it"
                    )));
                }
            }
            return Ok(WalReplay {
                records,
                dropped_torn_tail: true,
            });
        }
        Ok(WalReplay {
            records,
            dropped_torn_tail: false,
        })
    }

    fn decode_frame(buf: &[u8]) -> Option<WalRecord> {
        if buf.len() < FRAME_OVERHEAD {
            return None;
        }
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        if len > buf.len() - FRAME_OVERHEAD || len > 1 << 30 {
            return None;
        }
        let seq = u64::from_le_bytes(buf[4..12].try_into().unwrap());
        let kind = buf[12];
        let payload = &buf[13..13 + len];
        let stored = u32::from_le_bytes(buf[13 + len..17 + len].try_into().unwrap());
        if stored != crc32(&buf[4..13 + len]) {
            return None;
        }
        Some(WalRecord {
            seq,
            kind,
            payload: payload.to_vec(),
        })
    }

    /// Appends one record and fsyncs. When this returns `Ok`, the record is
    /// committed. Returns the record's sequence number.
    ///
    /// On `Err` the record is **not** committed and the log tail is back at
    /// the last good record: a mid-record ENOSPC or torn write truncates its
    /// partial frame immediately, and when even that truncation fails the
    /// next append restores the boundary before writing (`tail_dirty`) — so
    /// a fault mid-append never turns into "corrupt record with valid data
    /// after it" on a later replay.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<u64, StoreError> {
        if self.tail_dirty {
            self.file.set_len(self.bytes)?;
            self.tail_dirty = false;
        }
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.push(kind);
        frame.extend_from_slice(payload);
        let crc = crc32(&frame[4..]);
        frame.extend_from_slice(&crc.to_le_bytes());
        let wrote = self.file.write_all_at(self.bytes, &frame);
        // The fsync after a clean write is the commit point. A record that
        // was written but whose fsync failed is scrubbed back off too: the
        // caller sees an error and treats the mutation as not-committed, so
        // letting the frame survive to a later replay would resurrect a
        // mutation nobody acknowledged.
        let committed = wrote.and_then(|()| self.file.sync());
        if let Err(e) = committed {
            self.tail_dirty = self.file.set_len(self.bytes).is_err();
            return Err(e);
        }
        self.next_seq = seq + 1;
        self.bytes += frame.len() as u64;
        self.records += 1;
        Ok(seq)
    }

    /// Rewrites the log keeping only records with `seq > keep_after_seq`
    /// (checkpoint compaction). Crash-safe via tmp file + atomic rename.
    pub fn compact(&mut self, keep_after_seq: u64) -> Result<(), StoreError> {
        let replay = Self::replay_with(&*self.vfs, &self.path)?;
        let tmp = self.path.with_extension("wal.tmp");
        let mut out = self.vfs.open(&tmp, OpenMode::CreateTruncate)?;
        out.write_all_at(0, WAL_MAGIC)?;
        let mut bytes = WAL_MAGIC.len() as u64;
        let mut kept = 0u64;
        for rec in replay.records.iter().filter(|r| r.seq > keep_after_seq) {
            let mut frame = Vec::with_capacity(FRAME_OVERHEAD + rec.payload.len());
            frame.extend_from_slice(&(rec.payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&rec.seq.to_le_bytes());
            frame.push(rec.kind);
            frame.extend_from_slice(&rec.payload);
            let crc = crc32(&frame[4..]);
            frame.extend_from_slice(&crc.to_le_bytes());
            out.write_all_at(bytes, &frame)?;
            bytes += frame.len() as u64;
            kept += 1;
        }
        out.sync()?;
        drop(out);
        self.vfs.rename(&tmp, &self.path)?;
        let mut file = self.vfs.open(&self.path, OpenMode::ReadWrite)?;
        file.sync()?;
        self.file = file;
        self.bytes = bytes;
        self.records = kept;
        self.tail_dirty = false;
        Ok(())
    }

    /// Re-scans this log's current file, returning every decodable record
    /// (a torn tail is dropped, mid-file corruption is a typed error). The
    /// scrubber's repair source for recently inserted records.
    pub fn records(&self) -> Result<Vec<WalRecord>, StoreError> {
        Ok(Self::replay_with(&*self.vfs, &self.path)?.records)
    }

    /// fsync the log file without appending: the cheap "is storage
    /// answering again?" probe degraded-mode recovery uses.
    pub fn probe_sync(&mut self) -> Result<(), StoreError> {
        self.file.sync()
    }

    /// Sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Current file size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records currently in the log (the WAL "depth").
    pub fn depth(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultConfig, FaultVfs};

    fn osv() -> Arc<dyn Vfs> {
        Arc::new(OsVfs)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("exq-store-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = tmp("roundtrip.wal");
        let mut wal = Wal::create(osv(), &path, 1).unwrap();
        assert_eq!(wal.append(1, b"first").unwrap(), 1);
        assert_eq!(wal.append(2, b"").unwrap(), 2);
        assert_eq!(wal.append(1, &[0xAB; 300]).unwrap(), 3);
        assert_eq!(wal.depth(), 3);
        let replay = Wal::replay(&path).unwrap();
        assert!(!replay.dropped_torn_tail);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[0].payload, b"first");
        assert_eq!(replay.records[1].kind, 2);
        assert_eq!(replay.records[2].seq, 3);
    }

    #[test]
    fn torn_tail_at_every_boundary_recovers_cleanly() {
        let path = tmp("torn.wal");
        let mut wal = Wal::create(osv(), &path, 1).unwrap();
        wal.append(1, b"alpha").unwrap();
        wal.append(1, b"beta-longer-payload").unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let first_end = WAL_MAGIC.len() + FRAME_OVERHEAD + 5;
        // Truncate at every byte position inside the second record: always
        // a clean recovery preserving record 1.
        for cut in first_end..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (wal, replay) = Wal::open(osv(), &path, 1).unwrap();
            assert_eq!(replay.records.len(), 1, "cut at {cut}");
            // cut == first_end is a clean file ending exactly after
            // record 1; every other cut leaves a torn tail.
            assert!(cut == first_end || replay.dropped_torn_tail);
            assert_eq!(wal.next_seq(), 2);
        }
        // And truncation inside the FIRST record leaves an empty, usable log.
        for cut in WAL_MAGIC.len()..first_end {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (wal, replay) = Wal::open(osv(), &path, 1).unwrap();
            assert!(replay.records.is_empty(), "cut at {cut}");
            assert_eq!(wal.next_seq(), 1);
        }
    }

    #[test]
    fn append_after_torn_tail_truncation() {
        let path = tmp("truncate-then-append.wal");
        let mut wal = Wal::create(osv(), &path, 1).unwrap();
        wal.append(1, b"keep").unwrap();
        wal.append(1, b"torn").unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 2]).unwrap();
        let (mut wal, replay) = Wal::open(osv(), &path, 1).unwrap();
        assert!(replay.dropped_torn_tail);
        wal.append(3, b"fresh").unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].payload, b"fresh");
        assert_eq!(replay.records[1].seq, 2);
    }

    #[test]
    fn mid_file_corruption_is_typed_error() {
        let path = tmp("midfile.wal");
        let mut wal = Wal::create(osv(), &path, 1).unwrap();
        wal.append(1, b"one").unwrap();
        wal.append(1, b"two").unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte in the FIRST record: record two still parses
        // after it, so this must be Corrupt, not a clean torn-tail drop.
        bytes[WAL_MAGIC.len() + 14] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::replay(&path), Err(StoreError::Corrupt(_))));
        assert!(matches!(
            Wal::open(osv(), &path, 1),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn enospc_mid_record_leaves_tail_at_last_good_record() {
        // Regression: a mid-record disk-full used to leave the partial
        // frame in the file with the next append written after it — which
        // replay then classified as mid-file corruption. The tail must be
        // restored to the last good record before anything new lands.
        let vfs = FaultVfs::new(0xE05);
        let path = PathBuf::from("log.wal");
        let mut wal = Wal::create(Arc::new(vfs.clone()), &path, 1).unwrap();
        wal.append(1, b"good-one").unwrap();
        let clean_len = vfs.file_bytes(&path).unwrap().len();
        // Every write now hits disk-full mid-record (a seeded prefix of
        // the frame lands first), and the truncate-back fails too — the
        // worst case, leaving a dirty tail for the *next* append to fix.
        vfs.set_config(FaultConfig {
            enospc_per_mille: 1000,
            write_err_per_mille: 1000,
            ..FaultConfig::default()
        });
        let err = wal.append(1, b"doomed-payload").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "got: {err}");
        vfs.set_config(FaultConfig::default());
        // The failed append burned no sequence number, and the recovery
        // truncation happens before the new frame is placed.
        assert_eq!(wal.append(1, b"fresh").unwrap(), 2);
        let replay = wal.records().unwrap();
        assert_eq!(
            replay.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2],
            "partial frame must not survive between good records"
        );
        assert_eq!(replay[1].payload, b"fresh");
        assert!(vfs.file_bytes(&path).unwrap().len() > clean_len);
    }

    #[test]
    fn failed_fsync_scrubs_the_unacknowledged_record() {
        // A frame that was fully written but whose fsync failed was never
        // acknowledged; letting it replay later would resurrect a mutation
        // the caller was told failed.
        let vfs = FaultVfs::new(0xF5C);
        let path = PathBuf::from("log.wal");
        let mut wal = Wal::create(Arc::new(vfs.clone()), &path, 1).unwrap();
        wal.append(1, b"acked").unwrap();
        vfs.set_config(FaultConfig {
            sync_err_per_mille: 1000,
            ..FaultConfig::default()
        });
        assert!(wal.append(1, b"never-acked").is_err());
        vfs.set_config(FaultConfig::default());
        let replay = wal.records().unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].payload, b"acked");
        // And the log stays fully usable.
        assert_eq!(wal.append(1, b"next").unwrap(), 2);
    }

    #[test]
    fn compact_keeps_tail_and_stays_appendable() {
        let path = tmp("compact.wal");
        let mut wal = Wal::create(osv(), &path, 1).unwrap();
        for i in 0..5u8 {
            wal.append(1, &[i]).unwrap();
        }
        wal.compact(3).unwrap();
        assert_eq!(wal.depth(), 2);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(
            replay.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        wal.append(1, b"after-compact").unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records.last().unwrap().seq, 6);
    }
}
