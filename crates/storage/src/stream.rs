//! Append-only payload streams.
//!
//! The ledger proxy ships transaction payloads to shared storage and only
//! the payload digest travels to the ledger server (Fig 1). A
//! [`StreamStore`] is that shared storage: slots are addressed by the jsn
//! they belong to, appends are strictly sequential, and erasure (for purge
//! and occult) tombstones a slot without renumbering.
//!
//! # On-disk format (version 2)
//!
//! The file-backed store is a crash-consistent record log:
//!
//! ```text
//! file   := magic record*
//! magic  := "LDBSTRM2"                                 (8 bytes)
//! record := len:u32 flags:u8 digest:[u8;32] payload:[u8;len] crc:u32
//! ```
//!
//! `crc` is CRC32 (IEEE) over everything before it in the record, so a
//! torn or bit-flipped record never yields garbage payloads. Opening a
//! store re-scans the log verifying every CRC:
//!
//! * a **partial final record** (the file ends before the record does) is
//!   the signature of a crash mid-append — it is *trimmed* and reported
//!   via [`StreamStore::truncated_bytes`], not treated as corruption;
//! * a **complete record with a bad CRC** means bit rot or tampering and
//!   fails the open with [`StorageError::Corrupt`].
//!
//! Durability of appends is governed by [`FsyncPolicy`]. Erasure always
//! zeroes the payload bytes on disk, rewrites the CRC for the zeroed
//! form, and syncs — occult (§III-A3) promises *physical* erasure.

use crate::checkpoint::CkptIo;
use crate::crc32::{crc32, Crc32};
use crate::metrics::StoreMetrics;
use crate::StorageError;
use ledgerdb_crypto::sync::RwLock;
use ledgerdb_crypto::{sha256, Digest};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The stream-store interface shared by memory and file backends.
pub trait StreamStore: Send + Sync {
    /// Append a payload; returns its slot index.
    fn append(&self, payload: &[u8]) -> Result<u64, StorageError>;

    /// Read the payload at `index` (fails if erased).
    fn read(&self, index: u64) -> Result<Vec<u8>, StorageError>;

    /// Digest of the payload at `index` (retained even after erasure, as
    /// Protocol 2 requires for occulted journals).
    fn digest(&self, index: u64) -> Result<Digest, StorageError>;

    /// Physically erase the payload, keeping the digest tombstone.
    fn erase(&self, index: u64) -> Result<(), StorageError>;

    /// Number of slots (erased slots included).
    fn len(&self) -> u64;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the slot's payload has been erased.
    fn is_erased(&self, index: u64) -> Result<bool, StorageError>;

    /// Force buffered appends to stable storage (no-op for memory).
    fn sync(&self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Group-commit append: write every payload, then force the whole
    /// batch to stable storage with a *single* sync, regardless of the
    /// per-append [`FsyncPolicy`]. Returns the slot index of the first
    /// payload (the rest follow sequentially). This is the primitive the
    /// service layer's group-commit batcher amortizes its fsync cost
    /// with: one durable-write barrier per batch window instead of one
    /// per append.
    fn append_batch(&self, payloads: &[Vec<u8>]) -> Result<u64, StorageError> {
        let first = self.len();
        for payload in payloads {
            self.append(payload)?;
        }
        self.sync()?;
        Ok(first)
    }

    /// Bytes trimmed from a torn tail when the store was opened (0 for
    /// memory stores and freshly created files).
    fn truncated_bytes(&self) -> u64 {
        0
    }

    /// Drop every slot at index `new_len` and beyond. Recovery uses this
    /// to discard orphan payloads whose journal metadata never became
    /// durable.
    fn truncate_records(&self, new_len: u64) -> Result<(), StorageError>;

    /// Atomically reset the store to empty — the checkpoint engine calls
    /// this after committing a checkpoint that covers every record, so
    /// the log becomes a pure post-checkpoint tail. File backends must
    /// make the reset crash-atomic (tmp-write → fsync → rename via the
    /// injectable [`CkptIo`]): at every kill point the log is either the
    /// full old log or a valid empty one, never torn in a way the opener
    /// would misread. Memory backends just truncate.
    fn reset(&self, _io: &CkptIo) -> Result<(), StorageError> {
        self.truncate_records(0)
    }
}

enum Slot {
    Live { payload: Vec<u8>, digest: Digest },
    Erased { digest: Digest },
}

/// An in-memory stream store (the default for tests and benches).
#[derive(Default)]
pub struct MemoryStreamStore {
    slots: RwLock<Vec<Slot>>,
}

impl MemoryStreamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total live payload bytes — the storage-overhead metric purge
    /// experiments report.
    pub fn live_bytes(&self) -> u64 {
        self.slots
            .read()
            .iter()
            .map(|s| match s {
                Slot::Live { payload, .. } => payload.len() as u64,
                Slot::Erased { .. } => 0,
            })
            .sum()
    }
}

impl StreamStore for MemoryStreamStore {
    fn append(&self, payload: &[u8]) -> Result<u64, StorageError> {
        let mut slots = self.slots.write();
        let index = slots.len() as u64;
        slots.push(Slot::Live { payload: payload.to_vec(), digest: sha256(payload) });
        Ok(index)
    }

    fn read(&self, index: u64) -> Result<Vec<u8>, StorageError> {
        let slots = self.slots.read();
        match slots.get(index as usize) {
            Some(Slot::Live { payload, .. }) => Ok(payload.clone()),
            Some(Slot::Erased { .. }) => Err(StorageError::Erased(index)),
            None => Err(StorageError::OutOfRange { index, len: slots.len() as u64 }),
        }
    }

    fn digest(&self, index: u64) -> Result<Digest, StorageError> {
        let slots = self.slots.read();
        match slots.get(index as usize) {
            Some(Slot::Live { digest, .. }) | Some(Slot::Erased { digest }) => Ok(*digest),
            None => Err(StorageError::OutOfRange { index, len: slots.len() as u64 }),
        }
    }

    fn erase(&self, index: u64) -> Result<(), StorageError> {
        let mut slots = self.slots.write();
        let len = slots.len() as u64;
        match slots.get_mut(index as usize) {
            Some(slot @ Slot::Live { .. }) => {
                let digest = match slot {
                    Slot::Live { digest, .. } => *digest,
                    Slot::Erased { .. } => unreachable!(),
                };
                *slot = Slot::Erased { digest };
                Ok(())
            }
            Some(Slot::Erased { .. }) => Ok(()), // Idempotent.
            None => Err(StorageError::OutOfRange { index, len }),
        }
    }

    fn len(&self) -> u64 {
        self.slots.read().len() as u64
    }

    fn is_erased(&self, index: u64) -> Result<bool, StorageError> {
        let slots = self.slots.read();
        match slots.get(index as usize) {
            Some(Slot::Live { .. }) => Ok(false),
            Some(Slot::Erased { .. }) => Ok(true),
            None => Err(StorageError::OutOfRange { index, len: slots.len() as u64 }),
        }
    }

    fn truncate_records(&self, new_len: u64) -> Result<(), StorageError> {
        let mut slots = self.slots.write();
        if new_len > slots.len() as u64 {
            return Err(StorageError::OutOfRange { index: new_len, len: slots.len() as u64 });
        }
        slots.truncate(new_len as usize);
        Ok(())
    }
}

/// When appends reach stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append — the crash window is a single
    /// (recoverable) torn record.
    Always,
    /// `fdatasync` every N appends — bounds loss to the last N-1 records.
    EveryN(u64),
    /// Never sync on the append path; the OS flushes when it pleases.
    /// `erase` still syncs (physical erasure is a promise, not a hint).
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Always
    }
}

/// Stream file magic ("version 2" = CRC-framed records).
const STREAM_MAGIC: &[u8; 8] = b"LDBSTRM2";
/// Record header: len (4) + flags (1) + digest (32).
pub const REC_HEADER: usize = 37;
/// CRC32 trailer.
pub const REC_TRAILER: usize = 4;
/// Flags values.
const FLAG_LIVE: u8 = 0;
const FLAG_ERASED: u8 = 1;

/// Serialize one record (header + payload + CRC trailer). Public so the
/// fault-injection store can write deliberately truncated prefixes of a
/// valid record, simulating a crash mid-append.
pub fn encode_record(digest: &Digest, erased: bool, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REC_HEADER + payload.len() + REC_TRAILER);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.push(if erased { FLAG_ERASED } else { FLAG_LIVE });
    out.extend_from_slice(&digest.0);
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

#[derive(Clone, Copy)]
struct RecordMeta {
    off: u64,
    len: u32,
    erased: bool,
    digest: Digest,
}

struct Inner {
    file: File,
    /// Cached end-of-file offset (avoids a seek per append).
    end: u64,
    /// Appends since the last fdatasync (for `FsyncPolicy::EveryN`).
    since_sync: u64,
}

/// A file-backed stream store: one CRC-framed record log plus an
/// in-memory record index.
pub struct FileStreamStore {
    inner: RwLock<Inner>,
    meta: RwLock<Vec<RecordMeta>>,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Torn-tail bytes trimmed at open (0 for created stores).
    truncated: u64,
    /// Telemetry handles (global registry unless rebound).
    metrics: StoreMetrics,
}

impl FileStreamStore {
    /// Create (or truncate) a store at `path` with the default
    /// (`Always`) fsync policy.
    pub fn create(path: &Path) -> Result<Self, StorageError> {
        Self::create_with(path, FsyncPolicy::default())
    }

    /// Create (or truncate) a store at `path`.
    pub fn create_with(path: &Path, policy: FsyncPolicy) -> Result<Self, StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(STREAM_MAGIC)?;
        file.sync_data()?;
        Ok(FileStreamStore {
            inner: RwLock::new(Inner { file, end: STREAM_MAGIC.len() as u64, since_sync: 0 }),
            meta: RwLock::new(Vec::new()),
            path: path.to_path_buf(),
            policy,
            truncated: 0,
            metrics: StoreMetrics::default(),
        })
    }

    /// Reopen an existing store with the default (`Always`) policy.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        Self::open_with(path, FsyncPolicy::default())
    }

    /// Reopen an existing store: verify the magic, re-scan every record
    /// (checking each CRC), and trim a torn tail if the file ends inside
    /// a record. A complete record that fails its CRC is corruption and
    /// fails the open.
    pub fn open_with(path: &Path, policy: FsyncPolicy) -> Result<Self, StorageError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let end = file.seek(SeekFrom::End(0))?;
        let magic_len = STREAM_MAGIC.len() as u64;

        // A file shorter than the magic can only be a crash during
        // creation: restore the empty store.
        if end < magic_len {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(STREAM_MAGIC)?;
            file.sync_data()?;
            return Ok(FileStreamStore {
                inner: RwLock::new(Inner { file, end: magic_len, since_sync: 0 }),
                meta: RwLock::new(Vec::new()),
                path: path.to_path_buf(),
                policy,
                truncated: end,
                metrics: StoreMetrics::default(),
            });
        }

        file.seek(SeekFrom::Start(0))?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if &magic != STREAM_MAGIC {
            return Err(StorageError::Corrupt("bad stream magic"));
        }

        let mut meta = Vec::new();
        let mut pos = magic_len;
        let mut header = [0u8; REC_HEADER];
        let mut torn = false;
        while pos < end {
            let remaining = end - pos;
            if remaining < (REC_HEADER + REC_TRAILER) as u64 {
                torn = true;
                break;
            }
            file.seek(SeekFrom::Start(pos))?;
            file.read_exact(&mut header)?;
            let len = u32::from_be_bytes(header[0..4].try_into().expect("fixed width"));
            let flags = header[4];
            let total = (REC_HEADER + REC_TRAILER) as u64 + len as u64;
            if remaining < total {
                torn = true;
                break;
            }
            let mut body = vec![0u8; len as usize + REC_TRAILER];
            file.read_exact(&mut body)?;
            let stored_crc =
                u32::from_be_bytes(body[len as usize..].try_into().expect("fixed width"));
            let mut crc = Crc32::new();
            crc.update(&header);
            crc.update(&body[..len as usize]);
            if crc.finalize() != stored_crc {
                // The record is complete on disk, so this is not a torn
                // write — it is bit rot or tampering.
                return Err(StorageError::Corrupt("record crc mismatch"));
            }
            if flags > FLAG_ERASED {
                return Err(StorageError::Corrupt("bad record flags"));
            }
            meta.push(RecordMeta {
                off: pos,
                len,
                erased: flags == FLAG_ERASED,
                digest: Digest(header[5..37].try_into().expect("fixed width")),
            });
            pos += total;
        }
        let truncated = if torn {
            file.set_len(pos)?;
            file.sync_data()?;
            end - pos
        } else {
            0
        };
        Ok(FileStreamStore {
            inner: RwLock::new(Inner { file, end: pos, since_sync: 0 }),
            meta: RwLock::new(meta),
            path: path.to_path_buf(),
            policy,
            truncated,
            metrics: StoreMetrics::default(),
        })
    }

    /// Rebind telemetry to `registry` (default: the global registry).
    /// Call before the store is shared across threads.
    pub fn bind_metrics(&mut self, registry: &ledgerdb_telemetry::Registry) {
        self.metrics = StoreMetrics::bind(registry);
    }

    /// Issue an fdatasync barrier, counting it and its latency.
    fn barrier(&self, file: &File) -> Result<(), StorageError> {
        let _span = ledgerdb_telemetry::trace::StageSpan::begin("fsync");
        let start = Instant::now();
        file.sync_data()?;
        self.metrics.fsyncs.inc();
        self.metrics.fsync_seconds.observe_duration(start.elapsed());
        Ok(())
    }

    /// Byte span `(offset, length)` of record `index` in the file —
    /// exposed for fault injection and forensic tests.
    pub fn record_span(&self, index: u64) -> Option<(u64, u64)> {
        let meta = self.meta.read();
        meta.get(index as usize)
            .map(|m| (m.off, (REC_HEADER + REC_TRAILER) as u64 + m.len as u64))
    }

    /// Append raw bytes at the end of the log *without* registering a
    /// record, then sync. This simulates the on-disk effect of a crash
    /// mid-append (the process died; its in-memory index never learned
    /// about the bytes). Used by the fault-injection store.
    pub fn raw_append(&self, bytes: &[u8]) -> Result<(), StorageError> {
        let mut inner = self.inner.write();
        let end = inner.end;
        inner.file.seek(SeekFrom::Start(end))?;
        inner.file.write_all(bytes)?;
        inner.file.sync_data()?;
        inner.end += bytes.len() as u64;
        Ok(())
    }

    /// XOR `mask` into one byte of record `index` on disk (fault
    /// injection: simulated bit rot). The in-memory index is untouched.
    pub fn corrupt_byte(&self, index: u64, byte: u64, mask: u8) -> Result<(), StorageError> {
        let (off, total) = self
            .record_span(index)
            .ok_or(StorageError::OutOfRange { index, len: self.len() })?;
        let target = off + byte.min(total - 1);
        let mut inner = self.inner.write();
        inner.file.seek(SeekFrom::Start(target))?;
        let mut b = [0u8; 1];
        inner.file.read_exact(&mut b)?;
        b[0] ^= mask;
        inner.file.seek(SeekFrom::Start(target))?;
        inner.file.write_all(&b)?;
        inner.file.sync_data()?;
        Ok(())
    }

    fn append_record(&self, payload: &[u8]) -> Result<u64, StorageError> {
        if payload.len() as u64 > u32::MAX as u64 {
            return Err(StorageError::Corrupt("payload exceeds record size limit"));
        }
        let digest = sha256(payload);
        let record = encode_record(&digest, false, payload);
        let mut inner = self.inner.write();
        let off = inner.end;
        inner.file.seek(SeekFrom::Start(off))?;
        inner.file.write_all(&record)?;
        self.metrics.write_bytes.add(record.len() as u64);
        inner.end += record.len() as u64;
        inner.since_sync += 1;
        let do_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => inner.since_sync >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if do_sync {
            self.barrier(&inner.file)?;
            inner.since_sync = 0;
        }
        let mut meta = self.meta.write();
        meta.push(RecordMeta { off, len: payload.len() as u32, erased: false, digest });
        Ok(meta.len() as u64 - 1)
    }

    fn read_record(&self, index: u64) -> Result<(Digest, bool, Vec<u8>), StorageError> {
        let m = {
            let meta = self.meta.read();
            *meta
                .get(index as usize)
                .ok_or(StorageError::OutOfRange { index, len: meta.len() as u64 })?
        };
        let total = REC_HEADER + m.len as usize + REC_TRAILER;
        let mut buf = vec![0u8; total];
        {
            let mut inner = self.inner.write();
            inner.file.seek(SeekFrom::Start(m.off))?;
            inner.file.read_exact(&mut buf)?;
        }
        let stored_crc =
            u32::from_be_bytes(buf[total - REC_TRAILER..].try_into().expect("fixed width"));
        if crc32(&buf[..total - REC_TRAILER]) != stored_crc {
            return Err(StorageError::Corrupt("record crc mismatch"));
        }
        let erased = buf[4] == FLAG_ERASED;
        let digest = Digest(buf[5..37].try_into().expect("fixed width"));
        let payload = buf[REC_HEADER..total - REC_TRAILER].to_vec();
        Ok((digest, erased, payload))
    }
}

impl StreamStore for FileStreamStore {
    fn append(&self, payload: &[u8]) -> Result<u64, StorageError> {
        self.append_record(payload)
    }

    fn read(&self, index: u64) -> Result<Vec<u8>, StorageError> {
        let (_, erased, payload) = self.read_record(index)?;
        if erased {
            return Err(StorageError::Erased(index));
        }
        Ok(payload)
    }

    fn digest(&self, index: u64) -> Result<Digest, StorageError> {
        let meta = self.meta.read();
        meta.get(index as usize)
            .map(|m| m.digest)
            .ok_or(StorageError::OutOfRange { index, len: meta.len() as u64 })
    }

    /// Physically erase: zero the payload bytes, flip the flag, rewrite
    /// the CRC for the zeroed form, and sync — regardless of the append
    /// fsync policy.
    fn erase(&self, index: u64) -> Result<(), StorageError> {
        let mut inner = self.inner.write();
        let mut meta = self.meta.write();
        let m = *meta
            .get(index as usize)
            .ok_or(StorageError::OutOfRange { index, len: meta.len() as u64 })?;
        if m.erased {
            return Ok(()); // Idempotent.
        }
        // Rewrite the record in its erased form: same len field, erased
        // flag, same digest tombstone, zeroed payload, fresh CRC.
        let mut record = Vec::with_capacity(REC_HEADER + m.len as usize + REC_TRAILER);
        record.extend_from_slice(&m.len.to_be_bytes());
        record.push(FLAG_ERASED);
        record.extend_from_slice(&m.digest.0);
        record.resize(REC_HEADER + m.len as usize, 0);
        let crc = crc32(&record);
        record.extend_from_slice(&crc.to_be_bytes());
        inner.file.seek(SeekFrom::Start(m.off))?;
        inner.file.write_all(&record)?;
        self.barrier(&inner.file)?;
        self.metrics.write_bytes.add(record.len() as u64);
        self.metrics.erases.inc();
        self.metrics.erased_bytes.add(m.len as u64);
        meta[index as usize].erased = true;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.meta.read().len() as u64
    }

    fn is_erased(&self, index: u64) -> Result<bool, StorageError> {
        let meta = self.meta.read();
        meta.get(index as usize)
            .map(|m| m.erased)
            .ok_or(StorageError::OutOfRange { index, len: meta.len() as u64 })
    }

    fn sync(&self) -> Result<(), StorageError> {
        let mut inner = self.inner.write();
        // Skip the fdatasync when no append landed since the last one
        // (erase/truncate sync inline, so `since_sync == 0` means the
        // file is already stable). The group-commit barrier calls sync
        // on both streams right after `append_batch` synced one of them
        // — this makes the redundant half free.
        if inner.since_sync == 0 {
            return Ok(());
        }
        self.barrier(&inner.file)?;
        inner.since_sync = 0;
        Ok(())
    }

    /// Batched append: every record is encoded into one contiguous
    /// buffer, written with a single `write_all`, and made durable with
    /// a single `fdatasync` — the group-commit fast path. Slot indexes
    /// are assigned exactly as repeated [`StreamStore::append`] calls
    /// would assign them.
    fn append_batch(&self, payloads: &[Vec<u8>]) -> Result<u64, StorageError> {
        if payloads.is_empty() {
            return Ok(self.len());
        }
        for payload in payloads {
            if payload.len() as u64 > u32::MAX as u64 {
                return Err(StorageError::Corrupt("payload exceeds record size limit"));
            }
        }
        let mut buf = Vec::new();
        let mut spans = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let digest = sha256(payload);
            let rec = encode_record(&digest, false, payload);
            spans.push((buf.len() as u64, payload.len() as u32, digest));
            buf.extend_from_slice(&rec);
        }
        let mut inner = self.inner.write();
        let base = inner.end;
        inner.file.seek(SeekFrom::Start(base))?;
        inner.file.write_all(&buf)?;
        self.metrics.write_bytes.add(buf.len() as u64);
        self.barrier(&inner.file)?;
        inner.end += buf.len() as u64;
        inner.since_sync = 0;
        let mut meta = self.meta.write();
        let first = meta.len() as u64;
        for (rel, len, digest) in spans {
            meta.push(RecordMeta { off: base + rel, len, erased: false, digest });
        }
        Ok(first)
    }

    fn truncated_bytes(&self) -> u64 {
        self.truncated
    }

    fn truncate_records(&self, new_len: u64) -> Result<(), StorageError> {
        let mut inner = self.inner.write();
        let mut meta = self.meta.write();
        if new_len > meta.len() as u64 {
            return Err(StorageError::OutOfRange { index: new_len, len: meta.len() as u64 });
        }
        if new_len == meta.len() as u64 {
            return Ok(());
        }
        let new_end = meta[new_len as usize].off;
        inner.file.set_len(new_end)?;
        inner.file.sync_data()?;
        inner.end = new_end;
        meta.truncate(new_len as usize);
        Ok(())
    }

    /// Crash-atomic reset to an empty log. A magic-only replacement file
    /// is written beside the log, fsynced, and renamed over it; the
    /// rename is the commit point. A kill before the rename leaves the
    /// old log fully intact (the checkpoint loader skips its covered
    /// records by watermark); a kill after leaves a valid empty log.
    /// The `.reset.tmp` residue of a pre-rename kill is clobbered by the
    /// next reset and never opened as a store.
    fn reset(&self, io: &CkptIo) -> Result<(), StorageError> {
        let mut inner = self.inner.write();
        let mut meta = self.meta.write();
        let tmp = {
            let mut os = self.path.clone().into_os_string();
            os.push(".reset.tmp");
            PathBuf::from(os)
        };
        io.write_file(&tmp, STREAM_MAGIC)?;
        io.sync_file(&tmp)?;
        io.rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            io.sync_dir(dir)?;
        }
        // The old fd still points at the unlinked inode; swap in a
        // handle on the fresh file.
        let file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        *inner = Inner { file, end: STREAM_MAGIC.len() as u64, since_sync: 0 };
        meta.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ledgerdb-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn exercise(store: &dyn StreamStore) {
        let a = store.append(b"payload-a").unwrap();
        let b = store.append(b"payload-b").unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(store.read(0).unwrap(), b"payload-a");
        assert_eq!(store.read(1).unwrap(), b"payload-b");
        assert_eq!(store.digest(0).unwrap(), sha256(b"payload-a"));
        assert_eq!(store.len(), 2);
        assert!(!store.is_erased(0).unwrap());

        store.erase(0).unwrap();
        assert!(store.is_erased(0).unwrap());
        assert!(matches!(store.read(0), Err(StorageError::Erased(0))));
        // Digest tombstone survives erasure (Protocol 2's requirement).
        assert_eq!(store.digest(0).unwrap(), sha256(b"payload-a"));
        // Erase is idempotent.
        store.erase(0).unwrap();

        assert!(matches!(store.read(9), Err(StorageError::OutOfRange { .. })));
    }

    #[test]
    fn memory_store() {
        let store = MemoryStreamStore::new();
        exercise(&store);
        assert_eq!(store.live_bytes(), "payload-b".len() as u64);
    }

    #[test]
    fn file_store() {
        let dir = temp_dir("stream");
        let path = dir.join("stream.dat");
        {
            let store = FileStreamStore::create(&path).unwrap();
            exercise(&store);
        }
        // Reopen: index rebuilt by scan; erasure and digests persist.
        let store = FileStreamStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.truncated_bytes(), 0);
        assert!(store.is_erased(0).unwrap());
        assert_eq!(store.read(1).unwrap(), b"payload-b");
        assert_eq!(store.digest(0).unwrap(), sha256(b"payload-a"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_trimmed_not_fatal() {
        let dir = temp_dir("torntail");
        let path = dir.join("stream.dat");
        let (off, full) = {
            let store = FileStreamStore::create(&path).unwrap();
            store.append(b"first record").unwrap();
            store.append(b"second record, about to be torn").unwrap();
            let (off, _) = store.record_span(1).unwrap();
            (off, std::fs::metadata(&path).unwrap().len())
        };
        // Cut into the middle of the second record.
        let cut = off + 10;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let store = FileStreamStore::open(&path).unwrap();
        assert_eq!(store.len(), 1, "clean prefix recovered");
        assert_eq!(store.truncated_bytes(), cut - off);
        assert_eq!(store.read(0).unwrap(), b"first record");
        // The trim is durable: a second reopen sees a clean log.
        drop(store);
        let store = FileStreamStore::open(&path).unwrap();
        assert_eq!(store.truncated_bytes(), 0);
        assert!(std::fs::metadata(&path).unwrap().len() < full);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_corruption_not_torn_tail() {
        let dir = temp_dir("bitflip");
        let path = dir.join("stream.dat");
        {
            let store = FileStreamStore::create(&path).unwrap();
            store.append(b"data that must stay intact").unwrap();
            // Flip a payload byte after the record is fully on disk.
            store.corrupt_byte(0, REC_HEADER as u64 + 3, 0x40).unwrap();
        }
        assert!(matches!(
            FileStreamStore::open(&path),
            Err(StorageError::Corrupt("record crc mismatch"))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_verifies_crc() {
        let dir = temp_dir("readcrc");
        let path = dir.join("stream.dat");
        let store = FileStreamStore::create(&path).unwrap();
        store.append(b"verified on every read").unwrap();
        assert!(store.read(0).is_ok());
        store.corrupt_byte(0, REC_HEADER as u64, 0x80).unwrap();
        assert!(matches!(store.read(0), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn erase_zeroizes_bytes_on_disk() {
        let dir = temp_dir("zeroize");
        let path = dir.join("stream.dat");
        let secret = b"extremely sensitive payload bytes";
        let store = FileStreamStore::create(&path).unwrap();
        store.append(secret).unwrap();
        let (off, total) = store.record_span(0).unwrap();
        store.erase(0).unwrap();
        drop(store);

        let raw = std::fs::read(&path).unwrap();
        let payload_region =
            &raw[(off as usize + REC_HEADER)..(off as usize + total as usize - REC_TRAILER)];
        assert!(payload_region.iter().all(|&b| b == 0), "payload bytes zeroed on disk");
        assert!(
            !raw.windows(secret.len()).any(|w| w == secret),
            "no trace of the secret anywhere in the file"
        );
        // The erased record still round-trips its CRC on reopen.
        let store = FileStreamStore::open(&path).unwrap();
        assert!(store.is_erased(0).unwrap());
        assert_eq!(store.digest(0).unwrap(), sha256(secret));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policies_accept_appends() {
        for (tag, policy) in [
            ("always", FsyncPolicy::Always),
            ("every3", FsyncPolicy::EveryN(3)),
            ("never", FsyncPolicy::Never),
        ] {
            let dir = temp_dir(&format!("policy-{tag}"));
            let path = dir.join("stream.dat");
            let store = FileStreamStore::create_with(&path, policy).unwrap();
            for i in 0..10u64 {
                store.append(&i.to_be_bytes()).unwrap();
            }
            store.sync().unwrap();
            drop(store);
            let store = FileStreamStore::open(&path).unwrap();
            assert_eq!(store.len(), 10);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn kill_at_every_offset_recovers_or_reports() {
        // Satellite: truncate a valid stream at EVERY byte boundary; open
        // must either recover a clean prefix or (never here, since pure
        // truncation is always a torn tail) return Corrupt — and never
        // panic or return garbage.
        let dir = temp_dir("killatoffset");
        let golden = dir.join("golden.dat");
        let payloads: Vec<Vec<u8>> = vec![
            b"alpha".to_vec(),
            Vec::new(), // empty payload record
            vec![0xEE; 100],
            b"delta-journal".to_vec(),
        ];
        let mut ends = Vec::new();
        {
            let store = FileStreamStore::create(&golden).unwrap();
            for p in &payloads {
                let i = store.append(p).unwrap();
                let (off, total) = store.record_span(i).unwrap();
                ends.push(off + total);
            }
        }
        let bytes = std::fs::read(&golden).unwrap();
        let victim = dir.join("victim.dat");
        for cut in 0..=bytes.len() as u64 {
            std::fs::write(&victim, &bytes[..cut as usize]).unwrap();
            let store = match FileStreamStore::open_with(&victim, FsyncPolicy::Never) {
                Ok(s) => s,
                Err(StorageError::Corrupt(_)) => continue, // acceptable: reported, not silent
                Err(e) => panic!("unexpected error at cut {cut}: {e}"),
            };
            let expect = ends.iter().filter(|&&e| e <= cut).count() as u64;
            assert_eq!(store.len(), expect, "clean prefix at cut {cut}");
            for i in 0..expect {
                assert_eq!(
                    store.read(i).unwrap(),
                    payloads[i as usize],
                    "record {i} at cut {cut}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_records_drops_tail_slots() {
        let dir = temp_dir("truncrec");
        let path = dir.join("stream.dat");
        let store = FileStreamStore::create(&path).unwrap();
        for i in 0..5u64 {
            store.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        store.truncate_records(3).unwrap();
        assert_eq!(store.len(), 3);
        assert!(store.read(3).is_err());
        // New appends land after the truncation point and survive reopen.
        store.append(b"rec-3-replacement").unwrap();
        drop(store);
        let store = FileStreamStore::open(&path).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.read(3).unwrap(), b"rec-3-replacement");
        assert!(store.truncate_records(9).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_empties_log_atomically() {
        use crate::checkpoint::{CkptIo, CrashPoint};
        let dir = temp_dir("reset");
        let path = dir.join("stream.dat");
        let store = FileStreamStore::create(&path).unwrap();
        for i in 0..4u64 {
            store.append(format!("covered-{i}").as_bytes()).unwrap();
        }
        let io = CkptIo::new();
        store.reset(&io).unwrap();
        assert_eq!(store.len(), 0);
        // Appends after reset start at slot 0 and survive reopen.
        store.append(b"tail-0").unwrap();
        drop(store);
        let store = FileStreamStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.read(0).unwrap(), b"tail-0");

        // Crash at each of the reset's 4 ops: the log must reopen as
        // either the full old log or a valid empty one.
        for op in 1..=4u64 {
            let crash_path = dir.join(format!("crash-{op}.dat"));
            let victim = FileStreamStore::create(&crash_path).unwrap();
            victim.append(b"old-record").unwrap();
            let io = CkptIo::new();
            io.arm(CrashPoint { op, torn_keep: Some(3) });
            assert!(victim.reset(&io).is_err());
            drop(victim);
            let reopened = FileStreamStore::open(&crash_path).unwrap();
            assert!(
                reopened.len() == 0
                    || (reopened.len() == 1 && reopened.read(0).unwrap() == b"old-record"),
                "crash at reset op {op}: log must be old-or-empty, got len {}",
                reopened.len()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_batch_matches_sequential_appends() {
        let dir = temp_dir("batch");
        let seq_path = dir.join("seq.dat");
        let batch_path = dir.join("batch.dat");
        let payloads: Vec<Vec<u8>> =
            vec![b"a".to_vec(), Vec::new(), vec![0x5A; 300], b"final".to_vec()];
        {
            let seq = FileStreamStore::create(&seq_path).unwrap();
            for p in &payloads {
                seq.append(p).unwrap();
            }
            let batch = FileStreamStore::create_with(&batch_path, FsyncPolicy::Never).unwrap();
            let first = batch.append_batch(&payloads).unwrap();
            assert_eq!(first, 0);
            // Mixed mode: batches and single appends interleave cleanly.
            batch.append(b"tail").unwrap();
            let first2 = batch.append_batch(&[b"x".to_vec(), b"y".to_vec()]).unwrap();
            assert_eq!(first2, 5);
        }
        // Byte-identical record stream for the shared prefix.
        let seq_bytes = std::fs::read(&seq_path).unwrap();
        let batch_bytes = std::fs::read(&batch_path).unwrap();
        assert_eq!(&batch_bytes[..seq_bytes.len()], &seq_bytes[..]);
        // Reopen: the batched file scans clean, all slots readable.
        let store = FileStreamStore::open(&batch_path).unwrap();
        assert_eq!(store.len(), 7);
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(store.read(i as u64).unwrap(), *p);
        }
        assert_eq!(store.read(4).unwrap(), b"tail");
        assert_eq!(store.read(6).unwrap(), b"y");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_batch_durable_under_never_policy() {
        // The whole point of the batched path: records are durable when
        // it returns even when the per-append policy never syncs.
        let dir = temp_dir("batchdur");
        let path = dir.join("stream.dat");
        let store = FileStreamStore::create_with(&path, FsyncPolicy::Never).unwrap();
        store.append_batch(&[b"one".to_vec(), b"two".to_vec()]).unwrap();
        // Empty batch is a no-op.
        assert_eq!(store.append_batch(&[]).unwrap(), 2);
        drop(store);
        let store = FileStreamStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.read(1).unwrap(), b"two");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_append_batch_default_impl() {
        let store = MemoryStreamStore::new();
        store.append(b"solo").unwrap();
        let first = store.append_batch(&[b"b0".to_vec(), b"b1".to_vec()]).unwrap();
        assert_eq!(first, 1);
        assert_eq!(store.read(2).unwrap(), b"b1");
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn empty_payload_round_trip() {
        let store = MemoryStreamStore::new();
        let i = store.append(b"").unwrap();
        assert_eq!(store.read(i).unwrap(), b"");
    }

    #[test]
    fn old_format_rejected_loudly() {
        let dir = temp_dir("oldfmt");
        let path = dir.join("stream.dat");
        std::fs::write(&path, b"not-a-stream-file-at-all").unwrap();
        assert!(matches!(
            FileStreamStore::open(&path),
            Err(StorageError::Corrupt("bad stream magic"))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
