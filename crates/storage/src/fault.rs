//! Deterministic fault injection for stream stores.
//!
//! The durability layer's claims ("every fault is recovered or reported,
//! never silently absorbed") are only credible if we can *inject* the
//! faults the threat model worries about and watch the recovery path
//! handle them. [`FaultStore`] decorates a [`FileStreamStore`] and fires
//! pre-planned faults at exact points in the operation sequence:
//!
//! * [`Fault::AppendIoError`] — the Nth append fails cleanly (disk full,
//!   EIO) without writing anything;
//! * [`Fault::PartialAppend`] — the Nth append writes only the first K
//!   bytes of the record and then "crashes" (torn tail on disk);
//! * [`Fault::BitFlip`] — after record R lands, one byte of it is XORed
//!   on disk (bit rot / tampering);
//! * [`Fault::EraseNoSync`] — the Nth erase reports success but never
//!   reaches the disk (lying hardware / lost write), so a reopened store
//!   still holds the payload and recovery must redo the erasure.
//!
//! Fault plans are either given explicitly or derived from a seed via the
//! same xorshift generator the benches use, so torture runs are fully
//! reproducible from a single `u64`.

use crate::metrics::StoreMetrics;
use crate::stream::{encode_record, FileStreamStore, StreamStore};
use crate::StorageError;
use ledgerdb_crypto::sync::Mutex;
use ledgerdb_crypto::{sha256, Digest};

/// One planned fault. Operation counters (`nth`) are 1-based.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The `nth` append returns an I/O error; nothing reaches the disk.
    AppendIoError { nth: u64 },
    /// The `nth` append writes only the first `keep` bytes of the framed
    /// record, then fails — the on-disk result is a torn tail.
    PartialAppend { nth: u64, keep: u64 },
    /// After the append that creates record `record`, XOR `mask` into the
    /// byte at offset `byte` of that record on disk.
    BitFlip { record: u64, byte: u64, mask: u8 },
    /// The `nth` erase reports success without touching the disk.
    EraseNoSync { nth: u64 },
}

/// A fault that actually fired, for test assertions and reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    pub fault: Fault,
    /// The record index the operation targeted.
    pub record: u64,
}

struct Counters {
    appends: u64,
    erases: u64,
    fired: Vec<FaultEvent>,
}

/// A [`StreamStore`] decorator that injects deterministic faults into a
/// [`FileStreamStore`].
pub struct FaultStore {
    inner: FileStreamStore,
    faults: Vec<Fault>,
    counters: Mutex<Counters>,
    metrics: StoreMetrics,
}

impl FaultStore {
    /// Wrap `inner` with an explicit fault plan.
    pub fn new(inner: FileStreamStore, faults: Vec<Fault>) -> Self {
        FaultStore {
            inner,
            faults,
            counters: Mutex::new(Counters { appends: 0, erases: 0, fired: Vec::new() }),
            metrics: StoreMetrics::default(),
        }
    }

    fn record_fired(&self, event: FaultEvent) {
        self.metrics.faults_injected.inc();
        self.counters.lock().fired.push(event);
    }

    /// Wrap `inner` with a fault plan derived deterministically from
    /// `seed`: one fault of each kind, scattered over the first
    /// `horizon` appends/erases. The same seed always yields the same
    /// plan, so a failing torture run is reproducible from its seed.
    pub fn with_seed(inner: FileStreamStore, seed: u64, horizon: u64) -> Self {
        Self::new(inner, Self::plan(seed, horizon))
    }

    /// The deterministic fault plan for a seed (exposed so tests can
    /// predict which operations will fail).
    pub fn plan(seed: u64, horizon: u64) -> Vec<Fault> {
        let mut state = seed.max(1);
        let mut next = move |below: u64| {
            // xorshift64 — matches the bench crate's generator.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below.max(1)
        };
        let horizon = horizon.max(4);
        vec![
            Fault::AppendIoError { nth: 1 + next(horizon) },
            Fault::PartialAppend { nth: 1 + next(horizon), keep: 1 + next(40) },
            Fault::BitFlip { record: next(horizon), byte: next(64), mask: 1 << next(8) as u8 },
            Fault::EraseNoSync { nth: 1 + next(horizon.min(8)) },
        ]
    }

    /// Faults that have fired so far.
    pub fn fired(&self) -> Vec<FaultEvent> {
        self.counters.lock().fired.clone()
    }

    /// The wrapped store (for forensic access in tests).
    pub fn inner(&self) -> &FileStreamStore {
        &self.inner
    }

    fn io_err(msg: &'static str) -> StorageError {
        StorageError::Io(std::io::Error::new(std::io::ErrorKind::Other, msg))
    }
}

impl StreamStore for FaultStore {
    fn append(&self, payload: &[u8]) -> Result<u64, StorageError> {
        let n = {
            let mut c = self.counters.lock();
            c.appends += 1;
            c.appends
        };
        let next_record = self.inner.len();
        for f in &self.faults {
            match *f {
                Fault::AppendIoError { nth } if nth == n => {
                    self.record_fired(FaultEvent { fault: *f, record: next_record });
                    return Err(Self::io_err("injected append I/O error"));
                }
                Fault::PartialAppend { nth, keep } if nth == n => {
                    let record = encode_record(&sha256(payload), false, payload);
                    let keep = (keep as usize).min(record.len().saturating_sub(1));
                    self.inner.raw_append(&record[..keep])?;
                    self.record_fired(FaultEvent { fault: *f, record: next_record });
                    return Err(Self::io_err("injected crash mid-append"));
                }
                _ => {}
            }
        }
        let index = self.inner.append(payload)?;
        for f in &self.faults {
            if let Fault::BitFlip { record, byte, mask } = *f {
                if record == index {
                    self.inner.corrupt_byte(index, byte, mask)?;
                    self.record_fired(FaultEvent { fault: *f, record: index });
                }
            }
        }
        Ok(index)
    }

    fn read(&self, index: u64) -> Result<Vec<u8>, StorageError> {
        self.inner.read(index)
    }

    fn digest(&self, index: u64) -> Result<Digest, StorageError> {
        self.inner.digest(index)
    }

    fn erase(&self, index: u64) -> Result<(), StorageError> {
        let n = {
            let mut c = self.counters.lock();
            c.erases += 1;
            c.erases
        };
        for f in &self.faults {
            if let Fault::EraseNoSync { nth } = *f {
                if nth == n {
                    // Lie: report success, touch nothing. A reopened
                    // store will still hold the payload; recovery must
                    // notice and redo the erasure.
                    self.record_fired(FaultEvent { fault: *f, record: index });
                    return Ok(());
                }
            }
        }
        self.inner.erase(index)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn is_erased(&self, index: u64) -> Result<bool, StorageError> {
        self.inner.is_erased(index)
    }

    fn sync(&self) -> Result<(), StorageError> {
        self.inner.sync()
    }

    fn truncated_bytes(&self) -> u64 {
        self.inner.truncated_bytes()
    }

    fn truncate_records(&self, new_len: u64) -> Result<(), StorageError> {
        self.inner.truncate_records(new_len)
    }

    fn reset(&self, io: &crate::checkpoint::CkptIo) -> Result<(), StorageError> {
        self.inner.reset(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::FsyncPolicy;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ledgerdb-fault-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_io_error_leaves_no_trace() {
        let dir = temp_dir("ioerr");
        let path = dir.join("s.dat");
        let store = FaultStore::new(
            FileStreamStore::create(&path).unwrap(),
            vec![Fault::AppendIoError { nth: 2 }],
        );
        store.append(b"one").unwrap();
        assert!(matches!(store.append(b"two"), Err(StorageError::Io(_))));
        store.append(b"three").unwrap();
        assert_eq!(store.len(), 2);
        drop(store);
        let reopened = FileStreamStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.read(1).unwrap(), b"three");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_append_leaves_recoverable_torn_tail() {
        let dir = temp_dir("partial");
        let path = dir.join("s.dat");
        let store = FaultStore::new(
            FileStreamStore::create(&path).unwrap(),
            vec![Fault::PartialAppend { nth: 2, keep: 17 }],
        );
        store.append(b"survivor").unwrap();
        assert!(store.append(b"torn away by the crash").is_err());
        assert_eq!(store.fired().len(), 1);
        drop(store);
        let reopened = FileStreamStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.truncated_bytes(), 17);
        assert_eq!(reopened.read(0).unwrap(), b"survivor");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_detected_on_reopen() {
        let dir = temp_dir("flip");
        let path = dir.join("s.dat");
        let store = FaultStore::new(
            FileStreamStore::create(&path).unwrap(),
            vec![Fault::BitFlip { record: 0, byte: 40, mask: 0x10 }],
        );
        store.append(b"about to rot").unwrap();
        drop(store);
        assert!(matches!(
            FileStreamStore::open(&path),
            Err(StorageError::Corrupt("record crc mismatch"))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn erase_no_sync_lies_and_reopen_exposes_it() {
        let dir = temp_dir("nosync");
        let path = dir.join("s.dat");
        let store = FaultStore::new(
            FileStreamStore::create(&path).unwrap(),
            vec![Fault::EraseNoSync { nth: 1 }],
        );
        store.append(b"should have been purged").unwrap();
        store.erase(0).unwrap(); // Lies.
        drop(store);
        let reopened = FileStreamStore::open_with(&path, FsyncPolicy::Never).unwrap();
        assert!(!reopened.is_erased(0).unwrap(), "lost erase visible after reopen");
        assert_eq!(reopened.read(0).unwrap(), b"should have been purged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeded_plan_is_deterministic_and_complete() {
        let a = FaultStore::plan(42, 16);
        let b = FaultStore::plan(42, 16);
        assert_eq!(a, b);
        let c = FaultStore::plan(43, 16);
        assert_ne!(a, c);
        assert!(matches!(a[0], Fault::AppendIoError { .. }));
        assert!(matches!(a[1], Fault::PartialAppend { .. }));
        assert!(matches!(a[2], Fault::BitFlip { .. }));
        assert!(matches!(a[3], Fault::EraseNoSync { .. }));
    }
}
