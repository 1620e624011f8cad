//! Recovery torture tests: drive a durable ledger through deterministic
//! injected faults ([`FaultStore`]) and assert the durability contract —
//! every fault is either *recovered* (the rebuilt ledger reproduces the
//! pre-crash commitments) or *reported* as a typed error. Never a panic,
//! never silent data loss.
//!
//! Four distinct fault kinds are exercised directly (a failed WAL append
//! at both a journal and a seal record), plus a seeded sweep that mixes
//! all of them into randomized workloads.

use ledgerdb::core::recovery::{open_durable, recover, PAYLOAD_FILE, WAL_FILE};
use ledgerdb::core::{LedgerConfig, LedgerDb, LedgerError, MemberRegistry, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::multisig::MultiSignature;
use ledgerdb::crypto::Digest;
use ledgerdb::storage::{Fault, FaultStore, FileStreamStore, FsyncPolicy, StreamStore};
use ledgerdb::timesvc::clock::SimClock;
use std::path::PathBuf;
use std::sync::Arc;

struct Members {
    dba: KeyPair,
    alice: KeyPair,
}

fn members() -> (MemberRegistry, Members) {
    let ca = CertificateAuthority::from_seed(b"torture-ca");
    let dba = KeyPair::from_seed(b"torture-dba");
    let regulator = KeyPair::from_seed(b"torture-reg");
    let alice = KeyPair::from_seed(b"torture-alice");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
    registry.register(ca.issue("regulator", Role::Regulator, regulator.public())).unwrap();
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    (registry, Members { dba, alice })
}

fn config(block_size: u64) -> LedgerConfig {
    LedgerConfig { block_size, fam_delta: 4, name: "torture".into(), state_backend: Default::default() }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ledgerdb-torture-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn tx(keys: &KeyPair, i: u64) -> TxRequest {
    TxRequest::signed(keys, i.to_be_bytes().to_vec(), vec![format!("c{}", i % 3)], i)
}

fn roots(ledger: &LedgerDb) -> (Digest, Digest, Digest) {
    (ledger.journal_root(), ledger.clue_root(), ledger.state_root())
}

/// Populate a fresh durable ledger with `n` journals and drop it.
fn populate(dir: &PathBuf, registry: &MemberRegistry, m: &Members, block_size: u64, n: u64) {
    let (mut ledger, report) = open_durable(
        config(block_size),
        registry.clone(),
        dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    assert!(report.is_clean());
    for i in 0..n {
        ledger.append(tx(&m.alice, i)).unwrap();
    }
    assert!(ledger.durability_error().is_none());
}

/// Reopen the on-disk streams, wrapping the payload stream in a fault
/// plan, and rebuild the kernel by replay.
fn reopen_with_payload_faults(
    dir: &PathBuf,
    registry: &MemberRegistry,
    block_size: u64,
    faults: Vec<Fault>,
) -> LedgerDb {
    let payload = FaultStore::new(
        FileStreamStore::open_with(&dir.join(PAYLOAD_FILE), FsyncPolicy::Always).unwrap(),
        faults,
    );
    let wal = FileStreamStore::open_with(&dir.join(WAL_FILE), FsyncPolicy::Always).unwrap();
    let (ledger, report) = recover(
        config(block_size),
        registry.clone(),
        Arc::new(payload),
        Arc::new(wal),
        Arc::new(SimClock::new()),
    )
    .unwrap();
    assert!(report.is_clean(), "populated ledger must reopen clean: {report:?}");
    ledger
}

/// Fault 1 — AppendIoError: the failed append surfaces a typed storage
/// error, the kernel state does not diverge, and later appends succeed.
#[test]
fn append_io_error_is_typed_and_state_converges() {
    let dir = temp_dir("ioerr");
    let (registry, m) = members();
    populate(&dir, &registry, &m, 4, 4);

    let mut ledger =
        reopen_with_payload_faults(&dir, &registry, 4, vec![Fault::AppendIoError { nth: 2 }]);
    ledger.append(tx(&m.alice, 4)).unwrap();
    match ledger.append(tx(&m.alice, 5)) {
        Err(LedgerError::Storage(_)) => {}
        other => panic!("injected I/O error must surface as Storage, got {other:?}"),
    }
    assert_eq!(ledger.journal_count(), 5, "failed append must not mutate the kernel");
    ledger.append(tx(&m.alice, 6)).unwrap();
    assert_eq!(ledger.journal_count(), 6);
    let live = roots(&ledger);
    drop(ledger);

    let (recovered, report) = open_durable(
        config(4),
        registry,
        &dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    assert!(report.is_clean(), "nothing reached the disk for the failed append: {report:?}");
    assert_eq!(recovered.journal_count(), 6);
    assert_eq!(roots(&recovered), live);
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault 2 — PartialAppend: a crash mid-append leaves a torn payload
/// tail; reopening trims it and replays everything acknowledged before
/// the crash.
#[test]
fn partial_append_crash_recovers_acknowledged_prefix() {
    let dir = temp_dir("partial");
    let (registry, m) = members();
    populate(&dir, &registry, &m, 4, 6);

    let mut ledger = reopen_with_payload_faults(
        &dir,
        &registry,
        4,
        vec![Fault::PartialAppend { nth: 1, keep: 19 }],
    );
    let pre_fault = roots(&ledger);
    assert!(ledger.append(tx(&m.alice, 6)).is_err(), "append died mid-write");
    drop(ledger); // The crash.

    let (recovered, report) = open_durable(
        config(4),
        registry,
        &dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    assert_eq!(report.payload_truncated_bytes, 19, "torn tail trimmed on reopen");
    assert_eq!(report.journals_replayed, 6);
    assert_eq!(recovered.journal_count(), 6);
    assert_eq!(roots(&recovered), pre_fault);
    assert_eq!(recovered.get_payload(5).unwrap(), 5u64.to_be_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault 3 — BitFlip: bit rot inside a committed payload record is
/// detected by the CRC framing on reopen and reported as a typed
/// corruption error, never returned as data.
#[test]
fn bit_flip_in_committed_record_is_reported() {
    let dir = temp_dir("bitflip");
    let (registry, m) = members();
    populate(&dir, &registry, &m, 4, 4);

    let mut ledger = reopen_with_payload_faults(
        &dir,
        &registry,
        4,
        vec![Fault::BitFlip { record: 4, byte: 40, mask: 0x08 }],
    );
    ledger.append(tx(&m.alice, 4)).unwrap(); // Lands, then rots on disk.
    drop(ledger);

    match open_durable(config(4), registry, &dir, FsyncPolicy::Always, Arc::new(SimClock::new())) {
        Err(LedgerError::Storage(e)) => {
            assert!(e.to_string().contains("crc"), "corruption named in: {e}")
        }
        Err(e) => panic!("expected Storage corruption, got {e}"),
        Ok(_) => panic!("bit rot must not reopen silently"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault 4 — EraseNoSync: an erase the hardware lied about is noticed on
/// recovery and redone, so a purge's promise holds across the crash.
#[test]
fn lost_erase_is_redone_on_recovery() {
    let dir = temp_dir("noerase");
    let (registry, m) = members();
    populate(&dir, &registry, &m, 4, 8);

    let mut ledger =
        reopen_with_payload_faults(&dir, &registry, 4, vec![Fault::EraseNoSync { nth: 1 }]);
    let digest = ledger.purge_approval_digest(4);
    let mut ms = MultiSignature::new();
    ms.add(&m.dba, &digest);
    ms.add(&m.alice, &digest);
    ledger.purge(4, ms, &[], false).unwrap(); // Erase of slot 0 is lost.
    drop(ledger);

    // The lie is visible on the raw stream: slot 0 still live.
    let raw = FileStreamStore::open_with(&dir.join(PAYLOAD_FILE), FsyncPolicy::Never).unwrap();
    assert!(!raw.is_erased(0).unwrap(), "precondition: erase never reached the disk");
    drop(raw);

    let (recovered, report) = open_durable(
        config(4),
        registry,
        &dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    assert_eq!(report.erases_redone, 1, "exactly the lost erase is redone");
    assert!(matches!(recovered.get_payload(0), Err(LedgerError::Purged(0))));
    let raw = FileStreamStore::open_with(&dir.join(PAYLOAD_FILE), FsyncPolicy::Never).unwrap();
    assert!(raw.is_erased(0).unwrap(), "redone erase is durable");
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault 5 — a WAL append failure rolls the payload append back, so the
/// payload stream and journal numbering never drift apart.
#[test]
fn wal_append_failure_rolls_back_payload() {
    let dir = temp_dir("wal-ioerr");
    let (registry, m) = members();
    populate(&dir, &registry, &m, 64, 2); // Large block: nothing sealed yet.

    let payload: Arc<dyn StreamStore> = Arc::new(
        FileStreamStore::open_with(&dir.join(PAYLOAD_FILE), FsyncPolicy::Always).unwrap(),
    );
    let wal = Arc::new(FaultStore::new(
        FileStreamStore::open_with(&dir.join(WAL_FILE), FsyncPolicy::Always).unwrap(),
        vec![Fault::AppendIoError { nth: 2 }],
    ));
    let (mut ledger, _) = recover(
        config(64),
        registry.clone(),
        Arc::clone(&payload),
        wal,
        Arc::new(SimClock::new()),
    )
    .unwrap();

    ledger.append(tx(&m.alice, 2)).unwrap();
    assert!(ledger.append(tx(&m.alice, 3)).is_err(), "WAL write failed");
    assert_eq!(ledger.journal_count(), 3);
    assert_eq!(payload.len(), 3, "orphan payload rolled back with the failed WAL write");
    ledger.append(tx(&m.alice, 4)).unwrap();
    let live = roots(&ledger);
    drop(ledger);

    let (recovered, report) = open_durable(
        config(64),
        registry,
        &dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    assert!(report.is_clean(), "rollback left matching streams: {report:?}");
    assert_eq!(recovered.journal_count(), 4);
    assert_eq!(roots(&recovered), live);
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault 6 — the WAL write of a *seal record* fails inside
/// `append_committed` (the path `Request::AppendCommitted` takes on a
/// server). The caller gets a typed error while holding no receipt —
/// never a panic under the write lock — the journal stays pending, and
/// retrying the seal succeeds.
#[test]
fn seal_wal_failure_in_append_committed_is_typed_and_retryable() {
    use ledgerdb::core::SharedLedger;
    let dir = temp_dir("seal-ioerr");
    let (registry, m) = members();
    std::fs::create_dir_all(&dir).unwrap();
    let payload: Arc<dyn StreamStore> = Arc::new(
        FileStreamStore::create_with(&dir.join(PAYLOAD_FILE), FsyncPolicy::Always).unwrap(),
    );
    // WAL append #1 is the journal record, #2 the seal record.
    let wal = Arc::new(FaultStore::new(
        FileStreamStore::create_with(&dir.join(WAL_FILE), FsyncPolicy::Always).unwrap(),
        vec![Fault::AppendIoError { nth: 2 }],
    ));
    let fired = Arc::clone(&wal);
    let (ledger, _) =
        recover(config(64), registry.clone(), payload, wal, Arc::new(SimClock::new())).unwrap();
    let shared = SharedLedger::new(ledger);

    match shared.append_committed(tx(&m.alice, 0)) {
        Err(LedgerError::Storage(_)) => {}
        Err(e) => panic!("expected the injected storage error, got: {e}"),
        Ok(_) => panic!("a receipt was issued for a block whose seal never reached the WAL"),
    }
    assert_eq!(fired.fired().len(), 1, "the seal record's WAL write is what failed");
    assert_eq!(shared.journal_count(), 1, "the append itself committed");
    assert_eq!(shared.block_count(), 0);
    assert_eq!(shared.with_read(|l| l.pending_journals()), 1, "journal still pending");
    assert!(shared.take_durability_error().is_none(), "reported, not stashed");
    assert!(shared.receipt(0).unwrap().is_none());

    // The seal is retryable, and the ledger keeps working.
    shared.try_seal_block().unwrap();
    assert!(shared.receipt(0).unwrap().unwrap().verify());
    assert!(shared.append_committed(tx(&m.alice, 1)).unwrap().verify());
    let live = shared.with_read(roots);
    drop(shared);

    let (recovered, report) = open_durable(
        config(64),
        registry,
        &dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    assert!(report.is_clean(), "failed seal left matching streams: {report:?}");
    assert_eq!(recovered.block_count(), 2);
    assert_eq!(roots(&recovered), live);
    std::fs::remove_dir_all(&dir).ok();
}

/// Seeded sweep: every seed derives a four-fault plan (one of each kind)
/// scattered over a randomized workload of appends and a purge. Whatever
/// fires, the run must end in one of exactly two states — a recovered
/// ledger reproducing the live kernel's commitments, or a typed
/// corruption/recovery error. Panics and silent divergence fail the test.
#[test]
fn seeded_fault_plans_recover_or_report() {
    let (registry, m) = members();
    for seed in 1..=24u64 {
        let dir = temp_dir(&format!("seed{seed}"));
        populate(&dir, &registry, &m, 4, 4);

        let payload = FaultStore::with_seed(
            FileStreamStore::open_with(&dir.join(PAYLOAD_FILE), FsyncPolicy::Always).unwrap(),
            seed,
            16,
        );
        let wal = FileStreamStore::open_with(&dir.join(WAL_FILE), FsyncPolicy::Always).unwrap();
        let (mut ledger, report) = recover(
            config(4),
            registry.clone(),
            Arc::new(payload),
            Arc::new(wal),
            Arc::new(SimClock::new()),
        )
        .unwrap();
        assert!(report.is_clean(), "seed {seed}: populated ledger reopens clean");

        // Workload: appends, then a purge. The first typed error is the
        // "crash" — stop driving and fall through to recovery.
        let mut crashed = false;
        for i in 4..14u64 {
            if ledger.append(tx(&m.alice, i)).is_err() {
                crashed = true;
                break;
            }
        }
        if !crashed {
            let digest = ledger.purge_approval_digest(4);
            let mut ms = MultiSignature::new();
            ms.add(&m.dba, &digest);
            ms.add(&m.alice, &digest);
            crashed = ledger.purge(4, ms, &[], false).is_err();
        }
        let live_count = ledger.journal_count();
        let live_roots = roots(&ledger);
        let live_purged = ledger.pseudo_genesis().map(|g| g.purge_to);
        drop(ledger);

        match open_durable(
            config(4),
            registry.clone(),
            &dir,
            FsyncPolicy::Always,
            Arc::new(SimClock::new()),
        ) {
            Ok((recovered, report)) => {
                assert_eq!(
                    recovered.journal_count(),
                    live_count,
                    "seed {seed}: every acknowledged journal survives ({report:?})"
                );
                assert_eq!(roots(&recovered), live_roots, "seed {seed}: commitments reproduce");
                assert_eq!(
                    recovered.pseudo_genesis().map(|g| g.purge_to),
                    live_purged,
                    "seed {seed}: purge state survives"
                );
                if let Some(purge_to) = live_purged {
                    // Promised erasures hold even if the erase was lost.
                    for jsn in 0..purge_to {
                        assert!(
                            recovered.get_payload(jsn).is_err(),
                            "seed {seed}: purged payload {jsn} must stay unreadable"
                        );
                    }
                }
            }
            Err(LedgerError::Storage(_) | LedgerError::Recovery(_)) => {
                // Reported: corruption named, nothing silently served.
            }
            Err(e) => panic!("seed {seed}: unexpected error class: {e}"),
        }
        assert!(crashed || live_count == 15, "seed {seed}: bookkeeping");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Checkpoint-era torture: torn WAL tails at the truncation boundary and
// randomized crash schedules (hand-rolled xorshift, no external deps).
// ---------------------------------------------------------------------

use ledgerdb::core::recovery::CHECKPOINT_DIR;
use ledgerdb::storage::{CheckpointStore, CkptIo, CrashPoint};

/// A torn WAL record *exactly at the checkpoint truncation boundary*:
/// the WAL was just reset by a checkpoint, holds a single tail record,
/// and that record is torn. Recovery must keep the whole checkpointed
/// prefix and drop only the torn tail.
#[test]
fn torn_wal_record_at_checkpoint_boundary() {
    let dir = temp_dir("ckpt-torn");
    let (registry, m) = members();
    let boundary_fingerprint = {
        let (mut ledger, _) = open_durable(
            config(2),
            registry.clone(),
            &dir,
            FsyncPolicy::Always,
            Arc::new(SimClock::new()),
        )
        .unwrap();
        let store = Arc::new(CheckpointStore::open(&dir.join(CHECKPOINT_DIR)).unwrap());
        ledger.enable_checkpoints(store, Arc::new(CkptIo::new()), 1);
        for i in 0..4u64 {
            ledger.append(tx(&m.alice, i)).unwrap();
        }
        assert!(ledger.durability_error().is_none());
        let fp = ledger.state_fingerprint();
        // One unsealed journal past the checkpoint: the WAL's only record.
        ledger.append(tx(&m.alice, 4)).unwrap();
        fp
    };
    // Tear the WAL inside that first-and-only tail record.
    let wal_path = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal_path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
    f.set_len(len - 7).unwrap();
    drop(f);

    let (recovered, report) = open_durable(
        config(2),
        registry,
        &dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    assert!(report.checkpoint.is_some(), "recovery starts from the checkpoint");
    assert!(report.wal_truncated_bytes > 0, "torn tail trimmed");
    assert_eq!(report.journals_replayed, 0, "the only tail record was torn");
    assert_eq!(report.orphan_payloads_dropped, 1, "the torn journal's payload is an orphan");
    assert_eq!(recovered.journal_count(), 4);
    assert_eq!(
        recovered.state_fingerprint(),
        boundary_fingerprint,
        "state is exactly the checkpoint boundary"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Randomized crash schedules: each seed derives a workload shape
/// (append count, checkpoint cadence, optional purge) and a crash point
/// within its checkpoint-path operation schedule. Whatever fires, the
/// recovered ledger must be byte-identical to a never-crashed control
/// run of the same prefix — the probabilistic twin of the exhaustive
/// sweep in `crash_points.rs`.
#[test]
fn seeded_random_crash_schedules_recover_byte_identical() {
    let (registry, m) = members();

    // One deterministic workload per seed; `fps` (when given) records
    // the control fingerprint after every completed step.
    fn drive(
        dir: &PathBuf,
        registry: &MemberRegistry,
        m: &Members,
        io: Arc<CkptIo>,
        appends: u64,
        every_n: u64,
        purge_at: Option<u64>,
        mut fps: Option<&mut Vec<Digest>>,
    ) -> usize {
        let (mut ledger, _) = open_durable(
            config(2),
            registry.clone(),
            dir,
            FsyncPolicy::Always,
            Arc::new(SimClock::new()),
        )
        .unwrap();
        let store = Arc::new(CheckpointStore::open(&dir.join(CHECKPOINT_DIR)).unwrap());
        ledger.enable_checkpoints(store, io, every_n);
        if let Some(fps) = fps.as_deref_mut() {
            fps.push(ledger.state_fingerprint());
        }
        let mut done = 0;
        for i in 0..appends {
            if purge_at == Some(i) {
                let digest = ledger.purge_approval_digest(2);
                let mut ms = MultiSignature::new();
                ms.add(&m.dba, &digest);
                ms.add(&m.alice, &digest);
                if ledger.purge(2, ms, &[], false).is_err() {
                    return done;
                }
                done += 1;
                if let Some(fps) = fps.as_deref_mut() {
                    fps.push(ledger.state_fingerprint());
                }
            }
            if ledger.append(tx(&m.alice, i)).is_err() {
                return done;
            }
            done += 1;
            if let Some(fps) = fps.as_deref_mut() {
                fps.push(ledger.state_fingerprint());
            }
        }
        done
    }

    for seed in 1..=10u64 {
        let mut state = seed;
        let appends = 6 + xorshift(&mut state) % 6; // 6..=11
        let every_n = 1 + xorshift(&mut state) % 2; // 1..=2
        let purge_at = if xorshift(&mut state) % 2 == 0 {
            Some(4 + xorshift(&mut state) % 2) // after jsn 4 or 5 exists
        } else {
            None
        };

        // Control: full run, unarmed, fingerprint per step + op schedule.
        let control_dir = temp_dir(&format!("rs-ctl-{seed}"));
        let io = Arc::new(CkptIo::new());
        let mut fps = Vec::new();
        let steps = drive(
            &control_dir,
            &registry,
            &m,
            Arc::clone(&io),
            appends,
            every_n,
            purge_at,
            Some(&mut fps),
        );
        let total = io.op_count();
        std::fs::remove_dir_all(&control_dir).ok();
        assert!(total > 0, "seed {seed}: workload must checkpoint at least once");
        assert_eq!(steps + 1, fps.len());

        // Crash run: random op, random torn variant at write sites.
        let op = 1 + xorshift(&mut state) % total;
        let torn_keep = match xorshift(&mut state) % 3 {
            0 => None,
            1 => Some(0),
            _ => Some(xorshift(&mut state) as usize % 16),
        };
        let dir = temp_dir(&format!("rs-kill-{seed}"));
        let io = Arc::new(CkptIo::new());
        io.arm(CrashPoint { op, torn_keep });
        let done = drive(
            &dir,
            &registry,
            &m,
            Arc::clone(&io),
            appends,
            every_n,
            purge_at,
            None,
        );

        let (recovered, report) = open_durable(
            config(2),
            registry.clone(),
            &dir,
            FsyncPolicy::Always,
            Arc::new(SimClock::new()),
        )
        .unwrap_or_else(|e| panic!("seed {seed} op {op}: kill residue must recover: {e}"));
        assert_eq!(
            recovered.state_fingerprint(),
            fps[done],
            "seed {seed} op {op} torn {torn_keep:?}: recovered state matches the \
             control after {done} steps (report: {report:?})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
