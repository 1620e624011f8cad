//! Exhaustive crash-point injection for the checkpoint engine.
//!
//! Every durability-relevant I/O operation on the checkpoint path —
//! every segment/manifest/HEAD write, fsync, rename, directory fsync,
//! and the WAL-reset ladder — is numbered by [`CkptIo`]. The harness:
//!
//! 1. runs the workload once with an unarmed router (the **control**),
//!    recording the ledger's full state fingerprint after every step
//!    and the complete operation schedule;
//! 2. replays the workload once per operation with a kill armed there
//!    (plus torn-write variants at every `Write` site), stopping at the
//!    first surfaced error — the simulated moment of death;
//! 3. recovers from the on-disk state and asserts the recovered ledger
//!    is **byte-identical** (state fingerprint: roots, block hashes,
//!    tx-hashes, erased flags, occult bits, pseudo genesis…) to the
//!    control at the same completed-step count, and that `HEAD` either
//!    names a fully verifiable checkpoint or is absent.
//!
//! Prefix determinism makes the comparison sound: both runs perform the
//! identical operation sequence up to the armed op (the only injected
//! difference), so "the control after k completed steps" is exactly the
//! state a never-crashed process would have reached.

use ledgerdb::core::recovery::{open_durable, CHECKPOINT_DIR};
use ledgerdb::core::{LedgerConfig, MemberRegistry, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::multisig::MultiSignature;
use ledgerdb::crypto::Digest;
use ledgerdb::storage::{CheckpointStore, CkptIo, CrashPoint, FsyncPolicy, IoKind};
use ledgerdb::timesvc::clock::SimClock;
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct Members {
    dba: KeyPair,
    alice: KeyPair,
}

fn members() -> (MemberRegistry, Members) {
    let ca = CertificateAuthority::from_seed(b"cp-ca");
    let dba = KeyPair::from_seed(b"cp-dba");
    let regulator = KeyPair::from_seed(b"cp-reg");
    let alice = KeyPair::from_seed(b"cp-alice");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
    registry.register(ca.issue("regulator", Role::Regulator, regulator.public())).unwrap();
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    (registry, Members { dba, alice })
}

fn config() -> LedgerConfig {
    LedgerConfig { block_size: 2, fam_delta: 4, name: "crash-points".into(), state_backend: Default::default() }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ledgerdb-cp-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn tx(keys: &KeyPair, nonce: u64) -> TxRequest {
    TxRequest::signed(keys, nonce.to_be_bytes().to_vec(), vec![format!("c{}", nonce % 3)], nonce)
}

/// Drive the deterministic workload until completion or the first
/// surfaced error (the simulated death). Returns the number of steps
/// that completed successfully.
///
/// The workload seals five blocks (checkpoint cadence: every seal) and
/// includes a purge, so crash points land in every phase: segment
/// writes, manifest commit, HEAD flip, WAL reset, and the post-purge
/// checkpoint rebuild.
fn drive(dir: &Path, registry: &MemberRegistry, m: &Members, io: Arc<CkptIo>) -> usize {
    let (mut ledger, _) = open_durable(
        config(),
        registry.clone(),
        dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .expect("the workload starts from a recoverable directory");
    let store = Arc::new(CheckpointStore::open(&dir.join(CHECKPOINT_DIR)).unwrap());
    ledger.enable_checkpoints(store, io, 1);

    let mut done = 0;
    // Steps 1..=6: appends (jsn 0..5; seals + checkpoints at jsn 1, 3, 5).
    for i in 0..6u64 {
        if ledger.append(tx(&m.alice, i)).is_err() {
            return done;
        }
        done += 1;
    }
    // Step 7: purge to jsn 2 — schedules a checkpoint rebuild at the
    // next seal and erases two payload slots.
    let digest = ledger.purge_approval_digest(2);
    let mut ms = MultiSignature::new();
    ms.add(&m.dba, &digest);
    ms.add(&m.alice, &digest);
    if ledger.purge(2, ms, &[], false).is_err() {
        return done;
    }
    done += 1;
    // Steps 8..=11: appends (jsn 7..10; seals + checkpoints at jsn 7, 9).
    for i in 0..4u64 {
        if ledger.append(tx(&m.alice, 100 + i)).is_err() {
            return done;
        }
        done += 1;
    }
    done
}

/// Control-run fingerprints: `fps[k]` is the ledger state after `k`
/// completed steps.
fn control_fingerprints(dir: &Path, registry: &MemberRegistry, m: &Members) -> Vec<Digest> {
    let (mut ledger, _) = open_durable(
        config(),
        registry.clone(),
        dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    let store = Arc::new(CheckpointStore::open(&dir.join(CHECKPOINT_DIR)).unwrap());
    ledger.enable_checkpoints(store, Arc::new(CkptIo::new()), 1);

    let mut fps = vec![ledger.state_fingerprint()];
    for i in 0..6u64 {
        ledger.append(tx(&m.alice, i)).unwrap();
        fps.push(ledger.state_fingerprint());
    }
    let digest = ledger.purge_approval_digest(2);
    let mut ms = MultiSignature::new();
    ms.add(&m.dba, &digest);
    ms.add(&m.alice, &digest);
    ledger.purge(2, ms, &[], false).unwrap();
    fps.push(ledger.state_fingerprint());
    for i in 0..4u64 {
        ledger.append(tx(&m.alice, 100 + i)).unwrap();
        fps.push(ledger.state_fingerprint());
    }
    assert!(ledger.durability_error().is_none(), "control run checkpoints cleanly");
    fps
}

/// After the simulated kill: `HEAD` must either be absent or name a
/// manifest whose content address verifies.
fn assert_head_valid_or_absent(dir: &Path, ctx: &str) {
    let store = CheckpointStore::open(&dir.join(CHECKPOINT_DIR)).unwrap();
    match store.load_head() {
        Ok(Some((id, bytes))) => {
            assert!(!bytes.is_empty(), "{ctx}: HEAD names an empty manifest");
            let _ = id;
        }
        Ok(None) => {}
        Err(e) => panic!("{ctx}: HEAD must be valid or absent, got: {e}"),
    }
}

#[test]
fn every_checkpoint_crash_point_recovers_byte_identical() {
    let (registry, m) = members();

    // Dry run: enumerate the full operation schedule and record the
    // control fingerprints.
    let control_dir = temp_dir("control");
    let io = Arc::new(CkptIo::new());
    let steps = drive(&control_dir, &registry, &m, Arc::clone(&io));
    let schedule = io.op_kinds();
    let fp_dir = temp_dir("control-fp");
    let fps = control_fingerprints(&fp_dir, &registry, &m);
    std::fs::remove_dir_all(&fp_dir).ok();
    assert_eq!(steps + 1, fps.len(), "one fingerprint per completed step");
    assert_eq!(steps, 11, "the whole workload completes without injection");
    assert!(
        schedule.len() > 100,
        "five checkpoints + WAL resets enumerate a dense schedule, got {}",
        schedule.len()
    );
    for kind in [IoKind::Write, IoKind::Sync, IoKind::Rename, IoKind::SyncDir] {
        assert!(
            schedule.iter().any(|k| *k == kind),
            "schedule exercises {kind:?} sites"
        );
    }
    std::fs::remove_dir_all(&control_dir).ok();

    // Exhaustive sweep: kill at every op; torn variants at write sites.
    let mut sweeps = 0u64;
    for (idx, kind) in schedule.iter().enumerate() {
        let op = idx as u64 + 1;
        let variants: &[Option<usize>] = if *kind == IoKind::Write {
            &[None, Some(0), Some(3)]
        } else {
            &[None]
        };
        for &torn_keep in variants {
            sweeps += 1;
            let dir = temp_dir("kill");
            let io = Arc::new(CkptIo::new());
            io.arm(CrashPoint { op, torn_keep });
            let done = drive(&dir, &registry, &m, Arc::clone(&io));
            assert!(
                io.op_count() >= op,
                "op {op}: armed crash point was reached (prefix determinism)"
            );

            assert_head_valid_or_absent(&dir, &format!("op {op} torn {torn_keep:?}"));

            let (recovered, report) = open_durable(
                config(),
                registry.clone(),
                &dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
            )
            .unwrap_or_else(|e| {
                panic!("op {op} torn {torn_keep:?}: kill residue must recover, got: {e}")
            });
            assert_eq!(
                recovered.state_fingerprint(),
                fps[done],
                "op {op} ({kind:?}) torn {torn_keep:?}: recovered state must be \
                 byte-identical to the never-crashed control after {done} steps \
                 (report: {report:?})"
            );
            // The PR-1 tail invariants still hold under checkpoint
            // crashes: nothing in the *sealed* region was rejected, and
            // no journal lost its payload slot.
            assert_eq!(
                recovered.journal_count() as usize,
                recovered.blocks().map(|b| b.journal_count as usize).sum::<usize>()
                    + recovered.pending_journals() as usize,
                "op {op}: blocks + pending cover every journal"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    // 5 checkpoints × (7 writes + syncs + renames + dir syncs) + resets:
    // the sweep count is the schedule plus two torn variants per write.
    let writes = schedule.iter().filter(|k| **k == IoKind::Write).count() as u64;
    assert_eq!(sweeps, schedule.len() as u64 + 2 * writes);
}

/// A distinctive byte string that appears *only* in purged payloads —
/// long enough that an accidental collision with CRCs, digests, or
/// framing bytes is implausible.
const MARKER: &[u8] = b"PURGE-MARKER-must-never-resurrect";

/// Purge-resurrection workload: four marker appends (sealed and covered
/// by checkpoint HEAD), a purge erasing the first two, then two plain
/// appends whose seal commits the rebuilt checkpoint. Returns completed
/// steps.
fn drive_purge(dir: &Path, registry: &MemberRegistry, m: &Members, io: Arc<CkptIo>) -> usize {
    let (mut ledger, _) = open_durable(
        config(),
        registry.clone(),
        dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .expect("the workload starts from a recoverable directory");
    let store = Arc::new(CheckpointStore::open(&dir.join(CHECKPOINT_DIR)).unwrap());
    ledger.enable_checkpoints(store, io, 1);

    let mut done = 0;
    // Steps 1..=4: appends jsn 0..3 (seals + checkpoints at jsn 1 and
    // 3). Only jsn 0 and 1 — exactly the journals the purge below will
    // erase — carry the marker; HEAD covers their block before the
    // purge runs.
    for i in 0..4u64 {
        let payload = if i < 2 {
            let mut p = MARKER.to_vec();
            p.extend_from_slice(&i.to_be_bytes());
            p
        } else {
            i.to_be_bytes().to_vec()
        };
        let tx = TxRequest::signed(&m.alice, payload, vec![format!("c{}", i % 3)], i);
        if ledger.append(tx).is_err() {
            return done;
        }
        done += 1;
    }
    // Step 5: purge to jsn 2 — erases the jsn-0/1 marker slots (both
    // inside checkpoint HEAD) and schedules a rebuild at the next seal.
    let digest = ledger.purge_approval_digest(2);
    let mut ms = MultiSignature::new();
    ms.add(&m.dba, &digest);
    ms.add(&m.alice, &digest);
    if ledger.purge(2, ms, &[], false).is_err() {
        return done;
    }
    done += 1;
    // Steps 6..=7: plain appends; the jsn-5 seal commits the rebuilt
    // checkpoint that must *exclude* the purged payloads.
    for i in 0..2u64 {
        if ledger.append(tx(&m.alice, 200 + i)).is_err() {
            return done;
        }
        done += 1;
    }
    done
}

fn control_purge_fingerprints(dir: &Path, registry: &MemberRegistry, m: &Members) -> Vec<Digest> {
    let (mut ledger, _) = open_durable(
        config(),
        registry.clone(),
        dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    let store = Arc::new(CheckpointStore::open(&dir.join(CHECKPOINT_DIR)).unwrap());
    ledger.enable_checkpoints(store, Arc::new(CkptIo::new()), 1);

    let mut fps = vec![ledger.state_fingerprint()];
    for i in 0..4u64 {
        let payload = if i < 2 {
            let mut p = MARKER.to_vec();
            p.extend_from_slice(&i.to_be_bytes());
            p
        } else {
            i.to_be_bytes().to_vec()
        };
        let t = TxRequest::signed(&m.alice, payload, vec![format!("c{}", i % 3)], i);
        ledger.append(t).unwrap();
        fps.push(ledger.state_fingerprint());
    }
    let digest = ledger.purge_approval_digest(2);
    let mut ms = MultiSignature::new();
    ms.add(&m.dba, &digest);
    ms.add(&m.alice, &digest);
    ledger.purge(2, ms, &[], false).unwrap();
    fps.push(ledger.state_fingerprint());
    for i in 0..2u64 {
        ledger.append(tx(&m.alice, 200 + i)).unwrap();
        fps.push(ledger.state_fingerprint());
    }
    assert!(ledger.durability_error().is_none(), "control run checkpoints cleanly");
    fps
}

/// Recovery must never resurrect purged payload bytes, at *any* crash
/// point between the purge and the rebuilt checkpoint's commit. The WAL
/// legitimately retains pre-purge append records until its reset — but
/// after recovery replays it, the redo-erasure invariant must leave the
/// payload store scrubbed on disk, the purged jsns unreadable, and the
/// recovered state byte-identical to the never-crashed control.
#[test]
fn purged_payloads_never_resurrect_across_crash_points() {
    let (registry, m) = members();

    // Dry run: schedule + control fingerprints. Step 5 is the purge.
    let control_dir = temp_dir("purge-control");
    let io = Arc::new(CkptIo::new());
    let steps = drive_purge(&control_dir, &registry, &m, Arc::clone(&io));
    assert_eq!(steps, 7, "the whole workload completes without injection");
    let schedule = io.op_kinds();
    let fp_dir = temp_dir("purge-control-fp");
    let fps = control_purge_fingerprints(&fp_dir, &registry, &m);
    std::fs::remove_dir_all(&fp_dir).ok();
    assert_eq!(steps + 1, fps.len());
    // The never-crashed end state is itself marker-free.
    let payload_log =
        std::fs::read(control_dir.join(ledgerdb::core::recovery::PAYLOAD_FILE)).unwrap();
    assert!(
        !payload_log.windows(MARKER.len()).any(|w| w == MARKER),
        "control payload store still holds purged marker bytes"
    );
    std::fs::remove_dir_all(&control_dir).ok();

    const PURGE_STEP: usize = 5;
    for (idx, kind) in schedule.iter().enumerate() {
        let op = idx as u64 + 1;
        let variants: &[Option<usize>] =
            if *kind == IoKind::Write { &[None, Some(0), Some(3)] } else { &[None] };
        for &torn_keep in variants {
            let dir = temp_dir("purge-kill");
            let io = Arc::new(CkptIo::new());
            io.arm(CrashPoint { op, torn_keep });
            let done = drive_purge(&dir, &registry, &m, Arc::clone(&io));
            assert_head_valid_or_absent(&dir, &format!("purge op {op} torn {torn_keep:?}"));

            let (recovered, report) = open_durable(
                config(),
                registry.clone(),
                &dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
            )
            .unwrap_or_else(|e| {
                panic!("purge op {op} torn {torn_keep:?}: kill residue must recover, got: {e}")
            });
            assert_eq!(
                recovered.state_fingerprint(),
                fps[done],
                "purge op {op} ({kind:?}) torn {torn_keep:?}: recovered state must \
                 match the control after {done} steps (report: {report:?})"
            );
            if done >= PURGE_STEP {
                // The purge was acked before the kill: it must hold
                // across recovery, however the checkpoint died.
                for jsn in 0..2u64 {
                    assert!(
                        matches!(
                            recovered.get_tx(jsn),
                            Err(ledgerdb::core::LedgerError::Purged(_))
                        ),
                        "purge op {op} torn {torn_keep:?}: jsn {jsn} readable after purge"
                    );
                }
                let payload_log = std::fs::read(dir.join(ledgerdb::core::recovery::PAYLOAD_FILE))
                    .unwrap_or_default();
                assert!(
                    !payload_log.windows(MARKER.len()).any(|w| w == MARKER),
                    "purge op {op} ({kind:?}) torn {torn_keep:?}: recovery resurrected \
                     purged payload bytes into the payload store"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A second ledger process starting from the *same* directory after a
/// mid-checkpoint kill must also see a WAL bounded by the surviving
/// checkpoint: recovery work is O(tail), never O(history), whichever
/// side of the crash the HEAD landed on.
#[test]
fn killed_checkpoint_still_bounds_the_wal_tail() {
    let (registry, m) = members();
    let dir = temp_dir("tailbound");
    // Kill inside the *last* checkpoint (high op number): the prior
    // four checkpoints committed and reset the WAL, so even with the
    // fifth dead, replay is bounded by one block's records.
    let io = Arc::new(CkptIo::new());
    let probe_dir = temp_dir("tailbound-probe");
    let probe = drive(&probe_dir, &registry, &m, Arc::clone(&io));
    std::fs::remove_dir_all(&probe_dir).ok();
    assert_eq!(probe, 11);
    let total = io.op_count();
    let io = Arc::new(CkptIo::new());
    io.arm(CrashPoint { op: total - 2, torn_keep: None });
    drive(&dir, &registry, &m, io);

    let (recovered, report) = open_durable(
        config(),
        registry.clone(),
        &dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    assert!(report.checkpoint.is_some(), "recovery started from a checkpoint");
    assert!(
        report.journals_replayed + report.blocks_verified + report.skipped_wal_records <= 6,
        "replay bounded by the post-checkpoint tail: {report:?}"
    );
    // The crash fires inside the checkpoint that follows the jsn-9
    // seal, so that append is acked (and durable) but the final append
    // never ran — 10 of the 11 workload journals survive.
    assert_eq!(recovered.journal_count(), 10);
    std::fs::remove_dir_all(&dir).ok();
}
