//! Crash recovery: rebuild the ledger kernel from its durable streams.
//!
//! A durable ledger ([`LedgerDb::with_durability`]) persists two
//! append-only streams:
//!
//! * the **payload stream** — raw transaction payloads, one slot per
//!   journal (digest tombstones after purge/occult);
//! * the **metadata WAL** — one [`WalRecord`] per journal and per sealed
//!   block, written *before* the in-memory kernel mutates.
//!
//! [`recover`] replays the reopened WAL through a fresh kernel — the
//! one journal/seal replay loop in the tree: every journal rebuilds
//! the fam tree, CM-Tree, world state and occult index; every
//! seal record's roots, tx-hashes and block-chain link are recomputed
//! and cross-checked. The replay invariants are:
//!
//! 1. **Sealed history is sacred.** Any record that fails to replay
//!    *before* the last seal record — missing payload, digest mismatch,
//!    root mismatch — aborts recovery with [`LedgerError::Recovery`];
//!    the ledger's committed commitments cannot be reproduced, and a
//!    silently-shortened ledger would be data loss.
//! 2. **The unsealed tail is best-effort.** Journals after the last seal
//!    never had receipts issued; a record there that fails to replay is
//!    *rejected* (counted and reasoned in the [`RecoveryReport`]), and
//!    the WAL is truncated back to the accepted prefix.
//! 3. **Orphan payloads are trimmed.** A crash between the payload
//!    append and the WAL append leaves a payload no journal references;
//!    recovery truncates the payload stream back to the referenced
//!    prefix.
//! 4. **Promised erasures are redone.** Purged and occulted journals
//!    whose payloads survived the crash (an erase that never reached the
//!    disk) are re-erased — the multi-signature that authorized the
//!    mutation is already on the ledger, so redo is always safe.
//!
//! Everything observed along the way is surfaced in the typed
//! [`RecoveryReport`], so operators (and the torture tests) can tell
//! "clean reopen" from "recovered with losses in the unsealed tail".
//!
//! ## Checkpointed recovery — O(tail), not O(history)
//!
//! When the ledger directory holds a committed checkpoint
//! ([`crate::checkpoint`], written by
//! [`LedgerDb::enable_checkpoints`]), [`open_durable`] loads it first:
//! the checkpoint's segments are deserialized, every root is re-derived
//! and cross-checked, and each covered journal's payload digest is
//! verified against the live payload stream. Only then is the WAL
//! replayed — records at or below the checkpoint's `(journal, block)`
//! watermark are *skipped* (they are already covered; they only exist
//! at all if a crash landed between the checkpoint commit and the WAL
//! reset), and everything after replays through the same four
//! invariants. Replay work is therefore bounded by the post-checkpoint
//! tail, not the ledger's lifetime.

use crate::ledger::{LedgerConfig, LedgerDb, PseudoGenesis};
use crate::snapshot::SealedSegment;
use crate::member::MemberRegistry;
use crate::types::{Block, Journal, JournalKind};
use crate::verify::{self, ChainTip};
use crate::LedgerError;
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::wire::{Reader, Wire, WireError, Writer};
use ledgerdb_storage::checkpoint::CheckpointStore;
use ledgerdb_storage::stream::{FileStreamStore, FsyncPolicy, StreamStore};
use ledgerdb_timesvc::clock::Clock;
use std::path::Path;
use std::sync::Arc;

/// One metadata WAL entry.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// A journal was appended.
    Journal(Journal),
    /// The pending journals were sealed into this block.
    Seal(Block),
}

impl Wire for WalRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            WalRecord::Journal(j) => {
                w.put_u8(0);
                j.encode(w);
            }
            WalRecord::Seal(b) => {
                w.put_u8(1);
                b.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(WalRecord::Journal(Journal::decode(r)?)),
            1 => Ok(WalRecord::Seal(Block::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Borrowed encoding of a `WalRecord::Seal` — byte-identical to
/// `WalRecord::Seal(block.clone()).to_wire()` without cloning the block
/// (and its whole `tx_hashes` vector) just to serialize it. The seal
/// path writes this; decode is unchanged, so recovery replay is
/// oblivious.
pub(crate) fn seal_wire(block: &Block) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(1);
    block.encode(&mut w);
    w.into_bytes()
}

/// What a recovery replay did — every count is observable, nothing is
/// silently absorbed.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Journals replayed into the rebuilt kernel.
    pub journals_replayed: u64,
    /// Seal records whose roots, tx-hashes and chain link re-verified.
    pub blocks_verified: u64,
    /// Replayed journals left pending (appended after the last seal).
    pub unsealed_journals: u64,
    /// Torn-tail bytes the WAL stream trimmed when it was reopened.
    pub wal_truncated_bytes: u64,
    /// Torn-tail bytes the payload stream trimmed when it was reopened.
    pub payload_truncated_bytes: u64,
    /// WAL records in the unsealed tail that failed to replay and were
    /// dropped (the WAL is truncated back to the accepted prefix).
    pub rejected_wal_records: u64,
    /// Why the first rejected record failed, if any were rejected.
    pub rejected_reason: Option<String>,
    /// Payload slots no surviving journal references, trimmed.
    pub orphan_payloads_dropped: u64,
    /// Purged/occulted payloads found un-erased on disk and re-erased.
    pub erases_redone: u64,
    /// Occult marks restored into the occult index.
    pub occult_marks: u64,
    /// Snapshot id of the checkpoint recovery started from, if any.
    pub checkpoint: Option<Digest>,
    /// Journals installed from the checkpoint (not replayed).
    pub checkpoint_journals: u64,
    /// Blocks installed from the checkpoint (not replayed).
    pub checkpoint_blocks: u64,
    /// WAL records below the checkpoint watermark that were skipped
    /// (non-zero only when a crash landed between the checkpoint commit
    /// and the WAL reset).
    pub skipped_wal_records: u64,
}

impl RecoveryReport {
    /// True when the reopen found nothing to repair: no torn tails, no
    /// rejected records, no orphans, no redone erasures.
    pub fn is_clean(&self) -> bool {
        self.wal_truncated_bytes == 0
            && self.payload_truncated_bytes == 0
            && self.rejected_wal_records == 0
            && self.orphan_payloads_dropped == 0
            && self.erases_redone == 0
    }
}

/// Replay a reopened payload stream + metadata WAL into a fresh kernel.
///
/// `config` and `registry` must match the ones the crashed ledger ran
/// with (the ledger id is derived from `config.name`, and replay does
/// not re-verify client certificates). The returned ledger keeps both
/// streams wired for continued durable operation.
pub fn recover(
    config: LedgerConfig,
    registry: MemberRegistry,
    store: Arc<dyn StreamStore>,
    wal: Arc<dyn StreamStore>,
    clock: Arc<dyn Clock>,
) -> Result<(LedgerDb, RecoveryReport), LedgerError> {
    recover_with(config, registry, store, wal, clock, ledgerdb_telemetry::Registry::global())
}

/// [`recover`] with an explicit telemetry registry: the rebuilt ledger
/// is bound to it, and the replay's duration plus every
/// [`RecoveryReport`] counter are folded into it
/// (`ledger_recovery_*`).
pub fn recover_with(
    config: LedgerConfig,
    registry: MemberRegistry,
    store: Arc<dyn StreamStore>,
    wal: Arc<dyn StreamStore>,
    clock: Arc<dyn Clock>,
    telemetry: &ledgerdb_telemetry::Registry,
) -> Result<(LedgerDb, RecoveryReport), LedgerError> {
    recover_with_checkpoint(config, registry, store, wal, clock, telemetry, None)
}

/// [`recover_with`], starting from a committed checkpoint when
/// `checkpoints` holds one. The WAL records the checkpoint covers are
/// skipped by watermark; everything after replays normally.
pub fn recover_with_checkpoint(
    config: LedgerConfig,
    registry: MemberRegistry,
    store: Arc<dyn StreamStore>,
    wal: Arc<dyn StreamStore>,
    clock: Arc<dyn Clock>,
    telemetry: &ledgerdb_telemetry::Registry,
    checkpoints: Option<&CheckpointStore>,
) -> Result<(LedgerDb, RecoveryReport), LedgerError> {
    use ledgerdb_telemetry::trace::{self, TraceContext, TraceId, TraceScope};
    // Recovery runs outside any request, so it mints its own trace: a
    // slow (or failed) replay pins itself into the flight recorder and
    // shows up in `/trace/slow` next to slow requests.
    let root = TraceContext::root(TraceId::mint());
    let root_start_ns = trace::now_ns();
    let result = {
        let _scope = trace::install(TraceScope::Single(root));
        recover_with_checkpoint_inner(
            config,
            registry,
            store,
            wal,
            clock,
            telemetry,
            checkpoints,
        )
    };
    ledgerdb_telemetry::recorder::finish_root(root, "recovery", root_start_ns, result.is_err());
    result
}

fn recover_with_checkpoint_inner(
    config: LedgerConfig,
    registry: MemberRegistry,
    store: Arc<dyn StreamStore>,
    wal: Arc<dyn StreamStore>,
    clock: Arc<dyn Clock>,
    telemetry: &ledgerdb_telemetry::Registry,
    checkpoints: Option<&CheckpointStore>,
) -> Result<(LedgerDb, RecoveryReport), LedgerError> {
    let started = std::time::Instant::now();
    let mut report = RecoveryReport {
        wal_truncated_bytes: wal.truncated_bytes(),
        payload_truncated_bytes: store.truncated_bytes(),
        ..RecoveryReport::default()
    };

    // Decode the WAL front-to-back. Framing-level corruption already
    // failed the stream open; a record that decodes to garbage here is
    // a logical fault, handled by the sealed/unsealed policy below.
    let wal_len = wal.len();
    let mut records = Vec::with_capacity(wal_len as usize);
    let mut decode_failure: Option<(u64, String)> = None;
    for i in 0..wal_len {
        let bytes = wal.read(i).map_err(|e| {
            LedgerError::Recovery(format!("WAL record {i} unreadable: {e}"))
        })?;
        match WalRecord::from_wire(&bytes) {
            Ok(r) => records.push(r),
            Err(e) => {
                decode_failure = Some((i, format!("WAL record {i} undecodable: {e}")));
                break;
            }
        }
    }
    let mut ledger = LedgerDb::with_durability(
        config,
        registry,
        Arc::clone(&store),
        Arc::clone(&wal),
        clock,
    );
    ledger.bind_metrics(telemetry);

    // Checkpointed start: install the verified checkpoint state, then
    // only replay WAL records past its watermark.
    let (ckpt_journals, ckpt_blocks) = match checkpoints {
        Some(ckpt_store) => {
            let load_started = std::time::Instant::now();
            match crate::checkpoint::load_checkpoint(
                ckpt_store,
                &ledger.id,
                ledger.config.fam_delta,
                ledger.config.state_backend,
            )? {
                Some(loaded) => {
                    let watermark =
                        (loaded.manifest.journal_count, loaded.manifest.block_count);
                    report.checkpoint = Some(loaded.snapshot_id);
                    report.checkpoint_journals = watermark.0;
                    report.checkpoint_blocks = watermark.1;
                    install_checkpoint(&mut ledger, loaded)?;
                    crate::metrics::RecoveryMetrics::bind(telemetry)
                        .checkpoint_load_seconds
                        .observe_duration(load_started.elapsed());
                    watermark
                }
                None => (0, 0),
            }
        }
        None => (0, 0),
    };

    // Highest *uncovered* seal index among the decodable records. (A
    // decode failure hides everything after it, but a hidden seal could
    // only follow undecodable journals it would then fail to verify
    // against, so cutting at the decode failure is already the safe
    // prefix. Seals the checkpoint covers don't gate fatality: their
    // history is installed from the checkpoint, not the WAL.)
    let last_seal = records.iter().rposition(|r| match r {
        WalRecord::Seal(b) => b.height >= ckpt_blocks,
        _ => false,
    });

    let mut accepted: usize = 0;
    let mut replay_failure: Option<String> = None;
    let replay_span = ledgerdb_telemetry::trace::StageSpan::begin("recovery_replay");
    'replay: for (idx, record) in records.into_iter().enumerate() {
        let covered = match &record {
            WalRecord::Journal(journal) => journal.jsn < ckpt_journals,
            WalRecord::Seal(block) => block.height < ckpt_blocks,
        };
        if covered {
            // Pre-reset residue: the checkpoint committed but the crash
            // hit before the WAL shrank. The record's effects are
            // already installed (and root-verified) from the segments.
            report.skipped_wal_records += 1;
            accepted = idx + 1;
            continue;
        }
        match record {
            WalRecord::Journal(journal) => {
                if let Err(why) = replay_journal(&mut ledger, journal) {
                    replay_failure = Some(format!("WAL record {idx}: {why}"));
                    break 'replay;
                }
                report.journals_replayed += 1;
            }
            WalRecord::Seal(block) => {
                if let Err(why) = replay_seal(&mut ledger, block) {
                    replay_failure = Some(format!("WAL record {idx}: {why}"));
                    break 'replay;
                }
                report.blocks_verified += 1;
            }
        }
        accepted = idx + 1;
    }
    drop(replay_span);

    if replay_failure.is_some() || decode_failure.is_some() {
        // Invariant 1: a failure at or before the last seal record
        // breaks committed history — abort. A failure after it only
        // costs the unsealed tail — reject and truncate.
        let why = replay_failure
            .or_else(|| decode_failure.as_ref().map(|(_, w)| w.clone()))
            .expect("some failure");
        if last_seal.map_or(false, |s| accepted <= s) {
            return Err(LedgerError::Recovery(format!(
                "sealed history cannot be rebuilt: {why}"
            )));
        }
        report.rejected_wal_records = wal_len - accepted as u64;
        report.rejected_reason = Some(why);
        wal.truncate_records(accepted as u64)?;
    }

    // Invariant 3: trim payload slots no accepted journal references.
    let referenced = ledger.journals().next_back().map_or(0, |j| j.stream_index + 1);
    if store.len() > referenced {
        report.orphan_payloads_dropped = store.len() - referenced;
        store.truncate_records(referenced)?;
    }

    // Invariant 4: redo promised erasures that never reached the disk.
    let purge_to = ledger.pseudo_genesis().map(|g| g.purge_to).unwrap_or(0);
    for (jsn, journal) in ledger.journals().enumerate() {
        let marked = ledger.occult_index.is_marked(jsn as u64);
        if marked {
            report.occult_marks += 1;
        }
        if (jsn as u64) < purge_to || marked {
            let idx = journal.stream_index;
            if !store.is_erased(idx)? {
                store.erase(idx)?;
                report.erases_redone += 1;
            }
        }
    }

    report.unsealed_journals = ledger.pending_journals();
    crate::metrics::RecoveryMetrics::bind(telemetry).record(&report, started.elapsed());
    Ok((ledger, report))
}

/// Install a verified checkpoint into a fresh kernel. The structural
/// and root checks already ran in [`crate::checkpoint::load_checkpoint`];
/// what remains is binding the checkpoint to the *live* payload stream:
/// every covered journal's payload slot must hold the recorded digest
/// (digest tombstones survive erasure, so purged slots still verify).
fn install_checkpoint(
    ledger: &mut LedgerDb,
    loaded: crate::checkpoint::LoadedCheckpoint,
) -> Result<(), LedgerError> {
    for j in &loaded.journals {
        let digest = ledger.store.digest(j.stream_index).map_err(|e| {
            LedgerError::Recovery(format!(
                "checkpoint journal {} references missing payload slot {}: {e}",
                j.jsn, j.stream_index
            ))
        })?;
        if digest != j.payload_digest {
            return Err(LedgerError::Recovery(format!(
                "payload slot {} digest does not match checkpoint journal {}",
                j.stream_index, j.jsn
            )));
        }
    }
    // The loader checked that the blocks cover the journals exactly.
    let mut journals = loaded.journals.into_iter();
    ledger.sealed = loaded
        .blocks
        .into_iter()
        .map(|block| {
            let n = block.journal_count as usize;
            SealedSegment::new(block, journals.by_ref().take(n).collect())
        })
        .collect();
    ledger.fam = loaded.fam;
    ledger.cm_tree = loaded.cm_tree;
    ledger.world_state = loaded.world_state;
    ledger.occult_index = loaded.occult_index;
    ledger.pseudo_genesis = loaded.pseudo_genesis;
    for (jsn, payload) in &loaded.survival {
        ledger.survival.pin(*jsn, payload);
    }
    Ok(())
}

/// Replay one journal record into the kernel. Returns a human-readable
/// reason on failure so the caller can apply the sealed/unsealed policy.
fn replay_journal(ledger: &mut LedgerDb, journal: Journal) -> Result<(), String> {
    let jsn = ledger.journal_count();
    if journal.jsn != jsn {
        return Err(format!("journal carries jsn {}, expected {jsn}", journal.jsn));
    }
    // The payload must exist in the payload stream with the recorded
    // digest (the digest tombstone survives erasure, so erased slots
    // still verify).
    let digest = ledger
        .store
        .digest(journal.stream_index)
        .map_err(|e| format!("payload slot {} missing: {e}", journal.stream_index))?;
    if digest != journal.payload_digest {
        return Err(format!(
            "payload slot {} digest does not match journal {jsn}",
            journal.stream_index
        ));
    }

    // Pseudo genesis is captured *before* the purge journal lands,
    // mirroring the original purge() execution order.
    if let JournalKind::Purge { purge_to, .. } = &journal.kind {
        let snapshot = ledger.roots();
        let genesis_hash = crate::ledger::pseudo_genesis_hash(&ledger.id, *purge_to, &snapshot);
        ledger.pseudo_genesis = Some(PseudoGenesis {
            purge_to: *purge_to,
            purge_journal_jsn: jsn,
            snapshot,
            genesis_hash,
        });
    }
    // Occult marks re-block retrieval immediately.
    match &journal.kind {
        JournalKind::Occult { target, .. } => {
            ledger.occult_index.mark(*target);
        }
        JournalKind::OccultClue { targets, .. } => {
            for &t in targets {
                ledger.occult_index.mark(t);
            }
        }
        _ => {}
    }

    ledger.insert_journal(journal);
    Ok(())
}

/// Replay one seal record: recompute the roots, tx-hashes and chain
/// link from the rebuilt kernel and cross-check the recorded block.
pub(crate) fn replay_seal(ledger: &mut LedgerDb, block: Block) -> Result<(), String> {
    if ledger.pending_journals() == 0 {
        return Err(format!("seal of block {} with no pending journals", block.height));
    }
    let tip = ChainTip {
        height: ledger.block_count(),
        next_jsn: ledger.sealed_journals(),
        hash: Some(ledger.chain_head()),
    };
    verify::chain(&tip, &block).map_err(|e| format!("seal of block {}: {e}", block.height))?;
    if block.info != ledger.roots() {
        return Err(format!("block {} roots do not replay", block.height));
    }
    // With the chain rule's count check, this also pins the block to
    // exactly the pending journals.
    if block.tx_hashes != ledger.tail.tx_hashes {
        return Err(format!("block {} tx hashes do not replay", block.height));
    }
    ledger.tail.tx_hashes.clear();
    let journals = std::mem::take(&mut ledger.tail.journals);
    ledger.sealed.push(SealedSegment::new(block, journals));
    Ok(())
}

/// File names used by [`open_durable`] inside its directory.
pub const PAYLOAD_FILE: &str = "payload.log";
/// See [`PAYLOAD_FILE`].
pub const WAL_FILE: &str = "wal.log";
/// Subdirectory holding the checkpoint store, when checkpoints are
/// enabled ([`LedgerDb::enable_checkpoints`]).
pub const CHECKPOINT_DIR: &str = "checkpoints";

/// Open (or create) a durable ledger rooted at `dir`: `payload.log`
/// holds the payload stream, `wal.log` the metadata WAL. Fresh
/// directories yield an empty ledger and a clean report; existing ones
/// are recovered by replay.
pub fn open_durable(
    config: LedgerConfig,
    registry: MemberRegistry,
    dir: &Path,
    policy: FsyncPolicy,
    clock: Arc<dyn Clock>,
) -> Result<(LedgerDb, RecoveryReport), LedgerError> {
    open_durable_with(config, registry, dir, policy, clock, ledgerdb_telemetry::Registry::global())
}

/// [`open_durable`] with an explicit telemetry registry: both stream
/// stores, the recovery replay, and the resulting ledger all record
/// into `telemetry` instead of the global registry.
pub fn open_durable_with(
    config: LedgerConfig,
    registry: MemberRegistry,
    dir: &Path,
    policy: FsyncPolicy,
    clock: Arc<dyn Clock>,
    telemetry: &ledgerdb_telemetry::Registry,
) -> Result<(LedgerDb, RecoveryReport), LedgerError> {
    std::fs::create_dir_all(dir).map_err(|e| LedgerError::Storage(e.into()))?;
    let payload_path = dir.join(PAYLOAD_FILE);
    let wal_path = dir.join(WAL_FILE);
    let mut payload_store = if payload_path.exists() {
        FileStreamStore::open_with(&payload_path, policy)?
    } else {
        FileStreamStore::create_with(&payload_path, policy)?
    };
    payload_store.bind_metrics(telemetry);
    let mut wal_store = if wal_path.exists() {
        FileStreamStore::open_with(&wal_path, policy)?
    } else {
        FileStreamStore::create_with(&wal_path, policy)?
    };
    wal_store.bind_metrics(telemetry);
    let store: Arc<dyn StreamStore> = Arc::new(payload_store);
    let wal: Arc<dyn StreamStore> = Arc::new(wal_store);
    // A committed checkpoint bounds the replay to the post-checkpoint
    // tail. Only a durable `HEAD` counts — a half-written checkpoint
    // directory without one is ignored (and later garbage collected).
    let ckpt_dir = dir.join(CHECKPOINT_DIR);
    if ckpt_dir.join("HEAD").exists() {
        let ckpt_store = CheckpointStore::open(&ckpt_dir)?;
        recover_with_checkpoint(
            config,
            registry,
            store,
            wal,
            clock,
            telemetry,
            Some(&ckpt_store),
        )
    } else {
        recover_with(config, registry, store, wal, clock, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::MemberRegistry;
    use crate::types::TxRequest;
    use ledgerdb_crypto::ca::{CertificateAuthority, Role};
    use ledgerdb_crypto::keys::KeyPair;
    use ledgerdb_crypto::multisig::MultiSignature;
    use ledgerdb_timesvc::clock::SimClock;

    struct Members {
        dba: KeyPair,
        alice: KeyPair,
    }

    fn members() -> (MemberRegistry, Members) {
        let ca = CertificateAuthority::from_seed(b"rec-ca");
        let dba = KeyPair::from_seed(b"rec-dba");
        let regulator = KeyPair::from_seed(b"rec-reg");
        let alice = KeyPair::from_seed(b"rec-alice");
        let mut registry = MemberRegistry::new(*ca.public_key());
        registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
        registry.register(ca.issue("regulator", Role::Regulator, regulator.public())).unwrap();
        registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
        (registry, Members { dba, alice })
    }

    fn config(block_size: u64) -> LedgerConfig {
        LedgerConfig {
            block_size,
            fam_delta: 4,
            name: "recovery-test".into(),
            state_backend: Default::default(),
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ledgerdb-rec-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tx(keys: &KeyPair, payload: &[u8], clues: &[&str], nonce: u64) -> TxRequest {
        TxRequest::signed(
            keys,
            payload.to_vec(),
            clues.iter().map(|s| s.to_string()).collect(),
            nonce,
        )
    }

    #[test]
    fn seal_wire_matches_cloned_wal_record_encoding() {
        // The borrowed seal encoding must stay byte-identical to the
        // clone-then-encode form it replaced, or recovery replay breaks.
        let dir = temp_dir("seal-wire");
        let (registry, m) = members();
        let (mut ledger, _) = open_durable(
            config(2),
            registry,
            &dir,
            FsyncPolicy::Never,
            Arc::new(SimClock::new()),
        )
        .unwrap();
        for i in 0..6u64 {
            ledger.append(tx(&m.alice, &i.to_be_bytes(), &["w"], i)).unwrap();
        }
        assert!(ledger.block_count() >= 3);
        for block in ledger.blocks() {
            assert_eq!(
                seal_wire(block),
                WalRecord::Seal(block.clone()).to_wire(),
                "seal_wire diverged for block {}",
                block.height
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_round_trip_preserves_roots() {
        let dir = temp_dir("roundtrip");
        let (registry, m) = members();
        let (journal_root, clue_root, state_root, blocks) = {
            let (mut ledger, report) = open_durable(
                config(4),
                registry.clone(),
                &dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
            )
            .unwrap();
            assert!(report.is_clean());
            for i in 0..10u64 {
                ledger.append(tx(&m.alice, &i.to_be_bytes(), &["clue"], i)).unwrap();
            }
            assert!(ledger.durability_error().is_none());
            (ledger.journal_root(), ledger.clue_root(), ledger.state_root(), ledger.block_count())
        };
        let (ledger, report) = open_durable(
            config(4),
            registry,
            &dir,
            FsyncPolicy::Always,
            Arc::new(SimClock::new()),
        )
        .unwrap();
        assert!(report.is_clean(), "clean reopen: {report:?}");
        assert_eq!(report.journals_replayed, 10);
        assert_eq!(report.blocks_verified, blocks);
        assert_eq!(report.unsealed_journals, 2); // 10 appends, block size 4
        assert_eq!(ledger.journal_root(), journal_root);
        assert_eq!(ledger.clue_root(), clue_root);
        assert_eq!(ledger.state_root(), state_root);
        assert_eq!(ledger.get_payload(3).unwrap(), 3u64.to_be_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_are_durable_under_never_policy() {
        // The service-layer configuration: per-append fsync disabled,
        // durability supplied by the batch barrier. Everything the batch
        // acked must survive a reopen, cleanly.
        let dir = temp_dir("group-commit");
        let (registry, m) = members();
        let (root, blocks) = {
            let (mut ledger, _) = open_durable(
                config(4),
                registry.clone(),
                &dir,
                FsyncPolicy::Never,
                Arc::new(SimClock::new()),
            )
            .unwrap();
            let batch: Vec<TxRequest> =
                (0..10u64).map(|i| tx(&m.alice, &i.to_be_bytes(), &["c"], i)).collect();
            let prepared =
                batch.into_iter().map(|r| Ok(crate::ledger::PreparedTx::compute(r))).collect();
            let results = ledger.append_batch_prepared(prepared).unwrap();
            assert!(results.iter().all(|r| r.is_ok()));
            (ledger.journal_root(), ledger.block_count())
        };
        let (ledger, report) = open_durable(
            config(4),
            registry,
            &dir,
            FsyncPolicy::Never,
            Arc::new(SimClock::new()),
        )
        .unwrap();
        assert!(report.is_clean(), "batched appends reopen clean: {report:?}");
        assert_eq!(report.journals_replayed, 10);
        assert_eq!(ledger.journal_root(), root);
        assert_eq!(ledger.block_count(), blocks);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_replays_purge_and_redoes_erasure() {
        let dir = temp_dir("purge");
        let (registry, m) = members();
        {
            let (mut ledger, _) = open_durable(
                config(4),
                registry.clone(),
                &dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
            )
            .unwrap();
            for i in 0..8u64 {
                ledger.append(tx(&m.alice, &i.to_be_bytes(), &["c"], i)).unwrap();
            }
            let digest = ledger.purge_approval_digest(4);
            let mut ms = MultiSignature::new();
            ms.add(&m.dba, &digest);
            ms.add(&m.alice, &digest);
            ledger.purge(4, ms, &[], false).unwrap();
        }
        let (ledger, report) = open_durable(
            config(4),
            registry,
            &dir,
            FsyncPolicy::Always,
            Arc::new(SimClock::new()),
        )
        .unwrap();
        assert_eq!(report.erases_redone, 0, "purge erasures were durable");
        let genesis = ledger.pseudo_genesis().unwrap();
        assert_eq!(genesis.purge_to, 4);
        assert!(matches!(ledger.get_tx(0), Err(LedgerError::Purged(0))));
        assert!(ledger.get_payload(5).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_drops_only_unsealed_journals() {
        let dir = temp_dir("torn-wal");
        let (registry, m) = members();
        {
            let (mut ledger, _) = open_durable(
                config(4),
                registry.clone(),
                &dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
            )
            .unwrap();
            for i in 0..6u64 {
                ledger.append(tx(&m.alice, &i.to_be_bytes(), &[], i)).unwrap();
            }
        }
        // Tear the WAL inside its final record (journal 5, unsealed).
        let wal_path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 11).unwrap();
        drop(f);

        let (ledger, report) = open_durable(
            config(4),
            registry,
            &dir,
            FsyncPolicy::Always,
            Arc::new(SimClock::new()),
        )
        .unwrap();
        assert!(report.wal_truncated_bytes > 0);
        assert_eq!(report.journals_replayed, 5);
        assert_eq!(report.blocks_verified, 1);
        // The torn journal's payload is an orphan, trimmed.
        assert_eq!(report.orphan_payloads_dropped, 1);
        assert_eq!(ledger.journal_count(), 5);
        assert_eq!(ledger.block_count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_history_damage_is_fatal() {
        let dir = temp_dir("sealed-damage");
        let (registry, m) = members();
        {
            let (mut ledger, _) = open_durable(
                config(2),
                registry.clone(),
                &dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
            )
            .unwrap();
            for i in 0..4u64 {
                ledger.append(tx(&m.alice, &i.to_be_bytes(), &[], i)).unwrap();
            }
        }
        // Zap a *payload* in the sealed region: stream CRC still passes
        // (we rewrite a valid record) but the journal digest check fails.
        let store = FileStreamStore::open(&dir.join(PAYLOAD_FILE)).unwrap();
        store.truncate_records(1).unwrap();
        store.append(b"forged payload").unwrap();
        // Restore the slot count so the WAL journals still reference
        // existing slots (2..4 are simply gone now, also fatal).
        drop(store);

        match open_durable(config(2), registry, &dir, FsyncPolicy::Always, Arc::new(SimClock::new()))
        {
            Err(LedgerError::Recovery(_)) => {}
            Err(e) => panic!("expected Recovery error, got: {e}"),
            Ok(_) => panic!("recovery must refuse damaged sealed history"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_record_round_trip() {
        let (registry, m) = members();
        let mut ledger = LedgerDb::new(config(4), registry);
        ledger.append(tx(&m.alice, b"p", &["c"], 0)).unwrap();
        ledger.seal_block();
        let j = WalRecord::Journal(ledger.get_tx(0).unwrap().clone());
        let decoded = WalRecord::from_wire(&j.to_wire()).unwrap();
        assert!(matches!(decoded, WalRecord::Journal(ref d) if d.jsn == 0));
        let s = WalRecord::Seal(ledger.blocks().next().unwrap().clone());
        let decoded = WalRecord::from_wire(&s.to_wire()).unwrap();
        assert!(matches!(decoded, WalRecord::Seal(ref b) if b.height == 0));
        assert!(WalRecord::from_wire(&[9, 9, 9]).is_err());
    }
}
