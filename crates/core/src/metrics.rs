//! Cached telemetry handles for the ledger kernel.
//!
//! One `CoreMetrics` per `LedgerDb`, resolved at construction (global
//! registry unless rebound via [`crate::LedgerDb::bind_metrics`]).
//! Recording is a couple of relaxed atomic ops on the append path.

use crate::state::StateBackend;
use ledgerdb_telemetry::{Counter, Gauge, Histogram, Registry, Unit};
use std::sync::Arc;

#[derive(Debug, Clone)]
pub struct CoreMetrics {
    /// `ledger_appends_total` — journals committed (single + batched).
    pub appends: Arc<Counter>,
    /// `ledger_append_seconds` — latency of a single append.
    pub append_seconds: Arc<Histogram>,
    /// `ledger_batch_commits_total` — batched commit calls.
    pub batch_commits: Arc<Counter>,
    /// `ledger_batch_commit_seconds` — latency of a whole batch commit.
    pub batch_commit_seconds: Arc<Histogram>,
    /// `ledger_seals_total` — blocks sealed.
    pub seals: Arc<Counter>,
    /// Per-stage seal timings: the three commitment structures are
    /// hashed in turn at seal, and these histograms attribute the seal
    /// cost to each.
    /// `ledger_seal_fam_seconds` / `ledger_seal_clue_seconds` /
    /// `ledger_seal_state_seconds`.
    pub seal_fam_seconds: Arc<Histogram>,
    pub seal_clue_seconds: Arc<Histogram>,
    pub seal_state_seconds: Arc<Histogram>,
    /// `ledger_proofs_total` / `ledger_proof_seconds` — existence proofs.
    pub proofs: Arc<Counter>,
    pub proof_seconds: Arc<Histogram>,
    /// `ledger_durability_error` — 1 while a durability failure is
    /// stashed (degraded but serving), 0 otherwise.
    pub durability_error: Arc<Gauge>,
    /// `ledger_checkpoints_total` — checkpoints committed.
    pub checkpoints: Arc<Counter>,
    /// `ledger_checkpoint_write_seconds` — serialize + fsync + publish
    /// latency of one checkpoint.
    pub checkpoint_write_seconds: Arc<Histogram>,
    /// `ledger_checkpoint_bytes` — bytes physically written per
    /// checkpoint (content-addressed segments dedup unchanged state, so
    /// this is usually far below the full serialized size).
    pub checkpoint_bytes: Arc<Histogram>,
    /// `ledger_snapshot_publish_total` — read snapshots published
    /// (block seals plus occult/purge republishes).
    pub snapshot_publishes: Arc<Counter>,
    /// `ledger_snapshot_hit_total` — reads served lock-free from the
    /// current snapshot.
    pub snapshot_hits: Arc<Counter>,
    /// `ledger_snapshot_fallback_total` — reads that reached into the
    /// unsealed tail and fell back to the locked path.
    pub snapshot_fallbacks: Arc<Counter>,
    /// `ledger_snapshot_age_ms` — age of the current snapshot at the
    /// last snapshot-served read (0 right after a publish).
    pub snapshot_age_ms: Arc<Gauge>,
    /// `ledger_proof_bytes{backend="…"}` — wire-encoded size of each
    /// state proof, labeled by the commitment backend that built it.
    /// Indexed by [`StateBackend`] discriminant.
    pub state_proof_bytes: [Arc<Histogram>; 2],
}

impl CoreMetrics {
    pub fn bind(registry: &Registry) -> Self {
        CoreMetrics {
            appends: registry.counter("ledger_appends_total"),
            append_seconds: registry.histogram("ledger_append_seconds", Unit::Seconds),
            batch_commits: registry.counter("ledger_batch_commits_total"),
            batch_commit_seconds: registry.histogram("ledger_batch_commit_seconds", Unit::Seconds),
            seals: registry.counter("ledger_seals_total"),
            seal_fam_seconds: registry.histogram("ledger_seal_fam_seconds", Unit::Seconds),
            seal_clue_seconds: registry.histogram("ledger_seal_clue_seconds", Unit::Seconds),
            seal_state_seconds: registry.histogram("ledger_seal_state_seconds", Unit::Seconds),
            proofs: registry.counter("ledger_proofs_total"),
            proof_seconds: registry.histogram("ledger_proof_seconds", Unit::Seconds),
            durability_error: registry.gauge("ledger_durability_error"),
            checkpoints: registry.counter("ledger_checkpoints_total"),
            checkpoint_write_seconds: registry
                .histogram("ledger_checkpoint_write_seconds", Unit::Seconds),
            checkpoint_bytes: registry.histogram("ledger_checkpoint_bytes", Unit::Bytes),
            snapshot_publishes: registry.counter("ledger_snapshot_publish_total"),
            snapshot_hits: registry.counter("ledger_snapshot_hit_total"),
            snapshot_fallbacks: registry.counter("ledger_snapshot_fallback_total"),
            snapshot_age_ms: registry.gauge("ledger_snapshot_age_ms"),
            state_proof_bytes: [StateBackend::Mpt, StateBackend::Bin].map(|b| {
                registry.histogram(&format!("ledger_proof_bytes{{backend=\"{b}\"}}"), Unit::Bytes)
            }),
        }
    }
}

impl Default for CoreMetrics {
    fn default() -> Self {
        Self::bind(Registry::global())
    }
}

/// Telemetry recorded by one recovery replay ([`crate::recovery`]).
#[derive(Debug, Clone)]
pub struct RecoveryMetrics {
    /// `ledger_recovery_seconds` — wall time of the replay.
    pub recovery_seconds: Arc<Histogram>,
    /// `ledger_recoveries_total` — recovery runs performed.
    pub recoveries: Arc<Counter>,
    /// Cumulative `RecoveryReport` counters across runs.
    pub journals_replayed: Arc<Counter>,
    pub blocks_verified: Arc<Counter>,
    pub rejected_wal_records: Arc<Counter>,
    pub orphan_payloads_dropped: Arc<Counter>,
    pub erases_redone: Arc<Counter>,
    pub wal_truncated_bytes: Arc<Counter>,
    pub payload_truncated_bytes: Arc<Counter>,
    /// `ledger_checkpoint_load_seconds` — checkpoint deserialize +
    /// verify latency during recovery.
    pub checkpoint_load_seconds: Arc<Histogram>,
    /// `ledger_recovery_replayed_records` — WAL records replayed by the
    /// *last* recovery (a gauge: this is the O(tail) bound the
    /// checkpoint engine exists to keep small).
    pub replayed_records: Arc<Gauge>,
}

impl RecoveryMetrics {
    pub fn bind(registry: &Registry) -> Self {
        RecoveryMetrics {
            recovery_seconds: registry.histogram("ledger_recovery_seconds", Unit::Seconds),
            recoveries: registry.counter("ledger_recoveries_total"),
            journals_replayed: registry.counter("ledger_recovery_journals_replayed_total"),
            blocks_verified: registry.counter("ledger_recovery_blocks_verified_total"),
            rejected_wal_records: registry.counter("ledger_recovery_rejected_wal_records_total"),
            orphan_payloads_dropped: registry
                .counter("ledger_recovery_orphan_payloads_dropped_total"),
            erases_redone: registry.counter("ledger_recovery_erases_redone_total"),
            wal_truncated_bytes: registry.counter("ledger_recovery_wal_truncated_bytes_total"),
            payload_truncated_bytes: registry
                .counter("ledger_recovery_payload_truncated_bytes_total"),
            checkpoint_load_seconds: registry
                .histogram("ledger_checkpoint_load_seconds", Unit::Seconds),
            replayed_records: registry.gauge("ledger_recovery_replayed_records"),
        }
    }

    /// Fold one finished replay's report into the counters.
    pub fn record(&self, report: &crate::recovery::RecoveryReport, elapsed: std::time::Duration) {
        self.recoveries.inc();
        self.recovery_seconds.observe_duration(elapsed);
        self.journals_replayed.add(report.journals_replayed);
        self.blocks_verified.add(report.blocks_verified);
        self.rejected_wal_records.add(report.rejected_wal_records);
        self.orphan_payloads_dropped.add(report.orphan_payloads_dropped);
        self.erases_redone.add(report.erases_redone);
        self.wal_truncated_bytes.add(report.wal_truncated_bytes);
        self.payload_truncated_bytes.add(report.payload_truncated_bytes);
        self.replayed_records
            .set((report.journals_replayed + report.blocks_verified) as i64);
    }
}

impl Default for RecoveryMetrics {
    fn default() -> Self {
        Self::bind(Registry::global())
    }
}
