//! The ledger kernel: append path, blocks, proofs, purge and occult.

use crate::member::MemberRegistry;
use crate::snapshot::{
    check_retrievable, sealed_count, sealed_journal, sealed_receipt, sealed_tx_hash,
    SealedSegment,
};
use crate::types::{Block, Journal, JournalKind, LedgerInfo, Receipt, TxRequest};
use crate::LedgerError;
use ledgerdb_accumulator::fam::{FamProof, FamTree, TrustedAnchor};
use ledgerdb_clue::cm_tree::{ClueProof, CmTree};
use ledgerdb_crypto::ca::Role;
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::keys::{KeyPair, PublicKey};
use ledgerdb_crypto::multisig::MultiSignature;
use ledgerdb_crypto::sha256::{sha256, Sha256};
use ledgerdb_crypto::Wire as _;
use crate::state::{StateBackend, StateCommitment, StateProof, WorldState};
use ledgerdb_storage::checkpoint::{CheckpointStore, CkptIo};
use ledgerdb_storage::occult_index::OccultIndex;
use ledgerdb_storage::stream::{MemoryStreamStore, StreamStore};
use ledgerdb_storage::survival::SurvivalStream;
use ledgerdb_timesvc::clock::{Clock, SimClock};
use ledgerdb_timesvc::tledger::TLedger;
use std::sync::Arc;

/// Ledger construction options.
pub struct LedgerConfig {
    /// Journals per sealed block.
    pub block_size: u64,
    /// fam fractal height δ (epoch capacity `2^δ`).
    pub fam_delta: u32,
    /// Human-readable ledger name (mixed into the ledger id).
    pub name: String,
    /// World-state commitment backend. The default ([`StateBackend::Mpt`])
    /// is byte-identical to pre-trait ledgers; `Bin` opts into the
    /// compact-witness binary trie. Never serialized: recovery re-reads
    /// it from the operator's configuration, and checkpoint segments are
    /// backend-independent.
    pub state_backend: StateBackend,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            block_size: 16,
            fam_delta: 15,
            name: "ledger".to_string(),
            state_backend: StateBackend::default(),
        }
    }
}

/// Synchronous vs asynchronous occult (§III-A3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OccultMode {
    /// Erase the payload immediately.
    Sync,
    /// Mark now; erase later via [`LedgerDb::reorganize`].
    Async,
}

/// Acknowledgement returned by `append` before block commitment.
#[derive(Clone, Copy, Debug)]
pub struct AppendAck {
    pub jsn: u64,
    pub tx_hash: Digest,
}

/// A request with its digests precomputed — the unit
/// [`crate::SharedLedger::append_batch`] hands to the locked commit
/// stage.
///
/// `payload_digest` and `request_hash` depend only on the request
/// bytes, so they can be computed (and π_c verified) on any thread
/// *before* the ledger write lock is taken. What remains in-lock is
/// purely structural: slot assignment, one canonical journal hash over
/// the lock-assigned `(jsn, timestamp)`, tree inserts and the WAL
/// write.
#[derive(Clone, Debug)]
pub struct PreparedTx {
    pub request: TxRequest,
    /// `sha256(request.payload)`.
    pub payload_digest: Digest,
    /// [`TxRequest::hash`] of the request.
    pub request_hash: Digest,
}

impl PreparedTx {
    /// Digest a request: two sha256 passes, about a microsecond for a
    /// 256 B payload, so it always runs on the calling thread.
    pub fn compute(request: TxRequest) -> PreparedTx {
        let payload_digest = sha256(&request.payload);
        let request_hash = request.hash();
        PreparedTx { request, payload_digest, request_hash }
    }
}

/// Snapshot taken by a purge: the pseudo genesis (§III-A2).
#[derive(Clone, Debug)]
pub struct PseudoGenesis {
    /// Journals below this jsn are purged.
    pub purge_to: u64,
    /// The jsn of the purge journal this genesis is doubly linked with.
    pub purge_journal_jsn: u64,
    /// Snapshot of the ledger roots at the purge point.
    pub snapshot: LedgerInfo,
    /// Hash binding the pseudo genesis (the audit's replay start datum).
    pub genesis_hash: Digest,
}

/// Automatic checkpoint policy: every `every_n_seals` sealed blocks,
/// serialize the sealed-prefix state into the store (crash-atomically)
/// and reset the metadata WAL, bounding restart replay to the
/// post-checkpoint tail.
pub struct CheckpointPolicy {
    pub(crate) store: Arc<CheckpointStore>,
    pub(crate) io: Arc<CkptIo>,
    pub(crate) every_n_seals: u64,
    /// Seals since the last committed checkpoint. A purge sets this to
    /// `every_n_seals` so the stale covering checkpoint is replaced at
    /// the next seal boundary.
    pub(crate) seals_since: u64,
    /// Coverage of the newest committed checkpoint, as
    /// `(journal_count, block_count)` — the manifest watermark. `None`
    /// until a checkpoint exists. Surfaced on the operator `/status`
    /// endpoint so drain/restart behavior is observable.
    pub(crate) last_watermark: Option<(u64, u64)>,
    /// Snapshot id of the newest committed checkpoint (the manifest
    /// HEAD names it). Surfaced on `/status` next to the watermark.
    pub(crate) last_snapshot_id: Option<Digest>,
}

/// The unsealed tail: journals appended since the last seal, with
/// their tx-hashes. Their jsns continue the sealed prefix without gaps,
/// and a seal moves both vectors into a [`SealedSegment`] uncopied.
#[derive(Default)]
pub(crate) struct Tail {
    pub(crate) journals: Vec<Journal>,
    pub(crate) tx_hashes: Vec<Digest>,
}

/// The LedgerDB instance.
pub struct LedgerDb {
    pub(crate) id: Digest,
    pub(crate) config: LedgerConfig,
    pub(crate) lsp_keys: KeyPair,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) store: Arc<dyn StreamStore>,
    pub(crate) registry: MemberRegistry,

    /// Sealed history, one segment per block, shared by `Arc` with
    /// every published snapshot.
    pub(crate) sealed: Vec<Arc<SealedSegment>>,
    /// Journals appended since the last seal.
    pub(crate) tail: Tail,

    pub(crate) fam: FamTree,
    /// CM-Tree: the clue commitments and the one clue → jsn index.
    pub(crate) cm_tree: CmTree,
    pub(crate) world_state: WorldState,

    pub(crate) occult_index: OccultIndex,
    pub(crate) survival: SurvivalStream,
    pub(crate) pseudo_genesis: Option<PseudoGenesis>,

    /// Metadata write-ahead log: every journal and every sealed block is
    /// appended here before the in-memory kernel mutates, so a crash can
    /// be recovered by replay ([`crate::recovery`]). `None` for purely
    /// in-memory ledgers.
    pub(crate) wal: Option<Arc<dyn StreamStore>>,
    /// A durability failure stashed by an infallible path (the auto-seal
    /// inside the append hot path). The next fallible operation surfaces
    /// it instead of silently dropping it.
    pub(crate) durability_error: Option<LedgerError>,
    /// Telemetry handles (global registry unless rebound).
    pub(crate) metrics: crate::metrics::CoreMetrics,
    /// The snapshot read path's publication hub, installed by
    /// [`crate::SharedLedger::new`]. `None` for standalone ledgers —
    /// every snapshot hook is then a no-op.
    pub(crate) snapshot_hub: Option<Arc<crate::snapshot::SnapshotHub>>,
    /// Automatic checkpoint policy ([`LedgerDb::enable_checkpoints`]).
    pub(crate) checkpoints: Option<CheckpointPolicy>,
}

impl LedgerDb {
    /// Create a ledger with an in-memory stream store and simulated clock
    /// (the common test/bench configuration).
    pub fn new(config: LedgerConfig, registry: MemberRegistry) -> Self {
        Self::with_parts(
            config,
            registry,
            Arc::new(MemoryStreamStore::new()),
            Arc::new(SimClock::new()),
        )
    }

    /// Create a ledger over explicit storage and clock implementations.
    pub fn with_parts(
        config: LedgerConfig,
        registry: MemberRegistry,
        store: Arc<dyn StreamStore>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let id = sha256(format!("ledgerdb:{}", config.name).as_bytes());
        let fam = FamTree::new(config.fam_delta);
        let world_state = WorldState::new(config.state_backend);
        LedgerDb {
            id,
            config,
            lsp_keys: KeyPair::from_seed(b"ledgerdb-lsp"),
            clock,
            store,
            registry,
            sealed: Vec::new(),
            tail: Tail::default(),
            fam,
            cm_tree: CmTree::new(),
            world_state,
            occult_index: OccultIndex::new(),
            survival: SurvivalStream::new(),
            pseudo_genesis: None,
            wal: None,
            durability_error: None,
            metrics: crate::metrics::CoreMetrics::default(),
            snapshot_hub: None,
            checkpoints: None,
        }
    }

    /// Install (or fetch) the snapshot publication hub: captures the
    /// current sealed prefix as the initial snapshot and republishes on
    /// every seal, occult and purge from here on.
    pub fn install_snapshot_hub(&mut self) -> Arc<crate::snapshot::SnapshotHub> {
        if let Some(hub) = &self.snapshot_hub {
            return Arc::clone(hub);
        }
        let hub = Arc::new(crate::snapshot::SnapshotHub::new(
            crate::snapshot::ReadSnapshot::build(self, None),
        ));
        self.snapshot_hub = Some(Arc::clone(&hub));
        hub
    }

    /// Publish a fresh read snapshot if a hub is installed.
    fn publish_snapshot(&self) {
        if let Some(hub) = &self.snapshot_hub {
            hub.publish(self);
        }
    }

    /// Create a ledger whose metadata is write-ahead logged to `wal`
    /// before any in-memory mutation. Use [`crate::recovery::recover`]
    /// (or [`crate::recovery::open_durable`]) to rebuild the kernel from
    /// the two streams after a crash.
    pub fn with_durability(
        config: LedgerConfig,
        registry: MemberRegistry,
        store: Arc<dyn StreamStore>,
        wal: Arc<dyn StreamStore>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let mut ledger = Self::with_parts(config, registry, store, clock);
        ledger.wal = Some(wal);
        ledger
    }

    /// A durability failure stashed by an infallible path (auto-seal),
    /// if any. The next fallible operation also surfaces it.
    pub fn durability_error(&self) -> Option<&LedgerError> {
        self.durability_error.as_ref()
    }

    /// Take (and clear) the stashed durability failure.
    pub fn take_durability_error(&mut self) -> Option<LedgerError> {
        self.clear_durability_error()
    }

    /// Internal take of the stashed durability failure; every `.take()`
    /// goes through here so the `ledger_durability_error` gauge tracks
    /// the sticky state exactly.
    fn clear_durability_error(&mut self) -> Option<LedgerError> {
        let e = self.durability_error.take();
        if e.is_some() {
            self.metrics.durability_error.set(0);
        }
        e
    }

    /// Rebind telemetry to `registry` (default: the global registry).
    pub fn bind_metrics(&mut self, registry: &ledgerdb_telemetry::Registry) {
        self.metrics = crate::metrics::CoreMetrics::bind(registry);
    }

    /// Enable automatic checkpointing: after every `every_n_seals`
    /// sealed blocks, the sealed-prefix state is committed to `store`
    /// (crash-atomically; see [`ledgerdb_storage::checkpoint`]) and the
    /// metadata WAL is reset, so restart replay is bounded by the
    /// post-checkpoint tail. `io` routes the checkpoint writes — the
    /// crash-point harness passes an armed router; production passes a
    /// plain `CkptIo::new()`.
    pub fn enable_checkpoints(
        &mut self,
        store: Arc<CheckpointStore>,
        io: Arc<CkptIo>,
        every_n_seals: u64,
    ) {
        // Seed the watermark from the store's current HEAD, so a ledger
        // reopened over an existing checkpoint reports it immediately.
        let head = store.load_head().ok().flatten();
        let last_snapshot_id = head.as_ref().map(|(id, _)| *id);
        let last_watermark = head.and_then(|(_, bytes)| {
            use ledgerdb_crypto::wire::Wire as _;
            crate::checkpoint::CheckpointManifest::from_wire(&bytes)
                .ok()
                .map(|m| (m.journal_count, m.block_count))
        });
        self.checkpoints = Some(CheckpointPolicy {
            store,
            io,
            every_n_seals: every_n_seals.max(1),
            seals_since: 0,
            last_watermark,
            last_snapshot_id,
        });
    }

    /// Coverage of the newest committed checkpoint as
    /// `(journal_count, block_count)`, or `None` when checkpoints are
    /// disabled or none has been committed yet.
    pub fn checkpoint_watermark(&self) -> Option<(u64, u64)> {
        self.checkpoints.as_ref().and_then(|p| p.last_watermark)
    }

    /// The installed checkpoint store, if any.
    pub fn checkpoint_store(&self) -> Option<&Arc<CheckpointStore>> {
        self.checkpoints.as_ref().map(|p| &p.store)
    }

    /// Snapshot id of the newest committed checkpoint, or `None` when
    /// checkpoints are disabled or none has been committed yet.
    pub fn checkpoint_snapshot_id(&self) -> Option<Digest> {
        self.checkpoints.as_ref().and_then(|p| p.last_snapshot_id)
    }

    /// Seals since the last committed checkpoint (`None` when the
    /// policy is disabled) — together with the watermark, the operator's
    /// view of how much WAL tail the next restart would replay.
    pub fn checkpoint_seals_since(&self) -> Option<u64> {
        self.checkpoints.as_ref().map(|p| p.seals_since)
    }

    /// Commit a checkpoint immediately, then reset the WAL.
    ///
    /// Returns `Ok(None)` when checkpoints are not enabled or the
    /// ledger is not at a seal boundary (checkpoints only cover sealed
    /// state — a mid-block checkpoint would strand the pending tail's
    /// WAL records). On success the returned snapshot id names the
    /// committed manifest and obsolete checkpoint files are garbage
    /// collected best-effort.
    ///
    /// On error the ledger keeps serving: a crash mid-checkpoint leaves
    /// either the old HEAD or the new one, never an unreadable mix, and
    /// the (possibly longer) WAL still replays the full history.
    pub fn checkpoint_now(&mut self) -> Result<Option<Digest>, LedgerError> {
        let Some(policy) = &self.checkpoints else {
            return Ok(None);
        };
        if !self.tail.journals.is_empty() {
            return Ok(None);
        }
        let store = Arc::clone(&policy.store);
        let io = Arc::clone(&policy.io);
        let start = std::time::Instant::now();
        let _span = ledgerdb_telemetry::trace::StageSpan::begin("checkpoint");
        let (snapshot_id, bytes, segments) =
            crate::checkpoint::write_checkpoint(self, &store, &io)?;
        // Only after HEAD durably names the new checkpoint may the WAL
        // shrink: a crash between the two leaves checkpoint + full WAL,
        // and recovery skips the covered records by watermark.
        if let Some(wal) = &self.wal {
            wal.reset(io.as_ref())?;
        }
        store.gc(&snapshot_id, &segments);
        self.metrics.checkpoints.inc();
        self.metrics.checkpoint_bytes.observe(bytes);
        self.metrics.checkpoint_write_seconds.observe_duration(start.elapsed());
        let watermark = (self.journal_count(), self.block_count());
        if let Some(policy) = &mut self.checkpoints {
            policy.seals_since = 0;
            policy.last_watermark = Some(watermark);
            policy.last_snapshot_id = Some(snapshot_id);
        }
        Ok(Some(snapshot_id))
    }

    /// Seal-path checkpoint hook: count the seal and, when the policy
    /// says one is due, checkpoint. A failure must not fail the seal —
    /// the block is already committed — so it is stashed as the sticky
    /// durability error exactly like an auto-seal WAL failure.
    fn maybe_checkpoint_after_seal(&mut self) {
        let due = match &mut self.checkpoints {
            Some(p) => {
                p.seals_since += 1;
                p.seals_since >= p.every_n_seals
            }
            None => false,
        };
        if !due {
            return;
        }
        if let Err(e) = self.checkpoint_now() {
            self.stash_durability_error(e);
        }
    }

    /// Stash a failure from an infallible path as the sticky durability
    /// error (gauge up until [`LedgerDb::take_durability_error`]).
    pub(crate) fn stash_durability_error(&mut self, e: LedgerError) {
        self.durability_error = Some(e);
        self.metrics.durability_error.set(1);
    }

    /// The ledger's identity digest (its `ledger_uri` analogue).
    pub fn id(&self) -> Digest {
        self.id
    }

    /// The LSP's public key (receipt verification).
    pub fn lsp_public_key(&self) -> &PublicKey {
        self.lsp_keys.public()
    }

    /// The member registry.
    pub fn registry(&self) -> &MemberRegistry {
        &self.registry
    }

    /// Mutable registry access (member onboarding).
    pub fn registry_mut(&mut self) -> &mut MemberRegistry {
        &mut self.registry
    }

    /// Total journals (all kinds).
    pub fn journal_count(&self) -> u64 {
        self.sealed_journals() + self.tail.journals.len() as u64
    }

    /// Journals covered by sealed blocks.
    pub(crate) fn sealed_journals(&self) -> u64 {
        sealed_count(&self.sealed)
    }

    /// Sealed blocks.
    pub fn block_count(&self) -> u64 {
        self.sealed.len() as u64
    }

    /// The three live roots (fam, CM-Tree1, world state).
    pub(crate) fn roots(&self) -> LedgerInfo {
        LedgerInfo {
            journal_root: self.fam.root(),
            clue_root: self.cm_tree.root(),
            state_root: self.world_state.commitment_root(),
        }
    }

    /// Current ledger commitment (fam root).
    pub fn journal_root(&self) -> Digest {
        self.fam.root()
    }

    /// Current CM-Tree1 root.
    pub fn clue_root(&self) -> Digest {
        self.cm_tree.root()
    }

    /// Current world-state root.
    pub fn state_root(&self) -> Digest {
        self.world_state.commitment_root()
    }

    /// The pseudo genesis, if a purge has happened (Protocol 1's datum).
    pub fn pseudo_genesis(&self) -> Option<&PseudoGenesis> {
        self.pseudo_genesis.as_ref()
    }

    /// A trusted anchor snapshot of the fam tree (fam-aoa).
    pub fn anchor(&self) -> TrustedAnchor {
        self.fam.anchor()
    }

    /// Journals appended since the last sealed block.
    pub fn pending_journals(&self) -> u64 {
        self.tail.journals.len() as u64
    }

    /// Sealed blocks, oldest first.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.sealed.iter().map(|s| &s.block)
    }

    /// Every journal in jsn order: the sealed segments, then the tail.
    pub(crate) fn journals(&self) -> impl DoubleEndedIterator<Item = &Journal> {
        self.sealed
            .iter()
            .flat_map(|s| s.journals.iter())
            .chain(self.tail.journals.iter())
    }

    /// A journal record, sealed or in the tail (no retrieval gate).
    fn journal(&self, jsn: u64) -> Option<&Journal> {
        match jsn.checked_sub(self.sealed_journals()) {
            Some(offset) => self.tail.journals.get(offset as usize),
            None => sealed_journal(&self.sealed, jsn),
        }
    }

    /// A journal's tx-hash, sealed or in the tail — what the block
    /// commits to, or will at the next seal.
    pub fn tx_hash(&self, jsn: u64) -> Option<Digest> {
        match jsn.checked_sub(self.sealed_journals()) {
            Some(offset) => self.tail.tx_hashes.get(offset as usize).copied(),
            None => sealed_tx_hash(&self.sealed, jsn),
        }
    }

    // ------------------------------------------------------------------
    // Append path (journal-level transaction commitment, Fig 1)
    // ------------------------------------------------------------------

    /// Append a client transaction. Verifies π_c (threat-A defence),
    /// stores the payload, creates the journal, feeds fam + CM-Tree +
    /// world state, and returns the jsn acknowledgement. The receipt π_s
    /// becomes available once the journal's block seals.
    pub fn append(&mut self, request: TxRequest) -> Result<AppendAck, LedgerError> {
        self.registry.admit(&request)?;
        self.append_preverified(request)
    }

    /// Append and immediately seal, returning the full receipt (the
    /// convenience used by latency-sensitive notarization flows).
    pub fn append_committed(&mut self, request: TxRequest) -> Result<Receipt, LedgerError> {
        let ack = self.append(request)?;
        // Fallible seal: a WAL failure here must reach the caller as a
        // typed error (the journals stay pending, the seal is
        // retryable) — not be stashed and then tripped over as a
        // missing receipt.
        self.try_seal_block()?;
        self.receipt(ack.jsn)?.ok_or(LedgerError::UnknownJournal(ack.jsn))
    }

    /// Append a request whose signature was already verified by the ledger
    /// proxy tier (Fig 1 separates proxy and server; production deployments
    /// offload π_c checks to the proxy fleet). Membership is still
    /// enforced. Used by the throughput harness to measure the kernel
    /// append path the way the paper's TPS numbers do.
    pub fn append_preverified(&mut self, request: TxRequest) -> Result<AppendAck, LedgerError> {
        if !self.registry.is_registered(&request.client_pk) {
            return Err(LedgerError::UnknownMember);
        }
        self.append_journal(
            JournalKind::Normal,
            request.clues.clone(),
            &request.payload,
            request.hash(),
            Some(request.client_pk),
            Some(request.signature),
        )
    }

    /// Group-commit append — the only batched entry that runs under the
    /// write lock.
    ///
    /// Requests arrive *prepared*: digests (and, per the caller's
    /// [`crate::Admission`], π_c) were computed off-lock by
    /// [`crate::SharedLedger::append_batch`]. Membership is re-checked
    /// here (a hash-map lookup, no hashing): prepared requests may have
    /// queued while the registry changed. Per-item `Err`s (a rejected
    /// admission, an admission panic mapped to
    /// [`LedgerError::TaskFailed`]) pass through positionally and never
    /// consume a payload slot.
    ///
    /// All accepted payloads are written to the payload stream behind a
    /// **single** sync ([`StreamStore::append_batch`]), each journal
    /// (and any auto-seal) is WAL-logged in order, and the batch
    /// finishes with one [`LedgerDb::sync_durable`] barrier — so N
    /// appends become durable behind O(1) fsyncs instead of O(N). This
    /// loop performs no payload or request hashing of its own.
    ///
    /// An outer `Err` aborts the batch: requests not yet committed were
    /// not appended (their payload slots are rolled back), and none of
    /// the batch should be acknowledged as durable.
    pub fn append_batch_prepared(
        &mut self,
        prepared: Vec<Result<PreparedTx, LedgerError>>,
    ) -> Result<Vec<Result<AppendAck, LedgerError>>, LedgerError> {
        if let Some(e) = self.clear_durability_error() {
            return Err(e);
        }
        let validated: Vec<Result<PreparedTx, LedgerError>> = prepared
            .into_iter()
            .map(|item| {
                let tx = item?;
                if self.registry.is_registered(&tx.request.client_pk) {
                    Ok(tx)
                } else {
                    Err(LedgerError::UnknownMember)
                }
            })
            .collect();
        let start = std::time::Instant::now();
        let payloads: Vec<Vec<u8>> = validated
            .iter()
            .filter_map(|v| v.as_ref().ok().map(|t| t.request.payload.clone()))
            .collect();
        // Covers the payload batch write and every journal's WAL record;
        // auto-seals at block boundaries open their own "seal" span
        // inside this one, and the closing durability barrier follows
        // as "fsync_barrier" (inside sync_durable).
        let wal_span = ledgerdb_telemetry::trace::StageSpan::begin("wal_write");
        let mut slot = self.store.append_batch(&payloads)?;
        let mut results = Vec::with_capacity(validated.len());
        for v in validated {
            let tx = match v {
                Ok(tx) => tx,
                Err(e) => {
                    results.push(Err(e));
                    continue;
                }
            };
            let stream_index = slot;
            slot += 1;
            let committed = self.commit_journal(
                JournalKind::Normal,
                tx.request.clues.clone(),
                tx.payload_digest,
                tx.request_hash,
                Some(tx.request.client_pk),
                Some(tx.request.signature),
                stream_index,
            );
            let ack = match committed {
                Ok(ack) => ack,
                Err(e) => {
                    // Roll back this and every still-unprocessed payload
                    // so stream indexes stay aligned with jsns.
                    let _ = self.store.truncate_records(stream_index);
                    return Err(e);
                }
            };
            if self.pending_journals() >= self.config.block_size {
                if let Err(e) = self.try_seal_block() {
                    let _ = self.store.truncate_records(slot);
                    return Err(e);
                }
            }
            results.push(Ok(ack));
        }
        drop(wal_span);
        self.sync_durable()?;
        self.metrics.batch_commits.inc();
        self.metrics.batch_commit_seconds.observe_duration(start.elapsed());
        Ok(results)
    }

    /// Flush both durable streams (payload + WAL) to stable storage —
    /// the group-commit barrier. No-op for in-memory ledgers.
    pub fn sync_durable(&self) -> Result<(), LedgerError> {
        // Under the committer's window scope this barrier is shared by
        // the whole commit window: one interval, one span per member.
        let _span = ledgerdb_telemetry::trace::StageSpan::begin("fsync_barrier");
        self.store.sync()?;
        if let Some(wal) = &self.wal {
            wal.sync()?;
        }
        Ok(())
    }

    /// Internal: append any journal kind.
    fn append_journal(
        &mut self,
        kind: JournalKind,
        clues: Vec<String>,
        payload: &[u8],
        request_hash: Digest,
        client_pk: Option<PublicKey>,
        client_sig: Option<ledgerdb_crypto::ecdsa::Signature>,
    ) -> Result<AppendAck, LedgerError> {
        // Surface a durability failure stashed by an earlier auto-seal
        // before accepting new writes on top of it.
        if let Some(e) = self.clear_durability_error() {
            return Err(e);
        }
        let start = std::time::Instant::now();
        let stream_index = self.store.append(payload)?;
        // WAL order: payload → journal record → in-memory mutation. A
        // crash between the first two leaves an orphan payload that
        // recovery trims; a WAL failure here rolls the payload back so
        // stream indexes stay aligned with jsns.
        let committed = self.commit_journal(
            kind,
            clues,
            sha256(payload),
            request_hash,
            client_pk,
            client_sig,
            stream_index,
        );
        let ack = match committed {
            Ok(ack) => ack,
            Err(e) => {
                let _ = self.store.truncate_records(stream_index);
                return Err(e);
            }
        };
        if self.pending_journals() >= self.config.block_size {
            self.seal_block();
        }
        self.metrics.append_seconds.observe_duration(start.elapsed());
        Ok(ack)
    }

    /// WAL-log and apply one journal whose payload already occupies
    /// `stream_index`. Does not auto-seal and does not roll the payload
    /// slot back on failure — callers own both.
    fn commit_journal(
        &mut self,
        kind: JournalKind,
        clues: Vec<String>,
        payload_digest: Digest,
        request_hash: Digest,
        client_pk: Option<PublicKey>,
        client_sig: Option<ledgerdb_crypto::ecdsa::Signature>,
        stream_index: u64,
    ) -> Result<AppendAck, LedgerError> {
        let jsn = self.journal_count();
        let journal = Journal {
            jsn,
            kind,
            clues,
            payload_digest,
            request_hash,
            client_pk,
            client_sig,
            timestamp: self.clock.now(),
            stream_index,
        };
        if let Some(wal) = &self.wal {
            let record = crate::recovery::WalRecord::Journal(journal.clone());
            wal.append(&ledgerdb_crypto::wire::Wire::to_wire(&record))?;
        }
        let tx_hash = self.insert_journal(journal);
        self.metrics.appends.inc();
        Ok(AppendAck { jsn, tx_hash })
    }

    /// Feed one journal into the kernel: its tx-hash into the fam, its
    /// clues into the CM-Tree and world state, the record into the
    /// tail. The one way a journal enters — the commit path and WAL
    /// replay both end here. Returns the tx-hash.
    pub(crate) fn insert_journal(&mut self, journal: Journal) -> Digest {
        let tx_hash = journal.tx_hash();
        self.fam.append(tx_hash);
        for clue in &journal.clues {
            self.cm_tree.append(clue, journal.jsn, tx_hash);
            self.world_state.insert_kv(
                ledgerdb_clue::clue_key(clue).as_bytes(),
                journal.payload_digest.0.to_vec(),
            );
        }
        self.tail.journals.push(journal);
        self.tail.tx_hashes.push(tx_hash);
        tx_hash
    }

    /// The hash the next sealed block links to: the last block's, or
    /// the pseudo genesis after a purge with no block yet, or zero.
    pub(crate) fn chain_head(&self) -> Digest {
        match (self.sealed.last(), &self.pseudo_genesis) {
            (Some(s), _) => s.block.hash(),
            (None, Some(g)) => g.genesis_hash,
            (None, None) => Digest::ZERO,
        }
    }

    /// Seal the pending journals into a block. Receipts become derivable
    /// (and are signed on demand by [`LedgerDb::receipt`]).
    ///
    /// Infallible wrapper over [`LedgerDb::try_seal_block`]: a WAL
    /// failure is stashed as the [`LedgerDb::durability_error`] and
    /// surfaced by the next fallible operation (never silently lost).
    /// The pending journals remain pending, so the seal is retryable.
    pub fn seal_block(&mut self) {
        if let Err(e) = self.try_seal_block() {
            self.stash_durability_error(e);
        }
    }

    /// Seal the pending journals into a block, reporting WAL failures.
    /// On error nothing is mutated: the journals stay pending and the
    /// seal can be retried.
    pub fn try_seal_block(&mut self) -> Result<(), LedgerError> {
        if let Some(e) = self.clear_durability_error() {
            return Err(e);
        }
        if self.tail.journals.is_empty() {
            return Ok(());
        }
        let _seal_span = ledgerdb_telemetry::trace::StageSpan::begin("seal");
        let info = self.seal_roots();
        // The tail's tx-hashes move into the block; the chain link is a
        // memo read (the previous seal primed it).
        let block = Block::new(
            self.block_count(),
            self.sealed_journals(),
            self.pending_journals(),
            info,
            self.chain_head(),
            self.clock.now(),
            std::mem::take(&mut self.tail.tx_hashes),
        );
        // The seal record hits the WAL before the block exists in
        // memory; a crash in between replays the seal idempotently. On
        // failure the tx-hashes go back to the tail, unsealed.
        if let Some(wal) = &self.wal {
            if let Err(e) = wal.append(&crate::recovery::seal_wire(&block)) {
                self.tail.tx_hashes = block.tx_hashes;
                return Err(e.into());
            }
        }
        let journals = std::mem::take(&mut self.tail.journals);
        self.sealed.push(SealedSegment::new(block, journals));
        self.metrics.seals.inc();
        // Publish-on-seal: the tail is empty, so the frozen fam covers
        // exactly the sealed journals and its root equals the block's
        // `info.journal_root` — the snapshot names a consistent LedgerInfo.
        self.publish_snapshot();
        self.maybe_checkpoint_after_seal();
        Ok(())
    }

    /// Compute the three `LedgerInfo` roots for a seal, timing each
    /// stage. Runs on the thread that holds the write lock: each root
    /// re-hashes only the few paths a block dirtied, so there is no
    /// work here worth handing to another thread.
    fn seal_roots(&self) -> LedgerInfo {
        use ledgerdb_telemetry::trace::StageSpan;
        let m = &self.metrics;
        let journal_root = {
            let _leg = StageSpan::begin("seal_fam");
            let t = std::time::Instant::now();
            let root = self.fam.root();
            m.seal_fam_seconds.observe_duration(t.elapsed());
            root
        };
        let clue_root = {
            let _leg = StageSpan::begin("seal_clue");
            let t = std::time::Instant::now();
            let root = self.cm_tree.root();
            m.seal_clue_seconds.observe_duration(t.elapsed());
            root
        };
        let state_root = {
            let _leg = StageSpan::begin("seal_state");
            let t = std::time::Instant::now();
            let root = self.world_state.commitment_root();
            m.seal_state_seconds.observe_duration(t.elapsed());
            root
        };
        LedgerInfo { journal_root, clue_root, state_root }
    }

    // ------------------------------------------------------------------
    // Retrieval
    // ------------------------------------------------------------------

    /// Fetch a journal record (fails for occulted journals, §III-A3).
    pub fn get_tx(&self, jsn: u64) -> Result<&Journal, LedgerError> {
        let purge_to = self.pseudo_genesis.as_ref().map_or(0, |g| g.purge_to);
        check_retrievable(jsn, self.occult_index.is_marked(jsn), purge_to)?;
        self.journal(jsn).ok_or(LedgerError::UnknownJournal(jsn))
    }

    /// Fetch a journal's payload from the stream store.
    pub fn get_payload(&self, jsn: u64) -> Result<Vec<u8>, LedgerError> {
        let journal = self.get_tx(jsn)?;
        Ok(self.store.read(journal.stream_index)?)
    }

    /// jsns recorded under a clue (ListTx), read from the CM-Tree's
    /// jsn references.
    pub fn list_tx(&self, clue: &str) -> Vec<u64> {
        self.cm_tree.jsns(clue).to_vec()
    }

    /// The receipt π_s for a journal (None until its block seals),
    /// signed on demand.
    pub fn receipt(&self, jsn: u64) -> Result<Option<Receipt>, LedgerError> {
        if jsn >= self.journal_count() {
            return Err(LedgerError::UnknownJournal(jsn));
        }
        Ok(sealed_receipt(&self.sealed, &self.lsp_keys, jsn))
    }

    // ------------------------------------------------------------------
    // Existence proofs (what, §III-A)
    // ------------------------------------------------------------------

    /// Produce an existence proof (GetProof): the journal's tx-hash path
    /// in the fam tree relative to `anchor`.
    pub fn prove_existence(
        &self,
        jsn: u64,
        anchor: &TrustedAnchor,
    ) -> Result<(Digest, FamProof), LedgerError> {
        let _span = self.metrics.proof_seconds.time("ledger_proof");
        self.metrics.proofs.inc();
        let tx_hash = self.tx_hash(jsn).ok_or(LedgerError::UnknownJournal(jsn))?;
        let proof = self.fam.prove(jsn, anchor)?;
        Ok((tx_hash, proof))
    }

    // ------------------------------------------------------------------
    // Clue proofs (N-lineage, §IV)
    // ------------------------------------------------------------------

    /// Produce a clue-oriented proof for the entire lineage.
    pub fn prove_clue(&self, clue: &str) -> Result<ClueProof, LedgerError> {
        Ok(self.cm_tree.prove_all(clue)?)
    }

    /// Direct read access to the CM-Tree (benchmarks, ablations).
    pub fn cm_tree(&self) -> &CmTree {
        &self.cm_tree
    }

    // ------------------------------------------------------------------
    // Time anchoring (when, §III-B)
    // ------------------------------------------------------------------

    /// Submit the current ledger commitment to the T-Ledger (Protocol 4)
    /// and anchor the notary receipt back as a time journal.
    pub fn anchor_time(&mut self, tledger: &TLedger) -> Result<AppendAck, LedgerError> {
        let digest = self.fam.root();
        let receipt = tledger.submit(self.id, digest, self.clock.now())?;
        let payload = {
            let mut h = Sha256::new();
            h.update(b"ledgerdb.timejournal.payload.v1");
            h.update(&receipt.entry.leaf_digest().0);
            h.finalize().to_vec()
        };
        let request_hash = sha256(&payload);
        self.append_journal(
            JournalKind::Time(receipt),
            Vec::new(),
            &payload,
            request_hash,
            None,
            None,
        )
    }

    // ------------------------------------------------------------------
    // Purge (§III-A2)
    // ------------------------------------------------------------------

    /// Public keys whose journals fall before `purge_to` — the member set
    /// Prerequisite 1 requires in the purge multi-signature.
    pub fn members_before(&self, purge_to: u64) -> Vec<PublicKey> {
        let mut keys: Vec<PublicKey> = Vec::new();
        for journal in self.journals().take(purge_to as usize) {
            if let Some(pk) = journal.client_pk {
                if !keys.contains(&pk) {
                    keys.push(pk);
                }
            }
        }
        keys
    }

    /// The digest a purge approval multi-signature covers.
    pub fn purge_approval_digest(&self, purge_to: u64) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ledgerdb.purge.approve.v1");
        h.update(&self.id.0);
        h.update(&purge_to.to_be_bytes());
        Digest(h.finalize())
    }

    /// Execute a purge to `purge_to` (exclusive). Prerequisite 1: the
    /// multi-signature must carry the DBA and every member with journals
    /// before the purge point. Optionally pins `survivors` into the
    /// survival stream first. When `erase_fam_nodes` is set, sealed fam
    /// epochs fully below the purge point drop their node storage.
    pub fn purge(
        &mut self,
        purge_to: u64,
        approvals: MultiSignature,
        survivors: &[u64],
        erase_fam_nodes: bool,
    ) -> Result<AppendAck, LedgerError> {
        if purge_to == 0 || purge_to > self.journal_count() {
            return Err(LedgerError::BadPurgePoint(purge_to));
        }
        if let Some(g) = &self.pseudo_genesis {
            if purge_to <= g.purge_to {
                return Err(LedgerError::BadPurgePoint(purge_to));
            }
        }
        // Prerequisite 1: DBA + all related members.
        let mut required = self.registry.keys_with_role(Role::Dba);
        for pk in self.members_before(purge_to) {
            if !required.contains(&pk) {
                required.push(pk);
            }
        }
        let digest = self.purge_approval_digest(purge_to);
        if !approvals.covers(&digest, &required) {
            return Err(LedgerError::InsufficientSignatures("purge (Prerequisite 1)"));
        }

        // Pin survivors before anything is erased.
        for &jsn in survivors {
            if jsn < purge_to {
                let index = self.journal(jsn).expect("below the purge point").stream_index;
                if let Ok(payload) = self.store.read(index) {
                    self.survival.pin(jsn, &payload);
                }
            }
        }

        // Snapshot at the purge point → pseudo genesis.
        let snapshot = self.roots();
        let genesis_hash = pseudo_genesis_hash(&self.id, purge_to, &snapshot);

        // Record the purge journal (doubly linked with the pseudo genesis
        // through `purge_journal_jsn` below).
        let payload = genesis_hash.0.to_vec();
        let request_hash = sha256(&payload);
        let ack = self.append_journal(
            JournalKind::Purge { purge_to, approvals },
            Vec::new(),
            &payload,
            request_hash,
            None,
            None,
        )?;

        self.pseudo_genesis = Some(PseudoGenesis {
            purge_to,
            purge_journal_jsn: ack.jsn,
            snapshot,
            genesis_hash,
        });

        // Erase purged payloads (digest tombstones remain).
        for journal in self.journals().take(purge_to as usize) {
            self.store.erase(journal.stream_index)?;
        }
        // Optionally release fam node storage for fully purged epochs;
        // the trusted anchor aligns to the purge point, so retained
        // journals remain provable (§III-A2).
        if erase_fam_nodes {
            self.fam.erase_epochs_below(purge_to);
        }
        // Snapshot-served retrieval must honor the purge immediately.
        // The frozen fam keeps its (possibly just-erased) shared epochs
        // until the next seal refreezes — historical proofs stay
        // servable a little longer, which purge semantics permit (tx
        // hashes are retained tombstones).
        self.publish_snapshot();
        // An existing checkpoint now covers pre-purge state. It stays
        // valid for recovery (the WAL tail holds the purge journal, so
        // replay redoes the erasures and the pseudo genesis), but it
        // retains purged payload digests in its segments longer than
        // necessary — force a replacement at the next seal boundary.
        if let Some(policy) = &mut self.checkpoints {
            policy.seals_since = policy.every_n_seals;
        }
        Ok(ack)
    }

    /// The survival stream (milestones that outlive purges).
    pub fn survival(&self) -> &SurvivalStream {
        &self.survival
    }

    // ------------------------------------------------------------------
    // Occult (§III-A3)
    // ------------------------------------------------------------------

    /// The digest an occult approval multi-signature covers.
    pub fn occult_approval_digest(&self, target: u64) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ledgerdb.occult.approve.v1");
        h.update(&self.id.0);
        h.update(&target.to_be_bytes());
        Digest(h.finalize())
    }

    /// Occult journal `target`. Prerequisite 2: the multi-signature must
    /// carry the DBA and a regulator. The journal's tx-hash stays on the
    /// ledger (Protocol 2), so subsequent verification is unaffected.
    pub fn occult(
        &mut self,
        target: u64,
        approvals: MultiSignature,
        mode: OccultMode,
    ) -> Result<AppendAck, LedgerError> {
        let Some(retained) = self.tx_hash(target) else {
            return Err(LedgerError::UnknownJournal(target));
        };
        let mut required = self.registry.keys_with_role(Role::Dba);
        required.extend(self.registry.keys_with_role(Role::Regulator));
        let digest = self.occult_approval_digest(target);
        if required.is_empty() || !approvals.covers(&digest, &required) {
            return Err(LedgerError::InsufficientSignatures("occult (Prerequisite 2)"));
        }

        // Mark first: retrieval is blocked immediately.
        self.occult_index.mark(target);

        // Record the occult journal.
        let payload = retained.0.to_vec();
        let request_hash = sha256(&payload);
        let ack = self.append_journal(
            JournalKind::Occult { target, approvals },
            Vec::new(),
            &payload,
            request_hash,
            None,
            None,
        )?;

        if mode == OccultMode::Sync {
            let idx = self.journal(target).expect("checked above").stream_index;
            self.store.erase(idx)?;
        }
        // The mark must block snapshot-served retrieval immediately, not
        // at the next seal: republish with the fresh occult view (same
        // segments and fam — cheap Arc reuse).
        self.publish_snapshot();
        Ok(ack)
    }

    /// The digest an occult-by-clue approval multi-signature covers.
    pub fn occult_clue_approval_digest(&self, clue: &str) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ledgerdb.occultclue.approve.v1");
        h.update(&self.id.0);
        h.update(&(clue.len() as u64).to_be_bytes());
        h.update(clue.as_bytes());
        Digest(h.finalize())
    }

    /// Occult every journal recorded under `clue` (the common asynchronous
    /// case of §III-A3). Prerequisite 2 applies with a clue-level
    /// approval. Returns the recorded occult-clue journal's ack and the
    /// list of hidden jsns.
    pub fn occult_by_clue(
        &mut self,
        clue: &str,
        approvals: MultiSignature,
        mode: OccultMode,
    ) -> Result<(AppendAck, Vec<u64>), LedgerError> {
        let targets = self.list_tx(clue);
        if targets.is_empty() {
            return Err(LedgerError::Clue(ledgerdb_clue::ClueError::UnknownClue(
                clue.to_string(),
            )));
        }
        let mut required = self.registry.keys_with_role(Role::Dba);
        required.extend(self.registry.keys_with_role(Role::Regulator));
        let digest = self.occult_clue_approval_digest(clue);
        if required.is_empty() || !approvals.covers(&digest, &required) {
            return Err(LedgerError::InsufficientSignatures("occult-by-clue (Prerequisite 2)"));
        }
        for &t in &targets {
            self.occult_index.mark(t);
        }
        // Payload binds the hidden set's retained hashes.
        let mut h = Sha256::new();
        h.update(b"ledgerdb.occultclue.payload.v1");
        for &t in &targets {
            h.update(&self.tx_hash(t).expect("indexed jsn").0);
        }
        let payload = h.finalize().to_vec();
        let request_hash = sha256(&payload);
        let ack = self.append_journal(
            JournalKind::OccultClue {
                clue: clue.to_string(),
                targets: targets.clone(),
                approvals,
            },
            Vec::new(),
            &payload,
            request_hash,
            None,
            None,
        )?;
        if mode == OccultMode::Sync {
            for &t in &targets {
                let idx = self.journal(t).expect("indexed jsn").stream_index;
                self.store.erase(idx)?;
            }
        }
        // As in `occult`: the marks take effect on the snapshot path now.
        self.publish_snapshot();
        Ok((ack, targets))
    }

    /// Produce a world-state witness for `clue`: the latest payload
    /// digest recorded under it (inclusion), or a verifiable absence
    /// statement, proven against the current state root.
    pub fn prove_state(&self, clue: &str) -> StateProof {
        let proof = self.world_state.prove_kv(ledgerdb_clue::clue_key(clue).as_bytes());
        self.metrics.state_proof_bytes[self.state_backend() as usize]
            .observe(proof.to_wire().len() as u64);
        proof
    }

    /// Which commitment backend anchors this ledger's world state.
    pub fn state_backend(&self) -> StateBackend {
        self.world_state.backend()
    }

    /// Produce a clue proof restricted to lineage versions `[lo, hi)`
    /// (the §IV-C "verify within a range specified by version boundaries"
    /// scenario).
    pub fn prove_clue_range(&self, clue: &str, lo: u64, hi: u64) -> Result<ClueProof, LedgerError> {
        let jsns: Vec<u64> = self.cm_tree.jsns(clue).to_vec();
        Ok(self.cm_tree.prove_range(clue, lo, hi, |v| {
            jsns.get(v as usize).and_then(|&j| self.tx_hash(j))
        })?)
    }

    /// The data-reorganization utility: physically erase payloads of
    /// async-occulted journals up to the current journal count.
    pub fn reorganize(&mut self) -> Result<u64, LedgerError> {
        let to_erase = self.occult_index.reorganize(self.journal_count());
        let count = to_erase.len() as u64;
        for jsn in to_erase {
            let idx = self.journal(jsn).expect("marked jsns exist").stream_index;
            self.store.erase(idx)?;
        }
        Ok(count)
    }

    /// Is a journal occulted?
    pub fn is_occulted(&self, jsn: u64) -> bool {
        self.occult_index.is_marked(jsn)
    }

    /// The clock the ledger stamps journals with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The fam fractal height δ (needed to replay the accumulator in
    /// audits).
    pub fn fam_delta(&self) -> u32 {
        self.config.fam_delta
    }
}

/// The binding digest of a pseudo genesis (§III-A2): ledger id, purge
/// point and the root snapshot at that point.
pub(crate) fn pseudo_genesis_hash(id: &Digest, purge_to: u64, snapshot: &LedgerInfo) -> Digest {
    let mut h = Sha256::new();
    h.update(b"ledgerdb.pseudogenesis.v1");
    h.update(&id.0);
    h.update(&purge_to.to_be_bytes());
    h.update(&snapshot.journal_root.0);
    h.update(&snapshot.clue_root.0);
    h.update(&snapshot.state_root.0);
    Digest(h.finalize())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::verify;
    use ledgerdb_crypto::ca::CertificateAuthority;

    pub(crate) struct Fixture {
        #[allow(dead_code)]
        pub ca: CertificateAuthority,
        pub dba: KeyPair,
        pub regulator: KeyPair,
        pub alice: KeyPair,
        pub bob: KeyPair,
        pub ledger: LedgerDb,
    }

    pub(crate) fn fixture(block_size: u64) -> Fixture {
        let ca = CertificateAuthority::from_seed(b"ca");
        let dba = KeyPair::from_seed(b"dba");
        let regulator = KeyPair::from_seed(b"regulator");
        let alice = KeyPair::from_seed(b"alice");
        let bob = KeyPair::from_seed(b"bob");
        let mut registry = MemberRegistry::new(*ca.public_key());
        registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
        registry
            .register(ca.issue("regulator", Role::Regulator, regulator.public()))
            .unwrap();
        registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
        registry.register(ca.issue("bob", Role::User, bob.public())).unwrap();
        let config = LedgerConfig { block_size, fam_delta: 4, name: "test".into(), state_backend: Default::default() };
        let ledger = LedgerDb::new(config, registry);
        Fixture { ca, dba, regulator, alice, bob, ledger }
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
    fn append_and_retrieve() {
        let mut f = fixture(4);
        let ack = f.ledger.append(tx(&f.alice, b"hello", &["c1"], 0)).unwrap();
        assert_eq!(ack.jsn, 0);
        assert_eq!(f.ledger.get_payload(0).unwrap(), b"hello");
        assert_eq!(f.ledger.list_tx("c1"), vec![0]);
    }

    #[test]
    fn unregistered_member_rejected() {
        let mut f = fixture(4);
        let mallory = KeyPair::from_seed(b"mallory");
        let err = f.ledger.append(tx(&mallory, b"x", &[], 0)).unwrap_err();
        assert!(matches!(err, LedgerError::UnknownMember));
    }

    #[test]
    fn tampered_request_rejected() {
        // threat-A: the server detects in-flight payload tampering via π_c.
        let mut f = fixture(4);
        let mut req = tx(&f.alice, b"honest", &[], 0);
        req.payload = b"tampered".to_vec();
        assert!(matches!(
            f.ledger.append(req),
            Err(LedgerError::BadClientSignature)
        ));
    }

    #[test]
    fn receipts_issue_at_block_seal() {
        let mut f = fixture(2);
        let a = f.ledger.append(tx(&f.alice, b"1", &[], 0)).unwrap();
        assert!(f.ledger.receipt(a.jsn).unwrap().is_none());
        let b = f.ledger.append(tx(&f.bob, b"2", &[], 1)).unwrap();
        // Block of 2 sealed: both receipts available and valid.
        let ra = f.ledger.receipt(a.jsn).unwrap().unwrap();
        let rb = f.ledger.receipt(b.jsn).unwrap().unwrap();
        assert!(ra.verify());
        assert!(rb.verify());
        assert_eq!(ra.block_hash, rb.block_hash);
        assert_eq!(f.ledger.block_count(), 1);
    }

    #[test]
    fn append_committed_returns_receipt() {
        let mut f = fixture(100);
        let receipt = f.ledger.append_committed(tx(&f.alice, b"doc", &["n"], 0)).unwrap();
        assert!(receipt.verify());
        assert_eq!(receipt.jsn, 0);
    }

    #[test]
    fn existence_proof_client_side() {
        let mut f = fixture(4);
        for i in 0..40u64 {
            f.ledger.append(tx(&f.alice, &i.to_be_bytes(), &[], i)).unwrap();
        }
        let anchor = TrustedAnchor::default();
        for jsn in [0u64, 7, 20, 39] {
            let (tx_hash, proof) = f.ledger.prove_existence(jsn, &anchor).unwrap();
            verify::existence(&f.ledger.journal_root(), &anchor, &tx_hash, &proof)
                .unwrap();
            assert_eq!(f.ledger.tx_hash(jsn), Some(tx_hash));
        }
    }

    #[test]
    fn existence_proof_rejects_fake() {
        let mut f = fixture(4);
        for i in 0..10u64 {
            f.ledger.append(tx(&f.alice, &i.to_be_bytes(), &[], i)).unwrap();
        }
        let anchor = TrustedAnchor::default();
        let (_, proof) = f.ledger.prove_existence(3, &anchor).unwrap();
        let fake = sha256(b"foopar");
        assert!(verify::existence(&f.ledger.journal_root(), &anchor, &fake, &proof)
            .is_err());
    }

    #[test]
    fn clue_lineage_round_trip() {
        let mut f = fixture(4);
        for i in 0..3u64 {
            f.ledger
                .append(tx(&f.alice, format!("artwork v{i}").as_bytes(), &["DCI001"], i))
                .unwrap();
        }
        f.ledger.append(tx(&f.bob, b"unrelated", &["other"], 99)).unwrap();
        let proof = f.ledger.prove_clue("DCI001").unwrap();
        assert_eq!(proof.entries.len(), 3);
        verify::clue(&f.ledger.clue_root(), &proof).unwrap();
    }

    #[test]
    fn occult_blocks_retrieval_keeps_verifiability() {
        let mut f = fixture(4);
        for i in 0..6u64 {
            f.ledger.append(tx(&f.alice, &i.to_be_bytes(), &[], i)).unwrap();
        }
        let digest = f.ledger.occult_approval_digest(2);
        let mut ms = MultiSignature::new();
        ms.add(&f.dba, &digest);
        ms.add(&f.regulator, &digest);
        f.ledger.occult(2, ms, OccultMode::Sync).unwrap();

        // Retrieval blocked.
        assert!(matches!(f.ledger.get_tx(2), Err(LedgerError::Occulted(2))));
        assert!(f.ledger.is_occulted(2));
        // Existence verification still passes via the retained hash.
        let anchor = TrustedAnchor::default();
        let (tx_hash, proof) = f.ledger.prove_existence(2, &anchor).unwrap();
        verify::existence(&f.ledger.journal_root(), &anchor, &tx_hash, &proof)
            .unwrap();
    }

    #[test]
    fn occult_requires_regulator_and_dba() {
        let mut f = fixture(4);
        f.ledger.append(tx(&f.alice, b"p", &[], 0)).unwrap();
        let digest = f.ledger.occult_approval_digest(0);
        let mut ms = MultiSignature::new();
        ms.add(&f.dba, &digest); // Missing the regulator.
        assert!(matches!(
            f.ledger.occult(0, ms, OccultMode::Sync),
            Err(LedgerError::InsufficientSignatures(_))
        ));
    }

    #[test]
    fn async_occult_defers_erase() {
        let mut f = fixture(4);
        f.ledger.append(tx(&f.alice, b"sensitive", &[], 0)).unwrap();
        let digest = f.ledger.occult_approval_digest(0);
        let mut ms = MultiSignature::new();
        ms.add(&f.dba, &digest);
        ms.add(&f.regulator, &digest);
        f.ledger.occult(0, ms, OccultMode::Async).unwrap();
        // Marked (blocked) but payload still on disk until reorganization.
        assert!(matches!(f.ledger.get_tx(0), Err(LedgerError::Occulted(0))));
        assert!(!f.ledger.store.is_erased(0).unwrap());
        let erased = f.ledger.reorganize().unwrap();
        assert_eq!(erased, 1);
        assert!(f.ledger.store.is_erased(0).unwrap());
    }

    #[test]
    fn purge_requires_all_related_members() {
        let mut f = fixture(4);
        f.ledger.append(tx(&f.alice, b"a", &[], 0)).unwrap();
        f.ledger.append(tx(&f.bob, b"b", &[], 1)).unwrap();
        let digest = f.ledger.purge_approval_digest(2);
        let mut ms = MultiSignature::new();
        ms.add(&f.dba, &digest);
        ms.add(&f.alice, &digest); // Bob missing.
        assert!(matches!(
            f.ledger.purge(2, ms, &[], false),
            Err(LedgerError::InsufficientSignatures(_))
        ));
    }

    #[test]
    fn purge_erases_and_sets_pseudo_genesis() {
        let mut f = fixture(4);
        for i in 0..8u64 {
            f.ledger.append(tx(&f.alice, &i.to_be_bytes(), &["c"], i)).unwrap();
        }
        let digest = f.ledger.purge_approval_digest(4);
        let mut ms = MultiSignature::new();
        ms.add(&f.dba, &digest);
        ms.add(&f.alice, &digest);
        let ack = f.ledger.purge(4, ms, &[1], false).unwrap();

        let genesis = f.ledger.pseudo_genesis().unwrap();
        assert_eq!(genesis.purge_to, 4);
        assert_eq!(genesis.purge_journal_jsn, ack.jsn);
        // Purged journals unreadable; survivors pinned.
        assert!(matches!(f.ledger.get_tx(0), Err(LedgerError::Purged(0))));
        assert!(f.ledger.survival().contains(1));
        assert!(f.ledger.survival().verify(1).unwrap());
        // Later journals still readable and provable.
        assert!(f.ledger.get_tx(5).is_ok());
        let anchor = TrustedAnchor::default();
        let (tx_hash, proof) = f.ledger.prove_existence(5, &anchor).unwrap();
        verify::existence(&f.ledger.journal_root(), &anchor, &tx_hash, &proof)
            .unwrap();
    }

    #[test]
    fn purge_point_validation() {
        let mut f = fixture(4);
        f.ledger.append(tx(&f.alice, b"x", &[], 0)).unwrap();
        let digest = f.ledger.purge_approval_digest(0);
        let ms = {
            let mut m = MultiSignature::new();
            m.add(&f.dba, &digest);
            m
        };
        assert!(matches!(
            f.ledger.purge(0, ms.clone(), &[], false),
            Err(LedgerError::BadPurgePoint(0))
        ));
        assert!(matches!(
            f.ledger.purge(99, ms, &[], false),
            Err(LedgerError::BadPurgePoint(99))
        ));
    }

    #[test]
    fn occult_by_clue_hides_whole_lineage() {
        let mut f = fixture(4);
        for i in 0..9u64 {
            let clue = if i % 3 == 0 { "secret" } else { "public" };
            f.ledger.append(tx(&f.alice, &i.to_be_bytes(), &[clue], i)).unwrap();
        }
        let digest = f.ledger.occult_clue_approval_digest("secret");
        let mut ms = MultiSignature::new();
        ms.add(&f.dba, &digest);
        ms.add(&f.regulator, &digest);
        let (_, targets) = f.ledger.occult_by_clue("secret", ms, OccultMode::Sync).unwrap();
        assert_eq!(targets, vec![0, 3, 6]);
        for t in targets {
            assert!(matches!(f.ledger.get_tx(t), Err(LedgerError::Occulted(_))));
        }
        // Unrelated journals unaffected; ledger still audits and verifies.
        assert!(f.ledger.get_tx(1).is_ok());
        let anchor = TrustedAnchor::default();
        let (tx_hash, proof) = f.ledger.prove_existence(3, &anchor).unwrap();
        verify::existence(&f.ledger.journal_root(), &anchor, &tx_hash, &proof)
            .unwrap();
    }

    #[test]
    fn occult_by_clue_requires_prerequisite_2() {
        let mut f = fixture(4);
        f.ledger.append(tx(&f.alice, b"x", &["c"], 0)).unwrap();
        let digest = f.ledger.occult_clue_approval_digest("c");
        let mut ms = MultiSignature::new();
        ms.add(&f.regulator, &digest); // DBA missing.
        assert!(matches!(
            f.ledger.occult_by_clue("c", ms, OccultMode::Sync),
            Err(LedgerError::InsufficientSignatures(_))
        ));
        // Unknown clue errors.
        let digest = f.ledger.occult_clue_approval_digest("nope");
        let mut ms = MultiSignature::new();
        ms.add(&f.dba, &digest);
        ms.add(&f.regulator, &digest);
        assert!(f.ledger.occult_by_clue("nope", ms, OccultMode::Sync).is_err());
    }

    #[test]
    fn clue_range_proofs() {
        let mut f = fixture(4);
        for i in 0..10u64 {
            f.ledger.append(tx(&f.alice, &i.to_be_bytes(), &["asset"], i)).unwrap();
        }
        f.ledger.seal_block();
        let root = f.ledger.clue_root();
        let proof = f.ledger.prove_clue_range("asset", 3, 7).unwrap();
        assert_eq!(proof.entries.len(), 4);
        CmTree::verify_client(&root, &proof).unwrap();
        assert!(f.ledger.prove_clue_range("asset", 7, 3).is_err());
        assert!(f.ledger.prove_clue_range("asset", 0, 11).is_err());
    }

    #[test]
    fn world_state_proofs() {
        let mut f = fixture(4);
        f.ledger.append(tx(&f.alice, b"v1", &["acct"], 0)).unwrap();
        f.ledger.append(tx(&f.alice, b"v2", &["acct"], 1)).unwrap();
        let state_root = f.ledger.state_root();
        let proof = f.ledger.prove_state("acct");
        // The proven value is the *latest* payload digest.
        assert_eq!(proof.claimed_value(), Some(sha256(b"v2").0.as_slice()));
        let value = verify::verify_state_proof(&state_root, &proof).unwrap();
        assert_eq!(value, Some(sha256(b"v2").0.as_slice()));
        // Missing clues yield verifiable absence, not an error.
        let absent = f.ledger.prove_state("missing");
        assert_eq!(verify::verify_state_proof(&state_root, &absent).unwrap(), None);
    }

    #[test]
    fn state_proof_metrics_labeled_per_backend() {
        let registry = ledgerdb_telemetry::Registry::new();
        let mut f = fixture(4);
        f.ledger.bind_metrics(&registry);
        f.ledger.append(tx(&f.alice, b"v1", &["acct"], 0)).unwrap();
        let _ = f.ledger.prove_state("acct");

        let text = ledgerdb_telemetry::render(&registry);
        let label = f.ledger.state_backend();
        let bytes = ledgerdb_telemetry::parse_value(
            &text,
            &format!("ledger_proof_bytes_count{{backend=\"{label}\"}}"),
        );
        assert_eq!(bytes, Some(1.0), "proof size observed under the backend label");
        let size = ledgerdb_telemetry::parse_value(
            &text,
            &format!("ledger_proof_bytes_max{{backend=\"{label}\"}}"),
        )
        .unwrap();
        assert!(size > 0.0, "recorded size is the non-empty wire encoding");
    }

    #[test]
    fn purge_with_fam_erasure_keeps_recent_provable() {
        let mut f = fixture(4); // fam_delta = 4 → epochs of 16.
        for i in 0..40u64 {
            f.ledger.append(tx(&f.alice, &i.to_be_bytes(), &[], i)).unwrap();
        }
        let digest = f.ledger.purge_approval_digest(20);
        let mut ms = MultiSignature::new();
        ms.add(&f.dba, &digest);
        ms.add(&f.alice, &digest);
        f.ledger.purge(20, ms, &[], true).unwrap();

        // Recent journals verify client-side even with erased early epochs.
        let anchor = f.ledger.anchor();
        for jsn in 20..40u64 {
            let (tx_hash, proof) = f.ledger.prove_existence(jsn, &anchor).unwrap();
            verify::existence(&f.ledger.journal_root(), &anchor, &tx_hash, &proof)
                .unwrap();
        }
        // Early journals in fully erased epochs are gone from the fam.
        assert!(f.ledger.prove_existence(0, &anchor).is_err());
    }

    #[test]
    fn world_state_tracks_latest_clue_payload() {
        let mut f = fixture(4);
        f.ledger.append(tx(&f.alice, b"v1", &["k"], 0)).unwrap();
        let r1 = f.ledger.state_root();
        f.ledger.append(tx(&f.alice, b"v2", &["k"], 1)).unwrap();
        let r2 = f.ledger.state_root();
        assert_ne!(r1, r2);
    }
}
