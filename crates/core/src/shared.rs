//! A thread-safe ledger front-end.
//!
//! LedgerDB's deployment serves many concurrent clients through proxy
//! fleets (Fig 1). [`SharedLedger`] is the in-process equivalent: an
//! `Arc<RwLock<LedgerDb>>` with a deliberately narrow API — writers take
//! the lock briefly for appends/seals, while reads over the **sealed
//! prefix** are served lock-free from the current [`ReadSnapshot`]
//! (published on every seal; see [`crate::snapshot`]). Queries for a
//! jsn in the unsealed tail fall back to the shared read lock, as do
//! the CM-Tree and world-state reads (`ListTx`, clue and state proofs),
//! which snapshots summarize only by root. So proof serving does not
//! stall behind a writer holding the lock across an fsync.

use crate::fanout;
use crate::ledger::{AppendAck, LedgerDb, OccultMode, PreparedTx};
use crate::snapshot::{ReadSnapshot, SnapshotHub};
use crate::state::{StateBackend, StateProof};
use crate::types::{Admission, Block, Journal, Receipt, TxRequest};
use crate::LedgerError;
use ledgerdb_accumulator::fam::{FamProof, TrustedAnchor};
use ledgerdb_clue::cm_tree::ClueProof;
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::keys::PublicKey;
use ledgerdb_crypto::multisig::MultiSignature;
use ledgerdb_crypto::sync::RwLock;
use ledgerdb_telemetry::trace::StageSpan;
use std::sync::Arc;

/// A cloneable, thread-safe handle to one ledger.
#[derive(Clone)]
pub struct SharedLedger {
    inner: Arc<RwLock<LedgerDb>>,
    hub: Arc<SnapshotHub>,
}

impl SharedLedger {
    /// Wrap a ledger for shared use. Installs the snapshot publication
    /// hub: the sealed prefix existing right now (e.g. after recovery)
    /// becomes the initial snapshot, and every subsequent seal, occult
    /// and purge republishes.
    pub fn new(mut ledger: LedgerDb) -> Self {
        let hub = ledger.install_snapshot_hub();
        SharedLedger { inner: Arc::new(RwLock::new(ledger)), hub }
    }

    /// The current read snapshot (one `Arc` clone; never the ledger
    /// lock). Proofs produced from it verify against
    /// [`ReadSnapshot::info`] — the `LedgerInfo` the snapshot names.
    pub fn snapshot(&self) -> Arc<ReadSnapshot> {
        self.hub.load()
    }

    /// Load the current snapshot if the sealed prefix covers `jsn`;
    /// counts the hit/fallback either way.
    fn snap_covering(&self, jsn: u64) -> Option<Arc<ReadSnapshot>> {
        let snap = self.hub.load();
        if snap.covers(jsn) {
            self.hub.note_hit(&snap);
            Some(snap)
        } else {
            self.hub.note_fallback(&snap);
            None
        }
    }

    /// Append a fully verified client transaction.
    pub fn append(&self, request: TxRequest) -> Result<AppendAck, LedgerError> {
        self.inner.write().append(request)
    }

    /// Append and seal immediately, returning the receipt.
    pub fn append_committed(&self, request: TxRequest) -> Result<Receipt, LedgerError> {
        self.inner.write().append_committed(request)
    }

    /// Group-commit append — the one batched way in.
    ///
    /// Every request is prepared **before** the write lock is taken:
    /// admission per `admission` (membership + π_c against the
    /// lock-free snapshot registry under [`Admission::Verify`]; nothing
    /// under [`Admission::ProxyTrusted`], where π_c was checked
    /// upstream), then digest precompute ([`PreparedTx::compute`]). The
    /// ECDSA admission fans out across the cores (a panicking item
    /// surfaces as a typed per-item [`LedgerError::TaskFailed`], its
    /// siblings commit normally); the digests run inline. The lock is
    /// then taken once, for structural inserts plus one WAL write
    /// ([`LedgerDb::append_batch_prepared`], which also enforces
    /// membership under both admissions).
    ///
    /// Results are positional: rejected items report their error in
    /// place and consume neither a jsn nor a payload slot, and jsn
    /// assignment is done under the lock in request order.
    pub fn append_batch(
        &self,
        requests: Vec<TxRequest>,
        admission: Admission,
    ) -> Result<Vec<Result<AppendAck, LedgerError>>, LedgerError> {
        let precompute = StageSpan::begin("precompute");
        let prepared: Vec<Result<PreparedTx, LedgerError>> = match admission {
            Admission::Verify => fanout::try_map(&requests, |r| {
                let _span = StageSpan::begin("admission_task");
                self.verify_request(r)
            })
            .into_iter()
            .zip(requests)
            .map(|(admitted, request)| admitted.map(|()| PreparedTx::compute(request)))
            .collect(),
            Admission::ProxyTrusted => {
                requests.into_iter().map(|request| Ok(PreparedTx::compute(request))).collect()
            }
        };
        drop(precompute);
        let _locked = StageSpan::begin("locked_insert");
        self.inner.write().append_batch_prepared(prepared)
    }

    /// Admission check (membership + π_c), served lock-free from the
    /// snapshot's frozen registry view: many client threads verify in
    /// parallel without even a read lock. A member unknown to the
    /// snapshot (registered after the last publish) falls back to the
    /// live registry under the read lock before being rejected.
    pub fn verify_request(&self, request: &TxRequest) -> Result<(), LedgerError> {
        let snap = self.hub.load();
        match snap.registry().admit(request) {
            Err(LedgerError::UnknownMember) => {
                self.hub.note_fallback(&snap);
                self.inner.read().registry().admit(request)
            }
            verdict => {
                self.hub.note_hit(&snap);
                verdict
            }
        }
    }

    /// Seal the pending block. Infallible: a WAL failure is stashed as
    /// the sticky durability error — use [`SharedLedger::try_seal_block`]
    /// (or check [`SharedLedger::take_durability_error`]) on paths that
    /// must not miss it.
    pub fn seal_block(&self) {
        self.inner.write().seal_block();
    }

    /// Seal the pending block, reporting WAL failures instead of
    /// stashing them. On error the journals stay pending and the seal
    /// can be retried.
    pub fn try_seal_block(&self) -> Result<(), LedgerError> {
        self.inner.write().try_seal_block()
    }

    /// Take (and clear) a durability failure stashed by an infallible
    /// path (the auto-seal inside the append hot path). Service-layer
    /// callers poll this so a stashed error is surfaced promptly rather
    /// than only on the next fallible write.
    pub fn take_durability_error(&self) -> Option<LedgerError> {
        self.inner.write().take_durability_error()
    }

    /// Flush both durable streams — the group-commit barrier.
    pub fn sync_durable(&self) -> Result<(), LedgerError> {
        self.inner.read().sync_durable()
    }

    /// True when a checkpoint policy is enabled on the wrapped ledger.
    pub fn checkpoints_enabled(&self) -> bool {
        self.inner.read().checkpoint_store().is_some()
    }

    /// Coverage of the newest committed checkpoint as
    /// `(journal_count, block_count)`; `None` without one.
    pub fn checkpoint_watermark(&self) -> Option<(u64, u64)> {
        self.inner.read().checkpoint_watermark()
    }

    /// Snapshot id of the newest committed checkpoint; `None` without a
    /// policy or before the first commit.
    pub fn checkpoint_snapshot_id(&self) -> Option<Digest> {
        self.inner.read().checkpoint_snapshot_id()
    }

    /// Seals committed since the last checkpoint (the policy's trigger
    /// counter); `None` without a policy.
    pub fn checkpoint_seals_since(&self) -> Option<u64> {
        self.inner.read().checkpoint_seals_since()
    }

    /// Snapshot read-path counters as `(hits, fallbacks)`: reads served
    /// lock-free from the published snapshot vs. reads that had to take
    /// the ledger lock (the unsealed tail).
    pub fn snapshot_read_counts(&self) -> (u64, u64) {
        let inner = self.inner.read();
        (
            inner.metrics.snapshot_hits.get(),
            inner.metrics.snapshot_fallbacks.get(),
        )
    }

    /// Drain-path checkpoint: commit a final checkpoint (no-op without
    /// a policy or mid-block) so the next start replays only the
    /// unsealed tail. Taking the write lock doubles as the completion
    /// barrier for any checkpoint already in flight on the seal path.
    /// A failure is stashed as the sticky durability error (gauge up)
    /// rather than returned — the WAL already holds everything; the
    /// next start just replays a longer tail.
    pub fn checkpoint_on_drain(&self) -> Option<Digest> {
        let mut ledger = self.inner.write();
        match ledger.checkpoint_now() {
            Ok(id) => id,
            Err(e) => {
                ledger.stash_durability_error(e);
                None
            }
        }
    }

    /// Current journal count.
    pub fn journal_count(&self) -> u64 {
        self.inner.read().journal_count()
    }

    /// Current fam root.
    pub fn journal_root(&self) -> Digest {
        self.inner.read().journal_root()
    }

    /// Current CM-Tree root.
    pub fn clue_root(&self) -> Digest {
        self.inner.read().clue_root()
    }

    /// Snapshot a trusted anchor. Anchors are append-only trust records
    /// (sealed epoch roots never change), so the snapshot's — captured
    /// at its publish point — is always valid, at worst covering a few
    /// epochs fewer than the live fam.
    pub fn anchor(&self) -> TrustedAnchor {
        let snap = self.hub.load();
        self.hub.note_hit(&snap);
        snap.anchor().clone()
    }

    /// Sealed block count.
    pub fn block_count(&self) -> u64 {
        self.inner.read().block_count()
    }

    /// The ledger's identity digest (immutable — served lock-free).
    pub fn id(&self) -> Digest {
        self.hub.load().id()
    }

    /// The LSP public key (immutable — served lock-free).
    pub fn lsp_public_key(&self) -> PublicKey {
        *self.hub.load().lsp_public_key()
    }

    /// The fam fractal height δ (immutable — served lock-free; a
    /// distrusting client must replay with the same value).
    pub fn fam_delta(&self) -> u32 {
        self.hub.load().fam_delta()
    }

    /// Clone sealed blocks `[from_height, from_height + max)` — the
    /// block-download feed a distrusting client syncs from. Blocks only
    /// exist sealed, so the snapshot always serves this.
    pub fn blocks_from(&self, from_height: u64, max: u64) -> Vec<Block> {
        let snap = self.hub.load();
        self.hub.note_hit(&snap);
        snap.blocks_from(from_height, max)
    }

    /// Fetch a journal record plus its payload (None when erased).
    /// Occulted and purged journals error exactly as [`LedgerDb::get_tx`];
    /// sealed journals are served from the snapshot without the lock.
    pub fn get_tx(&self, jsn: u64) -> Result<(Journal, Option<Vec<u8>>), LedgerError> {
        if let Some(snap) = self.snap_covering(jsn) {
            let journal = snap.get_tx(jsn)?.clone();
            let payload = snap.get_payload(jsn).ok();
            return Ok((journal, payload));
        }
        let inner = self.inner.read();
        let journal = inner.get_tx(jsn)?.clone();
        let payload = inner.get_payload(jsn).ok();
        Ok((journal, payload))
    }

    /// Fetch a receipt (signed on demand). Sealed journals sign against
    /// the snapshot — byte-identical to the locked path (deterministic
    /// ECDSA over identical block data).
    pub fn receipt(&self, jsn: u64) -> Result<Option<Receipt>, LedgerError> {
        if let Some(snap) = self.snap_covering(jsn) {
            return snap.receipt(jsn);
        }
        self.inner.read().receipt(jsn)
    }

    /// Produce an existence proof. Proofs over the sealed prefix come
    /// from the snapshot's frozen fam and verify against the snapshot's
    /// `LedgerInfo`; unsealed-tail jsns fall back to the locked path.
    pub fn prove_existence(
        &self,
        jsn: u64,
        anchor: &TrustedAnchor,
    ) -> Result<(Digest, FamProof), LedgerError> {
        let snap = self.hub.load();
        if snap.covers(jsn) && snap.can_prove() {
            self.hub.note_hit(&snap);
            return snap.prove_existence(jsn, anchor);
        }
        self.hub.note_fallback(&snap);
        self.inner.read().prove_existence(jsn, anchor)
    }

    /// Batched [`SharedLedger::prove_existence`] with *hoisted*
    /// resolution: the snapshot is loaded and checked once for the
    /// whole batch, and on the fallback the read lock is acquired once
    /// — the per-item closure no longer re-resolves either. A batch
    /// fully covered by a provable snapshot is served lock-free and
    /// inline: a snapshot proof only reads stored digests. Results are
    /// positional.
    pub fn prove_existence_batch(
        &self,
        jsns: &[u64],
        anchor: &TrustedAnchor,
    ) -> Vec<Result<(Digest, FamProof), LedgerError>> {
        let snap = self.hub.load();
        if snap.can_prove() && jsns.iter().all(|&jsn| snap.covers(jsn)) {
            self.hub.note_hit(&snap);
            return jsns.iter().map(|&jsn| snap.prove_existence(jsn, anchor)).collect();
        }
        self.hub.note_fallback(&snap);
        let inner = self.inner.read();
        jsns.iter().map(|&jsn| inner.prove_existence(jsn, anchor)).collect()
    }

    /// A journal's tx-hash — what its block commits to. Sealed jsns are
    /// served from the snapshot; the unsealed tail falls back to the
    /// locked path. This is all `Request::Verify` (§II-C's server
    /// manner) compares against.
    pub fn tx_hash(&self, jsn: u64) -> Result<Digest, LedgerError> {
        let hash = match self.snap_covering(jsn) {
            Some(snap) => snap.tx_hash(jsn),
            None => self.inner.read().tx_hash(jsn),
        };
        hash.ok_or(LedgerError::UnknownJournal(jsn))
    }

    /// Produce a clue proof (always locked: CM-Tree proofs need the
    /// live MPT and per-clue accumulators, which snapshots summarize
    /// only by root).
    pub fn prove_clue(&self, clue: &str) -> Result<ClueProof, LedgerError> {
        self.inner.read().prove_clue(clue)
    }

    /// Produce a state-commitment proof for a clue: inclusion when the
    /// clue has a committed latest-payload digest, verifiable absence
    /// otherwise. Always locked — the world state lives only on the
    /// live ledger; snapshots summarize it by root.
    pub fn prove_state(&self, clue: &str) -> StateProof {
        self.inner.read().prove_state(clue)
    }

    /// The current state-commitment root.
    pub fn state_root(&self) -> Digest {
        self.inner.read().state_root()
    }

    /// The state-commitment backend this ledger was configured with.
    pub fn state_backend(&self) -> StateBackend {
        self.inner.read().state_backend()
    }

    /// List a clue's jsns, sealed and unsealed: one lookup in the
    /// CM-Tree's jsn references, under the read lock like
    /// [`SharedLedger::prove_clue`].
    pub fn list_tx(&self, clue: &str) -> Vec<u64> {
        self.inner.read().list_tx(clue)
    }

    /// Occult a journal.
    pub fn occult(
        &self,
        target: u64,
        approvals: MultiSignature,
        mode: OccultMode,
    ) -> Result<AppendAck, LedgerError> {
        self.inner.write().occult(target, approvals, mode)
    }

    /// Run a closure under the read lock (bulk verification, audits).
    pub fn with_read<T>(&self, f: impl FnOnce(&LedgerDb) -> T) -> T {
        f(&self.inner.read())
    }

    /// Run a closure under the write lock (migrations, purge flows).
    pub fn with_write<T>(&self, f: impl FnOnce(&mut LedgerDb) -> T) -> T {
        f(&mut self.inner.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{audit_ledger, AuditConfig};
    use crate::ledger::tests::fixture;

    #[test]
    fn concurrent_appends_are_serialized() {
        let f = fixture(16);
        let alice = f.alice.clone();
        let shared = SharedLedger::new(f.ledger);
        // Pre-sign requests (client-side work) outside the threads.
        let requests: Vec<Vec<TxRequest>> = (0..4)
            .map(|t| {
                (0..25u64)
                    .map(|i| {
                        TxRequest::signed(
                            &alice,
                            format!("t{t}-{i}").into_bytes(),
                            vec![format!("thread-{t}")],
                            t * 1000 + i,
                        )
                    })
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            for batch in requests {
                let handle = shared.clone();
                scope.spawn(move || {
                    for req in batch {
                        handle.append(req).unwrap();
                    }
                });
            }
        });
        shared.seal_block();
        assert_eq!(shared.journal_count(), 100);
        // Every thread's lineage is complete.
        for t in 0..4 {
            assert_eq!(shared.list_tx(&format!("thread-{t}")).len(), 25);
        }
        // The interleaved ledger still audits green.
        shared.with_read(|ledger| {
            audit_ledger(ledger, &AuditConfig::default()).unwrap();
        });
    }

    #[test]
    fn readers_verify_while_writer_appends() {
        let f = fixture(8);
        let alice = f.alice.clone();
        let shared = SharedLedger::new(f.ledger);
        for i in 0..32u64 {
            let req = TxRequest::signed(&alice, vec![i as u8], vec!["c".into()], i);
            shared.append(req).unwrap();
        }
        shared.seal_block();

        let writer_reqs: Vec<TxRequest> = (100..140u64)
            .map(|i| TxRequest::signed(&alice, vec![i as u8], vec!["c".into()], i))
            .collect();
        std::thread::scope(|scope| {
            let w = shared.clone();
            scope.spawn(move || {
                for req in writer_reqs {
                    w.append(req).unwrap();
                }
                w.seal_block();
            });
            for _ in 0..3 {
                let r = shared.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        // The root may move between calls, so only the
                        // server manner is asserted: the proven tx-hash
                        // is the one the ledger holds for jsn 5.
                        let anchor = r.anchor();
                        let (tx_hash, _) = r.prove_existence(5, &anchor).unwrap();
                        assert_eq!(r.tx_hash(5).unwrap(), tx_hash);
                    }
                });
            }
        });
        assert_eq!(shared.journal_count(), 72);
    }

    #[test]
    fn scrapes_race_concurrent_appends_without_blocking() {
        let f = fixture(16);
        let alice = f.alice.clone();
        let registry = std::sync::Arc::new(ledgerdb_telemetry::Registry::new());
        let mut ledger = f.ledger;
        ledger.bind_metrics(&registry);
        let shared = SharedLedger::new(ledger);
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let handle = shared.clone();
                let alice = alice.clone();
                scope.spawn(move || {
                    for i in 0..40u64 {
                        let req = TxRequest::signed(
                            &alice,
                            format!("scrape-{t}-{i}").into_bytes(),
                            vec![],
                            t * 1000 + i,
                        );
                        handle.append(req).unwrap();
                    }
                });
            }
            // Scrapers render the exposition while the writers append;
            // the registry walk takes no lock, so neither side can
            // block the other or observe a torn registry.
            for _ in 0..2 {
                let registry = registry.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let text = ledgerdb_telemetry::render(&registry);
                        if let Some(n) =
                            ledgerdb_telemetry::parse_value(&text, "ledger_appends_total")
                        {
                            assert!((0.0..=80.0).contains(&n), "impossible count {n}");
                        }
                    }
                });
            }
        });
        let text = ledgerdb_telemetry::render(&registry);
        assert_eq!(
            ledgerdb_telemetry::parse_value(&text, "ledger_appends_total"),
            Some(80.0),
            "all appends visible once the writers join:\n{text}"
        );
        assert_eq!(
            ledgerdb_telemetry::parse_value(&text, "ledger_append_seconds_count"),
            Some(80.0)
        );
        assert_eq!(shared.journal_count(), 80);
    }

    #[test]
    fn snapshot_proofs_verify_against_the_info_they_name() {
        let f = fixture(8);
        let alice = f.alice.clone();
        let shared = SharedLedger::new(f.ledger);
        for i in 0..24u64 {
            shared
                .append(TxRequest::signed(&alice, vec![i as u8], vec!["c".into()], i))
                .unwrap();
        }
        let snap = shared.snapshot();
        assert_eq!(snap.journal_count(), 24);
        assert_eq!(snap.journal_root(), snap.info().journal_root);
        // Proofs produced from the snapshot verify against the snapshot's
        // own LedgerInfo even after the live ledger moves on.
        for i in 24..40u64 {
            shared
                .append(TxRequest::signed(&alice, vec![i as u8], vec![], i))
                .unwrap();
        }
        let anchor = TrustedAnchor::default();
        for jsn in [0u64, 7, 15, 23] {
            let (tx_hash, proof) = snap.prove_existence(jsn, &anchor).unwrap();
            ledgerdb_accumulator::fam::FamTree::verify(
                &snap.info().journal_root,
                &anchor,
                &tx_hash,
                &proof,
            )
            .unwrap();
        }
    }

    #[test]
    fn unsealed_tail_falls_back_to_the_locked_path() {
        let f = fixture(8);
        let alice = f.alice.clone();
        let registry = std::sync::Arc::new(ledgerdb_telemetry::Registry::new());
        let mut ledger = f.ledger;
        ledger.bind_metrics(&registry);
        let shared = SharedLedger::new(ledger);
        for i in 0..10u64 {
            shared
                .append(TxRequest::signed(&alice, vec![i as u8], vec!["c".into()], i))
                .unwrap();
        }
        // 8 sealed, 2 unsealed. Sealed jsns hit the snapshot; the tail
        // falls back but stays fully readable.
        assert!(shared.get_tx(3).is_ok());
        assert!(shared.get_tx(9).is_ok());
        assert!(shared.receipt(9).unwrap().is_none(), "tail journal has no receipt yet");
        assert!(shared.prove_existence(9, &TrustedAnchor::default()).is_ok());
        // ListTx sees the tail journals too.
        assert_eq!(shared.list_tx("c").len(), 10);
        let text = ledgerdb_telemetry::render(&registry);
        let hits = ledgerdb_telemetry::parse_value(&text, "ledger_snapshot_hit_total").unwrap();
        let falls =
            ledgerdb_telemetry::parse_value(&text, "ledger_snapshot_fallback_total").unwrap();
        assert!(hits >= 1.0, "sealed reads should hit the snapshot:\n{text}");
        assert!(falls >= 3.0, "tail reads should fall back:\n{text}");
        // The locked path, reached directly, gives the same answers.
        shared.with_read(|l| {
            assert!(l.get_tx(3).is_ok());
            assert_eq!(l.list_tx("c").len(), 10);
        });
    }

    #[test]
    fn occult_republishes_the_snapshot_immediately() {
        use ledgerdb_crypto::multisig::MultiSignature;
        let f = fixture(4);
        let alice = f.alice.clone();
        let (dba, regulator) = (f.dba.clone(), f.regulator.clone());
        let shared = SharedLedger::new(f.ledger);
        for i in 0..8u64 {
            shared
                .append(TxRequest::signed(&alice, vec![i as u8], vec![], i))
                .unwrap();
        }
        assert!(shared.get_tx(2).is_ok());
        let digest = shared.with_read(|l| l.occult_approval_digest(2));
        let mut ms = MultiSignature::new();
        ms.add(&dba, &digest);
        ms.add(&regulator, &digest);
        shared.occult(2, ms, OccultMode::Async).unwrap();
        // The snapshot path (no lock) must already see the mark, even
        // though no block sealed since.
        let snap = shared.snapshot();
        assert!(snap.is_occulted(2));
        assert!(matches!(shared.get_tx(2), Err(LedgerError::Occulted(2))));
        // Verification is unaffected (retained tx-hash, Protocol 2).
        let anchor = TrustedAnchor::default();
        let (tx_hash, proof) = snap.prove_existence(2, &anchor).unwrap();
        crate::verify::existence(&snap.journal_root(), &anchor, &tx_hash, &proof).unwrap();
    }

    #[test]
    fn append_batch_interleaves_rejections_without_slots() {
        use ledgerdb_crypto::keys::KeyPair;
        let f = fixture(4);
        let mallory = KeyPair::from_seed(b"mallory");
        let mut tampered = TxRequest::signed(&f.alice, b"honest".to_vec(), vec![], 2);
        tampered.payload = b"tampered".to_vec();
        let batch = vec![
            TxRequest::signed(&f.alice, b"b0".to_vec(), vec!["c".into()], 0),
            TxRequest::signed(&mallory, b"evil".to_vec(), vec![], 1),
            tampered,
            TxRequest::signed(&f.bob, b"b3".to_vec(), vec!["c".into()], 3),
        ];
        let shared = SharedLedger::new(f.ledger);
        let results = shared.append_batch(batch, Admission::Verify).unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].as_ref().unwrap().jsn, 0);
        assert!(matches!(results[1], Err(LedgerError::UnknownMember)));
        assert!(matches!(results[2], Err(LedgerError::BadClientSignature)));
        assert_eq!(results[3].as_ref().unwrap().jsn, 1);
        // Rejected requests consumed no payload slots.
        assert_eq!(shared.journal_count(), 2);
        assert_eq!(shared.get_tx(1).unwrap().1.unwrap(), b"b3");
        assert_eq!(shared.list_tx("c"), vec![0, 1]);
    }

    #[test]
    fn append_batch_auto_seals_and_matches_sequential_roots() {
        let seq = fixture(4);
        let bat = fixture(4);
        let reqs: Vec<TxRequest> = (0..10u64)
            .map(|i| TxRequest::signed(&seq.alice, i.to_be_bytes().to_vec(), vec!["c".into()], i))
            .collect();
        let mut seq = seq.ledger;
        for r in reqs.clone() {
            seq.append(r).unwrap();
        }
        let bat = SharedLedger::new(bat.ledger);
        let results = bat.append_batch(reqs, Admission::Verify).unwrap();
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(bat.journal_count(), 10);
        assert_eq!(bat.block_count(), 2, "auto-seal fired inside the batch");
        assert_eq!(bat.journal_root(), seq.journal_root());
        assert_eq!(bat.clue_root(), seq.clue_root());
        assert_eq!(bat.state_root(), seq.state_root());
        // Receipts from the sealed prefix verify.
        let receipt = bat.receipt(3).unwrap().unwrap();
        assert!(receipt.verify());
    }

    #[test]
    fn handles_share_state() {
        let f = fixture(4);
        let alice = f.alice.clone();
        let a = SharedLedger::new(f.ledger);
        let b = a.clone();
        a.append(TxRequest::signed(&alice, b"x".to_vec(), vec![], 0)).unwrap();
        assert_eq!(b.journal_count(), 1);
    }
}
