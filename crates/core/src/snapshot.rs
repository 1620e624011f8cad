//! The lock-free snapshot read path, and the sealed segments it shares
//! with the kernel.
//!
//! The sealed prefix of the ledger is immutable by construction: sealed
//! blocks never change, sealed fam epochs never mutate, and a journal's
//! tx-hash is fixed at append time. [`ReadSnapshot`] captures exactly
//! that prefix — the kernel's sealed segments, a frozen fam, the CM-Tree
//! root, the member registry view, and the occult/purge state — so
//! `GetProof`, `Verify`, `GetTx` and admission checks can be served
//! without touching the `RwLock<LedgerDb>` that a writer may be holding
//! across an fsync.
//!
//! Lifecycle:
//!
//! * **Publish on seal** — [`crate::LedgerDb::try_seal_block`] publishes
//!   a fresh snapshot the instant a block seals, while the write lock is
//!   still held. At that point the unsealed tail is empty, so the frozen
//!   fam covers exactly the sealed journals and its root equals the new
//!   block's `LedgerInfo::journal_root` — the snapshot is internally
//!   consistent with the `LedgerInfo` it names, by construction.
//! * **Republish on occult/purge** — occulting marks a journal before
//!   the occult journal is appended; the mark must block retrieval
//!   immediately, so `occult`/`occult_by_clue`/`purge` republish with a
//!   fresh occult/purge view over the *same* segments and fam (cheap:
//!   Arc clones plus one bitmap copy).
//! * **Unsealed-tail fallback** — a query for a jsn not yet sealed falls
//!   back to the locked path; hit/fallback counters record which way
//!   each read went.
//!
//! The kernel owns the segments: each is one sealed block plus its
//! journals behind an `Arc`, built once at seal (or replay, or
//! checkpoint install) and never copied. A publish clones one pointer
//! per block. The read functions over `&[Arc<SealedSegment>]` below are
//! the only implementation of sealed lookups and receipts; the kernel
//! adds only its unsealed tail.

use crate::ledger::LedgerDb;
use crate::member::MemberRegistry;
use crate::metrics::CoreMetrics;
use crate::types::{Block, Journal, LedgerInfo, Receipt};
use crate::LedgerError;
use ledgerdb_accumulator::fam::{FamProof, FamTree, TrustedAnchor};
use ledgerdb_clue::cm_tree::CmRoot;
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::keys::{KeyPair, PublicKey};
use ledgerdb_crypto::sync::ArcCell;
use ledgerdb_storage::occult_index::OccultBits;
use ledgerdb_storage::stream::StreamStore;
use std::sync::Arc;
use std::time::Instant;

/// One sealed block and its journals — the kernel's storage for sealed
/// history, shared with every snapshot by `Arc`.
pub struct SealedSegment {
    /// The sealed block header (carries the `LedgerInfo` and tx-hashes).
    pub block: Block,
    /// The block's journals, indexed by `jsn - block.first_jsn`.
    pub journals: Vec<Journal>,
}

impl SealedSegment {
    /// The one constructor: the seal, WAL replay and checkpoint install
    /// all build segments here. Primes the block's hash memo, so every
    /// later chain link, receipt and snapshot read is a cache hit.
    pub(crate) fn new(block: Block, journals: Vec<Journal>) -> Arc<SealedSegment> {
        debug_assert_eq!(block.journal_count, journals.len() as u64);
        block.hash();
        Arc::new(SealedSegment { block, journals })
    }

    /// One past the last jsn this segment holds.
    fn end_jsn(&self) -> u64 {
        self.block.first_jsn + self.block.journal_count
    }
}

/// Journals covered by `sealed`.
pub(crate) fn sealed_count(sealed: &[Arc<SealedSegment>]) -> u64 {
    sealed.last().map_or(0, |s| s.end_jsn())
}

/// The segment holding `jsn`, if it is sealed.
fn segment_for(sealed: &[Arc<SealedSegment>], jsn: u64) -> Option<&SealedSegment> {
    let idx = sealed.partition_point(|s| s.end_jsn() <= jsn);
    sealed.get(idx).map(Arc::as_ref)
}

/// A sealed journal record.
pub(crate) fn sealed_journal(sealed: &[Arc<SealedSegment>], jsn: u64) -> Option<&Journal> {
    segment_for(sealed, jsn).map(|s| &s.journals[(jsn - s.block.first_jsn) as usize])
}

/// A sealed journal's tx-hash, as its block committed to it.
pub(crate) fn sealed_tx_hash(sealed: &[Arc<SealedSegment>], jsn: u64) -> Option<Digest> {
    segment_for(sealed, jsn).map(|s| s.block.tx_hashes[(jsn - s.block.first_jsn) as usize])
}

/// The receipt π_s for a sealed journal, LSP-signed on demand; `None`
/// when `jsn` is not sealed.
///
/// Deterministic ECDSA makes repeated calls return byte-identical
/// receipts, and the append hot path stays free of signing work (the
/// proxy tier hands receipts to clients after block commitment, Fig 1).
pub(crate) fn sealed_receipt(
    sealed: &[Arc<SealedSegment>],
    lsp_keys: &KeyPair,
    jsn: u64,
) -> Option<Receipt> {
    let segment = segment_for(sealed, jsn)?;
    let offset = (jsn - segment.block.first_jsn) as usize;
    let journal = &segment.journals[offset];
    let tx_hash = segment.block.tx_hashes[offset];
    let block_hash = segment.block.hash();
    let msg = Receipt::signing_digest(
        jsn,
        &journal.request_hash,
        &tx_hash,
        &block_hash,
        journal.timestamp,
    );
    Some(Receipt {
        jsn,
        request_hash: journal.request_hash,
        tx_hash,
        block_hash,
        timestamp: journal.timestamp,
        lsp_pk: *lsp_keys.public(),
        signature: lsp_keys.sign(&msg),
    })
}

/// The retrieval gate of `GetTx` (§III-A2/3): occulted and purged
/// journals are not served, whichever path answers.
pub(crate) fn check_retrievable(jsn: u64, occulted: bool, purge_to: u64) -> Result<(), LedgerError> {
    if occulted {
        return Err(LedgerError::Occulted(jsn));
    }
    if jsn < purge_to {
        return Err(LedgerError::Purged(jsn));
    }
    Ok(())
}

/// An immutable, internally consistent view of the sealed ledger prefix.
///
/// Everything a snapshot answers is answered *as of* the last seal (or
/// the last occult/purge republish for the retrieval-blocking state):
/// proofs produced here verify against [`ReadSnapshot::info`], the
/// `LedgerInfo` of the newest sealed block — never against a root that
/// is mid-mutation.
pub struct ReadSnapshot {
    seq: u64,
    published: Instant,
    id: Digest,
    fam_delta: u32,
    lsp_keys: KeyPair,
    registry: MemberRegistry,
    segments: Vec<Arc<SealedSegment>>,
    /// Frozen fam covering exactly the sealed journals. `None` when the
    /// ledger had unsealed journals at capture time (possible only for
    /// the initial snapshot of a recovered ledger with a trailing
    /// unsealed tail) — proofs then fall back to the locked path until
    /// the next seal.
    fam: Option<Arc<FamTree>>,
    /// The newest sealed block's `LedgerInfo` (zero digests pre-seal).
    info: LedgerInfo,
    anchor: TrustedAnchor,
    cm: CmRoot,
    journal_count: u64,
    occult: OccultBits,
    purge_to: u64,
    store: Arc<dyn StreamStore>,
    metrics: CoreMetrics,
}

impl ReadSnapshot {
    /// Capture the sealed prefix of `ledger`: its segments by `Arc`, and
    /// `prev`'s frozen fam when the prefix didn't grow.
    pub(crate) fn build(ledger: &LedgerDb, prev: Option<&Arc<ReadSnapshot>>) -> ReadSnapshot {
        let segments = ledger.sealed.clone();
        let journal_count = sealed_count(&segments);
        // The frozen fam is only consistent with `info` when it covers
        // exactly the sealed journals. At publish-on-seal time the tail
        // is empty so this always holds; reuse the previous freeze on
        // occult/purge republishes where the prefix didn't move.
        let fam = if ledger.fam.journal_count() == journal_count {
            match prev {
                Some(p) if p.journal_count == journal_count && p.fam.is_some() => p.fam.clone(),
                _ => Some(Arc::new(ledger.fam.freeze())),
            }
        } else {
            match prev {
                Some(p) if p.journal_count == journal_count => p.fam.clone(),
                _ => None,
            }
        };
        let info = segments.last().map(|s| s.block.info).unwrap_or(LedgerInfo {
            journal_root: Digest::ZERO,
            clue_root: Digest::ZERO,
            state_root: Digest::ZERO,
        });
        ReadSnapshot {
            seq: prev.map(|p| p.seq + 1).unwrap_or(0),
            published: Instant::now(),
            id: ledger.id,
            fam_delta: ledger.config.fam_delta,
            lsp_keys: ledger.lsp_keys.clone(),
            registry: ledger.registry.clone(),
            segments,
            fam,
            info,
            anchor: ledger.fam.anchor(),
            cm: ledger.cm_tree.snapshot_root(),
            journal_count,
            occult: ledger.occult_index.snapshot(),
            purge_to: ledger.pseudo_genesis.as_ref().map(|g| g.purge_to).unwrap_or(0),
            store: Arc::clone(&ledger.store),
            metrics: ledger.metrics.clone(),
        }
    }

    /// Publication sequence number (monotonic per ledger).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Wall time since this snapshot was published.
    pub fn age(&self) -> std::time::Duration {
        self.published.elapsed()
    }

    /// The ledger's identity digest.
    pub fn id(&self) -> Digest {
        self.id
    }

    /// The LSP public key receipts are signed with.
    pub fn lsp_public_key(&self) -> &PublicKey {
        self.lsp_keys.public()
    }

    /// The fam fractal height δ.
    pub fn fam_delta(&self) -> u32 {
        self.fam_delta
    }

    /// Sealed journal count — the snapshot's coverage boundary.
    pub fn journal_count(&self) -> u64 {
        self.journal_count
    }

    /// Sealed block count.
    pub fn block_count(&self) -> u64 {
        self.segments.len() as u64
    }

    /// The newest sealed block's `LedgerInfo` — the roots every proof
    /// served from this snapshot verifies against.
    pub fn info(&self) -> LedgerInfo {
        self.info
    }

    /// The frozen fam commitment (equals `info().journal_root` whenever
    /// the snapshot can prove; see [`ReadSnapshot::can_prove`]).
    pub fn journal_root(&self) -> Digest {
        self.fam.as_ref().map(|f| f.root()).unwrap_or(self.info.journal_root)
    }

    /// The frozen CM-Tree summary.
    pub fn cm_root(&self) -> CmRoot {
        self.cm
    }

    /// The trusted anchor as of capture time.
    pub fn anchor(&self) -> &TrustedAnchor {
        &self.anchor
    }

    /// Journals purged below this jsn (0 when never purged).
    pub fn purge_to(&self) -> u64 {
        self.purge_to
    }

    /// Occulted as of the capture point?
    pub fn is_occulted(&self, jsn: u64) -> bool {
        self.occult.is_marked(jsn)
    }

    /// Does the sealed prefix contain `jsn`?
    pub fn covers(&self, jsn: u64) -> bool {
        jsn < self.journal_count
    }

    /// Can this snapshot produce and client-verify fam proofs? False
    /// only for the initial snapshot of a ledger captured with an
    /// unsealed tail.
    pub fn can_prove(&self) -> bool {
        self.fam.is_some()
    }

    fn journal(&self, jsn: u64) -> Result<&Journal, LedgerError> {
        sealed_journal(&self.segments, jsn).ok_or(LedgerError::UnknownJournal(jsn))
    }

    /// Fetch a journal record, enforcing the frozen occult/purge view
    /// (same semantics as [`LedgerDb::get_tx`]).
    pub fn get_tx(&self, jsn: u64) -> Result<&Journal, LedgerError> {
        check_retrievable(jsn, self.occult.is_marked(jsn), self.purge_to)?;
        self.journal(jsn)
    }

    /// Fetch a journal's payload from the (lock-free) stream store.
    pub fn get_payload(&self, jsn: u64) -> Result<Vec<u8>, LedgerError> {
        let journal = self.get_tx(jsn)?;
        Ok(self.store.read(journal.stream_index)?)
    }

    /// The receipt π_s for a sealed journal, signed with the snapshot's
    /// LSP key — byte-identical to the locked path's receipt.
    pub fn receipt(&self, jsn: u64) -> Result<Option<Receipt>, LedgerError> {
        sealed_receipt(&self.segments, &self.lsp_keys, jsn)
            .map(Some)
            .ok_or(LedgerError::UnknownJournal(jsn))
    }

    /// Produce an existence proof against the frozen fam. The proof
    /// verifies against `info().journal_root` — the `LedgerInfo` this
    /// snapshot names — regardless of how far the live ledger has moved.
    pub fn prove_existence(
        &self,
        jsn: u64,
        anchor: &TrustedAnchor,
    ) -> Result<(Digest, FamProof), LedgerError> {
        let _span = self.metrics.proof_seconds.time("ledger_proof");
        self.metrics.proofs.inc();
        let fam = self.fam.as_deref().ok_or(LedgerError::UnknownJournal(jsn))?;
        let tx_hash = self.tx_hash(jsn).ok_or(LedgerError::UnknownJournal(jsn))?;
        let proof = fam.prove(jsn, anchor)?;
        Ok((tx_hash, proof))
    }

    /// A sealed journal's tx-hash, as its block committed to it.
    pub(crate) fn tx_hash(&self, jsn: u64) -> Option<Digest> {
        sealed_tx_hash(&self.segments, jsn)
    }

    /// The member registry as of the capture point — admission runs
    /// against it with no lock at all. A member registered after the
    /// capture is unknown here; callers fall back to the live registry.
    pub(crate) fn registry(&self) -> &MemberRegistry {
        &self.registry
    }

    /// Clone sealed blocks `[from_height, from_height + max)`.
    pub fn blocks_from(&self, from_height: u64, max: u64) -> Vec<Block> {
        let lo = (from_height as usize).min(self.segments.len());
        let hi = lo.saturating_add(max as usize).min(self.segments.len());
        self.segments[lo..hi].iter().map(|s| s.block.clone()).collect()
    }
}

/// The shared state connecting a `LedgerDb` (publisher) to its readers:
/// the current snapshot behind an [`ArcCell`].
pub struct SnapshotHub {
    cell: ArcCell<ReadSnapshot>,
}

impl SnapshotHub {
    pub(crate) fn new(initial: ReadSnapshot) -> Self {
        SnapshotHub { cell: ArcCell::new(Arc::new(initial)) }
    }

    /// The current snapshot (one Arc clone, never the ledger lock).
    pub fn load(&self) -> Arc<ReadSnapshot> {
        self.cell.load()
    }

    /// Publish a fresh capture of `ledger`'s sealed prefix. Called with
    /// the ledger write lock held; the cell swap itself is lock-free
    /// from the readers' perspective.
    pub(crate) fn publish(&self, ledger: &LedgerDb) {
        let prev = self.cell.load();
        let next = ReadSnapshot::build(ledger, Some(&prev));
        ledger.metrics.snapshot_publishes.inc();
        ledger.metrics.snapshot_age_ms.set(0);
        self.cell.store(Arc::new(next));
    }

    /// Count a read served from the snapshot and refresh the age gauge.
    pub(crate) fn note_hit(&self, snap: &ReadSnapshot) {
        snap.metrics.snapshot_hits.inc();
        snap.metrics.snapshot_age_ms.set(snap.age().as_millis() as i64);
    }

    /// Count a read that had to fall back to the locked path.
    pub(crate) fn note_fallback(&self, snap: &ReadSnapshot) {
        snap.metrics.snapshot_fallbacks.inc();
    }
}
