//! The fractal accumulating model (*fam*) — the paper's primary *what*
//! contribution (§III-A1, Fig 3b / Fig 4).
//!
//! fam partitions the accumulation into *epochs* of `2^δ` leaves (δ is the
//! *fractal height*). Within an epoch, leaves accumulate in a Shrubs tree.
//! **Rule 1**: when the current tree is full, its root becomes the first
//! leaf — the *merged leaf* (the paper's split cell `cell_E`) — of a fresh
//! tree. Every epoch root therefore transitively commits the entire history,
//! while insertion cost stays bounded by δ regardless of ledger size.
//!
//! *Trusted anchors* (fam-aoa): a verifier who has already validated the
//! ledger up to some point records the epoch roots it trusts. A later proof
//! only needs (a) the sibling path inside the target journal's epoch and
//! (b) the merged-leaf paths of epochs *after* the anchor, reproducing the
//! paper's `O(2)` vs `O(δ+2)` comparison for fresh anchors.

use crate::error::AccumulatorError;
use crate::shrubs::{Shrubs, ShrubsProof};
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::hash_leaf;
use std::sync::Arc;

/// A trusted anchor: the verifier's record of already-verified prefix state.
///
/// `epoch_roots[k]` is the root of sealed epoch `k`; everything up to
/// `covered_epochs` is trusted without re-verification.
#[derive(Clone, Debug, Default)]
pub struct TrustedAnchor {
    pub epoch_roots: Vec<Digest>,
}

impl TrustedAnchor {
    /// Number of sealed epochs this anchor vouches for.
    pub fn covered_epochs(&self) -> usize {
        self.epoch_roots.len()
    }
}

/// A fam membership proof.
#[derive(Clone, Debug)]
pub struct FamProof {
    /// Epoch containing the proven journal.
    pub epoch: usize,
    /// Proof of the journal inside its epoch tree.
    pub in_epoch: ShrubsProof,
    /// Root of the journal's epoch at proving time (the value `in_epoch`
    /// resolves to; trusted directly when covered by the anchor).
    pub epoch_root: Digest,
    /// For each epoch after the target (up to and including the open one):
    /// a proof that the previous epoch's root is that epoch's merged first
    /// leaf, plus that epoch's root. Chain entries are ordered oldest first.
    pub chain: Vec<(ShrubsProof, Digest)>,
}

impl FamProof {
    /// Total digests carried — the Fig 8(b) verification-cost metric.
    pub fn len(&self) -> usize {
        self.in_epoch.len() + self.chain.iter().map(|(p, _)| p.len() + 1).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A sealed epoch: either the full node storage or — after a purge with
/// fam-node erasure (§III-A2) — just a placeholder (the root itself lives
/// in `sealed_roots`).
///
/// Full epochs are held behind `Arc`: a sealed Shrubs is never mutated
/// again, so frozen fam copies (the snapshot read path) share the node
/// storage instead of deep-copying history on every block seal.
#[derive(Clone, Debug)]
enum SealedEpoch {
    Full(Arc<Shrubs>),
    RootOnly,
}

/// Serialized form of a [`FamTree`] — the checkpoint engine's view.
///
/// Sealed epochs carry their full node storage (`Some`) unless a purge
/// erased them down to the root (`None`); either way the epoch root
/// itself lives in `sealed_roots`. Node digests are stored verbatim, so
/// a restore performs no hashing.
#[derive(Clone, Debug)]
pub struct FamParts {
    pub delta: u32,
    pub sealed_roots: Vec<Digest>,
    /// Per sealed epoch: the full Shrubs storage, or `None` if erased.
    pub epochs: Vec<Option<Shrubs>>,
    pub current: Shrubs,
    pub epoch_first_jsn: Vec<u64>,
    pub journal_count: u64,
}

/// The fam tree with fixed fractal height δ.
#[derive(Clone, Debug)]
pub struct FamTree {
    delta: u32,
    /// Sealed epoch trees (digests only — payloads live in the stream
    /// store, so retaining them is cheap; purge may erase them, §III-A2).
    sealed: Vec<SealedEpoch>,
    /// Roots of the sealed epochs, index-aligned with `sealed`.
    sealed_roots: Vec<Digest>,
    /// The open epoch.
    current: Shrubs,
    /// Global sequence numbers: jsn of the first journal in each epoch.
    epoch_first_jsn: Vec<u64>,
    /// Total journal (non-merged) leaves appended.
    journal_count: u64,
}

impl FamTree {
    /// Create a fam tree with epoch capacity `2^delta` leaves.
    ///
    /// Epoch 0 holds `2^δ` journals; later epochs hold the merged leaf plus
    /// `2^δ - 1` journals, matching Rule 1.
    pub fn new(delta: u32) -> Self {
        assert!((1..=40).contains(&delta), "fractal height must be in 1..=40");
        FamTree {
            delta,
            sealed: Vec::new(),
            sealed_roots: Vec::new(),
            current: Shrubs::new(),
            epoch_first_jsn: vec![0],
            journal_count: 0,
        }
    }

    /// The fractal height δ.
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// Leaves per epoch (`2^δ`).
    pub fn epoch_capacity(&self) -> u64 {
        1u64 << self.delta
    }

    /// Total journals appended (excluding merged leaves).
    pub fn journal_count(&self) -> u64 {
        self.journal_count
    }

    /// Sealed epoch count.
    pub fn sealed_epochs(&self) -> usize {
        self.sealed.len()
    }

    /// Roots of all sealed epochs (what an anchor snapshots).
    pub fn sealed_roots(&self) -> &[Digest] {
        &self.sealed_roots
    }

    /// The overall ledger commitment: the open epoch's root, which commits
    /// all history transitively through merged leaves.
    pub fn root(&self) -> Digest {
        if self.current.leaf_count() == 0 {
            // Open epoch empty: the last sealed root is the commitment.
            self.sealed_roots.last().copied().unwrap_or(Digest::ZERO)
        } else {
            self.current.root()
        }
    }

    /// Digest a merged leaf carries for a previous epoch root.
    fn merged_leaf(root: &Digest) -> Digest {
        hash_leaf(root.as_bytes())
    }

    /// Append a journal digest; returns its jsn.
    pub fn append(&mut self, digest: Digest) -> u64 {
        if self.current.leaf_count() == self.epoch_capacity() {
            self.roll_epoch();
        }
        self.current.append(digest);
        let jsn = self.journal_count;
        self.journal_count += 1;
        jsn
    }

    /// Rule 1: seal the full epoch and open a new one whose first leaf is
    /// the sealed root.
    fn roll_epoch(&mut self) {
        let root = self.current.root();
        let sealed = std::mem::take(&mut self.current);
        self.sealed.push(SealedEpoch::Full(Arc::new(sealed)));
        self.sealed_roots.push(root);
        self.current.append(Self::merged_leaf(&root));
        self.epoch_first_jsn.push(self.journal_count);
    }

    /// Undo appends back to `journal_count` journals, restoring the
    /// exact tree (root, anchor, proofs) as it stood then. An epoch is
    /// rolled by the append *after* it fills, so a count at or below the
    /// open epoch's first jsn un-rolls that epoch. No-op past the end;
    /// fails if it would have to un-roll an epoch a purge erased.
    pub fn truncate(&mut self, journal_count: u64) -> Result<(), AccumulatorError> {
        if journal_count >= self.journal_count {
            return Ok(());
        }
        // The epoch left open: the last one whose first jsn lies below
        // the target (epoch 0 at least).
        let open = self.epoch_first_jsn.partition_point(|&first| first < journal_count).max(1) - 1;
        if open < self.sealed.len() {
            let SealedEpoch::Full(tree) = &self.sealed[open] else {
                return Err(AccumulatorError::EpochErased(open));
            };
            self.current = Shrubs::clone(tree);
            self.sealed.truncate(open);
            self.sealed_roots.truncate(open);
            self.epoch_first_jsn.truncate(open + 1);
        }
        let merged_leaf = u64::from(open > 0);
        self.current.truncate(journal_count - self.epoch_first_jsn[open] + merged_leaf);
        self.journal_count = journal_count;
        Ok(())
    }

    /// Capture a trusted anchor covering everything sealed so far.
    pub fn anchor(&self) -> TrustedAnchor {
        TrustedAnchor { epoch_roots: self.sealed_roots.clone() }
    }

    /// Capture an immutable frozen copy of the whole accumulator for the
    /// snapshot read path.
    ///
    /// Sealed epochs are shared by `Arc` (they never mutate again), so
    /// the cost is one pointer clone per epoch plus a deep copy of the
    /// open epoch only — at most `2^(δ+1)` digests, independent of
    /// ledger size. The frozen tree keeps proving and verifying exactly
    /// as of the freeze point even while the live tree moves on; if the
    /// live tree later erases purged epochs, the frozen copy retains its
    /// shared nodes until it is dropped.
    pub fn freeze(&self) -> FamTree {
        self.clone()
    }

    /// §III-A2's optional fam-node erasure on purge: drop the node storage
    /// of every sealed epoch that lies entirely below `purge_to` (by jsn),
    /// keeping only the epoch roots. Journals at or after `purge_to` stay
    /// provable: their own epoch is never erased, and chain links only
    /// traverse epochs *after* the target. Returns the number of digests
    /// released.
    pub fn erase_epochs_below(&mut self, purge_to: u64) -> u64 {
        let mut released = 0u64;
        for epoch in 0..self.sealed.len() {
            // The first jsn of the *next* epoch bounds this epoch's jsns.
            let epoch_end = self
                .epoch_first_jsn
                .get(epoch + 1)
                .copied()
                .unwrap_or(self.journal_count);
            if epoch_end > purge_to {
                break;
            }
            if let SealedEpoch::Full(tree) = &self.sealed[epoch] {
                released += tree.node_count();
                self.sealed[epoch] = SealedEpoch::RootOnly;
            }
        }
        released
    }

    /// Total digests currently held across sealed and open epochs — the
    /// storage-overhead metric for the purge ablation.
    pub fn retained_nodes(&self) -> u64 {
        let sealed: u64 = self
            .sealed
            .iter()
            .map(|e| match e {
                SealedEpoch::Full(t) => t.node_count(),
                SealedEpoch::RootOnly => 0,
            })
            .sum();
        sealed + self.current.node_count()
    }

    /// Export the accumulator for checkpoint serialization. Sealed-epoch
    /// storage is cloned out of its `Arc` (cheap relative to the I/O that
    /// follows, and only done on the checkpoint cadence).
    pub fn export_parts(&self) -> FamParts {
        FamParts {
            delta: self.delta,
            sealed_roots: self.sealed_roots.clone(),
            epochs: self
                .sealed
                .iter()
                .map(|e| match e {
                    SealedEpoch::Full(t) => Some(Shrubs::clone(t)),
                    SealedEpoch::RootOnly => None,
                })
                .collect(),
            current: self.current.clone(),
            epoch_first_jsn: self.epoch_first_jsn.clone(),
            journal_count: self.journal_count,
        }
    }

    /// Rebuild a fam tree from its serialized parts.
    ///
    /// Validates the structural invariants the live tree maintains:
    /// index alignment between `epochs` and `sealed_roots`, a monotonic
    /// `epoch_first_jsn` anchored at 0 with one entry per epoch, and —
    /// for every epoch whose storage survives — that the stored nodes
    /// actually bag to the recorded epoch root.
    pub fn from_parts(parts: FamParts) -> Result<FamTree, AccumulatorError> {
        let malformed = |what| Err(AccumulatorError::MalformedProof(what));
        if !(1..=40).contains(&parts.delta) {
            return malformed("fractal height out of range");
        }
        if parts.epochs.len() != parts.sealed_roots.len() {
            return malformed("epoch storage and root count differ");
        }
        if parts.epoch_first_jsn.len() != parts.epochs.len() + 1 {
            return malformed("epoch_first_jsn must have one entry per epoch");
        }
        if parts.epoch_first_jsn.first() != Some(&0) {
            return malformed("first epoch must start at jsn 0");
        }
        if parts.epoch_first_jsn.windows(2).any(|w| w[0] >= w[1]) {
            return malformed("epoch_first_jsn must be strictly increasing");
        }
        if parts.epoch_first_jsn.last().copied().unwrap_or(0) > parts.journal_count {
            return malformed("journal count behind last epoch start");
        }
        let mut sealed = Vec::with_capacity(parts.epochs.len());
        for (i, epoch) in parts.epochs.into_iter().enumerate() {
            match epoch {
                Some(tree) => {
                    if tree.root() != parts.sealed_roots[i] {
                        return malformed("sealed epoch nodes do not bag to recorded root");
                    }
                    sealed.push(SealedEpoch::Full(Arc::new(tree)));
                }
                None => sealed.push(SealedEpoch::RootOnly),
            }
        }
        Ok(FamTree {
            delta: parts.delta,
            sealed,
            sealed_roots: parts.sealed_roots,
            current: parts.current,
            epoch_first_jsn: parts.epoch_first_jsn,
            journal_count: parts.journal_count,
        })
    }

    /// Locate (epoch index, leaf offset within the epoch tree) for a jsn.
    fn locate(&self, jsn: u64) -> Result<(usize, u64), AccumulatorError> {
        if jsn >= self.journal_count {
            return Err(AccumulatorError::LeafOutOfRange {
                index: jsn,
                leaf_count: self.journal_count,
            });
        }
        // Binary search over epoch_first_jsn.
        let epoch = match self.epoch_first_jsn.binary_search(&jsn) {
            Ok(e) => e,
            Err(ins) => ins - 1,
        };
        let offset_in_epoch = jsn - self.epoch_first_jsn[epoch];
        // Epochs after the first carry the merged leaf at slot 0.
        let leaf = if epoch == 0 { offset_in_epoch } else { offset_in_epoch + 1 };
        Ok((epoch, leaf))
    }

    /// Produce a proof for `jsn` usable against `anchor` (or the zero
    /// anchor for full verification back to genesis epoch roots).
    pub fn prove(&self, jsn: u64, anchor: &TrustedAnchor) -> Result<FamProof, AccumulatorError> {
        let (epoch, leaf) = self.locate(jsn)?;
        let (in_epoch, epoch_root) = if epoch < self.sealed.len() {
            match &self.sealed[epoch] {
                SealedEpoch::Full(tree) => (tree.prove(leaf)?, self.sealed_roots[epoch]),
                SealedEpoch::RootOnly => return Err(AccumulatorError::EpochErased(epoch)),
            }
        } else {
            (self.current.prove(leaf)?, self.current.root())
        };

        // If the anchor already covers this epoch's root, no chain needed:
        // the verifier trusts epoch_root directly (the fam-aoa fast path).
        let mut chain = Vec::new();
        if epoch >= anchor.covered_epochs() {
            // Link epoch_root forward through each later epoch's merged
            // leaf until we reach the open epoch (whose root the verifier
            // holds as the ledger commitment).
            for k in (epoch + 1)..=self.sealed.len() {
                let (proof, root) = if k < self.sealed.len() {
                    match &self.sealed[k] {
                        SealedEpoch::Full(tree) => (tree.prove(0)?, self.sealed_roots[k]),
                        SealedEpoch::RootOnly => return Err(AccumulatorError::EpochErased(k)),
                    }
                } else {
                    if self.current.leaf_count() == 0 {
                        break;
                    }
                    (self.current.prove(0)?, self.current.root())
                };
                chain.push((proof, root));
            }
        }
        Ok(FamProof { epoch, in_epoch, epoch_root, chain })
    }

    /// Verify `proof` shows `leaf_digest` at some jsn, given the current
    /// ledger root `root` and the verifier's `anchor`.
    ///
    /// Anchored epochs resolve against the anchor's stored roots; otherwise
    /// the chain of merged-leaf proofs must connect the epoch root to the
    /// ledger root.
    pub fn verify(
        root: &Digest,
        anchor: &TrustedAnchor,
        leaf_digest: &Digest,
        proof: &FamProof,
    ) -> Result<(), AccumulatorError> {
        // 1. The journal is inside its epoch.
        Shrubs::verify(&proof.epoch_root, leaf_digest, &proof.in_epoch)?;

        // 2. The epoch root is trusted, either via the anchor...
        if proof.epoch < anchor.covered_epochs() {
            if anchor.epoch_roots[proof.epoch] != proof.epoch_root {
                return Err(AccumulatorError::ProofMismatch);
            }
            return Ok(());
        }

        // ... or via the merged-leaf chain up to the ledger root.
        let mut expected_leaf = Self::merged_leaf(&proof.epoch_root);
        let mut last_root = proof.epoch_root;
        for (link, link_root) in &proof.chain {
            if link.leaf_index != 0 {
                return Err(AccumulatorError::MalformedProof(
                    "chain link must prove the merged first leaf",
                ));
            }
            Shrubs::verify(link_root, &expected_leaf, link)?;
            expected_leaf = Self::merged_leaf(link_root);
            last_root = *link_root;
        }
        if last_root == *root {
            Ok(())
        } else {
            Err(AccumulatorError::ProofMismatch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(n: u64) -> Vec<Digest> {
        (0..n).map(|i| hash_leaf(&i.to_be_bytes())).collect()
    }

    fn build(delta: u32, n: u64) -> (FamTree, Vec<Digest>) {
        let ds = digests(n);
        let mut fam = FamTree::new(delta);
        for d in &ds {
            fam.append(*d);
        }
        (fam, ds)
    }

    #[test]
    fn epoch_rolling_counts() {
        // δ=3 → capacity 8. Epoch 0: 8 journals. Epoch 1: merged + 7.
        let (fam, _) = build(3, 20);
        // 8 + 7 = 15 journals in two sealed epochs, 5 in the open one.
        assert_eq!(fam.sealed_epochs(), 2);
        assert_eq!(fam.journal_count(), 20);
    }

    #[test]
    fn prove_verify_no_anchor_all_journals() {
        let (fam, ds) = build(3, 30);
        let root = fam.root();
        let empty = TrustedAnchor::default();
        for (i, d) in ds.iter().enumerate() {
            let p = fam.prove(i as u64, &empty).unwrap();
            FamTree::verify(&root, &empty, d, &p).unwrap_or_else(|e| panic!("jsn {i}: {e}"));
        }
    }

    #[test]
    fn prove_verify_with_fresh_anchor() {
        let (fam, ds) = build(4, 100);
        let root = fam.root();
        let anchor = fam.anchor();
        for (i, d) in ds.iter().enumerate() {
            let p = fam.prove(i as u64, &anchor).unwrap();
            FamTree::verify(&root, &anchor, d, &p).unwrap();
        }
    }

    #[test]
    fn anchored_proofs_are_shorter() {
        // The fam-aoa claim: with a fresh anchor, historical proofs skip the
        // chain entirely.
        let (fam, _) = build(4, 200);
        let empty = TrustedAnchor::default();
        let anchor = fam.anchor();
        let p_unanchored = fam.prove(3, &empty).unwrap();
        let p_anchored = fam.prove(3, &anchor).unwrap();
        assert!(p_anchored.len() < p_unanchored.len());
        assert!(p_anchored.chain.is_empty());
    }

    #[test]
    fn stale_anchor_rejects_mismatched_root() {
        let (fam, ds) = build(3, 30);
        let mut anchor = fam.anchor();
        // Corrupt the anchor's record of epoch 0.
        anchor.epoch_roots[0] = hash_leaf(b"evil");
        let p = fam.prove(2, &anchor).unwrap();
        assert!(FamTree::verify(&fam.root(), &anchor, &ds[2], &p).is_err());
    }

    #[test]
    fn tampered_leaf_fails() {
        let (fam, _) = build(3, 30);
        let empty = TrustedAnchor::default();
        let p = fam.prove(5, &empty).unwrap();
        assert!(FamTree::verify(&fam.root(), &empty, &hash_leaf(b"fake"), &p).is_err());
    }

    #[test]
    fn out_of_range_jsn() {
        let (fam, _) = build(3, 10);
        assert!(fam.prove(10, &TrustedAnchor::default()).is_err());
    }

    #[test]
    fn root_changes_on_append() {
        let (mut fam, _) = build(3, 10);
        let r1 = fam.root();
        fam.append(hash_leaf(b"more"));
        assert_ne!(r1, fam.root());
    }

    #[test]
    fn proof_cost_bounded_by_delta_not_n() {
        // fam's point: recent-journal proof length is bounded by the epoch,
        // not the full ledger.
        let (small, _) = build(4, 1 << 6);
        let (large, _) = build(4, 1 << 12);
        let anchor_small = small.anchor();
        let anchor_large = large.anchor();
        let p_small = small.prove(small.journal_count() - 1, &anchor_small).unwrap();
        let p_large = large.prove(large.journal_count() - 1, &anchor_large).unwrap();
        // Both proofs live in the open epoch; length difference bounded by δ+1.
        assert!(p_large.len() <= p_small.len() + 5);
    }

    #[test]
    fn verify_journal_in_current_open_epoch() {
        let (fam, ds) = build(2, 9);
        let root = fam.root();
        let empty = TrustedAnchor::default();
        let last = fam.journal_count() - 1;
        let p = fam.prove(last, &empty).unwrap();
        FamTree::verify(&root, &empty, &ds[last as usize], &p).unwrap();
    }

    #[test]
    fn erase_epochs_frees_nodes_and_keeps_later_proofs() {
        // δ=3, 40 journals → epochs: 8 + 7 + 7 + 7 + 7 = 36 sealed-ish.
        let (mut fam, ds) = build(3, 40);
        let before = fam.retained_nodes();
        let released = fam.erase_epochs_below(20);
        assert!(released > 0);
        assert_eq!(fam.retained_nodes(), before - released);

        // Purged-range journals are no longer provable...
        let empty = TrustedAnchor::default();
        assert!(matches!(
            fam.prove(0, &empty),
            Err(AccumulatorError::EpochErased(_))
        ));
        // ...but journals at/after the purge point still are, even without
        // an anchor.
        let root = fam.root();
        for jsn in 20..40u64 {
            let p = fam.prove(jsn, &empty).unwrap();
            FamTree::verify(&root, &empty, &ds[jsn as usize], &p).unwrap();
        }
    }

    #[test]
    fn erase_is_idempotent_and_appends_continue() {
        let (mut fam, _) = build(3, 30);
        let r1 = fam.erase_epochs_below(16);
        let r2 = fam.erase_epochs_below(16);
        assert!(r1 > 0);
        assert_eq!(r2, 0);
        // The tree keeps accepting appends and stays provable.
        let d = hash_leaf(b"after-erase");
        let jsn = fam.append(d);
        let empty = TrustedAnchor::default();
        let p = fam.prove(jsn, &empty).unwrap();
        FamTree::verify(&fam.root(), &empty, &d, &p).unwrap();
    }

    #[test]
    fn frozen_tree_keeps_proving_while_live_tree_moves_on() {
        let (mut fam, ds) = build(3, 30);
        let frozen = fam.freeze();
        let frozen_root = frozen.root();
        assert_eq!(frozen_root, fam.root());

        // Live tree advances past an epoch boundary and erases history;
        // the frozen copy is unaffected.
        for i in 0..20u64 {
            fam.append(hash_leaf(&(1000 + i).to_be_bytes()));
        }
        fam.erase_epochs_below(16);
        assert_ne!(fam.root(), frozen_root);

        let empty = TrustedAnchor::default();
        for (i, d) in ds.iter().enumerate() {
            let p = frozen.prove(i as u64, &empty).unwrap();
            FamTree::verify(&frozen_root, &empty, d, &p)
                .unwrap_or_else(|e| panic!("frozen jsn {i}: {e}"));
        }
        // The live tree, by contrast, rejects the erased prefix.
        assert!(matches!(fam.prove(0, &empty), Err(AccumulatorError::EpochErased(_))));
    }

    #[test]
    fn freeze_shares_sealed_epoch_storage() {
        // Freezing must not deep-copy sealed history: the retained-node
        // accounting sees the full tree, but the open epoch is the only
        // part that costs a copy (bounded by epoch capacity).
        let (fam, _) = build(3, 1000);
        let frozen = fam.freeze();
        assert_eq!(frozen.retained_nodes(), fam.retained_nodes());
        assert_eq!(frozen.journal_count(), fam.journal_count());
        assert!(fam.current.node_count() <= 2 * fam.epoch_capacity());
    }

    #[test]
    fn truncate_restores_every_earlier_tree() {
        // δ = 2: epochs of 4 leaves, so 23 journals roll seven epochs.
        let (full, leaves) = build(2, 23);
        for keep in 0..=23u64 {
            let mut tree = full.clone();
            tree.truncate(keep).unwrap();
            let (fresh, _) = build(2, keep);
            assert_eq!(tree.journal_count(), keep);
            assert_eq!(tree.root(), fresh.root(), "root after truncating to {keep}");
            assert_eq!(tree.sealed_roots(), fresh.sealed_roots(), "anchor after truncating to {keep}");
            // Appends continue exactly as on a tree that never grew.
            for leaf in &leaves[keep as usize..] {
                tree.append(*leaf);
            }
            assert_eq!(tree.root(), full.root());
            assert_eq!(tree.sealed_roots(), full.sealed_roots());
        }
    }

    #[test]
    fn truncate_refuses_to_unroll_an_erased_epoch() {
        let (mut tree, _) = build(2, 12);
        tree.erase_epochs_below(8);
        assert!(matches!(tree.truncate(2), Err(AccumulatorError::EpochErased(_))));
    }

    #[test]
    fn exact_epoch_boundary() {
        // n exactly fills epochs: capacity 4, epoch0=4 journals,
        // epoch1 = merged + 3 journals → 7 journals seals epoch 1.
        let (fam, ds) = build(2, 7);
        // Appending one more rolls the epoch.
        let root_before = fam.root();
        let mut fam2 = fam.clone();
        fam2.append(hash_leaf(b"next"));
        assert_ne!(root_before, fam2.root());
        let empty = TrustedAnchor::default();
        for (i, d) in ds.iter().enumerate() {
            let p = fam2.prove(i as u64, &empty).unwrap();
            FamTree::verify(&fam2.root(), &empty, d, &p).unwrap();
        }
    }
}
