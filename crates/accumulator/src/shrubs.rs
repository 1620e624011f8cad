//! The Shrubs accumulator (§III-A1, Fig 3a).
//!
//! An append-only Merkle forest whose nodes are numbered in *post-order*:
//! each arriving leaf takes the next free position, and an internal node's
//! position is assigned the moment both of its children are complete. This
//! reproduces the paper's Fig 3(a) numbering exactly (1-based there,
//! 0-based here): leaves land at positions 0,1,3,4,7,8,10,11,… and parents
//! at 2,5,6,9,12,13,14,….
//!
//! Properties the paper relies on:
//!
//! * **O(1) amortized insertion** — appending a leaf triggers at most the
//!   cascade of parent-hash computations that complete subtrees, which
//!   amortizes to O(1) per append.
//! * **Node-set proof** — before the binary tree is full, the commitment to
//!   the latest cell is the *frontier*: the set of complete-subtree roots
//!   ("the proof for cell₉ is {cell₇, cell₁₀}"). [`Shrubs::frontier`]
//!   returns it and [`Shrubs::root`] bags it into a single digest.
//! * **Membership proofs** — any historical leaf can be proven against the
//!   current root with a sibling path plus the other frontier roots.

use crate::error::AccumulatorError;
use ledgerdb_crypto::digest::{hash_many, Digest};
use ledgerdb_crypto::hash_pair;

/// Height of the node at post-order position `pos` (0 = leaf).
///
/// Uses the classic "all-ones" jump: in 1-based numbering, positions whose
/// binary form is all ones are the rightmost nodes of perfect trees; any
/// other position maps into the left subtree by subtracting the size of a
/// full left sibling tree.
pub fn pos_height(pos: u64) -> u32 {
    let mut p = pos + 1;
    loop {
        let bits = 64 - p.leading_zeros();
        if p.count_ones() == bits {
            return bits - 1;
        }
        p -= (1u64 << (bits - 1)) - 1;
    }
}

/// Post-order position of the `i`-th leaf (0-based).
pub fn leaf_pos(i: u64) -> u64 {
    2 * i - i.count_ones() as u64
}

/// Number of nodes a forest of `n` leaves occupies.
pub fn node_count(n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        2 * n - n.count_ones() as u64
    }
}

/// Positions of the forest peaks (complete-subtree roots) for `n` leaves,
/// left to right.
pub fn peak_positions(n: u64) -> Vec<u64> {
    peak_spans(n).map(|(pos, _, _)| pos).collect()
}

/// One sibling step in a membership proof.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProofStep {
    /// The sibling digest to combine with.
    pub sibling: Digest,
    /// True when the sibling sits on the left of the running hash.
    pub sibling_on_left: bool,
}

/// A membership proof for one leaf against a Shrubs root.
#[derive(Clone, Debug)]
pub struct ShrubsProof {
    /// Index of the proven leaf.
    pub leaf_index: u64,
    /// Leaf count of the accumulator snapshot the proof targets.
    pub leaf_count: u64,
    /// Sibling path from the leaf up to its peak.
    pub path: Vec<ProofStep>,
    /// The other peaks, with the proven peak's slot marked by `peak_slot`.
    pub other_peaks: Vec<Digest>,
    /// Position of the recomputed peak within the frontier.
    pub peak_slot: usize,
}

impl ShrubsProof {
    /// Total number of digests carried — the paper's verification-cost
    /// metric for Fig 8(b).
    pub fn len(&self) -> usize {
        self.path.len() + self.other_peaks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The Shrubs accumulator: all nodes stored densely in post-order.
#[derive(Clone, Debug, Default)]
pub struct Shrubs {
    nodes: Vec<Digest>,
    leaf_count: u64,
}

impl Shrubs {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of appended leaves.
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// Total stored nodes (leaves + internal).
    pub fn node_count(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Append a leaf digest; returns its leaf index.
    ///
    /// Cost: one push plus the parent cascade for newly completed subtrees —
    /// O(1) amortized, matching the Shrubs insertion bound the CM-Tree
    /// design leans on (§IV-B1).
    pub fn append(&mut self, leaf: Digest) -> u64 {
        let index = self.leaf_count;
        self.nodes.push(leaf);
        self.leaf_count += 1;
        // Cascade: while the node just placed completes a right subtree,
        // hash it with its left sibling into a parent.
        let mut pos = self.nodes.len() as u64 - 1;
        let mut height = 0u32;
        while pos_height(pos + 1) == height + 1 {
            let sibling_span = (1u64 << (height + 1)) - 1;
            let left = self.nodes[(pos - sibling_span) as usize];
            let right = self.nodes[pos as usize];
            self.nodes.push(hash_pair(&left, &right));
            pos += 1;
            height += 1;
        }
        index
    }

    /// Drop every leaf from `leaf_count` on, restoring the exact state
    /// before they were appended (post-order storage is append-only, so
    /// that state is a prefix of the nodes). No-op past the end.
    pub fn truncate(&mut self, leaf_count: u64) {
        if leaf_count < self.leaf_count {
            self.nodes.truncate(node_count(leaf_count) as usize);
            self.leaf_count = leaf_count;
        }
    }

    /// Digest of a node by post-order position.
    pub fn node(&self, pos: u64) -> Option<Digest> {
        self.nodes.get(pos as usize).copied()
    }

    /// The dense post-order node storage — checkpoint serialization reads
    /// this directly so restoring an accumulator costs zero re-hashing.
    pub fn nodes(&self) -> &[Digest] {
        &self.nodes
    }

    /// Rebuild an accumulator from its serialized node storage.
    ///
    /// Structural validation only: the node count must be exactly what
    /// `leaf_count` leaves occupy. Digest integrity is the caller's
    /// problem (checkpoint loads verify the recomputed roots against the
    /// manifest and the sealed block headers).
    pub fn from_parts(nodes: Vec<Digest>, leaf_count: u64) -> Result<Self, AccumulatorError> {
        if nodes.len() as u64 != node_count(leaf_count) {
            return Err(AccumulatorError::MalformedProof("node storage does not match leaf count"));
        }
        Ok(Shrubs { nodes, leaf_count })
    }

    /// The frontier: complete-subtree roots left to right. This is the
    /// paper's *node-set proof* for the most recent cell.
    pub fn frontier(&self) -> Vec<Digest> {
        peak_positions(self.leaf_count)
            .into_iter()
            .map(|p| self.nodes[p as usize])
            .collect()
    }

    /// The accumulator root: the single peak when the tree is full, else
    /// the bagged frontier.
    pub fn root(&self) -> Digest {
        let peaks = self.frontier();
        match peaks.len() {
            0 => Digest::ZERO,
            1 => peaks[0],
            _ => hash_many(&peaks),
        }
    }

    /// Compute the root a frontier implies (for frontier-only verification).
    pub fn root_of_frontier(frontier: &[Digest]) -> Digest {
        match frontier.len() {
            0 => Digest::ZERO,
            1 => frontier[0],
            _ => hash_many(frontier),
        }
    }

    /// Produce a membership proof for `leaf_index` against the *current*
    /// root.
    pub fn prove(&self, leaf_index: u64) -> Result<ShrubsProof, AccumulatorError> {
        if leaf_index >= self.leaf_count {
            return Err(AccumulatorError::LeafOutOfRange {
                index: leaf_index,
                leaf_count: self.leaf_count,
            });
        }
        let peaks = peak_positions(self.leaf_count);
        let mut pos = leaf_pos(leaf_index);
        let mut height = 0u32;
        let mut path = Vec::new();
        while !peaks.contains(&pos) {
            let span = (1u64 << (height + 1)) - 1;
            if pos_height(pos + 1) == height + 1 {
                // `pos` is a right child; sibling sits `span` positions back.
                path.push(ProofStep {
                    sibling: self.nodes[(pos - span) as usize],
                    sibling_on_left: true,
                });
                pos += 1;
            } else {
                // Left child; the right sibling subtree follows ours.
                let sib = pos + span;
                debug_assert!((sib as usize) < self.nodes.len());
                path.push(ProofStep {
                    sibling: self.nodes[sib as usize],
                    sibling_on_left: false,
                });
                pos = sib + 1;
            }
            height += 1;
        }
        let peak_slot = peaks.iter().position(|&p| p == pos).expect("pos is a peak");
        let other_peaks = peaks
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != peak_slot)
            .map(|(_, &p)| self.nodes[p as usize])
            .collect();
        Ok(ShrubsProof {
            leaf_index,
            leaf_count: self.leaf_count,
            path,
            other_peaks,
            peak_slot,
        })
    }

    /// Verify `proof` shows `leaf` at `proof.leaf_index` under `root`.
    pub fn verify(root: &Digest, leaf: &Digest, proof: &ShrubsProof) -> Result<(), AccumulatorError> {
        if proof.leaf_index >= proof.leaf_count {
            return Err(AccumulatorError::MalformedProof("leaf index beyond leaf count"));
        }
        let mut acc = *leaf;
        for step in &proof.path {
            acc = if step.sibling_on_left {
                hash_pair(&step.sibling, &acc)
            } else {
                hash_pair(&acc, &step.sibling)
            };
        }
        let peak_count = peak_positions(proof.leaf_count).len();
        if proof.other_peaks.len() + 1 != peak_count {
            return Err(AccumulatorError::MalformedProof("wrong frontier size"));
        }
        if proof.peak_slot >= peak_count {
            return Err(AccumulatorError::MalformedProof("peak slot out of range"));
        }
        let mut frontier = Vec::with_capacity(peak_count);
        frontier.extend_from_slice(&proof.other_peaks[..proof.peak_slot]);
        frontier.push(acc);
        frontier.extend_from_slice(&proof.other_peaks[proof.peak_slot..]);
        if Self::root_of_frontier(&frontier) == *root {
            Ok(())
        } else {
            Err(AccumulatorError::ProofMismatch)
        }
    }
}

/// Peak decomposition of `n` leaves: `(position, height, first_leaf)` per
/// peak, left to right.
fn peak_spans(n: u64) -> impl Iterator<Item = (u64, u32, u64)> {
    let (mut remaining, mut pos_offset, mut leaf_offset) = (n, 0u64, 0u64);
    std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        let height = 63 - remaining.leading_zeros();
        let leaves = 1u64 << height;
        let nodes = 2 * leaves - 1;
        let span = (pos_offset + nodes - 1, height, leaf_offset);
        pos_offset += nodes;
        leaf_offset += leaves;
        remaining -= leaves;
        Some(span)
    })
}

/// A batch membership proof for a set of leaves.
///
/// This realizes the paper's §IV-C step 3: non-leaf cells derivable from
/// the target leaves themselves (`ℕ₂ ∩ ℕ₃`) are *omitted*; only the
/// minimal complement set of subtree roots is carried ("only {cell₃₂}
/// will be replied to the verifier" in the paper's example).
#[derive(Clone, Debug)]
pub struct ShrubsBatchProof {
    /// Leaf count of the snapshot proven against.
    pub leaf_count: u64,
    /// Indices of the target leaves, strictly ascending.
    pub indices: Vec<u64>,
    /// `(post-order position, digest)` of each non-derivable subtree
    /// root, in the order an in-order descent of the forest meets them
    /// (the only order [`Shrubs::verify_batch`] accepts).
    pub provided: Vec<(u64, Digest)>,
}

impl ShrubsBatchProof {
    /// Number of digests carried — the Fig 9 verification-cost metric.
    pub fn len(&self) -> usize {
        self.provided.len()
    }

    pub fn is_empty(&self) -> bool {
        self.provided.is_empty()
    }
}

impl Shrubs {
    /// Produce a batch proof for `indices` (deduplicated and sorted).
    pub fn prove_batch(&self, indices: &[u64]) -> Result<ShrubsBatchProof, AccumulatorError> {
        let mut idx: Vec<u64> = indices.to_vec();
        idx.sort_unstable();
        idx.dedup();
        if idx.is_empty() {
            return Err(AccumulatorError::MalformedProof("empty index set"));
        }
        if let Some(&max) = idx.last() {
            if max >= self.leaf_count {
                return Err(AccumulatorError::LeafOutOfRange {
                    index: max,
                    leaf_count: self.leaf_count,
                });
            }
        }
        let mut provided = Vec::new();
        let mut targets = idx.as_slice();
        for (pos, height, first_leaf) in peak_spans(self.leaf_count) {
            self.collect_batch(pos, height, first_leaf, &mut targets, &mut provided);
        }
        Ok(ShrubsBatchProof { leaf_count: self.leaf_count, indices: idx, provided })
    }

    /// In-order descent of the subtree at `pos`: emit its root digest if
    /// it holds no target leaf, else recurse. `targets` is the sorted
    /// remainder not yet passed, so "holds a target" is one comparison
    /// with its head. The emission order — left to right, top-down — is
    /// the canonical order [`Shrubs::verify_batch`] insists on.
    fn collect_batch(
        &self,
        pos: u64,
        height: u32,
        first_leaf: u64,
        targets: &mut &[u64],
        out: &mut Vec<(u64, Digest)>,
    ) {
        let leaf_hi = first_leaf + (1u64 << height);
        if targets.first().is_none_or(|&t| t >= leaf_hi) {
            out.push((pos, self.nodes[pos as usize]));
            return;
        }
        if height == 0 {
            *targets = &targets[1..]; // Target leaf: the verifier supplies it.
            return;
        }
        let child_nodes = (1u64 << height) - 1;
        let mid = first_leaf + (1u64 << (height - 1));
        self.collect_batch(pos - 1 - child_nodes, height - 1, first_leaf, targets, out);
        self.collect_batch(pos - 1, height - 1, mid, targets, out);
    }

    /// Verify a batch proof: `entries` pairs each target index with the
    /// claimed leaf digest, in ascending index order.
    ///
    /// One in-order walk of the forest that does nothing but hash: the
    /// target leaves and the `provided` cells are consumed through two
    /// cursors in exactly the order the prover's descent emits them. A
    /// proof has one valid encoding — indices strictly ascending,
    /// `provided` in descent order, nothing left over — so padded,
    /// duplicated, reordered or misplaced cells are `MalformedProof`.
    pub fn verify_batch(
        root: &Digest,
        entries: &[(u64, Digest)],
        proof: &ShrubsBatchProof,
    ) -> Result<(), AccumulatorError> {
        if entries.len() != proof.indices.len() {
            return Err(AccumulatorError::MalformedProof("entry/index count mismatch"));
        }
        if proof.leaf_count > MAX_LEAVES {
            return Err(AccumulatorError::MalformedProof("leaf count out of range"));
        }
        let mut walk = BatchWalk { proof, entries, next_target: 0, next_provided: 0 };
        let mut frontier = Vec::with_capacity(proof.leaf_count.count_ones() as usize);
        for (pos, height, first_leaf) in peak_spans(proof.leaf_count) {
            frontier.push(walk.subtree(pos, height, first_leaf)?);
        }
        if walk.next_target != entries.len() {
            return Err(AccumulatorError::MalformedProof("target index out of order or range"));
        }
        if walk.next_provided != proof.provided.len() {
            return Err(AccumulatorError::MalformedProof("unused proof cells"));
        }
        if Self::root_of_frontier(&frontier) == *root {
            Ok(())
        } else {
            Err(AccumulatorError::ProofMismatch)
        }
    }
}

/// Largest leaf count whose post-order positions fit a `u64`; a batch
/// proof claiming more is rejected before any position arithmetic.
const MAX_LEAVES: u64 = 1 << 62;

/// Cursor state of one [`Shrubs::verify_batch`] walk.
struct BatchWalk<'a> {
    proof: &'a ShrubsBatchProof,
    entries: &'a [(u64, Digest)],
    /// Next unconsumed slot of `proof.indices` / `entries`.
    next_target: usize,
    /// Next unconsumed slot of `proof.provided`.
    next_provided: usize,
}

impl BatchWalk<'_> {
    /// Digest of the subtree at `pos`, mirroring
    /// [`Shrubs::collect_batch`] step for step.
    fn subtree(&mut self, pos: u64, height: u32, first_leaf: u64) -> Result<Digest, AccumulatorError> {
        let leaf_hi = first_leaf + (1u64 << height);
        let target = self.proof.indices.get(self.next_target).copied();
        if target.is_none_or(|t| t >= leaf_hi) {
            // No target below: this is the cell the prover emitted next.
            return match self.proof.provided.get(self.next_provided) {
                Some(&(p, digest)) if p == pos => {
                    self.next_provided += 1;
                    Ok(digest)
                }
                Some(_) => Err(AccumulatorError::MalformedProof("proof cell out of canonical order")),
                None => Err(AccumulatorError::MalformedProof("underivable subtree")),
            };
        }
        if height == 0 {
            // An unsorted or repeated index surfaces here: the head is
            // below `leaf_hi` but is not this leaf.
            let (index, digest) = self.entries[self.next_target];
            if target != Some(first_leaf) || index != first_leaf {
                return Err(AccumulatorError::MalformedProof("entry does not match target index"));
            }
            self.next_target += 1;
            return Ok(digest);
        }
        let child_nodes = (1u64 << height) - 1;
        let mid = first_leaf + (1u64 << (height - 1));
        let left = self.subtree(pos - 1 - child_nodes, height - 1, first_leaf)?;
        let right = self.subtree(pos - 1, height - 1, mid)?;
        Ok(hash_pair(&left, &right))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledgerdb_crypto::hash_leaf;

    fn leaves(n: u64) -> Vec<Digest> {
        (0..n).map(|i| hash_leaf(&i.to_be_bytes())).collect()
    }

    fn build(n: u64) -> (Shrubs, Vec<Digest>) {
        let ls = leaves(n);
        let mut s = Shrubs::new();
        for l in &ls {
            s.append(*l);
        }
        (s, ls)
    }

    #[test]
    fn paper_figure3_numbering() {
        // Cross-check positions against the paper's Fig 3(a) (1-based):
        // leaves at 1,2,4,5,8,9,11,12 → 0-based 0,1,3,4,7,8,10,11.
        let expect = [0u64, 1, 3, 4, 7, 8, 10, 11];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(leaf_pos(i as u64), e, "leaf {i}");
        }
        // Parents: cell3→pos2, cell7→pos6, cell15→pos14.
        assert_eq!(pos_height(2), 1);
        assert_eq!(pos_height(6), 2);
        assert_eq!(pos_height(14), 3);
    }

    #[test]
    fn frontier_matches_paper_example() {
        // After 5 leaves, frontier should be {cell7, cell8} (paper: proof
        // for cell5 is {cell7} plus itself once appended → positions 6, 7).
        let (s, _) = build(5);
        assert_eq!(peak_positions(5), vec![6, 7]);
        assert_eq!(s.frontier().len(), 2);
        // After 7 leaves: {cell7, cell10, cell11} → positions 6, 9, 10.
        let (s7, _) = build(7);
        assert_eq!(peak_positions(7), vec![6, 9, 10]);
        assert_eq!(s7.frontier().len(), 3);
        // After 8 leaves: single root at position 14 (paper cell15).
        let (s8, _) = build(8);
        assert_eq!(peak_positions(8), vec![14]);
        assert_eq!(s8.frontier().len(), 1);
        assert_eq!(s8.root(), s8.frontier()[0]);
    }

    #[test]
    fn node_count_formula() {
        let (s, _) = build(100);
        assert_eq!(s.node_count(), node_count(100));
    }

    #[test]
    fn prove_verify_all_leaves_various_sizes() {
        for n in [1u64, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33, 100] {
            let (s, ls) = build(n);
            let root = s.root();
            for i in 0..n {
                let proof = s.prove(i).unwrap();
                Shrubs::verify(&root, &ls[i as usize], &proof)
                    .unwrap_or_else(|e| panic!("n={n} i={i}: {e}"));
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let (s, _) = build(10);
        let root = s.root();
        let proof = s.prove(3).unwrap();
        let bogus = hash_leaf(b"bogus");
        assert_eq!(
            Shrubs::verify(&root, &bogus, &proof),
            Err(AccumulatorError::ProofMismatch)
        );
    }

    #[test]
    fn stale_root_fails() {
        let (mut s, ls) = build(10);
        let proof = s.prove(3).unwrap();
        s.append(hash_leaf(b"new"));
        let new_root = s.root();
        assert!(Shrubs::verify(&new_root, &ls[3], &proof).is_err());
    }

    #[test]
    fn out_of_range_prove() {
        let (s, _) = build(4);
        assert!(matches!(
            s.prove(4),
            Err(AccumulatorError::LeafOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_accumulator() {
        let s = Shrubs::new();
        assert_eq!(s.root(), Digest::ZERO);
        assert!(s.frontier().is_empty());
        assert_eq!(s.leaf_count(), 0);
    }

    #[test]
    fn frontier_commits_latest_cell() {
        // The node-set proof for the latest cell: bagging the frontier after
        // each append yields the running root.
        let ls = leaves(20);
        let mut s = Shrubs::new();
        for (i, l) in ls.iter().enumerate() {
            s.append(*l);
            let frontier = s.frontier();
            assert_eq!(Shrubs::root_of_frontier(&frontier), s.root(), "after {i}");
        }
    }

    #[test]
    fn proof_len_is_logarithmic() {
        let (s, _) = build(1 << 12);
        let proof = s.prove(123).unwrap();
        assert!(proof.len() <= 13, "proof length {} too large", proof.len());
    }

    #[test]
    fn batch_prove_verify_ranges() {
        for n in [1u64, 3, 8, 13, 32, 100] {
            let (s, ls) = build(n);
            let root = s.root();
            // Prefix ranges of several widths.
            for width in [1u64, 2, 4, n] {
                let w = width.min(n);
                let indices: Vec<u64> = (0..w).collect();
                let entries: Vec<(u64, Digest)> =
                    indices.iter().map(|&i| (i, ls[i as usize])).collect();
                let proof = s.prove_batch(&indices).unwrap();
                Shrubs::verify_batch(&root, &entries, &proof)
                    .unwrap_or_else(|e| panic!("n={n} w={w}: {e}"));
            }
        }
    }

    #[test]
    fn batch_proof_smaller_than_individual() {
        // The §IV-C step-3 point: proving the first 4 leaves together needs
        // fewer digests than 4 independent proofs.
        let (s, _) = build(16);
        let batch = s.prove_batch(&[0, 1, 2, 3]).unwrap();
        let individual: usize = (0..4).map(|i| s.prove(i).unwrap().len()).sum();
        assert!(batch.len() < individual, "{} vs {individual}", batch.len());
    }

    #[test]
    fn batch_paper_example_cell_count() {
        // Fig 6: verifying the first 4 of 8 entries needs only the sibling
        // subtree root (the paper's {cell32}) — one provided digest.
        let (s, _) = build(8);
        let proof = s.prove_batch(&[0, 1, 2, 3]).unwrap();
        assert_eq!(proof.len(), 1);
    }

    #[test]
    fn batch_with_wrong_entry_fails() {
        let (s, ls) = build(10);
        let root = s.root();
        let proof = s.prove_batch(&[2, 3]).unwrap();
        let entries = vec![(2u64, ls[2]), (3u64, hash_leaf(b"forged"))];
        assert_eq!(
            Shrubs::verify_batch(&root, &entries, &proof),
            Err(AccumulatorError::ProofMismatch)
        );
    }

    #[test]
    fn batch_with_missing_entry_fails() {
        let (s, ls) = build(10);
        let root = s.root();
        let proof = s.prove_batch(&[2, 3]).unwrap();
        let entries = vec![(2u64, ls[2])];
        assert!(Shrubs::verify_batch(&root, &entries, &proof).is_err());
    }

    #[test]
    fn batch_sparse_indices() {
        let (s, ls) = build(64);
        let root = s.root();
        let indices = [0u64, 17, 31, 32, 63];
        let entries: Vec<(u64, Digest)> =
            indices.iter().map(|&i| (i, ls[i as usize])).collect();
        let proof = s.prove_batch(&indices).unwrap();
        Shrubs::verify_batch(&root, &entries, &proof).unwrap();
    }

    #[test]
    fn batch_empty_and_out_of_range() {
        let (s, _) = build(4);
        assert!(s.prove_batch(&[]).is_err());
        assert!(s.prove_batch(&[4]).is_err());
    }

    #[test]
    fn tampered_peak_slot_rejected() {
        let (s, ls) = build(10);
        let root = s.root();
        let mut proof = s.prove(9).unwrap();
        proof.peak_slot = 5;
        assert!(Shrubs::verify(&root, &ls[9], &proof).is_err());
    }
}
