//! The Clue Merged Tree (CM-Tree, §IV-B/IV-C, Fig 6).
//!
//! Two layers:
//!
//! * **CM-Tree1** — an MPT keyed by `sha3(clue)`. Each leaf value commits
//!   the clue's CM-Tree2: the subtree root plus its entry count. The
//!   CM-Tree1 root hash is recorded in every block as the verifiable
//!   lineage snapshot.
//! * **CM-Tree2** — one Shrubs accumulator per clue holding that clue's
//!   journal digests in append order.
//!
//! Insertion (§IV-B3) is two steps: append the journal digest to the
//! clue's CM-Tree2 (O(1) amortized thanks to Shrubs), then refresh the
//! clue's value in CM-Tree1 and re-hash the MPT path (O(depth)).
//!
//! Clue-oriented verification (§IV-C) follows the paper's S/P/R/V
//! pipeline: locate the target leaf set, compute the minimal non-leaf
//! proof-cell complement (the batch proof omits cells derivable from the
//! target leaves themselves), fetch CM-Tree1 path nodes, and validate both
//! layers — a proof is true only when *both* legs verify.

use crate::error::ClueError;
use crate::clue_key;
use ledgerdb_accumulator::shrubs::{Shrubs, ShrubsBatchProof};
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::sha256::Sha256;
use ledgerdb_mpt::{verify_proof, Mpt, MptProof};
use std::collections::HashMap;

/// The commitment CM-Tree1 stores for a clue: subtree root + entry count.
///
/// Committing the count is what makes "the number of records" itself
/// verifiable — an N-lineage requirement the paper calls out in §IV-A.
fn commit_value(subtree_root: &Digest, count: u64) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update(b"ledgerdb.cmtree.commit.v1");
    h.update(&subtree_root.0);
    h.update(&count.to_be_bytes());
    let digest = h.finalize();
    let mut out = Vec::with_capacity(32 + 8 + 32);
    out.extend_from_slice(&subtree_root.0);
    out.extend_from_slice(&count.to_be_bytes());
    out.extend_from_slice(&digest);
    out
}

/// Parse a CM-Tree1 value back into (subtree root, count), checking its
/// internal binding digest.
fn parse_commit(value: &[u8]) -> Result<(Digest, u64), ClueError> {
    if value.len() != 72 {
        return Err(ClueError::MalformedProof("bad commit value length"));
    }
    let root = Digest(value[..32].try_into().expect("length checked"));
    let count = u64::from_be_bytes(value[32..40].try_into().expect("length checked"));
    let expect = commit_value(&root, count);
    if expect != value {
        return Err(ClueError::MalformedProof("commit binding digest mismatch"));
    }
    Ok((root, count))
}

/// A self-contained client-side clue proof.
#[derive(Clone, Debug)]
pub struct ClueProof {
    /// The clue being proven.
    pub clue: String,
    /// Version range `[lo, hi)` of the proven entries.
    pub range: (u64, u64),
    /// The proven `(version, journal digest)` entries.
    pub entries: Vec<(u64, Digest)>,
    /// CM-Tree2 batch proof for the entries.
    pub subtree: ShrubsBatchProof,
    /// CM-Tree1 inclusion proof of the clue's commitment value.
    pub mpt: MptProof,
}

impl ClueProof {
    /// Total digests/nodes carried — the Fig 9 cost metric.
    pub fn len(&self) -> usize {
        self.subtree.len() + self.mpt.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A point-in-time summary of the CM-Tree: the CM-Tree1 root (the same
/// value every block header records as its `clue_root`) plus tree-wide
/// totals. Captured into read snapshots at block seal so lineage
/// queries can be answered against the frozen roots without cloning the
/// MPT or the per-clue accumulators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CmRoot {
    /// CM-Tree1 root hash at capture time.
    pub root: Digest,
    /// Distinct clues at capture time.
    pub clue_count: u64,
    /// Total entries across all CM-Tree2 accumulators at capture time.
    pub entry_count: u64,
}

/// The clue merged tree.
#[derive(Clone, Debug, Default)]
pub struct CmTree {
    /// CM-Tree1.
    mpt: Mpt,
    /// CM-Tree2 accumulators, by clue string.
    subtrees: HashMap<String, Shrubs>,
    /// jsn references per clue, append order (the ListTx index).
    refs: HashMap<String, Vec<u64>>,
}

impl CmTree {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct clues.
    pub fn clue_count(&self) -> usize {
        self.subtrees.len()
    }

    /// Entry count for one clue.
    pub fn entry_count(&self, clue: &str) -> u64 {
        self.subtrees.get(clue).map(|s| s.leaf_count()).unwrap_or(0)
    }

    /// The jsn references recorded for a clue (ListTx).
    pub fn jsns(&self, clue: &str) -> &[u64] {
        self.refs.get(clue).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The CM-Tree1 root — recorded per block as the lineage snapshot.
    pub fn root(&self) -> Digest {
        self.mpt.root_hash()
    }

    /// Capture the frozen root summary for the snapshot read path.
    pub fn snapshot_root(&self) -> CmRoot {
        CmRoot {
            root: self.root(),
            clue_count: self.subtrees.len() as u64,
            entry_count: self.subtrees.values().map(|s| s.leaf_count()).sum(),
        }
    }

    /// §IV-B3 insertion: top-down CM-Tree2 append, bottom-up CM-Tree1
    /// re-hash.
    pub fn append(&mut self, clue: &str, jsn: u64, journal_digest: Digest) {
        let subtree = self.subtrees.entry(clue.to_string()).or_default();
        subtree.append(journal_digest);
        let value = commit_value(&subtree.root(), subtree.leaf_count());
        let key = clue_key(clue);
        self.mpt.insert(key.as_bytes(), value);
        self.refs.entry(clue.to_string()).or_default().push(jsn);
    }

    /// Export every clue's state for checkpoint serialization, sorted by
    /// clue so the encoding is canonical. Each entry carries the clue's
    /// CM-Tree2 accumulator and its jsn reference list; CM-Tree1 is
    /// derived state and is rebuilt on restore.
    pub fn export_parts(&self) -> Vec<(String, Shrubs, Vec<u64>)> {
        let mut out: Vec<(String, Shrubs, Vec<u64>)> = self
            .subtrees
            .iter()
            .map(|(clue, subtree)| {
                (clue.clone(), subtree.clone(), self.refs.get(clue).cloned().unwrap_or_default())
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Rebuild a CM-Tree from exported parts: re-insert each clue's
    /// commitment value into a fresh CM-Tree1 (insertion order does not
    /// affect the MPT root). The per-clue accumulators are restored
    /// verbatim, so no journal digest is re-hashed.
    pub fn from_parts(parts: Vec<(String, Shrubs, Vec<u64>)>) -> Result<CmTree, ClueError> {
        let mut tree = CmTree::new();
        for (clue, subtree, refs) in parts {
            if refs.len() as u64 != subtree.leaf_count() {
                return Err(ClueError::MalformedProof("clue refs do not match subtree size"));
            }
            let value = commit_value(&subtree.root(), subtree.leaf_count());
            tree.mpt.insert(clue_key(&clue).as_bytes(), value);
            tree.subtrees.insert(clue.clone(), subtree);
            tree.refs.insert(clue, refs);
        }
        Ok(tree)
    }

    /// Produce a client-side proof for clue versions `[lo, hi)`; pass
    /// `(0, entry_count)` to prove the entire lineage so far.
    pub fn prove_range(
        &self,
        clue: &str,
        lo: u64,
        hi: u64,
        journal_digest: impl Fn(u64) -> Option<Digest>,
    ) -> Result<ClueProof, ClueError> {
        let subtree = self
            .subtrees
            .get(clue)
            .ok_or_else(|| ClueError::UnknownClue(clue.to_string()))?;
        let count = subtree.leaf_count();
        if lo >= hi || hi > count {
            return Err(ClueError::BadRange { lo, hi, count });
        }
        let indices: Vec<u64> = (lo..hi).collect();
        let mut entries = Vec::with_capacity(indices.len());
        for &v in &indices {
            let d = journal_digest(v).ok_or(ClueError::MalformedProof("missing journal digest"))?;
            entries.push((v, d));
        }
        let batch = subtree.prove_batch(&indices)?;
        let key = clue_key(clue);
        let mpt_proof = self.mpt.prove(key.as_bytes())?;
        Ok(ClueProof {
            clue: clue.to_string(),
            range: (lo, hi),
            entries,
            subtree: batch,
            mpt: mpt_proof,
        })
    }

    /// Prove the entire clue lineage so far.
    pub fn prove_all(&self, clue: &str) -> Result<ClueProof, ClueError> {
        let subtree = self
            .subtrees
            .get(clue)
            .ok_or_else(|| ClueError::UnknownClue(clue.to_string()))?;
        let count = subtree.leaf_count();
        self.prove_range(clue, 0, count, |v| subtree.node(leaf_node_pos(v)))
    }

    /// Stateless client-side verification (the 6-step algorithm of §IV-C).
    pub fn verify_client(cm_root: &Digest, proof: &ClueProof) -> Result<(), ClueError> {
        // Steps 1-3 happened at proof construction; the client holds the
        // minimal proof-cell set. Step 6(1): validate entries against the
        // CM-Tree2 commitment carried in the CM-Tree1 value.
        let (subtree_root, count) = parse_commit(&proof.mpt.value)?;
        if proof.subtree.leaf_count != count {
            return Err(ClueError::MalformedProof("entry count does not match commitment"));
        }
        let (lo, hi) = proof.range;
        if lo >= hi || hi > count {
            return Err(ClueError::BadRange { lo, hi, count });
        }
        if !proof.subtree.indices.iter().copied().eq(lo..hi) {
            return Err(ClueError::MalformedProof("proof indices do not match range"));
        }
        Shrubs::verify_batch(&subtree_root, &proof.entries, &proof.subtree)?;
        // Step 6(2): validate the CM-Tree1 route to the trusted root.
        let key = clue_key(&proof.clue);
        if proof.mpt.key != key.as_bytes() {
            return Err(ClueError::MalformedProof("MPT key does not match clue"));
        }
        verify_proof(cm_root, &proof.mpt)?;
        Ok(())
    }
}

/// Post-order node position of leaf `v` (helper for in-tree digest lookup).
fn leaf_node_pos(v: u64) -> u64 {
    ledgerdb_accumulator::shrubs::leaf_pos(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledgerdb_crypto::hash_leaf;

    fn journal(i: u64) -> Digest {
        hash_leaf(format!("journal-{i}").as_bytes())
    }

    fn build(clues: &[(&str, u64)]) -> CmTree {
        let mut t = CmTree::new();
        let mut jsn = 0;
        for &(clue, n) in clues {
            for _ in 0..n {
                t.append(clue, jsn, journal(jsn));
                jsn += 1;
            }
        }
        t
    }

    #[test]
    fn append_and_counts() {
        let t = build(&[("DCI001", 3), ("SKU-9", 5)]);
        assert_eq!(t.clue_count(), 2);
        assert_eq!(t.entry_count("DCI001"), 3);
        assert_eq!(t.entry_count("SKU-9"), 5);
        assert_eq!(t.entry_count("missing"), 0);
        assert_eq!(t.jsns("DCI001"), &[0, 1, 2]);
    }

    #[test]
    fn prove_all_verifies_client_side() {
        let t = build(&[("DCI001", 3), ("SKU-9", 8), ("lot-42", 1)]);
        let root = t.root();
        for clue in ["DCI001", "SKU-9", "lot-42"] {
            let proof = t.prove_all(clue).unwrap();
            CmTree::verify_client(&root, &proof).unwrap_or_else(|e| panic!("{clue}: {e}"));
        }
    }

    #[test]
    fn prove_subrange() {
        let t = build(&[("art", 10)]);
        let root = t.root();
        let sub = t.subtrees.get("art").unwrap().clone();
        let proof = t
            .prove_range("art", 2, 6, |v| sub.node(leaf_node_pos(v)))
            .unwrap();
        assert_eq!(proof.entries.len(), 4);
        CmTree::verify_client(&root, &proof).unwrap();
    }

    #[test]
    fn tampered_entry_fails() {
        let t = build(&[("k", 6)]);
        let root = t.root();
        let mut proof = t.prove_all("k").unwrap();
        proof.entries[2].1 = hash_leaf(b"evil");
        assert!(CmTree::verify_client(&root, &proof).is_err());
    }

    #[test]
    fn dropped_entry_fails() {
        // N-lineage must verify the *number* of records: removing one entry
        // must fail even if the remaining ones are genuine.
        let t = build(&[("k", 6)]);
        let root = t.root();
        let mut proof = t.prove_all("k").unwrap();
        proof.entries.pop();
        assert!(CmTree::verify_client(&root, &proof).is_err());
    }

    #[test]
    fn stale_root_fails() {
        let mut t = build(&[("k", 6)]);
        let proof = t.prove_all("k").unwrap();
        t.append("k", 100, journal(100));
        assert!(CmTree::verify_client(&t.root(), &proof).is_err());
    }

    #[test]
    fn cross_clue_proof_swap_fails() {
        let t = build(&[("a", 4), ("b", 4)]);
        let root = t.root();
        let mut proof = t.prove_all("a").unwrap();
        proof.clue = "b".to_string();
        assert!(CmTree::verify_client(&root, &proof).is_err());
    }

    #[test]
    fn unknown_clue_errors() {
        let t = build(&[("a", 1)]);
        assert!(matches!(t.prove_all("zzz"), Err(ClueError::UnknownClue(_))));
    }

    #[test]
    fn bad_range_errors() {
        let t = build(&[("a", 4)]);
        let sub = t.subtrees.get("a").unwrap().clone();
        let get = |v: u64| sub.node(leaf_node_pos(v));
        assert!(matches!(t.prove_range("a", 2, 2, get), Err(ClueError::BadRange { .. })));
        assert!(matches!(t.prove_range("a", 0, 5, get), Err(ClueError::BadRange { .. })));
    }

    #[test]
    fn commit_value_round_trip() {
        let root = hash_leaf(b"r");
        let v = commit_value(&root, 42);
        let (r, c) = parse_commit(&v).unwrap();
        assert_eq!(r, root);
        assert_eq!(c, 42);
    }

    #[test]
    fn commit_value_tamper_detected() {
        let root = hash_leaf(b"r");
        let mut v = commit_value(&root, 42);
        v[35] ^= 1; // flip a count byte
        assert!(parse_commit(&v).is_err());
    }

    #[test]
    fn verification_cost_independent_of_other_clues() {
        // The headline CM-Tree property (Fig 9a): proof size for one clue
        // does not grow with total ledger content.
        let small = build(&[("target", 8), ("other", 8)]);
        let mut big_spec: Vec<(String, u64)> = vec![("target".to_string(), 8)];
        for i in 0..200 {
            big_spec.push((format!("noise-{i}"), 5));
        }
        let big = {
            let mut t = CmTree::new();
            let mut jsn = 0;
            for (clue, n) in &big_spec {
                for _ in 0..*n {
                    t.append(clue, jsn, journal(jsn));
                    jsn += 1;
                }
            }
            t
        };
        let p_small = small.prove_all("target").unwrap();
        let p_big = big.prove_all("target").unwrap();
        // CM-Tree2 leg identical; only the MPT path may grow slightly
        // (log16 of clue count).
        assert_eq!(p_small.subtree.len(), p_big.subtree.len());
        assert!(p_big.mpt.len() <= p_small.mpt.len() + 4);
    }
}
