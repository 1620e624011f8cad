//! Property-based tests for the accumulator structures: Shrubs (including
//! batch proofs), fam, tim and bim, cross-checked against the naive
//! binary Merkle reference where shapes coincide.
//!
//! Cases come from the deterministic in-repo harness
//! (`ledgerdb_bench::cases`); see that module for the seeding scheme.

use ledgerdb::accumulator::binary::{merkle_prove, merkle_root, merkle_verify};
use ledgerdb::accumulator::fam::{FamTree, TrustedAnchor};
use ledgerdb::accumulator::shrubs::{Shrubs, ShrubsBatchProof};
use ledgerdb::accumulator::tim::TimAccumulator;
use ledgerdb::accumulator::{AccumulatorError, BimChain};
use ledgerdb::crypto::{hash_leaf, Digest};
use ledgerdb_bench::cases::run_cases;

fn digests(seeds: &[u8]) -> Vec<Digest> {
    seeds.iter().enumerate().map(|(i, s)| hash_leaf(&[*s, i as u8, (i >> 8) as u8])).collect()
}

/// Every leaf of a Shrubs accumulator proves against the root.
#[test]
fn shrubs_all_leaves_prove() {
    run_cases("shrubs all leaves prove", 64, |g| {
        let leaves = digests(&g.bytes(1..=199));
        let mut s = Shrubs::new();
        for l in &leaves {
            s.append(*l);
        }
        let root = s.root();
        for (i, l) in leaves.iter().enumerate() {
            let proof = s.prove(i as u64).unwrap();
            assert!(Shrubs::verify(&root, l, &proof).is_ok());
        }
    });
}

/// A proof for leaf i never verifies a different leaf digest.
#[test]
fn shrubs_rejects_wrong_leaf() {
    run_cases("shrubs rejects wrong leaf", 64, |g| {
        let leaves = digests(&g.bytes(2..=99));
        let mut s = Shrubs::new();
        for l in &leaves {
            s.append(*l);
        }
        let root = s.root();
        let i = g.below(leaves.len() as u64);
        let proof = s.prove(i).unwrap();
        let wrong = hash_leaf(b"definitely wrong");
        assert!(Shrubs::verify(&root, &wrong, &proof).is_err());
    });
}

/// The frontier always bags to the root, after any number of appends.
#[test]
fn shrubs_frontier_invariant() {
    run_cases("shrubs frontier invariant", 64, |g| {
        let leaves = digests(&g.bytes(1..=299));
        let mut s = Shrubs::new();
        for l in &leaves {
            s.append(*l);
            assert_eq!(Shrubs::root_of_frontier(&s.frontier()), s.root());
        }
    });
}

/// Batch proofs verify for arbitrary index subsets, and carry no more
/// digests than the per-leaf proofs combined.
#[test]
fn shrubs_batch_subset() {
    run_cases("shrubs batch subset", 64, |g| {
        let leaves = digests(&g.bytes(2..=119));
        let mut s = Shrubs::new();
        for l in &leaves {
            s.append(*l);
        }
        let root = s.root();
        let picks = g.usize_in(1..=9);
        let mut indices: Vec<u64> =
            (0..picks).map(|_| g.below(leaves.len() as u64)).collect();
        indices.sort_unstable();
        indices.dedup();
        let proof = s.prove_batch(&indices).unwrap();
        let entries: Vec<(u64, Digest)> =
            indices.iter().map(|&i| (i, leaves[i as usize])).collect();
        assert!(Shrubs::verify_batch(&root, &entries, &proof).is_ok());
        let individual: usize = indices.iter().map(|&i| s.prove(i).unwrap().len()).sum();
        assert!(proof.len() <= individual);
    });
}

/// A batch proof has exactly one valid encoding. Padding `provided`
/// with junk, duplicating, reordering, misplacing or dropping a cell,
/// or handing the targets over unsorted or repeated, is a typed
/// `MalformedProof` — never Ok, never a panic.
#[test]
fn shrubs_batch_proof_is_not_malleable() {
    run_cases("shrubs batch proof is not malleable", 64, |g| {
        let leaves = digests(&g.bytes(3..=199));
        let mut s = Shrubs::new();
        for l in &leaves {
            s.append(*l);
        }
        let root = s.root();
        let mut indices: Vec<u64> =
            (0..g.usize_in(1..=9)).map(|_| g.below(leaves.len() as u64)).collect();
        indices.sort_unstable();
        indices.dedup();
        let proof = s.prove_batch(&indices).unwrap();
        let entries: Vec<(u64, Digest)> =
            indices.iter().map(|&i| (i, leaves[i as usize])).collect();
        assert!(Shrubs::verify_batch(&root, &entries, &proof).is_ok());
        let malformed = |entries: &[(u64, Digest)], proof: &ShrubsBatchProof, row: &str| {
            let got = Shrubs::verify_batch(&root, entries, proof);
            assert!(matches!(got, Err(AccumulatorError::MalformedProof(_))), "{row}: {got:?}");
        };
        let cells = proof.provided.len();

        // Padded: a junk cell (fresh position, or a copy of a real one)
        // at any slot, including the very end.
        let mut padded = proof.clone();
        let junk = (s.node_count() + g.below(8), hash_leaf(b"junk"));
        padded.provided.insert(g.usize_in(0..=cells), junk);
        malformed(&entries, &padded, "padded");
        if cells > 0 {
            let k = g.below(cells as u64) as usize;
            let mut duplicated = proof.clone();
            duplicated.provided.insert(g.usize_in(0..=cells), proof.provided[k]);
            malformed(&entries, &duplicated, "duplicated");

            let mut truncated = proof.clone();
            truncated.provided.remove(k);
            malformed(&entries, &truncated, "truncated");

            let mut misplaced = proof.clone();
            misplaced.provided[k].0 ^= 1;
            malformed(&entries, &misplaced, "wrong position");
        }
        if cells > 1 {
            let a = g.below(cells as u64) as usize;
            let b = (a + 1 + g.below(cells as u64 - 1) as usize) % cells;
            let mut reordered = proof.clone();
            reordered.provided.swap(a, b);
            malformed(&entries, &reordered, "reordered");
        }

        // The same canonical-order rule on the target side.
        if indices.len() > 1 {
            let mut swapped = (entries.clone(), proof.clone());
            swapped.0.swap(0, 1);
            swapped.1.indices.swap(0, 1);
            malformed(&swapped.0, &swapped.1, "unsorted targets");
        }
        let mut repeated = (entries.clone(), proof.clone());
        repeated.0.push(entries[0]);
        repeated.1.indices.push(indices[0]);
        malformed(&repeated.0, &repeated.1, "repeated target");
        let mut beyond = (entries.clone(), proof.clone());
        beyond.0.push((proof.leaf_count, leaves[0]));
        beyond.1.indices.push(proof.leaf_count);
        malformed(&beyond.0, &beyond.1, "target beyond leaf count");
        let mut huge = proof.clone();
        huge.leaf_count = u64::MAX;
        malformed(&entries, &huge, "absurd leaf count");
    });
}

/// fam: every journal proves against the live root with or without an
/// anchor, across arbitrary δ and sizes.
#[test]
fn fam_proofs_hold() {
    run_cases("fam proofs hold", 64, |g| {
        let delta = g.in_range(1..=5) as u32;
        let leaves = digests(&g.bytes(1..=149));
        let mut fam = FamTree::new(delta);
        for l in &leaves {
            fam.append(*l);
        }
        let root = fam.root();
        let empty = TrustedAnchor::default();
        let fresh = fam.anchor();
        for (i, l) in leaves.iter().enumerate() {
            let p1 = fam.prove(i as u64, &empty).unwrap();
            assert!(FamTree::verify(&root, &empty, l, &p1).is_ok());
            let p2 = fam.prove(i as u64, &fresh).unwrap();
            assert!(FamTree::verify(&root, &fresh, l, &p2).is_ok());
        }
    });
}

/// fam and tim accumulate the same leaves to different roots, but both
/// commit every leaf (no silent drops).
#[test]
fn fam_and_tim_commit_all() {
    run_cases("fam and tim commit all", 64, |g| {
        let leaves = digests(&g.bytes(1..=99));
        let mut fam = FamTree::new(3);
        let mut tim = TimAccumulator::new();
        for l in &leaves {
            fam.append(*l);
            tim.append(*l);
        }
        assert_eq!(fam.journal_count(), leaves.len() as u64);
        assert_eq!(tim.len(), leaves.len() as u64);
    });
}

/// The binary reference tree: proofs verify and reject tampering.
#[test]
fn binary_merkle_sound() {
    run_cases("binary merkle sound", 64, |g| {
        let leaves = digests(&g.bytes(1..=63));
        let root = merkle_root(&leaves);
        for i in 0..leaves.len() {
            let path = merkle_prove(&leaves, i).unwrap();
            assert!(merkle_verify(&root, &leaves[i], &path));
            assert!(
                !merkle_verify(&root, &hash_leaf(b"bad"), &path)
                    || leaves[i] == hash_leaf(b"bad")
            );
        }
    });
}

/// bim: SPV proofs hold for every sealed transaction at any block size.
#[test]
fn bim_spv_sound() {
    run_cases("bim spv sound", 64, |g| {
        let block_size = g.usize_in(1..=19);
        let txs = digests(&g.bytes(1..=99));
        let mut chain = BimChain::new(block_size);
        for t in &txs {
            chain.append(*t);
        }
        chain.seal_block();
        assert!(BimChain::validate_header_chain(chain.headers()));
        for (i, t) in txs.iter().enumerate() {
            let proof = chain.prove(i as u64).unwrap();
            assert!(BimChain::verify(chain.headers(), t, &proof).is_ok());
        }
    });
}

/// Appending to fam never invalidates the relationship between a
/// fresh proof and the fresh root (proofs are snapshot-consistent).
#[test]
fn fam_snapshot_consistency() {
    run_cases("fam snapshot consistency", 64, |g| {
        let leaves = digests(&g.bytes(10..=79));
        let extra = g.bytes(1..=19);
        let mut fam = FamTree::new(3);
        for l in &leaves {
            fam.append(*l);
        }
        let empty = TrustedAnchor::default();
        let old_proof = fam.prove(0, &empty).unwrap();
        let old_root = fam.root();
        assert!(FamTree::verify(&old_root, &empty, &leaves[0], &old_proof).is_ok());
        for l in digests(&extra) {
            fam.append(l);
        }
        // Old proof against the new root must fail; a new proof succeeds.
        let new_root = fam.root();
        assert!(FamTree::verify(&new_root, &empty, &leaves[0], &old_proof).is_err());
        let new_proof = fam.prove(0, &empty).unwrap();
        assert!(FamTree::verify(&new_root, &empty, &leaves[0], &new_proof).is_ok());
    });
}
