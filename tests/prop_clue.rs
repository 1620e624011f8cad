//! Property-based tests for the clue layer: CM-Tree vs ccMPT agreement,
//! lineage completeness, proof tamper-resistance under arbitrary
//! workloads, and the ledger kernel's clue index against the skip-list
//! oracle.
//!
//! Cases come from the deterministic in-repo harness
//! (`ledgerdb_bench::cases`); see that module for the seeding scheme.

use ledgerdb::accumulator::tim::TimAccumulator;
use ledgerdb::clue::ccmpt::CcMpt;
use ledgerdb::accumulator::AccumulatorError;
use ledgerdb::clue::cm_tree::{ClueProof, CmTree};
use ledgerdb::clue::csl::ClueSkipList;
use ledgerdb::clue::ClueError;
use ledgerdb::core::recovery::recover_with_checkpoint;
use ledgerdb::core::{LedgerConfig, LedgerDb, MemberRegistry, OccultMode, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::multisig::MultiSignature;
use ledgerdb::crypto::{hash_leaf, Digest};
use ledgerdb::storage::checkpoint::{CheckpointStore, CkptIo};
use ledgerdb::storage::stream::{MemoryStreamStore, StreamStore};
use ledgerdb::telemetry::Registry;
use ledgerdb::timesvc::clock::SimClock;
use ledgerdb_bench::cases::{run_cases, Gen};
use std::sync::Arc;

/// A workload: journal i belongs to clue `assignments[i]` (small alphabet
/// so clues collide heavily).
fn build(
    assignments: &[u8],
) -> (CmTree, CcMpt, ClueSkipList, TimAccumulator, Vec<Digest>, Vec<String>) {
    let mut cm = CmTree::new();
    let mut cc = CcMpt::new();
    let mut csl = ClueSkipList::new();
    let mut ledger = TimAccumulator::new();
    let mut digests = Vec::new();
    let mut clues: Vec<String> = Vec::new();
    for (jsn, &a) in assignments.iter().enumerate() {
        let clue = format!("clue-{}", a % 7);
        let d = hash_leaf(&[a, jsn as u8, (jsn >> 8) as u8]);
        cm.append(&clue, jsn as u64, d);
        cc.append(&clue, jsn as u64);
        csl.append(&clue, jsn as u64);
        ledger.append(d);
        digests.push(d);
        if !clues.contains(&clue) {
            clues.push(clue);
        }
    }
    (cm, cc, csl, ledger, digests, clues)
}

/// Assignments over a narrow alphabet so clues collide heavily.
fn assignments(g: &mut Gen, len: std::ops::RangeInclusive<usize>, alphabet: u64) -> Vec<u8> {
    let n = g.usize_in(len);
    (0..n).map(|_| g.below(alphabet) as u8).collect()
}

/// All three indexes agree on per-clue entry counts and jsn lists.
#[test]
fn indexes_agree() {
    run_cases("indexes agree", 48, |g| {
        let workload = g.bytes(1..=119);
        let (cm, cc, csl, _, _, clues) = build(&workload);
        for clue in &clues {
            assert_eq!(cm.entry_count(clue), cc.entry_count(clue));
            assert_eq!(cm.entry_count(clue) as usize, csl.entry_count(clue));
            assert_eq!(cm.jsns(clue), cc.jsns(clue));
            assert_eq!(cm.jsns(clue).to_vec(), csl.list(clue));
        }
    });
}

/// Every clue's full lineage verifies through both CM-Tree and ccMPT.
#[test]
fn both_structures_verify() {
    run_cases("both structures verify", 48, |g| {
        let workload = g.bytes(1..=99);
        let (cm, cc, _, ledger, digests, clues) = build(&workload);
        let cm_root = cm.root();
        let cc_root = cc.root();
        let ledger_root = ledger.root();
        for clue in &clues {
            let p1 = cm.prove_all(clue).unwrap();
            assert!(CmTree::verify_client(&cm_root, &p1).is_ok());
            let p2 = cc.prove(clue, &ledger, |j| digests.get(j as usize).copied()).unwrap();
            assert!(CcMpt::verify(&cc_root, &ledger_root, &p2).is_ok());
        }
    });
}

/// Dropping or tampering any entry in a CM-Tree proof fails it.
#[test]
fn cm_tree_tamper_resistance() {
    run_cases("cm tree tamper resistance", 48, |g| {
        let workload = g.bytes(3..=79);
        let (cm, _, _, _, _, clues) = build(&workload);
        let cm_root = cm.root();
        let clue = &clues[g.below(clues.len() as u64) as usize];
        let proof = cm.prove_all(clue).unwrap();
        if proof.entries.len() > 1 {
            let mut dropped = proof.clone();
            let i = g.below(dropped.entries.len() as u64) as usize;
            dropped.entries.remove(i);
            assert!(CmTree::verify_client(&cm_root, &dropped).is_err());
        }
        let mut tampered = proof.clone();
        let i = g.below(tampered.entries.len() as u64) as usize;
        tampered.entries[i].1 = hash_leaf(b"tampered");
        assert!(CmTree::verify_client(&cm_root, &tampered).is_err());
    });
}

/// A server cannot restyle a clue proof: CM-Tree2 cells padded with
/// junk, duplicated, reordered or dropped are a typed malformed-proof
/// error at the client, not Ok.
#[test]
fn cm_tree_proof_cells_are_canonical() {
    run_cases("cm tree proof cells are canonical", 48, |g| {
        let workload = assignments(g, 8..=119, 3);
        let (cm, _, _, _, _, clues) = build(&workload);
        let cm_root = cm.root();
        let clue = clues.iter().max_by_key(|c| cm.entry_count(c)).unwrap().clone();
        let count = cm.entry_count(&clue);
        // A proper sub-range, so the proof carries complement cells.
        let lo = g.below(count);
        let hi = lo + 1 + g.below(count - lo);
        let jsns = cm.jsns(&clue).to_vec();
        let digest_of = |v: u64| {
            jsns.get(v as usize)
                .map(|&j| hash_leaf(&[workload[j as usize], j as u8, (j >> 8) as u8]))
        };
        let proof = cm.prove_range(&clue, lo, hi, digest_of).unwrap();
        assert!(CmTree::verify_client(&cm_root, &proof).is_ok());
        let malformed = |proof: &ClueProof, row: &str| {
            let got = CmTree::verify_client(&cm_root, proof);
            assert!(
                matches!(got, Err(ClueError::Accumulator(AccumulatorError::MalformedProof(_)))),
                "{row}: {got:?}"
            );
        };
        let cells = proof.subtree.provided.len();

        let mut padded = proof.clone();
        padded.subtree.provided.insert(g.usize_in(0..=cells), (u64::MAX, hash_leaf(b"junk")));
        malformed(&padded, "padded");
        if cells > 0 {
            let k = g.below(cells as u64) as usize;
            let mut duplicated = proof.clone();
            duplicated.subtree.provided.insert(g.usize_in(0..=cells), proof.subtree.provided[k]);
            malformed(&duplicated, "duplicated");
            let mut truncated = proof.clone();
            truncated.subtree.provided.remove(k);
            malformed(&truncated, "truncated");
        }
        if cells > 1 {
            let mut reordered = proof.clone();
            reordered.subtree.provided.swap(0, cells - 1);
            malformed(&reordered, "reordered");
        }
    });
}

/// Arbitrary version sub-ranges verify and carry exactly the range.
#[test]
fn range_proofs_hold() {
    run_cases("range proofs hold", 48, |g| {
        let workload = assignments(g, 5..=59, 3);
        let (cm, _, _, _, _, clues) = build(&workload);
        let cm_root = cm.root();
        // Pick the most populated clue.
        let clue = clues.iter().max_by_key(|c| cm.entry_count(c)).unwrap().clone();
        let count = cm.entry_count(&clue);
        if count < 2 {
            return;
        }
        let a = g.below(count);
        let b = g.below(count);
        let (lo, hi) = if a < b { (a, b + 1) } else { (b, a + 1) };
        // Reconstruct per-version digests from the recorded jsn list.
        let jsns = cm.jsns(&clue).to_vec();
        let digest_of = |v: u64| {
            jsns.get(v as usize)
                .map(|&j| hash_leaf(&[workload[j as usize], j as u8, (j >> 8) as u8]))
        };
        let proof = cm.prove_range(&clue, lo, hi, digest_of).unwrap();
        assert_eq!(proof.entries.len() as u64, hi - lo);
        assert!(CmTree::verify_client(&cm_root, &proof).is_ok());
    });
}

/// ccMPT proofs break when the counter is inconsistent with entries.
#[test]
fn ccmpt_counter_binding() {
    run_cases("ccmpt counter binding", 48, |g| {
        let workload = assignments(g, 4..=49, 2);
        let (_, cc, _, ledger, digests, clues) = build(&workload);
        let cc_root = cc.root();
        let ledger_root = ledger.root();
        let clue = clues.iter().max_by_key(|c| cc.entry_count(c)).unwrap();
        if cc.entry_count(clue) < 2 {
            return;
        }
        let mut proof = cc.prove(clue, &ledger, |j| digests.get(j as usize).copied()).unwrap();
        proof.entries.pop();
        assert!(CcMpt::verify(&cc_root, &ledger_root, &proof).is_err());
    });
}

/// The skip list answers range queries consistently with the full list.
#[test]
fn csl_range_consistency() {
    run_cases("csl range consistency", 48, |g| {
        let workload = assignments(g, 1..=79, 3);
        let lo = g.below(40);
        let width = g.below(40);
        let (_, _, csl, _, _, clues) = build(&workload);
        for clue in &clues {
            let all = csl.list(clue);
            let hi = lo + width;
            let expect: Vec<u64> = all.iter().copied().filter(|&j| j >= lo && j <= hi).collect();
            assert_eq!(csl.range(clue, lo, hi), expect);
        }
    });
}

/// The kernel's `ListTx` (the CM-Tree's jsn references) agrees with a
/// skip list fed the same appends, through seals, an occult-by-clue, a
/// purge and a checkpoint export/import.
#[test]
fn kernel_list_tx_matches_skip_list_oracle() {
    const CLUES: [&str; 5] = ["c0", "c1", "c2", "c3", "c4"];
    let ca = CertificateAuthority::from_seed(b"oracle-ca");
    let alice = KeyPair::from_seed(b"oracle-alice");
    let dba = KeyPair::from_seed(b"oracle-dba");
    let regulator = KeyPair::from_seed(b"oracle-reg");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
    registry.register(ca.issue("reg", Role::Regulator, regulator.public())).unwrap();
    let approve = |digest: &Digest, keys: [&KeyPair; 2]| {
        let mut ms = MultiSignature::new();
        for k in keys {
            ms.add(k, digest);
        }
        ms
    };

    run_cases("kernel list_tx matches skip list oracle", 8, |g| {
        let block_size = g.in_range(1..=5);
        let config = || LedgerConfig {
            block_size,
            fam_delta: 4,
            name: "oracle".into(),
            state_backend: Default::default(),
        };
        let payloads: Arc<dyn StreamStore> = Arc::new(MemoryStreamStore::new());
        let wal: Arc<dyn StreamStore> = Arc::new(MemoryStreamStore::new());
        let mut ledger = LedgerDb::with_durability(
            config(),
            registry.clone(),
            Arc::clone(&payloads),
            Arc::clone(&wal),
            Arc::new(SimClock::new()),
        );
        let mut oracle = ClueSkipList::new();
        let agree = |ledger: &LedgerDb, oracle: &ClueSkipList, when: &str| {
            for clue in CLUES.iter().chain(&["absent"]) {
                assert_eq!(ledger.list_tx(clue), oracle.list(clue), "{when}: clue {clue}");
            }
        };

        let appends = g.in_range(8..=32);
        for i in 0..appends {
            // Zero to two distinct clues per journal.
            let mut clues: Vec<String> = Vec::new();
            for _ in 0..g.below(3) {
                let clue = g.choose(&CLUES).to_string();
                if !clues.contains(&clue) {
                    clues.push(clue);
                }
            }
            let req = TxRequest::signed(&alice, i.to_be_bytes().to_vec(), clues.clone(), i);
            let jsn = ledger.append(req).unwrap().jsn;
            for clue in &clues {
                oracle.append(clue, jsn);
            }
            if g.below(4) == 0 {
                ledger.seal_block();
            }
        }
        agree(&ledger, &oracle, "after appends");

        let hidden = *g.choose(&CLUES);
        if !oracle.list(hidden).is_empty() {
            let digest = ledger.occult_clue_approval_digest(hidden);
            let (_, targets) = ledger
                .occult_by_clue(hidden, approve(&digest, [&dba, &regulator]), OccultMode::Async)
                .unwrap();
            assert_eq!(targets, oracle.list(hidden), "occult-by-clue hides the oracle's jsns");
        }
        let purge_to = g.in_range(1..=ledger.journal_count());
        let digest = ledger.purge_approval_digest(purge_to);
        ledger.purge(purge_to, approve(&digest, [&dba, &alice]), &[], false).unwrap();
        agree(&ledger, &oracle, "after occult and purge");

        ledger.seal_block();
        let dir = std::env::temp_dir().join(format!(
            "ledgerdb-prop-clue-{}-{}",
            std::process::id(),
            g.u64()
        ));
        let store = Arc::new(CheckpointStore::open(&dir).unwrap());
        ledger.enable_checkpoints(Arc::clone(&store), Arc::new(CkptIo::new()), u64::MAX);
        ledger.checkpoint_now().unwrap().expect("a sealed ledger checkpoints");
        let (restored, report) = recover_with_checkpoint(
            config(),
            registry.clone(),
            payloads,
            wal,
            Arc::new(SimClock::new()),
            &Registry::new(),
            Some(&store),
        )
        .unwrap();
        assert!(report.checkpoint.is_some(), "import loads the checkpoint");
        agree(&restored, &oracle, "after checkpoint import");
        std::fs::remove_dir_all(&dir).ok();
    });
}
