//! End-to-end Dasein (what-when-who) integration tests across crates:
//! crypto + accumulator + clue + timesvc + core working together the way
//! Fig 1 composes them.

use ledgerdb::clue::cm_tree::CmTree;
use ledgerdb::core::{
    audit_ledger, verify, AuditConfig, LedgerConfig, LedgerDb, MemberRegistry, TxRequest,
};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::timesvc::clock::Clock;
use ledgerdb::timesvc::tledger::{TLedger, TLedgerConfig};
use ledgerdb::timesvc::tsa::TsaPool;
use std::sync::Arc;

struct World {
    ledger: LedgerDb,
    tledger: Arc<TLedger>,
    alice: KeyPair,
    bob: KeyPair,
}

fn world(block_size: u64) -> World {
    let ca = CertificateAuthority::from_seed(b"it-ca");
    let alice = KeyPair::from_seed(b"it-alice");
    let bob = KeyPair::from_seed(b"it-bob");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    registry.register(ca.issue("bob", Role::User, bob.public())).unwrap();
    let config = LedgerConfig { block_size, fam_delta: 6, name: "it".into(), state_backend: Default::default() };
    let ledger = LedgerDb::new(config, registry);
    let clock: Arc<dyn Clock> = Arc::clone(ledger.clock());
    let pool = Arc::new(TsaPool::new(2, Arc::clone(&clock)));
    let tledger = Arc::new(TLedger::new(TLedgerConfig::default(), clock, pool));
    World { ledger, tledger, alice, bob }
}

#[test]
fn full_dasein_cycle() {
    let mut w = world(4);
    // Append journals from two members under interleaved clues.
    for i in 0..50u64 {
        let keys = if i % 2 == 0 { &w.alice } else { &w.bob };
        let req = TxRequest::signed(
            keys,
            format!("doc-{i}").into_bytes(),
            vec![format!("clue-{}", i % 5)],
            i,
        );
        w.ledger.append(req).unwrap();
        if i % 10 == 9 {
            w.ledger.anchor_time(&w.tledger).unwrap();
        }
    }
    w.tledger.finalize_now().unwrap();
    w.ledger.seal_block();

    // what: every journal existence-verifies client-side.
    let anchor = w.ledger.anchor();
    for jsn in 0..w.ledger.journal_count() {
        let (tx_hash, proof) = w.ledger.prove_existence(jsn, &anchor).unwrap();
        verify::existence(&w.ledger.journal_root(), &anchor, &tx_hash, &proof).unwrap();
    }

    // who: receipts verify and are deterministic across calls.
    let r1 = w.ledger.receipt(7).unwrap().unwrap();
    let r2 = w.ledger.receipt(7).unwrap().unwrap();
    assert!(r1.verify());
    assert_eq!(r1.signature, r2.signature, "lazy receipts must be deterministic");

    // lineage: all five clues verify with exact counts.
    let cm_root = w.ledger.clue_root();
    for c in 0..5 {
        let clue = format!("clue-{c}");
        let proof = w.ledger.prove_clue(&clue).unwrap();
        assert_eq!(proof.entries.len(), 10);
        CmTree::verify_client(&cm_root, &proof).unwrap();
    }

    // when + audit: the full Dasein-complete audit passes.
    let report = audit_ledger(
        &w.ledger,
        &AuditConfig { tledger_key: Some(*w.tledger.public_key()), ..Default::default() },
    )
    .unwrap();
    assert_eq!(report.time_journals, 5);
    assert!(report.journals_checked >= 55);
}

#[test]
fn receipt_survives_ledger_growth() {
    let mut w = world(2);
    let req = TxRequest::signed(&w.alice, b"stable".to_vec(), vec![], 0);
    let receipt = w.ledger.append_committed(req).unwrap();
    // Keep appending; the old receipt must remain valid because it is
    // pinned to its block hash, not the moving accumulator root.
    for i in 1..30u64 {
        let req = TxRequest::signed(&w.alice, format!("x{i}").into_bytes(), vec![], i);
        w.ledger.append(req).unwrap();
    }
    w.ledger.seal_block();
    assert!(receipt.verify());
    assert_eq!(w.ledger.receipt(0).unwrap().unwrap().block_hash, receipt.block_hash);
}

#[test]
fn cross_member_forgery_rejected() {
    let mut w = world(4);
    // Bob signs a request but claims Alice's key (threat-C style client
    // forgery): the ledger proxy must reject it.
    let payload = b"forged transfer".to_vec();
    let hash = TxRequest::request_hash(&payload, &[], 0, w.alice.public());
    let forged = TxRequest {
        payload,
        clues: vec![],
        nonce: 0,
        client_pk: *w.alice.public(),
        signature: w.bob.sign(&hash),
    };
    assert!(w.ledger.append(forged).is_err());
}

#[test]
fn stale_clue_proof_fails_after_new_entries() {
    let mut w = world(4);
    for i in 0..6u64 {
        let req = TxRequest::signed(&w.alice, vec![i as u8], vec!["asset".into()], i);
        w.ledger.append(req).unwrap();
    }
    w.ledger.seal_block();
    let old_proof = w.ledger.prove_clue("asset").unwrap();
    let old_root = w.ledger.clue_root();
    CmTree::verify_client(&old_root, &old_proof).unwrap();

    // New lineage entry: the old proof no longer proves the *complete*
    // lineage against the new root.
    let req = TxRequest::signed(&w.alice, b"v7".to_vec(), vec!["asset".into()], 7);
    w.ledger.append(req).unwrap();
    w.ledger.seal_block();
    let new_root = w.ledger.clue_root();
    assert!(CmTree::verify_client(&new_root, &old_proof).is_err());
}

#[test]
fn server_and_client_verification_agree() {
    let mut w = world(8);
    for i in 0..32u64 {
        let req = TxRequest::signed(&w.alice, vec![i as u8; 100], vec!["k".into()], i);
        w.ledger.append(req).unwrap();
    }
    w.ledger.seal_block();
    let anchor = w.ledger.anchor();
    let proof = w.ledger.prove_clue("k").unwrap();
    verify::clue(&w.ledger.clue_root(), &proof).unwrap();
    let (tx_hash, fp) = w.ledger.prove_existence(11, &anchor).unwrap();
    // Server manner: the LSP's own record; client manner: the proof.
    assert_eq!(w.ledger.tx_hash(11), Some(tx_hash));
    verify::existence(&w.ledger.journal_root(), &anchor, &tx_hash, &fp).unwrap();
}
