//! An external auditor who does **not** trust the LSP (§II-C, manner 2).
//!
//! The auditor runs a [`LedgerClient`]: it downloads sealed blocks,
//! re-derives every accumulator root in its own fam replica, and then
//! verifies receipts and proofs that arrive as raw bytes — exactly what a
//! third party would do against a cloud LSP it cannot inspect. The demo
//! ends with the LSP attempting to serve a tampered history and the
//! client catching it.
//!
//! Run with: `cargo run --release --example external_auditor`

use ledgerdb::accumulator::fam::FamProof;
use ledgerdb::clue::cm_tree::ClueProof;
use ledgerdb::core::{LedgerClient, LedgerConfig, LedgerDb, MemberRegistry, Receipt, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::sha256;
use ledgerdb::crypto::wire::Wire;

fn main() {
    // --- The LSP side (opaque to the auditor) --------------------------
    let ca = CertificateAuthority::from_seed(b"auditor-ca");
    let alice = KeyPair::from_seed(b"auditor-alice");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    let mut ledger = LedgerDb::new(
        LedgerConfig { block_size: 8, fam_delta: 8, name: "audited".into(), state_backend: Default::default() },
        registry,
    );
    for i in 0..64u64 {
        let req = TxRequest::signed(
            &alice,
            format!("evidence item {i}").into_bytes(),
            vec![format!("case-{}", i % 4)],
            i,
        );
        ledger.append(req).unwrap();
    }
    ledger.seal_block();

    // --- The auditor side ----------------------------------------------
    // All the auditor knows a priori: the LSP's public key and the fam δ.
    let mut auditor = LedgerClient::new(*ledger.lsp_public_key(), ledger.fam_delta());

    // 1. Sync: download blocks, replay every journal digest locally.
    let report = auditor.sync(&ledger.blocks().cloned().collect::<Vec<_>>()).unwrap();
    println!(
        "sync: accepted {} blocks / {} journals; replica root {}",
        report.blocks_accepted,
        report.journals_replayed,
        auditor.journal_root()
    );
    assert_eq!(auditor.journal_root(), ledger.journal_root());

    // 2. Verify a receipt delivered as bytes.
    let receipt_bytes = ledger.receipt(17).unwrap().unwrap().to_wire();
    let receipt = Receipt::from_wire(&receipt_bytes).unwrap();
    auditor.verify_receipt(&receipt).unwrap();
    println!("receipt for jsn {} verified ({} bytes on the wire)", receipt.jsn, receipt_bytes.len());

    // 3. Verify an existence proof generated against the auditor's anchor.
    let anchor = auditor.anchor();
    let (tx_hash, proof) = ledger.prove_existence(42, &anchor).unwrap();
    let proof_bytes = proof.to_wire();
    auditor.verify_existence(&tx_hash, &FamProof::from_wire(&proof_bytes).unwrap()).unwrap();
    println!("existence of jsn 42 verified ({} bytes of proof)", proof_bytes.len());

    // 4. Verify a complete case lineage from bytes.
    let clue_bytes = ledger.prove_clue("case-2").unwrap().to_wire();
    let clue_proof = ClueProof::from_wire(&clue_bytes).unwrap();
    auditor.verify_clue(&clue_proof).unwrap();
    println!(
        "lineage 'case-2' verified: {} records ({} bytes of proof)",
        clue_proof.entries.len(),
        clue_bytes.len()
    );

    // 5. The LSP turns malicious: it rewrites one journal in the history
    //    it serves (threat-B). A fresh auditor catches it mid-sync.
    let mut tampered: Vec<_> = ledger.blocks().cloned().collect();
    tampered[4].tx_hashes[3] = sha256(b"the journal the LSP wants you to see");
    let mut fresh_auditor = LedgerClient::new(*ledger.lsp_public_key(), ledger.fam_delta());
    match fresh_auditor.sync(&tampered) {
        Err(e) => println!("tampered history rejected during sync: {e}"),
        Ok(_) => unreachable!("a tampered block feed must not verify"),
    }
    println!(
        "auditor accepted only {} blocks of the tampered feed (all pre-tamper)",
        fresh_auditor.height()
    );
}
