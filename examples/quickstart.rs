//! Quickstart: create a ledger, register members, append signed journals,
//! and verify all three Dasein factors — what (existence), when
//! (T-Ledger-backed timestamps), who (signatures) — ending with a full
//! Dasein-complete audit.
//!
//! Run with: `cargo run --release --example quickstart`

use ledgerdb::core::{audit_ledger, verify, AuditConfig, LedgerConfig, LedgerDb, MemberRegistry, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::timesvc::clock::Clock;
use ledgerdb::timesvc::tledger::{TLedger, TLedgerConfig};
use ledgerdb::timesvc::tsa::TsaPool;
use std::sync::Arc;

fn main() {
    // 1. Identities: a CA certifies every participant's key (§II-B).
    let ca = CertificateAuthority::from_seed(b"example-root-ca");
    let alice = KeyPair::from_seed(b"alice");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();

    // 2. Create the ledger.
    let config = LedgerConfig { block_size: 4, fam_delta: 10, name: "quickstart".into(), state_backend: Default::default() };
    let mut ledger = LedgerDb::new(config, registry);
    println!("ledger id: {}", ledger.id());

    // 3. Append client-signed journals (π_c travels with each request).
    for (i, doc) in ["invoice #1", "invoice #2", "receipt #3", "manifest #4"]
        .iter()
        .enumerate()
    {
        let request = TxRequest::signed(
            &alice,
            doc.as_bytes().to_vec(),
            vec!["orders-2026".to_string()],
            i as u64,
        );
        let ack = ledger.append(request).unwrap();
        println!("appended jsn {} tx-hash {}", ack.jsn, ack.tx_hash);
    }

    // 4. who + receipt: the LSP-signed receipt π_s for journal 0.
    let receipt = ledger.receipt(0).unwrap().expect("block sealed");
    assert!(receipt.verify());
    println!("receipt for jsn 0 verified (block hash {})", receipt.block_hash);

    // 5. what: client-side existence verification via the fam tree.
    let anchor = ledger.anchor();
    let (tx_hash, proof) = ledger.prove_existence(2, &anchor).unwrap();
    verify::existence(&ledger.journal_root(), &anchor, &tx_hash, &proof).unwrap();
    println!("existence of jsn 2 verified against root {}", ledger.journal_root());

    // 6. when: anchor the ledger to a T-Ledger two-way pegged to a TSA
    //    pool (Protocols 3 + 4).
    let clock: Arc<dyn Clock> = Arc::clone(ledger.clock());
    let tsa_pool = Arc::new(TsaPool::new(3, Arc::clone(&clock)));
    let tledger = TLedger::new(TLedgerConfig::default(), clock, tsa_pool);
    let time_ack = ledger.anchor_time(&tledger).unwrap();
    tledger.finalize_now().unwrap();
    println!("time journal anchored at jsn {}", time_ack.jsn);

    // 7. N-lineage: verify the whole clue trail in one shot (§IV).
    ledger.seal_block();
    let clue_proof = ledger.prove_clue("orders-2026").unwrap();
    verify::clue(&ledger.clue_root(), &clue_proof).unwrap();
    println!(
        "clue 'orders-2026' verified: {} journals, proof carries {} digests",
        clue_proof.entries.len(),
        clue_proof.len()
    );

    // 8. The Dasein-complete audit (§V).
    let audit_config = AuditConfig {
        tledger_key: Some(*tledger.public_key()),
        ..Default::default()
    };
    let report = audit_ledger(&ledger, &audit_config).unwrap();
    println!(
        "audit passed: {} journals, {} blocks, {} signatures, {} time journals",
        report.journals_checked,
        report.blocks_checked,
        report.signatures_checked,
        report.time_journals
    );
}
