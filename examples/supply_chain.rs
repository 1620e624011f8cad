//! The paper's motivating scenario (§I): a national Grain-Cotton-Oil
//! supply chain. Banks, manufacturers, retailers, suppliers and
//! warehouses append manuscripts, invoice copies and receipts to an
//! auditable ledger; any external party can later audit any record in
//! terms of what-when-who.
//!
//! Demonstrates: multiple certified members, per-shipment clue lineage,
//! T-Ledger time anchoring, an external (client-side) audit, and a
//! regulator-approved occult of a record that leaked personal data.
//!
//! Run with: `cargo run --release --example supply_chain`

use ledgerdb::clue::cm_tree::CmTree;
use ledgerdb::core::{
    audit_ledger, verify, AuditConfig, LedgerConfig, LedgerDb, MemberRegistry, OccultMode,
    TxRequest,
};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::multisig::MultiSignature;
use ledgerdb::timesvc::clock::Clock;
use ledgerdb::timesvc::tledger::{TLedger, TLedgerConfig};
use ledgerdb::timesvc::tsa::TsaPool;
use std::sync::Arc;

fn main() {
    // --- Participants -------------------------------------------------
    let ca = CertificateAuthority::from_seed(b"gco-root-ca");
    let participants: Vec<(&str, KeyPair)> = [
        "grain-warehouse",
        "cotton-retailer",
        "oil-manufacturer",
        "settlement-bank",
        "logistics-supplier",
    ]
    .iter()
    .map(|name| (*name, KeyPair::from_seed(name.as_bytes())))
    .collect();
    let dba = KeyPair::from_seed(b"gco-dba");
    let regulator = KeyPair::from_seed(b"gco-regulator");

    let mut registry = MemberRegistry::new(*ca.public_key());
    for (name, keys) in &participants {
        registry.register(ca.issue(name, Role::User, keys.public())).unwrap();
    }
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
    registry
        .register(ca.issue("regulator", Role::Regulator, regulator.public()))
        .unwrap();

    let config = LedgerConfig { block_size: 8, fam_delta: 12, name: "gco-supply-chain".into(), state_backend: Default::default() };
    let mut ledger = LedgerDb::new(config, registry);

    // --- Time notary ----------------------------------------------------
    let clock: Arc<dyn Clock> = Arc::clone(ledger.clock());
    let tsa_pool = Arc::new(TsaPool::new(2, Arc::clone(&clock)));
    let tledger = TLedger::new(TLedgerConfig::default(), Arc::clone(&clock), tsa_pool);

    // --- A shipment's lifecycle under one clue ------------------------
    let shipment = "GCO-SHIP-2026-0117";
    let lifecycle = [
        (0usize, "grain intake manuscript: 40t wheat, moisture 12.1%"),
        (4, "logistics pickup receipt: truck SH-A-88231"),
        (2, "refinery acceptance: lot OIL-55, yield 38.2%"),
        (3, "letter of credit drawn: CNY 1,240,000"),
        (1, "retail settlement confirmation: order RC-4411"),
    ];
    let mut nonce = 0u64;
    #[allow(clippy::explicit_counter_loop)] // nonce outlives the loop
    for (who, doc) in lifecycle {
        let (name, keys) = &participants[who];
        let request = TxRequest::signed(
            keys,
            format!("[{name}] {doc}").into_bytes(),
            vec![shipment.to_string()],
            nonce,
        );
        let ack = ledger.append(request).unwrap();
        println!("{name:<20} -> jsn {}", ack.jsn);
        nonce += 1;
    }

    // Unrelated traffic interleaves on the same ledger.
    for i in 0..20u64 {
        let (_, keys) = &participants[(i % 5) as usize];
        let request = TxRequest::signed(
            keys,
            format!("unrelated record {i}").into_bytes(),
            vec![format!("GCO-SHIP-2026-{:04}", 200 + i)],
            1000 + i,
        );
        ledger.append(request).unwrap();
    }

    // Periodic time anchoring (when).
    ledger.anchor_time(&tledger).unwrap();
    tledger.finalize_now().unwrap();
    ledger.seal_block();

    // --- External lineage audit of the shipment -----------------------
    // The auditor holds only the published CM-Tree root and the proof.
    let cm_root = ledger.clue_root();
    let proof = ledger.prove_clue(shipment).unwrap();
    CmTree::verify_client(&cm_root, &proof).unwrap();
    println!(
        "\nshipment {shipment}: {} records verified as the complete lineage",
        proof.entries.len()
    );
    assert_eq!(proof.entries.len(), 5, "N-lineage covers exactly the 5 lifecycle records");

    // Read the full trail back via ListTx.
    for jsn in ledger.list_tx(shipment) {
        let payload = ledger.get_payload(jsn).unwrap();
        println!("  jsn {:>3}: {}", jsn, String::from_utf8_lossy(&payload));
    }

    // --- A regulatory intervention -------------------------------------
    // The pickup receipt leaked a driver's personal data; the regulator
    // and DBA co-sign an occult (Prerequisite 2). Verification of the
    // ledger remains intact (Protocol 2).
    let leaked_jsn = 1;
    let digest = ledger.occult_approval_digest(leaked_jsn);
    let mut approvals = MultiSignature::new();
    approvals.add(&dba, &digest);
    approvals.add(&regulator, &digest);
    ledger.occult(leaked_jsn, approvals, OccultMode::Sync).unwrap();
    assert!(ledger.get_tx(leaked_jsn).is_err(), "occulted record is unreadable");
    println!("\njsn {leaked_jsn} occulted by regulator+DBA; retrieval blocked");

    // Existence verification still passes via the retained hash.
    let anchor = ledger.anchor();
    let (tx_hash, fam_proof) = ledger.prove_existence(leaked_jsn, &anchor).unwrap();
    verify::existence(&ledger.journal_root(), &anchor, &tx_hash, &fam_proof).unwrap();
    println!("occulted record still existence-verifiable (retained hash)");

    // --- Full Dasein-complete audit ------------------------------------
    ledger.seal_block();
    let report = audit_ledger(
        &ledger,
        &AuditConfig { tledger_key: Some(*tledger.public_key()), ..Default::default() },
    )
    .unwrap();
    println!(
        "\nfull audit: {} journals / {} blocks / {} signatures checked, {} occult journal(s) validated",
        report.journals_checked, report.blocks_checked, report.signatures_checked, report.occult_journals
    );
}
