//! Table I: verification characteristics across ledger systems.
//!
//! The non-LedgerDB rows are the paper's qualitative assessment of
//! external systems; they are reprinted verbatim. The LedgerDB row is
//! *demonstrated*: each claimed capability is exercised against this
//! repository's implementation before its ✓ is printed, so the table
//! doubles as a smoke test of Dasein support, verifiable mutation and
//! verifiable N-lineage.

use ledgerdb_bench::{banner, BenchLedger};
use ledgerdb_clue::cm_tree::CmTree;
use ledgerdb_core::{audit_ledger, verify, AuditConfig, OccultMode};
use ledgerdb_crypto::multisig::MultiSignature;
use ledgerdb_timesvc::clock::Clock;
use ledgerdb_timesvc::tledger::{TLedger, TLedgerConfig};
use ledgerdb_timesvc::tsa::TsaPool;
use std::sync::Arc;

/// Exercise every LedgerDB capability Table I claims; panics on failure.
fn demonstrate_ledgerdb_row() -> &'static str {
    let mut bench = BenchLedger::new(4, 10);

    // what + who: append signed journals and client-verify existence.
    let requests = bench.signed_requests(12, 256, |i| Some(format!("clue-{}", i % 3)));
    bench.populate(requests);
    let anchor = bench.ledger.anchor();
    let (tx_hash, proof) = bench.ledger.prove_existence(3, &anchor).unwrap();
    verify::existence(&bench.ledger.journal_root(), &anchor, &tx_hash, &proof).unwrap();

    // when: anchor to a T-Ledger (TSA two-way pegged).
    let clock: Arc<dyn Clock> = Arc::clone(bench.ledger.clock());
    let pool = Arc::new(TsaPool::new(1, Arc::clone(&clock)));
    let tledger = TLedger::new(TLedgerConfig::default(), clock, pool);
    bench.ledger.anchor_time(&tledger).unwrap();

    // Verifiable N-lineage via CM-Tree.
    let cm_root = bench.ledger.clue_root();
    let clue_proof = bench.ledger.prove_clue("clue-1").unwrap();
    CmTree::verify_client(&cm_root, &clue_proof).unwrap();

    // Verifiable mutation: occult then purge, then full audit.
    let od = bench.ledger.occult_approval_digest(2);
    let mut oms = MultiSignature::new();
    oms.add(&bench.dba, &od);
    oms.add(&bench.regulator, &od);
    bench.ledger.occult(2, oms, OccultMode::Sync).unwrap();

    let pd = bench.ledger.purge_approval_digest(2);
    let mut pms = MultiSignature::new();
    pms.add(&bench.dba, &pd);
    pms.add(&bench.alice, &pd);
    bench.ledger.purge(2, pms, &[0], false).unwrap();
    bench.ledger.seal_block();

    let config = AuditConfig { tledger_key: Some(*tledger.public_key()), ..Default::default() };
    audit_ledger(&bench.ledger, &config).unwrap();

    "demonstrated"
}

fn main() {
    banner("Table I: verification characteristics (LedgerDB row demonstrated live)");
    let status = demonstrate_ledgerdb_row();
    println!(
        "{:<13} {:<20} {:<17} {:<12} {:<10} {:<10} {:<10}",
        "System", "Trusted Dependency", "Dasein", "Verify-Eff", "Storage", "Mutation", "N-lineage"
    );
    let rows = [
        ("LedgerDB", "TSA(non-LSP)", "what-when-who", "High", "Lowest", "yes", "yes"),
        ("SQL Ledger", "LSP & Storage", "what-when-who", "High", "Medium", "yes", "no"),
        ("QLDB", "LSP", "what", "Medium", "Medium", "no", "no"),
        ("ProvenDB", "LSP & Bitcoin", "what-when", "Medium", "Medium", "yes", "no"),
        ("Hyperledger", "Consortium", "what-who", "Low", "High", "no", "no"),
        ("Factom", "Bitcoin", "what-when-who", "Medium", "Highest", "no", "no"),
    ];
    for (system, dep, dasein, eff, storage, mutation, lineage) in rows {
        println!(
            "{system:<13} {dep:<20} {dasein:<17} {eff:<12} {storage:<10} {mutation:<10} {lineage:<10}"
        );
    }
    println!("\nLedgerDB row status: {status} (what/when/who, occult, purge, CM-Tree lineage, full audit all exercised)");
}
