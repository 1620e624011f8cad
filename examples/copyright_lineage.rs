//! The paper's copyright example (§IV-A): an artwork produced in 2005,
//! with royalty transfers in 2010 and 2015. A clue (`DCI001`) is assigned
//! by the client; lineage verification must track all three records *and*
//! verify their count — a missing transfer is as much a forgery as a
//! tampered one.
//!
//! Also demonstrates the infinite-time-amplification attack on one-way
//! pegging versus the bounded window of the T-Ledger protocol (§III-B).
//!
//! Run with: `cargo run --release --example copyright_lineage`

use ledgerdb::clue::cm_tree::CmTree;
use ledgerdb::core::{LedgerConfig, LedgerDb, MemberRegistry, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::timesvc::attack::{one_way_amplification, two_way_attack};
use ledgerdb::timesvc::clock::Clock;
use ledgerdb::timesvc::tledger::{TLedger, TLedgerConfig};
use ledgerdb::timesvc::tsa::TsaPool;
use std::sync::Arc;

const CLUE: &str = "DCI001";

fn main() {
    let ca = CertificateAuthority::from_seed(b"ncac-ca");
    let artist = KeyPair::from_seed(b"artist");
    let gallery = KeyPair::from_seed(b"gallery");
    let collector = KeyPair::from_seed(b"collector");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("artist", Role::User, artist.public())).unwrap();
    registry.register(ca.issue("gallery", Role::User, gallery.public())).unwrap();
    registry.register(ca.issue("collector", Role::User, collector.public())).unwrap();

    let config = LedgerConfig { block_size: 4, fam_delta: 10, name: "copyright".into(), state_backend: Default::default() };
    let mut ledger = LedgerDb::new(config, registry);
    let clock: Arc<dyn Clock> = Arc::clone(ledger.clock());
    let tsa_pool = Arc::new(TsaPool::new(1, Arc::clone(&clock)));
    let tledger = TLedger::new(TLedgerConfig::default(), Arc::clone(&clock), tsa_pool);

    // AppendTx(lg_id, payload, 'DCI001') — three lifecycle records.
    let records = [
        (&artist, "2005: artwork 'Morning over Water' registered, DCI001"),
        (&gallery, "2010: first royalty transfer, artist -> gallery, 12%"),
        (&collector, "2015: royalty transfer, gallery -> collector, 8%"),
    ];
    for (i, (keys, doc)) in records.iter().enumerate() {
        let request =
            TxRequest::signed(keys, doc.as_bytes().to_vec(), vec![CLUE.to_string()], i as u64);
        let ack = ledger.append(request).unwrap();
        // Every record is time-anchored when appended.
        ledger.anchor_time(&tledger).unwrap();
        println!("recorded jsn {}: {}", ack.jsn, doc);
    }
    tledger.finalize_now().unwrap();
    ledger.seal_block();

    // DCI001-oriented verification: ListTx + Verify (§IV-A).
    let jsns = ledger.list_tx(CLUE);
    println!("\nListTx({CLUE}) -> {jsns:?}");
    let cm_root = ledger.clue_root();
    let proof = ledger.prove_clue(CLUE).unwrap();
    CmTree::verify_client(&cm_root, &proof).unwrap();
    assert_eq!(proof.entries.len(), 3, "the verified lineage must contain exactly 3 records");
    println!("lineage verified: 3 records, including the record *count*");

    // A forged proof that drops the 2010 transfer must fail.
    let mut forged = proof.clone();
    forged.entries.remove(1);
    assert!(
        CmTree::verify_client(&cm_root, &forged).is_err(),
        "a lineage missing a transfer must not verify"
    );
    println!("dropping the 2010 transfer makes verification fail (as it must)");

    // --- Why the when factor needs two-way pegging ---------------------
    println!("\ntimestamp-attack comparison (§III-B):");
    let naive = one_way_amplification(5 * 365 * 86_400 * 1_000_000);
    println!(
        "  one-way pegging: a royalty record backdated 5 years is accepted \
         (window {}s — unbounded)",
        naive.window_us.unwrap() / 1_000_000
    );
    let config = TLedgerConfig::default();
    match two_way_attack(config, 10_000_000) {
        Err(_) => println!(
            "  T-Ledger (Protocol 4): the same 10s hold-back is REJECTED; \
             accepted windows stay under {}ms",
            config.submission_tolerance_us / 1_000
        ),
        Ok(_) => unreachable!("stale submissions must be rejected"),
    }
}
