//! Verifiable mutation (§III-A2): a bank ledger purges obsolete history
//! while keeping the current state provably derived from it.
//!
//! "We seldom care about our obsolete bank statements that were ten years
//! ago. But we have to make sure that our current balance is correctly
//! derived from all historical transactions." Milestone journals (block
//! trades) are pinned to the survival stream before purging.
//!
//! Run with: `cargo run --release --example purge_and_survival`

use ledgerdb::core::{audit_ledger, verify, AuditConfig, LedgerConfig, LedgerDb, MemberRegistry, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::multisig::MultiSignature;

fn main() {
    let ca = CertificateAuthority::from_seed(b"bank-ca");
    let bank = KeyPair::from_seed(b"bank-ops");
    let broker = KeyPair::from_seed(b"broker");
    let dba = KeyPair::from_seed(b"bank-dba");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("bank-ops", Role::User, bank.public())).unwrap();
    registry.register(ca.issue("broker", Role::User, broker.public())).unwrap();
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();

    let config = LedgerConfig { block_size: 8, fam_delta: 10, name: "bank".into(), state_backend: Default::default() };
    let mut ledger = LedgerDb::new(config, registry);

    // Ten years of statements; jsn 13 is a milestone block trade.
    for i in 0..40u64 {
        let (keys, doc) = if i == 13 {
            (&broker, "BLOCK TRADE: 2,000,000 shares ACME @ 17.25".to_string())
        } else {
            (&bank, format!("statement {i}: balance update"))
        };
        ledger
            .append(TxRequest::signed(keys, doc.into_bytes(), vec!["acct-777".into()], i))
            .unwrap();
    }
    ledger.seal_block();
    println!(
        "before purge: {} journals, root {}",
        ledger.journal_count(),
        ledger.journal_root()
    );

    // Purge the first 32 journals. Prerequisite 1: DBA + every member
    // holding journals before the purge point must co-sign.
    let purge_to = 32;
    let digest = ledger.purge_approval_digest(purge_to);
    let mut approvals = MultiSignature::new();
    approvals.add(&dba, &digest);
    approvals.add(&bank, &digest);
    approvals.add(&broker, &digest);
    let ack = ledger.purge(purge_to, approvals, &[13], false).unwrap();
    println!("purge journal recorded at jsn {}", ack.jsn);

    let genesis = ledger.pseudo_genesis().unwrap();
    println!(
        "pseudo genesis: purge_to={} snapshot journal root {}",
        genesis.purge_to, genesis.snapshot.journal_root
    );

    // Purged statements are gone...
    assert!(ledger.get_tx(3).is_err());
    println!("statement 3 is no longer retrievable (purged)");

    // ...but the milestone survives and verifies.
    let milestone = ledger.survival().get(13).unwrap();
    assert!(ledger.survival().verify(13).unwrap());
    println!("milestone survived purge: {}", String::from_utf8_lossy(&milestone.payload));

    // Recent journals stay fully verifiable; the fam digests were kept.
    let anchor = ledger.anchor();
    let (tx_hash, proof) = ledger.prove_existence(38, &anchor).unwrap();
    verify::existence(&ledger.journal_root(), &anchor, &tx_hash, &proof).unwrap();
    println!("post-purge journal 38 existence-verified against the live root");

    // Protocol 1: the audit validates the purge approvals and replays from
    // the retained records.
    ledger.seal_block();
    let report = audit_ledger(&ledger, &AuditConfig::default()).unwrap();
    println!(
        "audit after purge: {} journals checked, {} purge journal(s) validated",
        report.journals_checked, report.purge_journals
    );

    // Storage accounting: appended payloads for purged journals are erased.
    println!("survival stream holds {} pinned milestone(s)", ledger.survival().len());
}
