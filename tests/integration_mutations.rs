//! Integration tests for the verifiable mutations (purge §III-A2, occult
//! §III-A3) and the threat scenarios of §II-B.

use ledgerdb::core::{
    audit_ledger, verify, AuditConfig, LedgerConfig, LedgerDb, LedgerError, MemberRegistry,
    OccultMode, TxRequest,
};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::multisig::MultiSignature;

struct World {
    ledger: LedgerDb,
    alice: KeyPair,
    bob: KeyPair,
    dba: KeyPair,
    regulator: KeyPair,
}

fn world() -> World {
    let ca = CertificateAuthority::from_seed(b"mut-ca");
    let alice = KeyPair::from_seed(b"mut-alice");
    let bob = KeyPair::from_seed(b"mut-bob");
    let dba = KeyPair::from_seed(b"mut-dba");
    let regulator = KeyPair::from_seed(b"mut-reg");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    registry.register(ca.issue("bob", Role::User, bob.public())).unwrap();
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
    registry.register(ca.issue("reg", Role::Regulator, regulator.public())).unwrap();
    let config = LedgerConfig { block_size: 4, fam_delta: 5, name: "mut".into(), state_backend: Default::default() };
    World { ledger: LedgerDb::new(config, registry), alice, bob, dba, regulator }
}

fn populate(w: &mut World, n: u64) {
    for i in 0..n {
        let keys = if i % 3 == 0 { &w.bob } else { &w.alice };
        let req = TxRequest::signed(
            keys,
            format!("record-{i}").into_bytes(),
            vec![format!("c{}", i % 4)],
            i,
        );
        w.ledger.append(req).unwrap();
    }
    w.ledger.seal_block();
}

#[test]
fn occult_then_audit_green() {
    let mut w = world();
    populate(&mut w, 20);
    let digest = w.ledger.occult_approval_digest(5);
    let mut ms = MultiSignature::new();
    ms.add(&w.dba, &digest);
    ms.add(&w.regulator, &digest);
    w.ledger.occult(5, ms, OccultMode::Sync).unwrap();
    w.ledger.seal_block();
    let report = audit_ledger(&w.ledger, &AuditConfig::default()).unwrap();
    assert_eq!(report.occult_journals, 1);
}

#[test]
fn occult_preserves_subsequent_verification() {
    // Protocol 2: the retained hash stands in for the journal, so the
    // rest of the ledger still verifies.
    let mut w = world();
    populate(&mut w, 20);
    let digest = w.ledger.occult_approval_digest(3);
    let mut ms = MultiSignature::new();
    ms.add(&w.dba, &digest);
    ms.add(&w.regulator, &digest);
    w.ledger.occult(3, ms, OccultMode::Sync).unwrap();
    w.ledger.seal_block();

    let anchor = w.ledger.anchor();
    for jsn in 0..w.ledger.journal_count() {
        let (tx_hash, proof) = w.ledger.prove_existence(jsn, &anchor).unwrap();
        verify::existence(&w.ledger.journal_root(), &anchor, &tx_hash, &proof).unwrap();
    }
}

#[test]
fn occult_without_regulator_rejected_and_audit_catches_forgery() {
    let mut w = world();
    populate(&mut w, 8);
    // Only the DBA signs: Prerequisite 2 unmet.
    let digest = w.ledger.occult_approval_digest(2);
    let mut ms = MultiSignature::new();
    ms.add(&w.dba, &digest);
    assert!(matches!(
        w.ledger.occult(2, ms, OccultMode::Sync),
        Err(LedgerError::InsufficientSignatures(_))
    ));
}

#[test]
fn async_occult_erases_only_after_reorganize() {
    let mut w = world();
    populate(&mut w, 8);
    let digest = w.ledger.occult_approval_digest(1);
    let mut ms = MultiSignature::new();
    ms.add(&w.dba, &digest);
    ms.add(&w.regulator, &digest);
    w.ledger.occult(1, ms, OccultMode::Async).unwrap();
    // Blocked immediately...
    assert!(matches!(w.ledger.get_tx(1), Err(LedgerError::Occulted(1))));
    // ...erased only after the reorganization pass.
    assert_eq!(w.ledger.reorganize().unwrap(), 1);
    assert_eq!(w.ledger.reorganize().unwrap(), 0, "second pass is a no-op");
}

#[test]
fn purge_then_continue_then_audit() {
    let mut w = world();
    populate(&mut w, 24);
    let purge_to = 12;
    let digest = w.ledger.purge_approval_digest(purge_to);
    let mut ms = MultiSignature::new();
    ms.add(&w.dba, &digest);
    ms.add(&w.alice, &digest);
    ms.add(&w.bob, &digest);
    w.ledger.purge(purge_to, ms, &[2, 7], false).unwrap();

    // Business continues after the purge.
    for i in 100..110u64 {
        let req = TxRequest::signed(&w.alice, vec![i as u8], vec!["post".into()], i);
        w.ledger.append(req).unwrap();
    }
    w.ledger.seal_block();

    // Survivors retrievable, purged not.
    assert!(w.ledger.survival().contains(2));
    assert!(w.ledger.survival().contains(7));
    assert!(matches!(w.ledger.get_tx(3), Err(LedgerError::Purged(3))));
    assert!(w.ledger.get_tx(15).is_ok());

    let report = audit_ledger(&w.ledger, &AuditConfig::default()).unwrap();
    assert_eq!(report.purge_journals, 1);
}

#[test]
fn double_purge_must_move_forward() {
    let mut w = world();
    populate(&mut w, 16);
    let approve = |w: &World, to: u64| {
        let digest = w.ledger.purge_approval_digest(to);
        let mut ms = MultiSignature::new();
        ms.add(&w.dba, &digest);
        ms.add(&w.alice, &digest);
        ms.add(&w.bob, &digest);
        ms
    };
    let ms = approve(&w, 8);
    w.ledger.purge(8, ms, &[], false).unwrap();
    // A second purge at or before the first point is invalid.
    let ms = approve(&w, 8);
    assert!(matches!(w.ledger.purge(8, ms, &[], false), Err(LedgerError::BadPurgePoint(8))));
    // A later purge point is fine.
    let ms = approve(&w, 12);
    w.ledger.purge(12, ms, &[], false).unwrap();
    assert_eq!(w.ledger.pseudo_genesis().unwrap().purge_to, 12);
}

#[test]
fn purge_and_occult_compose() {
    let mut w = world();
    populate(&mut w, 20);
    // Occult 15 first, then purge to 10: both mutations on one ledger.
    let od = w.ledger.occult_approval_digest(15);
    let mut oms = MultiSignature::new();
    oms.add(&w.dba, &od);
    oms.add(&w.regulator, &od);
    w.ledger.occult(15, oms, OccultMode::Sync).unwrap();

    let pd = w.ledger.purge_approval_digest(10);
    let mut pms = MultiSignature::new();
    pms.add(&w.dba, &pd);
    pms.add(&w.alice, &pd);
    pms.add(&w.bob, &pd);
    w.ledger.purge(10, pms, &[], true).unwrap();
    w.ledger.seal_block();

    assert!(matches!(w.ledger.get_tx(15), Err(LedgerError::Occulted(15))));
    assert!(matches!(w.ledger.get_tx(5), Err(LedgerError::Purged(5))));
    let report = audit_ledger(&w.ledger, &AuditConfig::default()).unwrap();
    assert_eq!(report.occult_journals, 1);
    assert_eq!(report.purge_journals, 1);
}

#[test]
fn audit_detects_missing_required_purge_signer() {
    // threat-B/C: LSP colludes to purge without Bob's consent. The purge
    // API refuses; even a hand-rolled multisig missing Bob fails `covers`.
    let mut w = world();
    populate(&mut w, 12);
    let digest = w.ledger.purge_approval_digest(6);
    let mut ms = MultiSignature::new();
    ms.add(&w.dba, &digest);
    ms.add(&w.alice, &digest);
    // Bob appended journals before jsn 6 (jsn 0 and 3) but did not sign.
    assert!(matches!(
        w.ledger.purge(6, ms, &[], false),
        Err(LedgerError::InsufficientSignatures(_))
    ));
}
