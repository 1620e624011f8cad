//! Snapshot torture test: readers verify existence proofs against
//! published [`ReadSnapshot`]s while a writer concurrently appends,
//! seals, occults and purges.
//!
//! The invariant under torture (DESIGN §9): every proof produced from a
//! snapshot verifies against the `LedgerInfo` *that snapshot names* —
//! never against whatever the live ledger happens to hold by the time
//! the verification runs. Readers also exercise the `SharedLedger`
//! front-end so the hit path (sealed prefix) and the fallback path
//! (unsealed tail) both race the writer. Mutations surface only as
//! typed errors (`Occulted`, `Purged`, accumulator erasures) — never a
//! panic, a torn read, or a proof that verifies against the wrong root.

use ledgerdb::accumulator::fam::{FamTree, TrustedAnchor};
use ledgerdb::core::{
    LedgerConfig, LedgerDb, LedgerError, MemberRegistry, SharedLedger, TxRequest,
};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::multisig::MultiSignature;
use ledgerdb::core::ledger::OccultMode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const ROUNDS: u64 = 12;
const PER_ROUND: u64 = 4;
const BLOCK_SIZE: u64 = 8;
const OCCULT_AT_ROUND: u64 = 5;
const OCCULT_TARGET: u64 = 3;
const PURGE_AT_ROUND: u64 = 9;
const PURGE_TO: u64 = 16;

/// Is this a mutation surfacing as its documented typed error?
fn tolerated(e: &LedgerError) -> bool {
    matches!(
        e,
        LedgerError::Occulted(_)
            | LedgerError::Purged(_)
            // Erased fam epochs / pre-pseudo-genesis proofs after purge.
            | LedgerError::Accumulator(_)
    )
}

#[test]
fn readers_verify_snapshots_while_writer_mutates() {
    let ca = CertificateAuthority::from_seed(b"torture-ca");
    let alice = KeyPair::from_seed(b"torture-alice");
    let dba = KeyPair::from_seed(b"torture-dba");
    let regulator = KeyPair::from_seed(b"torture-regulator");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
    registry.register(ca.issue("regulator", Role::Regulator, regulator.public())).unwrap();
    let ledger = LedgerDb::new(
        // A small δ keeps per-seal snapshot freezes cheap and rolls the
        // fam through several sealed epochs during the run.
        LedgerConfig { block_size: BLOCK_SIZE, fam_delta: 4, name: "torture-snapshot".into(), state_backend: Default::default() },
        registry,
    );
    let shared = SharedLedger::new(ledger);

    // Client-side signing is the slow part (and not under test): sign
    // everything up front so the writer loop is seal/mutate-bound.
    let mut requests: Vec<TxRequest> = (0..ROUNDS * PER_ROUND)
        .map(|i| {
            TxRequest::signed(
                &alice,
                format!("torture-{i}").into_bytes(),
                vec![format!("clue-{}", i % 3)],
                i,
            )
        })
        .collect();
    requests.reverse(); // pop() in jsn order

    let done = AtomicBool::new(false);
    let snapshot_proofs = AtomicU64::new(0);
    let shared_reads = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Writer: append, auto-seal, occult mid-run, purge later.
        let w = shared.clone();
        let (done_ref, alice_ref) = (&done, &alice);
        let (dba_ref, reg_ref) = (&dba, &regulator);
        let mut requests = requests;
        scope.spawn(move || {
            for round in 0..ROUNDS {
                for _ in 0..PER_ROUND {
                    w.append(requests.pop().unwrap()).unwrap();
                }
                if round == OCCULT_AT_ROUND {
                    let digest = w.with_read(|l| l.occult_approval_digest(OCCULT_TARGET));
                    let mut ms = MultiSignature::new();
                    ms.add(dba_ref, &digest);
                    ms.add(reg_ref, &digest);
                    w.occult(OCCULT_TARGET, ms, OccultMode::Async).unwrap();
                }
                if round == PURGE_AT_ROUND {
                    let digest = w.with_read(|l| l.purge_approval_digest(PURGE_TO));
                    let mut ms = MultiSignature::new();
                    ms.add(dba_ref, &digest);
                    ms.add(alice_ref, &digest); // every member with journals before the cut
                    w.with_write(|l| l.purge(PURGE_TO, ms, &[], true)).unwrap();
                }
            }
            w.seal_block();
            done_ref.store(true, Ordering::Release);
        });

        // Readers: race the writer over snapshots and the shared API.
        for reader in 0..3u64 {
            let r = shared.clone();
            let done_ref = &done;
            let (proofs_ref, reads_ref) = (&snapshot_proofs, &shared_reads);
            scope.spawn(move || {
                let anchor = TrustedAnchor::default();
                let mut rng = 0x9e3779b97f4a7c15u64.wrapping_mul(reader + 1);
                while !done_ref.load(Ordering::Acquire) {
                    let snap = r.snapshot();
                    // Internal consistency: the snapshot's fam root IS
                    // the journal root of the LedgerInfo it names.
                    assert_eq!(snap.journal_root(), snap.info().journal_root);
                    if snap.journal_count() == 0 {
                        continue;
                    }
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let jsn = rng % snap.journal_count();

                    // Snapshot-pinned proof: must verify against the
                    // snapshot's own info, no matter how far the live
                    // ledger has moved on (or purged) meanwhile.
                    if snap.can_prove() {
                        match snap.prove_existence(jsn, &anchor) {
                            Ok((tx_hash, proof)) => {
                                FamTree::verify(
                                    &snap.info().journal_root,
                                    &anchor,
                                    &tx_hash,
                                    &proof,
                                )
                                .expect("snapshot proof verifies against its own info");
                                proofs_ref.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => assert!(tolerated(&e), "untyped proof failure: {e}"),
                        }
                    }
                    match snap.get_tx(jsn) {
                        Ok(journal) => assert_eq!(journal.jsn, jsn),
                        Err(e) => assert!(tolerated(&e), "untyped get_tx failure: {e}"),
                    }

                    // Shared front-end: hit the snapshot path for sealed
                    // jsns and the locked fallback for tail jsns.
                    match r.prove_existence(jsn, &anchor) {
                        Ok((tx_hash, _)) => {
                            assert_eq!(
                                r.tx_hash(jsn).expect("server-level check of a fresh proof"),
                                tx_hash
                            );
                            reads_ref.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => assert!(tolerated(&e), "untyped shared proof failure: {e}"),
                    }
                    match r.get_tx(jsn) {
                        Ok((journal, _payload)) => assert_eq!(journal.jsn, jsn),
                        Err(e) => assert!(tolerated(&e), "untyped shared get_tx failure: {e}"),
                    }
                    let _ = r.list_tx(&format!("clue-{}", jsn % 3));
                }
            });
        }
    });

    // The run exercised both paths for real.
    assert!(snapshot_proofs.load(Ordering::Relaxed) > 0, "no snapshot proof ever ran");
    assert!(shared_reads.load(Ordering::Relaxed) > 0, "no shared read ever ran");

    // Post-torture ground truth: occult and purge landed, the tail
    // sealed, and the final snapshot agrees with the live ledger.
    assert_eq!(shared.journal_count(), ROUNDS * PER_ROUND + 2); // + occult & purge journals
    assert!(matches!(shared.get_tx(OCCULT_TARGET), Err(LedgerError::Occulted(_))));
    assert!(matches!(shared.get_tx(5), Err(LedgerError::Purged(_))));
    let snap = shared.snapshot();
    assert_eq!(snap.journal_count(), shared.journal_count());
    assert_eq!(snap.journal_root(), shared.journal_root());
    let anchor = TrustedAnchor::default();
    let last = snap.journal_count() - 1;
    let (tx_hash, proof) = snap.prove_existence(last, &anchor).unwrap();
    FamTree::verify(&snap.info().journal_root, &anchor, &tx_hash, &proof).unwrap();
}
