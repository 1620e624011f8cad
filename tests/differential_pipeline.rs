//! Differential determinism suite for the append path.
//!
//! Every batched append enters through one function,
//! `SharedLedger::append_batch(requests, admission)`. This suite pins
//! what that entry must keep producing: for seeded schedules that
//! interleave batches, seals, occults and a purge, the fingerprint —
//! roots, the wire-encoded block chain, receipts, existence proofs —
//! equals a constant **recorded at the parent commit** (ece0059, the
//! last tree that still had the serial in-lock `append_batch` and the
//! `_pipelined` / `_preverified` variants; there, serial and parallel
//! replays produced these same bytes). It must hold for both
//! `Admission ∈ {Verify, ProxyTrusted}` (only `Verify` fans its ECDSA
//! out across threads), and for a plain `LedgerDb::append` + seal loop
//! that shares none of the batched code — the retained independent
//! reference.
//!
//! Plus the rejection contract (unknown member and bad π_c are
//! positional per-item errors) and panic torture: a failed item is a
//! typed per-item error that poisons neither its batch nor the ledger,
//! and a panic under the ledger lock does not wedge later batches.

use ledgerdb::core::{
    Admission, LedgerConfig, LedgerDb, LedgerError, MemberRegistry, OccultMode, SharedLedger,
    TxRequest,
};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::multisig::MultiSignature;
use ledgerdb::crypto::sha256::sha256;
use ledgerdb::crypto::wire::Wire;

/// `(schedule seed, block size, sha256 of the fingerprint)` — produced
/// by the parent commit's serial `append_batch` replay (and asserted
/// equal to its parallel replay there).
const PINNED: [(u64, u64, &str); 7] = [
    (3, 4, "15280b1c1a74b101eb3e0ca560577ef99539116ddf29a17a22a14e8c18589c1b"),
    (3, 16, "a476984bcead5cf1e4e8390e22332599107d7308d244e9246cea738577b811b9"),
    (17, 4, "952e86958c289cfebc9d1479bba859f4a53449f5dd381b23cc1b34d36da425fb"),
    (17, 16, "3d8f5a0e3019f81e8ffd7ed33af7499a9bc76cd138c6bb658c85570d473ddfc9"),
    (101, 4, "e4c26cbf132a372e2bee895951b14084261d866b51d70fc4b95712cbc6ac5b9f"),
    (101, 16, "67bc9a405802a29883dac14a9212951153be87c8c1886a93d0314f1991d20437"),
    (77, 8, "9a5d31b4101de669411e16350ee2d6c94d9310e3c55c3231edf51ba21b28d75a"),
];

/// The panic-torture schedule (8 sealed rounds of 6, block size 8),
/// likewise from the parent's serial replay.
const PINNED_TORTURE: &str = "e748d4ae3205ed9d621684cb5014e40d6e6a3a4b2be25ca6ab750ecec1405ea3";

struct World {
    shared: SharedLedger,
    alice: KeyPair,
    bob: KeyPair,
    dba: KeyPair,
    regulator: KeyPair,
}

fn world(block_size: u64) -> World {
    let ca = CertificateAuthority::from_seed(b"diff-ca");
    let alice = KeyPair::from_seed(b"diff-alice");
    let bob = KeyPair::from_seed(b"diff-bob");
    let dba = KeyPair::from_seed(b"diff-dba");
    let regulator = KeyPair::from_seed(b"diff-reg");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    registry.register(ca.issue("bob", Role::User, bob.public())).unwrap();
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
    registry.register(ca.issue("reg", Role::Regulator, regulator.public())).unwrap();
    let config = LedgerConfig { block_size, fam_delta: 6, name: "diff".into(), state_backend: Default::default() };
    World { shared: SharedLedger::new(LedgerDb::new(config, registry)), alice, bob, dba, regulator }
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// One deterministic randomized schedule: batches of varying size with
/// varying payloads/clues/signers, a seal after most batches, occults
/// of already-committed journals, and one purge partway through.
enum Op {
    Batch(Vec<TxRequest>),
    Seal,
    /// Occult the journal at this fraction (per-mille) of the committed
    /// prefix.
    Occult(u64),
    /// Purge up to this fraction (per-mille) of the committed prefix.
    Purge(u64),
}

fn schedule(w: &World, seed: u64) -> Vec<Op> {
    let mut rng = XorShift(seed.max(1));
    let mut ops = Vec::new();
    let mut serial = 0u64;
    for round in 0..12u64 {
        let batch_len = 1 + rng.next() % 24;
        let batch: Vec<TxRequest> = (0..batch_len)
            .map(|_| {
                let signer = if rng.next() % 3 == 0 { &w.bob } else { &w.alice };
                let payload_len = (rng.next() % 300) as usize;
                let payload: Vec<u8> =
                    (0..payload_len).map(|_| (rng.next() & 0xFF) as u8).collect();
                let clues = match rng.next() % 4 {
                    0 => vec![],
                    1 => vec![format!("c{}", rng.next() % 5)],
                    _ => vec![format!("c{}", rng.next() % 5), format!("d{}", rng.next() % 3)],
                };
                serial += 1;
                TxRequest::signed(signer, payload, clues, seed << 20 | serial)
            })
            .collect();
        ops.push(Op::Batch(batch));
        if rng.next() % 4 != 0 {
            ops.push(Op::Seal);
        }
        if round >= 2 && rng.next() % 3 == 0 {
            ops.push(Op::Occult(rng.next() % 1000));
        }
        if round == 7 {
            ops.push(Op::Purge(200 + rng.next() % 300));
        }
    }
    ops.push(Op::Seal);
    ops
}

/// How a replay feeds a schedule's batches to the ledger.
enum Feed {
    /// The single batched entry.
    Batched(Admission),
    /// One `LedgerDb::append` per request under the write lock — no
    /// prepare stage, no batch commit, no shared barrier.
    Reference,
}

/// Replay `ops` against `w`.
fn replay(w: &World, ops: &[Op], feed: &Feed) {
    let mut occulted = std::collections::HashSet::new();
    let mut purged_to = 0u64;
    for op in ops {
        match op {
            Op::Batch(requests) => match feed {
                Feed::Batched(admission) => {
                    let results = w.shared.append_batch(requests.clone(), *admission).unwrap();
                    for r in results {
                        r.unwrap();
                    }
                }
                Feed::Reference => w.shared.with_write(|l| {
                    for request in requests {
                        l.append(request.clone()).unwrap();
                    }
                }),
            },
            Op::Seal => w.shared.try_seal_block().unwrap(),
            Op::Occult(mille) => {
                let count = w.shared.journal_count();
                let target = count * mille / 1000;
                // Deterministic skip of already-mutated targets keeps
                // the twins in lockstep without tracking ledger errors.
                if target < purged_to || !occulted.insert(target) {
                    continue;
                }
                w.shared.with_write(|l| {
                    if l.is_occulted(target) {
                        return; // occult journals can land on marked jsns
                    }
                    let digest = l.occult_approval_digest(target);
                    let mut ms = MultiSignature::new();
                    ms.add(&w.dba, &digest);
                    ms.add(&w.regulator, &digest);
                    l.occult(target, ms, OccultMode::Sync).unwrap();
                });
            }
            Op::Purge(mille) => {
                let count = w.shared.journal_count();
                let purge_to = (count * mille / 1000).max(purged_to + 1);
                w.shared.with_write(|l| {
                    let digest = l.purge_approval_digest(purge_to);
                    let mut ms = MultiSignature::new();
                    ms.add(&w.dba, &digest);
                    ms.add(&w.alice, &digest);
                    ms.add(&w.bob, &digest);
                    // Pin one survivor that the purge would erase.
                    l.purge(purge_to, ms, &[purge_to / 2], false).unwrap();
                });
                purged_to = purge_to;
            }
        }
    }
}

/// Every externally observable byte of the ledger: roots, the full
/// block chain (wire-encoded), receipts, and existence proofs for a
/// deterministic jsn sample.
fn fingerprint(w: &World) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&w.shared.journal_root().0);
    out.extend_from_slice(&w.shared.clue_root().0);
    out.extend_from_slice(&w.shared.anchor().to_wire());
    let blocks = w.shared.blocks_from(0, u64::MAX);
    for block in &blocks {
        out.extend_from_slice(&block.hash().0);
        out.extend_from_slice(&block.to_wire());
    }
    let sealed = blocks.last().map(|b| b.first_jsn + b.journal_count).unwrap_or(0);
    let anchor = w.shared.anchor();
    for jsn in (0..sealed).step_by(7) {
        if let Ok(Some(receipt)) = w.shared.receipt(jsn) {
            out.extend_from_slice(&receipt.to_wire());
        }
        match w.shared.prove_existence(jsn, &anchor) {
            Ok((tx_hash, proof)) => {
                out.extend_from_slice(&tx_hash.0);
                out.extend_from_slice(&proof.to_wire());
            }
            Err(_) => out.push(0xEE), // purged/occulted: same on both twins
        }
    }
    out
}

fn pin(w: &World) -> String {
    sha256(&fingerprint(w)).0.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_admission_reproduces_the_parent_fingerprints() {
    for (seed, block_size, pinned) in PINNED {
        for admission in [Admission::Verify, Admission::ProxyTrusted] {
            let w = world(block_size);
            let ops = schedule(&w, seed);
            replay(&w, &ops, &Feed::Batched(admission));
            assert_eq!(pin(&w), pinned, "seed {seed}, block_size {block_size}, {admission:?}");
        }
    }
}

#[test]
fn plain_append_loop_reproduces_the_parent_fingerprints() {
    // The independent reference: the same schedules through
    // `LedgerDb::append`, which shares no code with the batched entry
    // above `commit_journal`.
    for (seed, block_size, pinned) in PINNED {
        let w = world(block_size);
        let ops = schedule(&w, seed);
        replay(&w, &ops, &Feed::Reference);
        assert_eq!(pin(&w), pinned, "seed {seed}, block_size {block_size}");
    }
}

#[test]
fn rejections_are_positional_under_both_admissions() {
    for admission in [Admission::Verify, Admission::ProxyTrusted] {
        let w = world(16);
        let mallory = KeyPair::from_seed(b"diff-mallory");
        let tx = |keys: &KeyPair, i: u64| {
            TxRequest::signed(keys, format!("p-{i}").into_bytes(), vec!["c".into()], i)
        };
        let mut tampered = tx(&w.alice, 2);
        tampered.payload = b"tampered in flight".to_vec();
        let batch = vec![tx(&w.alice, 0), tx(&mallory, 1), tampered, tx(&w.bob, 3)];
        let results = w.shared.append_batch(batch, admission).unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].as_ref().unwrap().jsn, 0);
        // Membership is enforced whoever checked π_c.
        assert!(matches!(results[1], Err(LedgerError::UnknownMember)), "{admission:?}");
        match admission {
            // The server checks π_c itself: the tampered request is
            // refused in place and consumes no jsn.
            Admission::Verify => {
                assert!(matches!(results[2], Err(LedgerError::BadClientSignature)));
                assert_eq!(results[3].as_ref().unwrap().jsn, 1);
            }
            // π_c is the proxy tier's job: the kernel does not look.
            Admission::ProxyTrusted => {
                assert_eq!(results[2].as_ref().unwrap().jsn, 1);
                assert_eq!(results[3].as_ref().unwrap().jsn, 2);
            }
        }
        let accepted = results.iter().filter(|r| r.is_ok()).count() as u64;
        assert_eq!(w.shared.journal_count(), accepted, "rejections consumed no slot");
    }
}

#[test]
fn member_dropped_between_prepare_and_lock_is_rejected_in_place() {
    // Off-lock admission reads the registry frozen into the last
    // published snapshot; the live registry can change before the lock
    // is taken. Dropping bob from the live registry without a publish
    // reproduces exactly that window: prepare admits him, the locked
    // membership re-check refuses him, and alice's items are unaffected.
    for admission in [Admission::Verify, Admission::ProxyTrusted] {
        let w = world(16);
        w.shared.with_write(|l| {
            let ca = CertificateAuthority::from_seed(b"diff-ca");
            let mut without_bob = MemberRegistry::new(*ca.public_key());
            without_bob.register(ca.issue("alice", Role::User, w.alice.public())).unwrap();
            *l.registry_mut() = without_bob;
        });
        assert!(
            w.shared.verify_request(&TxRequest::signed(&w.bob, vec![1], vec![], 9)).is_ok(),
            "the snapshot registry still admits bob off-lock"
        );
        let batch = vec![
            TxRequest::signed(&w.alice, b"a0".to_vec(), vec![], 0),
            TxRequest::signed(&w.bob, b"b1".to_vec(), vec![], 1),
            TxRequest::signed(&w.alice, b"a2".to_vec(), vec![], 2),
        ];
        let results = w.shared.append_batch(batch, admission).unwrap();
        assert_eq!(results[0].as_ref().unwrap().jsn, 0);
        assert!(matches!(results[1], Err(LedgerError::UnknownMember)), "{admission:?}");
        assert_eq!(results[2].as_ref().unwrap().jsn, 1);
        assert_eq!(w.shared.journal_count(), 2);
    }
}

#[test]
fn injected_task_failure_is_typed_and_does_not_poison_the_batch() {
    // A panicking admission item reaches the kernel entry as a per-item
    // `LedgerError::TaskFailed`; siblings commit with dense jsns.
    let w = world(16);
    let good = |i: u64| {
        Ok(ledgerdb::core::PreparedTx::compute(TxRequest::signed(
            &w.alice,
            format!("ok-{i}").into_bytes(),
            vec![],
            i,
        )))
    };
    let prepared = vec![
        good(0),
        Err(LedgerError::TaskFailed("worker panicked: boom".into())),
        good(2),
    ];
    let results = w.shared.with_write(|l| l.append_batch_prepared(prepared)).unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].as_ref().unwrap().jsn, 0);
    assert!(matches!(results[1], Err(LedgerError::TaskFailed(_))));
    assert_eq!(results[2].as_ref().unwrap().jsn, 1, "failed item must not consume a jsn");
    assert_eq!(w.shared.journal_count(), 2);
    // The ledger keeps working afterwards.
    w.shared
        .append(TxRequest::signed(&w.alice, b"after".to_vec(), vec![], 99))
        .unwrap();
    assert_eq!(w.shared.journal_count(), 3);
}

#[test]
fn panics_under_the_ledger_lock_do_not_wedge_the_ledger() {
    // Torture: panic while holding the ledger's write lock between
    // batches (poisoning the std lock underneath). Every batch must
    // still fan its admission out and commit, and the final ledger must
    // match the pinned bytes.
    let w = world(8);
    for round in 0..8u64 {
        let batch: Vec<TxRequest> = (0..6u64)
            .map(|i| {
                TxRequest::signed(
                    &w.alice,
                    format!("t-{round}-{i}").into_bytes(),
                    vec![format!("t{}", i % 2)],
                    round * 100 + i,
                )
            })
            .collect();

        let stormed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.shared.with_write(|_| panic!("torture round {round}"));
        }));
        assert!(stormed.is_err(), "the panic must reach the caller");

        let results = w.shared.append_batch(batch, Admission::Verify).unwrap();
        for r in results {
            r.unwrap();
        }
        w.shared.try_seal_block().unwrap();
    }
    assert_eq!(pin(&w), PINNED_TORTURE);
}
