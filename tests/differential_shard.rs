//! Differential determinism suite for the sharded deployment.
//!
//! Three invariants pin the tentpole contract:
//!
//! 1. **K=1 equivalence** — a `RequestService` serving
//!    `ShardedLedger::single` must produce responses byte-identical to
//!    direct operations on an identically-seeded plain `SharedLedger`:
//!    same acks, same unpacked jsns, same proofs, same blocks. The
//!    sharded dispatch at K=1 is the identity, not a near-miss.
//! 2. **Run determinism** — the same schedule through two K=4
//!    deployments yields byte-identical per-shard fingerprints.
//! 3. **Interleaving independence** — reordering appends *across*
//!    shards (preserving each shard's own order) changes nothing: the
//!    per-shard fingerprints and the composed top root are identical.
//!
//! Occults and a purge ride in the schedule so mutation paths are
//! pinned too, not just the append path.

use ledgerdb::core::{
    route_clue_str, Admission, LedgerConfig, LedgerDb, MemberRegistry, OccultMode, ShardedLedger,
    SharedLedger, TxRequest,
};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::multisig::MultiSignature;
use ledgerdb::crypto::wire::Wire;
use ledgerdb::server::protocol::{Request, Response};
use ledgerdb::server::{AppendedAck, ProofItem, RequestService, ServerConfig};
use ledgerdb::storage::{Fault, FaultStore, FileStreamStore};
use ledgerdb::timesvc::clock::SimClock;
use ledgerdb::telemetry::Registry;

struct Members {
    alice: KeyPair,
    dba: KeyPair,
    regulator: KeyPair,
}

fn members() -> (MemberRegistry, Members) {
    let ca = CertificateAuthority::from_seed(b"shard-diff-ca");
    let alice = KeyPair::from_seed(b"shard-diff-alice");
    let dba = KeyPair::from_seed(b"shard-diff-dba");
    let regulator = KeyPair::from_seed(b"shard-diff-reg");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    registry.register(ca.issue("dba", Role::Dba, dba.public())).unwrap();
    registry.register(ca.issue("reg", Role::Regulator, regulator.public())).unwrap();
    (registry, Members { alice, dba, regulator })
}

fn shard_ledger(block_size: u64) -> SharedLedger {
    let (registry, _) = members();
    let config = LedgerConfig { block_size, fam_delta: 6, name: "shard-diff".into(), state_backend: Default::default() };
    SharedLedger::new(LedgerDb::new(config, registry))
}

fn sharded(k: usize, block_size: u64) -> ShardedLedger {
    ShardedLedger::new((0..k).map(|_| shard_ledger(block_size)).collect()).unwrap()
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

/// A deterministic clue-spread transaction schedule. Every tx carries a
/// clue, so routing is by clue hash and reproducible without a ledger.
fn schedule(m: &Members, seed: u64, n: u64) -> Vec<TxRequest> {
    let mut rng = XorShift(seed.max(1));
    (0..n)
        .map(|i| {
            let payload: Vec<u8> = (0..(rng.next() % 120)).map(|_| (rng.next() & 0xFF) as u8).collect();
            let clue = format!("clue-{}", rng.next() % 17);
            TxRequest::signed(&m.alice, payload, vec![clue], seed << 20 | i)
        })
        .collect()
}

/// Every externally observable byte of one shard: roots, the wire-coded
/// block chain, receipts, and a proof sample.
fn shard_fingerprint(shared: &SharedLedger) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&shared.journal_root().0);
    out.extend_from_slice(&shared.clue_root().0);
    out.extend_from_slice(&shared.anchor().to_wire());
    let blocks = shared.blocks_from(0, u64::MAX);
    for block in &blocks {
        out.extend_from_slice(&block.hash().0);
        out.extend_from_slice(&block.to_wire());
    }
    let sealed = blocks.last().map(|b| b.first_jsn + b.journal_count).unwrap_or(0);
    let anchor = shared.anchor();
    for jsn in 0..sealed {
        match shared.prove_existence(jsn, &anchor) {
            Ok((tx_hash, proof)) => {
                out.extend_from_slice(&tx_hash.0);
                out.extend_from_slice(&proof.to_wire());
            }
            Err(_) => out.push(0xEE), // occulted/purged: same on twins
        }
    }
    out
}

/// Deterministic occult + purge mix against shard 0 of a deployment
/// (or the only ledger at K=1), after `sealed` journals exist there.
fn mutate(shared: &SharedLedger, m: &Members) {
    let count = shared.journal_count();
    if count < 4 {
        return;
    }
    let occult_target = count / 2;
    shared.with_write(|l| {
        if !l.is_occulted(occult_target) {
            let digest = l.occult_approval_digest(occult_target);
            let mut ms = MultiSignature::new();
            ms.add(&m.dba, &digest);
            ms.add(&m.regulator, &digest);
            l.occult(occult_target, ms, OccultMode::Sync).unwrap();
        }
    });
    let purge_to = count / 4;
    if purge_to > 0 {
        shared.with_write(|l| {
            let digest = l.purge_approval_digest(purge_to);
            let mut ms = MultiSignature::new();
            ms.add(&m.dba, &digest);
            ms.add(&m.alice, &digest);
            l.purge(purge_to, ms, &[], false).unwrap();
        });
    }
}

#[test]
fn k1_sharded_service_is_byte_identical_to_a_plain_ledger() {
    let (_, m) = members();
    let txs = schedule(&m, 42, 40);

    // Twin A: the K=1 sharded service (what `Ledgerd::start` now runs).
    let service_ledger = shard_ledger(8);
    let config = ServerConfig { registry: std::sync::Arc::new(Registry::new()), ..ServerConfig::default() };
    let service =
        RequestService::start_sharded(ShardedLedger::single(service_ledger.clone()), &config);

    // Twin B: direct operations on a plain, identically seeded ledger.
    let direct = shard_ledger(8);

    let (singles, framed) = txs.split_at(24);
    for tx in singles {
        let response = service.handle(Request::Append(tx.clone()));
        let ack = direct.append(tx.clone()).unwrap();
        match response {
            Response::Appended { jsn, tx_hash } => {
                assert_eq!(jsn, ack.jsn, "K=1 jsns must be unpacked (identity)");
                assert_eq!(tx_hash, ack.tx_hash);
            }
            other => panic!("append must ack, got {other:?}"),
        }
    }
    // A pre-batched frame runs the scatter/gather code with one shard:
    // its acks must be the plain ledger's, position for position.
    let acks = direct.append_batch(framed.to_vec(), Admission::Verify).unwrap();
    let expected = Response::AppendBatchResult(
        acks.into_iter()
            .map(|ack| ack.map(|a| AppendedAck { jsn: a.jsn, tx_hash: a.tx_hash }).map_err(|e| {
                ledgerdb::server::ErrorFrame::from_ledger_error(&e)
            }))
            .collect(),
    );
    let served = service.handle(Request::AppendBatch(framed.to_vec()));
    assert_eq!(served.to_wire(), expected.to_wire(), "K=1 batch acks diverged");
    mutate(&service_ledger, &m);
    mutate(&direct, &m);
    service_ledger.seal_block();
    direct.seal_block();

    // Read-path responses must be byte-identical to ones recomputed
    // from the plain ledger.
    let anchor = direct.anchor();
    for jsn in 0..direct.journal_count() {
        let served = service.handle(Request::GetProof { jsn, anchor: anchor.clone() }).to_wire();
        let expected = match direct.prove_existence(jsn, &anchor) {
            Ok((tx_hash, proof)) => Response::Proof { tx_hash, proof }.to_wire(),
            Err(_) => {
                // Typed errors are compared structurally (code+detail
                // ride in the frame); served bytes must still be an
                // error frame, not a proof.
                assert!(
                    matches!(
                        Response::from_wire(&served).unwrap(),
                        Response::Error(_)
                    ),
                    "jsn {jsn}: mutated journal must serve a typed error"
                );
                continue;
            }
        };
        assert_eq!(served, expected, "jsn {jsn}: K=1 proof bytes diverged");
    }
    // The batched proof path groups by shard even at K=1: same bytes as
    // the plain ledger's own batch, errors in place.
    let jsns: Vec<u64> = (0..direct.journal_count() + 2).collect();
    let served = service.handle(Request::GetProofBatch { jsns: jsns.clone(), anchor: anchor.clone() });
    let expected = Response::ProofBatch(
        direct
            .prove_existence_batch(&jsns, &anchor)
            .into_iter()
            .map(|item| {
                item.map(|(tx_hash, proof)| ProofItem { tx_hash, proof })
                    .map_err(|e| ledgerdb::server::ErrorFrame::from_ledger_error(&e))
            })
            .collect(),
    );
    assert_eq!(served.to_wire(), expected.to_wire(), "K=1 proof batch diverged");
    for clue in (0..17).map(|c| format!("clue-{c}")) {
        let served = service.handle(Request::ListTx(clue.clone())).to_wire();
        let expected = Response::TxList(direct.list_tx(&clue)).to_wire();
        assert_eq!(served, expected, "clue {clue}: K=1 list bytes diverged");
    }
    let served = service.handle(Request::GetBlockFeed { from_height: 0, max_blocks: u64::MAX });
    let expected = Response::BlockFeed(direct.blocks_from(0, u64::MAX)).to_wire();
    assert_eq!(served.to_wire(), expected, "K=1 block feed diverged");

    // And the two underlying ledgers are bit-identical.
    assert_eq!(
        shard_fingerprint(&service_ledger),
        shard_fingerprint(&direct),
        "K=1 sharded service must leave the ledger byte-identical to direct use"
    );
    service.finish_drain(true);
}

/// Replay `txs` into a K-shard deployment in the given order, then
/// mutate shard 0, seal everything, and cut one epoch.
fn replay(deployment: &ShardedLedger, m: &Members, txs: &[TxRequest]) {
    for tx in txs {
        let shard = deployment.route(tx);
        deployment.shard(shard).append(tx.clone()).unwrap();
    }
    mutate(deployment.shard(0), m);
    deployment.seal_all();
    deployment.ensure_epoch().expect("sealing produced anchorable heights");
}

#[test]
fn k4_runs_are_deterministic_and_interleaving_independent() {
    let (_, m) = members();
    let txs = schedule(&m, 7, 120);

    let run1 = sharded(4, 8);
    let run2 = sharded(4, 8);
    replay(&run1, &m, &txs);
    replay(&run2, &m, &txs);

    // Same schedule, two runs: byte-identical shards and top roots.
    for shard in 0..4 {
        assert_eq!(
            shard_fingerprint(run1.shard(shard)),
            shard_fingerprint(run2.shard(shard)),
            "shard {shard} fingerprint diverged across identical runs"
        );
    }
    assert_eq!(run1.top_root(), run2.top_root());

    // Run 3 appends in a different *inter-shard* interleaving: all
    // shard-3 traffic first, then 2, 1, 0 — but each shard still sees
    // its own txs in the original relative order. Nothing observable
    // may change.
    let mut regrouped: Vec<TxRequest> = Vec::with_capacity(txs.len());
    for shard in (0..4usize).rev() {
        regrouped.extend(
            txs.iter()
                .filter(|tx| route_clue_str(&tx.clues[0], 4) == shard)
                .cloned(),
        );
    }
    assert_eq!(regrouped.len(), txs.len(), "regrouping must lose nothing");
    let run3 = sharded(4, 8);
    replay(&run3, &m, &regrouped);
    for shard in 0..4 {
        assert_eq!(
            shard_fingerprint(run1.shard(shard)),
            shard_fingerprint(run3.shard(shard)),
            "shard {shard} fingerprint depends on inter-shard interleaving"
        );
    }
    assert_eq!(
        run1.top_root(),
        run3.top_root(),
        "composed top root depends on inter-shard interleaving"
    );
}

fn fault_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ledgerdb-shard-fault-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A shard ledger whose payload stream fails its first write, once.
fn faulty_shard(dir: &std::path::Path) -> SharedLedger {
    let (registry, _) = members();
    let store = FaultStore::new(
        FileStreamStore::create(&dir.join("payload.log")).unwrap(),
        vec![Fault::AppendIoError { nth: 1 }],
    );
    let config = LedgerConfig { block_size: 64, fam_delta: 6, name: "shard-diff".into(), state_backend: Default::default() };
    SharedLedger::new(LedgerDb::with_parts(
        config,
        registry,
        std::sync::Arc::new(store),
        std::sync::Arc::new(SimClock::new()),
    ))
}

#[test]
fn a_failed_shard_reports_on_its_own_items_and_the_other_shards_acks_stand() {
    // K=2, shard 1's payload stream fails its first write. A frame
    // spanning both shards must ack shard 0's items (they are durable)
    // and carry shard 1's failure on exactly shard 1's positions — a
    // whole-frame error would make the client retry, and duplicate,
    // shard 0's half.
    let (_, m) = members();
    let dir = fault_dir("spanning");
    let deployment = ShardedLedger::new(vec![shard_ledger(64), faulty_shard(&dir)]).unwrap();
    let service_config = ServerConfig {
        registry: std::sync::Arc::new(Registry::new()),
        ..ServerConfig::default()
    };
    let service = RequestService::start_sharded(deployment.clone(), &service_config);

    let txs = schedule(&m, 9, 24);
    let routes: Vec<usize> = txs.iter().map(|tx| deployment.route(tx)).collect();
    let on_shard = |s: usize| routes.iter().filter(|&&r| r == s).count() as u64;
    assert!(on_shard(0) > 0 && on_shard(1) > 0, "the frame spans both shards");

    let results = match service.handle(Request::AppendBatch(txs.clone())) {
        Response::AppendBatchResult(results) => results,
        other => panic!("a partly committed frame must answer per item, got {other:?}"),
    };
    assert_eq!(results.len(), txs.len());
    for (i, (result, &route)) in results.iter().zip(&routes).enumerate() {
        match route {
            0 => {
                let ack = result.as_ref().unwrap_or_else(|e| panic!("item {i} on shard 0: {e}"));
                assert_eq!(deployment.unpack(ack.jsn).unwrap().0, 0);
            }
            _ => assert!(result.is_err(), "item {i} on the failed shard was acked"),
        }
    }
    assert_eq!(deployment.shard(0).journal_count(), on_shard(0));
    assert_eq!(deployment.shard(1).journal_count(), 0);

    // The client retries exactly the refused items: they commit, and
    // shard 0 holds no duplicates.
    let retry: Vec<TxRequest> =
        txs.iter().zip(&results).filter(|(_, r)| r.is_err()).map(|(tx, _)| tx.clone()).collect();
    match service.handle(Request::AppendBatch(retry)) {
        Response::AppendBatchResult(results) => assert!(results.iter().all(|r| r.is_ok())),
        other => panic!("retry must ack, got {other:?}"),
    }
    assert_eq!(deployment.shard(0).journal_count(), on_shard(0));
    assert_eq!(deployment.shard(1).journal_count(), on_shard(1));
    service.finish_drain(true);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_frame_that_commits_nothing_answers_with_one_error() {
    // The whole-frame error a single-shard server has always given when
    // its batch fails: nothing is durable, so nothing is positional.
    let (_, m) = members();
    let dir = fault_dir("single");
    let only = faulty_shard(&dir);
    let service_config = ServerConfig {
        registry: std::sync::Arc::new(Registry::new()),
        ..ServerConfig::default()
    };
    let service = RequestService::start(only.clone(), &service_config);
    let response = service.handle(Request::AppendBatch(schedule(&m, 9, 8)));
    assert!(matches!(response, Response::Error(_)), "got {response:?}");
    assert_eq!(only.journal_count(), 0);
    service.finish_drain(true);
    std::fs::remove_dir_all(&dir).ok();
}
