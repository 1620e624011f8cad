//! End-to-end tests for the `ledgerd` service layer: concurrent
//! writers/readers over `SharedLedger` (group-commit and plain commit
//! paths), and the full distrusting round trip over TCP — including a
//! server kill + durable recovery with receipts that must keep
//! verifying client-side.

use ledgerdb::core::client::LedgerClient;
use ledgerdb::core::recovery::open_durable;
use ledgerdb::core::{LedgerConfig, LedgerDb, MemberRegistry, SharedLedger, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::server::batcher::CommitOutcome;
use ledgerdb::server::{Admission, BatchConfig, GroupCommitter, Ledgerd, RemoteLedger, ServerConfig};
use ledgerdb::storage::FsyncPolicy;
use ledgerdb::telemetry::Registry;
use ledgerdb::timesvc::clock::SimClock;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn registry(seed: &str) -> (MemberRegistry, KeyPair) {
    let ca = CertificateAuthority::from_seed(seed.as_bytes());
    let alice = KeyPair::from_seed(format!("{seed}-alice").as_bytes());
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    (registry, alice)
}

fn mem_shared(seed: &str, block_size: u64) -> (SharedLedger, KeyPair) {
    let (registry, alice) = registry(seed);
    let config = LedgerConfig { block_size, fam_delta: 15, name: format!("it-{seed}"), state_backend: Default::default() };
    (SharedLedger::new(LedgerDb::new(config, registry)), alice)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ledgerdb-it-server-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Satellite: N writers + M readers against one `SharedLedger`. Writers
/// push committed transactions (receipts issued under load); readers
/// hammer the proof path concurrently. Afterwards a distrusting client
/// replays the chain and every issued receipt must verify against it.
fn writers_and_readers(use_group_commit: bool) {
    const WRITERS: usize = 4;
    const READERS: usize = 3;
    const PER_WRITER: u64 = 25;

    let seed = if use_group_commit { "wr-batch" } else { "wr-plain" };
    let (shared, alice) = mem_shared(seed, 8);
    let committer = use_group_commit.then(|| {
        GroupCommitter::start(
            shared.clone(),
            BatchConfig { max_batch: 16, max_delay: Duration::from_millis(2) },
            Admission::Verify,
            Registry::global(),
        )
    });
    let done = AtomicBool::new(false);

    let receipts = std::thread::scope(|scope| {
        let writer_handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let shared = shared.clone();
                let committer = committer.as_ref();
                let alice = &alice;
                scope.spawn(move || {
                    (0..PER_WRITER)
                        .map(|i| {
                            let req = TxRequest::signed(
                                alice,
                                format!("w{w}-{i}").into_bytes(),
                                vec![format!("writer-{w}")],
                                (w as u64) * 10_000 + i,
                            );
                            match committer {
                                Some(c) => match c.submit(req, true).unwrap() {
                                    CommitOutcome::Committed(receipt) => receipt,
                                    other => panic!("expected receipt, got {other:?}"),
                                },
                                None => shared.append_committed(req).unwrap(),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for r in 0..READERS {
            let shared = shared.clone();
            let done = &done;
            scope.spawn(move || {
                let mut probes = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let count = shared.journal_count();
                    if count == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    // Snapshot an anchor, prove a jsn under it, and the
                    // proven tx-hash must be the one the ledger holds
                    // (the server manner of `Request::Verify`).
                    let jsn = (r as u64 * 31 + probes * 7) % count;
                    let anchor = shared.anchor();
                    if let Ok((tx_hash, _)) = shared.prove_existence(jsn, &anchor) {
                        assert_eq!(shared.tx_hash(jsn).unwrap(), tx_hash);
                    }
                    probes += 1;
                }
                assert!(probes > 0, "reader {r} never ran");
            });
        }
        let receipts: Vec<_> = writer_handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        done.store(true, Ordering::Relaxed);
        receipts
    });
    if let Some(c) = &committer {
        c.shutdown();
    }

    assert_eq!(receipts.len(), WRITERS * PER_WRITER as usize);
    assert_eq!(shared.journal_count(), WRITERS as u64 * PER_WRITER);

    // A distrusting replica replays the chain; every receipt issued
    // under concurrency must verify against the final verified state.
    let mut client = LedgerClient::new(shared.lsp_public_key(), shared.fam_delta());
    client.sync(&shared.blocks_from(0, u64::MAX)).unwrap();
    assert_eq!(client.verified_journals(), WRITERS as u64 * PER_WRITER);
    for receipt in &receipts {
        client.verify_receipt(receipt).unwrap();
    }
}

#[test]
fn concurrent_writers_and_readers_group_commit() {
    writers_and_readers(true);
}

#[test]
fn concurrent_writers_and_readers_plain_commit() {
    writers_and_readers(false);
}

/// Acceptance: acked receipts keep verifying through a fresh
/// `RemoteLedger` after the server dies and the ledger recovers from
/// disk.
#[test]
fn remote_receipts_survive_server_restart_and_recovery() {
    const N: u64 = 12;
    let dir = temp_dir("restart");
    let seed = "restart";
    let config = || LedgerConfig { block_size: 4, fam_delta: 15, name: "it-restart".into(), state_backend: Default::default() };

    // Generation 1: durable ledger behind a group-commit server. The
    // streams run at fsync=never — the batcher supplies the barrier.
    let (registry1, alice) = registry(seed);
    let (ledger, report) = open_durable(
        config(),
        registry1,
        &dir,
        FsyncPolicy::Never,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    assert!(report.is_clean());
    let server = Ledgerd::start(
        SharedLedger::new(ledger),
        ServerConfig::default(),
    )
    .unwrap();

    let mut remote = RemoteLedger::connect(server.local_addr()).unwrap();
    let receipts: Vec<_> = (0..N)
        .map(|i| {
            remote
                .append_committed_verified(TxRequest::signed(
                    &alice,
                    format!("persist-{i}").into_bytes(),
                    vec!["persist".into()],
                    i,
                ))
                .unwrap()
        })
        .collect();
    // Proofs work pre-restart too.
    let (tx_hash, proof) = remote.prove(N / 2).unwrap();
    remote.server_verify(N / 2, tx_hash, proof).unwrap();
    drop(remote);
    server.shutdown();
    drop(server);

    // Generation 2: recover from disk — every acked journal must be
    // there, cleanly.
    let (registry2, _) = registry(seed);
    let (ledger, report) = open_durable(
        config(),
        registry2,
        &dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
    )
    .unwrap();
    assert!(report.is_clean(), "recovery after graceful kill must be clean: {report:?}");
    assert_eq!(ledger.journal_count(), N);

    let server = Ledgerd::start(SharedLedger::new(ledger), ServerConfig::default()).unwrap();
    let mut remote = RemoteLedger::connect(server.local_addr()).unwrap();
    remote.sync().unwrap();
    assert_eq!(remote.client().verified_journals(), N);
    // The receipts issued by the dead server verify against the chain
    // the fresh distrusting client replayed from the recovered ledger.
    for receipt in &receipts {
        remote.client().verify_receipt(receipt).unwrap();
    }
    // And the journals are still provable against the new client's
    // own anchor.
    for jsn in 0..N {
        remote.prove(jsn).unwrap();
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The group-commit ack contract under load: a burst of concurrent
/// remote appenders, every ack durable, totals exact.
#[test]
fn concurrent_remote_clients_group_commit() {
    const CLIENTS: usize = 6;
    const PER_CLIENT: u64 = 10;
    let (shared, alice) = mem_shared("remote-burst", 16);
    let server = Ledgerd::start(
        shared.clone(),
        ServerConfig {
            batch: BatchConfig { max_batch: 32, max_delay: Duration::from_millis(2) },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut jsns: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let alice = &alice;
                scope.spawn(move || {
                    let mut remote = RemoteLedger::connect(addr).unwrap();
                    (0..PER_CLIENT)
                        .map(|i| {
                            let (jsn, _) = remote
                                .append(TxRequest::signed(
                                    alice,
                                    format!("c{c}-{i}").into_bytes(),
                                    vec![],
                                    (c as u64) * 1000 + i,
                                ))
                                .unwrap();
                            jsn
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    jsns.sort_unstable();
    let expect: Vec<u64> = (0..CLIENTS as u64 * PER_CLIENT).collect();
    assert_eq!(jsns, expect, "every ack names a distinct jsn, no gaps");
    server.shutdown();
    assert_eq!(shared.journal_count(), CLIENTS as u64 * PER_CLIENT);
}
