//! Durability and recovery profiling helper (not a paper figure).
//!
//! Measures the price of the crash-consistent stream layer: durable
//! append throughput under each fsync policy, recovery replay
//! throughput (journals/second to rebuild the full kernel — fam tree,
//! CM-Tree, MPT, block verification — from the reopened WAL), and the
//! checkpointed-restart A/B: the same history reopened with and without
//! a committed checkpoint, hard-asserting that the checkpointed restart
//! replays O(tail) WAL records instead of O(history).
//!
//! ```text
//! prof_recovery [--checkpoint-ab]
//! ```
//!
//! `--checkpoint-ab` runs only the gating A/B (verify.sh's stage).

use ledgerdb_bench::{banner, fmt_latency, fmt_tps, row, throughput, timed, XorShift};
use ledgerdb_core::recovery::{open_durable, CHECKPOINT_DIR};
use ledgerdb_core::{LedgerConfig, MemberRegistry, TxRequest};
use ledgerdb_crypto::ca::{CertificateAuthority, Role};
use ledgerdb_crypto::keys::KeyPair;
use ledgerdb_storage::checkpoint::{CheckpointStore, CkptIo};
use ledgerdb_storage::FsyncPolicy;
use ledgerdb_timesvc::clock::SimClock;
use std::path::PathBuf;
use std::sync::Arc;

fn registry() -> (MemberRegistry, KeyPair) {
    let ca = CertificateAuthority::from_seed(b"prof-rec-ca");
    let alice = KeyPair::from_seed(b"prof-rec-alice");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    (registry, alice)
}

fn config() -> LedgerConfig {
    LedgerConfig { block_size: 256, fam_delta: 15, name: "prof-recovery".into(), state_backend: Default::default() }
}

fn requests(alice: &KeyPair, n: u64, payload_len: usize) -> Vec<TxRequest> {
    let mut rng = XorShift::new(42);
    (0..n)
        .map(|i| TxRequest::signed(alice, rng.payload(payload_len), vec![format!("c{}", i % 64)], i))
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ledgerdb-prof-rec-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Build a durable ledger with `n` journals at `dir` and drop it.
fn build(dir: &PathBuf, n: u64, policy: FsyncPolicy) {
    let (registry, alice) = registry();
    let (mut ledger, _) =
        open_durable(config(), registry, dir, policy, Arc::new(SimClock::new())).unwrap();
    for r in requests(&alice, n, 256) {
        ledger.append_preverified(r).unwrap();
    }
    ledger.seal_block();
    assert!(ledger.durability_error().is_none());
}

/// The gating A/B: one history reopened twice — once from the raw WAL
/// (O(history) replay), once from a committed checkpoint plus an
/// unsealed tail (O(tail) replay). Asserts the bound and prints both
/// cells.
fn checkpoint_ab(n: u64, tail: u64) {
    banner(&format!("Checkpointed restart A/B (history {n}, tail {tail})"));
    let (registry, alice) = registry();

    // Cell A: no checkpoint — the restart replays the whole history.
    let dir_a = temp_dir("ab-wal");
    build(&dir_a, n, FsyncPolicy::Never);
    let ((ledger_a, report_a), secs_a) = timed(|| {
        open_durable(config(), registry.clone(), &dir_a, FsyncPolicy::Always, Arc::new(SimClock::new()))
            .unwrap()
    });
    assert!(report_a.checkpoint.is_none());
    assert_eq!(report_a.journals_replayed, n, "the baseline replays everything");
    assert_eq!(ledger_a.journal_count(), n);
    let root_a = ledger_a.journal_root();
    drop(ledger_a);
    std::fs::remove_dir_all(&dir_a).ok();

    // Cell B: the same history, checkpointed at the seal boundary, then
    // `tail` more journals appended on top (one more sealed block).
    let dir_b = temp_dir("ab-ckpt");
    {
        let (mut ledger, _) = open_durable(
            config(),
            registry.clone(),
            &dir_b,
            FsyncPolicy::Never,
            Arc::new(SimClock::new()),
        )
        .unwrap();
        for r in requests(&alice, n, 256) {
            ledger.append_preverified(r).unwrap();
        }
        ledger.seal_block();
        let store = Arc::new(CheckpointStore::open(&dir_b.join(CHECKPOINT_DIR)).unwrap());
        ledger.enable_checkpoints(store, Arc::new(CkptIo::new()), u64::MAX);
        let id = ledger.checkpoint_now().expect("checkpoint commits");
        assert!(id.is_some(), "the ledger sits at a seal boundary");
        let mut rng = XorShift::new(97);
        for i in 0..tail {
            let r = TxRequest::signed(
                &alice,
                rng.payload(256),
                vec![format!("c{}", i % 64)],
                n + i,
            );
            ledger.append_preverified(r).unwrap();
        }
        assert!(ledger.durability_error().is_none());
    }
    let ((ledger_b, report_b), secs_b) = timed(|| {
        open_durable(config(), registry.clone(), &dir_b, FsyncPolicy::Always, Arc::new(SimClock::new()))
            .unwrap()
    });
    // The gate: the checkpointed restart's replay work is bounded by
    // the post-checkpoint tail, not the history length.
    assert!(report_b.checkpoint.is_some(), "restart must load the checkpoint: {report_b:?}");
    assert_eq!(report_b.checkpoint_journals, n, "checkpoint covers the history");
    assert!(
        report_b.journals_replayed <= tail,
        "O(tail) bound violated: replayed {} of a {}-journal tail ({report_b:?})",
        report_b.journals_replayed,
        tail
    );
    assert_eq!(ledger_b.journal_count(), n + tail);
    // The checkpointed restart reproduces the exact accumulator state
    // the baseline rebuilt by replay (same first n journals).
    assert_eq!(
        ledger_b.blocks().nth((n / 256) as usize - 1).map(|b| b.info.journal_root),
        Some(root_a),
        "checkpointed restart must agree with full replay on the shared prefix"
    );
    drop(ledger_b);
    std::fs::remove_dir_all(&dir_b).ok();

    row(
        "wal-only",
        &[
            ("replayed", report_a.journals_replayed.to_string()),
            ("restart", fmt_latency(secs_a)),
        ],
    );
    row(
        "checkpointed",
        &[
            ("replayed", report_b.journals_replayed.to_string()),
            ("restart", fmt_latency(secs_b)),
        ],
    );
    println!(
        "prof_recovery: checkpointed restart replays {}/{} records ({}x less work), {:.2}x wall",
        report_b.journals_replayed,
        report_a.journals_replayed,
        report_a.journals_replayed.max(1) / report_b.journals_replayed.max(1),
        secs_a / secs_b.max(1e-9),
    );
}

fn main() {
    let mut ab_only = false;
    for flag in std::env::args().skip(1) {
        match flag.as_str() {
            "--checkpoint-ab" => ab_only = true,
            _ => {
                eprintln!("usage: prof_recovery [--checkpoint-ab]");
                std::process::exit(2);
            }
        }
    }
    if ab_only {
        checkpoint_ab(1 << 13, 256);
        return;
    }

    banner("Durable append (256 B payloads, block size 256)");
    let n = 1u64 << 12;
    for (label, policy) in [
        ("fsync=always", FsyncPolicy::Always),
        ("fsync=every-64", FsyncPolicy::EveryN(64)),
        ("fsync=never", FsyncPolicy::Never),
        ("in-memory (no WAL)", FsyncPolicy::Never), // Baseline below.
    ] {
        let tps = if label.starts_with("in-memory") {
            let mut bench = ledgerdb_bench::BenchLedger::new(256, 15);
            let reqs = bench.signed_requests(n, 256, |i| Some(format!("c{}", i % 64)));
            throughput(n, || bench.populate(reqs))
        } else {
            let dir = temp_dir(label);
            let (registry, alice) = registry();
            let (mut ledger, _) =
                open_durable(config(), registry, &dir, policy, Arc::new(SimClock::new())).unwrap();
            let reqs = requests(&alice, n, 256);
            let tps = throughput(n, || {
                for r in reqs {
                    ledger.append_preverified(r).unwrap();
                }
                ledger.seal_block();
            });
            drop(ledger);
            std::fs::remove_dir_all(&dir).ok();
            tps
        };
        row(label, &[("append", fmt_tps(tps))]);
    }

    banner("Recovery replay (reopen + rebuild + verify)");
    for shift in [10u32, 12, 14] {
        let n = 1u64 << shift;
        let dir = temp_dir(&format!("replay-{n}"));
        build(&dir, n, FsyncPolicy::Never);
        let (registry, _) = registry();
        let ((ledger, report), secs) = timed(|| {
            open_durable(config(), registry, &dir, FsyncPolicy::Always, Arc::new(SimClock::new()))
                .unwrap()
        });
        assert!(report.is_clean(), "clean build must reopen clean: {report:?}");
        assert_eq!(ledger.journal_count(), n);
        row(
            &format!("n={n}"),
            &[
                ("replay", fmt_tps(n as f64 / secs)),
                ("total", fmt_latency(secs)),
                ("blocks", report.blocks_verified.to_string()),
            ],
        );
        drop(ledger);
        std::fs::remove_dir_all(&dir).ok();
    }

    checkpoint_ab(1 << 13, 256);
}
