//! What the append path does while it holds the ledger's write lock,
//! pinned with the process-global crypto counters (hence a binary of
//! its own with a single test: nothing else in the process may hash or
//! verify while the locked window is measured).
//!
//! `SharedLedger::append_batch` admits (π_c + membership) and digests
//! every request before it takes the lock. So the locked window —
//! `LedgerDb::append_batch_prepared` over a durable ledger — must do:
//!
//! 1. zero ECDSA verifications;
//! 2. at most [`MAX_IN_LOCK_SHA256_PER_REQUEST`] sha256 finalizes per
//!    request: the payload stream's record digest, the jsn-dependent
//!    journal `tx_hash`, and the fam / CM-Tree node hashes. Recomputing
//!    the payload digest and request hash under the lock would add two.

use ledgerdb::core::recovery::open_durable_with;
use ledgerdb::core::{LedgerConfig, PreparedTx, SharedLedger};
use ledgerdb::crypto::counters;
use ledgerdb::storage::FsyncPolicy;
use ledgerdb::telemetry::Registry;
use ledgerdb::timesvc::clock::SimClock;
use ledgerdb_bench::BenchLedger;
use std::sync::Arc;

/// Requests in the measured batch: 64 clues, 256 B payloads.
const N: u64 = 512;

/// Ceiling on sha256 finalizes inside the write lock, per request. The
/// locked window measured 6.4 per request at 512 requests when the
/// bound was set.
const MAX_IN_LOCK_SHA256_PER_REQUEST: u64 = 7;

#[test]
fn the_locked_window_verifies_no_signature_and_hashes_no_payload() {
    let fixture = BenchLedger::new(4, 4); // registry and keys only
    let requests = fixture.signed_requests(N, 256, |i| Some(format!("doc-{}", i % 64)));
    let dir = std::env::temp_dir().join(format!("ledgerdb-lock-window-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = LedgerConfig {
        block_size: u64::MAX, // no auto-seal inside the window
        fam_delta: 15,
        name: "lock-window".into(),
        state_backend: Default::default(),
    };
    let (ledger, _) = open_durable_with(
        config,
        fixture.ledger.registry().clone(),
        &dir,
        FsyncPolicy::Never,
        Arc::new(SimClock::new()),
        &Registry::new(),
    )
    .unwrap();
    let shared = SharedLedger::new(ledger);

    // Off-lock, as `append_batch` does it: admission, then digests.
    let prepared: Vec<_> = requests
        .into_iter()
        .map(|request| {
            shared
                .verify_request(&request)
                .map(|()| PreparedTx::compute(request))
        })
        .collect();

    let sha = counters::sha256_finalizes();
    let ecdsa = counters::ecdsa_verifies();
    let results = shared
        .with_write(|l| l.append_batch_prepared(prepared))
        .unwrap();
    let in_lock_sha = counters::sha256_finalizes() - sha;
    let in_lock_ecdsa = counters::ecdsa_verifies() - ecdsa;

    assert!(
        results.iter().all(Result::is_ok),
        "every request is admitted"
    );
    assert_eq!(shared.journal_count(), N);
    assert_eq!(in_lock_ecdsa, 0, "ECDSA leaked into the write lock");
    assert!(
        in_lock_sha <= MAX_IN_LOCK_SHA256_PER_REQUEST * N,
        "the locked window hashed {in_lock_sha} times for {N} requests (ceiling {} per request)",
        MAX_IN_LOCK_SHA256_PER_REQUEST,
    );
    std::fs::remove_dir_all(&dir).ok();
}
