//! Block-header hash memoization, pinned by a process-global counter —
//! which is why these tests live in their own integration binary and
//! take turns through `SERIAL`: nothing else may touch
//! `block_hash_computations()` while one of them counts.
//!
//! Growing a 1,000-block chain must hash each header exactly once, even
//! though every seal reads the previous block's hash and every
//! receipt/anchor read touches headers again — and even when a snapshot
//! hub publishes on every seal and serves the receipts.

use ledgerdb::core::types::block_hash_computations;
use ledgerdb::core::{LedgerConfig, LedgerDb, MemberRegistry, SharedLedger, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use std::sync::{Mutex, MutexGuard};

const BLOCKS: u64 = 1000;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A ledger sealing one block per append, and its only member.
fn ledger() -> (LedgerDb, KeyPair) {
    let ca = CertificateAuthority::from_seed(b"once-ca");
    let alice = KeyPair::from_seed(b"once-alice");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    let config = LedgerConfig { block_size: 1, fam_delta: 12, name: "once".into(), state_backend: Default::default() };
    (LedgerDb::new(config, registry), alice)
}

fn request(alice: &KeyPair, i: u64) -> TxRequest {
    TxRequest::signed(alice, format!("b-{i}").into_bytes(), vec![], i)
}

#[test]
fn thousand_block_chain_hashes_each_header_exactly_once() {
    let _serial = serial();
    let (mut ledger, alice) = ledger();

    let before = block_hash_computations();
    for i in 0..BLOCKS {
        // block_size 1: the append auto-seals — each seal links to the
        // previous header via its (memoized) hash.
        ledger.append(request(&alice, i)).unwrap();
    }
    assert_eq!(ledger.block_count(), BLOCKS);
    let sealed = block_hash_computations() - before;
    assert_eq!(
        sealed, BLOCKS,
        "sealing {BLOCKS} blocks must compute exactly {BLOCKS} header hashes"
    );

    // Re-reading the chain — receipts, anchors, feeds — recomputes
    // nothing: every header hash is already memoized.
    let before = block_hash_computations();
    for jsn in 0..BLOCKS {
        assert!(ledger.receipt(jsn).unwrap().is_some());
    }
    let mut prev = None;
    for block in ledger.blocks() {
        let h = block.hash();
        if let Some(prev) = prev {
            assert_eq!(block.prev_block_hash, prev, "chain must link");
        }
        prev = Some(h);
    }
    assert_eq!(
        block_hash_computations() - before,
        0,
        "re-reading the chain must hit the memo every time"
    );
}

#[test]
fn snapshot_hub_reads_the_kernels_memo() {
    let _serial = serial();
    let (ledger, alice) = ledger();
    let shared = SharedLedger::new(ledger);

    // Every seal publishes a snapshot; every receipt is served from it.
    // The snapshot holds the kernel's own blocks, so the header hashed
    // at seal is the one the receipt reads.
    let before = block_hash_computations();
    for i in 0..BLOCKS {
        shared.append(request(&alice, i)).unwrap();
    }
    assert_eq!(shared.snapshot().block_count(), BLOCKS);
    for jsn in 0..BLOCKS {
        assert!(shared.receipt(jsn).unwrap().is_some());
    }
    assert_eq!(
        block_hash_computations() - before,
        BLOCKS,
        "{BLOCKS} seals and {BLOCKS} snapshot receipts must compute exactly {BLOCKS} header hashes"
    );
}
