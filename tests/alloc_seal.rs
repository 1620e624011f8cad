//! Allocation discipline of the seal path and of the batch-proof
//! verifier, pinned by a counting global allocator — which is why these
//! tests live in their own integration binary (the allocator hook is
//! process-wide) and take `SERIAL` (so neither counts the other).
//!
//! The seal path used to clone the freshly built `Block` (including its
//! whole `tx_hashes` vector) just to wire-encode it into the WAL seal
//! record. With the borrowed `seal_wire` encoding, the number of heap
//! allocations a single seal performs is bounded by the block's own
//! contents plus logarithmic tree maintenance — it must NOT grow
//! linearly with chain length.

use ledgerdb::accumulator::shrubs::Shrubs;
use ledgerdb::core::recovery::open_durable;
use ledgerdb::core::{LedgerConfig, MemberRegistry, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::{hash_leaf, Digest};
use ledgerdb::storage::FsyncPolicy;
use ledgerdb::timesvc::clock::SimClock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Held by each test for its whole body: the counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn per_seal_allocations_do_not_scale_with_chain_length() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ca = CertificateAuthority::from_seed(b"alloc-ca");
    let alice = KeyPair::from_seed(b"alloc-alice");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();

    let dir = std::env::temp_dir().join(format!("ledgerdb-alloc-seal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // block_size never auto-seals: every seal below is explicit, so the
    // counter windows contain exactly one seal each.
    let config = LedgerConfig { block_size: u64::MAX, fam_delta: 10, name: "alloc".into(), state_backend: Default::default() };
    let (mut ledger, _) = open_durable(
        config,
        registry,
        &dir,
        FsyncPolicy::Never,
        Arc::new(SimClock::new()),
    )
    .unwrap();

    const BLOCK_TXS: u64 = 4;
    fn seal_costs(
        ledger: &mut ledgerdb::core::LedgerDb,
        alice: &KeyPair,
        nonce: &mut u64,
        seals: u64,
    ) -> Vec<u64> {
        (0..seals)
            .map(|_| {
                for _ in 0..BLOCK_TXS {
                    let req = TxRequest::signed(
                        alice,
                        nonce.to_be_bytes().to_vec(),
                        vec![format!("a{}", *nonce % 8)],
                        *nonce,
                    );
                    ledger.append(req).unwrap();
                    *nonce += 1;
                }
                let before = allocs();
                ledger.try_seal_block().unwrap();
                allocs() - before
            })
            .collect()
    }

    let mut nonce = 0u64;
    let early: Vec<u64> = seal_costs(&mut ledger, &alice, &mut nonce, 16);

    // Grow the chain well past the early sample: ~600 more blocks.
    for _ in 0..600u64 {
        for _ in 0..BLOCK_TXS {
            let req = TxRequest::signed(&alice, nonce.to_be_bytes().to_vec(), vec![], nonce);
            ledger.append(req).unwrap();
            nonce += 1;
        }
        ledger.try_seal_block().unwrap();
    }

    let late: Vec<u64> = seal_costs(&mut ledger, &alice, &mut nonce, 16);
    std::fs::remove_dir_all(&dir).ok();

    let early_avg = early.iter().sum::<u64>() as f64 / early.len() as f64;
    let late_avg = late.iter().sum::<u64>() as f64 / late.len() as f64;
    assert!(early_avg > 0.0, "seals allocate something (sanity)");
    // Tree maintenance is logarithmic; a 600-block chain adds ~10 bits
    // of depth. If the seal path cloned anything chain-sized (the old
    // `WalRecord::Seal(block.clone())` bug pattern applied to a
    // chain-length structure), this ratio would blow past any constant.
    assert!(
        late_avg <= early_avg * 4.0 + 64.0,
        "per-seal allocations grew with chain length: early avg {early_avg:.1}, late avg {late_avg:.1}"
    );
}

/// `Shrubs::verify_batch` is hashing plus two cursors: it builds no map
/// and copies neither the targets nor the proof cells, so the only heap
/// use is the frontier — the same handful of allocations whether the
/// batch proves 64 entries or 2,048.
#[test]
fn verify_batch_allocations_do_not_scale_with_batch_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 5,000 leaves: four peaks, so the frontier is a real vector.
    let leaves: Vec<Digest> = (0..5_000u64).map(|i| hash_leaf(&i.to_be_bytes())).collect();
    let mut shrubs = Shrubs::new();
    for leaf in &leaves {
        shrubs.append(*leaf);
    }
    let root = shrubs.root();
    let cost = |m: u64| {
        let indices: Vec<u64> = (100..100 + m).collect();
        let entries: Vec<(u64, Digest)> =
            indices.iter().map(|&i| (i, leaves[i as usize])).collect();
        let proof = shrubs.prove_batch(&indices).unwrap();
        let before = allocs();
        Shrubs::verify_batch(&root, &entries, &proof).unwrap();
        allocs() - before
    };
    let (small, large) = (cost(64), cost(2_048));
    assert_eq!(small, large, "allocations per verify_batch grew with m");
    assert!(large <= 2, "verify_batch made {large} allocations; the frontier needs one");
}
