//! The SHA-256 work counter's contract, pinned in its own integration
//! binary because the counter is process-global: exactly one increment
//! per digest produced, on every path that produces one, and no
//! increment lost when many threads hash at once (the counter is
//! striped over per-thread slots and summed on read).
//!
//! `crypto.sha256_finalizes_per_append` / `_per_prove` and
//! `tests/lock_window.rs`'s in-lock assertions are built on this.

use ledgerdb::crypto::counters::sha256_finalizes;
use ledgerdb::crypto::digest::hash_many;
use ledgerdb::crypto::sha256::{sha256_portable, sha256_raw, Sha256};
use ledgerdb::crypto::{hash_leaf, hash_pair, sha256};

#[test]
fn every_digest_path_counts_exactly_once() {
    let d = hash_leaf(b"seed");
    let long = vec![0xa5u8; 1_000];
    let paths: [(&str, &dyn Fn()); 8] = [
        ("incremental", &|| {
            let mut h = Sha256::new();
            h.update(&long[..100]);
            h.update(&long[100..]);
            h.finalize();
        }),
        ("incremental, empty", &|| {
            Sha256::new().finalize();
        }),
        ("one-shot", &|| {
            sha256(&long);
        }),
        ("one-shot raw, two-block padding", &|| {
            sha256_raw(&long[..60]);
        }),
        ("portable", &|| {
            sha256_portable(&long);
        }),
        ("hash_pair", &|| {
            hash_pair(&d, &d);
        }),
        ("hash_leaf", &|| {
            hash_leaf(&long);
        }),
        ("hash_many", &|| {
            hash_many(&[d, d, d]);
        }),
    ];
    for (name, digest) in paths {
        let before = sha256_finalizes();
        digest();
        assert_eq!(sha256_finalizes() - before, 1, "{name}");
    }

    // More threads than stripes, so slots are shared: the sum still
    // moves by exactly threads × digests.
    const THREADS: u64 = 24;
    const DIGESTS: u64 = 2_000;
    let before = sha256_finalizes();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let mut acc = d;
                for _ in 0..DIGESTS {
                    acc = hash_pair(&acc, &d);
                }
                acc
            });
        }
    });
    assert_eq!(sha256_finalizes() - before, THREADS * DIGESTS);
}
