//! Process-global crypto operation counters.
//!
//! The append pipeline's core claim is *where* CPU work happens: on the
//! batched path, no SHA-256 finalization beyond the per-journal
//! canonical hash and no ECDSA verification may execute while the
//! ledger write lock is held. That claim is asserted empirically by
//! the root package's `tests/lock_window.rs`, which reads these
//! counters immediately before and after the locked section.
//!
//! Relaxed atomics: the counters are diagnostics, not synchronization.
//! They count every operation in the process, so assertions built on
//! them must run alone in their process (`lock_window` is the only test
//! in its binary).
//!
//! A digest costs ~100 ns on the SHA-NI kernel, so one shared counter
//! would be a cache line bounced between every hashing thread. The
//! SHA-256 count is striped instead: each thread increments the
//! cache-line-padded slot it drew at first use, and the reader sums.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripe count: at or above the thread count of every deployment here
/// (workers + committer + clients); more threads than slots share.
const SLOTS: usize = 16;

#[repr(align(64))]
struct Slot(AtomicU64);

static SHA256_FINALIZES: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
pub(crate) static ECDSA_VERIFIES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SLOT: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS
    };
}

/// Record one SHA-256 digest produced. Every digest path (incremental,
/// one-shot, fixed-shape; accelerated or portable) calls this exactly
/// once.
#[inline]
pub(crate) fn count_sha256_finalize() {
    SLOT.with(|&i| SHA256_FINALIZES[i].0.fetch_add(1, Ordering::Relaxed));
}

/// Total SHA-256 digests finalized by this process so far.
pub fn sha256_finalizes() -> u64 {
    SHA256_FINALIZES.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Total ECDSA signature verifications performed by this process so far.
pub fn ecdsa_verifies() -> u64 {
    ECDSA_VERIFIES.load(Ordering::Relaxed)
}
