//! Fan a batch of independent items out over `std::thread::scope`.
//!
//! One request-wide stage gains from a second core: the ECDSA admission
//! of a batch of appends (π_c, ~97% of an append's CPU). Each item is a
//! pure function whose result lands by index, so scheduling never
//! changes an output byte. Everything cheaper (payload digests, a
//! seal's three roots, a batch of snapshot proofs) runs inline: a
//! thread costs more than it would save there.

use crate::LedgerError;
use ledgerdb_telemetry::trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Cores this process may run on, read once: std re-reads the cgroup
/// quota files on every `available_parallelism` call.
fn parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// `out[i] = f(&items[i])`, positionally. The caller claims items
/// alongside at most `min(n, P) − 1` scoped helper threads, where `P` is
/// [`parallelism`]; with one item or one core it all runs inline. A
/// helper the OS refuses to start (thread or memory limits) only costs
/// parallelism: no further helper is tried, and the threads already
/// running, the caller included, claim every remaining item. Each item
/// runs under `catch_unwind` (a panic becomes
/// [`LedgerError::TaskFailed`] in its own slot, its siblings
/// unaffected), and helpers carry the caller's trace scope, so spans
/// opened in `f` land in the submitting request's span tree.
pub(crate) fn try_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, LedgerError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, LedgerError> + Sync,
{
    let run = |item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(item))).unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Err(LedgerError::TaskFailed(message))
        })
    };
    let threads = parallelism().min(items.len());
    if threads <= 1 {
        return items.iter().map(run).collect();
    }
    let scope = trace::current_scope();
    let next = AtomicUsize::new(0);
    // Each thread claims the next unclaimed index until none is left and
    // returns its results tagged by index. `Relaxed` suffices: the
    // counter publishes nothing, and results travel back through `join`.
    let claim = || {
        let _scope = scope.clone().map(trace::install);
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, run(item)));
        }
    };
    let mut out: Vec<Option<Result<R, LedgerError>>> = items.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads)
            .map_while(|_| std::thread::Builder::new().spawn_scoped(s, claim).ok())
            .collect();
        let mine = claim();
        for (i, result) in helpers
            .into_iter()
            .flat_map(|h| h.join().expect("items run under catch_unwind"))
            .chain(mine)
        {
            out[i] = Some(result);
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Condvar, Mutex};
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn a_panicking_item_fails_in_its_own_slot() {
        let items: Vec<u64> = (0..16).collect();
        let out = try_map(&items, |&i| {
            if i == 5 {
                panic!("item {i} exploded");
            }
            Ok(i * 2)
        });
        assert_eq!(out.len(), 16);
        for (i, result) in out.into_iter().enumerate() {
            match result {
                Err(LedgerError::TaskFailed(message)) => {
                    assert_eq!(i, 5);
                    assert_eq!(message, "item 5 exploded");
                }
                Ok(doubled) => assert_eq!(doubled, 2 * i as u64),
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }

    #[test]
    fn zero_and_one_items_run_inline() {
        let caller = thread::current().id();
        let none: Vec<Result<(), LedgerError>> =
            try_map(&[] as &[u8], |_| panic!("no item to run"));
        assert!(none.is_empty());
        let one = try_map(&[7u8], |&b| Ok((b, thread::current().id())));
        assert_eq!(one.len(), 1);
        let (b, ran_on) = one.into_iter().next().unwrap().unwrap();
        assert_eq!(b, 7);
        assert_eq!(
            ran_on, caller,
            "a single item never leaves the caller's thread"
        );
    }

    #[test]
    fn two_items_run_on_two_threads_when_two_cores_are_available() {
        if parallelism() < 2 {
            eprintln!("skipped: one core available, every batch runs inline");
            return;
        }
        // Each item waits until two distinct threads have entered `f`;
        // inline work would see only the caller's, so the wait times out
        // and the assertion below fails instead of hanging.
        let seen = Mutex::new(HashSet::new());
        let entered = Condvar::new();
        let out = try_map(&[0u8, 1], |_| {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut ids = seen.lock().unwrap();
            ids.insert(thread::current().id());
            entered.notify_all();
            while ids.len() < 2 {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                ids = entered.wait_timeout(ids, left).unwrap().0;
            }
            Ok(ids.len())
        });
        let counts: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(
            counts,
            [2, 2],
            "both items must see two distinct threads in `f`"
        );
    }
}
