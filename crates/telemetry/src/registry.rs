//! Named metric registry with a lock-free scrape path.
//!
//! Entries live in an append-only intrusive linked list: registration
//! (cold path) serializes writers through a mutex purely for name
//! dedup and publishes the new head with a release store; iteration —
//! the exposition path called from the request thread pool — walks the
//! list with acquire loads and takes **no lock**. Metrics are never
//! removed; a `Registry` frees its nodes on drop, when no reader can
//! still hold `&self`.

use crate::metrics::{Counter, Gauge, Histogram, Unit};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A registered metric handle.
#[derive(Debug, Clone)]
pub enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Node {
    name: String,
    metric: Metric,
    next: *const Node,
}

pub struct Registry {
    head: AtomicPtr<Node>,
    /// Serializes registration only; never touched by readers.
    reg: Mutex<()>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut n = 0usize;
        self.for_each(|_, _| n += 1);
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

// SAFETY: nodes are immutable once published (release store of the new
// head; readers use acquire loads), and only `drop` — with exclusive
// access — frees them.
unsafe impl Send for Registry {}
unsafe impl Sync for Registry {}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry { head: AtomicPtr::new(std::ptr::null_mut()), reg: Mutex::new(()) }
    }

    /// The process-wide default registry; bins and default constructors
    /// record here.
    pub fn global() -> &'static Arc<Registry> {
        static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Registry::new()))
    }

    fn find(&self, name: &str) -> Option<Metric> {
        let mut cur = self.head.load(Ordering::Acquire) as *const Node;
        while !cur.is_null() {
            // SAFETY: published nodes stay alive for the registry's
            // lifetime; we hold `&self`.
            let node = unsafe { &*cur };
            if node.name == name {
                return Some(node.metric.clone());
            }
            cur = node.next;
        }
        None
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.find(name) {
            return m;
        }
        let _guard = self.reg.lock().unwrap_or_else(|e| e.into_inner());
        // Re-check under the registration lock: another writer may have
        // registered the name between our lock-free probe and the lock.
        if let Some(m) = self.find(name) {
            return m;
        }
        let metric = make();
        let node = Box::into_raw(Box::new(Node {
            name: name.to_string(),
            metric: metric.clone(),
            next: self.head.load(Ordering::Relaxed),
        }));
        self.head.store(node, Ordering::Release);
        metric
    }

    /// Get or create a counter. Panics if `name` is already registered
    /// as a different metric kind (programmer error).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Get or create a histogram. The unit of an existing histogram
    /// wins; it is a programmer error to re-register with another unit.
    pub fn histogram(&self, name: &str, unit: Unit) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new(unit)))) {
            Metric::Histogram(h) => {
                assert_eq!(h.unit(), unit, "metric {name:?} registered with a different unit");
                h
            }
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Visit every registered metric, newest first. Lock-free: safe to
    /// call from any thread, including while registrations race.
    pub fn for_each(&self, mut f: impl FnMut(&str, &Metric)) {
        let mut cur = self.head.load(Ordering::Acquire) as *const Node;
        while !cur.is_null() {
            // SAFETY: as in `find`.
            let node = unsafe { &*cur };
            f(&node.name, &node.metric);
            cur = node.next;
        }
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        let mut cur = self.head.swap(std::ptr::null_mut(), Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: exclusive access in drop; nodes came from Box.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next as *mut Node;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.inc();
        assert_eq!(b.get(), 1);
        let mut names = Vec::new();
        reg.for_each(|n, _| names.push(n.to_string()));
        assert_eq!(names, ["x_total"]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("dual");
        let _ = reg.gauge("dual");
    }

    #[test]
    fn concurrent_registration_dedups() {
        let reg = std::sync::Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for i in 0..64 {
                        reg.counter(&format!("metric_{i}")).inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut count = 0;
        reg.for_each(|name, m| {
            count += 1;
            if let Metric::Counter(c) = m {
                assert_eq!(c.get(), 8, "{name} incremented once per thread");
            } else {
                panic!("unexpected kind");
            }
        });
        assert_eq!(count, 64, "no duplicate nodes despite racing registration");
    }
}
