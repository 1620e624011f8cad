//! # ledgerdb-telemetry
//!
//! std-only observability for the ledgerdb stack: a lock-free metrics
//! registry (atomic counters, gauges, and log-scale latency histograms
//! with p50/p95/p99/max extraction), a lightweight RAII span API, and a
//! Prometheus-style text exposition encoder.
//!
//! Design constraints (see DESIGN.md §8):
//!
//! * **Hot path = a handful of relaxed atomic ops.** Recording into a
//!   counter, gauge, or histogram never locks, never allocates, and
//!   never syscalls. Handles (`Arc<Counter>` …) are resolved once at
//!   component construction and cached in per-component metric structs.
//! * **Scrape path holds no lock.** The registry keeps its entries in
//!   an append-only lock-free linked list; registration (cold path)
//!   serializes writers through a mutex for name dedup, but iteration —
//!   the text exposition called from the request thread pool — walks
//!   the list with plain `Acquire` loads and takes no lock at all, so
//!   it cannot allocate *while holding a registry lock* (there is no
//!   lock to hold) and cannot block writers.
//!
//! Values recorded into `Unit::Seconds` histograms are nanoseconds;
//! the encoder scales them to seconds at exposition time.

mod dump;
mod encode;
mod metrics;
pub mod recorder;
mod registry;
mod span;
pub mod trace;

pub use dump::Dumper;
pub use encode::{parse_value, render, EXPOSITION_CONTENT_TYPE};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Unit, NUM_BUCKETS};
pub use registry::{Metric, Registry};
pub use span::{set_slow_op_threshold, slow_op_threshold_ns, Span};
pub use trace::{StageSpan, TraceContext, TraceId, TraceScope};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn concurrent_scrape_never_blocks_writers() {
        // Writers hammer a histogram + counter while scrapers render the
        // full exposition in a tight loop; the registry must stay
        // consistent and lock-free throughout.
        let reg = Arc::new(Registry::new());
        let c = reg.counter("scrape_total");
        let h = reg.histogram("scrape_seconds", Unit::Seconds);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (c, h) = (c.clone(), h.clone());
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    c.inc();
                    h.observe(i * 100);
                }
            }));
        }
        // Scrapers race registration of *new* metrics too.
        for t in 0..2 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let text = render(&reg);
                    assert!(text.contains("scrape_total"));
                    if i % 50 == 0 {
                        reg.counter(if t == 0 { "late_a_total" } else { "late_b_total" }).inc();
                    }
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.snapshot().count, 40_000);
    }
}
