//! Atomic metric primitives: counters, gauges, and fixed-bucket
//! log-scale histograms with percentile extraction.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Monotonic event counter.
#[derive(Debug)]
pub struct Counter {
    v: AtomicU64,
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Counter {
    pub fn new() -> Self {
        Counter { v: AtomicU64::new(0) }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, active connections,
/// sticky error state).
#[derive(Debug)]
pub struct Gauge {
    v: AtomicI64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    pub fn new() -> Self {
        Gauge { v: AtomicI64::new(0) }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.v.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// What a histogram's raw `u64` samples mean; controls exposition
/// scaling only (`Seconds` samples are recorded as nanoseconds and
/// divided out to seconds when rendered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Samples are nanoseconds; rendered as seconds.
    Seconds,
    /// Samples are byte counts.
    Bytes,
    /// Samples are plain counts (e.g. batch sizes).
    Count,
}

impl Unit {
    pub(crate) fn scale(self, raw: u64) -> f64 {
        match self {
            Unit::Seconds => raw as f64 / 1e9,
            Unit::Bytes | Unit::Count => raw as f64,
        }
    }
}

/// Bucket layout: values 0..=3 get exact buckets; above that, each
/// power-of-two octave is split into 4 log-linear sub-buckets (worst
/// case ~25% relative error on a reported quantile). Octaves 2..=63
/// cover the full `u64` range.
pub const NUM_BUCKETS: usize = 4 + 62 * 4;

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize; // 2..=63
        let sub = ((v >> (octave - 2)) & 3) as usize;
        4 + (octave - 2) * 4 + sub
    }
}

/// Inclusive upper bound of a bucket (the Prometheus `le` edge).
pub(crate) fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < 4 {
        idx as u64
    } else {
        let octave = 2 + (idx - 4) / 4;
        let sub = ((idx - 4) % 4) as u64;
        let step = 1u64 << (octave - 2);
        let lower = (1u64 << octave) + sub * step;
        // The final bucket's upper edge is 2^64, which does not fit.
        match lower.checked_add(step) {
            Some(upper) => upper - 1,
            None => u64::MAX,
        }
    }
}

/// Fixed-bucket log-scale histogram. Recording is a bucket index
/// computation (bit ops) plus four relaxed atomic RMWs; no locks, no
/// allocation. 252 buckets ≈ 2 KiB per histogram.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    unit: Unit,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("unit", &self.unit)
            .field("count", &s.count)
            .field("p50", &s.p50)
            .field("p99", &s.p99)
            .field("max", &s.max)
            .finish()
    }
}

/// Point-in-time view of a histogram: counts plus extracted quantiles,
/// in raw units (nanoseconds for `Unit::Seconds`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl Histogram {
    pub fn new(unit: Unit) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            unit,
        }
    }

    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Record one raw sample (nanoseconds for `Unit::Seconds`).
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record an elapsed duration (for `Unit::Seconds` histograms).
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Start an RAII span that records its elapsed time on drop.
    pub fn time<'a>(&'a self, name: &'static str) -> crate::Span<'a> {
        crate::Span::enter(self, name)
    }

    /// Raw per-bucket counts (used by the encoder; relaxed reads).
    pub(crate) fn bucket_counts(&self) -> [u64; NUM_BUCKETS] {
        let mut out = [0u64; NUM_BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            out[i] = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Extract count/sum/max and p50/p95/p99. Quantiles report the
    /// upper bound of the bucket containing the target rank, clamped
    /// to the observed maximum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.bucket_counts();
        // Derive totals from the bucket array itself so the snapshot is
        // internally consistent even while writers race.
        let count: u64 = counts.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let q = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((p * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return bucket_upper_bound(i).min(max);
                }
            }
            max
        };
        HistogramSnapshot { count, sum, max, p50: q(0.50), p95: q(0.95), p99: q(0.99) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1_000, 123_456, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index in range for {v}");
            let upper = bucket_upper_bound(idx);
            assert!(v <= upper, "{v} <= upper bound {upper}");
            if idx > 0 {
                let prev_upper = bucket_upper_bound(idx - 1);
                assert!(v > prev_upper, "{v} > previous bucket upper {prev_upper}");
            }
        }
    }

    #[test]
    fn upper_bounds_strictly_increase() {
        for i in 1..NUM_BUCKETS {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1), "bucket {i}");
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let h = Histogram::new(Unit::Count);
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        // Log-scale buckets: quantile error bounded by one sub-bucket
        // (~25% relative).
        assert!((400..=640).contains(&s.p50), "p50 = {}", s.p50);
        assert!((900..=1000).contains(&s.p95), "p95 = {}", s.p95);
        assert!((950..=1000).contains(&s.p99), "p99 = {}", s.p99);
    }

    #[test]
    fn single_sample_quantiles_collapse_to_it() {
        let h = Histogram::new(Unit::Seconds);
        h.observe_duration(Duration::from_micros(750));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, s.max);
        assert_eq!(s.p99, s.max);
        assert_eq!(s.max, 750_000);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }
}
