//! Order statistics over raw per-op samples.

/// A percentile is reportable only when at least this many samples lie
/// beyond it; a p95 of 100 samples would rest on five of them.
pub const MIN_SAMPLES_BEYOND: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// At least [`MIN_SAMPLES_BEYOND`] samples are larger-ranked.
    pub supported: bool,
}

/// Nearest-rank percentile of an ascending slice; `q` in `(0, 1]`.
/// An empty slice has no percentiles.
pub fn percentile(sorted: &[u64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(Percentile {
        value: sorted[rank - 1] as f64,
        supported: sorted.len() - rank >= MIN_SAMPLES_BEYOND,
    })
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median of per-call nanosecond samples, in nanoseconds.
pub fn median_ns(samples: &mut [u64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    samples.sort_unstable();
    percentile(samples, 0.5).expect("non-empty").value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50).unwrap().value, 50.0);
        assert_eq!(percentile(&sorted, 0.95).unwrap().value, 95.0);
        assert_eq!(percentile(&sorted, 1.0).unwrap().value, 100.0);
        assert_eq!(percentile(&[7], 0.5).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 needs 200 samples to leave ten beyond it, p99 needs 1000.
        let n199: Vec<u64> = (0..199).collect();
        let n200: Vec<u64> = (0..200).collect();
        assert!(!percentile(&n199, 0.95).unwrap().supported);
        assert!(percentile(&n200, 0.95).unwrap().supported);
        assert!(!percentile(&n200, 0.99).unwrap().supported);
        assert!(percentile(&n200, 0.50).unwrap().supported);
        let n1000: Vec<u64> = (0..1000).collect();
        assert!(percentile(&n1000, 0.99).unwrap().supported);
    }

    #[test]
    fn medians() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_ns(&mut [9, 1, 5]), 5.0);
    }
}
