//! The server's `Stats` exposition, read from outside: parse two scrapes
//! and take deltas over the timed window. A series that no longer exists
//! yields `None` (reported with a warning), never a failure.

use std::collections::BTreeMap;

/// One scrape: plain series by name, histogram buckets by base name.
pub struct Scrape {
    series: BTreeMap<String, f64>,
    /// `(le, cumulative count)` ascending, `+Inf` last.
    buckets: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            match name.split_once("_bucket{le=\"") {
                Some((base, le)) => {
                    let le = le.trim_end_matches("\"}");
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().unwrap_or(f64::NAN)
                    };
                    if !le.is_nan() {
                        buckets
                            .entry(base.to_string())
                            .or_default()
                            .push((le, value));
                    }
                }
                None => {
                    series.insert(name.to_string(), value);
                }
            }
        }
        for ladder in buckets.values_mut() {
            ladder.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        Scrape { series, buckets }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.series.get(name).copied()
    }

    /// Observations at or below `le`. Only occupied buckets are exposed,
    /// so the count at a missing bound is that of the next lower one.
    fn cumulative(&self, base: &str, le: f64) -> f64 {
        self.buckets
            .get(base)
            .and_then(|ladder| ladder.iter().rev().find(|(bound, _)| *bound <= le))
            .map_or(0.0, |(_, count)| *count)
    }
}

/// What changed between two scrapes of the same server.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    /// Growth of a counter; `None` if the series is gone.
    pub fn counter(&self, name: &str) -> Option<f64> {
        Some(self.after.get(name)? - self.before.get(name).unwrap_or(0.0))
    }

    /// Mean of a histogram's observations inside the window; `None` if
    /// the series is gone, zero if nothing was observed.
    pub fn mean(&self, base: &str) -> Option<f64> {
        let sum = self.counter(&format!("{base}_sum"))?;
        let count = self.counter(&format!("{base}_count"))?;
        Some(if count > 0.0 { sum / count } else { 0.0 })
    }

    /// Median of a histogram's observations inside the window, as the
    /// upper bound of the bucket that holds it (bucket error <= 25%).
    pub fn p50(&self, base: &str) -> Option<f64> {
        let ladder = self.after.buckets.get(base)?;
        let grown = |le: f64, after: f64| after - self.before.cumulative(base, le);
        let total = ladder.last().map(|&(le, after)| grown(le, after))?;
        if total <= 0.0 {
            return Some(0.0);
        }
        let half = total / 2.0;
        let mut last_finite = 0.0;
        for &(le, after) in ladder {
            if le.is_finite() {
                last_finite = le;
            }
            if grown(le, after) >= half {
                return Some(last_finite);
            }
        }
        Some(last_finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE storage_fsync_total counter
storage_fsync_total 10
batch_size_sum 40
batch_size_count 20
batch_queue_wait_seconds_bucket{le=\"0.0001\"} 4
batch_queue_wait_seconds_bucket{le=\"+Inf\"} 4
ledger_proof_bytes_sum{backend=\"mpt\"} 7
";
    const AFTER: &str = "\
storage_fsync_total 25
batch_size_sum 100
batch_size_count 50
batch_queue_wait_seconds_bucket{le=\"0.0001\"} 5
batch_queue_wait_seconds_bucket{le=\"0.0002\"} 9
batch_queue_wait_seconds_bucket{le=\"0.0004\"} 14
batch_queue_wait_seconds_bucket{le=\"+Inf\"} 14
ledger_proof_bytes_sum{backend=\"mpt\"} 9
";

    #[test]
    fn deltas_over_a_window() {
        let (before, after) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        let delta = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(delta.counter("storage_fsync_total"), Some(15.0));
        assert_eq!(delta.mean("batch_size"), Some(2.0));
        assert_eq!(
            delta.counter("ledger_proof_bytes_sum{backend=\"mpt\"}"),
            Some(2.0)
        );
        // Ten new observations: 1 at <=0.1ms, 4 at <=0.2ms, 5 at <=0.4ms.
        assert_eq!(delta.p50("batch_queue_wait_seconds"), Some(0.0002));
    }

    #[test]
    fn a_vanished_series_is_none_not_an_error() {
        let (before, after) = (Scrape::parse(BEFORE), Scrape::parse("x 1\n"));
        let delta = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(delta.counter("storage_fsync_total"), None);
        assert_eq!(delta.mean("batch_size"), None);
        assert_eq!(delta.p50("batch_queue_wait_seconds"), None);
    }
}
