//! Prometheus-style text exposition: encoder and a small line parser
//! (used by `ledgerd-stats` assertions and tests).

use crate::metrics::{bucket_upper_bound, NUM_BUCKETS};
use crate::registry::{Metric, Registry};
use std::fmt::Write as _;

/// The `Content-Type` an HTTP scrape endpoint should declare for
/// [`render`]'s output (Prometheus text exposition format 0.0.4).
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Split a registered metric name into its base name and an optional
/// label set: `ledger_proof_bytes{backend="bin"}` →
/// (`ledger_proof_bytes`, `Some("backend=\"bin\"")`). Labeled names let
/// one logical metric fan out per dimension (e.g. per state backend)
/// while scrapers still group every series under one base name.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}')),
        None => (name, None),
    }
}

/// Render every metric in `registry` as Prometheus-style text.
///
/// Deterministic (sorted by name). Histograms emit cumulative
/// `_bucket{le="…"}` lines for non-empty buckets only (plus `+Inf`),
/// `_sum`/`_count`, extracted `{quantile="…"}` lines, and `_max`.
/// A metric registered with a label set in its name (see
/// [`split_labels`]) has the labels spliced into every derived series —
/// `base_bucket{backend="bin",le="…"}`, `base_sum{backend="bin"}` —
/// and shares one `# TYPE` line per base name with its siblings.
/// The walk over the registry is lock-free — see module docs — so this
/// can allocate and format freely without ever holding a registry lock.
pub fn render(registry: &Registry) -> String {
    let mut entries: Vec<(String, Metric)> = Vec::new();
    registry.for_each(|name, metric| entries.push((name.to_string(), metric.clone())));
    entries.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = String::with_capacity(entries.len() * 64);
    let mut typed: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for (name, metric) in &entries {
        let (base, labels) = split_labels(name);
        // One TYPE line per base name: labeled siblings (sorted
        // adjacent) are a single logical metric to a scraper.
        let mut type_line = |kind: &str, out: &mut String| {
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} {kind}");
            }
        };
        match metric {
            Metric::Counter(c) => {
                type_line("counter", &mut out);
                let _ = writeln!(out, "{name} {}", c.get());
            }
            Metric::Gauge(g) => {
                type_line("gauge", &mut out);
                let _ = writeln!(out, "{name} {}", g.get());
            }
            Metric::Histogram(h) => {
                let unit = h.unit();
                let counts = h.bucket_counts();
                let snap = h.snapshot();
                type_line("histogram", &mut out);
                // `backend="bin",` — spliced before le/quantile; empty
                // for unlabeled metrics, preserving their exact format.
                let inner = labels.map(|l| format!("{l},")).unwrap_or_default();
                let series = |suffix: &str| match labels {
                    Some(l) => format!("{base}{suffix}{{{l}}}"),
                    None => format!("{base}{suffix}"),
                };
                let mut cumulative = 0u64;
                for i in 0..NUM_BUCKETS {
                    if counts[i] == 0 {
                        continue;
                    }
                    cumulative += counts[i];
                    let le = unit.scale(bucket_upper_bound(i));
                    let _ = writeln!(out, "{base}_bucket{{{inner}le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{base}_bucket{{{inner}le=\"+Inf\"}} {cumulative}");
                let _ = writeln!(out, "{} {}", series("_sum"), unit.scale(snap.sum));
                let _ = writeln!(out, "{} {}", series("_count"), snap.count);
                for (q, v) in
                    [("0.5", snap.p50), ("0.95", snap.p95), ("0.99", snap.p99)]
                {
                    let _ =
                        writeln!(out, "{base}{{{inner}quantile=\"{q}\"}} {}", unit.scale(v));
                }
                let _ = writeln!(out, "{} {}", series("_max"), unit.scale(snap.max));
            }
        }
    }
    out
}

/// Find the sample whose full name token equals `token` in a rendered
/// exposition and return its value. `token` includes any label set:
/// `parse_value(text, "ledger_appends_total")`,
/// `parse_value(text, "server_req_append_seconds{quantile=\"0.99\"}")`.
pub fn parse_value(text: &str, token: &str) -> Option<f64> {
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if name == token {
                return value.trim().parse().ok();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Unit;

    #[test]
    fn render_and_parse_round_trip() {
        let reg = Registry::new();
        reg.counter("enc_total").add(42);
        reg.gauge("enc_depth").set(-3);
        let h = reg.histogram("enc_seconds", Unit::Seconds);
        h.observe_duration(std::time::Duration::from_millis(1));
        h.observe_duration(std::time::Duration::from_millis(4));

        let text = render(&reg);
        assert!(text.contains("# TYPE enc_total counter"));
        assert!(text.contains("# TYPE enc_seconds histogram"));
        assert!(text.contains("enc_seconds_bucket{le=\"+Inf\"} 2"));
        assert_eq!(parse_value(&text, "enc_total"), Some(42.0));
        assert_eq!(parse_value(&text, "enc_depth"), Some(-3.0));
        assert_eq!(parse_value(&text, "enc_seconds_count"), Some(2.0));
        let p99 = parse_value(&text, "enc_seconds{quantile=\"0.99\"}").unwrap();
        assert!((0.003..=0.005).contains(&p99), "p99 = {p99}");
        let sum = parse_value(&text, "enc_seconds_sum").unwrap();
        assert!((0.004..=0.006).contains(&sum), "sum = {sum}");
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let reg = Registry::new();
        reg.counter("b_total").inc();
        reg.counter("a_total").inc();
        let text = render(&reg);
        let a = text.find("a_total").unwrap();
        let b = text.find("b_total").unwrap();
        assert!(a < b, "entries sorted by name");
        assert_eq!(text, render(&reg), "stable output");
    }

    #[test]
    fn histogram_exposition_format_is_scraper_correct() {
        // External scrapers (Prometheus `rate()`/`avg` over `_sum`/
        // `_count`) need: a `histogram` TYPE line, monotone cumulative
        // `_bucket` counts ending in a `+Inf` bucket equal to `_count`,
        // and a `_sum` consistent with the observations. Pin all of it.
        let reg = Registry::new();
        let h = reg.histogram("expo_seconds", Unit::Seconds);
        let samples_ns: [u64; 5] = [1_000_000, 2_000_000, 2_000_000, 40_000_000, 900_000_000];
        for ns in samples_ns {
            h.observe(ns);
        }
        let text = render(&reg);
        assert!(text.contains("# TYPE expo_seconds histogram"));

        // Every _bucket line parses, `le` bounds ascend, counts are
        // cumulative (non-decreasing), and +Inf closes the series.
        let mut last_le = f64::NEG_INFINITY;
        let mut last_count = 0.0f64;
        let mut saw_inf = false;
        for line in text.lines().filter(|l| l.starts_with("expo_seconds_bucket{")) {
            let le_raw = line
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .expect("le label present");
            let le = if le_raw == "+Inf" {
                saw_inf = true;
                f64::INFINITY
            } else {
                le_raw.parse::<f64>().expect("numeric le bound")
            };
            assert!(le > last_le, "bucket bounds ascend: {line}");
            last_le = le;
            let count: f64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(count >= last_count, "cumulative counts never decrease: {line}");
            last_count = count;
        }
        assert!(saw_inf, "+Inf bucket terminates the series");

        let count = parse_value(&text, "expo_seconds_count").expect("_count series present");
        let sum = parse_value(&text, "expo_seconds_sum").expect("_sum series present");
        assert_eq!(count, samples_ns.len() as f64);
        assert_eq!(last_count, count, "+Inf bucket equals _count");
        let expected_sum: f64 = samples_ns.iter().map(|ns| *ns as f64 / 1e9).sum();
        assert!(
            (sum - expected_sum).abs() < 1e-9,
            "_sum is the unit-scaled exact total: {sum} vs {expected_sum}"
        );
        // Average derived the scraper way is sane.
        let avg = sum / count;
        assert!((0.1..=0.2).contains(&avg), "avg = {avg}");
    }

    #[test]
    fn labeled_names_splice_into_every_derived_series() {
        // A name registered as `base{labels}` fans out per label set:
        // suffixes land before the braces, inner labels (le/quantile)
        // merge after the registered ones, and the siblings share one
        // TYPE line keyed by base name. `parse_value` keeps working on
        // the full labeled tokens.
        let reg = Registry::new();
        let mpt = reg.histogram("lbl_proof_bytes{backend=\"mpt\"}", Unit::Bytes);
        let bin = reg.histogram("lbl_proof_bytes{backend=\"bin\"}", Unit::Bytes);
        mpt.observe(4096);
        mpt.observe(4096);
        bin.observe(512);
        reg.counter("lbl_hits_total{backend=\"bin\"}").add(3);

        let text = render(&reg);
        assert_eq!(
            text.matches("# TYPE lbl_proof_bytes histogram").count(),
            1,
            "one TYPE line per base name:\n{text}"
        );
        assert!(text.contains("# TYPE lbl_hits_total counter"));
        assert!(
            text.contains("lbl_proof_bytes_bucket{backend=\"bin\",le=\"+Inf\"} 1"),
            "labels merge with le:\n{text}"
        );
        assert!(text.contains("lbl_proof_bytes{backend=\"mpt\",quantile=\"0.5\"}"));
        assert_eq!(
            parse_value(&text, "lbl_proof_bytes_count{backend=\"mpt\"}"),
            Some(2.0)
        );
        assert_eq!(
            parse_value(&text, "lbl_proof_bytes_sum{backend=\"bin\"}"),
            Some(512.0)
        );
        assert_eq!(
            parse_value(&text, "lbl_proof_bytes_max{backend=\"mpt\"}"),
            Some(4096.0)
        );
        assert_eq!(parse_value(&text, "lbl_hits_total{backend=\"bin\"}"), Some(3.0));
    }

    #[test]
    fn parse_value_ignores_comments_and_misses() {
        let text = "# TYPE x counter\nx 5\n";
        assert_eq!(parse_value(text, "x"), Some(5.0));
        assert_eq!(parse_value(text, "y"), None);
    }
}
