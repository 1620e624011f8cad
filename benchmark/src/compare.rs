//! `ledgerbench compare A B`: one verdict per (end-to-end metric, workload),
//! judged by the bounds `BENCHMARK.json` fixes.
//!
//! Each side is one result file or a comma-separated list of them (repeat
//! runs of the same commit). A side's value is the median over its runs.
//! When the parent's own runs spread (interquartile distance over median)
//! wider than the metric's bound, the row is `unresolved`, not `same`.

use crate::json::{self, Json};
use crate::stats::median_f64;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads read the same here and in the driver.
pub fn quartiles(values: &mut [f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let m = values.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    }
    Some(out)
}

/// `a` is the parent's runs, `b` the change's.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let parent = median_f64(&mut a.to_vec());
    let change = median_f64(&mut b.to_vec());
    if parent == 0.0 || !parent.is_finite() || !change.is_finite() {
        return Verdict::Unresolved;
    }
    if let Some([q1, _, q3]) = quartiles(&mut a.to_vec()) {
        if ((q3 - q1) / parent).abs() > bound.bound {
            return Verdict::Unresolved;
        }
    }
    let moved = (change - parent) / parent.abs();
    let worse_by = if bound.higher_is_better {
        -moved
    } else {
        moved
    };
    if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The `end_to_end` table of `BENCHMARK.json`, in file order.
pub fn bounds(benchmark_json: &Json) -> Result<Vec<(String, Bound)>, String> {
    let table = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end table")?;
    table
        .iter()
        .map(|row| {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = row
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = row
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((
                name.to_string(),
                Bound {
                    higher_is_better: better == "higher",
                    bound,
                },
            ))
        })
        .collect()
}

/// `(workload, metric) -> values` over the untraced runs of some result
/// files. Runs that failed their correctness check do not count.
pub fn collect(files: &[Json]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for file in files {
        for run in file.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
            let traced = run.get("traced") == Some(&Json::Bool(true));
            let correct = run.get("correct") == Some(&Json::Bool(true));
            let workload = run.get("workload").and_then(Json::as_str);
            let metrics = run.get("metrics").and_then(Json::as_obj);
            let (Some(workload), Some(metrics), false, true) = (workload, metrics, traced, correct)
            else {
                continue;
            };
            for (name, metric) in metrics {
                if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                    values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    values
}

fn load_side(list: &str) -> Result<Vec<Json>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// Print the table; `Ok(true)` when no row is worse.
pub fn run(a_list: &str, b_list: &str, benchmark_json: &str) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(benchmark_json).map_err(|e| format!("{benchmark_json}: {e}"))?;
    let bounds = bounds(&json::parse(&text).map_err(|e| format!("{benchmark_json}: {e}"))?)?;
    let (a, b) = (collect(&load_side(a_list)?), collect(&load_side(b_list)?));
    let workloads: Vec<&String> = {
        let mut seen: Vec<&String> = a.keys().chain(b.keys()).map(|(w, _)| w).collect();
        seen.sort();
        seen.dedup();
        seen
    };
    println!(
        "{:<26} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "metric", "workload", "parent", "change", "moved", "bound"
    );
    let mut none_worse = true;
    for workload in workloads {
        for (name, bound) in &bounds {
            let key = (workload.clone(), name.clone());
            let (av, bv) = (
                a.get(&key).cloned().unwrap_or_default(),
                b.get(&key).cloned().unwrap_or_default(),
            );
            let row = verdict(&av, &bv, bound);
            none_worse &= row != Verdict::Worse;
            let median = |v: &[f64]| {
                if v.is_empty() {
                    f64::NAN
                } else {
                    median_f64(&mut v.to_vec())
                }
            };
            let (pa, pb) = (median(&av), median(&bv));
            println!(
                "{:<26} {:<12} {:>14.6} {:>14.6} {:>+8.2}% {:>5.0}%  {}",
                name,
                workload,
                pa,
                pb,
                100.0 * (pb - pa) / pa,
                100.0 * bound.bound,
                row.word()
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        higher_is_better: false,
        bound: 0.10,
    };
    const HIGHER: Bound = Bound {
        higher_is_better: true,
        bound: 0.05,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        assert_eq!(verdict(&[100.0], &[105.0], &LOWER), Verdict::Same);
        assert_eq!(verdict(&[100.0], &[111.0], &LOWER), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[89.0], &LOWER), Verdict::Better);
        assert_eq!(verdict(&[100.0], &[94.0], &HIGHER), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[106.0], &HIGHER), Verdict::Better);
        assert_eq!(verdict(&[100.0], &[96.0], &HIGHER), Verdict::Same);
    }

    #[test]
    fn medians_decide_when_sides_have_several_runs() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&parent, &[120.0, 121.0, 80.0], &LOWER),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &[100.0, 140.0, 99.0], &LOWER),
            Verdict::Same
        );
    }

    #[test]
    fn a_noisy_parent_or_a_missing_side_is_unresolved() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(&noisy, &[100.0], &LOWER), Verdict::Unresolved);
        assert_eq!(verdict(&[], &[100.0], &LOWER), Verdict::Unresolved);
        assert_eq!(verdict(&[100.0], &[], &LOWER), Verdict::Unresolved);
        assert_eq!(verdict(&[0.0], &[1.0], &LOWER), Verdict::Unresolved);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&mut [16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&mut [3.0, 9.0]), Some([1.5, 6.0, 10.5]));
        assert_eq!(quartiles(&mut [1.0]), None);
    }

    #[test]
    fn collects_untraced_correct_runs_only() {
        let file = json::parse(
            r#"{"runs":[
              {"workload":"ingest","traced":false,"correct":true,"metrics":{"setup_s":{"value":2,"unit":"s"}}},
              {"workload":"ingest","traced":true,"correct":true,"metrics":{"crypto.x":{"value":9,"unit":"us"}}},
              {"workload":"ingest","traced":false,"correct":false,"metrics":{"setup_s":{"value":5,"unit":"s"}}},
              {"workload":"mixed","traced":false,"correct":true,"metrics":{"setup_s":{"value":3,"unit":"s"}}}]}"#,
        )
        .unwrap();
        let values = collect(&[file.clone(), file]);
        assert_eq!(
            values[&("ingest".to_string(), "setup_s".to_string())],
            vec![2.0, 2.0]
        );
        assert_eq!(
            values[&("mixed".to_string(), "setup_s".to_string())],
            vec![3.0, 3.0]
        );
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn reads_the_bounds_table() {
        let benchmark = json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
                              {"name":"primary_ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let table = bounds(&benchmark).unwrap();
        assert_eq!(
            table[0],
            (
                "setup_s".to_string(),
                Bound {
                    higher_is_better: false,
                    bound: 0.25
                }
            )
        );
        assert!(table[1].1.higher_is_better);
    }
}
