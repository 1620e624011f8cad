//! `ledgerbench`: the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ledgerbench run --ledgerd PATH --out DIR [--workload NAME] [--seed N]
//!                 [--seconds S] [--trace 0|1] [--git-rev REV]
//! ledgerbench compare A.json[,A2.json..] B.json[,B2.json..] [BENCHMARK.json]
//! ```
//!
//! `run` with `--workload` is one run of one workload (what the driver
//! calls); without it, every workload runs untraced and then traced and
//! `DIR/result.json` is written.

mod compare;
mod daemon;
mod gen;
mod json;
mod probes;
mod run;
mod scrape;
mod stats;
mod trace;
mod workload;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Config, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledgerbench run --ledgerd PATH --out DIR [--workload NAME] [--seed N] \
         [--seconds S] [--trace 0|1] [--git-rev REV]\n       \
         ledgerbench compare A.json[,..] B.json[,..] [BENCHMARK.json]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if (3..=4).contains(&args.len()) => {
            let benchmark_json = args.get(3).map_or("BENCHMARK.json", String::as_str);
            match compare::run(&args[1], &args[2], benchmark_json) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("ledgerbench: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => usage(),
    }
}

fn run_command(args: &[String]) -> ExitCode {
    let mut cfg = Config {
        ledgerd: PathBuf::new(),
        out: PathBuf::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut workload = None;
    let mut trace = None;
    let mut git_rev = "unknown".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--ledgerd" => cfg.ledgerd = PathBuf::from(value),
            "--out" => cfg.out = PathBuf::from(value),
            "--git-rev" => git_rev = value.clone(),
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => {
                    eprintln!("ledgerbench: unknown workload {value:?}");
                    return usage();
                }
            },
            "--seed" => match value.parse() {
                Ok(seed) => cfg.seed = seed,
                Err(_) => return usage(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => cfg.seconds = s,
                _ => return usage(),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    if cfg.ledgerd.as_os_str().is_empty() || cfg.out.as_os_str().is_empty() {
        return usage();
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.out) {
        eprintln!("ledgerbench: create {}: {e}", cfg.out.display());
        return ExitCode::FAILURE;
    }

    // Which runs: the one the driver asked for, or every workload untraced
    // and then traced.
    let plan: Vec<(Workload, bool)> = match workload {
        Some(w) => vec![(w, trace.unwrap_or(false))],
        None => {
            let traces = match trace {
                Some(t) => vec![t],
                None => vec![false, true],
            };
            traces
                .iter()
                .flat_map(|&t| Workload::ALL.map(|w| (w, t)))
                .collect()
        }
    };
    let mut runs = Vec::with_capacity(plan.len());
    let mut all_correct = true;
    let mut last_line = String::new();
    for (workload, traced) in plan {
        cfg.trace = traced;
        let report = match run::run(&cfg, workload) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("ledgerbench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        for m in &report.metrics {
            println!("{} {} {} {}", m.name, m.value, m.unit, workload.name());
        }
        // Op counts and sample counts behind the numbers.
        println!("info {}", report.info.render());
        all_correct &= report.correct;
        let result = report.result();
        last_line = result.render();
        let Json::Obj(mut run) = result else {
            unreachable!("the result is an object")
        };
        run.insert(
            0,
            ("workload".to_string(), Json::Str(workload.name().into())),
        );
        run.insert(1, ("traced".to_string(), Json::Bool(traced)));
        run.push(("info".to_string(), report.info));
        runs.push(Json::Obj(run));
    }

    if workload.is_some() {
        // The driver reads the last line of one run.
        println!("{last_line}");
    } else {
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        let result = Json::obj([
            ("schema", Json::Str("ledgerbench/1".into())),
            ("git_rev", Json::Str(git_rev)),
            ("cpus", Json::Num(cpus as f64)),
            ("seed", Json::Num(cfg.seed as f64)),
            ("seconds", Json::Num(cfg.seconds)),
            ("sizes", workload::sizes()),
            ("correct", Json::Bool(all_correct)),
            ("runs", Json::Arr(runs)),
        ]);
        let path = cfg.out.join("result.json");
        if let Err(e) = std::fs::write(&path, result.render() + "\n") {
            eprintln!("ledgerbench: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("ledgerbench: wrote {}", path.display());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledgerbench: a correctness check failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod contract_tests {
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    const LAYERS: [&str; 10] = [
        "crypto",
        "accumulator",
        "clue",
        "mpt",
        "bintrie",
        "storage",
        "core",
        "server",
        "pool",
        "client",
    ];

    fn listed(benchmark: &Json, table: &str) -> BTreeSet<String> {
        benchmark
            .get(table)
            .and_then(Json::as_arr)
            .expect("table")
            .iter()
            .map(|row| {
                row.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` lists exactly the metrics the code emits, and the
    /// workloads it runs: the names are string literals in the sources.
    #[test]
    fn benchmark_json_lists_what_the_code_emits() {
        let benchmark = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");

        let identifier = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        };
        let end_to_end: BTreeSet<String> = include_str!("run.rs")
            .split("Metric::new(")
            .skip(1)
            .filter_map(|rest| rest.trim_start().strip_prefix('"')?.split('"').next())
            .filter(|name| identifier(name))
            .map(str::to_string)
            .collect();
        assert_eq!(listed(&benchmark, "end_to_end"), end_to_end);

        let per_layer: BTreeSet<String> = include_str!("probes.rs")
            .split('"')
            .filter(|literal| {
                literal
                    .split_once('.')
                    .is_some_and(|(layer, metric)| LAYERS.contains(&layer) && identifier(metric))
            })
            .map(str::to_string)
            .collect();
        assert_eq!(listed(&benchmark, "per_layer"), per_layer);

        let workloads: BTreeSet<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(listed(&benchmark, "workloads"), workloads);
    }
}
