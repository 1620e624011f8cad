//! One run of one workload: generate, set up, measure, audit, crash,
//! (traced: probe) and fold everything into named metrics.

use crate::json::Json;
use crate::probes;
use crate::scrape::{Delta, Scrape};
use crate::stats::{median_f64, percentile};
use crate::trace::{self, Tracer};
use crate::workload::{self, Ack, Bed, ClientOut, Config, Kind, Workload, KINDS};
use ledgerdb_crypto::KeyPair;
use std::path::Path;
use std::time::Instant;

/// Ops per client thread written to the Chrome trace file.
const TRACE_FILE_OPS: u64 = 2000;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics of an untraced run, or the per-layer metrics
    /// of a traced one.
    pub metrics: Vec<Metric>,
    /// Op counts, sample counts and sizes behind the metrics.
    pub info: Json,
}

impl Report {
    /// The object the driver reads from the last line.
    pub fn result(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// The part of a window measured the same way (traced, or not).
#[derive(Default)]
pub struct Phase {
    pub clients: Vec<ClientOut>,
    /// Sorted samples of both clients, by [`Kind`].
    pub lat: [Vec<u64>; KINDS],
    /// The longest time a client spent in this phase.
    pub wall: f64,
}

impl Phase {
    /// Takes the clients' samples into the merged, sorted `lat`.
    fn new(mut clients: Vec<ClientOut>) -> Phase {
        let mut lat: [Vec<u64>; KINDS] = Default::default();
        for out in &mut clients {
            for (all, mine) in lat.iter_mut().zip(out.lat.iter_mut()) {
                all.append(mine);
            }
        }
        for samples in &mut lat {
            samples.sort_unstable();
        }
        let wall = clients
            .iter()
            .map(|o| o.elapsed.as_secs_f64())
            .fold(0.0, f64::max);
        Phase { clients, lat, wall }
    }

    pub fn completed(&self) -> u64 {
        self.clients.iter().map(ClientOut::completed).sum()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.wall
    }
}

fn quantile_ms(sorted: &[u64], q: f64, what: &str, warnings: &mut Vec<String>) -> f64 {
    match percentile(sorted, q) {
        Some(p) => {
            if !p.supported {
                warnings.push(format!(
                    "{what}: p{:.0} rests on fewer than ten samples beyond it ({} samples)",
                    q * 100.0,
                    sorted.len()
                ));
            }
            p.value / 1e6
        }
        None => {
            warnings.push(format!("{what}: no samples"));
            0.0
        }
    }
}

pub fn run(cfg: &Config, workload: Workload) -> Result<Report, String> {
    let run_dir = cfg
        .out
        .join(format!("run-{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let result = run_in(cfg, workload, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(cfg: &Config, workload: Workload, run_dir: &Path) -> Result<Report, String> {
    let mut warnings = Vec::new();
    // ledgerd derives its one member from `--seed bench`.
    let keys = KeyPair::from_seed(b"bench-alice");
    let mut inputs = workload::generate(workload, cfg.seed, &keys);
    let (mut bed, mut setup_times) = workload::set_up_repeatedly(cfg, run_dir, &inputs.preload)?;
    let preloaded = bed.preloaded.len() as u64;

    // The window. A traced run alternates untraced and traced slices inside
    // it; an untraced run never traces.
    let before = if cfg.trace {
        Some(scrape(&mut bed)?)
    } else {
        None
    };
    let tracers = if cfg.trace {
        let (epoch, capacity) = (Instant::now(), (cfg.seconds * 60_000.0) as usize);
        vec![
            Tracer::on(epoch, capacity, 0),
            Tracer::on(epoch, capacity, 1 << 32),
        ]
    } else {
        vec![Tracer::off(), Tracer::off()]
    };
    let cpu = bed.daemon.cpu_seconds()?;
    let outs = workload::run_window(&mut bed, &mut inputs.roles, cfg.seconds, tracers);
    let cpu_s = bed.daemon.cpu_seconds()? - cpu;
    let after = if cfg.trace {
        Some(scrape(&mut bed)?)
    } else {
        None
    };
    let peak_rss = bed.daemon.peak_rss_mib()?;
    let (mut plain, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    for ([untraced_out, traced_out], tracer) in outs {
        plain.push(untraced_out);
        traced.push(traced_out);
        spans.push(tracer.into_spans());
    }
    let (plain, traced) = (Phase::new(plain), Phase::new(traced));

    // Hold the server to its acks: a sample of what the writers were acked
    // must prove, client-verified, with the acked hash.
    let mut acks: Vec<Ack> = Vec::new();
    for out in plain.clients.iter().chain(&traced.clients) {
        acks.extend_from_slice(&out.acks);
    }
    let window_appends = acks.len() as u64;
    let audits = if acks.is_empty() {
        Vec::new()
    } else {
        audit_all(&mut bed, &acks, cfg.seed)?
    };
    let audited: usize = audits
        .iter()
        .map(|o| o.lat[Kind::Prove as usize].len())
        .sum();

    let acked = preloaded + window_appends;
    let user_bytes = acked * crate::gen::PAYLOAD_BYTES as u64;
    let disk_bytes = bed.daemon.disk_bytes();

    // Crash cycles: the restarted server is held to every ack, preloaded
    // or written in the window.
    acks.extend_from_slice(&bed.preloaded);
    bed.clients[0]
        .sync()
        .map_err(|e| format!("sync before crash cycles: {e}"))?;
    let verified = bed.clients[0].client().verified_journals();
    let crash_sample = workload::audit_sample(&acks, verified, cfg.seed, 7, workload::CRASH_SAMPLE);
    let mut crash_out = ClientOut::default();
    let mut recover_times = Vec::with_capacity(workload::RECOVER_CYCLES);
    for (cycle, spare) in std::mem::take(&mut inputs.spares).into_iter().enumerate() {
        // Each earlier cycle added one acked journal.
        let acked = acked + cycle as u64;
        recover_times.push(workload::crash_cycle(
            &mut bed,
            acked,
            &crash_sample,
            spare,
            &mut crash_out,
        )?);
    }

    // Totals over every op the run attempted.
    let everyone = || {
        plain
            .clients
            .iter()
            .chain(&traced.clients)
            .chain(&audits)
            .chain([&crash_out])
    };
    let attempted: u64 = everyone().map(|o| o.attempted).sum();
    let failed: u64 = everyone().map(|o| o.failed).sum();
    let first_error = everyone().find_map(|o| o.first_error.clone());
    let proofs_sized: u64 = everyone().map(|o| o.proofs_sized).sum();
    let proof_bytes: u64 = everyone().map(|o| o.proof_bytes).sum();

    let mut info: Vec<(&'static str, Json)> = vec![
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("traced", Json::Bool(cfg.trace)),
        ("preloaded_journals", Json::Num(preloaded as f64)),
        ("window_s", Json::Num(plain.wall + traced.wall)),
        (
            "window_ops",
            Json::Num((plain.completed() + traced.completed()) as f64),
        ),
        ("acked_journals", Json::Num(acked as f64)),
        ("audited", Json::Num(audited as f64)),
        ("proofs_sized", Json::Num(proofs_sized as f64)),
    ];

    let metrics = if cfg.trace {
        let (before, after) = (before.expect("scraped"), after.expect("scraped"));
        let trace_path = cfg.out.join(format!("trace-{}.json", workload.name()));
        std::fs::write(
            &trace_path,
            trace::chrome_trace_json(&spans, TRACE_FILE_OPS),
        )
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        info.push(("trace_file", Json::Str(trace_path.display().to_string())));
        let recorded: usize = spans.iter().map(Vec::len).sum();
        info.push(("spans", Json::Num(recorded as f64)));
        let ctx = probes::Context {
            workload,
            seed: cfg.seed,
            run_dir,
            delta: Delta {
                before: &before,
                after: &after,
            },
            window_appends,
            proof_bytes_per_read: proof_bytes as f64 / proofs_sized.max(1) as f64,
            plain: &plain,
            traced: &traced,
            budget: trace::budget(&spans),
        };
        probes::per_layer(ctx, &mut bed, &inputs.preload, &keys, &mut warnings)?
    } else {
        let primary = &plain.lat[workload.primary() as usize];
        info.push(("latency_samples", Json::Num(primary.len() as f64)));
        for (key, q) in [("p95_ms", 0.95), ("p99_ms", 0.99)] {
            let value = percentile(primary, q).map_or(0.0, |p| p.value / 1e6);
            info.push((key, Json::Num(value)));
        }
        let kops = plain.completed() as f64 / 1000.0;
        let mut quantile = |q| quantile_ms(primary, q, "latency", &mut warnings);
        vec![
            Metric::new("setup_s", median_f64(&mut setup_times), "s"),
            Metric::new("ops_per_s", primary.len() as f64 / plain.wall, "1/s"),
            Metric::new("p50_ms", quantile(0.50), "ms"),
            Metric::new("p90_ms", quantile(0.90), "ms"),
            Metric::new(
                "disk_bytes_per_user_byte",
                disk_bytes as f64 / user_bytes as f64,
                "ratio",
            ),
            Metric::new("recover_s", median_f64(&mut recover_times), "s"),
            Metric::new("server_cpu_s_per_kop", cpu_s / kops.max(1e-9), "s"),
            Metric::new("server_peak_rss_mb", peak_rss, "MiB"),
        ]
    };

    for warning in &warnings {
        eprintln!("ledgerbench: warning: {warning}");
    }
    if let Some(error) = &first_error {
        eprintln!("ledgerbench: first failed op: {error}");
    }
    info.push((
        "warnings",
        Json::Arr(warnings.into_iter().map(Json::Str).collect()),
    ));
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info: Json::obj(info),
    })
}

/// Each client syncs, draws its seeded sample of the acks, and proves it.
fn audit_all(bed: &mut Bed, acks: &[Ack], seed: u64) -> Result<Vec<ClientOut>, String> {
    let mut outs = Vec::with_capacity(bed.clients.len());
    for (i, client) in bed.clients.iter_mut().enumerate() {
        client
            .sync()
            .map_err(|e| format!("sync before audit: {e}"))?;
        let verified = client.client().verified_journals();
        let sample = workload::audit_sample(acks, verified, seed, i as u64, workload::AUDIT_SAMPLE);
        let mut out = ClientOut::default();
        workload::audit(client, &sample, &mut out);
        outs.push(out);
    }
    Ok(outs)
}

fn scrape(bed: &mut Bed) -> Result<Scrape, String> {
    bed.clients[0]
        .stats()
        .map(|text| Scrape::parse(&text))
        .map_err(|e| format!("stats: {e}"))
}
