//! `loadgen` — remote append load generator for `ledgerd`.
//!
//! Sweeps client counts × commit modes against an in-process server
//! backed by a real durable ledger on disk, and prints one JSON row per
//! configuration:
//!
//! ```text
//! loadgen [--appends N] [--payload BYTES] [--clients 1,4,16] \
//!         [--window-us 150] [--admission verify|proxy|both]
//! loadgen --read-mix [--readers N] [--read-secs S] \
//!         [--addr HOST:PORT --seed SEED]
//! loadgen --connections 64,512,4096 [--rounds N]
//! ```
//!
//! `--connections` runs the event-loop concurrency sweep: for each
//! count it starts an in-process epoll `ledgerd` (`EventLedgerd`),
//! establishes that many **simultaneously open** connections, then has
//! a small worker pool drive `--rounds` request round trips over every
//! socket while all of them stay open — the thing a thread-per-
//! connection server cannot do at 4096. Each cell asserts every
//! connection was served (structural gate, valid on any core count)
//! and reports client-observed p50/p95/p99 for wall-clock gating where
//! the machine has the cores to make latency meaningful.
//!
//! `--read-mix` runs the mixed read workload instead of the append
//! sweep: one writer appends (per-append fsync, so it holds the ledger
//! write lock across the disk barrier) while `--readers` clients pound
//! GetProof / GetTx / Verify over TCP against the sealed prefix.
//! Without `--addr` it runs the cell against an in-process server;
//! with `--addr` it drives an already-running `ledgerd` — the form
//! `scripts/verify.sh` uses to assert snapshot hits.
//!
//! Modes:
//! * `batch=off` — streams at `fsync=always`: every append pays its own
//!   payload fsync + WAL fsync before the ack (the per-append baseline);
//! * `batch=on`  — streams at `fsync=never` with the group-commit
//!   batcher supplying one durability barrier per window; acks are
//!   still strictly after durability.
//! * `admission=verify` — the server checks membership + π_c on every
//!   append (direct-to-client deployment);
//! * `admission=proxy`  — π_c is the proxy tier's job (Fig 1,
//!   `Admission::ProxyTrusted`): the server enforces
//!   membership only, so the measurement isolates the service +
//!   durability layers from the fixed per-request ECDSA cost.
//!
//! Every request travels the full wire path: sign → TCP → decode →
//! admit → commit → durable ack. Latency is measured per request
//! at the client into a telemetry histogram; after each sweep cell the
//! server's own `Stats` exposition is scraped, so every JSON row pairs
//! client-observed and server-observed p50/p95/p99. `--no-telemetry`
//! disables the server-side registry (one relaxed load per record) to
//! measure instrumentation overhead.

use ledgerdb_bench::XorShift;
use ledgerdb_core::recovery::open_durable_with;
use ledgerdb_core::state::{verify_state_proof, StateBackend, StateCommitment, WorldState};
use ledgerdb_core::{
    LedgerConfig, LedgerDb, MemberRegistry, ShardedLedger, SharedLedger, TxRequest,
};
use ledgerdb_crypto::ca::{CertificateAuthority, Role};
use ledgerdb_crypto::keys::KeyPair;
use ledgerdb_server::{
    Admission, BatchConfig, EventConfig, EventLedgerd, Ledgerd, RemoteLedger, ServerConfig,
};
use ledgerdb_storage::FsyncPolicy;
use ledgerdb_telemetry::{parse_value, Histogram, Registry, Unit};
use ledgerdb_timesvc::clock::SimClock;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    appends: u64,
    payload: usize,
    clients: Vec<usize>,
    window: Duration,
    admissions: Vec<Admission>,
    telemetry: bool,
    read_mix: bool,
    readers: usize,
    read_secs: f64,
    addr: Option<String>,
    seed: String,
    pipeline: bool,
    workers: usize,
    batch_size: usize,
    reps: usize,
    connections: Vec<usize>,
    rounds: usize,
    trace: bool,
    shards: Vec<usize>,
    state_ab: bool,
    keys: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        appends: 2048,
        payload: 256,
        clients: vec![1, 4, 16],
        window: Duration::from_micros(150),
        admissions: vec![Admission::Verify, Admission::ProxyTrusted],
        telemetry: true,
        read_mix: false,
        readers: 4,
        read_secs: 2.0,
        addr: None,
        seed: "demo".into(),
        pipeline: false,
        workers: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        batch_size: 64,
        reps: 2,
        connections: Vec::new(),
        rounds: 3,
        trace: false,
        shards: Vec::new(),
        state_ab: false,
        keys: 100_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--no-telemetry" {
            args.telemetry = false;
            continue;
        }
        if flag == "--read-mix" {
            args.read_mix = true;
            continue;
        }
        if flag == "--pipeline" {
            args.pipeline = true;
            continue;
        }
        if flag == "--trace" {
            args.trace = true;
            continue;
        }
        if flag == "--state-ab" {
            args.state_ab = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        });
        let bad = |what: &str| -> ! {
            eprintln!("bad {what}: {value}");
            std::process::exit(2);
        };
        match flag.as_str() {
            "--appends" => args.appends = value.parse().unwrap_or_else(|_| bad("count")),
            "--payload" => args.payload = value.parse().unwrap_or_else(|_| bad("size")),
            "--clients" => {
                args.clients = value
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| bad("client list")))
                    .collect();
            }
            "--window-us" => {
                args.window =
                    Duration::from_micros(value.parse().unwrap_or_else(|_| bad("window")));
            }
            "--admission" => {
                args.admissions = match value.as_str() {
                    "verify" => vec![Admission::Verify],
                    "proxy" => vec![Admission::ProxyTrusted],
                    "both" => vec![Admission::Verify, Admission::ProxyTrusted],
                    _ => bad("admission"),
                };
            }
            "--readers" => args.readers = value.parse().unwrap_or_else(|_| bad("count")),
            "--read-secs" => args.read_secs = value.parse().unwrap_or_else(|_| bad("seconds")),
            "--addr" => args.addr = Some(value.clone()),
            "--seed" => args.seed = value.clone(),
            "--workers" => args.workers = value.parse().unwrap_or_else(|_| bad("count")),
            "--batch-size" => args.batch_size = value.parse().unwrap_or_else(|_| bad("count")),
            "--reps" => args.reps = value.parse().unwrap_or_else(|_| bad("count")),
            "--connections" => {
                args.connections = value
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| bad("connection list")))
                    .collect();
            }
            "--rounds" => args.rounds = value.parse().unwrap_or_else(|_| bad("count")),
            "--keys" => args.keys = value.parse().unwrap_or_else(|_| bad("count")),
            "--shards" => {
                args.shards = value
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| bad("shard list")))
                    .collect();
            }
            _ => {
                eprintln!(
                    "usage: loadgen [--appends N] [--payload BYTES] \
                     [--clients 1,4,16] [--window-us US] \
                     [--admission verify|proxy|both] [--no-telemetry] \
                     | --read-mix [--readers N] [--read-secs S] \
                     [--addr HOST:PORT --seed SEED] \
                     | --pipeline [--appends N] [--payload BYTES] \
                     [--workers N] [--batch-size N] [--reps R] \
                     | --connections 64,512,4096 [--rounds N] \
                     | --trace [--appends N] [--payload BYTES] [--reps R] \
                     | --shards 1,2,4 [--appends N] [--payload BYTES] \
                     | --state-ab [--keys N] [--appends N] [--payload BYTES]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn registry() -> (MemberRegistry, KeyPair) {
    let ca = CertificateAuthority::from_seed(b"loadgen-ca");
    let alice = KeyPair::from_seed(b"loadgen-alice");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    (registry, alice)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ledgerdb-loadgen-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Server-observed numbers scraped from the `Stats` exposition after a
/// sweep cell finishes (milliseconds, already unit-scaled by `render`).
struct ServerSide {
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    appends_total: f64,
    error_frames: f64,
}

fn scrape_server(addr: std::net::SocketAddr) -> Option<ServerSide> {
    let text = RemoteLedger::connect(addr).ok()?.stats().ok()?;
    let ms = |token: &str| parse_value(&text, token).map(|v| v * 1e3);
    Some(ServerSide {
        p50_ms: ms("server_req_append_seconds{quantile=\"0.5\"}")?,
        p95_ms: ms("server_req_append_seconds{quantile=\"0.95\"}")?,
        p99_ms: ms("server_req_append_seconds{quantile=\"0.99\"}")?,
        appends_total: parse_value(&text, "ledger_appends_total")?,
        error_frames: parse_value(&text, "server_error_frames_total")?,
    })
}

struct Row {
    clients: usize,
    batch: bool,
    admission: Admission,
    window_us: u64,
    appends: u64,
    elapsed: Duration,
    p50: Duration,
    p95: Duration,
    p99: Duration,
    server: Option<ServerSide>,
}

fn admission_name(a: Admission) -> &'static str {
    match a {
        Admission::Verify => "verify",
        Admission::ProxyTrusted => "proxy",
    }
}

impl Row {
    fn print(&self) {
        let tps = self.appends as f64 / self.elapsed.as_secs_f64();
        let server = match &self.server {
            Some(s) => format!(
                ",\"server_p50_ms\":{:.3},\"server_p95_ms\":{:.3},\
                 \"server_p99_ms\":{:.3},\"server_appends_total\":{},\
                 \"server_error_frames\":{}",
                s.p50_ms, s.p95_ms, s.p99_ms, s.appends_total, s.error_frames
            ),
            None => String::new(),
        };
        println!(
            "{{\"bench\":\"ledgerd_append\",\"clients\":{},\"batch\":{},\
             \"admission\":\"{}\",\
             \"window_us\":{},\"appends\":{},\"elapsed_s\":{:.3},\
             \"appends_per_sec\":{:.1},\"p50_ms\":{:.3},\"p95_ms\":{:.3},\
             \"p99_ms\":{:.3}{server}}}",
            self.clients,
            self.batch,
            admission_name(self.admission),
            self.window_us,
            self.appends,
            self.elapsed.as_secs_f64(),
            tps,
            self.p50.as_secs_f64() * 1e3,
            self.p95.as_secs_f64() * 1e3,
            self.p99.as_secs_f64() * 1e3,
        );
    }
}

fn run_config(args: &Args, clients: usize, batch: bool, admission: Admission) -> Row {
    let tag = format!(
        "{}c-{}-{}",
        clients,
        if batch { "batch" } else { "nobatch" },
        admission_name(admission)
    );
    let dir = temp_dir(&tag);
    let (registry, alice) = registry();
    let config = LedgerConfig { block_size: 64, fam_delta: 20, name: format!("loadgen-{tag}"), state_backend: Default::default() };
    // One registry per sweep cell: the scraped exposition covers exactly
    // this configuration's traffic.
    let telemetry = Arc::new(Registry::new());
    telemetry.set_enabled(args.telemetry);
    // batch=off: per-append fsync. batch=on: the committer's barrier is
    // the only fsync — same ack-after-durable contract.
    let policy = if batch { FsyncPolicy::Never } else { FsyncPolicy::Always };
    let (ledger, _) = open_durable_with(
        config,
        registry,
        &dir,
        policy,
        Arc::new(SimClock::new()),
        &telemetry,
    )
    .unwrap();
    let server = Ledgerd::start(
        SharedLedger::new(ledger),
        ServerConfig {
            workers: clients.max(1),
            max_connections: clients + 4,
            batch: batch.then(|| BatchConfig { max_batch: 64, max_delay: args.window }),
            admission,
            registry: telemetry.clone(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Pre-sign everything: loadgen measures the service, not the
    // client's ECDSA.
    let per_client = args.appends / clients as u64;
    let mut rng = XorShift::new(7);
    let jobs: Vec<Vec<TxRequest>> = (0..clients as u64)
        .map(|c| {
            (0..per_client)
                .map(|i| {
                    TxRequest::signed(
                        &alice,
                        rng.payload(args.payload),
                        vec![format!("lg-{}", i % 32)],
                        c * 1_000_000 + i,
                    )
                })
                .collect()
        })
        .collect();

    // Client-observed latency goes through the same histogram type the
    // server uses, shared across client threads lock-free.
    let client_hist = Arc::new(Histogram::new(Unit::Seconds));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for requests in jobs {
            let hist = client_hist.clone();
            scope.spawn(move || {
                let mut remote = RemoteLedger::connect(addr).expect("connect");
                for request in requests {
                    let t0 = Instant::now();
                    remote.append(request).expect("durable ack");
                    hist.observe_duration(t0.elapsed());
                }
            });
        }
    });
    let elapsed = started.elapsed();
    // Scrape the server's own view of the cell before tearing it down.
    let server_side = scrape_server(addr);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let snap = client_hist.snapshot();
    Row {
        clients,
        batch,
        admission,
        window_us: if batch { args.window.as_micros() as u64 } else { 0 },
        appends: snap.count,
        elapsed,
        p50: Duration::from_nanos(snap.p50),
        p95: Duration::from_nanos(snap.p95),
        p99: Duration::from_nanos(snap.p99),
        server: server_side,
    }
}

/// One read-mix measurement cell: reads/sec over the mixed GetProof /
/// GetTx / Verify workload with one concurrent writer.
struct ReadMixRow {
    reads: u64,
    elapsed: Duration,
    writer_appends: f64,
    snapshot_hits: f64,
    snapshot_fallbacks: f64,
}

impl ReadMixRow {
    fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / self.elapsed.as_secs_f64()
    }

    fn print(&self, readers: usize) {
        println!(
            "{{\"bench\":\"ledgerd_read_mix\",\
             \"readers\":{},\"reads\":{},\"elapsed_s\":{:.3},\
             \"reads_per_sec\":{:.1},\"writer_appends\":{},\
             \"snapshot_hits\":{},\"snapshot_fallbacks\":{}}}",
            readers,
            self.reads,
            self.elapsed.as_secs_f64(),
            self.reads_per_sec(),
            self.writer_appends,
            self.snapshot_hits,
            self.snapshot_fallbacks,
        );
    }
}

/// Drive the mixed read workload against `addr` for `read_secs` while
/// one writer appends continuously. `sealed` bounds the jsn range the
/// readers query (the pre-seeded sealed prefix). Returns total read ops
/// and the measured wall time; the caller scrapes counters.
fn drive_read_mix(
    addr: std::net::SocketAddr,
    alice: &KeyPair,
    readers: usize,
    read_secs: f64,
    sealed: u64,
    payload: usize,
) -> (u64, Duration) {
    use ledgerdb_accumulator::fam::TrustedAnchor;
    use ledgerdb_crypto::wire::Wire;
    use ledgerdb_server::protocol::{
        read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME,
    };
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    // The writer cycles a pre-signed pool so its lock pressure is
    // bounded by the service, not by client-side ECDSA.
    let mut rng = XorShift::new(11);
    let pool: Vec<TxRequest> = (0..512u64)
        .map(|i| {
            TxRequest::signed(
                alice,
                rng.payload(payload),
                vec![format!("rm-{}", i % 16)],
                10_000_000 + i,
            )
        })
        .collect();

    let stop = AtomicBool::new(false);
    let total_reads = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        let stop_ref = &stop;
        let pool_ref = &pool;
        scope.spawn(move || {
            let mut remote = RemoteLedger::connect(addr).expect("writer connect");
            let mut i = 0usize;
            while !stop_ref.load(Ordering::Relaxed) {
                remote.append(pool_ref[i % pool_ref.len()].clone()).expect("writer ack");
                i += 1;
            }
        });
        for reader in 0..readers as u64 {
            let total = &total_reads;
            scope.spawn(move || {
                let anchor = TrustedAnchor::default();
                let stream = std::net::TcpStream::connect(addr).expect("reader connect");
                stream.set_nodelay(true).ok();
                let mut writer = stream.try_clone().expect("clone stream");
                let mut reader_half = std::io::BufReader::with_capacity(16 * 1024, stream);
                let mut call = |request: &Request| -> Response {
                    write_frame(&mut writer, &request.to_wire()).expect("send");
                    let body = read_frame(&mut reader_half, DEFAULT_MAX_FRAME).expect("recv");
                    Response::from_wire(&body).expect("decode")
                };
                let mut rng = XorShift::new(0xBEEF ^ (reader + 1));
                let deadline = Instant::now() + Duration::from_secs_f64(read_secs);
                let mut ops = 0u64;
                while Instant::now() < deadline {
                    let jsn = rng.below(sealed.max(1));
                    let (tx_hash, proof) =
                        match call(&Request::GetProof { jsn, anchor: anchor.clone() }) {
                            Response::Proof { tx_hash, proof } => (tx_hash, proof),
                            other => panic!("GetProof({jsn}) answered {other:?}"),
                        };
                    match call(&Request::GetTx(jsn)) {
                        Response::Tx { journal, .. } => assert_eq!(journal.jsn, jsn),
                        other => panic!("GetTx({jsn}) answered {other:?}"),
                    }
                    match call(&Request::Verify { jsn, tx_hash, proof, anchor: anchor.clone() }) {
                        Response::Verified => {}
                        other => panic!("Verify({jsn}) answered {other:?}"),
                    }
                    ops += 3;
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
        // Readers run the measurement clock; the writer stops when the
        // last reader finishes. Scope join order: spawn order doesn't
        // matter, we flip the flag from the main thread after sleeping
        // out the window plus a grace tick.
        std::thread::sleep(Duration::from_secs_f64(read_secs));
        // Give readers a moment to drain their final round trips.
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
    });
    (total_reads.load(Ordering::Relaxed), started.elapsed())
}

/// In-process read-mix cell: durable ledger + server, pre-seeded sealed
/// prefix, mixed readers vs one writer.
fn read_mix_cell(args: &Args) -> ReadMixRow {
    const SEALED: u64 = 192;
    let tag = "readmix";
    let dir = temp_dir(tag);
    let (registry, alice) = registry();
    let telemetry = Arc::new(Registry::new());
    let config = LedgerConfig { block_size: 64, fam_delta: 15, name: format!("loadgen-{tag}"), state_backend: Default::default() };
    // Per-append fsync and no batcher: every writer append holds the
    // ledger write lock across the disk barrier — exactly the stall the
    // snapshot path exists to take readers out of.
    let (ledger, _) = open_durable_with(
        config,
        registry,
        &dir,
        FsyncPolicy::Always,
        Arc::new(SimClock::new()),
        &telemetry,
    )
    .unwrap();
    let shared = SharedLedger::new(ledger);
    // Seed a sealed prefix for the readers to query.
    let mut rng = XorShift::new(3);
    for i in 0..SEALED {
        let req = TxRequest::signed(
            &alice,
            rng.payload(args.payload),
            vec![format!("rm-{}", i % 16)],
            i,
        );
        shared.append(req).unwrap();
    }
    shared.seal_block();
    let seeded_appends = parse_value(
        &ledgerdb_telemetry::render(&telemetry),
        "ledger_appends_total",
    )
    .unwrap_or(0.0);

    let server = Ledgerd::start(
        shared,
        ServerConfig {
            workers: args.readers + 2,
            max_connections: args.readers + 6,
            batch: None,
            // Proxy admission keeps the per-append ECDSA re-check (a
            // CPU cost paid outside the lock) out of the writer's
            // cycle, so the cycle is dominated by the fsyncs it holds
            // the write lock across — the contention under measurement.
            admission: Admission::ProxyTrusted,
            registry: telemetry.clone(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let (reads, elapsed) =
        drive_read_mix(server.local_addr(), &alice, args.readers, args.read_secs, SEALED, args.payload);
    let text = ledgerdb_telemetry::render(&telemetry);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    ReadMixRow {
        reads,
        elapsed,
        writer_appends: parse_value(&text, "ledger_appends_total").unwrap_or(0.0) - seeded_appends,
        snapshot_hits: parse_value(&text, "ledger_snapshot_hit_total").unwrap_or(0.0),
        snapshot_fallbacks: parse_value(&text, "ledger_snapshot_fallback_total").unwrap_or(0.0),
    }
}

/// External read-mix cell: drive a running `ledgerd` at `--addr`; the
/// scraped snapshot counters say how many reads the snapshot served.
fn read_mix_external(args: &Args, addr_str: &str) {
    use std::net::ToSocketAddrs;
    let addr = addr_str
        .to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| {
            eprintln!("loadgen: cannot resolve {addr_str}");
            std::process::exit(2);
        });
    let alice = KeyPair::from_seed(format!("{}-alice", args.seed).as_bytes());
    let mut probe = RemoteLedger::connect(addr).expect("connect");
    let sealed = probe.info().journal_count.max(1);
    let stats_before = probe.stats().expect("stats");
    let appends_before = parse_value(&stats_before, "ledger_appends_total").unwrap_or(0.0);
    drop(probe);

    let (reads, elapsed) =
        drive_read_mix(addr, &alice, args.readers, args.read_secs, sealed, args.payload);

    let mut probe = RemoteLedger::connect(addr).expect("reconnect");
    let text = probe.stats().expect("stats");
    let row = ReadMixRow {
        reads,
        elapsed,
        writer_appends: parse_value(&text, "ledger_appends_total").unwrap_or(0.0)
            - appends_before,
        snapshot_hits: parse_value(&text, "ledger_snapshot_hit_total").unwrap_or(0.0),
        snapshot_fallbacks: parse_value(&text, "ledger_snapshot_fallback_total").unwrap_or(0.0),
    };
    row.print(args.readers);
}

fn run_read_mix(args: &Args) {
    if let Some(addr) = &args.addr {
        read_mix_external(args, addr);
        return;
    }
    eprintln!(
        "loadgen: read-mix — {} readers x {:.1}s, 1 writer holding per-append fsyncs",
        args.readers, args.read_secs
    );
    read_mix_cell(args).print(args.readers);
}

/// One append-pipeline A/B cell: a single client streaming
/// `AppendBatch` frames against an in-process server whose compute pool
/// is either off (`workers == 1`, every stage serial) or on.
struct PipelineRow {
    workers: usize,
    appends: u64,
    elapsed: Duration,
    pool_tasks: f64,
    blocks: u64,
    journal_root: String,
    last_block_hash: String,
}

impl PipelineRow {
    fn appends_per_sec(&self) -> f64 {
        self.appends as f64 / self.elapsed.as_secs_f64()
    }

    fn print(&self) {
        println!(
            "{{\"bench\":\"append_pipeline\",\"workers\":{},\"appends\":{},\
             \"elapsed_s\":{:.3},\"appends_per_sec\":{:.1},\"pool_tasks\":{},\
             \"blocks\":{},\"journal_root\":\"{}\",\"last_block_hash\":\"{}\"}}",
            self.workers,
            self.appends,
            self.elapsed.as_secs_f64(),
            self.appends_per_sec(),
            self.pool_tasks,
            self.blocks,
            self.journal_root,
            self.last_block_hash,
        );
    }
}

fn pipeline_cell(args: &Args, workers: usize, requests: &[TxRequest]) -> PipelineRow {
    let tag = format!("pipeline-{workers}w");
    let dir = temp_dir(&tag);
    let (registry, _) = registry();
    let telemetry = Arc::new(Registry::new());
    let config = LedgerConfig { block_size: 64, fam_delta: 20, name: format!("loadgen-{tag}"), state_backend: Default::default() };
    let (ledger, _) = open_durable_with(
        config,
        registry,
        &dir,
        FsyncPolicy::Never,
        Arc::new(SimClock::new()),
        &telemetry,
    )
    .unwrap();
    let shared = SharedLedger::new(ledger);
    let pool = (workers > 1).then(|| ledgerdb_pool::Pool::with_registry(workers, &telemetry));
    let server = Ledgerd::start(
        shared.clone(),
        ServerConfig {
            workers: 2,
            // `AppendBatch` frames are whole batches already; the
            // accumulation window would only add latency.
            batch: None,
            admission: Admission::Verify,
            registry: telemetry.clone(),
            pool,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut remote = RemoteLedger::connect(server.local_addr()).expect("connect");
    let started = Instant::now();
    for chunk in requests.chunks(args.batch_size.max(1)) {
        for result in remote.append_batch(chunk.to_vec()).expect("batch ack") {
            result.expect("durable ack");
        }
    }
    let elapsed = started.elapsed();
    shared.seal_block();

    let text = ledgerdb_telemetry::render(&telemetry);
    let blocks = shared.block_count();
    let last_block_hash = shared
        .blocks_from(blocks.saturating_sub(1), 1)
        .first()
        .map(|b| b.hash().to_hex())
        .unwrap_or_default();
    let row = PipelineRow {
        workers,
        appends: requests.len() as u64,
        elapsed,
        pool_tasks: parse_value(&text, "ledger_pool_tasks_total").unwrap_or(0.0),
        blocks,
        journal_root: shared.journal_root().to_hex(),
        last_block_hash,
    };
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    row
}

fn run_pipeline(args: &Args) {
    let workers = args.workers.max(2);
    eprintln!(
        "loadgen: append-pipeline A/B — {} appends x {} B in batches of {}, \
         workers 1 vs {}, {} interleaved reps",
        args.appends, args.payload, args.batch_size, workers, args.reps
    );
    // One deterministic request set shared by every cell: byte-identical
    // inputs, so the arms must produce byte-identical ledgers.
    let (_, alice) = registry();
    let mut rng = XorShift::new(23);
    let requests: Vec<TxRequest> = (0..args.appends)
        .map(|i| {
            TxRequest::signed(
                &alice,
                rng.payload(args.payload),
                vec![format!("pl-{}", i % 32)],
                i,
            )
        })
        .collect();

    // Interleave the arms so machine drift hits both equally.
    let mut rows = Vec::new();
    for _rep in 0..args.reps.max(1) {
        for w in [1usize, workers] {
            let row = pipeline_cell(args, w, &requests);
            row.print();
            rows.push(row);
        }
    }

    // Determinism is non-negotiable: every cell — serial or pooled —
    // must land on the same roots and the same chain.
    let reference = &rows[0];
    for row in &rows[1..] {
        assert_eq!(
            row.journal_root, reference.journal_root,
            "journal root diverged between pipeline arms"
        );
        assert_eq!(
            row.last_block_hash, reference.last_block_hash,
            "block chain diverged between pipeline arms"
        );
        assert_eq!(row.blocks, reference.blocks, "block count diverged");
    }
    let pooled_tasks: f64 =
        rows.iter().filter(|r| r.workers > 1).map(|r| r.pool_tasks).sum();
    assert!(pooled_tasks > 0.0, "pooled arm never dispatched a pool task");

    let mean = |w: usize| {
        let sel: Vec<f64> =
            rows.iter().filter(|r| r.workers == w).map(|r| r.appends_per_sec()).collect();
        sel.iter().sum::<f64>() / sel.len() as f64
    };
    eprintln!(
        "loadgen: append-pipeline speedup: {:.2}x ({:.0} vs {:.0} appends/s, \
         workers {} vs 1, roots byte-identical)",
        mean(workers) / mean(1),
        mean(workers),
        mean(1),
        workers,
    );
}

/// One shard-sweep cell: a K-shard deployment served over one TCP
/// endpoint, loaded with clue-spread appends from concurrent clients,
/// then audited end to end by a distrusting client that syncs every
/// shard replica and composes cross-shard proofs against its own top
/// anchor root.
struct ShardRow {
    shards: usize,
    appends: u64,
    elapsed: Duration,
    composed: u64,
    epochs: u64,
    top_root: String,
}

impl ShardRow {
    fn appends_per_sec(&self) -> f64 {
        self.appends as f64 / self.elapsed.as_secs_f64()
    }

    fn print(&self) {
        println!(
            "{{\"bench\":\"shard_scale\",\"shards\":{},\"appends\":{},\"elapsed_s\":{:.4},\
             \"appends_per_sec\":{:.1},\"composed_proofs\":{},\"composed_verified\":true,\
             \"epochs\":{},\"top_root\":\"{}\"}}",
            self.shards,
            self.appends,
            self.elapsed.as_secs_f64(),
            self.appends_per_sec(),
            self.composed,
            self.epochs,
            self.top_root,
        );
    }
}

fn shard_cell(args: &Args, k: usize) -> ShardRow {
    let tag = format!("shards-{k}");
    let base = temp_dir(&tag);
    let mut shard_ledgers = Vec::with_capacity(k);
    for i in 0..k {
        // K=1 lays the ledger out flat, exactly like an unsharded
        // deployment; K>1 gets one subdirectory per shard.
        let dir = if k == 1 { base.clone() } else { base.join(format!("shard-{i}")) };
        let (registry, _) = registry();
        let telemetry = Arc::new(Registry::new());
        let config =
            LedgerConfig { block_size: 64, fam_delta: 20, name: "loadgen-shards".into(), state_backend: Default::default() };
        let (ledger, _) = open_durable_with(
            config,
            registry,
            &dir,
            FsyncPolicy::Never,
            Arc::new(SimClock::new()),
            &telemetry,
        )
        .unwrap();
        shard_ledgers.push(SharedLedger::new(ledger));
    }
    let sharded = ShardedLedger::new(shard_ledgers).expect("valid shard count");
    let server = Ledgerd::start_sharded(
        sharded.clone(),
        ServerConfig {
            workers: k.max(2),
            batch: None,
            admission: Admission::Verify,
            registry: Arc::new(Registry::new()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Clue-spread load from four concurrent clients: clues hash across
    // all K shards, so every shard sees traffic in every cell.
    let (_, alice) = registry();
    let clients = 4usize;
    let per_client = (args.appends as usize).div_ceil(clients);
    let batch = args.batch_size.max(1);
    let started = Instant::now();
    let jsns: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let alice = &alice;
                scope.spawn(move || {
                    let mut rng = XorShift::new(0x5AD + c as u64);
                    let requests: Vec<TxRequest> = (0..per_client)
                        .map(|i| {
                            TxRequest::signed(
                                alice,
                                rng.payload(args.payload),
                                vec![format!("shard-clue-{}", rng.next_u64() % 61)],
                                (c * per_client + i) as u64,
                            )
                        })
                        .collect();
                    let mut remote = RemoteLedger::connect(addr).expect("connect");
                    let mut acked = Vec::with_capacity(per_client);
                    for chunk in requests.chunks(batch) {
                        for result in
                            remote.append_batch(chunk.to_vec()).expect("batch ack")
                        {
                            let (jsn, _) = result.expect("durable ack");
                            acked.push(jsn);
                        }
                    }
                    acked
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    // Seal everything, then run the distrusting audit: sync every
    // shard replica, mirror the epoch anchors (the server cuts the
    // epoch lazily on that request), and compose a proof for a sample
    // of the acked jsns. `prove_composed` verifies each proof against
    // the client's own replicas before returning — an unverifiable
    // proof is a panic here, not a statistic.
    sharded.seal_all();
    let mut auditor = RemoteLedger::connect(addr).expect("connect auditor");
    auditor.sync_sharded().expect("sharded sync");
    let topo = auditor.topology().expect("topology");
    assert_eq!(topo.shards as usize, k, "server must report the deployed shard count");
    let own_root = auditor.sharded().expect("synced").top_root();
    assert_eq!(
        topo.top_root, own_root,
        "server's claimed top root diverged from the client's own anchor tree"
    );
    let step = (jsns.len() / 64).max(1);
    let mut composed = 0u64;
    for &jsn in jsns.iter().step_by(step) {
        let proof = auditor.prove_composed(jsn).expect("composed proof must verify");
        assert_eq!(proof.shard as u64, jsn >> 56, "proof shard must match the jsn route");
        composed += 1;
    }
    assert!(composed > 0, "shard cell composed no proofs");

    let row = ShardRow {
        shards: k,
        appends: jsns.len() as u64,
        elapsed,
        composed,
        epochs: topo.epochs,
        top_root: own_root.to_hex(),
    };
    server.shutdown();
    std::fs::remove_dir_all(&base).ok();
    row
}

fn run_shards(args: &Args) {
    eprintln!(
        "loadgen: shard scale-out sweep — {} appends x {} B across K in {:?}, \
         composed-proof audit per cell",
        args.appends, args.payload, args.shards
    );
    let mut rows = Vec::new();
    for &k in &args.shards {
        let row = shard_cell(args, k);
        eprintln!(
            "loadgen: [shards={}] {:.0} appends/s, {}/{} sampled proofs composed+verified, \
             {} epochs, top root {}",
            row.shards,
            row.appends_per_sec(),
            row.composed,
            row.composed,
            row.epochs,
            &row.top_root[..16.min(row.top_root.len())],
        );
        row.print();
        rows.push(row);
    }
    if let (Some(base), Some(best)) = (
        rows.iter().find(|r| r.shards == 1),
        rows.iter().max_by_key(|r| r.shards).filter(|r| r.shards > 1),
    ) {
        // On a single-core box the ratio measures overhead, not
        // scaling; the composed-proof audit above is the structural
        // acceptance either way.
        eprintln!(
            "loadgen: shard scale-out at K={}: {:.2}x over K=1 \
             ({:.0} vs {:.0} appends/s; wall-clock meaningful only with >1 core)",
            best.shards,
            best.appends_per_sec() / base.appends_per_sec(),
            best.appends_per_sec(),
            base.appends_per_sec(),
        );
    }
}

/// One state-backend A/B cell: a direct `WorldState` microbench at
/// `--keys` entries (witness size, proof build, verify) plus an
/// in-process ledger append leg whose per-backend histograms are
/// scraped back out of the telemetry registry.
struct StateRow {
    backend: StateBackend,
    keys: u64,
    insert: Duration,
    root: Duration,
    sampled: usize,
    witness_bytes_mean: f64,
    witness_bytes_p95: u64,
    proof_build_mean: Duration,
    verify_mean: Duration,
    appends: u64,
    append_elapsed: Duration,
    /// `ledger_seal_state_seconds_sum` scraped after the append leg —
    /// the state-commitment leg of the seal pipeline.
    seal_state_s: f64,
    /// Mean of `ledger_proof_bytes{backend=…}` scraped off /metrics
    /// text — proves the labeled exposition path end to end.
    scraped_proof_bytes_mean: f64,
}

impl StateRow {
    fn appends_per_sec(&self) -> f64 {
        self.appends as f64 / self.append_elapsed.as_secs_f64()
    }

    fn print(&self) {
        println!(
            "{{\"bench\":\"state_ab\",\"backend\":\"{}\",\"keys\":{},\
             \"insert_s\":{:.3},\"root_s\":{:.3},\"sampled\":{},\
             \"witness_bytes_mean\":{:.1},\"witness_bytes_p95\":{},\
             \"proof_build_us_mean\":{:.2},\"verify_us_mean\":{:.2},\
             \"appends\":{},\"append_elapsed_s\":{:.3},\"appends_per_sec\":{:.1},\
             \"seal_state_s\":{:.4},\"scraped_proof_bytes_mean\":{:.1}}}",
            self.backend,
            self.keys,
            self.insert.as_secs_f64(),
            self.root.as_secs_f64(),
            self.sampled,
            self.witness_bytes_mean,
            self.witness_bytes_p95,
            self.proof_build_mean.as_secs_f64() * 1e6,
            self.verify_mean.as_secs_f64() * 1e6,
            self.appends,
            self.append_elapsed.as_secs_f64(),
            self.appends_per_sec(),
            self.seal_state_s,
            self.scraped_proof_bytes_mean,
        );
    }
}

fn state_cell(args: &Args, backend: StateBackend) -> StateRow {
    use ledgerdb_crypto::sha256::sha256;
    use ledgerdb_crypto::wire::Wire;

    // ── Microbench leg: the commitment structure alone, 10^5+ keys. ──
    let mut world = WorldState::new(backend);
    let t = Instant::now();
    for i in 0..args.keys {
        let key = format!("acct-{i:08}");
        world.insert_kv(key.as_bytes(), sha256(&i.to_be_bytes()).0.to_vec());
    }
    let insert = t.elapsed();
    let t = Instant::now();
    let root = world.commitment_root();
    let root_elapsed = t.elapsed();

    // Sample spread across the keyspace, plus absences: both proof
    // shapes contribute to the witness-size story.
    let mut sizes = Vec::new();
    let mut build = Duration::ZERO;
    let mut verify = Duration::ZERO;
    let samples = 512.min(args.keys as usize);
    for s in 0..samples {
        let present = s % 8 != 7;
        let key = if present {
            format!("acct-{:08}", (s as u64 * args.keys / samples as u64) % args.keys)
        } else {
            format!("ghost-{s:08}")
        };
        let t = Instant::now();
        let proof = world.prove_kv(key.as_bytes());
        build += t.elapsed();
        sizes.push(proof.to_wire().len() as u64);
        let t = Instant::now();
        let value = verify_state_proof(&root, &proof).expect("fresh proof verifies");
        verify += t.elapsed();
        assert_eq!(value.is_some(), present, "sample {s}: proven presence matches");
    }
    sizes.sort_unstable();
    let witness_bytes_mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
    let witness_bytes_p95 = sizes[(sizes.len() * 95 / 100).min(sizes.len() - 1)];

    // ── Append leg: the full ledger with this backend underneath. ──
    let (registry, alice) = registry();
    let config = LedgerConfig {
        block_size: 64,
        fam_delta: 20,
        name: format!("loadgen-state-{backend}"),
        state_backend: backend,
    };
    let telemetry = Arc::new(Registry::new());
    let mut ledger = LedgerDb::new(config, registry);
    ledger.bind_metrics(&telemetry);
    let shared = SharedLedger::new(ledger);
    let mut rng = XorShift::new(17);
    let t = Instant::now();
    for i in 0..args.appends {
        let clue = format!("acct-{}", rng.next_u64() % 512);
        let request = TxRequest::signed(&alice, rng.payload(args.payload), vec![clue], i);
        shared.with_write(|l| l.append_preverified(request)).expect("append");
    }
    shared.seal_block();
    let append_elapsed = t.elapsed();

    // Drive the labeled per-backend histograms, then scrape them back
    // out of the rendered exposition — the same text /metrics serves.
    let state_root = shared.state_root();
    for i in 0..64u64 {
        let proof = shared.prove_state(&format!("acct-{}", i * 8));
        shared
            .with_read(|l| l.verify_state_timed(&state_root, &proof).map(|v| v.map(<[u8]>::to_vec)))
            .expect("state proof verifies");
    }
    let text = ledgerdb_telemetry::render(&telemetry);
    let scraped = |token: &str| parse_value(&text, token).unwrap_or(0.0);
    let label = format!("{{backend=\"{backend}\"}}");
    let count = scraped(&format!("ledger_proof_bytes_count{label}"));
    assert!(count >= 64.0, "per-backend proof-bytes histogram scraped from exposition");
    let scraped_proof_bytes_mean =
        if count > 0.0 { scraped(&format!("ledger_proof_bytes_sum{label}")) / count } else { 0.0 };
    assert!(
        scraped(&format!("ledger_verify_seconds_count{label}")) >= 64.0,
        "per-backend verify histogram scraped from exposition"
    );

    StateRow {
        backend,
        keys: args.keys,
        insert,
        root: root_elapsed,
        sampled: samples,
        witness_bytes_mean,
        witness_bytes_p95,
        proof_build_mean: build / samples as u32,
        verify_mean: verify / samples as u32,
        appends: args.appends,
        append_elapsed,
        seal_state_s: scraped("ledger_seal_state_seconds_sum"),
        scraped_proof_bytes_mean,
    }
}

fn run_state_ab(args: &Args) {
    eprintln!(
        "loadgen: state-backend A/B — {} keys microbench + {} append leg per backend",
        args.keys, args.appends
    );
    let mpt = state_cell(args, StateBackend::Mpt);
    mpt.print();
    let bin = state_cell(args, StateBackend::Bin);
    bin.print();

    let witness_ratio = mpt.witness_bytes_mean / bin.witness_bytes_mean;
    let verify_ratio = mpt.verify_mean.as_secs_f64() / bin.verify_mean.as_secs_f64().max(1e-12);
    let append_delta_pct =
        (mpt.appends_per_sec() - bin.appends_per_sec()) / mpt.appends_per_sec() * 100.0;
    println!(
        "{{\"bench\":\"state_ab_summary\",\"keys\":{},\"witness_ratio\":{:.2},\
         \"verify_ratio\":{:.2},\"append_delta_pct\":{:.2},\
         \"mpt_witness_bytes_mean\":{:.1},\"bin_witness_bytes_mean\":{:.1}}}",
        args.keys, witness_ratio, verify_ratio, append_delta_pct,
        mpt.witness_bytes_mean, bin.witness_bytes_mean,
    );
    eprintln!(
        "loadgen: binary witnesses {witness_ratio:.2}x smaller \
         ({:.0} B vs {:.0} B mean at {} keys); verify {verify_ratio:.2}x; \
         append delta {append_delta_pct:+.1}% (wall-clock meaningful only with >1 core)",
        bin.witness_bytes_mean, mpt.witness_bytes_mean, args.keys,
    );
    // Structural acceptance: witness compression is a property of the
    // trie shapes, not of machine speed — gate it here, always.
    assert!(
        witness_ratio >= 4.0,
        "binary witnesses must be >=4x smaller than MPT witnesses, got {witness_ratio:.2}x"
    );
}

/// One event-loop concurrency cell: `connections` sockets held open
/// simultaneously while every one of them is driven through `rounds`
/// request round trips.
struct ConnRow {
    connections: usize,
    requests: u64,
    elapsed: Duration,
    p50: Duration,
    p95: Duration,
    p99: Duration,
    /// `server_loop_connections` scraped over HTTP at peak — the
    /// server's own count of simultaneously registered sockets.
    loop_connections_peak: f64,
    /// Whether `GET /metrics` answered validly *while* the storm ran.
    metrics_live: bool,
}

impl ConnRow {
    fn print(&self) {
        println!(
            "{{\"bench\":\"event_loop_connections\",\"connections\":{},\
             \"requests\":{},\"elapsed_s\":{:.3},\"requests_per_sec\":{:.1},\
             \"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3},\
             \"loop_connections_peak\":{},\"metrics_live\":{}}}",
            self.connections,
            self.requests,
            self.elapsed.as_secs_f64(),
            self.requests as f64 / self.elapsed.as_secs_f64(),
            self.p50.as_secs_f64() * 1e3,
            self.p95.as_secs_f64() * 1e3,
            self.p99.as_secs_f64() * 1e3,
            self.loop_connections_peak,
            self.metrics_live,
        );
    }
}

/// `GET path` against the event server's HTTP listener; returns the
/// full response text.
fn http_get(addr: std::net::SocketAddr, path: &str) -> Option<String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n").as_bytes())
        .ok()?;
    let mut out = Vec::new();
    stream.read_to_end(&mut out).ok()?;
    String::from_utf8(out).ok()
}

fn connections_cell(args: &Args, n: usize) -> ConnRow {
    use ledgerdb_crypto::wire::Wire;
    use ledgerdb_server::protocol::{
        read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME,
    };

    let (registry, alice) = registry();
    let config =
        LedgerConfig { block_size: 64, fam_delta: 20, name: format!("loadgen-conn-{n}"), state_backend: Default::default() };
    let telemetry = Arc::new(Registry::new());
    let mut ledger = LedgerDb::new(config, registry);
    ledger.bind_metrics(&telemetry);
    let shared = SharedLedger::new(ledger);
    let mut rng = XorShift::new(41);
    for i in 0..64u64 {
        shared
            .append(TxRequest::signed(&alice, rng.payload(args.payload), vec![], i))
            .expect("seed append");
    }
    let server = EventLedgerd::start(
        shared,
        EventConfig {
            server: ServerConfig {
                workers: 4,
                max_connections: n + 16,
                batch: None,
                registry: telemetry.clone(),
                ..ServerConfig::default()
            },
            http_bind: Some("127.0.0.1:0".into()),
            // The sweep's sockets are idle between their turns; the
            // deadline must outlive the whole cell.
            idle_timeout: Duration::from_secs(300),
        },
    )
    .expect("start event server");
    let addr = server.local_addr();
    let http = server.http_addr().expect("http listener");

    // Establish EVERY connection before the first request: this is the
    // concurrency claim — n sockets simultaneously open and registered.
    let mut sockets = Vec::with_capacity(n);
    for i in 0..n {
        let stream = loop {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => break s,
                // Transient backlog overflow under the connect burst.
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        stream.set_nodelay(true).ok();
        let _ = i;
        sockets.push(stream);
    }

    // Drive every socket through `rounds` round trips from a small
    // worker pool, with all n sockets open the entire time.
    let hist = Arc::new(Histogram::new(Unit::Seconds));
    let workers = 8.min(n.max(1));
    let chunk = n.div_ceil(workers);
    let started = Instant::now();
    let (peak, metrics_live) = std::thread::scope(|scope| {
        for part in sockets.chunks_mut(chunk) {
            let hist = hist.clone();
            let rounds = args.rounds;
            scope.spawn(move || {
                for _ in 0..rounds {
                    for stream in part.iter_mut() {
                        let t0 = Instant::now();
                        write_frame(stream, &Request::GetAnchor.to_wire()).expect("send");
                        let body = read_frame(stream, DEFAULT_MAX_FRAME).expect("recv");
                        match Response::from_wire(&body).expect("decode") {
                            Response::Anchor(_) => hist.observe_duration(t0.elapsed()),
                            other => panic!("GetAnchor answered {other:?}"),
                        }
                    }
                }
            });
        }
        // Mid-storm, the operator plane must stay responsive: scrape
        // the loop's own connection gauge over HTTP while every slot
        // is busy.
        let text = http_get(http, "/metrics").unwrap_or_default();
        let peak = parse_value(&text, "server_loop_connections").unwrap_or(0.0);
        let live = text.starts_with("HTTP/1.1 200")
            && text.contains("server_loop_iterations_total");
        (peak, live)
    });
    let elapsed = started.elapsed();

    let snap = hist.snapshot();
    // Structural gate: every socket answered every round.
    assert_eq!(
        snap.count,
        (n * args.rounds) as u64,
        "every connection must be served every round"
    );
    drop(sockets);
    server.shutdown();
    ConnRow {
        connections: n,
        requests: snap.count,
        elapsed,
        p50: Duration::from_nanos(snap.p50),
        p95: Duration::from_nanos(snap.p95),
        p99: Duration::from_nanos(snap.p99),
        loop_connections_peak: peak,
        metrics_live,
    }
}

fn run_connections(args: &Args) {
    eprintln!(
        "loadgen: event-loop concurrency sweep — connections {:?}, {} rounds each",
        args.connections, args.rounds
    );
    for &n in &args.connections {
        let row = connections_cell(args, n);
        row.print();
        assert!(
            row.loop_connections_peak >= n as f64,
            "loop gauge saw {} sockets, expected at least {n}",
            row.loop_connections_peak
        );
        assert!(row.metrics_live, "/metrics must answer during the storm at {n} connections");
    }
}

/// Percentile from a sorted duration population (nanoseconds).
fn pct_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `--trace`: the end-to-end tracing bench.
///
/// One in-process threaded `ledgerd` with group commit on; two
/// measurements against it:
///
/// 1. **Overhead A/B** — `--reps` interleaved pairs of cells, each
///    driving `--appends` appends over one connection, alternating
///    untraced (version-1 frames) and traced (version-2 frames with a
///    client-minted id). Both arms hit the same growing ledger in
///    alternation, so machine and state drift cancel; the headline is
///    the ratio of median traced to median untraced throughput.
/// 2. **Stage breakdown** — traced appends each followed by a
///    `GetTrace` for the id the call carried; per-stage durations are
///    accumulated into p50/p99. Hard-asserts, per sampled trace: the
///    span tree contains the commit skeleton (queue wait, locked
///    insert, seal, fsync barrier) and its start times are monotone in
///    that order — the pipeline's stage ordering, observed end to end
///    from a remote client.
fn run_trace(args: &Args) {
    let reps = args.reps.max(1);
    eprintln!(
        "loadgen: trace A/B — {} appends x {} B per cell, {} interleaved rep pairs",
        args.appends, args.payload, reps
    );
    let dir = temp_dir("trace");
    let (registry, alice) = registry();
    let config =
        LedgerConfig { block_size: 64, fam_delta: 20, name: "loadgen-trace".into(), state_backend: Default::default() };
    let telemetry = Arc::new(Registry::new());
    let (ledger, _) = open_durable_with(
        config,
        registry,
        &dir,
        FsyncPolicy::Never,
        Arc::new(SimClock::new()),
        &telemetry,
    )
    .unwrap();
    let server = Ledgerd::start(
        SharedLedger::new(ledger),
        ServerConfig {
            workers: 4,
            batch: Some(BatchConfig { max_batch: 64, max_delay: args.window }),
            admission: Admission::Verify,
            registry: telemetry.clone(),
            pool: Some(ledgerdb_pool::Pool::with_registry(4, &telemetry)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut rng = XorShift::new(41);
    let mut nonce = 0u64;
    let mut sign = |n: u64| {
        let r = TxRequest::signed(
            &alice,
            rng.payload(args.payload),
            vec![format!("tr-{}", n % 32)],
            n,
        );
        r
    };

    // Interleaved A/B cells: same server, alternating arms.
    let mut tps = [Vec::new(), Vec::new()]; // [untraced, traced]
    for _rep in 0..reps {
        for traced in [false, true] {
            let mut remote = RemoteLedger::connect(addr).expect("connect");
            remote.set_tracing(traced);
            let hist = Histogram::new(Unit::Seconds);
            let started = Instant::now();
            for _ in 0..args.appends {
                let request = sign(nonce);
                nonce += 1;
                let t0 = Instant::now();
                remote.append(request).expect("durable ack");
                hist.observe_duration(t0.elapsed());
            }
            let elapsed = started.elapsed();
            let snap = hist.snapshot();
            let cell_tps = args.appends as f64 / elapsed.as_secs_f64();
            tps[traced as usize].push(cell_tps);
            println!(
                "{{\"bench\":\"trace_overhead\",\"traced\":{traced},\
                 \"appends\":{},\"elapsed_s\":{:.3},\"appends_per_sec\":{:.1},\
                 \"p50_ms\":{:.3},\"p99_ms\":{:.3}}}",
                args.appends,
                elapsed.as_secs_f64(),
                cell_tps,
                snap.p50 as f64 / 1e6,
                snap.p99 as f64 / 1e6,
            );
        }
    }
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let base = median(&mut tps[0]);
    let with = median(&mut tps[1]);
    let overhead = 1.0 - with / base;

    // Stage breakdown: every append traced, its span tree fetched by
    // the id the call carried. GetTrace round trips happen outside any
    // timing, so they don't pollute the A/B above.
    let samples = args.appends.min(256);
    let mut remote = RemoteLedger::connect(addr).expect("connect");
    remote.set_tracing(true);
    let mut stages: std::collections::BTreeMap<String, Vec<u64>> =
        std::collections::BTreeMap::new();
    let mut skeletons = 0u64;
    for _ in 0..samples {
        let request = sign(nonce);
        nonce += 1;
        // `append_committed`: the window seals before the ack, so every
        // sampled trace exercises the full skeleton including the three
        // seal legs — the plain-append arms above leave sealing to the
        // block-size trigger.
        remote.append_committed(request).expect("durable receipt");
        let id = remote.last_trace_id();
        let spans = remote.get_trace(id).expect("trace fetch");
        assert!(
            !spans.is_empty(),
            "trace {id:016x} vanished from the recorder immediately after the ack"
        );
        let start_of = |name: &str| {
            spans.iter().filter(|s| s.name == name).map(|s| s.start_ns).min()
        };
        let last_start_of = |name: &str| {
            spans.iter().filter(|s| s.name == name).map(|s| s.start_ns).max()
        };
        // The commit skeleton and its ordering, when fully retained.
        // (A span can age out of a busy ring; require most to survive.)
        // The fsync anchor is the *last* barrier: the append's own
        // durability barrier precedes the seal, the seal's follows it.
        if let (Some(queue), Some(lock), Some(seal), Some(fsync)) = (
            start_of("batch_queue_wait"),
            start_of("locked_insert"),
            start_of("seal"),
            last_start_of("fsync_barrier"),
        ) {
            assert!(
                queue <= lock && lock <= seal && seal <= fsync,
                "stage ordering violated in trace {id:016x}: \
                 queue={queue} lock={lock} seal={seal} fsync={fsync}"
            );
            skeletons += 1;
        }
        for s in &spans {
            stages
                .entry(s.name.clone())
                .or_default()
                .push(s.end_ns.saturating_sub(s.start_ns));
        }
    }
    assert!(
        skeletons * 2 >= samples,
        "full commit skeleton survived in only {skeletons}/{samples} traces"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let mut stage_json = String::new();
    for (i, (name, durs)) in stages.iter_mut().enumerate() {
        durs.sort_unstable();
        if i > 0 {
            stage_json.push(',');
        }
        stage_json.push_str(&format!(
            "\"{name}\":{{\"count\":{},\"p50_ms\":{:.4},\"p99_ms\":{:.4}}}",
            durs.len(),
            pct_ns(durs, 0.50) as f64 / 1e6,
            pct_ns(durs, 0.99) as f64 / 1e6,
        ));
    }
    println!(
        "{{\"bench\":\"trace_stages\",\"samples\":{samples},\
         \"skeletons\":{skeletons},\"overhead\":{overhead:.4},\
         \"stages\":{{{stage_json}}}}}"
    );
    eprintln!(
        "loadgen: tracing overhead {:.2}% (median {:.0} traced vs {:.0} untraced \
         appends/s); {skeletons}/{samples} sampled traces carried the full \
         commit skeleton in order",
        overhead * 100.0,
        with,
        base,
    );
}

fn main() {
    let args = parse_args();
    if args.state_ab {
        run_state_ab(&args);
        return;
    }
    if args.trace {
        run_trace(&args);
        return;
    }
    if !args.connections.is_empty() {
        run_connections(&args);
        return;
    }
    if !args.shards.is_empty() {
        run_shards(&args);
        return;
    }
    if args.pipeline {
        run_pipeline(&args);
        return;
    }
    if args.read_mix {
        run_read_mix(&args);
        return;
    }
    eprintln!(
        "loadgen: {} appends x {} B payload, clients {:?}, window {:?}",
        args.appends, args.payload, args.clients, args.window
    );
    let mut rows = Vec::new();
    for &admission in &args.admissions {
        for &clients in &args.clients {
            for batch in [false, true] {
                let row = run_config(&args, clients, batch, admission);
                row.print();
                rows.push(row);
            }
        }
    }
    // The headline the service layer exists for: group commit at the
    // widest client count vs the single-client per-append-fsync floor,
    // reported per admission mode (within-mode, apples to apples).
    for &admission in &args.admissions {
        let mode: Vec<&Row> = rows.iter().filter(|r| r.admission == admission).collect();
        if let (Some(base), Some(best)) = (
            mode.iter().find(|r| r.clients == 1 && !r.batch),
            mode.iter().filter(|r| r.batch).max_by_key(|r| r.clients),
        ) {
            let base_tps = base.appends as f64 / base.elapsed.as_secs_f64();
            let best_tps = best.appends as f64 / best.elapsed.as_secs_f64();
            eprintln!(
                "loadgen: [admission={}] group-commit speedup at {} clients: \
                 {:.1}x over 1-client fsync-always",
                admission_name(admission),
                best.clients,
                best_tps / base_tps
            );
        }
    }
    // Deployment headline: the paper's Fig-1 configuration (proxy fleet
    // admits, server group-commits) against the naive direct service
    // (server verifies every π_c, one fsync pair per append, one
    // client). Cross-admission by design — it compares the two
    // deployments, not one knob.
    if let (Some(base), Some(best)) = (
        rows.iter()
            .find(|r| r.clients == 1 && !r.batch && r.admission == Admission::Verify),
        rows.iter()
            .filter(|r| r.batch && r.admission == Admission::ProxyTrusted)
            .max_by_key(|r| r.clients),
    ) {
        let base_tps = base.appends as f64 / base.elapsed.as_secs_f64();
        let best_tps = best.appends as f64 / best.elapsed.as_secs_f64();
        eprintln!(
            "loadgen: deployed service (proxy admission + group commit, {} clients) vs \
             direct single-client (verify + fsync-always): {:.1}x",
            best.clients,
            best_tps / base_tps
        );
    }
}
