//! `ledgerd` — serve a durable ledger over TCP.
//!
//! ```text
//! ledgerd --dir /var/lib/ledgerdb --bind 127.0.0.1:7878 \
//!         [--workers 4]   # connection threads (dispatch threads with --event-loop) \
//!         [--event-loop] [--http-addr 127.0.0.1:7879] \
//!         [--idle-timeout-ms 60000] [--max-connections N] \
//!         [--batch-window-us 150] [--batch-max 64] \
//!         [--proxy-admission] \
//!         [--block-size 16] [--seed demo] \
//!         [--checkpoint-every-n-seals 64]   # 0 disables \
//!         [--metrics-dump PATH] [--metrics-interval-ms 1000] \
//!         [--slow-op-ms N] [--shards K] [--state-backend mpt|bin]
//! ```
//!
//! State backend (`--state-backend`, default `mpt`): which pluggable
//! state-commitment structure anchors the per-clue latest-payload
//! digests into each sealed block — the 16-ary Merkle Patricia trie
//! (byte-compatible with every pre-flag deployment) or the cached
//! binary trie (`bin`, ~4-8x smaller witnesses). The choice is
//! per-deployment: a data directory written under one backend must be
//! reopened with the same flag (recovery re-derives the state roots
//! and rejects a mismatch).
//!
//! Sharding (`--shards K`, default 1): K independent shard ledgers —
//! each with its own WAL, payload store, and checkpoint ladder under
//! `DIR/shard-<i>` — served behind one address. Requests route by
//! clue (first clue) or member key; global jsns carry the shard id in
//! the high byte. Per-epoch sealed roots anchor into a top-level
//! accumulator so one `GetComposedProof` answers with a shard proof
//! plus the anchor path, verifiable end-to-end by a distrusting
//! client (`RemoteLedger::sync_sharded` + `prove_composed`).
//! `--shards 1` is byte-identical to the pre-sharding layout.
//!
//! Transports: the default server runs a thread per connection.
//! `--event-loop` swaps in the epoll readiness loop
//! (`ledgerdb_server::EventLedgerd`): one loop thread multiplexes every
//! socket, `--workers` sizes the request-dispatch pool, and thousands
//! of concurrent connections cost a table entry each instead of a
//! thread. `--http-addr` (implies `--event-loop`) adds the operator
//! HTTP surface — `/healthz`, `/status`, `/metrics`, `/proof/<jsn>` —
//! on a second listener driven by the same loop. `--idle-timeout-ms`
//! is the loop's progress deadline (slowloris defense);
//! `--max-connections` caps both listeners together, refusing the
//! excess with a typed `Busy` frame / HTTP 503. Responses are
//! byte-identical across both transports.
//!
//! Threads: `--workers N` sizes only the connection threads (or, with
//! `--event-loop`, the dispatch threads). The ECDSA admission of an
//! `AppendBatch` frame fans out over scoped threads, one per available
//! core at most, whatever `--workers` says; everything else a request
//! does runs on its own thread.
//!
//! Durability: every append commits through the group committer. It
//! gathers appends for up to `--batch-window-us` or `--batch-max`
//! requests, writes the window's payloads and WAL records, and acks
//! nothing before one shared fsync barrier. `--batch-max 1` commits
//! each append as a window of its own.
//!
//! Checkpoints (`--checkpoint-every-n-seals N`, default 64): every N
//! sealed blocks the sealed prefix is serialized into
//! `DIR/checkpoints/` (crash-atomically; content-addressed segments)
//! and the WAL is reset, so a restart replays only the post-checkpoint
//! tail — O(tail), not O(history). A checkpoint write failure degrades
//! to the sticky `ledger_durability_error` gauge (and a typed error on
//! the triggering append); the ledger keeps serving from the WAL. `0`
//! disables checkpointing entirely.
//!
//! Telemetry: every subsystem records into the process-global registry;
//! fetch a snapshot over the wire with `ledgerd-stats --addr ...` (or
//! any client's `Stats` request). `--metrics-dump` additionally writes
//! the exposition to a file every `--metrics-interval-ms` (at least 1,
//! default 1000, and once at shutdown); `--trace-dump` writes the
//! flight recorder's retained spans as Chrome-trace JSON
//! (chrome://tracing / Perfetto) on the same cadence; `--slow-op-ms`
//! logs any instrumented span that exceeds the threshold.
//!
//! The member registry is derived deterministically from `--seed`: a CA
//! and one `User` member ("alice") whose signing seed is
//! `<seed>-alice`. That keeps the binary self-contained for demos and
//! smoke tests; a production deployment would load certificates instead.
//! On startup the ledger is recovered from `--dir` (created if absent)
//! and the recovery report is printed.

use ledgerdb_core::recovery::{open_durable, CHECKPOINT_DIR};
use ledgerdb_core::{LedgerConfig, MemberRegistry, ShardedLedger, SharedLedger, StateBackend};
use ledgerdb_crypto::ca::{CertificateAuthority, Role};
use ledgerdb_crypto::keys::KeyPair;
use ledgerdb_server::{
    Admission, BatchConfig, EventConfig, EventLedgerd, Ledgerd, ServerConfig,
};
use ledgerdb_storage::checkpoint::{CheckpointStore, CkptIo};
use ledgerdb_storage::FsyncPolicy;
use ledgerdb_timesvc::clock::SimClock;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: ledgerd --dir DIR [--bind ADDR] [--workers N] \
         [--event-loop] [--http-addr ADDR] [--idle-timeout-ms MS] \
         [--max-connections N] \
         [--batch-window-us US] [--batch-max N] [--proxy-admission] \
         [--block-size N] [--seed SEED] \
         [--checkpoint-every-n-seals N] [--metrics-dump PATH] \
         [--metrics-interval-ms MS] [--slow-op-ms MS] \
         [--trace-dump PATH] [--shards K] [--state-backend mpt|bin]"
    );
    exit(2);
}

struct Args {
    dir: PathBuf,
    bind: String,
    workers: usize,
    event_loop: bool,
    http_bind: Option<String>,
    idle_timeout: Duration,
    max_connections: Option<usize>,
    batch: BatchConfig,
    admission: Admission,
    block_size: u64,
    seed: String,
    checkpoint_every_n_seals: u64,
    metrics_dump: Option<PathBuf>,
    metrics_interval: Duration,
    slow_op: Option<Duration>,
    trace_dump: Option<PathBuf>,
    shards: usize,
    state_backend: StateBackend,
}

fn parse_args() -> Args {
    let mut args = Args {
        dir: PathBuf::new(),
        bind: "127.0.0.1:7878".into(),
        workers: 4,
        event_loop: false,
        http_bind: None,
        idle_timeout: Duration::from_secs(60),
        max_connections: None,
        batch: BatchConfig::default(),
        admission: Admission::Verify,
        block_size: 16,
        seed: "demo".into(),
        checkpoint_every_n_seals: 64,
        metrics_dump: None,
        metrics_interval: Duration::from_millis(1000),
        slow_op: None,
        trace_dump: None,
        shards: 1,
        state_backend: StateBackend::default(),
    };
    let mut it = std::env::args().skip(1);
    let mut have_dir = false;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| {
            eprintln!("{name} needs a value");
            usage()
        });
        match flag.as_str() {
            "--dir" => {
                args.dir = PathBuf::from(value("--dir"));
                have_dir = true;
            }
            "--bind" => args.bind = value("--bind"),
            "--workers" => args.workers = parse_num(&value("--workers")),
            "--event-loop" => args.event_loop = true,
            // The HTTP surface is served by the event loop, so asking
            // for one implies the other.
            "--http-addr" => {
                args.http_bind = Some(value("--http-addr"));
                args.event_loop = true;
            }
            "--idle-timeout-ms" => {
                args.idle_timeout = Duration::from_millis(parse_num(&value("--idle-timeout-ms")));
            }
            "--max-connections" => {
                args.max_connections = Some(parse_num(&value("--max-connections")));
            }
            "--batch-window-us" => {
                args.batch.max_delay =
                    Duration::from_micros(parse_num(&value("--batch-window-us")));
            }
            "--batch-max" => args.batch.max_batch = parse_num(&value("--batch-max")),
            // π_c verified by an authenticated proxy tier (Fig 1); the
            // server enforces membership only.
            "--proxy-admission" => args.admission = Admission::ProxyTrusted,
            "--block-size" => args.block_size = parse_num(&value("--block-size")),
            "--seed" => args.seed = value("--seed"),
            // 0 disables checkpointing (pure WAL replay on restart).
            "--checkpoint-every-n-seals" => {
                args.checkpoint_every_n_seals =
                    parse_num(&value("--checkpoint-every-n-seals"));
            }
            "--metrics-dump" => args.metrics_dump = Some(PathBuf::from(value("--metrics-dump"))),
            // 0 would make the metrics and trace dumpers rewrite their
            // files in a tight loop.
            "--metrics-interval-ms" => {
                let ms: u64 = parse_num(&value("--metrics-interval-ms"));
                if ms == 0 {
                    eprintln!("--metrics-interval-ms must be at least 1");
                    usage();
                }
                args.metrics_interval = Duration::from_millis(ms);
            }
            "--slow-op-ms" => {
                args.slow_op = Some(Duration::from_millis(parse_num(&value("--slow-op-ms"))));
            }
            "--trace-dump" => args.trace_dump = Some(PathBuf::from(value("--trace-dump"))),
            // K shard ledgers behind one server. `--shards 1` (the
            // default) keeps the flat single-ledger layout at DIR;
            // K > 1 stores each shard at DIR/shard-<i>.
            "--shards" => args.shards = parse_num(&value("--shards")),
            // Which state-commitment structure anchors per-clue state
            // into sealed blocks. Must match the data directory's
            // history — recovery rejects a backend mismatch.
            "--state-backend" => {
                let v = value("--state-backend");
                args.state_backend = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --state-backend {v:?} (want mpt or bin)");
                    usage()
                });
            }
            _ => usage(),
        }
    }
    if !have_dir {
        usage();
    }
    args
}

fn parse_num<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad number: {s}");
        usage()
    })
}

fn main() {
    let args = parse_args();

    ledgerdb_telemetry::set_slow_op_threshold(args.slow_op);
    // Held for the process lifetime; writes a final snapshot on exit
    // paths that run destructors (kill -9 readers use `Stats` instead).
    let _dumper = args.metrics_dump.clone().map(|path| {
        ledgerdb_telemetry::Dumper::start(
            ledgerdb_telemetry::Registry::global().clone(),
            path,
            args.metrics_interval,
        )
    });
    // Periodic Chrome-trace snapshot of the flight recorder: everything
    // the rings and pinned buffer currently retain, written atomically
    // (tmp + rename) so the file is always a complete JSON document.
    // Load the dump into chrome://tracing or Perfetto.
    if let Some(path) = args.trace_dump.clone() {
        let interval = args.metrics_interval;
        std::thread::Builder::new()
            .name("trace-dump".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                let json = ledgerdb_telemetry::recorder::chrome_trace_json(
                    &ledgerdb_telemetry::recorder::all_events(),
                );
                let tmp = path.with_extension("tmp");
                if std::fs::write(&tmp, json.as_bytes())
                    .and_then(|_| std::fs::rename(&tmp, &path))
                    .is_err()
                {
                    eprintln!("ledgerd: trace dump to {} failed", path.display());
                }
            })
            .expect("spawn trace-dump thread");
    }

    eprintln!("ledgerd: sha256 kernel: {}", ledgerdb_crypto::sha256::implementation());
    if args.shards == 0 {
        eprintln!("ledgerd: --shards must be at least 1");
        exit(2);
    }
    // `--shards 1` keeps the flat directory layout (byte-compatible
    // with every pre-sharding deployment); K > 1 gives each shard its
    // own WAL, payload store, and checkpoint ladder under DIR/shard-<i>.
    let mut shard_ledgers = Vec::with_capacity(args.shards);
    for i in 0..args.shards {
        let shard_dir = if args.shards == 1 {
            args.dir.clone()
        } else {
            args.dir.join(format!("shard-{i}"))
        };
        let ca = CertificateAuthority::from_seed(args.seed.as_bytes());
        let alice = KeyPair::from_seed(format!("{}-alice", args.seed).as_bytes());
        let mut registry = MemberRegistry::new(*ca.public_key());
        registry
            .register(ca.issue("alice", Role::User, alice.public()))
            .expect("register demo member");
        let config = LedgerConfig {
            block_size: args.block_size,
            fam_delta: 15,
            name: format!("ledgerd-{}", args.seed),
            state_backend: args.state_backend,
        };
        // The streams never fsync on their own: the group committer
        // ends each commit window with one durability barrier.
        let policy = FsyncPolicy::Never;
        let (mut ledger, report) =
            open_durable(config, registry, &shard_dir, policy, Arc::new(SimClock::new()))
                .unwrap_or_else(|e| {
                    eprintln!("ledgerd: cannot open ledger at {}: {e}", shard_dir.display());
                    exit(1);
                });
        eprintln!(
            "ledgerd: recovered {} journals / {} blocks (clean: {}, checkpoint: {}) from {}",
            ledger.journal_count(),
            ledger.block_count(),
            report.is_clean(),
            if report.checkpoint.is_some() {
                format!("loaded, {} wal records skipped", report.skipped_wal_records)
            } else {
                "none".into()
            },
            shard_dir.display()
        );
        if args.checkpoint_every_n_seals > 0 {
            let store =
                CheckpointStore::open(&shard_dir.join(CHECKPOINT_DIR)).unwrap_or_else(|e| {
                    eprintln!(
                        "ledgerd: cannot open checkpoint store under {}: {e}",
                        shard_dir.display()
                    );
                    exit(1);
                });
            ledger.enable_checkpoints(
                Arc::new(store),
                Arc::new(CkptIo::new()),
                args.checkpoint_every_n_seals,
            );
        }
        shard_ledgers.push(SharedLedger::new(ledger));
    }
    let sharded = ShardedLedger::new(shard_ledgers).unwrap_or_else(|e| {
        eprintln!("ledgerd: {e}");
        exit(2);
    });
    let mut server_config = ServerConfig {
        bind: args.bind.clone(),
        workers: args.workers,
        batch: args.batch,
        admission: args.admission,
        ..ServerConfig::default()
    };
    if let Some(cap) = args.max_connections {
        server_config.max_connections = cap;
    }

    if args.event_loop {
        let config = EventConfig {
            server: server_config,
            http_bind: args.http_bind.clone(),
            idle_timeout: args.idle_timeout,
        };
        let server = EventLedgerd::start_sharded(sharded, config).unwrap_or_else(|e| {
            eprintln!("ledgerd: cannot bind {}: {e}", args.bind);
            exit(1);
        });
        println!("ledgerd: listening on {}", server.local_addr());
        if let Some(http) = server.http_addr() {
            println!("ledgerd: http on {http}");
        }
        loop {
            std::thread::park();
        }
    }

    let server = Ledgerd::start_sharded(sharded, server_config).unwrap_or_else(|e| {
        eprintln!("ledgerd: cannot bind {}: {e}", args.bind);
        exit(1);
    });
    println!("ledgerd: listening on {}", server.local_addr());

    // Park the main thread; the process lives until it is killed. Every
    // acked append is already durable, so a hard kill recovers clean.
    loop {
        std::thread::park();
    }
}
