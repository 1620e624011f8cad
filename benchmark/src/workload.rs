//! The four workloads: set-up, the timed closed-loop window, the audit of
//! acknowledged writes, and the crash/restart cycles.
//!
//! Every workload drives one real `ledgerd` over loopback from two client
//! threads, each with its own `RemoteLedger` connection. A client sends its
//! next request only when the previous one is acked durable or verified
//! (closed loop): the callers of a ledger are application servers that wait
//! for exactly that before they continue.

use crate::daemon::Daemon;
use crate::gen::{self, ClueMix, ReadMix, ReadOp, Rng, SignedAppend};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use ledgerdb_core::TxRequest;
use ledgerdb_crypto::{Digest, KeyPair, Wire};
use ledgerdb_server::protocol::{Request, Response};
use ledgerdb_server::{RemoteError, RemoteLedger};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Journals loaded before the window of every workload. Not a power of
/// two: a fam tree of 2^k leaves is one perfect peak, the cheapest shape a
/// proof can have, and 10,000 is five peaks.
pub const PRELOAD_JOURNALS: usize = 10_000;
/// `append_batch` frame size of the preload.
pub const PRELOAD_FRAME: usize = 64;
/// Pre-signed appends per `ingest` writer. The window ends when a writer
/// has used up its pool or when `--seconds` have passed, whichever is
/// first. The pools are frozen so that at this commit, on this box and at
/// 15 s, the pool ends the window (after about 13 s): the ledger then ends
/// every run at the same size, and what depends on that size (disk bytes,
/// recovery time, peak memory) repeats.
pub const INGEST_POOL_PER_WRITER: usize = 8_000;
/// Pre-signed appends of the one `mixed` writer.
pub const MIXED_POOL: usize = 11_500;
/// On `mixed`, every this-many-th append takes the receipt path
/// (`append_committed_verified`: forced seal, block-feed sync, receipt check).
pub const MIXED_RECEIPT_EVERY: u64 = 64;
/// Acked jsns each client proves again after the window.
pub const AUDIT_SAMPLE: usize = 2048;
/// Acked jsns that must still prove after each crash.
pub const CRASH_SAMPLE: usize = 512;
/// Set-ups per run; `setup_s` is their median and the last one is used.
pub const SETUP_REPEATS: usize = 3;
/// `kill -9` + restart cycles per run; `recover_s` is their median.
pub const RECOVER_CYCLES: usize = 5;
/// Every this-many-th read has its proof object sized with `to_wire()`.
const SIZE_EVERY: u64 = 8;
/// In the traced slices, every this-many-th op replays its bytes through
/// the client-verify and codec entry points. Replaying every op would cost
/// a third of the read throughput being measured.
const REPLAY_EVERY: u64 = 64;
/// A read that fails client-side verification is retried after a `sync()`:
/// on a ledger that is being written the server proves against its newest
/// seal, which the client may not have replayed yet. A server that really
/// cannot prove the journal fails every retry and the read counts as failed.
const STALE_RETRIES: u32 = 8;
/// A client gives up after this many failed ops: the server is gone.
const MAX_FAILURES: u64 = 64;

const CLIENTS: usize = 2;

/// The frozen sizes, for the result file.
pub fn sizes() -> crate::json::Json {
    use crate::json::Json;
    Json::obj([
        ("clients", Json::Num(CLIENTS as f64)),
        ("payload_bytes", Json::Num(gen::PAYLOAD_BYTES as f64)),
        ("uniform_clues", Json::Num(gen::UNIFORM_CLUES as f64)),
        ("zipf_clues", Json::Num(gen::ZIPF_CLUES as f64)),
        ("preload_journals", Json::Num(PRELOAD_JOURNALS as f64)),
        ("preload_frame", Json::Num(PRELOAD_FRAME as f64)),
        (
            "ingest_pool_per_writer",
            Json::Num(INGEST_POOL_PER_WRITER as f64),
        ),
        ("mixed_pool", Json::Num(MIXED_POOL as f64)),
        ("mixed_receipt_every", Json::Num(MIXED_RECEIPT_EVERY as f64)),
        ("audit_sample", Json::Num(AUDIT_SAMPLE as f64)),
        ("crash_sample", Json::Num(CRASH_SAMPLE as f64)),
        ("setup_repeats", Json::Num(SETUP_REPEATS as f64)),
        ("recover_cycles", Json::Num(RECOVER_CYCLES as f64)),
    ])
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    VerifyRead,
    Lineage,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::VerifyRead,
        Workload::Lineage,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::VerifyRead => "verify-read",
            Workload::Lineage => "lineage",
            Workload::Mixed => "mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The gated op: the kind `ops_per_s`, `p50_ms` and `p90_ms` report.
    pub fn primary(self) -> Kind {
        match self {
            Workload::Ingest | Workload::Mixed => Kind::Append,
            Workload::VerifyRead => Kind::Prove,
            Workload::Lineage => Kind::ProveClue,
        }
    }

    /// Telemetry profile (many clues, shallow) where lineages are not
    /// read; audit-trail profile (few clues, Zipf-deep) where they are.
    fn preload_mix(self) -> ClueMix {
        match self {
            Workload::Ingest | Workload::VerifyRead => ClueMix::uniform(),
            Workload::Lineage | Workload::Mixed => ClueMix::zipf(),
        }
    }
}

/// What a client measures, by kind of call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Append = 0,
    Prove = 1,
    GetTx = 2,
    ProveClue = 3,
    ProveState = 4,
}

pub const KINDS: usize = 5;

pub struct Config {
    pub ledgerd: PathBuf,
    /// Scratch and output directory (`benchmark/out`).
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A durable ack the benchmark holds the server to.
#[derive(Clone, Copy)]
pub struct Ack {
    pub jsn: u64,
    pub tx_hash: Digest,
    pub clue: u32,
}

/// One client thread's measurements over one window.
#[derive(Default)]
pub struct ClientOut {
    /// Raw per-op nanoseconds, by [`Kind`].
    pub lat: [Vec<u64>; KINDS],
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub acks: Vec<Ack>,
    /// Proof objects sized, and their summed `to_wire().len()`.
    pub proofs_sized: u64,
    pub proof_bytes: u64,
    /// Lineage entries over all verified clue proofs.
    pub clue_entries: u64,
    pub stale_retries: u64,
    /// Time spent in the window's loop (in this phase of it).
    pub elapsed: Duration,
}

impl ClientOut {
    fn with_capacity(seconds: f64) -> ClientOut {
        // Room for 40k ops/s per kind: no reallocation inside the window.
        // Untouched capacity is address space, not memory.
        let cap = (seconds * 40_000.0) as usize + 1024;
        let mut out = ClientOut::default();
        for samples in &mut out.lat {
            *samples = Vec::with_capacity(cap);
        }
        out
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// What a client does in the window.
pub enum Role {
    Writer {
        pool: std::vec::IntoIter<SignedAppend>,
        receipt_every: Option<u64>,
        sent: u64,
    },
    /// `live`: draw jsns from the reader's own synced prefix, which grows
    /// while a writer runs; otherwise from the static preload.
    Reader { mix: ReadMix, rng: Rng, live: bool },
}

/// A server that is up, loaded and sealed, with both clients synced.
pub struct Bed {
    pub daemon: Daemon,
    pub clients: Vec<RemoteLedger>,
    pub preloaded: Vec<Ack>,
}

fn remote_err(what: &str, e: RemoteError) -> String {
    format!("{what}: {e}")
}

/// Spawn `ledgerd` on a fresh directory, preload over the wire in
/// `append_batch` frames, seal the prefix with one `append_committed`, and
/// `sync()` each client once. Returns the bed and how long that took.
pub fn set_up(cfg: &Config, dir: &Path, preload: Vec<SignedAppend>) -> Result<(Bed, f64), String> {
    let started = Instant::now();
    let daemon = Daemon::spawn(&cfg.ledgerd, dir)?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(RemoteLedger::connect(daemon.addr).map_err(|e| remote_err("connect", e))?);
    }
    let mut preloaded = Vec::with_capacity(preload.len());
    let mut pending = preload.into_iter();
    let last = pending.next_back();
    loop {
        let frame: Vec<SignedAppend> = pending.by_ref().take(PRELOAD_FRAME).collect();
        if frame.is_empty() {
            break;
        }
        let clues: Vec<u32> = frame.iter().map(|s| s.clue).collect();
        let requests: Vec<TxRequest> = frame.into_iter().map(|s| s.request).collect();
        let acks = clients[0]
            .append_batch(requests)
            .map_err(|e| remote_err("preload", e))?;
        for (ack, clue) in acks.into_iter().zip(clues) {
            let (jsn, tx_hash) = ack.map_err(|frame| format!("preload append refused: {frame}"))?;
            preloaded.push(Ack { jsn, tx_hash, clue });
        }
    }
    if let Some(signed) = last {
        let receipt = clients[0]
            .append_committed(signed.request)
            .map_err(|e| remote_err("preload seal", e))?;
        preloaded.push(Ack {
            jsn: receipt.jsn,
            tx_hash: receipt.tx_hash,
            clue: signed.clue,
        });
    }
    for client in &mut clients {
        client.sync().map_err(|e| remote_err("sync", e))?;
        if client.client().verified_journals() != preloaded.len() as u64 {
            return Err("preload is not fully sealed after append_committed".into());
        }
    }
    Ok((
        Bed {
            daemon,
            clients,
            preloaded,
        },
        started.elapsed().as_secs_f64(),
    ))
}

/// The inputs of one run, all drawn from the seed before anything is timed.
pub struct Inputs {
    pub preload: Vec<SignedAppend>,
    pub roles: Vec<Role>,
    /// One `append_committed` per crash cycle.
    pub spares: Vec<SignedAppend>,
}

// Stream numbers keep the random draws of the pools and clients apart.
const STREAM_PRELOAD: u64 = 1;
const STREAM_WRITER: u64 = 10;
const STREAM_READER: u64 = 20;
const STREAM_AUDIT: u64 = 30;
const STREAM_SPARE: u64 = 40;

pub fn generate(workload: Workload, seed: u64, keys: &KeyPair) -> Inputs {
    let preload = gen::signed_appends_pair(
        keys,
        seed,
        STREAM_PRELOAD,
        PRELOAD_JOURNALS,
        &workload.preload_mix(),
    );
    let reader = |client: u64, mix, live| Role::Reader {
        mix,
        rng: Rng::new(seed, STREAM_READER + client),
        live,
    };
    let roles = match workload {
        Workload::Ingest => {
            // The pair signs one stream per thread: exactly the two pools.
            let mut first = gen::signed_appends_pair(
                keys,
                seed,
                STREAM_WRITER,
                2 * INGEST_POOL_PER_WRITER,
                &ClueMix::uniform(),
            );
            let second = first.split_off(INGEST_POOL_PER_WRITER);
            [first, second]
                .into_iter()
                .map(|pool| Role::Writer {
                    pool: pool.into_iter(),
                    receipt_every: None,
                    sent: 0,
                })
                .collect()
        }
        Workload::VerifyRead => {
            vec![
                reader(0, ReadMix::VerifyRead, false),
                reader(1, ReadMix::VerifyRead, false),
            ]
        }
        Workload::Lineage => {
            vec![
                reader(0, ReadMix::Lineage, false),
                reader(1, ReadMix::Lineage, false),
            ]
        }
        Workload::Mixed => {
            let pool =
                gen::signed_appends_pair(keys, seed, STREAM_WRITER, MIXED_POOL, &ClueMix::zipf());
            vec![
                Role::Writer {
                    pool: pool.into_iter(),
                    receipt_every: Some(MIXED_RECEIPT_EVERY),
                    sent: 0,
                },
                reader(1, ReadMix::VerifyRead, true),
            ]
        }
    };
    let spares = gen::signed_appends(
        keys,
        seed,
        STREAM_SPARE,
        RECOVER_CYCLES,
        &ClueMix::uniform(),
    );
    Inputs {
        preload,
        roles,
        spares,
    }
}

/// Set up [`SETUP_REPEATS`] times on fresh directories; keep the last bed.
pub fn set_up_repeatedly(
    cfg: &Config,
    run_dir: &Path,
    preload: &[SignedAppend],
) -> Result<(Bed, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<(Bed, PathBuf)> = None;
    for i in 0..SETUP_REPEATS {
        // Stop and remove the previous server before timing the next.
        if let Some((bed, dir)) = kept.take() {
            drop(bed);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = run_dir.join(format!("data-{i}"));
        let (bed, seconds) = set_up(cfg, &dir, preload.to_vec())?;
        times.push(seconds);
        kept = Some((bed, dir));
    }
    Ok((kept.expect("SETUP_REPEATS > 0").0, times))
}

/// A traced window alternates slices of this length, untraced then traced,
/// inside the same client threads, so that whatever drifts or stalls over
/// the window (the ledger grows, checkpoints land, a neighbour takes the
/// core) falls on traced and untraced time alike. The threads stay alive
/// across slices: on this box a fresh thread's placement alone moves a
/// ping-pong latency by a factor of four.
pub const TRACE_SLICE_SECONDS: f64 = 0.25;

/// What one client measured: `[untraced, traced]`. Only a traced window
/// fills the second.
pub type Phases = [ClientOut; 2];

/// Both clients, released together, each running its role for `seconds`
/// (or until a writer's pool is used up). `tracers` that are on trace every
/// second slice. Each client's `elapsed` is the time it spent in that phase.
pub fn run_window(
    bed: &mut Bed,
    roles: &mut [Role],
    seconds: f64,
    tracers: Vec<Tracer>,
) -> Vec<(Phases, Tracer)> {
    let barrier = Barrier::new(CLIENTS);
    // Set by a writer whose pool is used up: every client stops with it.
    let stop = AtomicBool::new(false);
    let preloaded = &bed.preloaded;
    std::thread::scope(|scope| {
        let handles: Vec<_> = bed
            .clients
            .iter_mut()
            .zip(roles.iter_mut())
            .zip(tracers)
            .map(|((remote, role), mut tracer)| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut phases = [
                        ClientOut::with_capacity(seconds),
                        ClientOut::with_capacity(seconds),
                    ];
                    barrier.wait();
                    drive(
                        role,
                        remote,
                        preloaded,
                        seconds,
                        stop,
                        &mut tracer,
                        &mut phases,
                    );
                    (phases, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn drive(
    role: &mut Role,
    remote: &mut RemoteLedger,
    preloaded: &[Ack],
    seconds: f64,
    stop: &AtomicBool,
    tracer: &mut Tracer,
    phases: &mut Phases,
) {
    let slicing = tracer.is_on();
    let started = Instant::now();
    let mut op_id = tracer.next_op;
    let mut now = started;
    loop {
        let since = now.duration_since(started).as_secs_f64();
        let failed = phases[0].failed + phases[1].failed;
        // Relaxed: the flag publishes nothing but itself.
        if since >= seconds || failed >= MAX_FAILURES || stop.load(Ordering::Relaxed) {
            break;
        }
        let traced = slicing && (since / TRACE_SLICE_SECONDS) as u64 % 2 == 1;
        tracer.set_on(traced);
        let out = &mut phases[traced as usize];
        match role {
            Role::Writer {
                pool,
                receipt_every,
                sent,
            } => {
                let Some(signed) = pool.next() else {
                    stop.store(true, Ordering::Relaxed);
                    break;
                };
                *sent += 1;
                let receipt = receipt_every.is_some_and(|n| *sent % n == 0);
                append_op(signed, receipt, remote, tracer, op_id, out);
            }
            Role::Reader { mix, rng, live } => {
                let population = if *live {
                    remote.client().verified_journals()
                } else {
                    preloaded.len() as u64
                };
                let op = mix.draw(rng, population);
                read_op(op, remote, preloaded, tracer, op_id, out);
            }
        }
        op_id += 1;
        let next = Instant::now();
        out.elapsed += next.duration_since(now);
        now = next;
    }
    tracer.next_op = op_id;
}

fn append_op(
    signed: SignedAppend,
    receipt: bool,
    remote: &mut RemoteLedger,
    tracer: &mut Tracer,
    op_id: u64,
    out: &mut ClientOut,
) {
    let replay = tracer.is_on() && op_id.is_multiple_of(REPLAY_EVERY);
    let kept = replay.then(|| signed.request.clone());
    let call_name = if receipt {
        "remote.append_committed_verified"
    } else {
        "remote.append"
    };
    let root = tracer.begin("op.append", "client", op_id, NO_PARENT);
    let call = tracer.begin(call_name, "server", op_id, root);
    out.attempted += 1;
    let started = Instant::now();
    let result = if receipt {
        remote
            .append_committed_verified(signed.request)
            .map(|r| (r.jsn, r.tx_hash))
    } else {
        remote.append(signed.request)
    };
    let took = started.elapsed();
    tracer.end(call);
    match result {
        Ok((jsn, tx_hash)) => {
            out.lat[Kind::Append as usize].push(took.as_nanos() as u64);
            out.acks.push(Ack {
                jsn,
                tx_hash,
                clue: signed.clue,
            });
            if let Some(request) = kept {
                let response = Response::Appended { jsn, tx_hash };
                replay_codec(tracer, op_id, root, Request::Append(request), response);
            }
        }
        Err(e) => out.fail(format!("append: {e}")),
    }
    tracer.end(root);
}

/// Run `call`; on a client-side verification failure `sync()` and retry.
fn retry_when_stale<T>(
    remote: &mut RemoteLedger,
    out: &mut ClientOut,
    mut call: impl FnMut(&mut RemoteLedger) -> Result<T, RemoteError>,
) -> Result<T, RemoteError> {
    let mut attempt = 0;
    loop {
        match call(remote) {
            Err(RemoteError::Verify(_)) if attempt < STALE_RETRIES => {
                attempt += 1;
                out.stale_retries += 1;
                remote.sync()?;
            }
            other => return other,
        }
    }
}

/// One verified read: the call, the checks against what was acked, and in
/// a traced slice the spans and (every [`REPLAY_EVERY`]th op) the replays.
fn read_op(
    op: ReadOp,
    remote: &mut RemoteLedger,
    preloaded: &[Ack],
    tracer: &mut Tracer,
    op_id: u64,
    out: &mut ClientOut,
) {
    let replay = tracer.is_on() && op_id.is_multiple_of(REPLAY_EVERY);
    let size = op_id.is_multiple_of(SIZE_EVERY);
    // The jsn space is dense, so on a live ledger an index is a jsn; on the
    // static preload the ack says which jsn (and hash, and clue) it was.
    let (ReadOp::Prove(index)
    | ReadOp::GetTx(index)
    | ReadOp::ProveClue(index)
    | ReadOp::ProveState(index)) = op;
    let known = preloaded.get(index as usize);
    let jsn = known.map_or(index, |ack| ack.jsn);
    let clue = match op {
        ReadOp::ProveClue(_) | ReadOp::ProveState(_) => {
            gen::clue_name(preloaded[index as usize % preloaded.len()].clue)
        }
        _ => String::new(),
    };
    let (kind, op_name, call_name) = match op {
        ReadOp::Prove(_) => (Kind::Prove, "op.prove", "remote.prove"),
        ReadOp::GetTx(_) => (Kind::GetTx, "op.get_tx", "remote.get_tx"),
        ReadOp::ProveClue(_) => (Kind::ProveClue, "op.prove_clue", "remote.prove_clue"),
        ReadOp::ProveState(_) => (Kind::ProveState, "op.prove_state", "remote.prove_state"),
    };
    let root = tracer.begin(op_name, "client", op_id, NO_PARENT);
    let call = tracer.begin(call_name, "server", op_id, root);
    out.attempted += 1;
    let started = Instant::now();
    // The answer as a wire `Response` (for sizing and replay), or why the
    // op failed.
    let answer: Result<Response, String> = match op {
        ReadOp::Prove(_) => match retry_when_stale(remote, out, |r| r.prove(jsn)) {
            Ok((tx_hash, _)) if known.is_some_and(|ack| ack.tx_hash != tx_hash) => {
                Err("proven hash is not the acked hash".into())
            }
            Ok((tx_hash, proof)) => Ok(Response::Proof { tx_hash, proof }),
            Err(e) => Err(e.to_string()),
        },
        ReadOp::GetTx(_) => match remote.get_tx(jsn) {
            Ok((journal, _))
                if journal.jsn != jsn
                    || known.is_some_and(|ack| ack.tx_hash != journal.tx_hash()) =>
            {
                Err("not the acked journal".into())
            }
            Ok((journal, payload)) => Ok(Response::Tx { journal, payload }),
            Err(e) => Err(e.to_string()),
        },
        ReadOp::ProveClue(_) => match retry_when_stale(remote, out, |r| r.prove_clue(&clue)) {
            Ok(proof) => Ok(Response::ClueProof(proof)),
            Err(e) => Err(e.to_string()),
        },
        ReadOp::ProveState(_) => match retry_when_stale(remote, out, |r| r.prove_state(&clue)) {
            // Every preloaded clue has a committed latest-payload digest,
            // so a verified absence is a wrong answer.
            Ok((_, None)) => Err("a written clue was proven absent".into()),
            Ok((proof, Some(_))) => Ok(Response::StateProof(proof)),
            Err(e) => Err(e.to_string()),
        },
    };
    let took = started.elapsed();
    tracer.end(call);
    match answer {
        Err(why) => out.fail(format!("{call_name}({index}): {why}")),
        Ok(response) => {
            out.lat[kind as usize].push(took.as_nanos() as u64);
            let proof_bytes = match &response {
                Response::Proof { proof, .. } if size => Some(proof.to_wire().len()),
                Response::ClueProof(proof) => {
                    out.clue_entries += proof.entries.len() as u64;
                    size.then(|| proof.to_wire().len())
                }
                Response::StateProof(proof) if size => Some(proof.to_wire().len()),
                _ => None,
            };
            if let Some(bytes) = proof_bytes {
                out.proofs_sized += 1;
                out.proof_bytes += bytes as u64;
            }
            if replay {
                replay_read(tracer, op_id, root, remote, jsn, clue, response);
            }
        }
    }
    tracer.end(root);
}

/// Verify the returned proof once more through `LedgerClient` and push the
/// call's bytes back through the codec, each under its own span.
fn replay_read(
    tracer: &mut Tracer,
    op_id: u64,
    root: SpanId,
    remote: &RemoteLedger,
    jsn: u64,
    clue: String,
    response: Response,
) {
    let client = remote.client();
    let request = match &response {
        Response::Proof { tx_hash, proof } => {
            let span = tracer.begin("replay.verify_existence", "client", op_id, root);
            let verdict = client.verify_existence(tx_hash, proof);
            tracer.end(span);
            black_box(verdict).ok();
            Request::GetProof {
                jsn,
                anchor: client.anchor(),
            }
        }
        Response::ClueProof(proof) => {
            let span = tracer.begin("replay.verify_clue", "client", op_id, root);
            let verdict = client.verify_clue(proof);
            tracer.end(span);
            black_box(verdict).ok();
            Request::GetClueProof(clue)
        }
        Response::StateProof(proof) => {
            let span = tracer.begin("replay.verify_state", "client", op_id, root);
            let verdict = client.verify_state(proof).map(|v| v.is_some());
            tracer.end(span);
            black_box(verdict).ok();
            Request::GetStateProof(clue)
        }
        _ => Request::GetTx(jsn),
    };
    replay_codec(tracer, op_id, root, request, response);
}

/// Push the bytes of one call back through `Request`/`Response`
/// `to_wire`/`from_wire`: what the client's and the server's codec each did.
fn replay_codec(
    tracer: &mut Tracer,
    op_id: u64,
    root: SpanId,
    request: Request,
    response: Response,
) {
    let span = tracer.begin("replay.encode_request", "server", op_id, root);
    let request_bytes = request.to_wire();
    tracer.end(span);
    let span = tracer.begin("replay.decode_request", "server", op_id, root);
    let decoded = Request::from_wire(&request_bytes);
    tracer.end(span);
    black_box(decoded).ok();
    let span = tracer.begin("replay.encode_response", "server", op_id, root);
    let response_bytes = response.to_wire();
    tracer.end(span);
    let span = tracer.begin("replay.decode_response", "server", op_id, root);
    let decoded = Response::from_wire(&response_bytes);
    tracer.end(span);
    black_box(decoded).ok();
}

/// A seeded sample of `count` acks whose jsn the client has replayed (the
/// unsealed tail, under one block, cannot be proven yet).
pub fn audit_sample(acks: &[Ack], verified: u64, seed: u64, client: u64, count: usize) -> Vec<Ack> {
    let eligible: Vec<&Ack> = acks.iter().filter(|a| a.jsn < verified).collect();
    if eligible.is_empty() {
        return Vec::new();
    }
    let mut rng = Rng::new(seed, STREAM_AUDIT + client);
    (0..count)
        .map(|_| *eligible[rng.below(eligible.len() as u64) as usize])
        .collect()
}

/// Every sampled ack must prove, verified client-side, with the hash the
/// server acked: an acknowledged write that is lost or altered fails here.
pub fn audit(remote: &mut RemoteLedger, sample: &[Ack], out: &mut ClientOut) {
    for ack in sample {
        out.attempted += 1;
        let op_started = Instant::now();
        match remote.prove(ack.jsn) {
            Ok((tx_hash, proof)) if tx_hash == ack.tx_hash => {
                out.lat[Kind::Prove as usize].push(op_started.elapsed().as_nanos() as u64);
                if out.attempted.is_multiple_of(SIZE_EVERY) {
                    out.proofs_sized += 1;
                    out.proof_bytes += proof.to_wire().len() as u64;
                }
            }
            Ok(_) => out.fail(format!(
                "audit: jsn {} proves with another hash than acked",
                ack.jsn
            )),
            Err(e) => out.fail(format!("audit: acked jsn {} does not prove: {e}", ack.jsn)),
        }
    }
}

/// `kill -9` the server, restart it on the same directory, and time until
/// the first durable write and the first verified `prove` through a client
/// that kept its replica. The write is an `append_committed`: a crash can
/// leave acked journals in an unsealed tail, and until the next seal the
/// restarted server proves against a root no client has replayed. Then
/// hold the server to every ack: the journal count it recovered must cover
/// them and the sample must still prove with the acked hashes.
pub fn crash_cycle(
    bed: &mut Bed,
    acked: u64,
    sample: &[Ack],
    spare: SignedAppend,
    out: &mut ClientOut,
) -> Result<f64, String> {
    let first = sample.first().ok_or("nothing acked to recover")?;
    let started = Instant::now();
    bed.daemon.kill9();
    // A call on the dead socket fails at once with a typed error and marks
    // the connection broken; the next call redials and re-handshakes.
    let _ = bed.clients[0].stats();
    bed.daemon.restart()?;
    let client = &mut bed.clients[0];
    client
        .append_committed(spare.request)
        .map_err(|e| remote_err("append after restart", e))?;
    client
        .sync()
        .map_err(|e| remote_err("sync after restart", e))?;
    let proven = client
        .prove(first.jsn)
        .map_err(|e| remote_err("prove after restart", e))?;
    let seconds = started.elapsed().as_secs_f64();
    out.attempted += 2;
    if proven.0 != first.tx_hash {
        out.fail("after restart: first prove returns another hash than acked".into());
    }
    // The re-handshake happened before the append, so this is the count
    // the server recovered, not the count after the new write.
    let recovered = client.info().journal_count;
    if recovered < acked {
        out.fail(format!(
            "after restart: {recovered} journals recovered, {acked} were acked"
        ));
    }
    audit(client, sample, out);
    Ok(seconds)
}
