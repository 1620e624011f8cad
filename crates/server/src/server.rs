//! `ledgerd`: a thread-pool TCP server over a [`SharedLedger`].
//!
//! One acceptor thread hands sockets to a fixed worker pool over a
//! channel; each worker serves one connection at a time,
//! request/response, until the peer hangs up. Every append routes
//! through the group-commit [`GroupCommitter`], so a success response
//! is only written after the append's commit window is durable.
//!
//! Request handling itself lives in [`crate::service::RequestService`],
//! shared verbatim with the epoll transport
//! ([`crate::event_server::EventLedgerd`]) so both produce
//! byte-identical responses.
//!
//! Robustness posture:
//! * connection cap — sockets past [`ServerConfig::max_connections`]
//!   get a typed `Busy` error frame (an explicit retry-with-backoff
//!   invitation) and are closed, never queued unboundedly;
//! * per-socket read/write timeouts — a stalled peer cannot pin a
//!   worker forever; the read timeout doubles as the shutdown poll;
//! * graceful shutdown — [`Ledgerd::shutdown`] stops the acceptor,
//!   lets every in-flight request finish (its response is written),
//!   closes idle connections at their next timeout tick, drains the
//!   commit queue, and joins every thread;
//! * sticky durability errors — after every write-path request the
//!   server polls [`SharedLedger::take_durability_error`], so an
//!   auto-seal WAL failure surfaces as a typed `Durability` error on
//!   the very request that triggered it instead of lurking until some
//!   later fallible write.

use crate::batcher::{Admission, BatchConfig};
use crate::protocol::{
    read_frame_traced, write_frame, ErrorCode, ErrorFrame, FrameError, Request, Response,
    DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use crate::service::RequestService;
use ledgerdb_core::{ShardedLedger, SharedLedger};
use ledgerdb_crypto::sync::Mutex;
use ledgerdb_crypto::wire::Wire;
use ledgerdb_telemetry::Registry;
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub bind: String,
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Accepted-connection cap; excess connections are refused with a
    /// typed `Unavailable` frame.
    pub max_connections: usize,
    /// Per-socket read timeout. Also the shutdown-poll granularity for
    /// idle connections.
    pub read_timeout: Duration,
    /// Per-socket write timeout.
    pub write_timeout: Duration,
    /// Largest accepted frame body.
    pub max_frame: u32,
    /// Group-commit window. Every append commits through the group
    /// committer; `max_batch: 1` makes each append a window of its own.
    pub batch: BatchConfig,
    /// Where π_c is checked (see [`Admission`]). Defaults to verifying
    /// every request at the server.
    pub admission: Admission,
    /// Telemetry sink for the server, its committer, and the `Stats`
    /// exposition. Defaults to the process-global registry; tests bind
    /// their own for isolation.
    pub registry: Arc<Registry>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:0".into(),
            workers: 4,
            max_connections: 64,
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(5),
            max_frame: DEFAULT_MAX_FRAME,
            batch: BatchConfig::default(),
            admission: Admission::Verify,
            registry: Registry::global().clone(),
        }
    }
}

struct ServerState {
    service: RequestService,
    config: ServerConfig,
    active_connections: AtomicUsize,
}

/// A running server; dropping it (or calling [`Ledgerd::shutdown`])
/// stops it gracefully.
pub struct Ledgerd {
    state: Arc<ServerState>,
    local_addr: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Ledgerd {
    /// Bind and start serving a single-ledger deployment.
    pub fn start(shared: SharedLedger, config: ServerConfig) -> io::Result<Ledgerd> {
        Ledgerd::start_sharded(ShardedLedger::single(shared), config)
    }

    /// Bind and start serving a sharded deployment. With K=1 this is
    /// byte-identical to [`Ledgerd::start`].
    pub fn start_sharded(sharded: ShardedLedger, config: ServerConfig) -> io::Result<Ledgerd> {
        let listener = TcpListener::bind(&config.bind)?;
        let local_addr = listener.local_addr()?;
        let service = RequestService::start_sharded(sharded, &config);
        let state = Arc::new(ServerState {
            service,
            config,
            active_connections: AtomicUsize::new(0),
        });

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut workers = Vec::with_capacity(state.config.workers.max(1));
        for i in 0..state.config.workers.max(1) {
            let state = state.clone();
            let conn_rx = conn_rx.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("ledgerd-worker-{i}"))
                    .spawn(move || worker_loop(state, conn_rx))?,
            );
        }

        let acceptor_state = state.clone();
        let acceptor = thread::Builder::new()
            .name("ledgerd-acceptor".into())
            .spawn(move || acceptor_loop(acceptor_state, listener, conn_tx))?;

        Ok(Ledgerd {
            state,
            local_addr,
            acceptor: Mutex::new(Some(acceptor)),
            workers: Mutex::new(workers),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// drain the commit queue, join every thread, and — with a
    /// checkpoint policy enabled — flush the sealed prefix into a final
    /// checkpoint so the next start replays only the unsealed tail.
    /// Idempotent.
    pub fn shutdown(&self) {
        let first = self.state.service.begin_drain();
        // Unblock the acceptor's `accept()` with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.acceptor.lock().take() {
            let _ = handle.join();
        }
        // The acceptor dropped the connection sender; workers drain any
        // queued sockets (each sees the shutdown flag at its next frame
        // boundary) and exit.
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
        self.state.service.finish_drain(first);
    }
}

impl Drop for Ledgerd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn acceptor_loop(
    state: Arc<ServerState>,
    listener: TcpListener,
    conn_tx: mpsc::Sender<TcpStream>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        stream.set_nodelay(true).ok();
        if state.service.draining() {
            return; // conn_tx drops here; workers wind down.
        }
        if state.active_connections.load(Ordering::SeqCst) >= state.config.max_connections {
            refuse(stream, &state);
            continue;
        }
        state.active_connections.fetch_add(1, Ordering::SeqCst);
        state.service.metrics.connections_total.inc();
        state.service.metrics.connections_active.add(1);
        if conn_tx.send(stream).is_err() {
            return;
        }
    }
}

/// Tell an over-limit client why it is being dropped (best effort): a
/// typed `Busy` frame — an explicit retry-with-backoff invitation —
/// never a silent close.
fn refuse(stream: TcpStream, state: &ServerState) {
    state.service.metrics.connections_refused.inc();
    state.service.metrics.conn_rejected.inc();
    let _ = stream.set_write_timeout(Some(state.config.write_timeout));
    // The refused peer may already have a `Hello` in flight; a straight
    // close would RST and destroy the refusal before it is read. The
    // hang-up path half-closes and drains, so the frame arrives.
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    hang_up(state, stream, RequestService::busy_frame());
}

fn worker_loop(state: Arc<ServerState>, conn_rx: Arc<Mutex<mpsc::Receiver<TcpStream>>>) {
    loop {
        // Hold the receiver lock only while dequeuing.
        let next = conn_rx.lock().recv();
        match next {
            Ok(stream) => {
                serve_connection(&state, stream);
                state.active_connections.fetch_sub(1, Ordering::SeqCst);
                state.service.metrics.connections_active.add(-1);
            }
            Err(_) => return, // acceptor gone and queue drained
        }
    }
}

fn serve_connection(state: &ServerState, mut stream: TcpStream) {
    if stream.set_read_timeout(Some(state.config.read_timeout)).is_err()
        || stream.set_write_timeout(Some(state.config.write_timeout)).is_err()
    {
        return;
    }
    // Buffer the read side (one syscall per frame instead of three);
    // responses are already a single buffered `write_all` per frame.
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::with_capacity(16 * 1024, clone),
        Err(_) => return,
    };
    loop {
        let (wire_trace, body) = match read_frame_traced(&mut reader, state.config.max_frame) {
            Ok(frame) => frame,
            Err(e) if e.is_timeout() => {
                if state.service.draining() {
                    return; // idle connection during drain
                }
                continue;
            }
            Err(FrameError::Closed) => return,
            Err(FrameError::BadVersion(v)) => {
                // The stream offset is now unsynchronized; answer and
                // hang up.
                hang_up(
                    state,
                    stream,
                    Response::Error(ErrorFrame {
                        code: ErrorCode::UnsupportedVersion,
                        detail: format!(
                            "version {v} not supported (this server speaks {PROTOCOL_VERSION})"
                        ),
                    }),
                );
                return;
            }
            Err(FrameError::Oversized { len, max }) => {
                hang_up(
                    state,
                    stream,
                    Response::Error(ErrorFrame {
                        code: ErrorCode::Oversized,
                        detail: format!("frame of {len} bytes exceeds the {max}-byte bound"),
                    }),
                );
                return;
            }
            Err(FrameError::BadEnvelope) => {
                // A version-2 frame with a malformed trace envelope; the
                // body boundary was still honored, but answer and hang up
                // rather than guess at the peer's framing state.
                hang_up(
                    state,
                    stream,
                    Response::Error(ErrorFrame {
                        code: ErrorCode::BadFrame,
                        detail: "malformed trace envelope in version-2 frame".into(),
                    }),
                );
                return;
            }
            // Write-side-only error; never produced by `read_frame`.
            Err(FrameError::FrameTooLarge { .. }) => return,
            // Client-side batch-accounting error; never produced here.
            Err(FrameError::BatchLengthMismatch { .. }) => return,
            Err(FrameError::Io(_)) => return,
        };
        // +5: the version byte and length prefix of the frame header.
        state.service.metrics.bytes_in.add(body.len() as u64 + 5);
        let response = match Request::from_wire(&body) {
            Ok(request) => state.service.handle_traced(request, wire_trace),
            // A complete frame that fails to decode leaves the stream
            // synchronized — answer with a typed error and keep serving.
            Err(e) => Response::Error(ErrorFrame::from_wire_error(&e)),
        };
        if !respond(state, &mut stream, response) {
            return;
        }
        if state.service.draining() {
            return; // in-flight request finished; close before the next
        }
    }
}

/// Write one response frame; false when the connection is unusable.
fn respond(state: &ServerState, stream: &mut TcpStream, response: Response) -> bool {
    let wire = response.to_wire();
    if matches!(response, Response::Error(_)) {
        state.service.metrics.error_frames.inc();
    }
    state.service.metrics.bytes_out.add(wire.len() as u64 + 5);
    write_frame(stream, &wire).is_ok()
}

/// Final answer on a connection whose stream offset is no longer
/// trusted: write the error frame, half-close, and drain leftover
/// client bytes so the close sends FIN rather than RST (an RST would
/// destroy the error frame before the peer reads it).
fn hang_up(state: &ServerState, mut stream: TcpStream, response: Response) {
    if !respond(state, &mut stream, response) {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 4096];
    // Bounded drain: the peer either hangs up after reading the error
    // (Ok(0)) or keeps talking into the void until we give up.
    for _ in 0..8 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(_) => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame;
    use crate::remote::RemoteLedger;
    use crate::testutil::shared;
    use ledgerdb_core::TxRequest;
    use std::io::Write as _;

    fn start(block_size: u64) -> (Ledgerd, ledgerdb_crypto::keys::KeyPair) {
        let (shared, alice) = shared(block_size);
        let server = Ledgerd::start(shared, ServerConfig::default()).unwrap();
        (server, alice)
    }

    #[test]
    fn round_trip_over_tcp() {
        let (server, alice) = start(4);
        let mut remote = RemoteLedger::connect(server.local_addr()).unwrap();
        for i in 0..8u64 {
            let receipt = remote
                .append_committed(TxRequest::signed(
                    &alice,
                    format!("tcp-{i}").into_bytes(),
                    vec!["tcp".into()],
                    i,
                ))
                .unwrap();
            assert_eq!(receipt.jsn, i);
        }
        remote.sync().unwrap();
        assert_eq!(remote.client().verified_journals(), 8);
        let (tx_hash, proof) = remote.prove(3).unwrap();
        remote.client().verify_existence(&tx_hash, &proof).unwrap();
        server.shutdown();
    }

    #[test]
    fn batched_endpoints_round_trip() {
        let (shared, alice) = shared(8);
        let config = ServerConfig { registry: Arc::new(Registry::new()), ..ServerConfig::default() };
        let server = Ledgerd::start(shared.clone(), config).unwrap();
        let mut remote = RemoteLedger::connect(server.local_addr()).unwrap();

        // One frame, one commit: 20 good requests and a stranger's.
        let stranger = ledgerdb_crypto::keys::KeyPair::from_seed(b"batch-stranger");
        let mut requests: Vec<TxRequest> = (0..20u64)
            .map(|i| {
                TxRequest::signed(&alice, format!("batch-{i}").into_bytes(), vec!["b".into()], i)
            })
            .collect();
        requests.insert(7, TxRequest::signed(&stranger, b"intruder".to_vec(), vec![], 99));
        let results = remote.append_batch(requests).unwrap();
        assert_eq!(results.len(), 21);
        assert_eq!(results[7].as_ref().unwrap_err().code, ErrorCode::Rejected);
        // Positional acks with dense jsns: the rejected item consumed
        // no jsn, its successors shifted down by one.
        let jsns: Vec<u64> = results
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 7)
            .map(|(_, r)| r.as_ref().unwrap().0)
            .collect();
        assert_eq!(jsns, (0..20).collect::<Vec<_>>());
        assert_eq!(shared.journal_count(), 20);

        // Batch proofs against the client's own anchor: sync the sealed
        // prefix (block_size 8 → blocks at 8 and 16), then prove the
        // covered jsns plus one absurd jsn whose per-item error must not
        // poison its siblings. Every returned proof was verified against
        // the client's own root inside prove_batch.
        shared.seal_block();
        remote.sync().unwrap();
        let covered = remote.client().verified_journals();
        assert!(covered >= 16, "sealed prefix should cover the appends, got {covered}");
        let mut jsns: Vec<u64> = (0..covered).collect();
        jsns.push(10_000);
        let proofs = remote.prove_batch(jsns).unwrap();
        assert_eq!(proofs.len(), covered as usize + 1);
        assert!(proofs[..covered as usize].iter().all(|p| p.is_ok()));
        assert_eq!(proofs[covered as usize].as_ref().unwrap_err().code, ErrorCode::NotFound);
        server.shutdown();
    }

    #[test]
    fn hostile_bytes_get_typed_errors_not_hangups() {
        let (server, _) = start(4);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // A syntactically valid frame carrying garbage: typed BadTag,
        // connection stays usable.
        write_frame(&mut stream, &[0xEE, 0x01, 0x02]).unwrap();
        let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match Response::from_wire(&body).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadTag),
            other => panic!("expected error frame, got {other:?}"),
        }
        // Still serving on the same socket.
        write_frame(&mut stream, &Request::GetAnchor.to_wire()).unwrap();
        let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        assert!(matches!(Response::from_wire(&body).unwrap(), Response::Anchor(_)));

        // An oversized frame: typed error, then hangup.
        let mut huge = vec![PROTOCOL_VERSION];
        huge.extend_from_slice(&(DEFAULT_MAX_FRAME + 1).to_be_bytes());
        stream.write_all(&huge).unwrap();
        let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match Response::from_wire(&body).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Oversized),
            other => panic!("expected error frame, got {other:?}"),
        }

        // A wrong version byte on a fresh connection.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&[9, 0, 0, 0, 0]).unwrap();
        let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match Response::from_wire(&body).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
            other => panic!("expected error frame, got {other:?}"),
        }
        // Server hung up after the framing violation.
        let mut probe = [0u8; 1];
        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(stream.read(&mut probe).unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn stats_request_exposes_consistent_counters() {
        use ledgerdb_telemetry::parse_value;

        let (shared, alice) = shared(1024);
        let registry = Arc::new(Registry::new());
        let config = ServerConfig { registry: registry.clone(), ..ServerConfig::default() };
        let server = Ledgerd::start(shared, config).unwrap();
        let mut remote = RemoteLedger::connect(server.local_addr()).unwrap();
        let n = 8u64;
        for i in 0..n {
            remote
                .append(TxRequest::signed(&alice, format!("s-{i}").into_bytes(), vec![], i))
                .unwrap();
        }
        let text = remote.stats().unwrap();
        // Every append was counted at its request kind and admitted
        // under the default Verify mode; nothing errored.
        assert_eq!(parse_value(&text, "server_req_append_total"), Some(n as f64), "{text}");
        assert_eq!(parse_value(&text, "server_req_append_seconds_count"), Some(n as f64));
        assert_eq!(parse_value(&text, "server_admission_verify_total"), Some(n as f64));
        assert_eq!(parse_value(&text, "server_error_frames_total"), Some(0.0));
        assert_eq!(parse_value(&text, "server_connections_active"), Some(1.0));
        assert!(parse_value(&text, "server_connections_total").unwrap() >= 1.0);
        // Frame accounting: n appends + hello + this stats request all
        // moved bytes both ways.
        assert!(parse_value(&text, "server_bytes_in_total").unwrap() > 0.0);
        assert!(parse_value(&text, "server_bytes_out_total").unwrap() > 0.0);
        // The batcher drained every append through at least one window.
        assert!(parse_value(&text, "batch_windows_total").unwrap() >= 1.0);
        assert_eq!(parse_value(&text, "batch_size_sum"), Some(n as f64));
        assert_eq!(parse_value(&text, "batch_queue_depth"), Some(0.0));
        // A request that errors is counted.
        let err = remote
            .append(TxRequest::signed(
                &ledgerdb_crypto::keys::KeyPair::from_seed(b"stranger"),
                b"x".to_vec(),
                vec![],
                99,
            ))
            .unwrap_err();
        assert!(matches!(err, crate::remote::RemoteError::Server(_)));
        let text = remote.stats().unwrap();
        assert_eq!(parse_value(&text, "server_error_frames_total"), Some(1.0));
        server.shutdown();
    }

    #[test]
    fn connection_limit_refuses_with_typed_error() {
        let (shared, _) = shared(4);
        let config = ServerConfig {
            workers: 1,
            max_connections: 1,
            ..ServerConfig::default()
        };
        let server = Ledgerd::start(shared, config).unwrap();
        // Occupy the single slot with a live session.
        let mut first = RemoteLedger::connect(server.local_addr()).unwrap();
        // The next connection must be refused, not queued.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match Response::from_wire(&body).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Busy),
            other => panic!("expected refusal, got {other:?}"),
        }
        // The occupied session still works.
        first.sync().unwrap();
        server.shutdown();
    }

    #[test]
    fn graceful_shutdown_finishes_inflight_appends() {
        let (shared, alice) = shared(4);
        let config = ServerConfig {
            batch: BatchConfig { max_batch: 32, max_delay: Duration::from_millis(25) },
            ..ServerConfig::default()
        };
        let server = Ledgerd::start(shared, config).unwrap();
        let addr = server.local_addr();
        let results = std::thread::scope(|scope| {
            let appender = scope.spawn(move || {
                let mut remote = RemoteLedger::connect(addr).unwrap();
                (0..16u64)
                    .map(|i| {
                        remote.append(TxRequest::signed(
                            &alice,
                            format!("drain-{i}").into_bytes(),
                            vec![],
                            i,
                        ))
                    })
                    .collect::<Vec<_>>()
            });
            // Let some appends start, then pull the plug.
            std::thread::sleep(Duration::from_millis(40));
            server.shutdown();
            appender.join().unwrap()
        });
        // Every response was either a durable ack or a typed
        // shutdown/transport error — never a hang, never an unacked
        // success.
        let acked = results.iter().filter(|r| r.is_ok()).count();
        assert!(acked >= 1, "at least the first batch should have landed");
        for r in results.iter().filter(|r| r.is_err()) {
            match r.as_ref().unwrap_err() {
                crate::remote::RemoteError::Server(f) => {
                    assert_eq!(f.code, ErrorCode::ShuttingDown, "unexpected server error: {f}")
                }
                crate::remote::RemoteError::Frame(_) => {} // connection torn down mid-drain
                other => panic!("unexpected failure kind: {other}"),
            }
        }
    }

    mod checkpoints {
        use super::*;
        use crate::remote::RemoteLedger;
        use crate::testutil::registry;
        use ledgerdb_core::recovery::{open_durable, open_durable_with, CHECKPOINT_DIR};
        use ledgerdb_core::{LedgerConfig, SharedLedger};
        use ledgerdb_storage::checkpoint::{CheckpointStore, CkptIo, CrashPoint};
        use ledgerdb_storage::FsyncPolicy;
        use ledgerdb_telemetry::parse_value;
        use ledgerdb_timesvc::clock::SimClock;
        use std::path::PathBuf;

        fn temp_dir(tag: &str) -> PathBuf {
            let dir =
                std::env::temp_dir().join(format!("ledgerd-ckpt-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            dir
        }

        fn ledger_config() -> LedgerConfig {
            LedgerConfig { block_size: 4, fam_delta: 15, name: "server-ckpt".into(), state_backend: Default::default() }
        }

        /// A durable shared ledger with a checkpoint policy, plus its
        /// telemetry registry.
        fn durable_shared(
            dir: &PathBuf,
            io: Arc<CkptIo>,
            every_n_seals: u64,
        ) -> (SharedLedger, ledgerdb_crypto::keys::KeyPair, Arc<Registry>) {
            let (members, alice) = registry();
            let telemetry = Arc::new(Registry::new());
            let (mut ledger, _) = open_durable_with(
                ledger_config(),
                members,
                dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
                &telemetry,
            )
            .unwrap();
            ledger.bind_metrics(&telemetry);
            let store = Arc::new(CheckpointStore::open(&dir.join(CHECKPOINT_DIR)).unwrap());
            ledger.enable_checkpoints(store, io, every_n_seals);
            (SharedLedger::new(ledger), alice, telemetry)
        }

        #[test]
        fn graceful_drain_commits_a_final_checkpoint() {
            let dir = temp_dir("drain");
            // Cadence high enough that only the drain checkpoints.
            let (shared, alice, telemetry) =
                durable_shared(&dir, Arc::new(CkptIo::new()), 1000);
            let config = ServerConfig { registry: telemetry.clone(), ..ServerConfig::default() };
            let server = Ledgerd::start(shared, config).unwrap();
            let mut remote = RemoteLedger::connect(server.local_addr()).unwrap();
            for i in 0..8u64 {
                remote
                    .append(TxRequest::signed(&alice, format!("d-{i}").into_bytes(), vec![], i))
                    .unwrap();
            }
            server.shutdown();

            let text = ledgerdb_telemetry::render(&telemetry);
            assert_eq!(parse_value(&text, "ledger_checkpoints_total"), Some(1.0), "{text}");
            assert_eq!(parse_value(&text, "ledger_durability_error"), Some(0.0));

            // The next start loads the checkpoint and replays nothing:
            // the drain flushed the whole sealed prefix and the WAL.
            let (members, _) = registry();
            let (reopened, report) = open_durable(
                ledger_config(),
                members,
                &dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
            )
            .unwrap();
            assert!(report.checkpoint.is_some(), "drain checkpoint found: {report:?}");
            assert_eq!(report.journals_replayed, 0, "nothing left to replay: {report:?}");
            assert_eq!(reopened.journal_count(), 8);
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn drain_checkpoint_failure_sets_the_sticky_durability_gauge() {
            let dir = temp_dir("drain-fail");
            let io = Arc::new(CkptIo::new());
            // The drain's checkpoint is the first checkpoint I/O of the
            // process; its very first write dies.
            io.arm(CrashPoint { op: 1, torn_keep: None });
            let (shared, alice, telemetry) = durable_shared(&dir, io, 1000);
            let config = ServerConfig { registry: telemetry.clone(), ..ServerConfig::default() };
            let server = Ledgerd::start(shared, config).unwrap();
            let mut remote = RemoteLedger::connect(server.local_addr()).unwrap();
            for i in 0..4u64 {
                remote
                    .append(TxRequest::signed(&alice, format!("f-{i}").into_bytes(), vec![], i))
                    .unwrap();
            }
            server.shutdown();

            let text = ledgerdb_telemetry::render(&telemetry);
            assert_eq!(parse_value(&text, "ledger_checkpoints_total"), Some(0.0), "{text}");
            assert_eq!(
                parse_value(&text, "ledger_durability_error"),
                Some(1.0),
                "a failed drain checkpoint must trip the sticky gauge:\n{text}"
            );

            // The WAL was never reset, so nothing is lost: recovery
            // replays the full (checkpoint-less) history.
            let (members, _) = registry();
            let (reopened, report) = open_durable(
                ledger_config(),
                members,
                &dir,
                FsyncPolicy::Always,
                Arc::new(SimClock::new()),
            )
            .unwrap();
            assert!(report.checkpoint.is_none());
            assert_eq!(reopened.journal_count(), 4);
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn seal_path_checkpoint_failure_surfaces_as_a_durability_error() {
            let dir = temp_dir("seal-fail");
            let io = Arc::new(CkptIo::new());
            io.arm(CrashPoint { op: 1, torn_keep: None });
            // Checkpoint after every seal. The append path polls the
            // stash after its commit window answers.
            let (shared, alice, telemetry) = durable_shared(&dir, io, 1);
            let config = ServerConfig { registry: telemetry.clone(), ..ServerConfig::default() };
            let server = Ledgerd::start(shared, config).unwrap();
            let mut remote = RemoteLedger::connect(server.local_addr()).unwrap();
            for i in 0..3u64 {
                remote
                    .append(TxRequest::signed(&alice, format!("s-{i}").into_bytes(), vec![], i))
                    .unwrap();
            }
            // The fourth append seals block 0; the seal's checkpoint
            // dies on its first write, and the failure comes back as a
            // typed error on this very request — not a silent ack.
            let err = remote
                .append(TxRequest::signed(&alice, b"s-3".to_vec(), vec![], 3))
                .unwrap_err();
            match err {
                crate::remote::RemoteError::Server(frame) => {
                    assert_eq!(frame.code, ErrorCode::Durability, "{frame}");
                    assert!(
                        frame.detail.contains("injected crash"),
                        "the detail names the checkpoint failure: {frame}"
                    );
                }
                other => panic!("expected a typed durability error, got: {other}"),
            }
            // Degraded but serving: the next append lands, and the next
            // seal's checkpoint (the armed op is one-shot) succeeds.
            for i in 4..8u64 {
                remote
                    .append(TxRequest::signed(&alice, format!("s-{i}").into_bytes(), vec![], i))
                    .unwrap();
            }
            let text = ledgerdb_telemetry::render(&telemetry);
            assert_eq!(parse_value(&text, "ledger_durability_error"), Some(0.0), "{text}");
            assert_eq!(parse_value(&text, "ledger_checkpoints_total"), Some(1.0), "{text}");
            server.shutdown();
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
