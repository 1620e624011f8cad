//! `ledgerd --event-loop`: the epoll readiness transport.
//!
//! One loop thread owns a [`Poller`] and every connection; requests are
//! handled by a small dispatch pool (the group committer *blocks* on
//! the fsync barrier, so request handling must never run on the loop
//! thread). The thread-per-connection server caps out at hundreds of
//! sockets; this transport serves tens of thousands, because an idle
//! connection costs one table entry — not a thread.
//!
//! ## Per-connection frame state machine
//!
//! ```text
//!            readable                complete frame          worker done
//! ┌──────┐ ──────────► ┌──────────┐ ─────────────► ┌───────┐ ─────────► ┌───────┐
//! │ IDLE │             │ READING  │                │ BUSY  │            │ WRITE │
//! └──────┘ ◄────────── └──────────┘ ◄───────────── └───────┘ ◄───────── └───────┘
//!            buffer empty   partial frame stays      EPOLLIN off          drain,
//!            & response     buffered; deadline       (backpressure:       then back
//!            flushed        runs on *progress*       one in flight        to IDLE —
//!                           not on bytes             per connection)      or close
//! ```
//!
//! Progress — not traffic — feeds the idle/slowloris deadline: the
//! clock resets when a *complete* frame parses, when a response is
//! enqueued, and when response bytes drain, never on a partial read. A
//! peer trickling one byte a minute therefore hits the same deadline as
//! a silent one, while a connection waiting on its own in-flight
//! request is exempt (the server owes it an answer).
//!
//! Two listeners share the loop: the binary frame protocol and the
//! operator HTTP surface ([`crate::http`]), each driving the same
//! [`RequestService`] the threaded server uses — responses are
//! byte-identical across transports by construction.
//!
//! Overload: a connection past [`ServerConfig::max_connections`] gets a
//! typed `Busy` frame (binary) or `503 + Retry-After` (HTTP) written
//! through the normal state machine — FIN, not RST, so the refusal
//! survives — and is counted on `ledger_conn_rejected_total`.

use crate::http::{self, HttpParse};
use crate::metrics::LoopMetrics;
use crate::protocol::{
    split_trace_envelope, write_frame, ErrorCode, ErrorFrame, Request, Response,
    PROTOCOL_VERSION, TRACED_PROTOCOL_VERSION,
};
use crate::server::ServerConfig;
use crate::service::RequestService;
use ledgerdb_core::{ShardedLedger, SharedLedger};
use ledgerdb_crypto::sync::Mutex;
use ledgerdb_crypto::wire::Wire;
use ledgerdb_netpoll::{Event, Interest, Poller, Token, Waker};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning for the event transport, wrapping the shared [`ServerConfig`]
/// (whose `workers` become the dispatch pool and whose
/// `max_connections` caps *both* listeners together).
#[derive(Clone, Debug)]
pub struct EventConfig {
    pub server: ServerConfig,
    /// Bind address for the HTTP operator surface; `None` disables it.
    pub http_bind: Option<String>,
    /// The idle/slowloris deadline: a connection making no *progress*
    /// (complete frame parsed, response enqueued, or bytes drained) for
    /// this long is closed and its slot freed. Connections with a
    /// request in flight are exempt.
    pub idle_timeout: Duration,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            server: ServerConfig::default(),
            http_bind: None,
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Reserved tokens; connections start above these.
const TOK_BINARY_LISTENER: Token = Token(0);
const TOK_HTTP_LISTENER: Token = Token(1);
const TOK_WAKER: Token = Token(2);
const FIRST_CONN: u64 = 3;

#[derive(Clone, Copy)]
enum Proto {
    Binary,
    Http,
}

/// One registered connection's state machine.
struct Conn {
    stream: TcpStream,
    proto: Proto,
    read_buf: Vec<u8>,
    /// Pending response bytes; `write_pos` marks the drained prefix.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// A request is at the workers; reads are off (backpressure).
    in_flight: bool,
    /// Stop reading requests; flush what is queued, then close.
    closing: bool,
    /// Half-close already sent (refusal/hang-up FIN discipline).
    fin_sent: bool,
    /// Peer half-closed its side.
    peer_eof: bool,
    /// Last *progress* instant — see module docs; partial reads do not
    /// touch this.
    last_progress: Instant,
    interest: Interest,
    /// Accepted under the cap and counted on the active gauges; a
    /// refusal never was, so close-time accounting skips it.
    counted: bool,
}

impl Conn {
    fn new(stream: TcpStream, proto: Proto) -> Conn {
        Conn {
            stream,
            proto,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            in_flight: false,
            closing: false,
            fin_sent: false,
            peer_eof: false,
            last_progress: Instant::now(),
            interest: Interest::NONE,
            counted: false,
        }
    }

    fn pending_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    fn enqueue(&mut self, bytes: &[u8]) {
        // Compact the drained prefix before growing.
        if self.write_pos > 0 {
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        self.write_buf.extend_from_slice(bytes);
    }

    fn wanted_interest(&self) -> Interest {
        let read = !self.in_flight && !self.peer_eof && !(self.closing && self.fin_sent);
        // A refusal/hang-up in FIN-drain still reads (to discard), so
        // EOF arrives and the slot frees promptly.
        let read = read || (self.fin_sent && !self.peer_eof);
        match (read, self.pending_write()) {
            (true, true) => Interest::BOTH,
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            (false, false) => Interest::NONE,
        }
    }
}

/// Work shipped to the dispatch pool.
enum Work {
    /// A decoded-length binary frame body, with the trace id its
    /// version-2 envelope carried (if any).
    Binary { body: Vec<u8>, trace: Option<u64> },
    Http { method: String, path: String, keep_alive: bool },
}

struct Job {
    conn: u64,
    work: Work,
}

/// A finished response headed back to the loop thread.
struct Done {
    conn: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// A running event-loop server; dropping it (or calling
/// [`EventLedgerd::shutdown`]) drains gracefully — same contract as the
/// threaded [`crate::Ledgerd`], final checkpoint included.
pub struct EventLedgerd {
    service: Arc<RequestService>,
    local_addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    waker: Arc<Waker>,
    loop_thread: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl EventLedgerd {
    pub fn start(shared: SharedLedger, config: EventConfig) -> io::Result<EventLedgerd> {
        EventLedgerd::start_sharded(ShardedLedger::single(shared), config)
    }

    /// Like [`EventLedgerd::start`], but serving K shard ledgers behind
    /// the same event loop. With K=1 this is byte-identical to `start`.
    pub fn start_sharded(sharded: ShardedLedger, config: EventConfig) -> io::Result<EventLedgerd> {
        let binary = TcpListener::bind(&config.server.bind)?;
        binary.set_nonblocking(true)?;
        let local_addr = binary.local_addr()?;
        let http = match &config.http_bind {
            Some(bind) => {
                let l = TcpListener::bind(bind)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let http_addr = http.as_ref().map(|l| l.local_addr()).transpose()?;

        let service = Arc::new(RequestService::start_sharded(sharded, &config.server));
        let loop_metrics = LoopMetrics::bind(&config.server.registry);
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.register(waker.as_ref(), TOK_WAKER, Interest::READABLE)?;
        poller.register(&binary, TOK_BINARY_LISTENER, Interest::READABLE)?;
        if let Some(http) = &http {
            poller.register(http, TOK_HTTP_LISTENER, Interest::READABLE)?;
        }

        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let done = Arc::new(Mutex::new(Vec::<Done>::new()));
        let mut workers = Vec::with_capacity(config.server.workers.max(1));
        for i in 0..config.server.workers.max(1) {
            let service = service.clone();
            let job_rx = job_rx.clone();
            let done = done.clone();
            let waker = waker.clone();
            let loop_metrics = loop_metrics.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("ledgerd-dispatch-{i}"))
                    .spawn(move || dispatch_loop(service, job_rx, done, waker, loop_metrics))?,
            );
        }

        let loop_state = LoopState {
            service: service.clone(),
            config,
            poller,
            waker: waker.clone(),
            binary: Some(binary),
            http,
            conns: HashMap::new(),
            active: 0,
            next_conn: FIRST_CONN,
            job_tx,
            done,
            metrics: loop_metrics,
        };
        let loop_thread =
            thread::Builder::new().name("ledgerd-loop".into()).spawn(move || loop_state.run())?;

        Ok(EventLedgerd {
            service,
            local_addr,
            http_addr,
            waker,
            loop_thread: Mutex::new(Some(loop_thread)),
            workers: Mutex::new(workers),
        })
    }

    /// The binary protocol's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The HTTP surface's bound address, when one was configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Graceful drain, with the same contract as the threaded server:
    /// stop accepting, answer everything in flight, flush, drain the
    /// commit queue, and commit the final checkpoint when a policy is
    /// enabled. Idempotent.
    pub fn shutdown(&self) {
        let first = self.service.begin_drain();
        self.waker.wake();
        if let Some(handle) = self.loop_thread.lock().take() {
            let _ = handle.join();
        }
        // The loop thread dropped the job sender; workers drain queued
        // jobs (their responses die with the closed sockets) and exit.
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
        self.service.finish_drain(first);
    }
}

impl Drop for EventLedgerd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn dispatch_loop(
    service: Arc<RequestService>,
    job_rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    done: Arc<Mutex<Vec<Done>>>,
    waker: Arc<Waker>,
    metrics: LoopMetrics,
) {
    loop {
        // Hold the receiver lock only while dequeuing.
        let next = job_rx.lock().recv();
        let Ok(job) = next else { return };
        let result = match job.work {
            Work::Binary { body, trace } => {
                let response = match Request::from_wire(&body) {
                    Ok(request) => service.handle_traced(request, trace),
                    // A complete frame that fails to decode leaves the
                    // stream synchronized — typed error, keep serving.
                    Err(e) => Response::Error(ErrorFrame::from_wire_error(&e)),
                };
                if matches!(response, Response::Error(_)) {
                    service.metrics.error_frames.inc();
                }
                frame_bytes(&response).map(|bytes| Done { conn: job.conn, bytes, close: false })
            }
            Work::Http { method, path, keep_alive } => {
                metrics.http_requests.inc();
                let bytes = http::handle(&service, &method, &path, keep_alive);
                Ok(Done { conn: job.conn, bytes, close: !keep_alive })
            }
        };
        let done_item = match result {
            Ok(item) => {
                service.metrics.bytes_out.add(item.bytes.len() as u64);
                item
            }
            // An unencodable response (>u32 frame): the stream cannot
            // be kept synchronized — close it.
            Err(_) => Done { conn: job.conn, bytes: Vec::new(), close: true },
        };
        done.lock().push(done_item);
        waker.wake();
    }
}

/// Encode a response as one wire frame (version · len · body).
fn frame_bytes(response: &Response) -> Result<Vec<u8>, ()> {
    let wire = response.to_wire();
    let mut frame = Vec::with_capacity(5 + wire.len());
    write_frame(&mut frame, &wire).map_err(|_| ())?;
    Ok(frame)
}

struct LoopState {
    service: Arc<RequestService>,
    config: EventConfig,
    poller: Poller,
    waker: Arc<Waker>,
    binary: Option<TcpListener>,
    http: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    /// Connections counted toward `max_connections` — excludes
    /// refusals lingering in FIN-drain, so a refusal storm can't hold
    /// the cap down after real connections close.
    active: usize,
    next_conn: u64,
    job_tx: mpsc::Sender<Job>,
    done: Arc<Mutex<Vec<Done>>>,
    metrics: LoopMetrics,
}

impl LoopState {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let tick = (self.config.idle_timeout / 4).clamp(
            Duration::from_millis(25),
            Duration::from_millis(500),
        );
        let mut next_reap = Instant::now() + tick;
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let wait_started = Instant::now();
            if self.poller.wait(&mut events, Some(tick)).is_err() {
                // A broken poller cannot serve; drop every connection.
                return;
            }
            let process_started = Instant::now();
            self.metrics.iterations.inc();
            self.metrics.wait_seconds.observe_duration(process_started - wait_started);
            self.metrics.events_per_wake.observe(events.len() as u64);

            for i in 0..events.len() {
                let event = events[i];
                match event.token {
                    TOK_BINARY_LISTENER => self.accept_all(Proto::Binary),
                    TOK_HTTP_LISTENER => self.accept_all(Proto::Http),
                    TOK_WAKER => self.waker.drain(),
                    Token(id) => self.drive_conn(id, event),
                }
            }
            self.apply_completions();

            let draining = self.service.draining();
            if draining && self.binary.is_some() {
                // Drain begins: stop accepting (close both listeners),
                // close idle connections now, bound the rest.
                if let Some(listener) = self.binary.take() {
                    let _ = self.poller.deregister(&listener);
                }
                if let Some(listener) = self.http.take() {
                    let _ = self.poller.deregister(&listener);
                }
                drain_deadline =
                    Some(Instant::now() + self.config.server.write_timeout);
                let idle: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| !c.in_flight && !c.pending_write())
                    .map(|(&id, _)| id)
                    .collect();
                for id in idle {
                    self.close_conn(id);
                }
            }

            let now = Instant::now();
            if now >= next_reap {
                next_reap = now + tick;
                self.reap_idle(now);
            }
            if draining {
                if self.conns.is_empty() {
                    return;
                }
                if drain_deadline.is_some_and(|deadline| now >= deadline) {
                    // Stalled peers do not get to hold the drain open.
                    let stuck: Vec<u64> = self.conns.keys().copied().collect();
                    for id in stuck {
                        self.close_conn(id);
                    }
                    return;
                }
            }
            self.metrics.process_seconds.observe_duration(process_started.elapsed());
        }
    }

    fn accept_all(&mut self, proto: Proto) {
        loop {
            let listener = match proto {
                Proto::Binary => self.binary.as_ref(),
                Proto::Http => self.http.as_ref(),
            };
            let Some(listener) = listener else { return };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let _ = stream.set_nonblocking(true);
            stream.set_nodelay(true).ok();
            let over_cap = self.active >= self.config.server.max_connections;
            let mut conn = Conn::new(stream, proto);
            if over_cap {
                // Refuse loudly: the typed Busy frame / 503 goes through
                // the ordinary state machine (write, FIN, drain) so the
                // peer reads the refusal instead of eating an RST.
                self.service.metrics.connections_refused.inc();
                self.service.metrics.conn_rejected.inc();
                self.service.metrics.error_frames.inc();
                let refusal = match conn.proto {
                    Proto::Binary => frame_bytes(&RequestService::busy_frame())
                        .expect("busy frame fits a u32 prefix"),
                    Proto::Http => http::busy_response(),
                };
                self.service.metrics.bytes_out.add(refusal.len() as u64);
                conn.enqueue(&refusal);
                conn.closing = true;
            } else {
                conn.counted = true;
                self.active += 1;
                self.service.metrics.connections_total.inc();
                self.service.metrics.connections_active.add(1);
                self.metrics.connections.add(1);
            }
            let id = self.next_conn;
            self.next_conn += 1;
            let token = Token(id);
            let interest = conn.wanted_interest();
            if self.poller.register(&conn.stream, token, interest).is_err() {
                if conn.counted {
                    self.active -= 1;
                    self.service.metrics.connections_active.add(-1);
                    self.metrics.connections.add(-1);
                }
                continue;
            }
            conn.interest = interest;
            self.conns.insert(id, conn);
            // An over-cap refusal flushes on the first writable event;
            // nothing further to do here.
        }
    }

    fn drive_conn(&mut self, id: u64, event: Event) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if event.is_error() {
            self.close_conn(id);
            return;
        }
        if event.writable() && conn.pending_write() && !Self::flush(conn) {
            self.close_conn(id);
            return;
        }
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if event.readable() && !conn.in_flight {
            if !Self::fill(conn) {
                self.close_conn(id);
                return;
            }
            self.parse_and_dispatch(id);
        }
        self.after_io(id);
    }

    /// Drain the socket into `read_buf` (or the void, post-FIN).
    /// False = the connection died.
    fn fill(conn: &mut Conn) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    return true;
                }
                Ok(n) => {
                    if conn.closing {
                        continue; // FIN drain: discard, wait for EOF
                    }
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    // Partial input is deliberately NOT progress — see
                    // the slowloris argument in the module docs.
                    let cap = match conn.proto {
                        Proto::Binary => usize::MAX, // bounded by the frame header check
                        Proto::Http => http::MAX_HEADER_BYTES + 4,
                    };
                    if conn.read_buf.len() > cap.saturating_add(16 * 1024) {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Write as much of `write_buf` as the socket takes.
    /// False = the connection died.
    fn flush(conn: &mut Conn) -> bool {
        while conn.pending_write() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.write_pos += n;
                    conn.last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Advance the state machine after any I/O: finish closes, send the
    /// FIN for hang-ups, and re-arm the poller interest.
    fn after_io(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.closing && !conn.pending_write() && !conn.in_flight {
            if !conn.fin_sent {
                conn.fin_sent = true;
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            }
            // The refusal/response is flushed and FIN sent; wait for the
            // peer's EOF (or the idle deadline) before dropping, so the
            // kernel never RSTs unread data away.
            if conn.peer_eof {
                self.close_conn(id);
                return;
            }
        } else if conn.peer_eof && !conn.in_flight && !conn.pending_write() {
            // Peer hung up and nothing is owed: a half-delivered frame
            // (non-empty read_buf) can never complete either way.
            self.close_conn(id);
            return;
        }
        let wanted = conn.wanted_interest();
        if wanted != conn.interest
            && self.poller.modify(&conn.stream, Token(id), wanted).is_ok()
        {
            conn.interest = wanted;
        }
    }

    /// Try to cut one complete request out of the buffer and ship it to
    /// the dispatch pool. One in flight per connection: responses stay
    /// in request order and a flooding peer is back-pressured instead of
    /// queued unboundedly.
    fn parse_and_dispatch(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.in_flight || conn.closing {
            return;
        }
        match conn.proto {
            Proto::Binary => {
                if conn.read_buf.is_empty() {
                    return;
                }
                let version = conn.read_buf[0];
                if version != PROTOCOL_VERSION && version != TRACED_PROTOCOL_VERSION {
                    self.hang_up(
                        id,
                        Response::Error(ErrorFrame {
                            code: ErrorCode::UnsupportedVersion,
                            detail: format!(
                                "version {version} not supported (this server speaks {PROTOCOL_VERSION})"
                            ),
                        }),
                    );
                    return;
                }
                if conn.read_buf.len() < 5 {
                    return;
                }
                let len =
                    u32::from_be_bytes(conn.read_buf[1..5].try_into().expect("4 bytes")) as usize;
                let max = self.config.server.max_frame;
                if len > max as usize {
                    self.hang_up(
                        id,
                        Response::Error(ErrorFrame {
                            code: ErrorCode::Oversized,
                            detail: format!(
                                "frame of {len} bytes exceeds the {max}-byte bound"
                            ),
                        }),
                    );
                    return;
                }
                if conn.read_buf.len() < 5 + len {
                    return;
                }
                let raw = conn.read_buf[5..5 + len].to_vec();
                conn.read_buf.drain(..5 + len);
                conn.last_progress = Instant::now();
                self.service.metrics.bytes_in.add(raw.len() as u64 + 5);
                let (trace, body) = if version == TRACED_PROTOCOL_VERSION {
                    match split_trace_envelope(&raw) {
                        Ok((trace, rest)) => (trace, rest.to_vec()),
                        Err(_) => {
                            // Complete frame, malformed envelope: the
                            // body boundary held, but hang up rather
                            // than guess at the peer's framing state —
                            // same posture as the threaded server.
                            self.hang_up(
                                id,
                                Response::Error(ErrorFrame {
                                    code: ErrorCode::BadFrame,
                                    detail: "malformed trace envelope in version-2 frame"
                                        .into(),
                                }),
                            );
                            return;
                        }
                    }
                } else {
                    (None, raw)
                };
                conn.in_flight = true;
                let _ = self.job_tx.send(Job { conn: id, work: Work::Binary { body, trace } });
            }
            Proto::Http => match http::parse_request(&conn.read_buf) {
                HttpParse::Incomplete => {}
                HttpParse::Request { method, path, keep_alive, consumed } => {
                    conn.read_buf.drain(..consumed);
                    conn.last_progress = Instant::now();
                    conn.in_flight = true;
                    self.service.metrics.bytes_in.add(consumed as u64);
                    let _ = self
                        .job_tx
                        .send(Job { conn: id, work: Work::Http { method, path, keep_alive } });
                }
                HttpParse::Reject(bytes) => {
                    self.service.metrics.bytes_out.add(bytes.len() as u64);
                    conn.enqueue(&bytes);
                    conn.closing = true;
                }
            },
        }
    }

    /// Final frame, then close: the stream offset is no longer trusted
    /// (framing violation), so after this response the connection ends
    /// with the FIN-and-drain discipline.
    fn hang_up(&mut self, id: u64, response: Response) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        self.service.metrics.error_frames.inc();
        if let Ok(bytes) = frame_bytes(&response) {
            self.service.metrics.bytes_out.add(bytes.len() as u64);
            conn.enqueue(&bytes);
        }
        conn.closing = true;
        conn.read_buf.clear();
        if !Self::flush(conn) {
            self.close_conn(id);
            return;
        }
        self.after_io(id);
    }

    /// Apply every finished response the dispatch pool queued.
    fn apply_completions(&mut self) {
        let batch: Vec<Done> = std::mem::take(&mut *self.done.lock());
        let draining = self.service.draining();
        for item in batch {
            let Some(conn) = self.conns.get_mut(&item.conn) else { continue };
            conn.in_flight = false;
            conn.last_progress = Instant::now();
            if item.bytes.is_empty() && item.close {
                // Encode failure: nothing to say, nothing to trust.
                self.close_conn(item.conn);
                continue;
            }
            conn.enqueue(&item.bytes);
            if item.close || draining {
                // HTTP `Connection: close`, or the drain contract: the
                // in-flight response is answered, then the socket ends.
                conn.closing = true;
            }
            if !Self::flush(conn) {
                self.close_conn(item.conn);
                continue;
            }
            if draining && !conn.pending_write() {
                // Drain closes as soon as the response is out — the
                // same drop-after-respond the threaded server does —
                // instead of lingering for the peer's EOF.
                self.close_conn(item.conn);
                continue;
            }
            // More pipelined requests may already be buffered. Two
            // paths keep a second frame that arrived in the same write
            // alive while `in_flight` suppressed reads:
            //  * bytes already in `read_buf` — this re-parse picks them
            //    up immediately, no readiness event needed;
            //  * bytes still in the kernel socket buffer — `after_io`
            //    re-arms READABLE and level-triggered epoll re-reports
            //    them on the next poll, even though the edge happened
            //    while interest was NONE.
            // Covered by the pipelined-frames tests in
            // `tests/event_loop.rs`.
            self.parse_and_dispatch(item.conn);
            self.after_io(item.conn);
        }
    }

    /// The slowloris reaper: close every connection past the progress
    /// deadline. In-flight connections are exempt — the server owes
    /// them a response and closes (if ever) only after writing it.
    fn reap_idle(&mut self, now: Instant) {
        let idle = self.config.idle_timeout;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.in_flight && now.duration_since(c.last_progress) >= idle)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.close_conn(id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.deregister(&conn.stream);
            if conn.counted {
                self.active -= 1;
                self.service.metrics.connections_active.add(-1);
                self.metrics.connections.add(-1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, DEFAULT_MAX_FRAME};
    use crate::BatchConfig;
    use crate::remote::RemoteLedger;
    use crate::testutil::shared;
    use ledgerdb_core::TxRequest;
    use ledgerdb_telemetry::{parse_value, Registry};

    fn config() -> EventConfig {
        EventConfig {
            server: ServerConfig {
                registry: Arc::new(Registry::new()),
                batch: BatchConfig { max_batch: 16, max_delay: Duration::from_millis(5) },
                ..ServerConfig::default()
            },
            http_bind: Some("127.0.0.1:0".into()),
            idle_timeout: Duration::from_secs(60),
        }
    }

    /// Read one HTTP response (headers + Content-Length body) as text.
    fn read_http(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            let header_end = buf.windows(4).position(|w| w == b"\r\n\r\n");
            if let Some(end) = header_end {
                let header = String::from_utf8_lossy(&buf[..end]).to_string();
                let len: usize = header
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .map(|v| v.trim().parse().expect("numeric content-length"))
                    .expect("Content-Length present");
                while buf.len() < end + 4 + len {
                    let n = stream.read(&mut chunk).expect("body read");
                    assert!(n > 0, "EOF mid-body");
                    buf.extend_from_slice(&chunk[..n]);
                }
                return String::from_utf8_lossy(&buf[..end + 4 + len]).to_string();
            }
            let n = stream.read(&mut chunk).expect("header read");
            assert!(n > 0, "EOF before header end: {:?}", String::from_utf8_lossy(&buf));
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn remote_round_trip_over_the_event_loop() {
        let (shared, alice) = shared(4);
        let server = EventLedgerd::start(shared, config()).unwrap();
        let mut remote = RemoteLedger::connect(server.local_addr()).unwrap();
        for i in 0..6u64 {
            let (jsn, _) = remote
                .append(TxRequest::signed(&alice, format!("ev-{i}").into_bytes(), vec![], i))
                .unwrap();
            assert_eq!(jsn, i);
        }
        // The verifying read path works across the loop too: sync the
        // client replica, then prove against the client's own anchor.
        remote.sync().unwrap();
        assert!(remote.client().verified_journals() >= 4);
        let (tx_hash, proof) = remote.prove(1).unwrap();
        remote.client().verify_existence(&tx_hash, &proof).unwrap();
        server.shutdown();
    }

    #[test]
    fn http_endpoints_answer_with_keep_alive_over_the_loop() {
        let (shared, alice) = shared(4);
        let server = EventLedgerd::start(shared, config()).unwrap();
        let mut remote = RemoteLedger::connect(server.local_addr()).unwrap();
        for i in 0..5u64 {
            remote
                .append(TxRequest::signed(&alice, format!("h-{i}").into_bytes(), vec![], i))
                .unwrap();
        }
        let http = server.http_addr().expect("http listener configured");
        let mut stream = TcpStream::connect(http).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        // Three requests on ONE connection: keep-alive over the loop.
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let health = read_http(&mut stream);
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        stream.write_all(b"GET /status HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let status = read_http(&mut stream);
        assert!(status.contains("\"journal_count\":5"), "{status}");
        assert!(status.contains("\"draining\":false"), "{status}");

        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let metrics = read_http(&mut stream);
        assert!(metrics.contains("server_http_requests_total"), "{metrics}");
        // Both the binary session and this HTTP socket are registered.
        assert!(metrics.contains("server_loop_connections 2"), "{metrics}");

        // A proof fetched over HTTP matches the binary protocol's.
        stream.write_all(b"GET /proof/1 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let proof = read_http(&mut stream);
        assert!(proof.contains("\"jsn\":1"), "{proof}");
        assert!(proof.contains("\"tx_hash\":\""), "{proof}");
        server.shutdown();
    }

    #[test]
    fn over_cap_connections_get_busy_on_both_protocols() {
        let (shared, _) = shared(4);
        let mut cfg = config();
        cfg.server.max_connections = 1;
        let registry = cfg.server.registry.clone();
        let server = EventLedgerd::start(shared, cfg).unwrap();
        // Occupy the single slot.
        let mut first = RemoteLedger::connect(server.local_addr()).unwrap();

        // Binary refusal: a typed Busy frame, not an EOF.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match Response::from_wire(&body).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Busy),
            other => panic!("expected Busy, got {other:?}"),
        }
        drop(stream);

        // HTTP refusal: 503 + Retry-After on the operator plane.
        let mut http = TcpStream::connect(server.http_addr().unwrap()).unwrap();
        http.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        http.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let refused = read_http(&mut http);
        assert!(refused.starts_with("HTTP/1.1 503"), "{refused}");
        assert!(refused.contains("Retry-After: 1"), "{refused}");
        drop(http);

        // The occupied session still works, and the refusals counted.
        first.sync().unwrap();
        let text = ledgerdb_telemetry::render(&registry);
        assert_eq!(parse_value(&text, "ledger_conn_rejected_total"), Some(2.0), "{text}");
        server.shutdown();
    }

    #[test]
    fn remote_retries_through_busy_and_lands() {
        let (shared, alice) = shared(4);
        let mut cfg = config();
        cfg.server.max_connections = 1;
        let server = EventLedgerd::start(shared, cfg).unwrap();
        let addr = server.local_addr();
        // Hold the only slot briefly, then release it while a second
        // client dials through its Busy-aware backoff.
        let holder = RemoteLedger::connect(addr).unwrap();
        let waiter = std::thread::spawn(move || {
            let mut remote = RemoteLedger::connect_with(
                addr,
                crate::remote::RemoteConfig {
                    backoff_initial: Duration::from_millis(50),
                    max_reconnect_attempts: 20,
                    ..crate::remote::RemoteConfig::default()
                },
            )
            .unwrap();
            remote.append(TxRequest::signed(&alice, b"after-busy".to_vec(), vec![], 0)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(200));
        drop(holder);
        let (jsn, _) = waiter.join().expect("busy-aware dial succeeded");
        assert_eq!(jsn, 0);
        server.shutdown();
    }

    #[test]
    fn graceful_shutdown_finishes_inflight_appends() {
        let (shared, alice) = shared(4);
        let server = EventLedgerd::start(shared, config()).unwrap();
        let addr = server.local_addr();
        let results = std::thread::scope(|scope| {
            let appender = scope.spawn(move || {
                let mut remote = RemoteLedger::connect(addr).unwrap();
                (0..16u64)
                    .map(|i| {
                        remote.append(TxRequest::signed(
                            &alice,
                            format!("evd-{i}").into_bytes(),
                            vec![],
                            i,
                        ))
                    })
                    .collect::<Vec<_>>()
            });
            std::thread::sleep(Duration::from_millis(40));
            server.shutdown();
            appender.join().unwrap()
        });
        let acked = results.iter().filter(|r| r.is_ok()).count();
        assert!(acked >= 1, "at least one append should have landed");
        for r in results.iter().filter(|r| r.is_err()) {
            match r.as_ref().unwrap_err() {
                crate::remote::RemoteError::Server(f) => {
                    assert_eq!(f.code, ErrorCode::ShuttingDown, "unexpected server error: {f}")
                }
                crate::remote::RemoteError::Frame(_) => {} // torn down mid-drain
                other => panic!("unexpected failure kind: {other}"),
            }
        }
    }

    #[test]
    fn framing_violations_get_typed_hangups() {
        let (shared, _) = shared(4);
        let server = EventLedgerd::start(shared, config()).unwrap();

        // Wrong version byte.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&[9, 0, 0, 0, 1, 0]).unwrap();
        let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match Response::from_wire(&body).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
            other => panic!("expected version error, got {other:?}"),
        }

        // Oversized length prefix.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut frame = vec![PROTOCOL_VERSION];
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        stream.write_all(&frame).unwrap();
        let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match Response::from_wire(&body).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Oversized),
            other => panic!("expected oversize error, got {other:?}"),
        }
        server.shutdown();
    }
}
