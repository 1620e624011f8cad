//! Hostile-slow-client tests against a deliberately tiny event loop:
//! four connection slots, a sub-second progress deadline. Trickled
//! frames, header-then-stall slowloris, and half-closed sockets must
//! never wedge a slot — the idle deadline fires on *lack of progress*
//! and frees it, while legitimate slow-but-finite clients still get
//! served. A separate many-connection test holds thousands of sockets
//! open on one loop at once and serves every one of them.

use ledgerdb::core::{LedgerConfig, LedgerDb, MemberRegistry, SharedLedger, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::wire::Wire;
use ledgerdb::server::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, DEFAULT_MAX_FRAME,
};
use ledgerdb::server::{EventConfig, EventLedgerd, ServerConfig};
use ledgerdb::telemetry::{parse_value, Registry};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const IDLE: Duration = Duration::from_millis(700);

fn fixture() -> (SharedLedger, KeyPair) {
    let ca = CertificateAuthority::from_seed(b"event-loop-test");
    let alice = KeyPair::from_seed(b"event-loop-test-alice");
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    let config = LedgerConfig { block_size: 4, fam_delta: 15, name: "event-loop-test".into(), state_backend: Default::default() };
    (SharedLedger::new(LedgerDb::new(config, registry)), alice)
}

/// A 4-slot loop with a short progress deadline.
fn tiny_server() -> (EventLedgerd, KeyPair) {
    let (shared, alice) = fixture();
    let config = EventConfig {
        server: ServerConfig {
            registry: Arc::new(Registry::new()),
            max_connections: 4,
            workers: 2,
            ..ServerConfig::default()
        },
        http_bind: Some("127.0.0.1:0".into()),
        idle_timeout: IDLE,
    };
    (EventLedgerd::start(shared, config).unwrap(), alice)
}

/// Block until the peer closes (EOF) or the deadline passes; true = EOF.
fn saw_eof_within(stream: &mut TcpStream, deadline: Duration) -> bool {
    stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let start = Instant::now();
    let mut sink = [0u8; 4096];
    while start.elapsed() < deadline {
        match stream.read(&mut sink) {
            Ok(0) => return true,
            Ok(_) => continue, // discard any final response bytes
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return true, // RST counts as closed too
        }
    }
    false
}

#[test]
fn slow_but_finite_client_is_served() {
    let (server, _) = tiny_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.set_nodelay(true).unwrap();

    // One byte at a time, but finishing well inside the deadline: the
    // parser must accumulate partial frames without penalizing them.
    let mut frame = Vec::new();
    write_frame(&mut frame, &Request::GetAnchor.to_wire()).unwrap();
    for byte in &frame {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match Response::from_wire(&body).unwrap() {
        Response::Anchor(_) => {}
        other => panic!("expected an anchor, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn binary_trickler_that_stalls_hits_the_deadline() {
    let (server, alice) = tiny_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Half a frame header, then silence. No complete frame ever parses,
    // so no progress is ever recorded — the reaper must cut it loose.
    stream.write_all(&[1, 0, 0]).unwrap();
    assert!(
        saw_eof_within(&mut stream, IDLE * 6),
        "stalled mid-frame connection was never reaped"
    );

    // The slot is free again: a real client gets served.
    let mut ok = TcpStream::connect(server.local_addr()).unwrap();
    ok.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(
        &mut ok,
        &Request::Append(TxRequest::signed(&alice, b"after-stall".to_vec(), vec![], 0)).to_wire(),
    )
    .unwrap();
    let body = read_frame(&mut ok, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(Response::from_wire(&body).unwrap(), Response::Appended { jsn: 0, .. }));
    server.shutdown();
}

#[test]
fn http_header_then_stall_slowloris_hits_the_deadline() {
    let (server, _) = tiny_server();
    let http = server.http_addr().unwrap();
    let mut stream = TcpStream::connect(http).unwrap();

    // A classic slowloris opener: a plausible start, never finished.
    stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Drip:").unwrap();
    assert!(
        saw_eof_within(&mut stream, IDLE * 6),
        "header-then-stall connection was never reaped"
    );

    // The HTTP listener still answers afterwards.
    let mut ok = TcpStream::connect(http).unwrap();
    ok.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    ok.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = ok.read(&mut chunk).unwrap();
        assert!(n > 0, "EOF before response");
        buf.extend_from_slice(&chunk[..n]);
    }
    assert!(buf.starts_with(b"HTTP/1.1 200"), "{:?}", String::from_utf8_lossy(&buf));
    server.shutdown();
}

#[test]
fn half_close_mid_request_still_gets_the_response() {
    let (server, _) = tiny_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Send a full request, then FIN our write side immediately: the
    // server owes the response and must deliver it to the still-open
    // read side rather than treating EOF as abandonment.
    write_frame(&mut stream, &Request::GetAnchor.to_wire()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(Response::from_wire(&body).unwrap(), Response::Anchor(_)));
    // After the response, the server closes its side too.
    match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
        Err(FrameError::Closed) => {}
        other => panic!("expected a clean close after the response, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn stalled_connections_free_their_slots_for_new_clients() {
    let (server, _) = tiny_server();

    // Fill all four slots with silent connections…
    let stalled: Vec<TcpStream> =
        (0..4).map(|_| TcpStream::connect(server.local_addr()).unwrap()).collect();
    // Give the loop a beat to accept all four.
    std::thread::sleep(Duration::from_millis(150));

    // …the fifth gets a typed Busy refusal, not a silent drop.
    let mut refused = TcpStream::connect(server.local_addr()).unwrap();
    refused.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let body = read_frame(&mut refused, DEFAULT_MAX_FRAME).unwrap();
    match Response::from_wire(&body).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Busy),
        other => panic!("expected Busy, got {other:?}"),
    }
    drop(refused);

    // Past the deadline the reaper frees all four silent slots; a new
    // client connects and is served without any of them cooperating.
    std::thread::sleep(IDLE + IDLE / 2);
    let mut ok = TcpStream::connect(server.local_addr()).unwrap();
    ok.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut ok, &Request::GetAnchor.to_wire()).unwrap();
    let body = read_frame(&mut ok, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(Response::from_wire(&body).unwrap(), Response::Anchor(_)));
    drop(stalled);
    server.shutdown();
}

#[test]
fn pipelined_binary_frames_in_one_write_both_answer() {
    // Two complete frames land in a single TCP segment. While the
    // first is in flight the loop drops read interest; the second
    // frame — already sitting in `read_buf` or still in the kernel
    // buffer — must not be lost when interest is re-armed. Both
    // responses must come back, in order.
    let (server, alice) = tiny_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.set_nodelay(true).unwrap();

    let tx = TxRequest::signed(&alice, b"pipelined-0".to_vec(), vec![], 0);
    let mut combined = Vec::new();
    write_frame(&mut combined, &Request::Append(tx).to_wire()).unwrap();
    write_frame(&mut combined, &Request::GetAnchor.to_wire()).unwrap();
    stream.write_all(&combined).unwrap();

    let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match Response::from_wire(&body).unwrap() {
        Response::Appended { jsn, .. } => assert_eq!(jsn, 0),
        other => panic!("first pipelined response must be the append ack, got {other:?}"),
    }
    let body = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert!(
        matches!(Response::from_wire(&body).unwrap(), Response::Anchor(_)),
        "second pipelined frame was lost"
    );
    server.shutdown();
}

#[test]
fn pipelined_http_keepalive_requests_in_one_write_both_answer() {
    // Same property on the HTTP surface: two keep-alive GETs in one
    // write must yield two 200 responses on the same connection.
    let (server, _) = tiny_server();
    let http = server.http_addr().unwrap();
    let mut stream = TcpStream::connect(http).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.set_nodelay(true).unwrap();

    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /status HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();

    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    while buf.windows(12).filter(|w| w.starts_with(b"HTTP/1.1 200")).count() < 2 {
        assert!(Instant::now() < deadline, "second keep-alive response never arrived");
        match stream.read(&mut chunk) {
            Ok(0) => panic!(
                "EOF after {} bytes; second pipelined HTTP request was dropped",
                buf.len()
            ),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => panic!("read failed: {e}"),
        }
    }
    server.shutdown();
}

/// The soft `RLIMIT_NOFILE` of this process, from `/proc/self/limits`.
fn fd_soft_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// `GET path` over a fresh connection; the whole response text.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn thousands_of_simultaneous_connections_are_all_served() {
    const WANT: usize = 4096;
    const ROUNDS: usize = 3;
    const CLIENT_THREADS: usize = 8;
    // Client and server ends both live in this process: 2 fds per
    // connection, plus headroom for listeners, epoll and the test
    // harness.
    let limit = fd_soft_limit().unwrap_or(1024);
    let mut n = WANT;
    while n > 1 && (2 * n + 64) as u64 > limit {
        n /= 2;
    }
    println!("many-connection test: N = {n} (fd soft limit {limit})");

    let (shared, _) = fixture();
    let telemetry = Arc::new(Registry::new());
    let server = EventLedgerd::start(
        shared,
        EventConfig {
            server: ServerConfig {
                registry: telemetry,
                max_connections: n + 16,
                workers: 4,
                ..ServerConfig::default()
            },
            http_bind: Some("127.0.0.1:0".into()),
            // Sockets sit idle between their turns; the deadline must
            // outlive the whole test.
            idle_timeout: Duration::from_secs(300),
        },
    )
    .unwrap();
    let http = server.http_addr().unwrap();

    // Every connection is open before the first request.
    let mut sockets: Vec<TcpStream> = (0..n)
        .map(|_| {
            let stream = loop {
                match TcpStream::connect(server.local_addr()) {
                    Ok(s) => break s,
                    // Transient backlog overflow under the connect burst.
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            };
            stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
        })
        .collect();

    // Client threads serve every socket ROUNDS times; once every thread
    // has finished its first round (all N registered and served once)
    // the scrape below runs while the remaining rounds are in flight. A
    // thread that panics drops its sender, so the wait ends instead of
    // hanging and the scope re-raises the panic.
    let chunk = n.div_ceil(CLIENT_THREADS);
    let threads = n.div_ceil(chunk);
    let served = std::sync::atomic::AtomicUsize::new(0);
    let metrics = std::thread::scope(|scope| {
        let (first_round_done, first_rounds) = std::sync::mpsc::channel();
        for part in sockets.chunks_mut(chunk) {
            let (first_round_done, served) = (first_round_done.clone(), &served);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for stream in part.iter_mut() {
                        write_frame(stream, &Request::GetAnchor.to_wire()).unwrap();
                        let body = read_frame(stream, DEFAULT_MAX_FRAME).unwrap();
                        match Response::from_wire(&body).unwrap() {
                            Response::Anchor(_) => {
                                served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            other => panic!("GetAnchor answered {other:?}"),
                        }
                    }
                    if round == 0 {
                        let _ = first_round_done.send(());
                    }
                }
            });
        }
        drop(first_round_done);
        // Ends after every thread's first round, or early once a thread
        // has died and the rest have finished.
        let _ = first_rounds.iter().take(threads).count();
        http_get(http, "/metrics")
    });

    assert_eq!(served.into_inner(), n * ROUNDS, "every connection served every round");
    assert!(metrics.starts_with("HTTP/1.1 200"), "/metrics mid-storm: {:.80}", metrics);
    let peak = parse_value(&metrics, "server_loop_connections").unwrap_or(0.0);
    assert!(peak >= n as f64, "loop gauge saw {peak} sockets, expected at least {n}");
    drop(sockets);
    server.shutdown();
}
