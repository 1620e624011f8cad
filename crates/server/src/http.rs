//! The operator-facing HTTP/1.1 surface.
//!
//! A deliberately small server-side subset — `GET` only, no bodies, no
//! chunked encoding, no TLS — because its whole job is six endpoints:
//!
//! | endpoint        | payload                                          |
//! |-----------------|--------------------------------------------------|
//! | `/healthz`      | `ok` (200 while serving, 503 while draining)     |
//! | `/status`       | JSON: ledger head, checkpoint state, drain       |
//! | `/metrics`      | Prometheus text exposition from the registry     |
//! | `/proof/<jsn>`  | JSON existence proof against the current anchor  |
//! | `/trace/<id>`   | JSON span tree from the flight recorder          |
//! | `/trace/slow`   | JSON list of pinned slow/error trace roots       |
//!
//! The parser is a pure function over a byte buffer — no socket, no
//! blocking — so the epoll loop ([`crate::event_server`]) can feed it
//! incrementally: bytes accumulate until a full header is buffered (CRLF
//! CRLF), then the request is dispatched and the consumed prefix
//! dropped. Headers are capped at [`MAX_HEADER_BYTES`]; a peer that
//! trickles an endless header gets `431` and a hangup, exactly like an
//! oversized binary frame.

use crate::service::RequestService;
use ledgerdb_crypto::wire::Wire;
use std::fmt::Write as _;

/// Header cap: request line + headers must fit in 8 KiB, a bound hit
/// only by hostile or broken clients.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// One step of incremental request parsing over the accumulated buffer.
#[derive(Debug)]
pub enum HttpParse {
    /// No complete header yet — keep reading (the buffer is under the
    /// cap; over it the parser returns `Reject`).
    Incomplete,
    /// A full request: `consumed` bytes of buffer hold it entirely.
    Request { method: String, path: String, keep_alive: bool, consumed: usize },
    /// Unsalvageable input; write the response bytes and hang up.
    Reject(Vec<u8>),
}

/// Try to parse one request from the front of `buf`.
///
/// HTTP/1.1 defaults to keep-alive; `Connection: close` (or HTTP/1.0
/// without `Connection: keep-alive`) turns it off. Request bodies are
/// not supported — a `Content-Length`/`Transfer-Encoding` header is
/// rejected outright rather than desynchronizing the stream.
pub fn parse_request(buf: &[u8]) -> HttpParse {
    let Some(header_end) = find_crlf_crlf(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return HttpParse::Reject(response(
                431,
                "Request Header Fields Too Large",
                "text/plain; charset=utf-8",
                b"header exceeds 8KiB\n",
                false,
            ));
        }
        return HttpParse::Incomplete;
    };
    let header = &buf[..header_end];
    let Ok(text) = std::str::from_utf8(header) else {
        return HttpParse::Reject(bad_request("header is not utf-8"));
    };
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return HttpParse::Reject(bad_request("malformed request line"));
    };
    if parts.next().is_some() {
        return HttpParse::Reject(bad_request("malformed request line"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => {
            return HttpParse::Reject(response(
                505,
                "HTTP Version Not Supported",
                "text/plain; charset=utf-8",
                b"only HTTP/1.0 and 1.1\n",
                false,
            ))
        }
    };
    let mut keep_alive = http11;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("content-length")
            || name.eq_ignore_ascii_case("transfer-encoding")
        {
            // A body would desynchronize the next request's parse; this
            // surface is GET-only by design.
            return HttpParse::Reject(bad_request("request bodies are not supported"));
        }
    }
    HttpParse::Request {
        method: method.to_string(),
        path: path.to_string(),
        keep_alive,
        consumed: header_end + 4,
    }
}

fn find_crlf_crlf(buf: &[u8]) -> Option<usize> {
    // Bound the scan to the cap plus the terminator's own length.
    let scan = &buf[..buf.len().min(MAX_HEADER_BYTES + 4)];
    scan.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Serve one parsed request. Pure computation — the caller owns writing
/// the returned bytes back. Handlers that read ledger state may block
/// briefly on the ledger lock, which is why the event loop dispatches
/// these to its worker pool instead of answering inline.
pub fn handle(service: &RequestService, method: &str, path: &str, keep_alive: bool) -> Vec<u8> {
    if method != "GET" && method != "HEAD" {
        return response(
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            b"only GET is supported\n",
            keep_alive,
        );
    }
    let (status, reason, content_type, body) = route(service, path);
    let mut bytes = response(status, reason, content_type, body.as_bytes(), keep_alive);
    if method == "HEAD" {
        // Identical headers (incl. Content-Length), no body.
        let header_len = find_crlf_crlf(&bytes).map(|i| i + 4).unwrap_or(bytes.len());
        bytes.truncate(header_len);
    }
    bytes
}

fn route(service: &RequestService, path: &str) -> (u16, &'static str, &'static str, String) {
    // Strip a query string; none of the endpoints take parameters.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/healthz" => {
            if service.draining() {
                (503, "Service Unavailable", "text/plain; charset=utf-8", "draining\n".into())
            } else {
                (200, "OK", "text/plain; charset=utf-8", "ok\n".into())
            }
        }
        "/status" => (200, "OK", "application/json", status_json(service)),
        "/metrics" => (
            200,
            "OK",
            ledgerdb_telemetry::EXPOSITION_CONTENT_TYPE,
            ledgerdb_telemetry::render(service.registry()),
        ),
        "/trace/slow" => (200, "OK", "application/json", slow_traces_json()),
        _ => match path.strip_prefix("/proof/") {
            Some(rest) => proof_json(service, rest),
            None => match path.strip_prefix("/trace/") {
                Some(rest) => trace_json(rest),
                None => {
                    (404, "Not Found", "text/plain; charset=utf-8", "no such endpoint\n".into())
                }
            },
        },
    }
}

/// `/status`: the operator's one-glance view — ledger head, checkpoint
/// watermark, drain state. Values are claims, not proofs (like `Stats`
/// on the binary protocol): use the verifying client for trust.
fn status_json(service: &RequestService) -> String {
    let shared = &service.shared;
    let mut out = String::with_capacity(256);
    out.push('{');
    let _ = write!(
        out,
        "\"journal_count\":{},\"block_count\":{},\"journal_root\":\"{}\"",
        shared.journal_count(),
        shared.block_count(),
        shared.journal_root().to_hex(),
    );
    match shared.checkpoint_watermark() {
        Some((journals, blocks)) => {
            let snapshot_id = shared
                .checkpoint_snapshot_id()
                .map(|id| format!("\"{}\"", id.to_hex()))
                .unwrap_or_else(|| "null".into());
            let seals_since = shared
                .checkpoint_seals_since()
                .map(|n| n.to_string())
                .unwrap_or_else(|| "null".into());
            let _ = write!(
                out,
                ",\"checkpoint\":{{\"journal_count\":{journals},\"block_count\":{blocks},\
                 \"snapshot_id\":{snapshot_id},\"seals_since\":{seals_since}}}"
            );
        }
        None => out.push_str(",\"checkpoint\":null"),
    }
    let (snapshot_hits, snapshot_fallbacks) = shared.snapshot_read_counts();
    let _ = write!(
        out,
        ",\"snapshot_hits\":{snapshot_hits},\"snapshot_fallbacks\":{snapshot_fallbacks}"
    );
    let _ = write!(
        out,
        ",\"sha256_impl\":\"{}\",\"checkpoints_enabled\":{},\"draining\":{}}}",
        ledgerdb_crypto::sha256::implementation(),
        shared.checkpoints_enabled(),
        service.draining(),
    );
    out
}

/// `/trace/<id>`: the flight recorder's retained span tree for one
/// trace, id in the 16-hex form the slow-op log and `/trace/slow`
/// print. Spans carry `parent` links (`0` = root) so the tree is
/// reconstructible client-side.
fn trace_json(rest: &str) -> (u16, &'static str, &'static str, String) {
    let Ok(trace) = u64::from_str_radix(rest, 16) else {
        return (
            400,
            "Bad Request",
            "text/plain; charset=utf-8",
            "trace path takes a hex trace id\n".into(),
        );
    };
    let events = ledgerdb_telemetry::recorder::events_for(trace);
    if events.is_empty() {
        return (
            404,
            "Not Found",
            "application/json",
            format!("{{\"trace\":\"{trace:016x}\",\"spans\":[]}}"),
        );
    }
    let mut out = String::with_capacity(events.len() * 96 + 64);
    let _ = write!(out, "{{\"trace\":\"{trace:016x}\",\"spans\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"span\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            e.span,
            e.parent,
            json_string(ledgerdb_telemetry::recorder::name_of(e.name_id)),
            e.start_ns,
            e.end_ns.saturating_sub(e.start_ns),
        );
    }
    out.push_str("]}");
    (200, "OK", "application/json", out)
}

/// `/trace/slow`: pinned slow / error-terminated traces, newest first —
/// each entry's `trace` id feeds straight into `/trace/<id>`.
fn slow_traces_json() -> String {
    let pinned = ledgerdb_telemetry::recorder::slow_traces();
    let mut out = String::with_capacity(pinned.len() * 96 + 32);
    out.push_str("{\"slow\":[");
    for (i, p) in pinned.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"trace\":\"{:016x}\",\"root\":{},\"dur_ns\":{},\"error\":{},\"spans\":{}}}",
            p.trace,
            json_string(ledgerdb_telemetry::recorder::name_of(p.root_name_id)),
            p.dur_ns,
            p.error,
            p.events.len(),
        );
    }
    out.push_str("]}");
    out
}

/// `/proof/<jsn>`: an existence proof against the server's **current**
/// anchor, hex-encoded wire bytes. Convenience for operators and
/// curl-based smoke checks; a distrusting client uses the binary
/// protocol with its *own* anchor.
fn proof_json(service: &RequestService, rest: &str) -> (u16, &'static str, &'static str, String) {
    let Ok(jsn) = rest.parse::<u64>() else {
        return (
            400,
            "Bad Request",
            "text/plain; charset=utf-8",
            "proof path takes a decimal jsn\n".into(),
        );
    };
    let anchor = service.shared.anchor();
    match service.shared.prove_existence(jsn, &anchor) {
        Ok((tx_hash, proof)) => {
            let proof_hex = hex(&proof.to_wire());
            let anchor_hex = hex(&anchor.to_wire());
            (
                200,
                "OK",
                "application/json",
                format!(
                    "{{\"jsn\":{jsn},\"tx_hash\":\"{}\",\"proof\":\"{proof_hex}\",\"anchor\":\"{anchor_hex}\"}}",
                    tx_hash.to_hex(),
                ),
            )
        }
        Err(e) => (
            404,
            "Not Found",
            "application/json",
            format!("{{\"jsn\":{jsn},\"error\":{}}}", json_string(&e.to_string())),
        ),
    }
}

/// The `503` written to an over-cap HTTP connection before close — the
/// operator-plane twin of the binary `Busy` frame.
pub fn busy_response() -> Vec<u8> {
    let mut bytes = response(
        503,
        "Service Unavailable",
        "text/plain; charset=utf-8",
        b"connection limit reached; retry with backoff\n",
        false,
    );
    // Nudge well-behaved clients toward the same backoff discipline as
    // the binary protocol's Busy frame.
    let insert = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or(0);
    bytes.splice(insert..insert, b"\r\nRetry-After: 1".iter().copied());
    bytes
}

/// A `400` that also hangs up — every caller treats the input as
/// unsalvageable, so keep-alive is off unconditionally.
fn bad_request(detail: &str) -> Vec<u8> {
    response(
        400,
        "Bad Request",
        "text/plain; charset=utf-8",
        format!("{detail}\n").as_bytes(),
        false,
    )
}

/// Serialize one HTTP/1.1 response.
pub fn response(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = Vec::with_capacity(128 + body.len());
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body);
    out
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::testutil::shared;
    use ledgerdb_core::TxRequest;
    use ledgerdb_telemetry::Registry;
    use std::sync::Arc;

    fn service() -> (RequestService, ledgerdb_crypto::keys::KeyPair) {
        let (shared, alice) = shared(4);
        let config =
            ServerConfig { registry: Arc::new(Registry::new()), ..ServerConfig::default() };
        (RequestService::start(shared, &config), alice)
    }

    fn parse_ok(buf: &[u8]) -> (String, String, bool, usize) {
        match parse_request(buf) {
            HttpParse::Request { method, path, keep_alive, consumed } => {
                (method, path, keep_alive, consumed)
            }
            other => panic!("expected a parsed request, got {other:?}"),
        }
    }

    #[test]
    fn parses_incrementally_like_the_event_loop_feeds_it() {
        let full = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        for cut in 0..full.len() {
            match parse_request(&full[..cut]) {
                HttpParse::Incomplete => {}
                other => panic!("prefix of {cut} bytes parsed to {other:?}"),
            }
        }
        let (method, path, keep_alive, consumed) = parse_ok(full);
        assert_eq!((method.as_str(), path.as_str()), ("GET", "/healthz"));
        assert!(keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(consumed, full.len());
    }

    #[test]
    fn connection_and_version_semantics() {
        let (.., keep_alive, _) =
            parse_ok(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!keep_alive);
        let (.., keep_alive, _) = parse_ok(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!keep_alive, "HTTP/1.0 defaults to close");
        let (.., keep_alive, _) =
            parse_ok(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(keep_alive);
        assert!(matches!(parse_request(b"GET / HTTP/2\r\n\r\n"), HttpParse::Reject(b) if
            String::from_utf8_lossy(&b).starts_with("HTTP/1.1 505")));
    }

    #[test]
    fn hostile_headers_are_rejected_typed() {
        // Endless header trickle: over the cap without a terminator.
        let mut creep = b"GET / HTTP/1.1\r\n".to_vec();
        creep.extend(std::iter::repeat(b'a').take(MAX_HEADER_BYTES + 1));
        assert!(matches!(parse_request(&creep), HttpParse::Reject(b) if
            String::from_utf8_lossy(&b).starts_with("HTTP/1.1 431")));
        // Garbage request line.
        assert!(matches!(parse_request(b"\r\n\r\n"), HttpParse::Reject(_)));
        // A request body would desync the keep-alive stream.
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: 4\r\n\r\nBODY"),
            HttpParse::Reject(_)
        ));
    }

    #[test]
    fn endpoints_answer() {
        let (service, alice) = service();
        for i in 0..6u64 {
            let Ok(_) = service
                .shared
                .append(TxRequest::signed(&alice, format!("h-{i}").into_bytes(), vec![], i))
            else {
                panic!("fixture append failed")
            };
        }
        let text = |bytes: Vec<u8>| String::from_utf8(bytes).unwrap();

        let health = text(handle(&service, "GET", "/healthz", true));
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");
        assert!(health.contains("Connection: keep-alive"), "{health}");

        let status = text(handle(&service, "GET", "/status", true));
        assert!(status.contains("\"journal_count\":6"), "{status}");
        assert!(status.contains("\"checkpoint\":null"), "{status}");
        assert!(status.contains("\"draining\":false"), "{status}");
        let kernel = ledgerdb_crypto::sha256::implementation();
        assert!(status.contains(&format!("\"sha256_impl\":\"{kernel}\"")), "{status}");
        let metrics = text(handle(&service, "GET", "/metrics", true));
        assert!(metrics.contains(&format!("ledger_sha256_impl{{impl=\"{kernel}\"}} 1")), "{metrics}");
        assert!(status.contains("Content-Type: application/json"), "{status}");

        let metrics = text(handle(&service, "GET", "/metrics", true));
        assert!(metrics.contains("# TYPE ledger_conn_rejected_total counter"), "{metrics}");
        assert!(metrics.contains(ledgerdb_telemetry::EXPOSITION_CONTENT_TYPE), "{metrics}");

        // A sealed jsn proves; block size 4 → jsns 0..4 are sealed.
        let proof = text(handle(&service, "GET", "/proof/1", true));
        assert!(proof.starts_with("HTTP/1.1 200"), "{proof}");
        assert!(proof.contains("\"tx_hash\":\""), "{proof}");
        let missing = text(handle(&service, "GET", "/proof/999", true));
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let garbage = text(handle(&service, "GET", "/proof/xyz", true));
        assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");

        let lost = text(handle(&service, "GET", "/nope", true));
        assert!(lost.starts_with("HTTP/1.1 404"), "{lost}");
        let put = text(handle(&service, "PUT", "/healthz", true));
        assert!(put.starts_with("HTTP/1.1 405"), "{put}");

        // HEAD: headers only, same Content-Length.
        let head = text(handle(&service, "HEAD", "/healthz", true));
        assert!(head.contains("Content-Length: 3"), "{head}");
        assert!(head.ends_with("\r\n\r\n"), "{head}");
    }

    #[test]
    fn drain_flips_healthz_and_status() {
        let (service, _) = service();
        let first = service.begin_drain();
        let health = String::from_utf8(handle(&service, "GET", "/healthz", true)).unwrap();
        assert!(health.starts_with("HTTP/1.1 503"), "{health}");
        let status = String::from_utf8(handle(&service, "GET", "/status", true)).unwrap();
        assert!(status.contains("\"draining\":true"), "{status}");
        service.finish_drain(first);
    }

    #[test]
    fn busy_response_is_a_close_with_retry_after() {
        let busy = String::from_utf8(busy_response()).unwrap();
        assert!(busy.starts_with("HTTP/1.1 503"), "{busy}");
        assert!(busy.contains("Retry-After: 1"), "{busy}");
        assert!(busy.contains("Connection: close"), "{busy}");
    }
}
