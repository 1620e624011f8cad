//! Cached telemetry handles for the service layer.
//!
//! One [`ServerMetrics`] per running [`crate::Ledgerd`] and one
//! [`BatchMetrics`] per [`crate::GroupCommitter`], both resolved at
//! startup against the registry in [`crate::ServerConfig::registry`].
//! Request-path recording is a handful of relaxed atomic ops; nothing
//! here takes a lock after startup.

use crate::protocol::Request;
use ledgerdb_telemetry::{Counter, Gauge, Histogram, Registry, Unit};
use std::sync::Arc;

/// Wire-request kinds, in tag order. Indexed by [`kind_index`]. These
/// double as the root stage names in the tracing span tree.
pub const REQUEST_KINDS: [&str; 19] = [
    "hello",
    "append",
    "append_committed",
    "get_tx",
    "list_tx",
    "get_proof",
    "get_clue_proof",
    "verify",
    "get_anchor",
    "get_block_feed",
    "stats",
    "append_batch",
    "get_proof_batch",
    "get_trace",
    "get_topology",
    "get_shard_block_feed",
    "get_epoch_anchors",
    "get_composed_proof",
    "get_state_proof",
];

/// Position of a request's kind in [`REQUEST_KINDS`].
pub fn kind_index(request: &Request) -> usize {
    match request {
        Request::Hello => 0,
        Request::Append(_) => 1,
        Request::AppendCommitted(_) => 2,
        Request::GetTx(_) => 3,
        Request::ListTx(_) => 4,
        Request::GetProof { .. } => 5,
        Request::GetClueProof(_) => 6,
        Request::Verify { .. } => 7,
        Request::GetAnchor => 8,
        Request::GetBlockFeed { .. } => 9,
        Request::Stats => 10,
        Request::AppendBatch(_) => 11,
        Request::GetProofBatch { .. } => 12,
        Request::GetTrace(_) => 13,
        Request::GetTopology => 14,
        Request::GetShardBlockFeed { .. } => 15,
        Request::GetEpochAnchors { .. } => 16,
        Request::GetComposedProof { .. } => 17,
        Request::GetStateProof(_) => 18,
    }
}

/// Count + latency for one request kind
/// (`server_req_<kind>_total` / `server_req_<kind>_seconds`).
#[derive(Debug, Clone)]
pub struct RequestMetrics {
    pub count: Arc<Counter>,
    pub seconds: Arc<Histogram>,
}

#[derive(Debug, Clone)]
pub struct ServerMetrics {
    /// `server_connections_active` — sockets currently being served.
    pub connections_active: Arc<Gauge>,
    /// `server_connections_total` — sockets ever accepted.
    pub connections_total: Arc<Counter>,
    /// `server_connections_refused_total` — refused over the cap.
    pub connections_refused: Arc<Counter>,
    /// `ledger_conn_rejected_total` — connections answered with a typed
    /// `Busy` frame (binary) or `503` (HTTP) and then closed. Kept
    /// distinct from `server_connections_refused_total` (which predates
    /// it) so operators can alert on the paper-facing name.
    pub conn_rejected: Arc<Counter>,
    /// `server_bytes_in_total` / `server_bytes_out_total` — whole
    /// frames including the 5-byte header.
    pub bytes_in: Arc<Counter>,
    pub bytes_out: Arc<Counter>,
    /// `server_error_frames_total` — typed error responses written.
    pub error_frames: Arc<Counter>,
    /// `server_admission_verify_total` / `server_admission_proxy_total`
    /// — appends admitted under each [`crate::Admission`] mode.
    pub admission_verify: Arc<Counter>,
    pub admission_proxy: Arc<Counter>,
    /// `ledger_verifies_total` / `ledger_verify_seconds` — `Verify`
    /// requests answered from the ledger's own tx-hashes (§II-C's
    /// server manner).
    pub verifies: Arc<Counter>,
    pub verify_seconds: Arc<Histogram>,
    /// Per-kind counters/latency, indexed by [`kind_index`].
    pub requests: Vec<RequestMetrics>,
}

impl ServerMetrics {
    pub fn bind(registry: &Registry) -> Self {
        let requests = REQUEST_KINDS
            .iter()
            .map(|kind| RequestMetrics {
                count: registry.counter(&format!("server_req_{kind}_total")),
                seconds: registry.histogram(&format!("server_req_{kind}_seconds"), Unit::Seconds),
            })
            .collect();
        ServerMetrics {
            connections_active: registry.gauge("server_connections_active"),
            connections_total: registry.counter("server_connections_total"),
            connections_refused: registry.counter("server_connections_refused_total"),
            conn_rejected: registry.counter("ledger_conn_rejected_total"),
            bytes_in: registry.counter("server_bytes_in_total"),
            bytes_out: registry.counter("server_bytes_out_total"),
            error_frames: registry.counter("server_error_frames_total"),
            admission_verify: registry.counter("server_admission_verify_total"),
            admission_proxy: registry.counter("server_admission_proxy_total"),
            verifies: registry.counter("ledger_verifies_total"),
            verify_seconds: registry.histogram("ledger_verify_seconds", Unit::Seconds),
            requests,
        }
    }

    /// Handles for one decoded request.
    pub fn request(&self, request: &Request) -> &RequestMetrics {
        &self.requests[kind_index(request)]
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::bind(Registry::global())
    }
}

/// Event-loop telemetry (one per [`crate::event_server::EventLedgerd`]).
#[derive(Debug, Clone)]
pub struct LoopMetrics {
    /// `server_loop_iterations_total` — epoll wait/process cycles.
    pub iterations: Arc<Counter>,
    /// `server_loop_events` — readiness events delivered per wakeup.
    pub events_per_wake: Arc<Histogram>,
    /// `server_loop_wait_seconds` — time parked in `epoll_wait`.
    pub wait_seconds: Arc<Histogram>,
    /// `server_loop_process_seconds` — time handling one wakeup's
    /// events (readiness latency: how long a ready socket can sit
    /// behind its siblings before the loop touches it).
    pub process_seconds: Arc<Histogram>,
    /// `server_loop_connections` — sockets currently registered with
    /// the poller (both protocols, listeners excluded).
    pub connections: Arc<Gauge>,
    /// `server_http_requests_total` — HTTP requests served.
    pub http_requests: Arc<Counter>,
}

impl LoopMetrics {
    pub fn bind(registry: &Registry) -> Self {
        LoopMetrics {
            iterations: registry.counter("server_loop_iterations_total"),
            events_per_wake: registry.histogram("server_loop_events", Unit::Count),
            wait_seconds: registry.histogram("server_loop_wait_seconds", Unit::Seconds),
            process_seconds: registry.histogram("server_loop_process_seconds", Unit::Seconds),
            connections: registry.gauge("server_loop_connections"),
            http_requests: registry.counter("server_http_requests_total"),
        }
    }
}

/// Group-commit telemetry (one per committer thread).
#[derive(Debug, Clone)]
pub struct BatchMetrics {
    /// `batch_queue_depth` — jobs submitted but not yet committed.
    pub queue_depth: Arc<Gauge>,
    /// `batch_queue_wait_seconds` — submit-to-commit-start wait.
    pub queue_wait_seconds: Arc<Histogram>,
    /// `batch_size` — jobs per commit window.
    pub batch_size: Arc<Histogram>,
    /// `batch_windows_total` — commit windows executed.
    pub windows: Arc<Counter>,
    /// `batch_commit_seconds` — whole-window commit latency (fsyncs,
    /// sealing, replies).
    pub commit_seconds: Arc<Histogram>,
}

impl BatchMetrics {
    pub fn bind(registry: &Registry) -> Self {
        BatchMetrics {
            queue_depth: registry.gauge("batch_queue_depth"),
            queue_wait_seconds: registry.histogram("batch_queue_wait_seconds", Unit::Seconds),
            batch_size: registry.histogram("batch_size", Unit::Count),
            windows: registry.counter("batch_windows_total"),
            commit_seconds: registry.histogram("batch_commit_seconds", Unit::Seconds),
        }
    }
}

impl Default for BatchMetrics {
    fn default() -> Self {
        Self::bind(Registry::global())
    }
}
