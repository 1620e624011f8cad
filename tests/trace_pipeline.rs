//! End-to-end tracing pipeline tests: a traced request must leave a
//! complete, correctly-ordered span tree in the flight recorder, the
//! tree must be retrievable and exportable, the per-stage spans must
//! agree with the independent `ledger_seal_*` histograms, and a
//! forced-slow request must pin a trace resolvable by the id the
//! slow-op log line carries.
//!
//! The recorder is process-global (per-thread rings + one pinned
//! buffer), so these tests key every lookup by their own trace ids and
//! never assert global emptiness.

use ledgerdb::core::recovery::open_durable_with;
use ledgerdb::core::{LedgerConfig, MemberRegistry, SharedLedger, TxRequest};
use ledgerdb::crypto::ca::{CertificateAuthority, Role};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::server::protocol::{Request, Response};
use ledgerdb::server::service::RequestService;
use ledgerdb::server::ServerConfig;
use ledgerdb::telemetry::recorder;
use ledgerdb::telemetry::{Registry, Unit};
use ledgerdb::timesvc::clock::SimClock;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ledgerdb-tracetest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A durable service with group commit — the configuration where every
/// traced stage is live.
fn durable_service(tag: &str) -> (RequestService, KeyPair, Arc<Registry>, PathBuf) {
    let ca = CertificateAuthority::from_seed(format!("trace-{tag}").as_bytes());
    let alice = KeyPair::from_seed(format!("trace-{tag}-alice").as_bytes());
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry.register(ca.issue("alice", Role::User, alice.public())).unwrap();
    let telemetry = Arc::new(Registry::new());
    let dir = temp_dir(tag);
    let (ledger, _) = open_durable_with(
        LedgerConfig { block_size: 4, fam_delta: 15, name: format!("trace-{tag}"), state_backend: Default::default() },
        registry,
        &dir,
        ledgerdb::storage::FsyncPolicy::Never,
        Arc::new(SimClock::new()),
        &telemetry,
    )
    .unwrap();
    let config = ServerConfig { registry: telemetry.clone(), ..ServerConfig::default() };
    let service = RequestService::start(SharedLedger::new(ledger), &config);
    (service, alice, telemetry, dir)
}

fn tx(alice: &KeyPair, nonce: u64) -> TxRequest {
    TxRequest::signed(alice, format!("tp-{nonce}").into_bytes(), vec!["tp".into()], nonce)
}

fn starts(spans: &[recorder::SpanEvent], name: &str) -> Vec<u64> {
    let id = spans
        .iter()
        .map(|s| s.name_id)
        .find(|&n| recorder::name_of(n) == name);
    match id {
        Some(id) => spans.iter().filter(|s| s.name_id == id).map(|s| s.start_ns).collect(),
        None => Vec::new(),
    }
}

#[test]
fn traced_commit_covers_every_stage_in_order() {
    let (service, alice, _telemetry, dir) = durable_service("stages");

    // AppendCommitted through the group committer: queue wait, window
    // commit, seal, and the seal's durability barrier all before the
    // receipt.
    let trace_id = 0xABCD_0123_4567_89EFu64;
    let response = service.handle_traced(Request::AppendCommitted(tx(&alice, 0)), Some(trace_id));
    assert!(matches!(response, Response::Committed(_)), "got {response:?}");

    let spans = recorder::events_for(trace_id);
    for stage in [
        "append_committed",
        "batch_queue_wait",
        "locked_insert",
        "wal_write",
        "fsync_barrier",
        "seal",
        "seal_fam",
        "seal_clue",
        "seal_state",
        "fsync",
    ] {
        assert!(
            !starts(&spans, stage).is_empty(),
            "stage {stage} missing from trace; have: {:?}",
            spans.iter().map(|s| recorder::name_of(s.name_id)).collect::<Vec<_>>(),
        );
    }
    // Commit-order skeleton: queue wait starts before the locked
    // window, the window before the seal, the seal before its (final)
    // fsync barrier.
    let queue = *starts(&spans, "batch_queue_wait").iter().min().unwrap();
    let lock = *starts(&spans, "locked_insert").iter().min().unwrap();
    let seal = *starts(&spans, "seal").iter().min().unwrap();
    let fsync = *starts(&spans, "fsync_barrier").iter().max().unwrap();
    assert!(
        queue <= lock && lock <= seal && seal <= fsync,
        "stage ordering violated: queue={queue} lock={lock} seal={seal} fsync={fsync}"
    );
    // Every non-root span parents into the tree (its parent exists).
    let root = spans.iter().find(|s| s.parent == 0).expect("root span");
    assert_eq!(recorder::name_of(root.name_id), "append_committed");
    for s in &spans {
        assert!(
            s.parent == 0 || spans.iter().any(|p| p.span == s.parent),
            "span {} ({}) has a dangling parent {}",
            s.span,
            recorder::name_of(s.name_id),
            s.parent,
        );
    }

    // The same tree is servable over the request plane, untraced.
    match service.handle(Request::GetTrace(trace_id)) {
        Response::Trace(wire_spans) => {
            assert_eq!(wire_spans.len(), spans.len());
            assert!(wire_spans.iter().any(|s| s.name == "seal_fam"));
        }
        other => panic!("expected Trace, got {other:?}"),
    }

    // And the recorder's full retained set renders as Chrome-trace JSON
    // that names this trace.
    let json = recorder::chrome_trace_json(&recorder::all_events());
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(
        json.contains(&format!("{trace_id:016x}")),
        "Chrome-trace dump does not mention the trace id"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seal_leg_spans_agree_with_seal_metrics() {
    let (service, alice, telemetry, dir) = durable_service("seallegs");

    // Several sealed commits; collect every seal-leg span duration.
    let mut leg_ns = [0u64; 3]; // fam, clue, state
    let legs = ["seal_fam", "seal_clue", "seal_state"];
    let mut sealed = 0u64;
    for nonce in 0..6u64 {
        let trace_id = 0x5EA1_0000_0000_0000 + nonce + 1;
        let response =
            service.handle_traced(Request::AppendCommitted(tx(&alice, nonce)), Some(trace_id));
        assert!(matches!(response, Response::Committed(_)), "got {response:?}");
        sealed += 1;
        let spans = recorder::events_for(trace_id);
        for (slot, leg) in legs.iter().enumerate() {
            let id = spans
                .iter()
                .map(|s| s.name_id)
                .find(|&n| recorder::name_of(n) == *leg)
                .unwrap_or_else(|| panic!("{leg} missing from trace {trace_id:016x}"));
            leg_ns[slot] += spans
                .iter()
                .filter(|s| s.name_id == id)
                .map(|s| s.end_ns.saturating_sub(s.start_ns))
                .sum::<u64>();
        }

        // One write path: the seal hashes its three roots on the thread
        // that holds the write lock (the committer's), never on another.
        let events = recorder::all_events();
        let tids = |name: &str| -> Vec<u32> {
            events
                .iter()
                .filter(|e| e.event.trace == trace_id && recorder::name_of(e.event.name_id) == name)
                .map(|e| e.tid)
                .collect()
        };
        let holder = tids("locked_insert");
        assert!(!holder.is_empty(), "locked_insert missing from trace {trace_id:016x}");
        for leg in legs {
            let leg_tids = tids(leg);
            assert!(
                !leg_tids.is_empty() && leg_tids.iter().all(|tid| holder.contains(tid)),
                "{leg} ran on recorder threads {leg_tids:?}, the lock holder on {holder:?}"
            );
        }
    }
    assert_eq!(telemetry.counter("ledger_seals_total").get(), sealed);

    // The `ledger_seal_*_seconds` histograms time the same work from
    // the metrics side. Counts must match the seal count exactly and
    // the summed durations must agree within a loose factor (both
    // clocks are monotonic reads around the same call, but the span
    // brackets sit slightly wider than the histogram's).
    for (slot, metric) in [
        "ledger_seal_fam_seconds",
        "ledger_seal_clue_seconds",
        "ledger_seal_state_seconds",
    ]
    .iter()
    .enumerate()
    {
        let snap = telemetry.histogram(metric, Unit::Seconds).snapshot();
        assert_eq!(snap.count, sealed, "{metric} count != seals");
        let hist_ns = snap.sum.max(1);
        let span_ns = leg_ns[slot].max(1);
        let ratio = span_ns as f64 / hist_ns as f64;
        assert!(
            (0.2..=5.0).contains(&ratio),
            "{metric}: span-side {span_ns}ns vs histogram {hist_ns}ns (ratio {ratio:.2})"
        );
        assert!(
            span_ns >= hist_ns,
            "{metric}: the span brackets the timed region, so it cannot be shorter \
             (span {span_ns}ns < histogram {hist_ns}ns)"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forced_slow_append_pins_a_trace_resolvable_by_its_logged_id() {
    let (service, alice, _telemetry, dir) = durable_service("slow");

    // Zero threshold: every operation is "slow", so the append's root
    // span pins its trace and the slow-op log line fires for every
    // instrumented span along the way.
    ledgerdb::telemetry::set_slow_op_threshold(Some(std::time::Duration::from_nanos(1)));
    let trace_id = 0xF10A_7000_0000_0001u64;
    let response = service.handle_traced(Request::Append(tx(&alice, 0)), Some(trace_id));
    ledgerdb::telemetry::set_slow_op_threshold(None);
    assert!(matches!(response, Response::Appended { .. }), "got {response:?}");

    // Pinned: the trace shows up in the slow list with its root named.
    let pinned = recorder::slow_traces();
    let entry = pinned
        .iter()
        .find(|p| p.trace == trace_id)
        .expect("forced-slow append must pin its trace");
    assert_eq!(recorder::name_of(entry.root_name_id), "append");
    assert!(!entry.error, "a successful append is slow, not errored");

    // The id as the slow-op log line prints it (16 hex digits) parses
    // back and resolves to the full tree — the operator's round trip
    // from log line to `/trace/<id>`.
    let logged = format!("{:016x}", entry.trace);
    let parsed = u64::from_str_radix(&logged, 16).unwrap();
    let spans = recorder::events_for(parsed);
    assert!(!spans.is_empty(), "logged id did not resolve");
    assert!(spans.iter().any(|s| recorder::name_of(s.name_id) == "batch_queue_wait"));
    std::fs::remove_dir_all(&dir).ok();
}
