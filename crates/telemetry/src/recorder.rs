//! The flight recorder: always-on, bounded-memory span storage.
//!
//! Every [`SpanEvent`] lands in a per-thread ring buffer owned by the
//! recording thread — recording is a handful of atomic stores into
//! slots only that thread writes, so the hot path takes no lock and
//! never allocates after the thread's first event. Readers (the
//! `/trace/<id>` endpoints, the Chrome-trace dumper) scan the rings
//! with a seqlock protocol: each slot carries a version counter the
//! writer bumps to odd before rewriting and even after, and a reader
//! that observes an odd or changed version discards the slot. All slot
//! accesses are atomics, so a torn read is *detected*, never undefined.
//!
//! A ring holds [`RING_CAPACITY`] events; old events are overwritten.
//! That alone would lose exactly the traces worth keeping (a slow
//! request's spans age out while it is still interesting), so when a
//! root span ends slow (≥ the [`crate::slow_op_threshold_ns`] used by
//! slow-op logging) or with an error response, [`finish_root`]
//! *tail-captures* the whole trace into a pinned buffer of the last
//! [`PINNED_TRACES`] interesting traces. `events_for` consults both,
//! so `/trace/<id>` keeps answering for slow/error traces long after
//! the rings have wrapped.
//!
//! Stage names are `&'static str` interned to small ids so a slot is
//! seven words of atomics and carries no pointers.
//!
//! A ring outlives its thread: when a recording thread exits, its ring
//! (events intact) goes to an idle list and the next new thread to
//! record takes it over. So the ring count is bounded by the peak
//! number of threads recording at once, however many short-lived
//! threads (a batch's fan-out helpers) come and go.

use crate::trace::{now_ns, TraceContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events retained per ring before overwrite (~112 KiB).
pub const RING_CAPACITY: usize = 2048;

/// Slow or error-terminated traces retained in full after their rings
/// wrap.
pub const PINNED_TRACES: usize = 64;

/// One completed span. `name_id` indexes the interned name table
/// ([`name_of`]); timestamps are [`now_ns`] nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    pub trace: u64,
    pub span: u64,
    pub parent: u64,
    pub name_id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span event plus the id of the ring that holds it (the Chrome-trace
/// `tid`). A ring serves one live thread at a time, so events of
/// concurrently running threads never share a tid.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedEvent {
    pub tid: u32,
    pub event: SpanEvent,
}

// ---------------------------------------------------------------------
// Stage-name interning
// ---------------------------------------------------------------------

fn names() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Intern a stage name; stable for the process lifetime. The table is
/// tiny (one entry per distinct stage), so a linear probe suffices.
pub fn name_id(name: &'static str) -> u32 {
    let mut table = names().lock().unwrap_or_else(|e| e.into_inner());
    for (i, n) in table.iter().enumerate() {
        // Pointer equality catches the common case (same literal) before
        // falling back to a content compare across codegen units.
        if std::ptr::eq(n.as_ptr(), name.as_ptr()) || *n == name {
            return i as u32;
        }
    }
    table.push(name);
    (table.len() - 1) as u32
}

/// The interned name for `id` (empty string for an unknown id).
pub fn name_of(id: u32) -> &'static str {
    let table = names().lock().unwrap_or_else(|e| e.into_inner());
    table.get(id as usize).copied().unwrap_or("")
}

// ---------------------------------------------------------------------
// Per-thread seqlock rings
// ---------------------------------------------------------------------

/// Seven atomics: a version word plus the six event fields. The owning
/// thread is the only writer; version parity marks in-progress writes.
struct Slot {
    version: AtomicU64,
    trace: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
    name_id: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

impl Slot {
    const fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            span: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            name_id: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
        }
    }

    /// Writer side (owning thread only).
    fn write(&self, e: &SpanEvent) {
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v + 1, Ordering::Release); // odd: in progress
        self.trace.store(e.trace, Ordering::Release);
        self.span.store(e.span, Ordering::Release);
        self.parent.store(e.parent, Ordering::Release);
        self.name_id.store(e.name_id as u64, Ordering::Release);
        self.start_ns.store(e.start_ns, Ordering::Release);
        self.end_ns.store(e.end_ns, Ordering::Release);
        self.version.store(v + 2, Ordering::Release); // even: published
    }

    /// Reader side: `None` when the slot is empty, mid-write, or was
    /// rewritten underneath us (version changed across the copy).
    fn read(&self) -> Option<SpanEvent> {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 == 0 || v1 % 2 == 1 {
            return None;
        }
        let event = SpanEvent {
            trace: self.trace.load(Ordering::Acquire),
            span: self.span.load(Ordering::Acquire),
            parent: self.parent.load(Ordering::Acquire),
            name_id: self.name_id.load(Ordering::Acquire) as u32,
            start_ns: self.start_ns.load(Ordering::Acquire),
            end_ns: self.end_ns.load(Ordering::Acquire),
        };
        if self.version.load(Ordering::Acquire) == v1 {
            Some(event)
        } else {
            None
        }
    }
}

struct ThreadRing {
    tid: u32,
    /// Total events ever written; the write cursor is `head % CAPACITY`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl ThreadRing {
    fn new(tid: u32) -> ThreadRing {
        ThreadRing {
            tid,
            head: AtomicU64::new(0),
            slots: (0..RING_CAPACITY).map(|_| Slot::empty()).collect(),
        }
    }

    fn push(&self, e: &SpanEvent) {
        let h = self.head.load(Ordering::Relaxed);
        self.slots[(h % RING_CAPACITY as u64) as usize].write(e);
        self.head.store(h + 1, Ordering::Release);
    }

    fn scan(&self, mut f: impl FnMut(ThreadedEvent)) {
        let filled = self.head.load(Ordering::Acquire).min(RING_CAPACITY as u64) as usize;
        for slot in &self.slots[..filled] {
            if let Some(event) = slot.read() {
                f(ThreadedEvent { tid: self.tid, event });
            }
        }
    }
}

/// A pinned (tail-captured) slow or error-terminated trace.
#[derive(Debug, Clone)]
pub struct PinnedTrace {
    pub trace: u64,
    pub root_name_id: u32,
    pub dur_ns: u64,
    pub error: bool,
    pub events: Vec<SpanEvent>,
}

struct Recorder {
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    /// Rings whose thread has exited, handed to the next new thread.
    idle: Mutex<Vec<Arc<ThreadRing>>>,
    pinned: Mutex<std::collections::VecDeque<PinnedTrace>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        rings: Mutex::new(Vec::new()),
        idle: Mutex::new(Vec::new()),
        pinned: Mutex::new(std::collections::VecDeque::new()),
    })
}

/// A thread's hold on its ring; returns the ring to the idle list when
/// the thread exits. The idle list's mutex orders the old thread's last
/// write before the next owner's first, so each ring keeps one writer.
struct RingLease(Arc<ThreadRing>);

impl Drop for RingLease {
    fn drop(&mut self) {
        let mut idle = recorder().idle.lock().unwrap_or_else(|e| e.into_inner());
        idle.push(self.0.clone());
    }
}

thread_local! {
    static MY_RING: OnceLock<RingLease> = const { OnceLock::new() };
}

fn with_ring(f: impl FnOnce(&ThreadRing)) {
    MY_RING.with(|cell| {
        let lease = cell.get_or_init(|| {
            let global = recorder();
            let reused = global.idle.lock().unwrap_or_else(|e| e.into_inner()).pop();
            RingLease(reused.unwrap_or_else(|| {
                let mut rings = global.rings.lock().unwrap_or_else(|e| e.into_inner());
                let ring = Arc::new(ThreadRing::new(rings.len() as u32 + 1));
                rings.push(ring.clone());
                ring
            }))
        });
        f(&lease.0);
    });
}

/// Record one completed span into this thread's ring.
pub fn record(event: SpanEvent) {
    with_ring(|ring| ring.push(&event));
}

/// Finish a request's root span: records the root event (parent 0) and
/// tail-captures the whole trace into the pinned buffer when the
/// request was slow (≥ the slow-op threshold, when one is set) or
/// ended in an error response. Returns the root duration in ns.
pub fn finish_root(ctx: TraceContext, name: &'static str, start_ns: u64, error: bool) -> u64 {
    let end_ns = now_ns();
    let dur_ns = end_ns.saturating_sub(start_ns);
    let root_name = name_id(name);
    record(SpanEvent {
        trace: ctx.trace.0,
        span: ctx.span,
        parent: 0,
        name_id: root_name,
        start_ns,
        end_ns,
    });
    let threshold = crate::slow_op_threshold_ns();
    if error || (threshold > 0 && dur_ns >= threshold) {
        pin_trace(ctx.trace.0, root_name, dur_ns, error);
    }
    dur_ns
}

fn pin_trace(trace: u64, root_name_id: u32, dur_ns: u64, error: bool) {
    let events = scan_trace(trace);
    let mut pinned = recorder().pinned.lock().unwrap_or_else(|e| e.into_inner());
    pinned.retain(|p| p.trace != trace);
    pinned.push_back(PinnedTrace { trace, root_name_id, dur_ns, error, events });
    while pinned.len() > PINNED_TRACES {
        pinned.pop_front();
    }
}

/// Scan the live rings for a trace's events (no pinned consultation).
fn scan_trace(trace: u64) -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for_each_ring_event(|te| {
        if te.event.trace == trace {
            out.push(te.event);
        }
    });
    out.sort_by_key(|e| (e.start_ns, e.span));
    out.dedup_by_key(|e| e.span);
    out
}

fn for_each_ring_event(mut f: impl FnMut(ThreadedEvent)) {
    // Clone the ring handles out so the scan itself holds no lock.
    let rings: Vec<Arc<ThreadRing>> = {
        let rings = recorder().rings.lock().unwrap_or_else(|e| e.into_inner());
        rings.clone()
    };
    for ring in rings {
        ring.scan(&mut f);
    }
}

/// Every event currently retained for `trace`: pinned capture merged
/// with whatever still lives in the rings, deduped by span id and
/// ordered by start time. Empty when the trace is unknown (or fully
/// aged out of an unpinned ring).
pub fn events_for(trace: u64) -> Vec<SpanEvent> {
    let mut out: Vec<SpanEvent> = {
        let pinned = recorder().pinned.lock().unwrap_or_else(|e| e.into_inner());
        pinned
            .iter()
            .find(|p| p.trace == trace)
            .map(|p| p.events.clone())
            .unwrap_or_default()
    };
    out.extend(scan_trace(trace));
    out.sort_by_key(|e| (e.span, std::cmp::Reverse(e.end_ns)));
    out.dedup_by_key(|e| e.span);
    out.sort_by_key(|e| (e.start_ns, e.span));
    out
}

/// Summaries of the pinned (slow / error) traces, newest first.
pub fn slow_traces() -> Vec<PinnedTrace> {
    let pinned = recorder().pinned.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<PinnedTrace> = pinned.iter().cloned().collect();
    out.reverse();
    out
}

/// Every event the recorder currently retains (rings + pinned traces,
/// deduped by span id), with thread attribution. The Chrome-trace dump
/// feeds from this.
pub fn all_events() -> Vec<ThreadedEvent> {
    let mut out: Vec<ThreadedEvent> = Vec::new();
    for_each_ring_event(|te| out.push(te));
    {
        let pinned = recorder().pinned.lock().unwrap_or_else(|e| e.into_inner());
        for p in pinned.iter() {
            for event in &p.events {
                out.push(ThreadedEvent { tid: 0, event: *event });
            }
        }
    }
    // Ring copies (with a real tid) outrank tid-0 pinned copies.
    out.sort_by_key(|te| (te.event.span, std::cmp::Reverse(te.tid)));
    out.dedup_by_key(|te| te.event.span);
    out.sort_by_key(|te| (te.event.start_ns, te.event.span));
    out
}

fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Render events as a Chrome-trace JSON document (`chrome://tracing` /
/// Perfetto): an object with a `traceEvents` array of "X" (complete)
/// events, timestamps and durations in microseconds.
pub fn chrome_trace_json(events: &[ThreadedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, te) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let e = &te.event;
        out.push_str("{\"ph\":\"X\",\"pid\":1,\"tid\":");
        out.push_str(&te.tid.to_string());
        out.push_str(",\"name\":\"");
        push_json_escaped(&mut out, name_of(e.name_id));
        out.push_str("\",\"ts\":");
        out.push_str(&(e.start_ns / 1_000).to_string());
        out.push_str(",\"dur\":");
        out.push_str(&(e.end_ns.saturating_sub(e.start_ns) / 1_000).max(1).to_string());
        out.push_str(",\"args\":{\"trace\":\"");
        out.push_str(&format!("{:016x}", e.trace));
        out.push_str("\",\"span\":");
        out.push_str(&e.span.to_string());
        out.push_str(",\"parent\":");
        out.push_str(&e.parent.to_string());
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceContext, TraceId};

    fn event(trace: u64, span: u64, parent: u64, name: &'static str) -> SpanEvent {
        let t = now_ns();
        SpanEvent { trace, span, parent, name_id: name_id(name), start_ns: t, end_ns: t + 100 }
    }

    #[test]
    fn name_interning_round_trips() {
        let a = name_id("ring_test_stage_a");
        let b = name_id("ring_test_stage_b");
        assert_ne!(a, b);
        assert_eq!(name_id("ring_test_stage_a"), a, "stable on re-intern");
        assert_eq!(name_of(a), "ring_test_stage_a");
        assert_eq!(name_of(u32::MAX), "", "unknown id is empty, not a panic");
    }

    #[test]
    fn ring_overwrites_but_pinned_survives() {
        let slow = TraceContext::root(TraceId::mint());
        let t0 = now_ns();
        record(event(slow.trace.0, crate::trace::next_span_id(), slow.span, "pin_stage"));
        // Error-terminated → pinned regardless of threshold.
        finish_root(slow, "pin_root", t0, true);
        assert_eq!(events_for(slow.trace.0).len(), 2);

        // Wrap this thread's ring completely.
        let filler = TraceId::mint();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            record(event(filler.0, crate::trace::next_span_id(), 0, "filler_stage"));
            let _ = i;
        }
        let after = events_for(slow.trace.0);
        assert_eq!(after.len(), 2, "pinned capture outlives the ring");
        assert!(slow_traces().iter().any(|p| p.trace == slow.trace.0 && p.error));
    }

    #[test]
    fn finish_root_pins_slow_traces_by_threshold() {
        crate::set_slow_op_threshold(Some(std::time::Duration::from_nanos(1)));
        let ctx = TraceContext::root(TraceId::mint());
        // `now_ns` counts from a process-wide epoch initialized on first
        // use; give it room so the 5ms back-date below doesn't saturate
        // to 0 when this test is the first caller.
        while now_ns() < 5_000_000 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let t0 = now_ns().saturating_sub(5_000_000);
        finish_root(ctx, "slow_root", t0, false);
        crate::set_slow_op_threshold(None);
        let pinned = slow_traces();
        let hit = pinned.iter().find(|p| p.trace == ctx.trace.0).expect("pinned as slow");
        assert!(!hit.error);
        assert!(hit.dur_ns >= 5_000_000);
        assert_eq!(name_of(hit.root_name_id), "slow_root");
    }

    #[test]
    fn fast_ok_roots_are_recorded_but_not_pinned() {
        let ctx = TraceContext::root(TraceId::mint());
        finish_root(ctx, "fast_root", now_ns(), false);
        assert_eq!(events_for(ctx.trace.0).len(), 1, "ring has it");
        assert!(
            slow_traces().iter().all(|p| p.trace != ctx.trace.0),
            "fast+ok is not pinned"
        );
    }

    #[test]
    fn short_lived_threads_reuse_rings() {
        // A thread per batch must not cost a ring per batch: each
        // thread below records one event and exits before the next
        // starts, so nearly all of them take over an idle ring. (Other
        // tests' threads may take or return rings meanwhile; the
        // bound leaves room for that.)
        const THREADS: u64 = 64;
        let trace = TraceId::mint();
        for _ in 0..THREADS {
            let span = crate::trace::next_span_id();
            std::thread::spawn(move || record(event(trace.0, span, 0, "short_lived")))
                .join()
                .unwrap();
        }
        let tids: std::collections::BTreeSet<u32> = all_events()
            .into_iter()
            .filter(|te| te.event.trace == trace.0)
            .map(|te| te.tid)
            .collect();
        assert!(tids.len() <= 8, "{THREADS} sequential threads used {} rings", tids.len());
    }

    #[test]
    fn concurrent_writers_and_scanners_stay_consistent() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        use std::time::{Duration, Instant};
        const WRITERS: u64 = 3;
        const MIN_SCANS: usize = 50;
        let trace = TraceId::mint();
        let stop = AtomicBool::new(false);
        let start = Barrier::new(WRITERS as usize + 1);
        let written: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
        let (torn, scans, advances) = std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (stop, start, written) = (&stop, &start, &written);
                scope.spawn(move || {
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        record(event(trace.0, crate::trace::next_span_id(), w, "torture_stage"));
                        written[w as usize].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            start.wait();
            // Scan until every writer has recorded and some scan saw the
            // ring advance since the previous one (a write landed between
            // two scans, so scanning overlapped writing), at least
            // MIN_SCANS times. The deadline turns a stuck writer into a
            // failure instead of a hang.
            let deadline = Instant::now() + Duration::from_secs(30);
            let (mut torn, mut scans, mut advances, mut prev_newest) = (None, 0usize, 0usize, 0);
            while torn.is_none() && Instant::now() < deadline {
                let events = events_for(trace.0);
                // A torn read would show an impossible field mix; the
                // seqlock must never surface one.
                torn = events.iter().copied().find(|e| {
                    e.parent >= WRITERS
                        || e.end_ns.wrapping_sub(e.start_ns) != 100
                        || name_of(e.name_id) != "torture_stage"
                });
                let newest = events.iter().map(|e| e.span).max().unwrap_or(0);
                if scans > 0 && newest > prev_newest {
                    advances += 1;
                }
                prev_newest = newest;
                scans += 1;
                let all_wrote = written.iter().all(|n| n.load(Ordering::Relaxed) > 0);
                if scans >= MIN_SCANS && all_wrote && advances > 0 {
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
            (torn, scans, advances)
        });
        assert_eq!(torn, None, "a scan surfaced a torn slot");
        for (w, n) in written.iter().enumerate() {
            assert!(n.load(Ordering::Relaxed) > 0, "writer {w} never recorded");
        }
        assert!(advances > 0, "none of {scans} scans saw the ring advance");
    }

    #[test]
    fn chrome_trace_json_is_wellformed() {
        let ctx = TraceContext::root(TraceId::mint());
        record(event(ctx.trace.0, crate::trace::next_span_id(), ctx.span, "chrome_stage"));
        let all = all_events();
        let json = chrome_trace_json(&all);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("chrome_stage"));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
