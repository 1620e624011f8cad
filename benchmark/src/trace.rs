//! In-memory spans around the calls the benchmark makes, written out as a
//! Chrome trace when the workload ends, and folded into self times.
//!
//! Spans are recorded from the benchmark's side only: around each
//! `RemoteLedger` call, and around replays of the same bytes through the
//! client and codec entry points. Spans inside `ledgerd` are a later issue.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its tracer; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op_id: u64,
    pub parent: SpanId,
}

/// One client thread's span buffer. While off, `begin`/`end` do nothing, so
/// untraced time pays one branch per call site. A tracer created off stays
/// off; one created on is switched slice by slice.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Created by [`Tracer::on`]: tracing is wanted for this run.
    enabled: bool,
    /// Recording right now.
    on: bool,
    /// The id the thread's next op takes.
    pub next_op: u64,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: false,
            on: false,
            next_op: 0,
        }
    }

    /// All tracers of a run share `epoch`, so their spans line up.
    pub fn on(epoch: Instant, capacity: usize, first_op: u64) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            enabled: true,
            on: true,
            next_op: first_op,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Record, or not, from here on; a tracer created off ignores this.
    pub fn set_on(&mut self, on: bool) {
        self.on = on && self.enabled;
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op_id: u64,
        parent: SpanId,
    ) -> SpanId {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            op_id,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if self.on {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// One row of the budget: every span of one `(layer, name)`.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetRow {
    pub layer: &'static str,
    pub name: &'static str,
    pub calls: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Busy time minus the part covered by child spans.
    pub self_ns: u64,
    /// Median span duration.
    pub p50_ns: f64,
}

impl BudgetRow {
    pub fn mean_ns(&self) -> f64 {
        self.busy_ns as f64 / self.calls as f64
    }
}

/// Fold one thread's spans into budget rows. A span's self time is its
/// duration minus the union of its children's intervals clipped to it.
pub fn budget(threads: &[Vec<Span>]) -> Vec<BudgetRow> {
    let mut rows: BTreeMap<(&'static str, &'static str), (u64, u64, Vec<u64>)> = BTreeMap::new();
    for spans in threads {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans {
            if span.parent != NO_PARENT {
                children[span.parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        for (span, kids) in spans.iter().zip(children.iter_mut()) {
            let busy = span.end_ns - span.start_ns;
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            let row = rows.entry((span.layer, span.name)).or_default();
            row.0 += busy;
            row.1 += busy - covered;
            row.2.push(busy);
        }
    }
    rows.into_iter()
        .map(
            |((layer, name), (busy_ns, self_ns, mut durations))| BudgetRow {
                layer,
                name,
                calls: durations.len() as u64,
                busy_ns,
                self_ns,
                p50_ns: crate::stats::median_ns(&mut durations),
            },
        )
        .collect()
}

/// Spans of the first `max_ops` ops of each thread as Chrome-trace JSON
/// (`chrome://tracing`, Perfetto). The budget uses every span; the file is
/// capped so it stays loadable.
pub fn chrome_trace_json(threads: &[Vec<Span>], max_ops: u64) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, spans) in threads.iter().enumerate() {
        let Some(first_op) = spans.first().map(|s| s.op_id) else {
            continue;
        };
        for span in spans.iter().take_while(|s| s.op_id < first_op + max_ops) {
            if !first {
                out.push(',');
            }
            first = false;
            // ts/dur are microseconds; three decimals keep the nanoseconds.
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op_id\":{},\"parent\":{}}}}}",
                span.name,
                span.layer,
                tid,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.op_id,
                if span.parent == NO_PARENT {
                    -1
                } else {
                    span.parent as i64
                },
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            layer: "l",
            start_ns: start,
            end_ns: end,
            op_id: 0,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        // root 0..100 with children 10..30 and 20..50 (overlapping: cover
        // 40) and one child that overruns the parent, 90..120 (covers 10).
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 20, 50, 0),
            span("c", 90, 120, 0),
        ];
        let rows = budget(&[spans]);
        let root = rows.iter().find(|r| r.name == "root").unwrap();
        assert_eq!((root.calls, root.busy_ns, root.self_ns), (1, 100, 50));
        let a = rows.iter().find(|r| r.name == "a").unwrap();
        assert_eq!((a.busy_ns, a.self_ns), (20, 20));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let id = tracer.begin("x", "l", 0, NO_PARENT);
        tracer.end(id);
        assert!(tracer.into_spans().is_empty());
    }

    #[test]
    fn chrome_trace_caps_ops_and_stays_json() {
        let mut tracer = Tracer::on(Instant::now(), 8, 0);
        for op in 0..4 {
            let id = tracer.begin("op", "client", op, NO_PARENT);
            tracer.end(id);
        }
        let json = chrome_trace_json(&[tracer.into_spans()], 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(crate::json::parse(&json).is_ok());
    }
}
