//! Request-scoped tracing: trace ids, span contexts, and RAII stage
//! spans.
//!
//! A [`TraceId`] is minted once per request at the server edge (or
//! supplied by a version-2 wire frame) and carried through the layers
//! by a thread-local [`TraceScope`]. Code on the request path opens a
//! [`StageSpan`] wherever a stage begins — batcher queue, locked
//! structural window, seal legs, fsync barrier — and the span records
//! one [`crate::recorder::SpanEvent`] into the flight recorder on drop.
//! Everything is keyed off thread-local state, so layers that know
//! nothing about requests (storage fsync, checkpoint ladder) still
//! attribute their work to the right trace: if no scope is installed,
//! a `StageSpan` is inert and costs two thread-local reads.
//!
//! Two scope shapes exist because the group committer amortizes one
//! fsync barrier across a *window* of requests:
//!
//! * [`TraceScope::Single`] — one request on this thread; nested spans
//!   re-parent the scope so the span tree gets real depth;
//! * [`TraceScope::Window`] — the committer thread acting for every
//!   job in the current commit window; a span records one event per
//!   member trace (the shared fsync barrier appears in each tree).
//!
//! Cross-thread stages (the helper threads of a batch's ECDSA admission)
//! capture [`current_scope`] before the fan-out and install it inside
//! each helper, so helper spans land in the submitting request's tree.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Monotonic source for span/trace id allocation.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the process's trace epoch (first use). All span
/// timestamps share this base, so cross-thread ordering is meaningful.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A process-unique, nonzero request trace identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mint a fresh id. Ids are well-mixed (not sequential) so a
    /// client-supplied id colliding with a server-minted one requires
    /// guessing, not luck.
    pub fn mint() -> TraceId {
        let raw = splitmix64(NEXT_ID.fetch_add(1, Ordering::Relaxed));
        TraceId(if raw == 0 { 1 } else { raw })
    }

    /// Wrap a wire-supplied id; zero (the wire's "absent") mints fresh.
    pub fn from_wire(raw: u64) -> TraceId {
        if raw == 0 {
            TraceId::mint()
        } else {
            TraceId(raw)
        }
    }
}

/// A position inside one trace: the trace id plus the span id that new
/// child spans parent under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub trace: TraceId,
    pub span: u64,
}

impl TraceContext {
    /// A root context: children of this parent to span id 0 — the tree
    /// root is the span *named* by this context's `span` id.
    pub fn root(trace: TraceId) -> TraceContext {
        TraceContext { trace, span: next_span_id() }
    }
}

/// Allocate a process-unique span id.
pub fn next_span_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// What the current thread is working for.
#[derive(Debug, Clone)]
pub enum TraceScope {
    /// One request; nested [`StageSpan`]s re-parent this.
    Single(TraceContext),
    /// A commit window acting for many requests at once; spans record
    /// one event per member and nesting stays flat.
    Window(Arc<[TraceContext]>),
}

thread_local! {
    static CURRENT: RefCell<Option<TraceScope>> = const { RefCell::new(None) };
}

/// The current thread's single-request context, if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| match &*c.borrow() {
        Some(TraceScope::Single(ctx)) => Some(*ctx),
        _ => None,
    })
}

/// The current thread's scope (single or window), if any.
pub fn current_scope() -> Option<TraceScope> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install `scope` on this thread until the guard drops (the previous
/// scope is restored — guards nest).
#[must_use = "the scope is uninstalled when the guard drops"]
pub fn install(scope: TraceScope) -> ScopeGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(scope));
    ScopeGuard { prev, restored: false }
}

/// Install a window scope over `members` (no-op guard when empty).
#[must_use = "the scope is uninstalled when the guard drops"]
pub fn install_window(members: &[TraceContext]) -> Option<ScopeGuard> {
    if members.is_empty() {
        return None;
    }
    Some(install(TraceScope::Window(members.into())))
}

/// Restores the previously installed scope on drop.
pub struct ScopeGuard {
    prev: Option<TraceScope>,
    restored: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.restored {
            let prev = self.prev.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
            self.restored = true;
        }
    }
}

/// Record a completed span with explicit timestamps under `ctx` (used
/// when the measured interval started on another thread — e.g. the
/// batcher queue wait measured from the submit instant). Returns the
/// new span's id.
pub fn record_span(ctx: TraceContext, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
    let span = next_span_id();
    crate::recorder::record(crate::recorder::SpanEvent {
        trace: ctx.trace.0,
        span,
        parent: ctx.span,
        name_id: crate::recorder::name_id(name),
        start_ns,
        end_ns,
    });
    span
}

/// Record the same interval into every member of a window (the shared
/// fsync barrier / whole-window commit).
pub fn record_span_multi(
    members: &[TraceContext],
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
) {
    let name_id = crate::recorder::name_id(name);
    for ctx in members {
        crate::recorder::record(crate::recorder::SpanEvent {
            trace: ctx.trace.0,
            span: next_span_id(),
            parent: ctx.span,
            name_id,
            start_ns,
            end_ns,
        });
    }
}

enum StageState {
    /// Single-request scope: we re-parented the TLS to our span; the
    /// guard restores the parent when the stage ends.
    Single { ctx: TraceContext, span: u64, _guard: ScopeGuard },
    /// Window scope: record one event per member on drop.
    Window(Arc<[TraceContext]>),
}

/// RAII stage span: opens at construction, records on drop. Inert
/// (two TLS reads) when no scope is installed.
/// Under a single-request scope, child `StageSpan`s opened while this
/// one is alive become its children in the span tree.
#[must_use = "a stage span records on drop; binding it to _ measures nothing"]
pub struct StageSpan {
    name: &'static str,
    start_ns: u64,
    state: Option<StageState>,
}

impl StageSpan {
    pub fn begin(name: &'static str) -> StageSpan {
        let state = match current_scope() {
            Some(TraceScope::Single(ctx)) => {
                let span = next_span_id();
                let guard = install(TraceScope::Single(TraceContext { trace: ctx.trace, span }));
                Some(StageState::Single { ctx, span, _guard: guard })
            }
            Some(TraceScope::Window(members)) => Some(StageState::Window(members)),
            None => None,
        };
        let start_ns = if state.is_some() { now_ns() } else { 0 };
        StageSpan { name, start_ns, state }
    }

    /// Is this span actually recording?
    pub fn active(&self) -> bool {
        self.state.is_some()
    }
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else { return };
        let end_ns = now_ns();
        match state {
            StageState::Single { ctx, span, _guard } => {
                crate::recorder::record(crate::recorder::SpanEvent {
                    trace: ctx.trace.0,
                    span,
                    parent: ctx.span,
                    name_id: crate::recorder::name_id(self.name),
                    start_ns: self.start_ns,
                    end_ns,
                });
            }
            StageState::Window(members) => {
                record_span_multi(&members, self.name, self.start_ns, end_ns);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder;

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_ne!(a.0, 0);
        assert_ne!(b.0, 0);
        assert_eq!(TraceId::from_wire(7).0, 7);
        assert_ne!(TraceId::from_wire(0).0, 0, "zero mints fresh");
    }

    #[test]
    fn stage_spans_nest_under_single_scope() {
        let trace = TraceId::mint();
        let root = TraceContext::root(trace);
        {
            let _g = install(TraceScope::Single(root));
            let outer = StageSpan::begin("outer_stage");
            assert!(outer.active());
            {
                let _inner = StageSpan::begin("inner_stage");
            }
            drop(outer);
        }
        assert!(current_scope().is_none(), "guard restored the empty scope");
        let events = recorder::events_for(trace.0);
        assert_eq!(events.len(), 2);
        let inner = events.iter().find(|e| recorder::name_of(e.name_id) == "inner_stage").unwrap();
        let outer = events.iter().find(|e| recorder::name_of(e.name_id) == "outer_stage").unwrap();
        assert_eq!(inner.parent, outer.span, "inner is a child of outer");
        assert_eq!(outer.parent, root.span, "outer is a child of the root context");
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn window_scope_records_one_event_per_member() {
        let members: Vec<TraceContext> =
            (0..3).map(|_| TraceContext::root(TraceId::mint())).collect();
        {
            let _g = install_window(&members).unwrap();
            let _span = StageSpan::begin("window_stage");
        }
        for ctx in &members {
            let events = recorder::events_for(ctx.trace.0);
            assert_eq!(events.len(), 1, "each member trace got the shared span");
            assert_eq!(recorder::name_of(events[0].name_id), "window_stage");
            assert_eq!(events[0].parent, ctx.span);
        }
    }

    #[test]
    fn spans_are_inert_without_scope() {
        let span = StageSpan::begin("orphan_stage");
        assert!(!span.active(), "no scope installed");
    }

    #[test]
    fn explicit_time_spans_attach_to_the_context() {
        let ctx = TraceContext::root(TraceId::mint());
        let t0 = now_ns();
        record_span(ctx, "queue_wait_stage", t0, t0 + 1_000);
        let events = recorder::events_for(ctx.trace.0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].end_ns - events[0].start_ns, 1_000);
        assert_eq!(events[0].parent, ctx.span);
    }
}
