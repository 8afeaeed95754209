//! Scoped, nested wall-time spans.
//!
//! [`SpanGuard::open`] pushes onto a thread-local stack and starts a
//! timer; dropping the guard pops it, records the duration into the
//! global histogram `span.<name>`, and (when a trace sink is installed)
//! emits one JSONL [`SpanEvent`]. Span ids are process-unique and each
//! event carries its parent's id, so a trace file reconstructs the call
//! tree.
//!
//! # Causality across threads
//!
//! Within one thread, parentage comes from the stack. When a
//! [`crate::trace::TraceContext`] is entered on the thread, a span
//! opened with an *empty* stack parents to the context's `span_id`
//! instead of 0 — that edge is what stitches a pool worker's spans to
//! the request's root span on the handler thread. Entering a context
//! swaps the stack out (see [`crate::trace`]), so the fallback fires
//! deterministically.
//!
//! Spans recorded under a *sampled* context additionally enter the
//! global flight recorder ([`crate::flight`]), and a span may carry
//! *links* ([`SpanGuard::add_link`]) to spans of other traces — the
//! Sev3 route coalescer's fan-in span links every coalesced request.

use crate::json::{Arr, Obj, Value};
use crate::trace::TraceContext;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(span id, name)` of every open span on this thread, outermost
    /// first.
    static STACK: RefCell<Vec<(u64, &'static str)>> = const { RefCell::new(Vec::new()) };
    /// Small stable id for trace events (thread::ThreadId has no stable
    /// public integer form).
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// `span.<name>`, spelled afresh at every close into the same
    /// buffer: a close names its histogram without allocating.
    static HISTOGRAM_NAME: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Process start reference for `start_us` timestamps.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process's first span/trace event.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Replace this thread's span stack, returning the previous one. Used by
/// [`crate::trace::TraceContext::enter`] to give an entered context a
/// clean parentage base; the guard restores the original on drop.
pub(crate) fn swap_stack(new: Vec<(u64, &'static str)>) -> Vec<(u64, &'static str)> {
    STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), new))
}

/// The innermost span currently open on this thread, if any.
pub fn current_span_id() -> Option<u64> {
    STACK.with(|s| s.borrow().last().map(|&(id, _)| id))
}

struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: u64,
    depth: usize,
    start: Instant,
    /// Trace this span belongs to (0 = no context entered).
    trace: u64,
    /// Record into the flight ring on close?
    sampled: bool,
    /// Fan-in links to spans of other traces.
    links: Vec<(u64, u64)>,
}

/// RAII guard for one span; see [`crate::span!`].
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Open a span. Inert (a single atomic load, no clock read) when
    /// collection is disabled.
    pub fn open(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard(None);
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let ctx = crate::trace::current();
        let (trace, ctx_span, sampled) = match ctx {
            Some(c) => (c.trace_id, c.span_id, c.sampled),
            None => (0, 0, false),
        };
        let (parent, depth) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Stack first; an entered context's span_id is the fallback
            // root edge for the first span on this thread.
            let parent = s.last().map_or(ctx_span, |&(pid, _)| pid);
            let depth = s.len();
            s.push((id, name));
            (parent, depth)
        });
        let start = Instant::now();
        epoch(); // make sure the timestamp reference exists
        SpanGuard(Some(ActiveSpan {
            name,
            id,
            parent,
            depth,
            start,
            trace,
            sampled,
            links: Vec::new(),
        }))
    }

    /// This span as a handoff context: work parented under the returned
    /// context shows up as this span's child. `None` when the span is
    /// inert (collection disabled) or traceless.
    pub fn context(&self) -> Option<TraceContext> {
        let span = self.0.as_ref()?;
        if span.trace == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id: span.trace,
            span_id: span.id,
            sampled: span.sampled,
        })
    }

    /// Link this span to a span of another trace (fan-in: one batch span
    /// links every request it coalesced). Linking to a sampled context
    /// marks this span sampled too, so the flight recorder always holds
    /// the join point of a recorded request.
    pub fn add_link(&mut self, ctx: TraceContext) {
        if let Some(span) = self.0.as_mut() {
            span.links.push((ctx.trace_id, ctx.span_id));
            span.sampled |= ctx.sampled;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.0.take() else { return };
        let dur = span.start.elapsed();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards normally drop in LIFO order; if a guard was moved
            // and outlived its children, discard the stale tail.
            if let Some(pos) = s.iter().rposition(|&(id, _)| id == span.id) {
                s.truncate(pos);
            }
        });
        if !crate::enabled() {
            return;
        }
        let collector = crate::global();
        let dur_ns = dur.as_nanos() as u64;
        HISTOGRAM_NAME.with(|name| {
            let mut name = name.borrow_mut();
            name.clear();
            name.push_str("span.");
            name.push_str(span.name);
            collector.metrics.observe(&name, dur_ns as f64);
        });
        let has_sink = collector.has_trace_sink();
        if has_sink || span.sampled {
            let start_us = span.start.duration_since(epoch()).as_micros() as u64;
            let mut obj = Obj::new()
                .str("type", "span")
                .str("name", span.name)
                .uint("id", span.id)
                .uint("parent", span.parent)
                .uint("depth", span.depth as u64)
                .uint("thread", THREAD_ID.with(|&t| t))
                .uint("start_us", start_us)
                .uint("dur_ns", dur_ns);
            if span.trace != 0 {
                obj = obj.str("trace", &crate::trace::hex(span.trace));
            }
            if !span.links.is_empty() {
                let links = span
                    .links
                    .iter()
                    .fold(Arr::new(), |arr, &(trace, span_id)| {
                        arr.raw(
                            &Obj::new()
                                .str("trace", &crate::trace::hex(trace))
                                .uint("span", span_id)
                                .finish(),
                        )
                    });
                obj = obj.raw("links", &links.finish());
            }
            let line = obj.finish();
            if has_sink {
                collector.emit_trace(&line);
            }
            if span.sampled {
                crate::flight().record(&line);
            }
        }
    }
}

/// One closed span as written to the trace sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (taxonomy: `scout.*`, `ml.*`, `monitoring.*`,
    /// `master.*`, `lab.*`, `serve.*`).
    pub name: String,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span (or the entered context's span), 0 at
    /// the trace root.
    pub parent: u64,
    /// Nesting depth at open time (0 = root).
    pub depth: u64,
    /// Stable per-thread id.
    pub thread: u64,
    /// Microseconds since the first span of the process.
    pub start_us: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Trace id, 0 when no context was entered.
    pub trace: u64,
    /// Fan-in links as `(trace_id, span_id)` pairs.
    pub links: Vec<(u64, u64)>,
}

impl SpanEvent {
    /// Parse one trace JSONL line; `None` for non-span or malformed
    /// lines.
    pub fn from_json(line: &str) -> Option<SpanEvent> {
        let v = Value::parse(line)?;
        if v.get("type")?.as_str()? != "span" {
            return None;
        }
        let field = |k: &str| v.get(k).and_then(Value::as_f64).map(|n| n as u64);
        let trace = v
            .get("trace")
            .and_then(Value::as_str)
            .and_then(crate::trace::parse_hex)
            .unwrap_or(0);
        let links = v
            .get("links")
            .and_then(Value::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|l| {
                        let t = l
                            .get("trace")
                            .and_then(Value::as_str)
                            .and_then(crate::trace::parse_hex)?;
                        let s = l.get("span").and_then(Value::as_f64)? as u64;
                        Some((t, s))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Some(SpanEvent {
            name: v.get("name")?.as_str()?.to_string(),
            id: field("id")?,
            parent: field("parent")?,
            depth: field("depth")?,
            thread: field("thread")?,
            start_us: field("start_us")?,
            dur_ns: field("dur_ns")?,
            trace,
            links,
        })
    }
}
