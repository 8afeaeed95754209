//! Causal trace contexts: request-scoped identity that survives queue
//! hops.
//!
//! PR 1's spans are per-thread: the id stack reconstructs a call tree
//! *within* one thread, but causality dies at every queue hop (handler →
//! coalescer → pool worker → lifecycle worker). A [`TraceContext`] is the
//! missing cross-thread half: a `(trace_id, span_id, sampled)` triple
//! minted once per request at HTTP accept, carried *by value* across
//! channels, and re-entered on whatever thread continues the work.
//!
//! # Model
//!
//! * `trace_id` names the request; every span recorded while a context
//!   is entered carries it.
//! * `span_id` is the causal parent for new spans opened under the
//!   entered context when the thread's own span stack is empty — this is
//!   what parents a pool worker's first span to the request's root span
//!   on the handler thread.
//! * `sampled` gates flight-recorder capture (and nothing else: span
//!   duration histograms always record, because SLOs are computed from
//!   them). Ids arriving on the wire (`X-Trace-Id`) are always sampled —
//!   an operator who sends an id wants the trace.
//!
//! Entering a context ([`TraceContext::enter`]) swaps the thread's span
//! stack out for an empty one, so the first span opened under the
//! context parents to `span_id` *deterministically* — the same item
//! executed by a pool worker or by the caller-participating thread
//! produces the same parent edge. The guard restores both on drop.
//!
//! Sampling is a global 1-in-N policy ([`set_sample_every`]): `0`
//! disables minted-trace sampling entirely, `1` samples every request.
//! The decision is made on the pre-mix mint counter, so the rate is
//! exact, not probabilistic.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
/// 1-in-N sampling for minted traces; 0 = never, 1 = always.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// Request-scoped causal identity, carried by value across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Process-unique trace id (never 0 for a real trace).
    pub trace_id: u64,
    /// The span new work should parent to (0 = trace root).
    pub span_id: u64,
    /// Should spans in this trace enter the flight recorder?
    pub sampled: bool,
}

impl TraceContext {
    /// The traceless context: entering it is harmless (spans carry trace
    /// id 0 and are not flight-sampled). Lets queue-hop structs carry a
    /// context by value even on untraced paths.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
        sampled: false,
    };

    /// Mint a fresh trace. Sampling follows the global 1-in-N policy.
    pub fn mint() -> TraceContext {
        let seq = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
        let every = SAMPLE_EVERY.load(Ordering::Relaxed);
        // Decorrelate sequential mint counters into well-spread ids.
        let mut trace_id = crate::hash::splitmix64(seq);
        if trace_id == 0 {
            trace_id = 1;
        }
        TraceContext {
            trace_id,
            span_id: 0,
            sampled: every != 0 && seq.is_multiple_of(every),
        }
    }

    /// Adopt an id that arrived on the wire. Always sampled: an explicit
    /// id is a request to record.
    pub fn adopt(trace_id: u64) -> TraceContext {
        TraceContext {
            trace_id: if trace_id == 0 { 1 } else { trace_id },
            span_id: 0,
            sampled: true,
        }
    }

    /// A copy of this context with `span_id` replaced (the handoff form:
    /// "new work parents to this span").
    pub fn at_span(self, span_id: u64) -> TraceContext {
        TraceContext { span_id, ..self }
    }

    /// Make this context current on this thread until the guard drops.
    /// The thread's span stack is swapped out for an empty one so the
    /// first span opened under the context parents to [`Self::span_id`]
    /// regardless of what the thread was doing before.
    pub fn enter(self) -> ContextGuard {
        let prev_ctx = CURRENT.with(|c| c.replace(Some(self)));
        let prev_stack = crate::span::swap_stack(Vec::new());
        ContextGuard {
            prev_ctx,
            prev_stack: Some(prev_stack),
        }
    }
}

/// Restores the previous context (and span stack) on drop.
pub struct ContextGuard {
    prev_ctx: Option<TraceContext>,
    prev_stack: Option<Vec<(u64, &'static str)>>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev_ctx));
        if let Some(stack) = self.prev_stack.take() {
            crate::span::swap_stack(stack);
        }
    }
}

/// The context entered on this thread, if any (as entered: `span_id` is
/// the handoff parent, not the innermost open span).
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// The effective context for handing work to another thread: the entered
/// context with `span_id` advanced to the innermost span currently open
/// on this thread. `None` when no context is entered — offline pipelines
/// run traceless.
pub fn capture() -> Option<TraceContext> {
    let ctx = current()?;
    Some(match crate::span::current_span_id() {
        Some(id) => ctx.at_span(id),
        None => ctx,
    })
}

/// Set the global 1-in-N sampling policy for minted traces (0 = never
/// sample, 1 = sample everything).
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

/// Render a trace id the way it travels in `X-Trace-Id` and audit
/// records: 16 lowercase hex digits.
pub fn hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a wire trace id: 1–16 hex digits, non-zero.
pub fn parse_hex(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        for id in [1u64, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_hex(&hex(id)), Some(id));
        }
        assert_eq!(hex(255), "00000000000000ff");
        assert_eq!(parse_hex("0"), None, "zero is not a trace id");
        assert_eq!(parse_hex(""), None);
        assert_eq!(parse_hex("xyz"), None);
        assert_eq!(parse_hex("11112222333344445"), None, "too long");
        assert_eq!(parse_hex("  ff  "), Some(255), "whitespace tolerated");
    }

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
    }

    #[test]
    fn enter_restores_previous_context() {
        assert_eq!(current(), None);
        let outer = TraceContext::adopt(7);
        {
            let _g = outer.enter();
            assert_eq!(current(), Some(outer));
            let inner = TraceContext::adopt(9);
            {
                let _g2 = inner.enter();
                assert_eq!(current(), Some(inner));
            }
            assert_eq!(current(), Some(outer));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn adopted_ids_are_always_sampled() {
        assert!(TraceContext::adopt(42).sampled);
        // Zero is coerced to a valid id rather than panicking.
        assert_eq!(TraceContext::adopt(0).trace_id, 1);
    }

    #[test]
    fn capture_without_context_is_none() {
        assert_eq!(capture(), None);
    }
}
