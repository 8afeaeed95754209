//! Observability for the Scout pipeline: spans, metrics, sinks, and the
//! prediction audit log.
//!
//! The paper's central claim (§5.3, §8) is that a Scout must not be a
//! black box: every prediction reports *why* (model used, confidence,
//! feature contributions), and operators watch the Scout degrade over
//! time to trigger retraining (Fig. 10). This crate is the measurement
//! substrate for both — and for every performance claim the workspace
//! makes.
//!
//! Four pieces:
//!
//! * **Spans** ([`span!`], [`span::SpanGuard`]) — scoped RAII wall-time
//!   timers on a thread-local stack. Each closed span feeds a duration
//!   histogram named after the span and, when a trace sink is
//!   installed, emits one JSONL event with hierarchical ids.
//! * **Metrics** ([`metrics::Registry`]) — named counters, gauges and
//!   streaming [`metrics::Histogram`]s reporting the paper's feature
//!   statistic set: mean/std/min/max and the 1/10/25/50/75/90/99th
//!   percentiles (§5.2.1).
//! * **Sinks** ([`sink`]) — a JSONL event sink and a human-readable
//!   summary renderer behind a global handle. The default is
//!   *disabled*: every instrumentation point costs one relaxed atomic
//!   load and nothing else.
//! * **Audit log** ([`audit`]) — one JSONL record per Scout prediction:
//!   incident id, model used, verdict, confidence, top-k feature
//!   contributions, routing outcome. This is the paper's
//!   explainability contract in machine-readable form; the sink line
//!   is the record's only copy.
//!
//! # Span taxonomy
//!
//! Dotted, coarse-to-fine: `scout.*` (prepare, predict, train, feature
//! construction, CPD+ paths, selector), `ml.*` (forest fit/predict,
//! change-point detection), `monitoring.*` (telemetry reads),
//! `master.*` (Scout Master simulation), `lab.*` (experiment harness
//! stages). See DESIGN.md § Observability for the full list.
//!
//! # Example
//!
//! ```
//! obs::enable();
//! {
//!     let _outer = obs::span!("scout.predict");
//!     let _inner = obs::span!("ml.forest.predict");
//!     obs::counter("scout.predictions").inc();
//! }
//! let report = obs::global().summary();
//! assert!(report.contains("scout.predictions"));
//! obs::disable();
//! ```

pub mod audit;
pub mod flight;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod slo;
pub mod span;
pub mod trace;

pub use audit::AuditRecord;
pub use flight::FlightRecorder;
pub use metrics::{Counter, Gauge, HistogramSummary, Registry};
pub use sink::{JsonlSink, RotatingJsonlSink, Sink};
pub use slo::{SloConfig, SloEngine, SloSpec, SloStatus};
pub use span::SpanGuard;
pub use trace::TraceContext;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Fast global on/off switch. Checked (relaxed) before any other work at
/// every instrumentation point, so a disabled pipeline pays one atomic
/// load per span/counter touch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide collector: metrics registry plus optional sinks.
pub struct Collector {
    /// Metrics registry (counters, gauges, histograms).
    pub metrics: Registry,
    trace: Mutex<Option<Box<dyn Sink>>>,
    /// Is `trace` `Some`? Every span close asks; only
    /// [`Collector::set_trace_sink`] writes it, under the `trace` lock.
    has_trace: AtomicBool,
    audit: Mutex<Option<Box<dyn Sink>>>,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            metrics: Registry::new(),
            trace: Mutex::new(None),
            has_trace: AtomicBool::new(false),
            audit: Mutex::new(None),
        }
    }

    /// Install (or remove) the span trace sink.
    pub fn set_trace_sink(&self, sink: Option<Box<dyn Sink>>) {
        let mut trace = self.trace.lock().unwrap();
        self.has_trace.store(sink.is_some(), Ordering::SeqCst);
        *trace = sink;
    }

    /// Install (or remove) the prediction audit sink.
    pub fn set_audit_sink(&self, sink: Option<Box<dyn Sink>>) {
        *self.audit.lock().unwrap() = sink;
    }

    /// Is a trace sink currently installed?
    pub fn has_trace_sink(&self) -> bool {
        self.has_trace.load(Ordering::SeqCst)
    }

    /// Is an audit sink currently installed?
    pub fn has_audit_sink(&self) -> bool {
        self.audit.lock().unwrap().is_some()
    }

    /// Write one event line to the trace sink, if any.
    pub fn emit_trace(&self, line: &str) {
        if let Some(s) = self.trace.lock().unwrap().as_mut() {
            s.write_line(line);
        }
    }

    /// Write one record line to the audit sink, if any.
    pub fn emit_audit(&self, line: &str) {
        if let Some(s) = self.audit.lock().unwrap().as_mut() {
            s.write_line(line);
        }
    }

    /// Flush both sinks.
    pub fn flush(&self) {
        if let Some(s) = self.trace.lock().unwrap().as_mut() {
            s.flush();
        }
        if let Some(s) = self.audit.lock().unwrap().as_mut() {
            s.flush();
        }
    }

    /// The human-readable metrics summary (see
    /// [`sink::render_summary`]).
    pub fn summary(&self) -> String {
        sink::render_summary(&self.metrics)
    }
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(Collector::new)
}

/// Is observability collection on?
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on (spans time themselves, metrics record, sinks
/// receive events).
pub fn enable() {
    collector(); // materialize before anyone can race on it
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn collection off again. Sinks stay installed but receive nothing.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// The global collector. Usable even while disabled (e.g. to render a
/// final summary after turning collection off).
pub fn global() -> &'static Collector {
    collector()
}

/// Shorthand: the process-wide flight recorder (always usable; the ring
/// records regardless of the enabled flag — anomaly forensics must not
/// depend on metrics being on).
#[inline]
pub fn flight() -> &'static flight::FlightRecorder {
    flight::FlightRecorder::global()
}

/// Shorthand: the global counter named `name` (no-op handle when
/// disabled).
#[inline]
pub fn counter(name: &str) -> Counter<'_> {
    if enabled() {
        global().metrics.counter(name)
    } else {
        Counter::noop()
    }
}

/// Shorthand: the global gauge named `name` (no-op handle when
/// disabled).
#[inline]
pub fn gauge(name: &str) -> Gauge<'_> {
    if enabled() {
        global().metrics.gauge(name)
    } else {
        Gauge::noop()
    }
}

/// Shorthand: record `value` into the global histogram named `name`.
#[inline]
pub fn observe(name: &str, value: f64) {
    if enabled() {
        global().metrics.observe(name, value);
    }
}

/// Open a span named by a `'static` string: returns a guard that closes
/// (times + emits) the span when dropped.
///
/// ```
/// let _span = obs::span!("scout.features.build");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::open($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        disable();
        counter("lib.inert.count").inc();
        gauge("lib.inert.gauge").set(3.0);
        observe("lib.inert.hist", 1.0);
        let g = span!("lib.inert.span");
        drop(g);
        assert!(global().metrics.counter_value("lib.inert.count").is_none());
        assert!(global().metrics.gauge_value("lib.inert.gauge").is_none());
        assert!(global()
            .metrics
            .histogram_summary("lib.inert.hist")
            .is_none());
        assert!(global()
            .metrics
            .histogram_summary("span.lib.inert.span")
            .is_none());
    }
}
