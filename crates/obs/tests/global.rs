//! Integration tests for the global collector: span nesting through the
//! trace sink, and audit records through the audit sink.
//!
//! Every test here toggles the process-wide collector, so they share
//! one lock to serialize against each other (`cargo test` runs tests in
//! threads within one process).

use obs::audit::AuditRecord;
use obs::sink::MemorySink;
use obs::span::SpanEvent;
use std::sync::{Mutex, MutexGuard};

fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Enable collection with fresh memory sinks; tear everything down on
/// drop even if the test panics.
struct Harness {
    _guard: MutexGuard<'static, ()>,
    trace: std::sync::Arc<Mutex<Vec<String>>>,
    audit: std::sync::Arc<Mutex<Vec<String>>>,
}

impl Harness {
    fn start() -> Harness {
        let guard = exclusive();
        let (trace_sink, trace) = MemorySink::new();
        let (audit_sink, audit) = MemorySink::new();
        obs::global().set_trace_sink(Some(Box::new(trace_sink)));
        obs::global().set_audit_sink(Some(Box::new(audit_sink)));
        obs::enable();
        Harness {
            _guard: guard,
            trace,
            audit,
        }
    }

    fn trace_events(&self) -> Vec<SpanEvent> {
        self.trace
            .lock()
            .unwrap()
            .iter()
            .filter_map(|l| SpanEvent::from_json(l))
            .collect()
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        obs::disable();
        obs::global().set_trace_sink(None);
        obs::global().set_audit_sink(None);
    }
}

#[test]
fn nested_spans_record_hierarchy_and_close_order() {
    let h = Harness::start();
    {
        let _root = obs::span!("test.root");
        {
            let _child = obs::span!("test.child");
            let _grandchild = obs::span!("test.grandchild");
        }
        let _sibling = obs::span!("test.sibling");
    }
    let events = h.trace_events();
    drop(h);

    // Spans are emitted as they close: innermost first.
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(
        names,
        ["test.grandchild", "test.child", "test.sibling", "test.root"]
    );

    let by_name = |n: &str| events.iter().find(|e| e.name == n).unwrap();
    let root = by_name("test.root");
    let child = by_name("test.child");
    let grandchild = by_name("test.grandchild");
    let sibling = by_name("test.sibling");

    assert_eq!(root.parent, 0);
    assert_eq!(root.depth, 0);
    assert_eq!(child.parent, root.id);
    assert_eq!(child.depth, 1);
    assert_eq!(grandchild.parent, child.id);
    assert_eq!(grandchild.depth, 2);
    assert_eq!(
        sibling.parent, root.id,
        "sibling attaches to root, not the closed child"
    );
    assert_eq!(sibling.depth, 1);

    // Wall time nests: the root span contains its children.
    assert!(root.dur_ns >= child.dur_ns);
    assert!(child.dur_ns >= grandchild.dur_ns);

    // Each closed span also feeds a duration histogram.
    let s = obs::global()
        .metrics
        .histogram_summary("span.test.root")
        .unwrap();
    assert!(s.count >= 1);
}

#[test]
fn audit_records_round_trip_one_per_prediction() {
    let h = Harness::start();
    let records: Vec<AuditRecord> = (0..5)
        .map(|i| AuditRecord {
            incident: 100 + i,
            model: if i % 2 == 0 {
                "RandomForest"
            } else {
                "CpdConservative"
            }
            .into(),
            verdict: "NotResponsible".into(),
            confidence: 0.5 + 0.1 * i as f64,
            top_features: vec![(format!("feature-{i}"), i as f64 / 10.0)],
            outcome: "route-away".into(),
            model_version: 1 + i,
            trace_id: 0x1000 + i,
        })
        .collect();
    for r in &records {
        r.emit();
    }
    let lines: Vec<String> = h.audit.lock().unwrap().clone();
    drop(h);

    assert_eq!(
        lines.len(),
        records.len(),
        "exactly one line per prediction"
    );
    let parsed: Vec<AuditRecord> = lines
        .iter()
        .map(|l| AuditRecord::from_json(l).expect("valid audit JSON"))
        .collect();
    assert_eq!(parsed, records);
}

#[test]
fn disabled_collection_emits_nothing() {
    let h = Harness::start();
    obs::disable();
    {
        let _s = obs::span!("test.disabled");
    }
    AuditRecord {
        incident: 1,
        model: "Fallback".into(),
        verdict: "Fallback".into(),
        confidence: 1.0,
        top_features: Vec::new(),
        outcome: "legacy-process".into(),
        model_version: 1,
        trace_id: 0,
    }
    .emit();
    assert!(h.trace.lock().unwrap().is_empty());
    assert!(h.audit.lock().unwrap().is_empty());
}
