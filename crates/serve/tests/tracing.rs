//! End-to-end causal tracing through the serving plane.
//!
//! Two guarantees are exercised against a live server:
//!
//! 1. A predict carrying `X-Trace-Id` yields ONE connected trace
//!    recoverable from the flight recorder: the HTTP root span, the
//!    admission span under it, and the per-item predict/prepare/featcache
//!    spans — plus the same
//!    trace id echoed in the response header and stamped on the audit
//!    record.
//! 2. No span is ever orphaned: under concurrent traced predicts racing
//!    a model hot-swap and a shutdown drain, every captured span's
//!    parent chain resolves to the trace root.

use obs::json::Value;
use obs::span::SpanEvent;
use serve::{Client, Engine, ModelRegistry, ServeConfig, Server};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;
use common::{small_workload, test_scout, trained_model_text};

fn start_server(config: ServeConfig) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register("PhyNet", test_scout(), "test")
        .expect("register test model");
    let engine = Engine::new(registry, small_workload());
    Server::start(engine, "127.0.0.1:0", config).expect("bind ephemeral port")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.addr().to_string()).expect("connect")
}

const INCIDENT: &str = r#"{"text":"Switch agg-3 in c1.dc1 reporting CRC errors and packet loss"}"#;

/// Spans currently in the flight ring, parsed (alert lines skipped).
fn flight_spans(client: &mut Client) -> Vec<SpanEvent> {
    let resp = client.get("/v1/debug/flight").expect("flight endpoint");
    assert_eq!(resp.status, 200);
    resp.body_text()
        .lines()
        .filter_map(SpanEvent::from_json)
        .collect()
}

/// A client-supplied trace id must thread the whole path: HTTP root →
/// admission → per-item predict/prepare/featcache — all
/// recoverable from the flight recorder with the same trace id, which
/// the response header echoes and the audit record carries.
#[test]
fn traced_predict_yields_one_connected_trace() {
    let server = start_server(ServeConfig::default());
    let mut client = connect(&server);

    let (sink, lines) = obs::sink::MemorySink::new();
    obs::global().set_audit_sink(Some(Box::new(sink)));
    let trace_id: u64 = 0xfeed_c0de_1234;
    let resp = client
        .request(
            "POST",
            "/v1/scouts/PhyNet/predict",
            &[("X-Trace-Id", "feedc0de1234")],
            INCIDENT.as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());

    // The response echoes the trace id it served under.
    let echoed = resp.header("X-Trace-Id").expect("X-Trace-Id echoed");
    assert_eq!(obs::trace::parse_hex(echoed), Some(trace_id));

    // The audit record carries the same trace id as the HTTP header.
    let incident = Value::parse(&resp.body_text())
        .and_then(|v| v.get("incident").and_then(Value::as_f64))
        .expect("incident id in predict response") as u64;
    obs::global().set_audit_sink(None);
    let audit = lines
        .lock()
        .unwrap()
        .iter()
        .filter_map(|l| obs::AuditRecord::from_json(l))
        .find(|r| r.trace_id == trace_id && r.model_version != 0)
        .expect("versioned audit record under the header's trace id");
    // Keyed by trace, not incident: another test's server in this
    // process hands out the same incident ids into the same global sink.
    assert_eq!(audit.incident, incident, "audit trace != header trace");

    // Poll briefly so the assertion isn't racing a microsecond-scale
    // guard drop.
    let mut spans = Vec::new();
    for _ in 0..100 {
        spans = flight_spans(&mut client);
        if spans.iter().any(|s| s.trace == trace_id) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let ours: Vec<&SpanEvent> = spans.iter().filter(|s| s.trace == trace_id).collect();
    let names: BTreeSet<&str> = ours.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "serve.request",
        "serve.admission",
        "scout.prepare.item",
        "scout.predict",
    ] {
        assert!(
            names.contains(expected),
            "span {expected:?} missing from trace; got {names:?}"
        );
    }

    // Exactly one root, and admission hangs off it.
    let roots: Vec<_> = ours
        .iter()
        .filter(|s| s.name == "serve.request" && s.parent == 0)
        .collect();
    assert_eq!(roots.len(), 1, "expected one serve.request root");
    let root_id = roots[0].id;
    assert!(
        ours.iter()
            .any(|s| s.name == "serve.admission" && s.parent == root_id),
        "admission span not parented to the HTTP root"
    );

    // Connectivity: every span in the trace reaches the root — each
    // parent is 0 or another span of the same trace.
    let ids: BTreeSet<u64> = ours.iter().map(|s| s.id).collect();
    for s in &ours {
        assert!(
            s.parent == 0 || ids.contains(&s.parent),
            "span {} (id {}) is orphaned: parent {} not in trace",
            s.name,
            s.id,
            s.parent
        );
    }
}

/// Serializes the tests that install a global trace sink.
static SINK_LOCK: Mutex<()> = Mutex::new(());

/// Under concurrent traced predicts racing a hot-swap reload and a
/// shutdown drain, every span of every traced request must still chain
/// to its root — nothing orphaned, including jobs drained out of a
/// partial batch at shutdown.
#[test]
fn no_span_orphaned_under_hot_swap_and_shutdown_drain() {
    let _guard = SINK_LOCK.lock().unwrap();

    // Server whose models come from a directory, so reload works. Waves
    // of 3 never fill a batch of 32; shutdown mid-stream may catch jobs
    // queued behind the batch in flight (the drain path).
    let dir = std::env::temp_dir().join(format!("serve-tracing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("PhyNet.scout"), trained_model_text()).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.load_dir(&dir).expect("initial load");
    let engine = Engine::new(registry, small_workload()).with_model_dir(dir.clone());
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let (sink, lines) = obs::sink::MemorySink::new();
    obs::global().set_trace_sink(Some(Box::new(sink)));

    // 3 clients predicting back to back until shutdown closes their
    // connection, each request under its own client-supplied trace id
    // (always sampled). Some race the reload; the last are served,
    // drained (503) or never reach the server. Each thread reports which
    // of its requests were actually answered.
    let base: u64 = 0x7ab0_0000;
    let clients: Vec<_> = (0..3u64)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut answered = Vec::new();
                for r in 0..0x1_0000u64 {
                    let trace = base + c * 0x1_0000 + r;
                    let id = obs::trace::hex(trace);
                    let Ok(resp) = client.request(
                        "POST",
                        "/v1/scouts/PhyNet/predict",
                        &[("X-Trace-Id", id.as_str())],
                        INCIDENT.as_bytes(),
                    ) else {
                        break; // connection closed by shutdown
                    };
                    // 200 (served) or 503 (drained at shutdown) only.
                    assert!(
                        resp.status == 200 || resp.status == 503,
                        "unexpected status {}",
                        resp.status
                    );
                    answered.push(trace);
                }
                answered
            })
        })
        .collect();

    // Race a hot-swap against the in-flight predicts, then shut down.
    std::thread::sleep(Duration::from_millis(150));
    let mut ctl = Client::connect(&addr).unwrap();
    assert_eq!(
        ctl.post_json("/v1/models/reload", "{}").unwrap().status,
        200
    );
    std::thread::sleep(Duration::from_millis(500));
    server.shutdown();
    let answered: BTreeSet<u64> = clients
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    obs::global().set_trace_sink(None);
    assert!(
        answered.len() >= 3,
        "expected at least the first wave answered, got {answered:?}"
    );

    let spans: Vec<SpanEvent> = lines
        .lock()
        .unwrap()
        .iter()
        .filter_map(|l| SpanEvent::from_json(l))
        .collect();

    // Every answered request produced spans, and every span of every
    // one of those traces chains to a root within its own trace.
    let our_traces = answered;
    let seen: BTreeSet<u64> = spans
        .iter()
        .filter(|s| our_traces.contains(&s.trace))
        .map(|s| s.trace)
        .collect();
    assert_eq!(
        seen, our_traces,
        "some answered requests left no spans behind"
    );
    for &trace in &our_traces {
        let ours: Vec<&SpanEvent> = spans.iter().filter(|s| s.trace == trace).collect();
        let ids: BTreeSet<u64> = ours.iter().map(|s| s.id).collect();
        assert!(
            ours.iter().any(|s| s.parent == 0),
            "trace {trace:#x} has no root span"
        );
        for s in &ours {
            assert!(
                s.parent == 0 || ids.contains(&s.parent),
                "orphaned span {} (id {}, trace {trace:#x}): parent {} not in trace",
                s.name,
                s.id,
                s.parent
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}
