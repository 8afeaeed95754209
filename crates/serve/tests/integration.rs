//! End-to-end tests against a live server on an ephemeral port: protocol
//! basics, predict/route round-trips, deterministic load-shedding and
//! deadlines, and the hot-swap guarantee (concurrent predicts during a
//! reload all succeed and each is attributable to exactly one version).

use obs::json::Value;
use serve::{Client, Engine, ModelRegistry, ServeConfig, Server};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{small_workload, test_scout, trained_model_text};

/// A server with one registered PhyNet model and the given config.
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

#[test]
fn health_ready_metrics_and_protocol_basics() {
    let server = start_server(ServeConfig::default());
    let mut client = connect(&server);

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body_text().contains("\"ok\""));

    let ready = client.get("/readyz").unwrap();
    assert_eq!(ready.status, 200);
    assert!(ready.body_text().contains("PhyNet"));

    // Keep-alive: the same connection answers multiple requests.
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);

    assert_eq!(client.get("/no/such/endpoint").unwrap().status, 404);
    assert_eq!(
        client
            .request("DELETE", "/healthz", &[], b"")
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        client
            .post_json("/v1/route", "this is not json")
            .unwrap()
            .status,
        400
    );
    assert_eq!(client.post_json("/v1/route", "{}").unwrap().status, 400);
}

#[test]
fn readyz_is_503_with_no_models() {
    let engine = Engine::new(Arc::new(ModelRegistry::new()), small_workload());
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = connect(&server);
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    assert_eq!(client.get("/readyz").unwrap().status, 503);
}

#[test]
fn predict_round_trip_and_unknown_team() {
    let server = start_server(ServeConfig::default());
    let mut client = connect(&server);

    let resp = client
        .post_json("/v1/scouts/PhyNet/predict", INCIDENT)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let value = Value::parse(&resp.body_text()).expect("JSON body");
    assert_eq!(value.get("team").and_then(Value::as_str), Some("PhyNet"));
    assert!(value.get("verdict").and_then(Value::as_str).is_some());
    let confidence = value.get("confidence").and_then(Value::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&confidence));
    assert_eq!(
        value.get("model_version").and_then(Value::as_f64),
        Some(1.0)
    );

    // Team lookup is case-insensitive…
    assert_eq!(
        client
            .post_json("/v1/scouts/phynet/predict", INCIDENT)
            .unwrap()
            .status,
        200
    );
    // …but an unregistered team is a 404.
    assert_eq!(
        client
            .post_json("/v1/scouts/Atlantis/predict", INCIDENT)
            .unwrap()
            .status,
        404
    );
}

#[test]
fn batched_responses_match_sequential_ones() {
    // A burst of identical concurrent requests, each computed on its
    // own connection's thread: every response must be byte-identical to
    // the sequential answer. This is the over-HTTP smoke of the
    // determinism-under-concurrency contract; the scout-level
    // `predict_many` ≡ `predict` test compares bit for bit.
    let server = start_server(ServeConfig::default());
    let sequential = connect(&server)
        .post_json("/v1/scouts/PhyNet/predict", INCIDENT)
        .unwrap();
    assert_eq!(sequential.status, 200);
    // Responses differ only in the server-assigned incident id; the
    // prediction payload must be bit-identical.
    let strip_incident = |body: &str| -> String {
        let v = Value::parse(body).expect("JSON body");
        assert!(v.get("incident").and_then(Value::as_f64).is_some());
        let mut obj = obs::json::Obj::new();
        for key in [
            "team",
            "model_version",
            "verdict",
            "confidence",
            "model",
            "components",
            "evidence",
        ] {
            obj = obj.raw(key, &format!("{:?}", v.get(key).expect(key)));
        }
        obj.finish()
    };
    let sequential_answer = strip_incident(&sequential.body_text());

    let addr = server.addr().to_string();
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client
                    .post_json("/v1/scouts/PhyNet/predict", INCIDENT)
                    .unwrap()
            })
        })
        .collect();
    for h in handles {
        let resp = h.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            strip_incident(&resp.body_text()),
            sequential_answer,
            "batched answer diverged"
        );
    }
}

#[test]
fn route_aggregates_scout_answers() {
    let server = start_server(ServeConfig::default());
    let mut client = connect(&server);
    let resp = client.post_json("/v1/route", INCIDENT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let value = Value::parse(&resp.body_text()).expect("JSON body");
    let decision = value.get("decision").and_then(Value::as_str).unwrap();
    assert!(decision == "send_to" || decision == "fallback");
    let answers = value.get("answers").and_then(Value::as_arr).unwrap();
    assert_eq!(answers.len(), 1, "one registered Scout, one answer");
    assert_eq!(
        answers[0].get("team").and_then(Value::as_str),
        Some("PhyNet")
    );
}

#[test]
fn expired_deadline_is_504() {
    let server = start_server(ServeConfig::default());
    let mut client = connect(&server);
    let resp = client
        .request(
            "POST",
            "/v1/scouts/PhyNet/predict",
            &[("X-Deadline-Ms", "0")],
            INCIDENT.as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body_text());
    // A generous deadline is honoured.
    let resp = client
        .request(
            "POST",
            "/v1/scouts/PhyNet/predict",
            &[("X-Deadline-Ms", "30000")],
            INCIDENT.as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
}

#[test]
fn shutdown_drains_partial_batch() {
    // Requests that never fill a batch, and a shutdown that may catch
    // any of them queued, in flight or already answered: every one must
    // be answered — 200 from its batch or 503 shed by the drain —
    // promptly, never dropped.
    let server = start_server(ServeConfig::default());
    let addr = server.addr().to_string();
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client
                    .post_json("/v1/scouts/PhyNet/predict", INCIDENT)
                    .unwrap()
            })
        })
        .collect();
    // Let all three connect; where each then is in the pipeline is the
    // server's business — the invariant holds at every point.
    std::thread::sleep(Duration::from_millis(300));

    let started = std::time::Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "shutdown must be prompt (took {elapsed:?})"
    );

    for h in clients {
        let resp = h.join().unwrap();
        assert!(
            resp.status == 200 || resp.status == 503,
            "queued request must be answered or shed, got {}: {}",
            resp.status,
            resp.body_text()
        );
    }
}

#[test]
fn reload_is_409_without_model_dir() {
    let server = start_server(ServeConfig::default());
    let mut client = connect(&server);
    assert_eq!(
        client.post_json("/v1/models/reload", "{}").unwrap().status,
        409
    );
}

#[test]
fn hot_swap_under_concurrent_predicts() {
    // Server whose models come from a directory, so reload works.
    let dir = std::env::temp_dir().join(format!("serve-hotswap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("PhyNet.scout"), trained_model_text()).unwrap();

    let registry = Arc::new(ModelRegistry::new());
    let initial = registry.load_dir(&dir).expect("initial load");
    assert_eq!(initial.len(), 1);
    let v1 = initial[0].1;
    let engine = Engine::new(registry, small_workload()).with_model_dir(dir.clone());
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let version_of = |resp: &serve::ClientResponse| -> u64 {
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        Value::parse(&resp.body_text())
            .and_then(|v| v.get("model_version").and_then(Value::as_f64))
            .expect("model_version field") as u64
    };

    // Phase 1: before the reload, everything is v1.
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..3 {
        let resp = client
            .post_json("/v1/scouts/PhyNet/predict", INCIDENT)
            .unwrap();
        assert_eq!(version_of(&resp), v1);
    }

    // Phase 2: predicts race the reload. Every one must succeed and be
    // attributable to exactly one of the two versions.
    let predictors: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                (0..6)
                    .map(|_| {
                        client
                            .post_json("/v1/scouts/PhyNet/predict", INCIDENT)
                            .unwrap()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let reload = client.post_json("/v1/models/reload", "{}").unwrap();
    assert_eq!(reload.status, 200, "{}", reload.body_text());
    let v2 = Value::parse(&reload.body_text())
        .and_then(|v| {
            v.get("reloaded")
                .and_then(Value::as_arr)
                .and_then(|arr| arr[0].get("version").and_then(Value::as_f64))
        })
        .expect("reloaded version") as u64;
    assert!(v2 > v1);

    let mut seen = std::collections::BTreeSet::new();
    for h in predictors {
        for resp in h.join().unwrap() {
            let v = version_of(&resp);
            assert!(
                v == v1 || v == v2,
                "response attributed to unknown version {v} (expected {v1} or {v2})"
            );
            seen.insert(v);
        }
    }
    assert!(!seen.is_empty());

    // Phase 3: after the reload, everything is v2.
    for _ in 0..3 {
        let resp = client
            .post_json("/v1/scouts/PhyNet/predict", INCIDENT)
            .unwrap();
        assert_eq!(version_of(&resp), v2);
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn readyz_reports_model_versions() {
    let server = start_server(ServeConfig::default());
    let mut client = connect(&server);
    let ready = client.get("/readyz").unwrap();
    assert_eq!(ready.status, 200);
    let value = Value::parse(&ready.body_text()).expect("JSON body");
    let models = value.get("models").and_then(Value::as_arr).unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(
        models[0].get("team").and_then(Value::as_str),
        Some("PhyNet")
    );
    assert!(models[0].get("version").and_then(Value::as_f64).unwrap() >= 1.0);
}

#[test]
fn feedback_round_trip_dedup_and_hook() {
    use serve::{Feedback, FeedbackHook};
    use std::sync::Mutex;

    struct Capture(Mutex<Vec<Feedback>>);
    impl FeedbackHook for Capture {
        fn on_feedback(&self, event: Feedback) {
            self.0.lock().unwrap().push(event);
        }
    }

    let hook = Arc::new(Capture(Mutex::new(Vec::new())));
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register("PhyNet", test_scout(), "test")
        .expect("register test model");
    let engine = Engine::new(registry, small_workload())
        .with_feedback_hook(Arc::clone(&hook) as Arc<dyn FeedbackHook>);
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = connect(&server);

    // A served prediction carries its incident id.
    let resp = client
        .post_json("/v1/scouts/PhyNet/predict", INCIDENT)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let value = Value::parse(&resp.body_text()).unwrap();
    let incident = value.get("incident").and_then(Value::as_f64).unwrap() as u64;
    assert!(incident >= 1);
    let predicted_responsible = value.get("verdict").and_then(Value::as_str) == Some("responsible");

    // Ground truth arrives: PhyNet resolved it.
    let fb = client
        .post_json(
            "/v1/feedback",
            &format!(r#"{{"incident":{incident},"team":"PhyNet"}}"#),
        )
        .unwrap();
    assert_eq!(fb.status, 200, "{}", fb.body_text());
    let fbv = Value::parse(&fb.body_text()).unwrap();
    assert_eq!(fbv.get("label_responsible"), Some(&Value::Bool(true)));

    // The hook saw exactly that labeled event.
    {
        let events = hook.0.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].incident, incident);
        assert_eq!(events[0].team, "PhyNet");
        assert!(events[0].label);
        assert_eq!(events[0].predicted, predicted_responsible);
        assert_eq!(events[0].model_version, 1);
    }

    // Second report for the same incident: 409, hook not called again.
    let dup = client
        .post_json(
            "/v1/feedback",
            &format!(r#"{{"incident":{incident},"team":"Storage"}}"#),
        )
        .unwrap();
    assert_eq!(dup.status, 409, "{}", dup.body_text());
    assert_eq!(hook.0.lock().unwrap().len(), 1);

    // Unknown incident: 404. Malformed: 400.
    assert_eq!(
        client
            .post_json("/v1/feedback", r#"{"incident":999999,"team":"PhyNet"}"#)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client
            .post_json("/v1/feedback", r#"{"team":"PhyNet"}"#)
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client
            .post_json("/v1/feedback", r#"{"incident":1}"#)
            .unwrap()
            .status,
        400
    );
}

#[test]
fn panicking_handler_gives_its_connection_slot_back() {
    use serve::{Feedback, FeedbackHook};

    struct Panics;
    impl FeedbackHook for Panics {
        fn on_feedback(&self, _: Feedback) {
            panic!("feedback hook fails");
        }
    }

    let registry = Arc::new(ModelRegistry::new());
    registry
        .register("PhyNet", test_scout(), "test")
        .expect("register test model");
    let engine = Engine::new(registry, small_workload()).with_feedback_hook(Arc::new(Panics));
    let config = ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config).unwrap();

    // The one slot: predict, then a feedback whose hook unwinds the
    // handler thread and drops the connection unanswered.
    let mut client = connect(&server);
    let resp = client
        .post_json("/v1/scouts/PhyNet/predict", INCIDENT)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let value = Value::parse(&resp.body_text()).unwrap();
    let incident = value.get("incident").and_then(Value::as_f64).unwrap() as u64;
    let killed = client.post_json(
        "/v1/feedback",
        &format!(r#"{{"incident":{incident},"team":"PhyNet"}}"#),
    );
    assert!(killed.is_err(), "the panicking handler answers nothing");
    drop(client);

    // The unwound handler releases its slot, so a fresh connection is
    // served. The retry covers the moment between the socket closing and
    // the slot coming back.
    let mut last = 0;
    for _ in 0..200 {
        last = connect(&server).get("/healthz").unwrap().status;
        if last == 200 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(last, 200, "the unwound handler leaked its connection slot");
}

#[test]
fn rollback_restores_prior_version_and_serving_follows() {
    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry
        .register("PhyNet", test_scout(), "first")
        .expect("register v1");
    let v2 = registry
        .register("PhyNet", test_scout(), "second")
        .expect("register v2");
    assert!(v2 > v1);
    assert_eq!(registry.version_of("PhyNet"), Some(v2));

    let engine = Engine::new(Arc::clone(&registry), small_workload());
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = connect(&server);
    let version_of_resp = |resp: &serve::ClientResponse| -> u64 {
        Value::parse(&resp.body_text())
            .and_then(|v| v.get("model_version").and_then(Value::as_f64))
            .expect("model_version") as u64
    };
    let resp = client
        .post_json("/v1/scouts/PhyNet/predict", INCIDENT)
        .unwrap();
    assert_eq!(version_of_resp(&resp), v2);

    // Roll back: serving returns to v1 with its original version number.
    let restored = registry.rollback("PhyNet").expect("one step of history");
    assert_eq!(restored, v1);
    let resp = client
        .post_json("/v1/scouts/PhyNet/predict", INCIDENT)
        .unwrap();
    assert_eq!(version_of_resp(&resp), v1);

    // History is one-deep: a second rollback fails.
    assert!(registry.rollback("PhyNet").is_err());

    // Pins block promotion but never recovery.
    registry.pin("PhyNet");
    assert!(registry
        .register("PhyNet", test_scout(), "blocked")
        .is_err());
    registry.unpin("PhyNet");
    let v3 = registry
        .register("PhyNet", test_scout(), "third")
        .expect("register after unpin");
    assert!(v3 > v2);
    assert_eq!(registry.rollback("PhyNet").unwrap(), v1);
}
