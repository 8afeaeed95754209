//! The feedback → lifecycle trace hop: a `POST /v1/feedback` carrying
//! `X-Trace-Id` is ingested on the lifecycle worker thread under that
//! trace, so the worker's `lifecycle.feedback` span joins the reporting
//! request's trace in the flight recorder — not the trace of the predict
//! that served the incident.
//!
//! The flight recorder is process-global, so this is a test binary of
//! its own.

use cloudsim::{SimDuration, Team};
use incident::{Workload, WorkloadConfig};
use lifecycle::{LifecycleConfig, LifecycleHandle};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use obs::json::Value;
use obs::span::SpanEvent;
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use serve::{Client, Engine, ModelRegistry, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn feedback_ingestion_runs_under_the_feedback_requests_trace() {
    let mut config = WorkloadConfig {
        seed: 7,
        ..WorkloadConfig::default()
    };
    config.faults.faults_per_day = 2.0;
    config.faults.horizon = SimDuration::days(20);
    let world = Arc::new(Workload::generate(config));
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let examples: Vec<Example> = world
        .incidents
        .iter()
        .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
        .collect();
    let build = ScoutBuildConfig {
        forest: ForestConfig {
            n_trees: 4,
            ..ForestConfig::default()
        },
        cluster_train_cap: 10,
        ..ScoutBuildConfig::default()
    };
    let (scout, _) = Scout::train(ScoutConfig::phynet(), build.clone(), &examples, &mon);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("PhyNet", scout, "test").unwrap();
    let handle = LifecycleHandle::start(
        LifecycleConfig::new("PhyNet", ScoutConfig::phynet(), build),
        Arc::clone(&registry),
        Arc::new(world.topology.clone()),
        Arc::new(world.faults.clone()),
        MonitoringConfig::default(),
        None,
    );
    let engine = Engine::new(registry, Arc::clone(&world)).with_feedback_hook(handle.clone());
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();

    let (predict_trace, feedback_trace) = (0x0a11_ce00_0001_u64, 0x0b0b_fee0_0002_u64);
    let resp = client
        .request(
            "POST",
            "/v1/scouts/PhyNet/predict",
            &[("X-Trace-Id", obs::trace::hex(predict_trace).as_str())],
            br#"{"text":"Switch agg-3 in c1.dc1 reporting CRC errors and packet loss"}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let incident = Value::parse(&resp.body_text())
        .and_then(|v| v.get("incident").and_then(Value::as_f64))
        .expect("incident id in predict response") as u64;
    let body = format!(r#"{{"incident":{incident},"team":"PhyNet"}}"#);
    let resp = client
        .request(
            "POST",
            "/v1/feedback",
            &[("X-Trace-Id", obs::trace::hex(feedback_trace).as_str())],
            body.as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());

    // The worker ingests asynchronously: poll the flight recorder.
    let deadline = Instant::now() + Duration::from_secs(2);
    let traces = loop {
        let traces: Vec<u64> = obs::flight()
            .snapshot()
            .iter()
            .filter_map(|l| SpanEvent::from_json(l))
            .filter(|s| s.name == "lifecycle.feedback")
            .map(|s| s.trace)
            .collect();
        if !traces.is_empty() || Instant::now() >= deadline {
            break traces;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        traces,
        vec![feedback_trace],
        "one lifecycle.feedback span, under the feedback request's trace"
    );
    server.shutdown();
    handle.stop();
}
