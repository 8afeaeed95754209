//! The versioned audit record a served predict writes to the audit sink
//! is the Scout's own record for that prediction, under a served
//! incident id and a model version: the spelling `obs::AuditRecord`
//! documents, the same confidence bits, the same `top_features`.
//!
//! The audit sink is process-global, so this is a test binary of its
//! own: no other test's records land in the sink read here.

use cloudsim::{SimDuration, Team};
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use obs::json::{Obj, Value};
use obs::AuditRecord;
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use serve::{Client, Engine, ModelRegistry, ServeConfig, Server};
use std::sync::Arc;

#[test]
fn served_audit_record_is_the_scouts_own_record_versioned() {
    let mut world = WorkloadConfig {
        seed: 7,
        ..WorkloadConfig::default()
    };
    world.faults.faults_per_day = 2.0;
    world.faults.horizon = SimDuration::days(20);
    let world = Arc::new(Workload::generate(world));
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let examples: Vec<Example> = world
        .incidents
        .iter()
        .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
        .collect();
    let build = ScoutBuildConfig {
        forest: ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        cluster_train_cap: 10,
        ..ScoutBuildConfig::default()
    };
    let (scout, _) = Scout::train(ScoutConfig::phynet(), build, &examples, &mon);
    let registry = Arc::new(ModelRegistry::new());
    let version = registry.register("PhyNet", scout, "test").unwrap();
    let engine = Engine::new(registry, Arc::clone(&world));
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();

    let (sink, lines) = obs::sink::MemorySink::new();
    obs::global().set_audit_sink(Some(Box::new(sink)));
    // The first incident of the world the forest answers, so its record
    // carries top features. Each predict runs under its own trace id.
    let (trace_id, incident) = examples
        .iter()
        .enumerate()
        .find_map(|(i, e)| {
            let trace_id = 0xa0d1_0000 + i as u64;
            let body = Obj::new()
                .str("text", &e.text)
                .uint("time_minutes", e.time.0)
                .finish();
            let hex = obs::trace::hex(trace_id);
            let resp = client
                .request(
                    "POST",
                    "/v1/scouts/PhyNet/predict",
                    &[("X-Trace-Id", hex.as_str())],
                    body.as_bytes(),
                )
                .unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_text());
            let value = Value::parse(&resp.body_text()).expect("JSON body");
            let incident = value.get("incident").and_then(Value::as_f64).unwrap() as u64;
            (value.get("model").and_then(Value::as_str) == Some("random_forest"))
                .then_some((trace_id, incident))
        })
        .expect("the forest answers some incident of the world");
    obs::global().set_audit_sink(None);

    // Each predict writes two records under its trace id: the Scout's
    // own (unversioned) and the served one (versioned).
    let records: Vec<AuditRecord> = lines
        .lock()
        .unwrap()
        .iter()
        .filter_map(|l| AuditRecord::from_json(l))
        .filter(|r| r.trace_id == trace_id)
        .collect();
    let own = records
        .iter()
        .find(|r| r.model_version == 0)
        .cloned()
        .expect("the Scout's own record");
    let served = records
        .iter()
        .find(|r| r.model_version != 0)
        .cloned()
        .expect("the versioned record in the sink");
    assert_eq!(served.model, "RandomForest");
    assert!(
        ["Responsible", "NotResponsible"].contains(&served.verdict.as_str()),
        "{}",
        served.verdict
    );
    assert!(!served.top_features.is_empty());
    assert_eq!(served.confidence.to_bits(), own.confidence.to_bits());
    assert_eq!(
        served,
        AuditRecord {
            incident,
            model_version: version,
            ..own
        },
        "the served record is the Scout's own record, versioned"
    );
}
