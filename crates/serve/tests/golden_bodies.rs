//! Byte-level goldens for the control-plane bodies no other test pins:
//! `/readyz`, `/v1/wal/state`, reload, rollback and deprecate. None of
//! them depends on what the model predicts, so the literals only move
//! when the wire format does.

use cloudsim::SimDuration;
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use serve::{Client, Engine, ModelRegistry, ServeConfig, Server};
use std::sync::Arc;
use wal::{SyncPolicy, Wal, WalConfig};

#[test]
fn control_plane_bodies_are_byte_stable() {
    let mut config = WorkloadConfig {
        seed: 7,
        ..WorkloadConfig::default()
    };
    config.faults.faults_per_day = 2.0;
    config.faults.horizon = SimDuration::days(30);
    let world = Arc::new(Workload::generate(config));
    let model_text = {
        let mon =
            MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
        let examples: Vec<Example> = world
            .incidents
            .iter()
            .take(200)
            .map(|i| Example::new(i.text(), i.created_at, i.owner == cloudsim::Team::PhyNet))
            .collect();
        let config = ScoutConfig::phynet();
        let build = ScoutBuildConfig {
            forest: ForestConfig {
                n_trees: 2,
                ..ForestConfig::default()
            },
            cluster_train_cap: 10,
            ..ScoutBuildConfig::default()
        };
        let corpus = Scout::prepare(&config, &build, &examples, &mon);
        let train = corpus.trainable_indices();
        Scout::train_prepared(config, build, &corpus, &train, &mon).to_text()
    };
    let scout = || Scout::from_text(&model_text).expect("model text round-trips");

    let dir = std::env::temp_dir().join(format!("serve-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (wal_dir, model_dir) = (dir.join("wal"), dir.join("models"));
    std::fs::create_dir_all(&wal_dir).unwrap();
    std::fs::create_dir_all(&model_dir).unwrap();
    std::fs::write(model_dir.join("PhyNet.scout"), &model_text).unwrap();

    let mut wal_config = WalConfig::new(&wal_dir);
    wal_config.sync = SyncPolicy::Os;
    let wal = Arc::new(Wal::open(wal_config).unwrap());
    wal.append(&wal::Event::Init {
        served_cap: 8,
        feedback_cap: 8,
    })
    .unwrap();
    let registry = Arc::new(ModelRegistry::new());
    let engine = Engine::new(Arc::clone(&registry), world)
        .with_model_dir(model_dir.clone())
        .with_wal(Arc::clone(&wal));
    registry.register("PhyNet", scout(), "startup").unwrap();
    registry.register("PhyNet", scout(), "retrain").unwrap();
    registry.register("Storage", scout(), "startup").unwrap();
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let mut body = |method: &str, path: &str, json: &str| {
        let resp = client.request(method, path, &[], json.as_bytes()).unwrap();
        assert_eq!(resp.status, 200, "{method} {path}: {}", resp.body_text());
        resp.body_text().to_string()
    };

    // `slo` is sampled on a timer; everything before it is fixed.
    let ready = body("GET", "/readyz", "");
    let (fixed, slo) = ready.split_once("\"slo\":").expect("readyz carries slo");
    assert_eq!(
        fixed,
        concat!(
            r#"{"status":"ready","teams":["PhyNet","Storage"],"models":["#,
            r#"{"team":"PhyNet","version":2,"history":[1]},"#,
            r#"{"team":"Storage","version":3,"history":[]}],"epoch":0,"#,
        )
    );
    assert!(slo.starts_with('[') && slo.ends_with("]}"), "slo: {slo}");

    assert_eq!(
        body("POST", "/v1/models/rollback", r#"{"team":"PhyNet"}"#),
        r#"{"status":"rolled_back","team":"PhyNet","version":1,"history":[]}"#
    );
    assert_eq!(
        body("POST", "/v1/models/reload", "{}"),
        r#"{"reloaded":[{"team":"PhyNet","version":4}]}"#
    );
    assert_eq!(
        body(
            "POST",
            "/v1/monitoring/deprecate",
            r#"{"dataset":"temperature"}"#
        ),
        r#"{"status":"ok","disabled":["temperature"]}"#
    );
    assert_eq!(
        body(
            "POST",
            "/v1/monitoring/deprecate",
            r#"{"dataset":"canaries"}"#
        ),
        r#"{"status":"ok","disabled":["canaries","temperature"]}"#
    );
    assert_eq!(
        body(
            "POST",
            "/v1/monitoring/deprecate",
            r#"{"dataset":"canaries","restore":true}"#
        ),
        r#"{"status":"ok","disabled":["temperature"]}"#
    );
    // The reloaded version's source is the file it came from.
    let reloaded_from = model_dir.join("PhyNet.scout").display().to_string();
    assert_eq!(
        body("GET", "/v1/wal/state", ""),
        concat!(
            r#"{"seq":7,"projections":{"schema":1,"seq":7,"#,
            r#""served":{"next":1,"cap":8,"records":[]},"#,
            r#""feedback":{"cap":8,"total":0,"items":[]},"#,
            r#""registry":{"next_version":5,"epoch":1,"teams":["#,
            r#"{"team":"PhyNet","current":{"version":4,"source":"MODEL"},"pinned":false,"#,
            r#""history":[{"version":1,"source":"startup"}]},"#,
            r#"{"team":"Storage","current":{"version":3,"source":"startup"},"pinned":false,"#,
            r#""history":[]}]},"lifecycle":[],"#,
            r#""counts":{"epoch_changed":1,"init":1,"model_promoted":4,"model_rolled_back":1}}}"#,
        )
        .replace("MODEL", &reloaded_from)
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
