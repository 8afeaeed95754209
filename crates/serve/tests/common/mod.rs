//! Fixtures the serve integration tests share: a small seed-7 world
//! (two faults a day over 20 days) and a CI-sized PhyNet Scout trained on
//! it, cached as model text so each test mints its own `Scout` cheaply.

use cloudsim::{SimDuration, Team};
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use std::sync::{Arc, OnceLock};

pub fn small_workload() -> Arc<Workload> {
    static WORLD: OnceLock<Arc<Workload>> = OnceLock::new();
    WORLD
        .get_or_init(|| {
            let mut config = WorkloadConfig {
                seed: 7,
                ..WorkloadConfig::default()
            };
            config.faults.faults_per_day = 2.0;
            config.faults.horizon = SimDuration::days(20);
            Arc::new(Workload::generate(config))
        })
        .clone()
}

pub fn trained_model_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let world = small_workload();
        let mon =
            MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
        let examples: Vec<Example> = world
            .incidents
            .iter()
            .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
            .collect();
        let config = ScoutConfig::phynet();
        let build = ScoutBuildConfig {
            forest: ForestConfig {
                n_trees: 8,
                ..ForestConfig::default()
            },
            cluster_train_cap: 10,
            ..ScoutBuildConfig::default()
        };
        let corpus = Scout::prepare(&config, &build, &examples, &mon);
        let train = corpus.trainable_indices();
        let scout = Scout::train_prepared(config, build, &corpus, &train, &mon);
        scout.to_text()
    })
}

pub fn test_scout() -> Scout {
    Scout::from_text(trained_model_text()).expect("cached model text round-trips")
}
