//! CPD+ evidence is gathered by the path that reads it: a batch the
//! selector hands entirely to the forest must run no change-point
//! detection, however many of its incidents name a few devices.
//!
//! One test, one process: the span histograms are process-global.

use cloudsim::{SimDuration, SimTime, Team};
use featcache::FeatCache;
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::{Example, Extractor, ModelUsed, Scout, ScoutBuildConfig, ScoutConfig};

fn span_count(name: &str) -> u64 {
    obs::global()
        .metrics
        .histogram_summary(&format!("span.{name}"))
        .map_or(0, |s| s.count)
}

#[test]
fn a_forest_routed_batch_records_no_conservative_spans() {
    let mut world = WorkloadConfig {
        seed: 7,
        ..WorkloadConfig::default()
    };
    world.faults.faults_per_day = 2.0;
    world.faults.horizon = SimDuration::days(20);
    let world = Workload::generate(world);
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
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
    let (scout, _) = Scout::train(config.clone(), build, &examples, &mon);

    // The forest-routed incidents, found with collection still off.
    let all: Vec<(&str, SimTime)> = examples.iter().map(|e| (e.text.as_str(), e.time)).collect();
    let batch: Vec<(&str, SimTime)> = scout
        .predict_many(&all, &mon)
        .iter()
        .zip(&all)
        .filter(|(p, _)| p.model == ModelUsed::RandomForest)
        .map(|(_, &input)| input)
        .collect();
    let extractor = Extractor::new(&config, &world.topology);
    let few_device = batch
        .iter()
        .filter(|(text, _)| (1..=3).contains(&extractor.extract(text).device_count()))
        .count();
    assert!(
        few_device > 0,
        "the batch must hold few-device incidents for this to mean anything"
    );

    let cache = FeatCache::new(8 << 20);
    obs::enable();
    let preds = scout.predict_many_cached(&batch, &mon, Some(&cache));
    obs::disable();

    assert!(preds.iter().all(|p| p.model == ModelUsed::RandomForest));
    assert_eq!(span_count("scout.predict"), batch.len() as u64);
    assert_eq!(span_count("scout.predict.cpd"), 0);
    assert_eq!(
        span_count("scout.cpd.conservative"),
        0,
        "{few_device} few-device incidents went to the forest, yet CPD+ evidence was gathered"
    );
}
