//! CPD+ evidence is gathered by the path that reads it: a batch the
//! selector hands entirely to the forest must run no change-point
//! detection — no conservative check, no cluster row — however many of
//! its incidents name a few devices or only a cluster; and the cluster
//! row a CPD+ decision does need is produced then, once, into the
//! item's memo.
//!
//! The span histograms are process-global, so the tests take turns.

use cloudsim::{SimDuration, SimTime, Team, Topology, TopologyConfig};
use featcache::FeatCache;
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::scout::PreparedExample;
use scout::{Example, Extractor, ModelUsed, PathChoice, Scout, ScoutBuildConfig, ScoutConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn span_count(name: &str) -> u64 {
    obs::global()
        .metrics
        .histogram_summary(&format!("span.{name}"))
        .map_or(0, |s| s.count)
}

fn small_world() -> Workload {
    let mut world = WorkloadConfig {
        seed: 7,
        ..WorkloadConfig::default()
    };
    world.faults.faults_per_day = 2.0;
    world.faults.horizon = SimDuration::days(20);
    Workload::generate(world)
}

fn examples_of(world: &Workload) -> Vec<Example> {
    world
        .incidents
        .iter()
        .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
        .collect()
}

fn small_build() -> ScoutBuildConfig {
    ScoutBuildConfig {
        forest: ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        cluster_train_cap: 10,
        ..ScoutBuildConfig::default()
    }
}

#[test]
fn a_forest_routed_batch_records_no_change_point_detection() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let world = small_world();
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let examples = examples_of(&world);
    let config = ScoutConfig::phynet();
    let (scout, _) = Scout::train(config.clone(), small_build(), &examples, &mon);

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
    let cluster_only = batch
        .iter()
        .filter(|(text, _)| {
            let found = extractor.extract(text);
            found.device_count() == 0 && !found.clusters.is_empty()
        })
        .count();
    assert!(
        few_device > 0 && cluster_only > 0,
        "the batch must hold few-device and cluster-only incidents for this to mean anything"
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
    assert_eq!(
        span_count("scout.cpd.cluster_features"),
        0,
        "{cluster_only} cluster-only incidents went to the forest, yet their rows were made"
    );
}

/// A row producer that panics is that caller's failure and nobody
/// else's: the memo stays unset, the next caller produces the row, and
/// its answer is the uncached one. Teams of one fingerprint run the
/// identical producer over the identical plane, so the only way to fail
/// one caller here is to hand it a plane that cannot know the cluster.
#[test]
fn a_panicking_row_producer_leaves_the_memo_unset() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let world = small_world();
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let examples = examples_of(&world);
    let config = ScoutConfig::phynet();
    let (scout, offline) = Scout::train(config.clone(), small_build(), &examples, &mon);

    // A plane over a one-cluster topology: the incident's cluster id is
    // beyond its last component.
    let tiny = Topology::build(TopologyConfig {
        dcs: 1,
        clusters_per_dc: 1,
        ..TopologyConfig::default()
    });
    let blind = MonitoringSystem::new(&tiny, &[], MonitoringConfig::default());
    let extractor = Extractor::new(&config, &world.topology);
    let (ordinal, example) = examples
        .iter()
        .enumerate()
        .find(|(_, e)| {
            let found = extractor.extract(&e.text);
            found.device_count() == 0 && found.clusters.iter().any(|c| c.0 as usize >= tiny.len())
        })
        .expect("a cluster-only incident outside the tiny topology");

    let corpus = scout.prepare_inputs(&[(example.text.as_str(), example.time)], &mon, None, None);
    let item = &corpus.items[0];
    assert!(
        item.cluster_features.is_some(),
        "a cluster-only item has a memo"
    );
    assert_eq!(item.cluster_row(), None, "serving leaves the row to CPD+");

    let failed = catch_unwind(AssertUnwindSafe(|| {
        scout.predict_path(item, &blind, PathChoice::CpdOnly)
    }));
    assert!(
        failed.is_err(),
        "the blind plane cannot resolve the cluster"
    );
    assert_eq!(item.cluster_row(), None, "a failed producer fills nothing");

    let answered = scout.predict_path(item, &mon, PathChoice::CpdOnly);
    assert_eq!(answered.model, ModelUsed::CpdCluster);
    let memo_free = PreparedExample {
        cluster_features: None,
        ..item.clone()
    };
    let uncached = scout.predict_path(&memo_free, &mon, PathChoice::CpdOnly);
    assert_eq!(format!("{answered:?}"), format!("{uncached:?}"));
    // The row now in the memo is the row offline `prepare` forced.
    assert!(item.cluster_row().is_some());
    assert_eq!(item.cluster_row(), offline.items[ordinal].cluster_row());
}
