//! A batch is classified by the per-item body and nothing else:
//! `Scout::classify` maps `Scout::predict_prepared` over the corpus, so
//! a mixed serving batch scores each forest row on its own (one
//! `scout.predict.forest` span apiece, no batch-matrix pass) and answers
//! exactly as its items would one at a time.
//!
//! The span histograms are process-global and cannot be reset, and
//! `cpd_on_demand.rs` asserts absolute counts, so this is a test binary
//! of its own.

use cloudsim::{SimDuration, Team};
use featcache::FeatCache;
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::{Example, ModelUsed, Scout, ScoutBuildConfig, ScoutConfig};

fn span_count(name: &str) -> u64 {
    obs::global()
        .metrics
        .histogram_summary(&format!("span.{name}"))
        .map_or(0, |s| s.count)
}

#[test]
fn a_mixed_batch_runs_the_per_item_body_once_per_item() {
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
    let build = ScoutBuildConfig {
        forest: ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        cluster_train_cap: 10,
        ..ScoutBuildConfig::default()
    };
    let (scout, _) = Scout::train(ScoutConfig::phynet(), build, &examples, &mon);

    // Every incident of the world, plus one an EXCLUDE rule vetoes and
    // one naming no component.
    let t = examples[0].time;
    let mut batch: Vec<(&str, _)> = examples.iter().map(|e| (e.text.as_str(), e.time)).collect();
    batch.insert(1, ("decommission of tor-0.c0.dc0\nplanned work", t));
    batch.insert(3, ("something vague happened somewhere", t));

    // The reference, with collection still off: each item through
    // `predict_prepared` on its own.
    let corpus = scout.prepare_inputs(&batch, &mon, None, None);
    let expected: Vec<_> = corpus
        .items
        .iter()
        .map(|item| scout.predict_prepared(item, &mon))
        .collect();
    let count = |m: &[ModelUsed]| expected.iter().filter(|p| m.contains(&p.model)).count();
    let forest = count(&[ModelUsed::RandomForest]);
    let routed = [
        forest,
        count(&[ModelUsed::CpdConservative, ModelUsed::CpdCluster]),
        count(&[ModelUsed::Exclusion]),
        count(&[ModelUsed::Fallback]),
    ];
    assert!(
        routed.iter().all(|&n| n > 0),
        "forest / CPD+ / excluded / component-free: {routed:?}"
    );

    let cache = FeatCache::new(8 << 20);
    let spans = [
        "scout.predict",
        "scout.predict.forest",
        "ml.forest.predict_batch",
    ];
    obs::enable();
    let before = spans.map(span_count);
    let got = scout.predict_many_cached(&batch, &mon, Some(&cache));
    let after = spans.map(span_count);
    obs::disable();

    assert_eq!(after[0] - before[0], batch.len() as u64);
    assert_eq!(
        after[1] - before[1],
        forest as u64,
        "one forest span per forest-routed item"
    );
    assert_eq!(after[2] - before[2], 0, "serving scores no feature matrix");
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g.verdict, e.verdict);
        assert_eq!(g.confidence.to_bits(), e.confidence.to_bits());
        assert_eq!(g.model, e.model);
        assert_eq!(
            format!("{:?}", g.explanation),
            format!("{:?}", e.explanation)
        );
    }
}
