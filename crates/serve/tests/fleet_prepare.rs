//! How much featurization and change-point detection one fleet pass
//! spends, read off the process-wide `scout.prepare.examples` counter
//! and `span.scout.cpd.cluster_features` histogram — which is why this
//! is a test binary of its own whose tests take turns ([`SERIAL`]): any
//! other test preparing or classifying in the same process would move
//! the counts under them.

use cloudsim::{SimDuration, SimTime, Team};
use featcache::FeatCache;
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::{Example, Extractor, ModelUsed, Prediction, Scout, ScoutBuildConfig, ScoutConfig};
use serve::{FleetConfig, ModelEntry, ScoutError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One test at a time: both read process-wide counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn small_workload() -> Workload {
    let mut config = WorkloadConfig {
        seed: 7,
        ..WorkloadConfig::default()
    };
    config.faults.faults_per_day = 2.0;
    config.faults.horizon = SimDuration::days(20);
    Workload::generate(config)
}

fn trained_model_text(world: &Workload) -> String {
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
    let corpus = Scout::prepare(&config, &build, &examples, &mon);
    let train = corpus.trainable_indices();
    Scout::train_prepared(config, build, &corpus, &train, &mon).to_text()
}

fn prepared_examples() -> u64 {
    obs::global()
        .metrics
        .counter_value("scout.prepare.examples")
        .unwrap_or(0)
}

fn lookups(entry: &ModelEntry) -> u64 {
    let stats = entry.feat_cache.stats();
    stats.hits + stats.misses
}

#[test]
fn a_pass_prepares_once_per_runnable_fingerprint() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let world = small_workload();
    let text = trained_model_text(&world);
    let short = text.replace("lookback_minutes 120\n", "lookback_minutes 90\n");
    assert_ne!(short, text);
    // Two fingerprints: A (120 min) leads with A1, B (90 min) with B1.
    let entries: Vec<Arc<ModelEntry>> = [
        ("A1", &text),
        ("B1", &short),
        ("A2", &text),
        ("B2", &short),
        ("A3", &text),
    ]
    .iter()
    .enumerate()
    .map(|(i, (team, text))| {
        Arc::new(ModelEntry {
            team: team.to_string(),
            version: i as u64 + 1,
            source: "test".into(),
            scout: Scout::from_text(text).expect("model text loads"),
            feat_cache: FeatCache::new(16 * 1024 * 1024),
        })
    })
    .collect();
    let inputs: Vec<(String, SimTime)> = world
        .incidents
        .iter()
        .take(5)
        .map(|i| (i.text(), i.created_at))
        .collect();
    let inputs: Vec<(&str, SimTime)> = inputs.iter().map(|(t, at)| (t.as_str(), *at)).collect();
    let n = inputs.len() as u64;
    let pass = |fail: &[&str], skip: &[&str], deadline: Option<Instant>| {
        let config = FleetConfig {
            shards: 2,
            suggestions: 3,
            fail_teams: fail.iter().map(|t| t.to_string()).collect(),
        };
        let skip: Vec<String> = skip.iter().map(|t| t.to_string()).collect();
        let before = prepared_examples();
        let outcomes = serve::fleet::dispatch_batch(
            &entries,
            &world,
            &MonitoringConfig::default(),
            &inputs,
            deadline,
            &config,
            &skip,
        );
        assert_eq!(outcomes.len(), inputs.len());
        (prepared_examples() - before, outcomes)
    };

    // The world and the model are built; from here on only passes prepare.
    obs::enable();

    // Five runnable teams, two fingerprints: two prepares of the batch.
    let (spent, outcomes) = pass(&[], &[], None);
    assert_eq!(spent, 2 * n, "once per fingerprint, not once per team");
    assert!(outcomes.iter().flatten().all(|o| o.result.is_ok()));
    // Each group read through its first member's cache and no other.
    let (a1, b1) = (lookups(&entries[0]), lookups(&entries[1]));
    assert!(a1 > 0 && b1 > 0);
    for follower in &entries[2..] {
        assert_eq!(lookups(follower), 0, "{}", follower.team);
    }

    // All of B sits out (one breaker-open, one injected): no B prepare.
    // A's lead sits out too, yet A still prepares — through A1's cache.
    let (spent, outcomes) = pass(&["B2"], &["B1", "A1"], None);
    assert_eq!(spent, n);
    assert_eq!(lookups(&entries[1]), b1, "B's cache was not read");
    assert!(lookups(&entries[0]) > a1, "A read through its lead's cache");
    for follower in &entries[2..] {
        assert_eq!(lookups(follower), 0, "{}", follower.team);
    }
    let errors: Vec<(&str, &ScoutError)> = outcomes[0]
        .iter()
        .filter_map(|o| Some((o.team.as_str(), o.result.as_ref().err()?)))
        .collect();
    assert_eq!(
        errors,
        [
            ("A1", &ScoutError::BreakerOpen),
            ("B1", &ScoutError::BreakerOpen),
            ("B2", &ScoutError::Injected),
        ]
    );

    // A lapsed deadline gates everyone: nothing is prepared at all.
    let (spent, outcomes) = pass(&[], &[], Some(Instant::now()));
    assert_eq!(spent, 0);
    assert!(outcomes
        .iter()
        .flatten()
        .all(|o| o.result.as_ref().err() == Some(&ScoutError::DeadlineExpired)));
}

fn span_count(name: &str) -> u64 {
    obs::global()
        .metrics
        .histogram_summary(&format!("span.{name}"))
        .map_or(0, |s| s.count)
}

/// The CPD+ cluster row is nobody's until somebody needs it, and then
/// everybody's: three teams of one fingerprint all send a cluster-only
/// incident down CPD+'s cluster branch, the pass detects change points
/// once, and each team's answer is the one its own uncached
/// `Scout::predict` — which prepares privately and produces its own row
/// — gives.
#[test]
fn a_pass_makes_a_cluster_row_once_for_all_the_teams_that_read_it() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let world = small_workload();
    let text = trained_model_text(&world);
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let entries: Vec<Arc<ModelEntry>> = ["A1", "A2", "A3"]
        .iter()
        .enumerate()
        .map(|(i, team)| {
            Arc::new(ModelEntry {
                team: team.to_string(),
                version: i as u64 + 1,
                source: "test".into(),
                scout: Scout::from_text(&text).expect("model text loads"),
                feat_cache: FeatCache::new(16 * 1024 * 1024),
            })
        })
        .collect();

    // The reference, and the incident: cluster-only, and handed to CPD+
    // by the selector. Each team's own eager, uncached predict.
    let config = ScoutConfig::phynet();
    let extractor = Extractor::new(&config, &world.topology);
    let (incident, expected): (_, Vec<Prediction>) = world
        .incidents
        .iter()
        .filter(|i| {
            let found = extractor.extract(&i.text());
            found.device_count() == 0 && !found.clusters.is_empty()
        })
        .find_map(|i| {
            let expected: Vec<Prediction> = entries
                .iter()
                .map(|e| e.scout.predict(&i.text(), i.created_at, &mon))
                .collect();
            (expected[0].model == ModelUsed::CpdCluster).then_some((i, expected))
        })
        .expect("the world holds a cluster-only incident its selector sends to CPD+");
    assert!(expected.iter().all(|p| p.model == ModelUsed::CpdCluster));

    obs::enable();
    let (rows, cpd_calls) = (
        span_count("scout.cpd.cluster_features"),
        span_count("scout.predict.cpd"),
    );
    let incident_text = incident.text();
    let outcomes = serve::fleet::dispatch_batch(
        &entries,
        &world,
        &MonitoringConfig::default(),
        &[(incident_text.as_str(), incident.created_at)],
        None,
        &FleetConfig {
            shards: 2,
            suggestions: 3,
            fail_teams: Vec::new(),
        },
        &[],
    );
    assert_eq!(span_count("scout.predict.cpd") - cpd_calls, 3);
    assert_eq!(
        span_count("scout.cpd.cluster_features") - rows,
        1,
        "three teams read the row; one of them made it"
    );
    assert_eq!(outcomes.len(), 1);
    for (outcome, want) in outcomes[0].iter().zip(&expected) {
        let got = &outcome
            .result
            .as_ref()
            .expect("every team answers")
            .prediction;
        assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", outcome.team);
    }
}
