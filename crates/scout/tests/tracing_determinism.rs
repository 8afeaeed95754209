//! Tracing must be a pure observer: threading per-item trace contexts
//! through `parallel_map` (the hand-off a served predict makes) must
//! leave prepared features and predictions **bit-identical** — for any
//! worker count, any mix of traced/untraced items, and with or without
//! a feature cache. A context `enter` swaps thread-local state on the
//! worker; these properties pin down that the swap never leaks into the
//! computation.

use cloudsim::{SimDuration, Team};
use featcache::FeatCache;
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use obs::TraceContext;
use proptest::prelude::*;
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use std::sync::{Arc, OnceLock};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn small_workload() -> Arc<Workload> {
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

/// One PhyNet Scout trained on the small world, cached as model text.
fn trained_model_text() -> &'static str {
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

/// Per-item contexts from a traced/untraced mask: traced items get a
/// distinct always-sampled context (as a served request hands over), the
/// rest `TraceContext::NONE`.
fn contexts(mask: &[bool]) -> Vec<TraceContext> {
    mask.iter()
        .enumerate()
        .map(|(i, &traced)| {
            if traced {
                TraceContext::adopt(0x9000 + i as u64)
            } else {
                TraceContext::NONE
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Featurization through explicit pools: prepared output with trace
    /// contexts present (any traced/untraced mix, any worker count,
    /// cache or not) is bit-identical to the untraced sequential run.
    #[test]
    fn traced_prepare_is_bit_identical(
        picks in proptest::collection::vec(0usize..32, 1..6),
        mask in proptest::collection::vec(any::<bool>(), 6),
        use_cache in any::<bool>(),
    ) {
        let world = small_workload();
        let mon = MonitoringSystem::new(
            &world.topology, &world.faults, MonitoringConfig::default(),
        );
        let config = ScoutConfig::phynet();
        let build = ScoutBuildConfig::default();
        let examples: Vec<Example> = picks
            .iter()
            .map(|&p| {
                let inc = &world.incidents[p % world.incidents.len()];
                Example::new(inc.text(), inc.created_at, false)
            })
            .collect();
        let ctxs = contexts(&mask[..examples.len()]);

        let baseline = Scout::prepare_traced_on(
            &pool::Pool::new(1), &config, &build,
            &examples, &mon, None, None,
        );
        let reference = format!("{:?}", baseline.items);

        let cache = use_cache.then(|| FeatCache::new(8 << 20));
        for threads in WORKER_COUNTS {
            let traced = Scout::prepare_traced_on(
                &pool::Pool::new(threads), &config, &build,
                &examples, &mon, cache.as_ref(), Some(&ctxs),
            );
            prop_assert_eq!(
                format!("{:?}", traced.items), reference.clone(),
                "prepared output diverged at {} workers (cache: {})",
                threads, use_cache
            );
        }
    }

    /// The full predict path (the server's call): predictions with
    /// per-input contexts are bit-identical to the untraced call.
    #[test]
    fn traced_predictions_are_bit_identical(
        picks in proptest::collection::vec(0usize..32, 1..6),
        mask in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let world = small_workload();
        let mon = MonitoringSystem::new(
            &world.topology, &world.faults, MonitoringConfig::default(),
        );
        let scout = Scout::from_text(trained_model_text()).unwrap();
        let inputs: Vec<(String, cloudsim::SimTime)> = picks
            .iter()
            .map(|&p| {
                let inc = &world.incidents[p % world.incidents.len()];
                (inc.text(), inc.created_at)
            })
            .collect();
        let inputs: Vec<(&str, cloudsim::SimTime)> =
            inputs.iter().map(|(t, at)| (t.as_str(), *at)).collect();
        let ctxs = contexts(&mask[..inputs.len()]);

        let plain = scout.predict_many_cached(&inputs, &mon, None);
        let cache = FeatCache::new(8 << 20);
        let traced = scout.predict_many_traced(&inputs, &mon, Some(&cache), Some(&ctxs));
        prop_assert_eq!(
            format!("{traced:?}"), format!("{plain:?}"),
            "tracing changed predictions"
        );
    }
}
