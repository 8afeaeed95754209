//! Closed-loop acceptance tests for the continual-learning controller.
//!
//! These replay `cloudsim`'s scripted drift (PFC storms appear after day
//! 150, overheat faults retire after day 120) against a model frozen
//! before the drift, with the controller in the loop:
//!
//! * `drift_recovery_beats_frozen_model` — the frozen model degrades,
//!   the controller detects it, retrains, shadow-gates, promotes, and
//!   the adaptive chain's post-promotion windowed MCC beats the frozen
//!   model's on the same replayed traffic.
//! * `poisoned_candidate_is_rejected_and_rolled_back` — a candidate
//!   trained on corrupted labels loses the shadow gate; an operator
//!   force-publishing such a model is caught by probation and rolled
//!   back automatically.
//! * `replay_is_bit_identical_across_reruns_and_worker_counts` — the
//!   whole loop is seed-deterministic: identical event logs and
//!   bit-identical MCCs across reruns and worker-pool sizes.

use cloudsim::{SimDuration, SimTime, Team};
use incident::{Incident, Workload, WorkloadConfig};
use lifecycle::{Feedback, LifecycleConfig, LifecycleController, LifecycleEvent};
use ml::forest::ForestConfig;
use ml::metrics::Confusion;
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use serve::ModelRegistry;
use std::sync::{Arc, OnceLock};

/// Day the frozen model's training data ends (well before the drift).
const FROZEN_TRAIN_DAYS: u64 = 100;
/// Replay horizon: long enough to cover both drift switches plus the
/// detection + probation lag.
const HORIZON_DAYS: u64 = 240;

/// The drifting world every test replays.
fn drift_world() -> Arc<Workload> {
    static WORLD: OnceLock<Arc<Workload>> = OnceLock::new();
    WORLD
        .get_or_init(|| {
            let mut config = WorkloadConfig {
                seed: 11,
                ..WorkloadConfig::default()
            };
            config.faults.faults_per_day = 2.5;
            config.faults.horizon = SimDuration::days(HORIZON_DAYS);
            config.faults.drift = true;
            Arc::new(Workload::generate(config))
        })
        .clone()
}

fn build_config() -> ScoutBuildConfig {
    ScoutBuildConfig {
        forest: ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        cluster_train_cap: 10,
        ..ScoutBuildConfig::default()
    }
}

fn monitoring(world: &Workload) -> MonitoringSystem<'_> {
    MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default())
}

fn is_phynet(incident: &Incident) -> bool {
    incident.owner == Team::PhyNet
}

/// Train a PhyNet Scout on the incidents created before `before`,
/// labeling each with `label`.
fn train_on_prefix(world: &Workload, before: SimTime, label: fn(&Incident) -> bool) -> Scout {
    let mon = monitoring(world);
    let examples: Vec<Example> = world
        .incidents
        .iter()
        .filter(|i| i.created_at < before)
        .map(|i| Example::new(i.text(), i.created_at, label(i)))
        .collect();
    let config = ScoutConfig::phynet();
    let build = build_config();
    let corpus = Scout::prepare(&config, &build, &examples, &mon);
    let train = corpus.trainable_indices();
    Scout::train_prepared(config, build, &corpus, &train, &mon)
}

/// The frozen pre-drift model, cached as text so every test (and every
/// determinism rerun) mints byte-identical copies.
fn frozen_model_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let world = drift_world();
        train_on_prefix(&world, SimTime::from_days(FROZEN_TRAIN_DAYS), is_phynet).to_text()
    })
}

fn frozen_scout() -> Scout {
    Scout::from_text(frozen_model_text()).expect("cached model text round-trips")
}

fn lifecycle_config() -> LifecycleConfig {
    LifecycleConfig::new("PhyNet", ScoutConfig::phynet(), build_config())
}

/// Everything a drift replay produces that the tests assert on.
struct Replay {
    log: Vec<String>,
    first_promotion: Option<SimTime>,
    final_version: Option<u64>,
    /// Post-promotion confusion of whatever the registry was serving
    /// (the adaptive chain), from the controller's own feedback stream.
    adaptive: Confusion,
    /// The frozen model replayed over the same post-promotion span.
    frozen: Confusion,
}

/// Serve the drifting world with the controller in the loop: predict
/// each tick-interval chunk with the *current* registry model, feed the
/// ground truth back, tick. After the replay, score the frozen model on
/// the same post-promotion traffic for the comparison.
fn drift_replay(workers: Option<Arc<pool::Pool>>) -> Replay {
    let world = drift_world();
    let mon = monitoring(&world);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register("PhyNet", frozen_scout(), "frozen-pre-drift")
        .expect("fresh registry has no pins");
    let mut controller = LifecycleController::new(lifecycle_config(), Arc::clone(&registry));
    if let Some(w) = workers {
        controller = controller.with_workers(w);
    }

    let end = SimTime::from_days(HORIZON_DAYS);
    let tick = SimDuration::days(5);
    let mut chunk_start = SimTime::from_days(FROZEN_TRAIN_DAYS);
    let mut ordinal = 0u64;
    while chunk_start < end {
        let chunk_end = SimTime((chunk_start.0 + tick.as_minutes()).min(end.0));
        let entry = registry.get("PhyNet").expect("model always registered");
        let batch: Vec<&Incident> = world
            .incidents
            .iter()
            .filter(|i| i.created_at >= chunk_start && i.created_at < chunk_end)
            .collect();
        let texts: Vec<String> = batch.iter().map(|i| i.text()).collect();
        let inputs: Vec<(&str, SimTime)> = texts
            .iter()
            .zip(&batch)
            .map(|(t, i)| (t.as_str(), i.created_at))
            .collect();
        let preds = entry
            .scout
            .predict_many_cached(&inputs, &mon, Some(&entry.feat_cache));
        for ((incident, text), pred) in batch.iter().zip(texts).zip(&preds) {
            ordinal += 1;
            controller.ingest(Feedback {
                incident: ordinal,
                team: "PhyNet".into(),
                text,
                time: incident.created_at,
                predicted: pred.says_responsible(),
                label: is_phynet(incident),
                model_version: entry.version,
            });
        }
        controller.tick(chunk_end, &mon);
        chunk_start = chunk_end;
    }

    let first_promotion = controller.events().iter().find_map(|e| match e {
        LifecycleEvent::Promoted { at, .. } => Some(*at),
        _ => None,
    });

    let mut frozen_conf = Confusion::default();
    let mut adaptive = Confusion::default();
    if let Some(promoted_at) = first_promotion {
        adaptive = controller.store().confusion_in(promoted_at, end);
        let frozen = frozen_scout();
        let batch: Vec<&Incident> = world
            .incidents
            .iter()
            .filter(|i| i.created_at >= promoted_at && i.created_at < end)
            .collect();
        let texts: Vec<String> = batch.iter().map(|i| i.text()).collect();
        let inputs: Vec<(&str, SimTime)> = texts
            .iter()
            .zip(&batch)
            .map(|(t, i)| (t.as_str(), i.created_at))
            .collect();
        for (incident, pred) in batch
            .iter()
            .zip(frozen.predict_many_cached(&inputs, &mon, None))
        {
            frozen_conf.record(is_phynet(incident), pred.says_responsible());
        }
    }

    Replay {
        log: controller.event_log(),
        first_promotion,
        final_version: registry.version_of("PhyNet"),
        adaptive,
        frozen: frozen_conf,
    }
}

#[test]
fn drift_recovery_beats_frozen_model() {
    let replay = drift_replay(None);
    let log = replay.log.join("\n");

    assert!(
        replay.log.iter().any(|l| l.contains("drift armed")),
        "the monitor must arm on the drift:\n{log}"
    );
    assert!(
        replay.log.iter().any(|l| l.contains("retrain started")),
        "an armed monitor must launch a retrain:\n{log}"
    );
    let promoted_at = replay
        .first_promotion
        .unwrap_or_else(|| panic!("a retrained candidate must win promotion:\n{log}"));
    assert!(
        promoted_at > SimTime::from_days(FROZEN_TRAIN_DAYS),
        "promotion happens during the replay, not before it"
    );
    assert!(
        replay.final_version.unwrap_or(0) > 1,
        "the registry must end up serving a promoted (post-v1) model:\n{log}"
    );

    // The point of the subsystem: on the same replayed traffic, the
    // adaptive chain must beat the model nobody retrained.
    let adaptive = replay.adaptive.mcc();
    let frozen = replay.frozen.mcc();
    assert!(
        replay.adaptive.total() >= 30,
        "need a meaningful post-promotion sample, got {}",
        replay.adaptive.total()
    );
    assert!(
        adaptive > frozen,
        "post-promotion MCC: adaptive {adaptive:.3} must beat frozen {frozen:.3}\n{log}"
    );
}

#[test]
fn replay_is_bit_identical_across_reruns_and_worker_counts() {
    let single = drift_replay(Some(Arc::new(pool::Pool::new(1))));
    let wide = drift_replay(Some(Arc::new(pool::Pool::new(3))));
    let wide_again = drift_replay(Some(Arc::new(pool::Pool::new(3))));

    assert_eq!(
        single.log, wide.log,
        "event log must not depend on worker count"
    );
    assert_eq!(wide.log, wide_again.log, "event log must be rerun-stable");
    assert_eq!(single.final_version, wide.final_version);
    assert_eq!(
        single.adaptive.mcc().to_bits(),
        wide.adaptive.mcc().to_bits(),
        "adaptive MCC must be bit-identical across worker counts"
    );
    assert_eq!(
        wide.adaptive.mcc().to_bits(),
        wide_again.adaptive.mcc().to_bits(),
        "adaptive MCC must be bit-identical across reruns"
    );
    assert_eq!(single.frozen.mcc().to_bits(), wide.frozen.mcc().to_bits());
}

/// Feed `days` of synthetic feedback built from real incidents:
/// `label` chooses the recorded ground truth, `predicted` what the
/// "serving model" supposedly said, `version` who said it.
fn feed_span(
    controller: &mut LifecycleController,
    world: &Workload,
    days: std::ops::Range<u64>,
    version: u64,
    label: fn(&Incident) -> bool,
    predicted: fn(&Incident) -> bool,
    ordinal: &mut u64,
) {
    let from = SimTime::from_days(days.start);
    let to = SimTime::from_days(days.end);
    for incident in world
        .incidents
        .iter()
        .filter(|i| i.created_at >= from && i.created_at < to)
    {
        *ordinal += 1;
        controller.ingest(Feedback {
            incident: *ordinal,
            team: "PhyNet".into(),
            text: incident.text(),
            time: incident.created_at,
            predicted: predicted(incident),
            label: label(incident),
            model_version: version,
        });
    }
}

#[test]
fn poisoned_candidate_is_rejected_and_rolled_back() {
    let world = drift_world();
    let mon = monitoring(&world);
    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry
        .register("PhyNet", frozen_scout(), "good-v1")
        .expect("fresh registry has no pins");
    let mut controller = LifecycleController::new(lifecycle_config(), Arc::clone(&registry));
    let mut ordinal = 0u64;

    // Phase 1 — a poisoned candidate loses the shadow gate. Days 0..50
    // carry label-flipped ground truth (a corrupted feedback pipeline):
    // every record looks mistaken, so the monitor arms, and the retrain
    // trains on garbage. Days 50..60 (the shadow window, held out of
    // training) carry the real labels, so the healthy live model wins
    // the out-of-sample comparison and the candidate is rejected.
    let flipped: fn(&Incident) -> bool = |i| !is_phynet(i);
    feed_span(
        &mut controller,
        &world,
        0..50,
        v1,
        flipped,
        is_phynet,
        &mut ordinal,
    );
    feed_span(
        &mut controller,
        &world,
        50..60,
        v1,
        is_phynet,
        flipped,
        &mut ordinal,
    );
    let events = controller.tick(SimTime::from_days(60), &mon);
    let log = controller.event_log().join("\n");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, LifecycleEvent::DriftArmed { .. })),
        "corrupted stream must arm the monitor:\n{log}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, LifecycleEvent::CandidateRejected { .. })),
        "the poisoned candidate must lose the shadow gate:\n{log}"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, LifecycleEvent::Promoted { .. })),
        "nothing may be promoted:\n{log}"
    );
    assert_eq!(
        registry.version_of("PhyNet"),
        Some(v1),
        "the live model must be untouched by a rejected candidate"
    );

    // Phase 2 — an operator force-publishes a poisoned model anyway.
    // First a healthy trailing window (v1 predicting correctly) sets a
    // high probation baseline…
    feed_span(
        &mut controller,
        &world,
        60..70,
        v1,
        is_phynet,
        is_phynet,
        &mut ordinal,
    );
    let poisoned = train_on_prefix(&world, SimTime::from_days(50), |i| !is_phynet(i));
    let v2 = registry
        .register("PhyNet", poisoned, "operator-override")
        .expect("no pins");
    let events = controller.tick(SimTime::from_days(70), &mon);
    assert!(
        events.iter().any(
            |e| matches!(e, LifecycleEvent::ExternalPromotion { version, .. } if *version == v2)
        ),
        "the controller must notice the out-of-band publish: {events:?}"
    );

    // …then the poisoned model's own served feedback is consistently
    // wrong, so probation ends in an automatic rollback to v1.
    feed_span(
        &mut controller,
        &world,
        70..81,
        v2,
        is_phynet,
        flipped,
        &mut ordinal,
    );
    let events = controller.tick(SimTime::from_days(81), &mon);
    let log = controller.event_log().join("\n");
    assert!(
        events.iter().any(
            |e| matches!(e, LifecycleEvent::RolledBack { from, to, .. } if *from == v2 && *to == v1)
        ),
        "probation must roll the poisoned model back:\n{log}"
    );
    assert_eq!(
        registry.version_of("PhyNet"),
        Some(v1),
        "serving must be restored to the good model"
    );
    let restored = registry.get("PhyNet").expect("model registered");
    assert_eq!(restored.source, "good-v1", "rollback restores the v1 entry");
}
