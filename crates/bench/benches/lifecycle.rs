//! Continual-learning hot paths, reported as `BENCH_lifecycle.json`.
//!
//! Three measurements, one per controller stage that runs often:
//!
//!  - `ingest` — [`lifecycle::FeedbackStore::push`] throughput on a
//!    partly out-of-order stream (the worst case for the time-ordered
//!    insert: operators resolve incidents out of order).
//!  - `drift` — one [`lifecycle::DriftMonitor::evaluate`] pass over the
//!    full store (bucketing + change-point detection); this runs on
//!    every controller tick.
//!  - `shadow` — one [`lifecycle::shadow_evaluate`] pass replaying a
//!    prepared shadow window through two models; this runs only when a
//!    retrain fires, but sits on the promotion critical path.

use bench::{bench_monitoring, min, reps_s, rounded, smoke, smoke_build, write_report};
use cloudsim::{SimDuration, SimTime, Team};
use incident::{Workload, WorkloadConfig};
use lifecycle::{DriftConfig, DriftMonitor, Feedback, FeedbackStore};
use monitoring::MonitoringSystem;
use obs::json::Obj;
use scout::{Example, Scout, ScoutConfig};

fn drift_world(smoke: bool) -> Workload {
    let mut config = WorkloadConfig {
        seed: 11,
        ..WorkloadConfig::default()
    };
    config.faults.faults_per_day = 2.0;
    config.faults.horizon = SimDuration::days(if smoke { 40 } else { 120 });
    config.faults.drift = true;
    Workload::generate(config)
}

/// Train a PhyNet Scout on the incidents before `before`.
fn train_prefix(world: &Workload, mon: &MonitoringSystem<'_>, before: SimTime) -> Scout {
    let examples: Vec<Example> = world
        .incidents
        .iter()
        .filter(|i| i.created_at < before)
        .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
        .collect();
    let config = ScoutConfig::phynet();
    let build = smoke_build();
    let corpus = Scout::prepare(&config, &build, &examples, mon);
    let train = corpus.trainable_indices();
    Scout::train_prepared(config, build, &corpus, &train, mon)
}

/// A stream of `n` labeled feedback items, one every 7 minutes, with
/// every fourth item arriving two hours late (out of order).
fn feedback_stream(n: usize) -> Vec<Feedback> {
    (0..n)
        .map(|i| {
            let minute = 7 * i as u64;
            let skew = if i % 4 == 0 { 120 } else { 0 };
            Feedback {
                incident: i as u64 + 1,
                team: "PhyNet".into(),
                text: format!("incident {i} on tor-{}.c1.dc1", i % 6),
                time: SimTime(minute.saturating_sub(skew)),
                predicted: i % 3 == 0,
                label: i % 5 == 0,
                model_version: 1,
            }
        })
        .collect()
}

fn main() {
    let smoke = smoke();
    let (n_feedback, reps) = if smoke { (5_000, 3) } else { (50_000, 5) };

    // Ingest: the store bound equals the stream length so nothing is
    // evicted and every push pays the ordered-insert search.
    let stream = feedback_stream(n_feedback);
    let ingest_s = min(&reps_s(reps, || {
        let mut store = FeedbackStore::new(n_feedback);
        for fb in &stream {
            store.push(fb.clone());
        }
        store
    }));
    let ingest_per_s = n_feedback as f64 / ingest_s;

    // Drift: one evaluate pass over the populated store.
    let mut store = FeedbackStore::new(n_feedback);
    for fb in &stream {
        store.push(fb.clone());
    }
    let monitor = DriftMonitor::new(DriftConfig {
        bucket: SimDuration::hours(6),
        ..DriftConfig::default()
    });
    let now = SimTime(7 * n_feedback as u64);
    let drift_s = min(&reps_s(reps, || monitor.evaluate(&store, now)));
    let buckets = monitor.error_series(&store, now).len();

    // Shadow: replay a prepared window through a live and a candidate
    // model (trained on different prefixes so they genuinely differ).
    let world = drift_world(smoke);
    let mon = bench_monitoring(&world);
    let mid = SimTime::from_days(if smoke { 20 } else { 60 });
    let live = train_prefix(&world, &mon, mid);
    let candidate = train_prefix(
        &world,
        &mon,
        SimTime::from_days(if smoke { 40 } else { 120 }),
    );
    let shadow_examples: Vec<Example> = world
        .incidents
        .iter()
        .filter(|i| i.created_at >= mid)
        .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
        .collect();
    let config = ScoutConfig::phynet();
    let build = smoke_build();
    let corpus = Scout::prepare(&config, &build, &shadow_examples, &mon);
    let idx: Vec<usize> = (0..corpus.items.len()).collect();
    let shadow_s = min(&reps_s(reps, || {
        lifecycle::shadow_evaluate(&candidate, &live, &corpus, &idx, &mon)
    }));
    let shadow_per_s = idx.len() as f64 / shadow_s.max(1e-9);

    println!(
        "ingest    {:>9.1} feedback/s  ({} items, out-of-order mix)",
        ingest_per_s, n_feedback
    );
    println!(
        "drift     {:>9.3} ms/evaluate ({buckets} buckets)",
        drift_s * 1e3
    );
    println!(
        "shadow    {:>9.3} ms/eval     ({} samples, {:.1} samples/s)",
        shadow_s * 1e3,
        idx.len(),
        shadow_per_s
    );

    assert!(ingest_per_s > 10_000.0, "ingest unexpectedly slow");
    assert!(!idx.is_empty(), "shadow window must not be empty");

    let ingest = Obj::new()
        .uint("items", n_feedback as u64)
        .num("per_s", rounded(ingest_per_s, 1));
    let drift = Obj::new()
        .uint("buckets", buckets as u64)
        .num("evaluate_ms", rounded(drift_s * 1e3, 3));
    let shadow = Obj::new()
        .uint("samples", idx.len() as u64)
        .num("eval_ms", rounded(shadow_s * 1e3, 3))
        .num("samples_per_s", rounded(shadow_per_s, 1));
    write_report(
        "lifecycle",
        reps,
        Obj::new()
            .raw("ingest", &ingest.finish())
            .raw("drift", &drift.finish())
            .raw("shadow", &shadow.finish()),
    );
}
