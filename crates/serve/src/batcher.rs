//! Micro-batched inference: the predict handler of the serving plane's
//! [`Coalescer`].
//!
//! Predict requests from all connections land in one bounded job queue.
//! The coalescer's worker thread takes whatever queued while its previous
//! batch ran, up to `batch_size` (default 32; it bounds one batch's work,
//! so a burst is answered in installments rather than one long pass), and
//! never holds a job back for company; this module groups each batch by
//! team, resolves **one** model version per team-group, and runs one
//! pooled [`Scout::predict_many`] pass per group. Each item of that pass
//! is featurized and then classified by the same per-item body a single
//! `predict` runs, so the batched answers are bit-identical to what N
//! sequential `predict` calls would have produced — batching changes
//! throughput, never verdicts.
//!
//! Metrics: `serve.batch.occupancy` (histogram of jobs per batch),
//! `serve.batch.queue_wait_ms` (submit → batch start, per job),
//! `serve.deadline.expired` (requests that timed out in the queue).
//!
//! [`Scout::predict_many`]: scout::Scout::predict_many

use crate::coalesce::{Coalescer, Job, Window};
use crate::registry::ModelEntry;
use crate::server::{Engine, ServeConfig};
use cloudsim::SimTime;
use monitoring::MonitoringSystem;
use scout::Prediction;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One predict request as it queues.
pub(crate) struct PredictRequest {
    /// Team whose Scout should answer.
    pub team: String,
    /// Incident text.
    pub text: String,
    /// Incident creation time (simulated).
    pub time: SimTime,
}

pub(crate) type PredictJob = Job<PredictRequest, Answer>;

/// A completed prediction, attributable to exactly one model version.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Canonical team name (registry key; may differ in case from the
    /// request).
    pub team: String,
    /// Version of the model that produced this answer.
    pub model_version: u64,
    /// The Scout's prediction.
    pub prediction: Prediction,
}

/// Why a job did not produce an [`Answer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// No Scout registered under that team name.
    UnknownTeam(String),
    /// The job's deadline lapsed before it ran.
    DeadlineExpired,
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::UnknownTeam(t) => write!(f, "no Scout registered for team {t:?}"),
            PredictError::DeadlineExpired => write!(f, "request deadline expired in queue"),
            PredictError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// Start the predict batcher over `engine`'s registry, workload and live
/// monitoring config (a data set deprecated mid-stream takes effect on
/// the next batch).
pub(crate) fn start(
    engine: Arc<Engine>,
    config: &ServeConfig,
) -> Coalescer<PredictRequest, Answer> {
    let window = Window {
        thread: "serve-batcher",
        span: "serve.batch",
        occupancy: "serve.batch.occupancy",
        queue_wait: "serve.batch.queue_wait_ms",
        batch_size: config.batch_size,
    };
    Coalescer::start(window, move |jobs| run_batch(jobs, &engine))
}

fn run_batch(jobs: Vec<PredictJob>, engine: &Engine) {
    // Group by requested team so each group runs one pooled predict pass
    // against exactly one pinned model version.
    let mut groups: BTreeMap<String, Vec<PredictJob>> = BTreeMap::new();
    for job in jobs {
        groups.entry(job.input.team.clone()).or_default().push(job);
    }

    let monitoring = engine.monitoring_plane();

    for (team, group) in groups {
        match engine.registry.get(&team) {
            Some(entry) => run_group(group, &entry, &monitoring),
            None => {
                for job in group {
                    job.answer(Err(PredictError::UnknownTeam(team.clone())));
                }
            }
        }
    }
}

fn run_group(group: Vec<PredictJob>, entry: &ModelEntry, monitoring: &MonitoringSystem<'_>) {
    let inputs: Vec<(&str, SimTime)> = group
        .iter()
        .map(|j| (j.input.text.as_str(), j.input.time))
        .collect();
    let ctxs: Vec<obs::TraceContext> = group.iter().map(|j| j.ctx).collect();
    // The entry's chunk cache makes repeated predicts over overlapping
    // look-back windows skip telemetry generation; the monitoring epoch in
    // the chunk key keeps it exact across batches. Prepare then classify,
    // the same two halves a fleet pass runs per fingerprint and per team.
    let predictions =
        entry
            .scout
            .predict_many_traced(&inputs, monitoring, Some(&entry.feat_cache), Some(&ctxs));
    for (job, prediction) in group.into_iter().zip(predictions) {
        job.answer(Ok(Answer {
            team: entry.team.clone(),
            model_version: entry.version,
            prediction,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use cloudsim::{SimDuration, Team};
    use incident::{Workload, WorkloadConfig};
    use ml::forest::ForestConfig;
    use monitoring::MonitoringConfig;
    use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
    use std::sync::mpsc::Receiver;

    /// A small world and one PhyNet Scout trained on it.
    fn engine() -> Engine {
        let mut config = WorkloadConfig {
            seed: 7,
            ..WorkloadConfig::default()
        };
        config.faults.faults_per_day = 2.0;
        config.faults.horizon = SimDuration::days(20);
        let world = Workload::generate(config);
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
        let registry = ModelRegistry::new();
        registry
            .register("PhyNet", scout, "test")
            .expect("register test model");
        Engine::new(Arc::new(registry), Arc::new(world))
    }

    type Answered = Receiver<Result<Answer, PredictError>>;

    fn jobs(requests: &[(&'static str, String, SimTime)]) -> (Vec<PredictJob>, Vec<Answered>) {
        requests
            .iter()
            .map(|(team, text, time)| {
                Job::new(
                    PredictRequest {
                        team: team.to_string(),
                        text: text.clone(),
                        time: *time,
                    },
                    None,
                )
            })
            .unzip()
    }

    /// Every bit of an answer a response is rendered from.
    fn bits(answered: &Answered) -> String {
        match answered.recv().expect("job answered") {
            Ok(a) => format!(
                "{} v{} {:016x} {:?}",
                a.team,
                a.model_version,
                a.prediction.confidence.to_bits(),
                a.prediction
            ),
            Err(e) => format!("ERR {e}"),
        }
    }

    /// Batching changes how many jobs share a `MonitoringSystem` build,
    /// never an answer: whatever the coalescer happens to hand over as
    /// one batch reads the same as the same jobs handed over one by one.
    #[test]
    fn one_batch_of_n_answers_exactly_as_n_batches_of_one() {
        let engine = engine();
        let requests: Vec<(&'static str, String, SimTime)> = engine
            .workload
            .incidents
            .iter()
            .take(12)
            .enumerate()
            .map(|(i, incident)| {
                // Mixed spellings of the team (one group per spelling)
                // and one team nobody registered.
                let team = ["PhyNet", "phynet", "Atlantis"][i % 3];
                (team, incident.text(), incident.created_at)
            })
            .collect();

        let (batch, together) = jobs(&requests);
        run_batch(batch, &engine);
        let (singles, apart) = jobs(&requests);
        for job in singles {
            run_batch(vec![job], &engine);
        }

        let together: Vec<String> = together.iter().map(bits).collect();
        let apart: Vec<String> = apart.iter().map(bits).collect();
        assert_eq!(together, apart);
        assert!(together.iter().any(|a| a.starts_with("PhyNet v1 ")));
        assert!(together.iter().any(|a| a.starts_with("ERR ")));
    }
}
