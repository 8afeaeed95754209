//! Live ≡ recovered, over seeded schedules: a WAL-backed engine and
//! lifecycle controller for one team take a random mix of served
//! predictions, feedback (including unknown and duplicate incident
//! ids), promotions, rollbacks to a version, pins, epoch changes and
//! controller ticks. Afterwards the runtime's served log, the
//! controller's stream and phase, and the registry's versions, history
//! and pins must equal a from-genesis replay and a snapshot+tail replay;
//! a fresh engine and controller recovered from the same directory must
//! hold the same served log, stream, phase, pins and epoch (models
//! themselves live in the model directory, not the log).

use cloudsim::{SimDuration, SimTime, Team};
use incident::{Workload, WorkloadConfig};
use lifecycle::{DriftConfig, Feedback, LifecycleConfig, LifecycleController};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use obs::hash::splitmix64;
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use serve::{Engine, ModelRegistry};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use wal::{replay_dir, Projections, SyncPolicy, TeamLifecycle, Wal, WalConfig, HISTORY_CAP};

const SCHEDULES: u64 = 500;
const TEAM: &str = "PhyNet";

/// A seeded schedule generator: `obs::hash::splitmix64` iterated.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// A small world: the engine and the controller's monitoring
/// plane need one, nothing here classifies against it.
fn world() -> Arc<Workload> {
    static WORLD: OnceLock<Arc<Workload>> = OnceLock::new();
    WORLD
        .get_or_init(|| {
            let mut config = WorkloadConfig {
                seed: 11,
                ..WorkloadConfig::default()
            };
            config.faults.faults_per_day = 2.0;
            config.faults.horizon = SimDuration::days(20);
            Arc::new(Workload::generate(config))
        })
        .clone()
}

/// A tiny PhyNet Scout, trained once: publishing it is all a schedule
/// does with a model.
fn model_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let world = world();
        let mon =
            MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
        let examples: Vec<Example> = world
            .incidents
            .iter()
            .take(200)
            .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
            .collect();
        let config = ScoutConfig::phynet();
        let build = ScoutBuildConfig {
            forest: ForestConfig {
                n_trees: 2,
                ..ForestConfig::default()
            },
            cluster_train_cap: 4,
            ..ScoutBuildConfig::default()
        };
        let corpus = Scout::prepare(&config, &build, &examples, &mon);
        let train = corpus.trainable_indices();
        Scout::train_prepared(config, build, &corpus, &train, &mon).to_text()
    })
}

fn scout() -> Scout {
    Scout::from_text(model_text()).expect("model text round-trips")
}

/// A model directory holding one PhyNet model, for epoch changes.
fn model_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!(
            "lifecycle-live-recovered-models-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{TEAM}.scout")), model_text()).unwrap();
        dir
    })
}

fn wal_cfg(dir: &Path) -> WalConfig {
    let mut cfg = WalConfig::new(dir);
    cfg.sync = SyncPolicy::Os;
    cfg.segment_bytes = 4096;
    cfg.snapshot_every = 7;
    cfg
}

/// A controller that never arms a retrain (no bucket is ever populated
/// enough) but judges a probation on its first labeled example.
fn controller_cfg(store_cap: usize) -> LifecycleConfig {
    let mut cfg = LifecycleConfig::new(TEAM, ScoutConfig::phynet(), ScoutBuildConfig::default());
    cfg.drift = DriftConfig {
        min_bucket_samples: usize::MAX,
        ..DriftConfig::default()
    };
    cfg.probation = SimDuration::minutes(5);
    cfg.min_probation_samples = 1;
    cfg.store_cap = store_cap;
    cfg
}

/// One engine + controller over the log in `dir`, opened the way
/// `scoutctl serve --wal-dir --lifecycle` opens them.
struct Plane {
    engine: Engine,
    registry: Arc<ModelRegistry>,
    controller: LifecycleController,
}

fn open(dir: &Path, served_cap: usize, feedback_cap: usize) -> Plane {
    let wal = Arc::new(Wal::open(wal_cfg(dir)).unwrap());
    if wal.seq() == 0 {
        wal.append(&wal::Event::Init {
            served_cap: served_cap as u64,
            feedback_cap: feedback_cap as u64,
        })
        .unwrap();
    }
    let registry = Arc::new(ModelRegistry::new());
    let engine = Engine::new(Arc::clone(&registry), world()).with_wal(Arc::clone(&wal));
    let mut controller =
        LifecycleController::new(controller_cfg(feedback_cap), Arc::clone(&registry))
            .with_wal(Arc::clone(&wal));
    controller.restore_from(&wal.projections());
    Plane {
        engine,
        registry,
        controller,
    }
}

/// Everything a schedule must leave identical across live, replayed
/// and recovered state.
#[derive(Debug, PartialEq)]
struct Observed {
    served: wal::ServedState,
    stream: Vec<Feedback>,
    ingested: u64,
    lifecycle: TeamLifecycle,
    pinned: bool,
    epoch: u64,
}

impl Plane {
    fn observe(&self) -> Observed {
        Observed {
            served: self.engine.served.state(),
            stream: self.controller.store().iter().cloned().collect(),
            ingested: self.controller.store().total_ingested(),
            lifecycle: self.controller.lifecycle().clone(),
            pinned: self.registry.is_pinned(TEAM),
            epoch: self.registry.epoch(),
        }
    }
}

fn observe_replay(proj: &Projections) -> Observed {
    let slot = proj.registry.teams.get(TEAM).cloned().unwrap_or_default();
    Observed {
        served: proj.served.clone(),
        stream: proj.feedback.items.iter().cloned().collect(),
        ingested: proj.feedback.total,
        lifecycle: proj.lifecycle.get(TEAM).cloned().unwrap_or_default(),
        pinned: slot.pinned,
        epoch: proj.registry.epoch,
    }
}

/// The registry timeline as `(current, history)` versions.
fn timeline(proj: &Projections) -> (Option<u64>, Vec<u64>) {
    let slot = proj.registry.teams.get(TEAM).cloned().unwrap_or_default();
    (
        slot.models.current.map(|(v, _)| v),
        slot.models.history.iter().map(|(v, _)| *v).collect(),
    )
}

/// Run schedule `seed` against `plane`.
fn run_schedule(seed: u64, plane: &mut Plane, monitoring: &MonitoringSystem<'_>) {
    let mut rng = Rng::new(seed);
    let ops = 20 + rng.below(40);
    let burst_at = seed.is_multiple_of(4).then(|| rng.below(ops));
    let mut clock = 0u64;
    let promote = |plane: &Plane, source: String| {
        let _ = plane.registry.register(TEAM, scout(), &source);
    };
    for op in 0..ops {
        if burst_at == Some(op) {
            plane.registry.unpin(TEAM);
            for k in 0..HISTORY_CAP + 2 {
                promote(plane, format!("schedule-{seed}-burst-{k}"));
            }
        }
        match rng.below(100) {
            0..=34 => {
                clock += rng.below(20);
                // Prediction times wander behind the clock, so labeled
                // examples arrive out of time order.
                let time = SimTime(clock.saturating_sub(rng.below(8)));
                let version = plane.registry.version_of(TEAM).unwrap_or(0);
                plane.engine.record_served(
                    TEAM,
                    &format!("incident {op} of schedule {seed}"),
                    version,
                    rng.coin(),
                    rng.below(100) as f64 / 100.0,
                    time,
                );
            }
            35..=59 => {
                // Mostly the newest few incidents (fresh or duplicate),
                // else any id from 0 to past the counter (unknown or
                // evicted).
                let next = plane.engine.served.state().next_incident;
                let incident = if rng.below(4) == 0 {
                    rng.below(next + 2)
                } else {
                    next.saturating_sub(1 + rng.below(3))
                };
                let resolver = if rng.coin() {
                    Team::PhyNet
                } else {
                    Team::Storage
                };
                if let Ok(event) = plane.engine.resolve_served(incident, resolver.name()) {
                    plane.controller.ingest(event);
                }
            }
            60..=69 => promote(plane, format!("schedule-{seed}-op-{op}")),
            70..=77 => {
                let history = plane.registry.history_of(TEAM);
                let target = match history.len() as u64 {
                    0 => rng.below(5),
                    n => history[rng.below(n) as usize],
                };
                let _ = plane.registry.rollback_to(TEAM, Some(target));
            }
            78..=83 => {
                if plane.registry.is_pinned(TEAM) {
                    plane.registry.unpin(TEAM);
                } else {
                    plane.registry.pin(TEAM);
                }
            }
            84..=87 => {
                let _ = plane.registry.load_dir(model_dir());
            }
            _ => {
                clock += rng.below(40);
                plane.controller.tick(SimTime(clock), monitoring);
            }
        }
    }
}

#[test]
fn live_state_equals_replayed_and_recovered_state() {
    let world = world();
    let monitoring =
        MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let root =
        std::env::temp_dir().join(format!("lifecycle-live-recovered-{}", std::process::id()));
    let caps = [1usize, 2, 4];
    let (mut deep_timelines, mut snapshotted) = (0, 0);
    let mut kinds = std::collections::BTreeMap::<String, u64>::new();
    for seed in 0..SCHEDULES {
        let dir = root.join(format!("schedule-{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        let served_cap = caps[(seed % 3) as usize];
        let feedback_cap = caps[((seed / 3) % 3) as usize];

        let live = {
            let mut plane = open(&dir, served_cap, feedback_cap);
            run_schedule(seed, &mut plane, &monitoring);
            let versions = (
                plane.registry.version_of(TEAM),
                plane.registry.history_of(TEAM),
            );
            (plane.observe(), versions)
        };

        let genesis = replay_dir(&dir, None, false).unwrap();
        let snapshot = replay_dir(&dir, None, true).unwrap();
        for (how, proj) in [("genesis replay", &genesis), ("snapshot replay", &snapshot)] {
            assert_eq!(observe_replay(proj), live.0, "schedule {seed}: {how}");
            assert_eq!(timeline(proj), live.1, "schedule {seed}: {how} timeline");
        }
        assert_eq!(snapshot.render(), genesis.render(), "schedule {seed}");
        if genesis.counts.get("model_promoted") > Some(&(HISTORY_CAP as u64)) {
            deep_timelines += 1;
        }
        for (kind, n) in &genesis.counts {
            *kinds.entry(kind.clone()).or_default() += n;
        }

        let recovered = open(&dir, served_cap, feedback_cap);
        assert_eq!(recovered.observe(), live.0, "schedule {seed}: recovered");

        if std::fs::read_dir(&dir).unwrap().any(|e| {
            e.unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("snap-")
        }) {
            snapshotted += 1;
        }
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&root).ok();
    for kind in [
        "epoch_changed",
        "feedback_accepted",
        "model_pinned",
        "model_rolled_back",
        "probation_started",
        "probation_ended",
    ] {
        assert!(
            kinds.get(kind) > Some(&20),
            "too few {kind} events: {kinds:?}"
        );
    }
    assert!(
        deep_timelines > 50,
        "only {deep_timelines} schedules promoted past the history cap"
    );
    assert!(
        snapshotted > 250,
        "only {snapshotted} schedules wrote a snapshot"
    );
}
