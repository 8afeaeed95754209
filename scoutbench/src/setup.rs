//! The fixed half of every workload: the world, the models, and the
//! serving plane under test. Nothing here depends on the traffic seed.

use crate::traffic::Mix;
use cloudsim::{DependencyGraph, SimDuration, Team};
use featcache::FeatCache;
use incident::{Workload, WorkloadConfig};
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use scoutmaster::FleetMaster;
use serve::{Engine, FleetConfig, ModelRegistry, ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use storm::{StormConfig, StormControl};
use wal::{Event, Wal, WalConfig};

/// Teams behind `/v1/route` in the routing mixes.
pub const FLEET_TEAMS: usize = 32;

/// The one world every workload runs in: seed 7, two faults a day.
pub fn generate_world(days: u64) -> Workload {
    let mut config = WorkloadConfig {
        seed: 7,
        ..WorkloadConfig::default()
    };
    config.faults.faults_per_day = 2.0;
    config.faults.horizon = SimDuration::days(days);
    Workload::generate(config)
}

/// Train what `scoutctl serve` would train for this mix and register it:
/// one PhyNet Scout for the predict mixes; for the routing mixes one
/// Scout per internal base team from a single shared featurization
/// pass, replicated to [`FLEET_TEAMS`] synthetic teams.
fn register_models(world: &Workload, mix: Mix, registry: &ModelRegistry) {
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let config = ScoutConfig::phynet();
    let build = ScoutBuildConfig::default();
    let examples: Vec<Example> = world
        .incidents
        .iter()
        .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
        .collect();
    let cache = FeatCache::new(serve::registry::DEFAULT_FEAT_CACHE_BYTES);
    let corpus = Scout::prepare_cached(&config, &build, &examples, &mon, Some(&cache));
    if !mix.is_route() {
        let train = corpus.trainable_indices();
        let scout = Scout::train_prepared(config, build, &corpus, &train, &mon);
        registry
            .register(Team::PhyNet.name(), scout, "scoutbench")
            .expect("a fresh registry has no pins");
        return;
    }
    let bases: Vec<Team> = cloudsim::TeamRegistry::new().internal_teams().collect();
    let models: Vec<String> = bases
        .iter()
        .map(|&base| {
            let relabeled = corpus.relabeled(|i, _| world.incidents[i].owner == base);
            let train = relabeled.trainable_indices();
            Scout::train_prepared(config.clone(), build.clone(), &relabeled, &train, &mon).to_text()
        })
        .collect();
    for i in 0..FLEET_TEAMS {
        let name = cloudsim::synthetic_team_name(bases[i % bases.len()], i / bases.len());
        let scout = Scout::from_text(&models[i % bases.len()]).expect("model text round-trips");
        registry
            .register(&name, scout, "scoutbench")
            .expect("a fresh registry has no pins");
    }
}

/// The Scout Master policy of the routing mixes.
pub fn fleet_master() -> FleetMaster {
    FleetMaster::with_graph(DependencyGraph::synthetic_fleet(FLEET_TEAMS))
}

/// A running serving plane plus the handles the oracle and the layer
/// walk need to make the same calls the server makes.
pub struct Plane {
    pub mix: Mix,
    pub world: Arc<Workload>,
    pub registry: Arc<ModelRegistry>,
    pub fleet: FleetConfig,
    pub addr: String,
    server: Server,
    wal_dir: Option<PathBuf>,
}

impl Plane {
    /// World generation, training, registration and server start — what
    /// `setup_s` times. `wal_dir` is used by the mix that serves with a
    /// write-ahead log and must not exist yet.
    pub fn build(mix: Mix, world_days: u64, wal_dir: &Path) -> Plane {
        let world = Arc::new(generate_world(world_days));
        let registry = Arc::new(ModelRegistry::new());
        let fleet = FleetConfig::default();
        let mut engine = Engine::new(Arc::clone(&registry), Arc::clone(&world));
        let mut kept_wal_dir = None;
        if mix == Mix::PredictColdWal {
            // As `scoutctl serve --wal-dir`: open and attach the log before
            // any model is published, so the promotion lands in it.
            let wal = Arc::new(Wal::open(WalConfig::new(wal_dir)).expect("open the benchmark WAL"));
            let cap = serve::feedback::DEFAULT_SERVED_CAP as u64;
            wal.append(&Event::Init {
                served_cap: cap,
                feedback_cap: cap,
            })
            .expect("WAL init append");
            engine = engine.with_wal(wal);
            kept_wal_dir = Some(wal_dir.to_path_buf());
        }
        register_models(&world, mix, &registry);
        if mix.is_route() {
            engine = engine
                .with_master(fleet_master())
                .with_fleet(fleet.clone())
                .with_storm(Arc::new(StormControl::new(StormConfig::default())));
        }
        let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default())
            .expect("bind an ephemeral port");
        Plane {
            mix,
            world,
            registry,
            fleet,
            addr: server.addr().to_string(),
            server,
            wal_dir: kept_wal_dir,
        }
    }

    /// Stop the server and remove what it wrote. Training in a later
    /// set-up repetition must run untraced, as it does before
    /// `scoutctl serve` starts its server, so `obs` goes back off.
    pub fn shutdown(self) {
        self.server.shutdown();
        obs::disable();
        if let Some(dir) = self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Point-in-time copies of the program's own counters, differenced
/// around the measured window.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    counters: BTreeMap<String, u64>,
    /// Histogram name → (count, sum).
    histograms: BTreeMap<String, (u64, f64)>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_bytes: usize,
}

impl Counters {
    pub fn snapshot(registry: &ModelRegistry) -> Counters {
        let metrics = &obs::global().metrics;
        let mut out = Counters {
            counters: metrics.counters().into_iter().collect(),
            ..Counters::default()
        };
        metrics.visit_histograms(|name, h| {
            out.histograms
                .insert(name.to_string(), (h.count(), h.sum()));
        });
        for entry in registry.snapshot() {
            let stats = entry.feat_cache.stats();
            out.cache_hits += stats.hits;
            out.cache_misses += stats.misses;
            out.cache_evictions += stats.evictions;
            out.cache_bytes += stats.bytes;
        }
        out
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `(count, sum)` of a histogram.
    pub fn histogram(&self, name: &str) -> (u64, f64) {
        self.histograms.get(name).copied().unwrap_or((0, 0.0))
    }
}
