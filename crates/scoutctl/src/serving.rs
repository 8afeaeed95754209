//! `scoutctl serve` and `scoutctl wal`: boot the online incident-routing
//! server (models, fleet plane, storm control, lifecycle controller, WAL)
//! from command-line flags, and replay a write-ahead log offline.

use crate::args::{ArgError, Args};
use crate::{load_config, load_team, load_world, train_scout};
use cloudsim::{SimTime, Team};
use incident::Workload;
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};

/// Open (and recover) the serve WAL from `--wal-*` flags. Writes the
/// recovered projection to `DIR/recovered.json` before any new event is
/// appended, so crash-recovery harnesses can diff it against an offline
/// replay of the same prefix; stamps a fresh log with `Event::Init`.
fn open_wal(
    args: &Args,
    dir: &str,
    feedback_cap: usize,
) -> Result<std::sync::Arc<wal::Wal>, ArgError> {
    let mut cfg = wal::WalConfig::new(dir);
    cfg.sync = match args.get("wal-sync").unwrap_or("group") {
        "always" => wal::SyncPolicy::Always,
        "group" => wal::SyncPolicy::group_default(),
        "os" => wal::SyncPolicy::Os,
        other => {
            return Err(ArgError(format!(
                "unknown --wal-sync '{other}' (expected always|group|os)"
            )))
        }
    };
    cfg.segment_bytes = args.get_parsed("wal-segment-mb", 8u64)? * 1024 * 1024;
    cfg.snapshot_every = args.get_parsed("wal-snapshot-every", 4096u64)?;
    let w = wal::Wal::open(cfg).map_err(|e| ArgError(format!("cannot open WAL in {dir}: {e}")))?;
    let recovered = w.render_state();
    std::fs::write(
        std::path::Path::new(dir).join("recovered.json"),
        format!("{recovered}\n"),
    )
    .map_err(|e| ArgError(format!("cannot write {dir}/recovered.json: {e}")))?;
    if w.seq() == 0 {
        w.append(&wal::Event::Init {
            served_cap: feedback_cap as u64,
            feedback_cap: feedback_cap as u64,
        })
        .map_err(|e| ArgError(format!("WAL init append: {e}")))?;
        eprintln!("[scoutctl] WAL started fresh in {dir}");
    } else {
        eprintln!(
            "[scoutctl] WAL recovered to seq {} from {dir} (state in recovered.json)",
            w.seq()
        );
    }
    Ok(std::sync::Arc::new(w))
}

/// `scoutctl wal replay`: reconstruct the serving state a log describes,
/// print the canonical single-line JSON projection. `--until N` stops
/// after sequence `N` (time travel); `--no-snapshot` forces a
/// from-genesis replay even when snapshots exist.
pub fn wal_cmd(args: &Args) -> Result<(), ArgError> {
    match args.positional(1) {
        Some("replay") => {
            let dir = args
                .get("wal-dir")
                .ok_or_else(|| ArgError("wal replay needs --wal-dir DIR".into()))?;
            let until = match args.get("until") {
                Some(_) => Some(args.get_parsed("until", 0u64)?),
                None => None,
            };
            let proj = wal::replay_dir(std::path::Path::new(dir), until, !args.flag("no-snapshot"))
                .map_err(|e| ArgError(format!("replay of {dir} failed: {e}")))?;
            println!("{}", proj.render());
            Ok(())
        }
        Some(other) => Err(ArgError(format!(
            "unknown wal subcommand '{other}' (expected replay)"
        ))),
        None => Err(ArgError("wal needs a subcommand: replay".into())),
    }
}

/// `scoutctl serve`: start the online incident-routing server.
pub fn serve_cmd(args: &Args) -> Result<(), ArgError> {
    use serve::{Engine, ModelRegistry, ServeConfig, Server};
    use std::io::Write as _;
    use std::sync::Arc;

    let addr = args.get("addr").unwrap_or("127.0.0.1:7777");
    let world = Arc::new(load_world(args)?);
    let feat_cache_mb = args.get_parsed("feat-cache-mb", 64usize)?;
    let registry = Arc::new(ModelRegistry::with_feat_cache_bytes(
        feat_cache_mb * 1024 * 1024,
    ));
    let feedback_cap = args.get_parsed("feedback-cap", serve::feedback::DEFAULT_SERVED_CAP)?;
    // Open the WAL (and recover from it) BEFORE any model publish: the
    // restore seeds the registry's version counter and epoch, and the
    // journal must be attached so startup promotions land in the log.
    let wal_handle = match args.get("wal-dir") {
        None => None,
        Some(dir) => Some(open_wal(args, dir, feedback_cap)?),
    };
    let mut engine =
        Engine::new(Arc::clone(&registry), Arc::clone(&world)).with_served_cap(feedback_cap);
    if let Some(w) = &wal_handle {
        engine = engine.with_wal(Arc::clone(w));
    }
    let model_dir = args.get("model-dir").map(std::path::PathBuf::from);
    match &model_dir {
        Some(dir) => {
            let published = registry
                .load_dir(dir)
                .map_err(|e| ArgError(e.to_string()))?;
            for (team, version) in &published {
                eprintln!(
                    "[scoutctl] loaded {team} Scout (v{version}) from {}",
                    dir.display()
                );
            }
        }
        None => {
            let synthetic = args.get_parsed("synthetic-teams", 0usize)?;
            if synthetic > 0 {
                register_synthetic_fleet(&world, load_config(args)?, synthetic, &registry)?;
                engine = engine.with_master(scoutmaster::FleetMaster::with_graph(
                    cloudsim::DependencyGraph::synthetic_fleet(synthetic),
                ));
            } else {
                let config = load_config(args)?;
                let team = load_team(args)?;
                eprintln!("[scoutctl] no --model-dir: training a {team} Scout at startup…");
                let (scout, _, _, _) = train_scout(&world, config, team);
                let version = registry
                    .register(team.name(), scout, "trained-at-startup")
                    .expect("startup registration cannot hit a pin");
                eprintln!("[scoutctl] registered {team} Scout (v{version})");
            }
        }
    }
    if let Some(dir) = model_dir {
        engine = engine.with_model_dir(dir);
    }
    let mut fleet = serve::FleetConfig::default();
    fleet.shards = args.get_parsed("fleet-shards", fleet.shards)?;
    eprintln!(
        "[scoutctl] fleet routing plane: {} shard(s), top-{} suggestions",
        fleet.effective_shards(),
        fleet.suggestions
    );
    engine = engine.with_fleet(fleet);
    // Storm control in front of /v1/route: dedup, per-source throttle,
    // Sev3 coalescing, per-team circuit breakers. On by default (it is
    // byte-invisible to non-storm traffic); `--storm-control off` is
    // the baseline the storm bench compares against.
    match args.get("storm-control").unwrap_or("on") {
        "off" => eprintln!("[scoutctl] storm control off (baseline mode)"),
        "on" => {
            let mut sc = storm::StormConfig::default();
            sc.throttle.rate_per_sec = args.get_parsed("storm-rate", sc.throttle.rate_per_sec)?;
            sc.throttle.burst = args.get_parsed("storm-burst", sc.throttle.burst)?;
            eprintln!(
                "[scoutctl] storm control on: dedup window {} ms, {}..{} alerts/s per source, Sev3 batch {}, breaker threshold {}",
                sc.dedup.window_ms,
                sc.throttle.rate_per_sec,
                sc.throttle.burst,
                storm::MAX_BATCH,
                sc.breaker.failure_threshold
            );
            engine = engine.with_storm(std::sync::Arc::new(storm::StormControl::new(sc)));
        }
        other => {
            return Err(ArgError(format!(
                "--storm-control must be 'on' or 'off', got '{other}'"
            )))
        }
    }
    // Keep the handle alive for the server's lifetime: dropping it stops
    // the controller worker.
    let _lifecycle = if args.flag("lifecycle") {
        let team = load_team(args)?;
        let mut cfg = lifecycle::LifecycleConfig::new(
            team.name(),
            load_config(args)?,
            ScoutBuildConfig::default(),
        );
        cfg.store_cap = feedback_cap;
        let handle = lifecycle::LifecycleHandle::start(
            cfg,
            Arc::clone(&registry),
            Arc::new(world.topology.clone()),
            Arc::new(world.faults.clone()),
            MonitoringConfig::default(),
            wal_handle.as_ref().map(Arc::clone),
        );
        engine = engine.with_feedback_hook(handle.clone());
        eprintln!("[scoutctl] lifecycle controller attached ({team})");
        Some(handle)
    } else {
        None
    };
    let config = ServeConfig {
        queue_cap: args.get_parsed("queue-cap", 64usize)?,
        max_connections: args.get_parsed("max-connections", 128usize)?,
        trace_sample: args.get_parsed("trace-sample", 64u64)?,
        flight_dir: args.get("flight-dir").map(std::path::PathBuf::from),
    };
    let server = Server::start(engine, addr, config)
        .map_err(|e| ArgError(format!("cannot bind {addr}: {e}")))?;
    // The smoke scripts scrape this exact line for the bound port, so it
    // must reach the pipe even when stdout is block-buffered.
    println!("listening on http://{}", server.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| ArgError(format!("stdout: {e}")))?;
    match args.get_parsed("max-runtime-secs", 0u64)? {
        0 => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
        secs => {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            server.shutdown();
            Ok(())
        }
    }
}

/// Train and register `n` synthetic per-team Scouts in **one**
/// featurization pass: featurization is label-independent, so the
/// prepared corpus is relabeled per base team ("is this team
/// responsible?") and each base Scout trains from the shared features.
/// Replicas beyond the nine internal base teams reuse the base team's
/// trained model (round-tripped through the text format so every
/// registry entry is independent), named by the same scheme as
/// [`cloudsim::DependencyGraph::synthetic_fleet`].
fn register_synthetic_fleet(
    world: &Workload,
    config: ScoutConfig,
    n: usize,
    registry: &serve::ModelRegistry,
) -> Result<(), ArgError> {
    let bases: Vec<Team> = cloudsim::TeamRegistry::new().internal_teams().collect();
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let examples: Vec<Example> = world
        .incidents
        .iter()
        .map(|i| Example::new(i.text(), i.created_at, false))
        .collect();
    let owners: Vec<Team> = world.incidents.iter().map(|i| i.owner).collect();
    let build = ScoutBuildConfig::default();
    let feat_cache = featcache::FeatCache::new(64 * 1024 * 1024);
    eprintln!(
        "[scoutctl] featurizing {} incidents once for {n} synthetic Scouts…",
        examples.len()
    );
    let corpus = Scout::prepare_cached(&config, &build, &examples, &mon, Some(&feat_cache));
    let cutoff = SimTime::from_days(180);
    let active_bases = bases.len().min(n);
    let mut base_models: Vec<String> = Vec::with_capacity(active_bases);
    for base in bases.iter().take(active_bases) {
        let relabeled = corpus.relabeled(|i, _| owners[i] == *base);
        let train: Vec<usize> = relabeled
            .trainable_indices()
            .into_iter()
            .filter(|&i| relabeled.items[i].example.time < cutoff)
            .collect();
        let scout = Scout::train_prepared(config.clone(), build.clone(), &relabeled, &train, &mon);
        base_models.push(scout.to_text());
    }
    for i in 0..n {
        let base = bases[i % bases.len()];
        let name = cloudsim::synthetic_team_name(base, i / bases.len());
        let scout = Scout::from_text(&base_models[i % bases.len()])
            .map_err(|e| ArgError(format!("synthetic Scout round-trip failed: {e}")))?;
        registry
            .register(&name, scout, "synthetic-fleet")
            .expect("startup registration cannot hit a pin");
    }
    eprintln!("[scoutctl] registered {n} synthetic Scouts ({active_bases} trained base model(s))");
    Ok(())
}
