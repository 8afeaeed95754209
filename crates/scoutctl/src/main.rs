//! `scoutctl` — command-line front end for the Scouts reproduction.
//!
//! ```text
//! scoutctl check-config <file>        validate a Scout configuration file
//! scoutctl simulate [opts]            generate a workload, print §3 stats
//! scoutctl train-eval [opts]          train the PhyNet Scout, print metrics
//! scoutctl classify [opts] <file|->   train, then classify incident text
//!
//! common options:
//!   --seed N               workload seed            (default 42)
//!   --faults-per-day F     fault density            (default 4)
//!   --config FILE          Scout config             (default built-in PhyNet)
//!   --team NAME            team the Scout answers for (default PhyNet)
//!   --at MINUTES           incident timestamp for classify (default: last
//!                          fault's window)
//! ```

mod args;
mod serving;
mod stormtraffic;
mod traffic;

use args::{ArgError, Args};
use cloudsim::{SimTime, Team};
use incident::study::StudyReport;
use incident::{Workload, WorkloadConfig};
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig, Verdict};
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scoutctl: {e}");
            eprintln!("run `scoutctl help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: Vec<String>) -> Result<(), ArgError> {
    // Expand the conventional short aliases before parsing.
    let raw: Vec<String> = raw
        .into_iter()
        .map(|a| match a.as_str() {
            "-h" => "--help".to_string(),
            "-V" => "--version".to_string(),
            other => other.to_string(),
        })
        .collect();
    let args = Args::parse(
        raw,
        &[
            "verbose",
            "help",
            "version",
            "lifecycle",
            "inject-regression",
            "no-snapshot",
        ],
    )?;
    // Help and version are answered before any command dispatch, so
    // `scoutctl --help` and `scoutctl <cmd> --help` both work.
    if args.flag("version") {
        println!("scoutctl {}", env!("CARGO_PKG_VERSION"));
        return Ok(());
    }
    if args.flag("help") || args.positional(0).is_none() || args.positional(0) == Some("help") {
        print!("{}", USAGE);
        return Ok(());
    }
    if args.flag("verbose") {
        eprintln!(
            "[scoutctl] {} positional argument(s)",
            args.positional_count()
        );
    }
    let observing = setup_obs(&args)?;
    let result = match args.positional(0) {
        None | Some("help") => {
            print!("{}", USAGE);
            Ok(())
        }
        Some("check-config") => check_config(&args),
        Some("simulate") => simulate(&args),
        Some("train-eval") => train_eval(&args),
        Some("classify") => classify(&args),
        Some("stats") => stats(&args),
        Some("lifecycle") => lifecycle_cmd(&args),
        Some("serve") => serving::serve_cmd(&args),
        Some("loadgen") => traffic::loadgen(&args),
        Some("fleetgen") => traffic::fleetgen(&args),
        Some("stormgen") => traffic::stormgen(&args),
        Some("probe") => probe(&args),
        Some("flight") => flight_cmd(&args),
        Some("wal") => serving::wal_cmd(&args),
        Some(other) => Err(ArgError(format!("unknown command '{other}'"))),
    };
    if observing {
        finish_obs(&args)?;
    }
    result
}

/// Install JSONL sinks and enable collection when any observability
/// option (`--trace`, `--metrics`, `--audit`) is present, or when the
/// command is `stats` (whose whole point is the metrics report).
fn setup_obs(args: &Args) -> Result<bool, ArgError> {
    let observing = args.get("trace").is_some()
        || args.get("metrics").is_some()
        || args.get("audit").is_some()
        || args.positional(0) == Some("stats");
    if !observing {
        return Ok(false);
    }
    let rotate_mb = args.get_parsed("rotate-mb", 0u64)?;
    let rotate_keep = args.get_parsed("rotate-keep", 3usize)?;
    if let Some(path) = args.get("trace") {
        let sink = jsonl_sink(path, rotate_mb, rotate_keep)
            .map_err(|e| ArgError(format!("cannot create trace file {path}: {e}")))?;
        obs::global().set_trace_sink(Some(sink));
    }
    if let Some(path) = args.get("audit") {
        let sink = jsonl_sink(path, rotate_mb, rotate_keep)
            .map_err(|e| ArgError(format!("cannot create audit file {path}: {e}")))?;
        obs::global().set_audit_sink(Some(sink));
    }
    obs::enable();
    Ok(true)
}

/// A plain JSONL sink, or a size-rotated one when `--rotate-mb` is set.
/// Rotated sinks reopen in append mode (truncating any torn final line a
/// crashed predecessor left) so a restarted server continues the same
/// trace/audit files instead of clobbering them.
fn jsonl_sink(
    path: &str,
    rotate_mb: u64,
    rotate_keep: usize,
) -> std::io::Result<Box<dyn obs::Sink>> {
    if rotate_mb > 0 {
        let sink = obs::RotatingJsonlSink::open_append(path, rotate_mb * 1024 * 1024, rotate_keep)?;
        Ok(Box::new(sink))
    } else {
        Ok(Box::new(obs::JsonlSink::create(path)?))
    }
}

/// Flush sinks and write the metrics JSONL report, if requested.
fn finish_obs(args: &Args) -> Result<(), ArgError> {
    obs::disable();
    let collector = obs::global();
    collector.flush();
    collector.set_trace_sink(None);
    collector.set_audit_sink(None);
    if let Some(path) = args.get("metrics") {
        std::fs::write(path, obs::sink::render_metrics_jsonl(&collector.metrics))
            .map_err(|e| ArgError(format!("cannot write metrics file {path}: {e}")))?;
        eprintln!("[scoutctl] metrics written to {path}");
    }
    Ok(())
}

const USAGE: &str = "\
scoutctl — domain-customized incident routing (Scouts, SIGCOMM 2020)

commands:
  check-config <file>      validate a Scout configuration file
  simulate                 generate a synthetic workload, print §3 statistics
  train-eval               train a Scout on the workload, print accuracy
  classify <file|->        train a Scout, then classify incident text
  stats                    run the full pipeline, print the metrics summary
  lifecycle                replay the continual-learning loop against scripted
                           incident drift, print the promotion/rollback log
  serve                    run the online incident-routing HTTP server
  loadgen                  drive a running server, print throughput and latency
  fleetgen                 replay the multi-team incident trace through a
                           running fleet's /v1/route, print throughput and
                           routing accuracy (CI gate via --min-accuracy)
  stormgen                 replay an adversarial alert storm (duplicate
                           bursts, gray failures, cascades, mid-stream
                           monitoring deprecation) against /v1/route and
                           report how the storm-control layer held up
  probe                    send one request to a running server (CI smoke)
  flight                   fetch a running server's flight-recorder ring (JSONL)
  wal replay               reconstruct serving state from a write-ahead log

options:
  --help, -h               print this help
  --version, -V            print the scoutctl version
  --seed N                 workload seed (default 42)
  --faults-per-day F       fault density (default 4)
  --config FILE            Scout config file (default: built-in PhyNet)
  --team NAME              label team: PhyNet|Storage|Compute|… (default PhyNet)
  --at MINUTES             classify: incident time in minutes since epoch
  --save FILE              train-eval: save the trained Scout model
  --model FILE             classify: load a saved model instead of training

lifecycle options:
  --horizon-days D         replay horizon (default 240; the scripted drift
                           switches fault families at days 120 and 150)
  --train-days D           frozen model's training prefix (default 100)
  --tick-days D            controller tick interval (default 5)
  --inject-regression      force-publish a label-poisoned model mid-replay to
                           demonstrate probation and automatic rollback

serve options:
  --addr HOST:PORT         listen address (default 127.0.0.1:7777; port 0 = any)
  --lifecycle              attach the continual-learning controller: feedback
                           from POST /v1/feedback drives drift detection,
                           shadow-gated retrains, and rollback
  --feedback-cap N         bound on served predictions awaiting feedback and on
                           the controller's labeled stream (default 8192)
  --model-dir DIR          load every *.scout in DIR (team = file stem) instead
                           of training at startup; also enables
                           POST /v1/models/reload
  --queue-cap N            max outstanding requests before shedding (default 64)
  --max-connections N      max concurrent connections (default 128)
  --feat-cache-mb MB       per-model feature-chunk cache budget (default 64;
                           0 disables caching)
  --max-runtime-secs S     stop after S seconds (default: run until killed)
  --trace-sample N         flight-record 1 in N minted traces (default 64;
                           0 = never, 1 = every request; an incoming
                           X-Trace-Id header is always recorded)
  --flight-dir DIR         dump the flight-recorder ring into DIR on anomaly
                           (shed burst, deadline miss, rollback, SLO burn)
  --wal-dir DIR            event-source every serving-state mutation into a
                           write-ahead log under DIR; on startup, recover the
                           pre-crash state from it (latest snapshot + log tail,
                           torn final frame tolerated) and write the recovered
                           projection to DIR/recovered.json
  --wal-sync MODE          WAL durability: always (fsync per append), group
                           (batched fsync, the default), or os (no fsync)
  --wal-segment-mb MB      rotate WAL segments at MB megabytes (default 8)
  --wal-snapshot-every N   write a snapshot every N events (default 4096;
                           0 disables snapshots)
  --fleet-shards N         worker groups for the /v1/route fan-out (default
                           4); teams are rendezvous-hashed so add/remove
                           never reshuffles
  --synthetic-teams N      instead of one trained Scout, register N synthetic
                           per-team Scouts (nine trained base models, one
                           shared featurization pass, replicas beyond nine
                           reuse their base model) with the matching
                           dependency graph — the fleet the benches and
                           smoke tests route against
  --storm-control on|off   alert-storm control in front of /v1/route: dedup,
                           per-source throttling, Sev3 coalescing, per-team
                           circuit breakers (default on; byte-invisible to
                           non-storm traffic — off is the bench baseline)
  --storm-rate N, --storm-burst N
                           per-source storm throttle (defaults: 50 alerts/s,
                           burst 100)

loadgen options:
  --addr HOST:PORT         server to drive (required)
  --requests N             total requests (default 200)
  --concurrency N          concurrent connections (default 4)
  --endpoint predict|route what to exercise (default predict)
  --team NAME              predict: team to query (default PhyNet)
  --text STRING            incident text to send
  --retries N              on 429/503, honor Retry-After and retry up to N
                           times (default 0)

fleetgen options:
  --addr HOST:PORT         fleet server to drive (required)
  --requests N             incidents to replay (default 200)
  --concurrency N          concurrent connections (default 4)
  --seed N, --faults-per-day F
                           regenerate the server's workload (must match the
                           serve invocation for ground-truth owners to line up)
  --min-accuracy F         exit non-zero if routing accuracy drops below F
  --max-unmapped N         exit non-zero if serve.route.unmapped exceeds N
  --retries N              on 429/503, honor Retry-After and retry up to N
  --storm SCENARIO         run an adversarial storm preset (same shaping core
                           as stormgen) concurrently with the measured replay:
                           duplicate-burst | gray-failure | cascade |
                           deprecation

stormgen options:
  --addr HOST:PORT         fleet server to storm (required)
  --scenario NAME          duplicate-burst (default) | gray-failure |
                           cascade | deprecation
  --amplification N        near-duplicate firings per root fault (default 100)
  --background N           interleaved non-storm control shots (default 40)
  --sources N              distinct alert sources (default 3)
  --roots N                root faults in the storm window (default 3)
  --retries N              on 429/503, honor Retry-After and retry up to N
  --deprecate-dataset NAME data set to kill mid-storm (default snmp-syslog;
                           deprecation scenario only)
  --max-5xx N              exit non-zero if server-error responses exceed N
                           (default 0 — storms must degrade, never error)

probe options:
  --addr HOST:PORT         server to probe (required)
  --path PATH              endpoint (default /healthz)
  --body JSON              send a POST with this body instead of a GET
  --expect-field NAME      fail unless the JSON response has this field
  --trace-id HEX           send X-Trace-Id (always sampled; echoed back)

flight options:
  --addr HOST:PORT         server whose flight ring to fetch (required)
  --out FILE               write the JSONL dump to FILE instead of stdout

wal replay options:
  --wal-dir DIR            the log to replay (required)
  --until N                stop after sequence number N (time-travel debugging)
  --no-snapshot            replay every event from genesis instead of starting
                           at the latest snapshot (verifies snapshot integrity
                           when diffed against a snapshot-based replay)

observability (any command):
  --trace FILE             write span events (JSONL) to FILE
  --metrics FILE           write final counter/gauge/histogram values (JSONL)
  --audit FILE             write one prediction-audit record (JSONL) per
                           Scout prediction
  --rotate-mb MB           rotate --trace/--audit files at MB megabytes
                           (default 0 = never rotate)
  --rotate-keep N          rotated generations to keep (default 3)
";

fn check_config(args: &Args) -> Result<(), ArgError> {
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("check-config needs a file path".into()))?;
    let source =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    match ScoutConfig::parse(&source) {
        Ok(cfg) => {
            println!(
                "OK: {} extraction patterns, {} monitoring declarations, {} exclusion rules",
                cfg.patterns.len(),
                cfg.monitoring.len(),
                cfg.excludes.len()
            );
            Ok(())
        }
        Err(e) => Err(ArgError(format!("{path}: {e}"))),
    }
}

fn load_world(args: &Args) -> Result<Workload, ArgError> {
    let seed = args.get_parsed("seed", 42u64)?;
    let faults_per_day = args.get_parsed("faults-per-day", 4.0f64)?;
    let mut config = WorkloadConfig {
        seed,
        ..WorkloadConfig::default()
    };
    config.faults.faults_per_day = faults_per_day;
    eprintln!("[scoutctl] generating workload (seed {seed}, {faults_per_day} faults/day)…");
    Ok(Workload::generate(config))
}

fn load_config(args: &Args) -> Result<ScoutConfig, ArgError> {
    match args.get("config") {
        None => Ok(ScoutConfig::phynet()),
        Some(path) => {
            let source = std::fs::read_to_string(path)
                .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
            ScoutConfig::parse(&source).map_err(|e| ArgError(e.to_string()))
        }
    }
}

fn load_team(args: &Args) -> Result<Team, ArgError> {
    let name = args.get("team").unwrap_or("PhyNet");
    Team::ALL
        .into_iter()
        .find(|t| t.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| ArgError(format!("unknown team '{name}'")))
}

fn simulate(args: &Args) -> Result<(), ArgError> {
    let world = load_world(args)?;
    let r = StudyReport::compute(&world);
    println!(
        "incidents: {} (from {} faults)",
        world.len(),
        world.faults.len()
    );
    println!(
        "mis-routed median slowdown: {:.1}x; PhyNet pass-through mis-route rate: {:.0}%",
        r.misrouted_slowdown,
        100.0 * r.phynet_passthrough_fraction
    );
    println!(
        "teams per PhyNet-resolved incident: mean {:.1}, max {}",
        r.phynet_teams_mean, r.phynet_teams_max
    );
    println!(
        "wasted investigation hours/day: {:.1}",
        r.wasted_hours_per_day
    );
    Ok(())
}

/// Train a Scout for `team` on the first two-thirds of the workload.
fn train_scout(
    world: &Workload,
    config: ScoutConfig,
    team: Team,
) -> (
    Scout,
    scout::scout::PreparedCorpus,
    Vec<usize>,
    MonitoringSystem<'_>,
) {
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let examples: Vec<Example> = world
        .incidents
        .iter()
        .map(|i| Example::new(i.text(), i.created_at, i.owner == team))
        .collect();
    let build = ScoutBuildConfig::default();
    // A throwaway chunk cache: examples near each other in time share
    // look-back chunks, and the featcache.* counters it feeds surface in
    // `scoutctl stats` / `--metrics` output.
    let feat_cache = featcache::FeatCache::new(64 * 1024 * 1024);
    let corpus = Scout::prepare_cached(&config, &build, &examples, &mon, Some(&feat_cache));
    let cutoff = SimTime::from_days(180);
    let train: Vec<usize> = corpus
        .trainable_indices()
        .into_iter()
        .filter(|&i| corpus.items[i].example.time < cutoff)
        .collect();
    let test: Vec<usize> = corpus
        .trainable_indices()
        .into_iter()
        .filter(|&i| corpus.items[i].example.time >= cutoff)
        .collect();
    let scout = Scout::train_prepared(config, build, &corpus, &train, &mon);
    (scout, corpus, test, mon)
}

fn train_eval(args: &Args) -> Result<(), ArgError> {
    let world = load_world(args)?;
    let config = load_config(args)?;
    let team = load_team(args)?;
    let (scout, corpus, test, mon) = train_scout(&world, config, team);
    let confusion = scout.evaluate(&corpus, &test, &mon);
    println!(
        "{team} Scout on the last 90 days ({} incidents): {}",
        test.len(),
        confusion.metrics()
    );
    if let Some(path) = args.get("save") {
        scout
            .save(std::path::Path::new(path))
            .map_err(|e| ArgError(format!("cannot save {path}: {e}")))?;
        println!("model saved to {path}");
    }
    Ok(())
}

/// Exercise the whole pipeline once — workload generation, Scout
/// training, held-out evaluation, and the scout-master simulations —
/// then print the collected metrics summary.
fn stats(args: &Args) -> Result<(), ArgError> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scoutmaster::{ImperfectParams, PerfectScoutSim};

    let world = load_world(args)?;
    let config = load_config(args)?;
    let team = load_team(args)?;
    let (scout, corpus, test, mon) = train_scout(&world, config, team);
    let confusion = scout.evaluate(&corpus, &test, &mon);
    println!(
        "{team} Scout on the last 90 days ({} incidents): {}",
        test.len(),
        confusion.metrics()
    );

    let pairs = || world.incidents.iter().zip(world.traces.iter());
    let pooled = PerfectScoutSim::pooled_reductions(pairs(), 2);
    if !pooled.is_empty() {
        let mean = pooled.iter().sum::<f64>() / pooled.len() as f64;
        println!(
            "perfect-scout sim (2 scouts): mean reduction {:.0}% over {} incident-assignments",
            100.0 * mean,
            pooled.len()
        );
    }
    let best = PerfectScoutSim::best_possible(pairs());
    if !best.is_empty() {
        let mean = best.iter().sum::<f64>() / best.len() as f64;
        println!("best-possible sim: mean reduction {:.0}%", 100.0 * mean);
    }
    let mut rng = SmallRng::seed_from_u64(args.get_parsed("seed", 42u64)?);
    let imp = PerfectScoutSim::imperfect(
        pairs(),
        ImperfectParams {
            alpha: 0.9,
            beta: 0.05,
            n_scouts: 2,
        },
        &mut rng,
    );
    println!(
        "imperfect-scout sim (α=0.90, β=0.05, 2 scouts): mean {:.0}%, p95 {:.0}%",
        100.0 * imp.mean,
        100.0 * imp.p95
    );
    println!();
    print!("{}", obs::global().summary());
    Ok(())
}

fn classify(args: &Args) -> Result<(), ArgError> {
    let source = args
        .positional(1)
        .ok_or_else(|| ArgError("classify needs a file path or '-'".into()))?;
    let text = if source == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| ArgError(format!("stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(source)
            .map_err(|e| ArgError(format!("cannot read {source}: {e}")))?
    };
    let world = load_world(args)?;
    let config = load_config(args)?;
    let team = load_team(args)?;
    let default_at = world
        .incidents
        .last()
        .map(|i| i.created_at.minutes())
        .unwrap_or(0);
    let at = SimTime(args.get_parsed("at", default_at)?);
    let (scout, mon) = match args.get("model") {
        Some(path) => {
            let scout = Scout::load(std::path::Path::new(path))
                .map_err(|e| ArgError(format!("cannot load model {path}: {e}")))?;
            let mon =
                MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
            eprintln!("[scoutctl] loaded model from {path}");
            (scout, mon)
        }
        None => {
            let (scout, _, _, mon) = train_scout(&world, config, team);
            (scout, mon)
        }
    };
    let pred = scout.predict(&text, at, &mon);
    match pred.verdict {
        Verdict::Responsible => println!("verdict: ROUTE TO {team}"),
        Verdict::NotResponsible => println!("verdict: route away from {team}"),
        Verdict::Fallback => println!("verdict: no components found — use legacy routing"),
    }
    println!("model: {:?}, confidence {:.2}", pred.model, pred.confidence);
    println!();
    println!(
        "{}",
        pred.explanation
            .render(team.name(), pred.says_responsible(), pred.confidence)
    );
    Ok(())
}

// ---------- continual learning ----------

/// `scoutctl lifecycle`: replay the closed continual-learning loop
/// against `cloudsim`'s scripted drift. A model frozen before the drift
/// serves a drifting incident stream; every resolution is fed back to
/// the controller, which detects the degradation, retrains, shadow-
/// gates, promotes, and (with `--inject-regression`) rolls a poisoned
/// operator override back. Prints the event log plus a final
/// frozen-vs-adaptive comparison.
fn lifecycle_cmd(args: &Args) -> Result<(), ArgError> {
    use incident::Incident;
    use lifecycle::{Feedback, LifecycleConfig, LifecycleController, LifecycleEvent};
    use ml::forest::ForestConfig;
    use serve::ModelRegistry;
    use std::sync::Arc;

    let seed = args.get_parsed("seed", 42u64)?;
    let faults_per_day = args.get_parsed("faults-per-day", 2.5f64)?;
    let horizon_days = args.get_parsed("horizon-days", 240u64)?;
    let train_days = args.get_parsed("train-days", 100u64)?.min(horizon_days);
    let tick_days = args.get_parsed("tick-days", 5u64)?.max(1);
    let team = load_team(args)?;
    let scout_config = load_config(args)?;

    let mut config = WorkloadConfig {
        seed,
        ..WorkloadConfig::default()
    };
    config.faults.faults_per_day = faults_per_day;
    config.faults.horizon = cloudsim::SimDuration::days(horizon_days);
    config.faults.drift = true;
    eprintln!(
        "[scoutctl] generating drifting workload (seed {seed}, {faults_per_day} faults/day, {horizon_days} days)…"
    );
    let world = Workload::generate(config);
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let build = ScoutBuildConfig {
        forest: ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        cluster_train_cap: 10,
        ..ScoutBuildConfig::default()
    };

    let train_prefix = |label: &dyn Fn(&Incident) -> bool| -> Scout {
        let cutoff = SimTime::from_days(train_days);
        let examples: Vec<Example> = world
            .incidents
            .iter()
            .filter(|i| i.created_at < cutoff)
            .map(|i| Example::new(i.text(), i.created_at, label(i)))
            .collect();
        let corpus = Scout::prepare(&scout_config, &build, &examples, &mon);
        let train = corpus.trainable_indices();
        Scout::train_prepared(scout_config.clone(), build.clone(), &corpus, &train, &mon)
    };

    eprintln!("[scoutctl] training the frozen {team} model on days 0..{train_days}…");
    let frozen = train_prefix(&|i| i.owner == team);
    // A second copy of the frozen model for the end-of-replay
    // comparison (Scout is deliberately not Clone).
    let frozen_text = frozen.to_text();
    let frozen = Scout::from_text(&frozen_text).expect("model text round-trips");
    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry
        .register(
            team.name(),
            Scout::from_text(&frozen_text).expect("model text round-trips"),
            "frozen-pre-drift",
        )
        .expect("fresh registry has no pins");
    println!("day {:>6.1}  serving frozen model v{v1}", train_days as f64);

    let mut controller = LifecycleController::new(
        LifecycleConfig::new(team.name(), scout_config.clone(), build.clone()),
        Arc::clone(&registry),
    );

    let end = SimTime::from_days(horizon_days);
    let inject_at = SimTime::from_days((train_days + horizon_days) / 2);
    let mut injected = false;
    let mut chunk_start = SimTime::from_days(train_days);
    let mut ordinal = 0u64;
    let mut replayed = 0usize;
    while chunk_start < end {
        let chunk_end = SimTime((chunk_start.0 + tick_days * 1440).min(end.0));
        if args.flag("inject-regression") && !injected && chunk_start >= inject_at {
            injected = true;
            let poisoned = train_prefix(&|i| i.owner != team);
            let v = registry
                .register(team.name(), poisoned, "operator-override")
                .expect("no pins in this replay");
            println!(
                "day {:>6.1}  injecting label-poisoned model v{v} (operator override)",
                chunk_start.0 as f64 / 1440.0
            );
        }
        let entry = registry.get(team.name()).expect("model always registered");
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
        replayed += batch.len();
        for ((incident, text), pred) in batch.iter().zip(texts).zip(&preds) {
            ordinal += 1;
            controller.ingest(Feedback {
                incident: ordinal,
                team: team.name().to_string(),
                text,
                time: incident.created_at,
                predicted: pred.says_responsible(),
                label: incident.owner == team,
                model_version: entry.version,
            });
        }
        for event in controller.tick(chunk_end, &mon) {
            println!("{event}");
        }
        chunk_start = chunk_end;
    }

    println!(
        "replayed {replayed} incidents over days {train_days}..{horizon_days} (tick {tick_days}d)"
    );
    let final_version = registry.version_of(team.name()).unwrap_or(0);
    println!("final serving version: v{final_version}");

    let first_promotion = controller.events().iter().find_map(|e| match e {
        LifecycleEvent::Promoted { at, .. } => Some(*at),
        _ => None,
    });
    match first_promotion {
        None => println!("no promotion occurred"),
        Some(promoted_at) => {
            let adaptive = controller.store().confusion_in(promoted_at, end);
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
            let mut frozen_conf = ml::metrics::Confusion::default();
            for (incident, pred) in batch
                .iter()
                .zip(frozen.predict_many_cached(&inputs, &mon, None))
            {
                frozen_conf.record(incident.owner == team, pred.says_responsible());
            }
            println!(
                "post-promotion (day {:.1} on, {} incidents): adaptive mcc {:.3} vs frozen mcc {:.3}",
                promoted_at.0 as f64 / 1440.0,
                adaptive.total(),
                adaptive.mcc(),
                frozen_conf.mcc()
            );
        }
    }
    Ok(())
}

impl From<serve::ClientError> for ArgError {
    fn from(e: serve::ClientError) -> ArgError {
        ArgError(e.to_string())
    }
}

/// The `--addr` every client-side command needs.
fn required_addr<'a>(args: &'a Args, command: &str) -> Result<&'a str, ArgError> {
    args.get("addr")
        .ok_or_else(|| ArgError(format!("{command} needs --addr HOST:PORT")))
}

/// `scoutctl flight`: fetch a running server's flight-recorder ring
/// (`GET /v1/debug/flight`) and print it — or write it to `--out` — as
/// JSONL, newest event last.
fn flight_cmd(args: &Args) -> Result<(), ArgError> {
    use serve::Client;

    let addr = required_addr(args, "flight")?;
    let resp = Client::connect(addr)?.get("/v1/debug/flight")?;
    if !resp.is_success() {
        return Err(ArgError(format!(
            "/v1/debug/flight answered {}",
            resp.status
        )));
    }
    let text = resp.body_text();
    let events = text.lines().filter(|l| !l.trim().is_empty()).count();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, text.as_bytes())
                .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
            eprintln!("[scoutctl] {events} flight event(s) written to {path}");
        }
        None => {
            print!("{text}");
            eprintln!("[scoutctl] {events} flight event(s)");
        }
    }
    Ok(())
}

/// `scoutctl probe`: one request, human-readable result, non-zero exit on
/// failure. Lets CI smoke-test the server without curl.
fn probe(args: &Args) -> Result<(), ArgError> {
    use serve::client::status_line;
    use serve::Client;

    let addr = required_addr(args, "probe")?;
    let path = args.get("path").unwrap_or("/healthz");
    let mut client = Client::connect(addr)?;
    // An explicit trace id makes the request always-sampled, so its
    // spans are recoverable from `scoutctl flight` afterwards.
    let trace_id = args.get("trace-id");
    let headers: Vec<(&str, &str)> = trace_id.iter().map(|id| ("X-Trace-Id", *id)).collect();
    let resp = match args.get("body") {
        Some(body) => client.request("POST", path, &headers, body.as_bytes()),
        None => client.request("GET", path, &headers, b""),
    }?;
    let text = resp.body_text();
    println!("{} {path}: {}", status_line(resp.status), text.trim());
    if trace_id.is_some() {
        if let Some(echoed) = resp.header("X-Trace-Id") {
            eprintln!("trace {echoed}");
        }
    }
    if !resp.is_success() {
        return Err(ArgError(format!("{path} answered {}", resp.status)));
    }
    if let Some(field) = args.get("expect-field") {
        let value = obs::json::Value::parse(&text)
            .ok_or_else(|| ArgError(format!("{path} response is not valid JSON")))?;
        if value.get(field).is_none() {
            return Err(ArgError(format!(
                "{path} response has no field {field:?}: {}",
                text.trim()
            )));
        }
    }
    Ok(())
}
