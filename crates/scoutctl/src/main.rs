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
mod stormtraffic;

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
        Some("serve") => serve_cmd(&args),
        Some("loadgen") => loadgen(&args),
        Some("fleetgen") => fleetgen(&args),
        Some("stormgen") => stormgen(&args),
        Some("probe") => probe(&args),
        Some("flight") => flight_cmd(&args),
        Some("wal") => wal_cmd(&args),
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
  --batch-size N           max predict requests per inference batch (default 32)
  --batch-deadline-ms MS   how long an open batch waits for more (default 2)
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
  --fleet-suggestions K    top-k suggestions in /v1/route responses (default 3)
  --fleet-fail-teams A,B   inject per-team Scout failures (case-insensitive)
                           to exercise the degrade-gracefully path
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
  --storm-dedup-window-ms MS, --storm-rate N, --storm-burst N,
  --storm-batch N, --storm-breaker-threshold N
                           storm-control tuning (defaults: 60000 ms window,
                           50 alerts/s + burst 100 per source, batch 16,
                           breaker trips after 5 consecutive failures)

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

// ---------- online serving ----------

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
fn wal_cmd(args: &Args) -> Result<(), ArgError> {
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
fn serve_cmd(args: &Args) -> Result<(), ArgError> {
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
    // Fleet routing plane: `--fleet-fail-teams` injects per-team faults
    // for smoke tests of the degrade-gracefully path.
    let mut fleet = serve::FleetConfig::default();
    fleet.shards = args.get_parsed("fleet-shards", fleet.shards)?;
    fleet.suggestions = args.get_parsed("fleet-suggestions", fleet.suggestions)?;
    if let Some(list) = args.get("fleet-fail-teams") {
        fleet.fail_teams = list
            .split(',')
            .map(|t| t.trim().to_string())
            .filter(|t| !t.is_empty())
            .collect();
    }
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
            sc.dedup.window_ms = args.get_parsed("storm-dedup-window-ms", sc.dedup.window_ms)?;
            sc.throttle.rate_per_sec = args.get_parsed("storm-rate", sc.throttle.rate_per_sec)?;
            sc.throttle.burst = args.get_parsed("storm-burst", sc.throttle.burst)?;
            sc.batch.max_batch = args.get_parsed("storm-batch", sc.batch.max_batch)?;
            sc.breaker.failure_threshold =
                args.get_parsed("storm-breaker-threshold", sc.breaker.failure_threshold)?;
            eprintln!(
                "[scoutctl] storm control on: dedup window {} ms, {}..{} alerts/s per source, Sev3 batch {}, breaker threshold {}",
                sc.dedup.window_ms,
                sc.throttle.rate_per_sec,
                sc.throttle.burst,
                sc.batch.max_batch,
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
        let handle = lifecycle::LifecycleHandle::start_with_wal(
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
        batch_size: args.get_parsed("batch-size", 32usize)?,
        batch_deadline: std::time::Duration::from_millis(
            args.get_parsed("batch-deadline-ms", 2u64)?,
        ),
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

/// `scoutctl loadgen`: drive a running server and report throughput/latency.
fn loadgen(args: &Args) -> Result<(), ArgError> {
    use serve::Client;

    let addr = args
        .get("addr")
        .ok_or_else(|| ArgError("loadgen needs --addr HOST:PORT".into()))?
        .to_string();
    let requests = args.get_parsed("requests", 200usize)?.max(1);
    let concurrency = args.get_parsed("concurrency", 4usize)?.max(1);
    let retries = args.get_parsed("retries", 0u32)?;
    let team = args.get("team").unwrap_or("PhyNet");
    let text = args
        .get("text")
        .unwrap_or("Link flaps on switch agg-3 in c2.dc1; BGP sessions resetting");
    let path = match args.get("endpoint").unwrap_or("predict") {
        "predict" => format!("/v1/scouts/{team}/predict"),
        "route" => "/v1/route".to_string(),
        other => return Err(ArgError(format!("unknown --endpoint '{other}'"))),
    };
    let body = obs::json::Obj::new().str("text", text).finish();

    let started = std::time::Instant::now();
    let mut handles = Vec::new();
    for worker in 0..concurrency {
        let n = requests / concurrency + usize::from(worker < requests % concurrency);
        let (addr, path, body) = (addr.clone(), path.clone(), body.clone());
        handles.push(std::thread::spawn(move || -> Result<Vec<f64>, String> {
            let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
            let mut latencies_ms = Vec::with_capacity(n);
            for _ in 0..n {
                let t = std::time::Instant::now();
                let resp = client
                    .post_json_retry(&path, &body, retries, std::time::Duration::from_secs(2))
                    .map_err(|e| e.to_string())?;
                if !resp.is_success() {
                    return Err(format!(
                        "server answered {}: {}",
                        resp.status,
                        resp.body_text()
                    ));
                }
                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Ok(latencies_ms)
        }));
    }
    let mut latencies: Vec<f64> = Vec::with_capacity(requests);
    for h in handles {
        latencies.extend(
            h.join()
                .map_err(|_| ArgError("worker panicked".into()))?
                .map_err(ArgError)?,
        );
    }
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    println!(
        "{} requests over {} connection(s) in {:.2}s: {:.0} req/s; latency p50 {:.2} ms, p99 {:.2} ms",
        latencies.len(),
        concurrency,
        wall,
        latencies.len() as f64 / wall,
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
    );
    Ok(())
}

/// `scoutctl fleetgen`: trace-driven multi-team replay against a running
/// fleet server. Regenerates the same synthetic workload the server
/// booted with (same `--seed`/`--faults-per-day`), replays a burst of
/// incidents — each with its ground-truth owning team — through
/// `POST /v1/route` at the requested concurrency, and reports routing
/// throughput, latency, fleet-level accuracy, and the top-k suggestion
/// hit rate. `--min-accuracy` / `--max-unmapped` turn the report into a
/// CI gate (non-zero exit on violation).
///
/// Accuracy is judged at *base-team* granularity (replica Scouts of one
/// base team share a model, so `PhyNet-3` answering for a PhyNet
/// incident is correct): an incident whose owner has a registered Scout
/// counts as a hit when the decision is `send_to` that owner's base;
/// an incident whose owner has no Scout counts as a hit when the fleet
/// falls back to legacy routing.
fn fleetgen(args: &Args) -> Result<(), ArgError> {
    use serve::Client;
    use std::collections::BTreeSet;

    let addr = args
        .get("addr")
        .ok_or_else(|| ArgError("fleetgen needs --addr HOST:PORT".into()))?
        .to_string();
    let requests = args.get_parsed("requests", 200usize)?.max(1);
    let concurrency = args.get_parsed("concurrency", 4usize)?.max(1);
    let min_accuracy = args.get_parsed("min-accuracy", 0.0f64)?;
    let retries = args.get_parsed("retries", 0u32)?;
    let max_unmapped = match args.get("max-unmapped") {
        None => None,
        Some(_) => Some(args.get_parsed("max-unmapped", 0u64)?),
    };
    // `--storm SCENARIO`: run an adversarial storm (same traffic-shaping
    // core as stormgen) concurrently with the measured replay — the
    // accuracy and latency below are then "under storm" numbers.
    let storm_preset = match args.get("storm") {
        None => None,
        Some(slug) => Some(cloudsim::StormScenario::from_slug(slug).ok_or_else(|| {
            let valid: Vec<&str> = cloudsim::StormScenario::ALL
                .iter()
                .map(|s| s.slug())
                .collect();
            ArgError(format!(
                "unknown --storm '{slug}'; valid: {}",
                valid.join(", ")
            ))
        })?),
    };

    // Which base teams have a registered Scout? The server knows.
    let mut client = Client::connect(&addr).map_err(|e| ArgError(e.to_string()))?;
    let ready = client.get("/readyz").map_err(|e| ArgError(e.to_string()))?;
    if !ready.is_success() {
        return Err(ArgError(format!("/readyz answered {}", ready.status)));
    }
    let ready_text = ready.body_text();
    let ready_json = obs::json::Value::parse(&ready_text)
        .ok_or_else(|| ArgError("/readyz response is not valid JSON".into()))?;
    let scouted: BTreeSet<String> = ready_json
        .get("teams")
        .and_then(obs::json::Value::as_arr)
        .map(|teams| {
            teams
                .iter()
                .filter_map(obs::json::Value::as_str)
                .map(|t| cloudsim::base_team_name(t).to_string())
                .collect()
        })
        .unwrap_or_default();
    if scouted.is_empty() {
        return Err(ArgError("/readyz lists no registered teams".into()));
    }

    // The replay burst: an even-stride, chronological sample of the
    // regenerated trace, each incident carrying its ground-truth owner.
    let world = load_world(args)?;
    let total = world.incidents.len();
    if total == 0 {
        return Err(ArgError("the workload generated no incidents".into()));
    }
    let picks: Vec<usize> = (0..requests).map(|k| k * total / requests).collect();

    struct Shot {
        latency_ms: f64,
        hit: bool,
        topk_hit: bool,
        fallback: bool,
    }

    let world = std::sync::Arc::new(world);
    let scouted = std::sync::Arc::new(scouted);
    let started = std::time::Instant::now();

    // The storm pressure thread fires its whole plan alongside the
    // measured workers; 429/503 are expected under storm and tolerated.
    let storm_handle = storm_preset.map(|scenario| {
        use stormtraffic::{build_plan, PlanAction, StormTrafficConfig};
        let config = StormTrafficConfig {
            scenario,
            amplification: args.get_parsed("amplification", 100usize).unwrap_or(100),
            background: 0,
            ..StormTrafficConfig::default()
        };
        let plan = build_plan(&world, &config);
        eprintln!(
            "[scoutctl] storm preset {}: {} concurrent adversarial shots",
            scenario.slug(),
            plan.shot_count()
        );
        let addr = addr.clone();
        std::thread::spawn(move || -> Result<(u64, u64), String> {
            let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
            let (mut suppressed, mut throttled) = (0u64, 0u64);
            for action in &plan.actions {
                let PlanAction::Route(shot) = action else {
                    continue;
                };
                let body = obs::json::Obj::new()
                    .str("text", &shot.text)
                    .str("source", &shot.source)
                    .uint("severity", shot.severity as u64)
                    .uint("time_minutes", shot.time_minutes)
                    .finish();
                let resp = client
                    .post_json("/v1/route", &body)
                    .map_err(|e| e.to_string())?;
                match resp.status {
                    200 if resp.body_text().contains("\"suppressed\":true") => suppressed += 1,
                    429 => throttled += 1,
                    _ => {}
                }
            }
            Ok((suppressed, throttled))
        })
    });

    let mut handles = Vec::new();
    for worker in 0..concurrency {
        let slice: Vec<usize> = picks
            .iter()
            .copied()
            .skip(worker)
            .step_by(concurrency)
            .collect();
        let (addr, world, scouted) = (addr.clone(), world.clone(), scouted.clone());
        handles.push(std::thread::spawn(move || -> Result<Vec<Shot>, String> {
            let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
            let mut shots = Vec::with_capacity(slice.len());
            for idx in slice {
                let incident = &world.incidents[idx];
                let body = obs::json::Obj::new()
                    .str("text", &incident.text())
                    .uint("time_minutes", incident.created_at.0)
                    .finish();
                let t = std::time::Instant::now();
                let resp = client
                    .post_json_retry(
                        "/v1/route",
                        &body,
                        retries,
                        std::time::Duration::from_secs(2),
                    )
                    .map_err(|e| e.to_string())?;
                let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                if !resp.is_success() {
                    return Err(format!(
                        "server answered {}: {}",
                        resp.status,
                        resp.body_text()
                    ));
                }
                let text = resp.body_text();
                let value = obs::json::Value::parse(&text)
                    .ok_or_else(|| format!("route response is not valid JSON: {text}"))?;
                let decision = value
                    .get("decision")
                    .and_then(obs::json::Value::as_str)
                    .ok_or_else(|| format!("route response has no decision: {text}"))?;
                let owner = incident.owner.name();
                let owner_scouted = scouted.contains(owner);
                let fallback = decision == "fallback";
                let hit = if owner_scouted {
                    value
                        .get("team")
                        .and_then(obs::json::Value::as_str)
                        .is_some_and(|t| cloudsim::base_team_name(t) == owner)
                } else {
                    fallback
                };
                let topk_hit = if owner_scouted {
                    value
                        .get("suggestions")
                        .and_then(obs::json::Value::as_arr)
                        .is_some_and(|s| {
                            s.iter()
                                .filter_map(|v| v.get("team").and_then(obs::json::Value::as_str))
                                .any(|t| cloudsim::base_team_name(t) == owner)
                        })
                } else {
                    fallback
                };
                shots.push(Shot {
                    latency_ms,
                    hit,
                    topk_hit,
                    fallback,
                });
            }
            Ok(shots)
        }));
    }
    let mut shots: Vec<Shot> = Vec::with_capacity(requests);
    for h in handles {
        shots.extend(
            h.join()
                .map_err(|_| ArgError("worker panicked".into()))?
                .map_err(ArgError)?,
        );
    }
    if let Some(h) = storm_handle {
        let (suppressed, throttled) = h
            .join()
            .map_err(|_| ArgError("storm thread panicked".into()))?
            .map_err(ArgError)?;
        println!("storm pressure: {suppressed} suppressed, {throttled} throttled");
    }
    let wall = started.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = shots.iter().map(|s| s.latency_ms).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let hits = shots.iter().filter(|s| s.hit).count();
    let topk_hits = shots.iter().filter(|s| s.topk_hit).count();
    let fallbacks = shots.iter().filter(|s| s.fallback).count();
    let accuracy = hits as f64 / shots.len() as f64;
    println!(
        "fleetgen: {} incidents over {} connection(s) in {:.2}s: {:.0} req/s; latency p50 {:.2} ms, p99 {:.2} ms",
        shots.len(),
        concurrency,
        wall,
        shots.len() as f64 / wall,
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
    );
    println!(
        "routing accuracy {:.1}% ({hits}/{} correct, {fallbacks} fallback); top-k hit rate {:.1}%",
        100.0 * accuracy,
        shots.len(),
        100.0 * topk_hits as f64 / shots.len() as f64,
    );

    // The unmapped-drop counter: with the string-keyed master every
    // registered team is routable, so a fleet built from the dependency
    // graph should report zero.
    let metrics = client
        .get("/metrics.json")
        .map_err(|e| ArgError(e.to_string()))?;
    let unmapped = metrics
        .body_text()
        .lines()
        .filter_map(obs::json::Value::parse)
        .find(|v| v.get("name").and_then(obs::json::Value::as_str) == Some("serve.route.unmapped"))
        .and_then(|v| v.get("value").and_then(obs::json::Value::as_f64))
        .unwrap_or(0.0) as u64;
    println!("unmapped answers: {unmapped}");
    if let Some(max) = max_unmapped {
        if unmapped > max {
            return Err(ArgError(format!(
                "unmapped answers {unmapped} exceed --max-unmapped {max}"
            )));
        }
    }
    if accuracy < min_accuracy {
        return Err(ArgError(format!(
            "routing accuracy {:.3} below --min-accuracy {min_accuracy}",
            accuracy
        )));
    }
    Ok(())
}

/// `scoutctl stormgen`: replay an adversarial alert-storm plan against a
/// running fleet server and report how the storm-control layer held up —
/// suppressed duplicates, throttled sources, coalesced batches, breaker
/// trips, and the latency of the background (non-storm) control group.
/// `--max-5xx` (default 0) turns the report into a CI gate: the storm
/// layer's whole point is that a storm degrades into 2xx/4xx, never 5xx.
fn stormgen(args: &Args) -> Result<(), ArgError> {
    use serve::Client;
    use stormtraffic::{build_plan, PlanAction, ShotKind, StormTrafficConfig};

    let addr = args
        .get("addr")
        .ok_or_else(|| ArgError("stormgen needs --addr HOST:PORT".into()))?
        .to_string();
    let scenario_slug = args.get("scenario").unwrap_or("duplicate-burst");
    let scenario = cloudsim::StormScenario::from_slug(scenario_slug).ok_or_else(|| {
        let valid: Vec<&str> = cloudsim::StormScenario::ALL
            .iter()
            .map(|s| s.slug())
            .collect();
        ArgError(format!(
            "unknown --scenario '{scenario_slug}'; valid: {}",
            valid.join(", ")
        ))
    })?;
    let config = StormTrafficConfig {
        scenario,
        amplification: args.get_parsed("amplification", 100usize)?.max(1),
        background: args.get_parsed("background", 40usize)?,
        sources: args.get_parsed("sources", 3usize)?.max(1),
        roots: args.get_parsed("roots", 3usize)?.max(1),
        seed: args.get_parsed("seed", 42u64)?,
        deprecate_dataset: args
            .get("deprecate-dataset")
            .unwrap_or("snmp-syslog")
            .to_string(),
    };
    let retries = args.get_parsed("retries", 0u32)?;
    let max_5xx = args.get_parsed("max-5xx", 0u64)?;
    let world = load_world(args)?;
    let plan = build_plan(&world, &config);
    eprintln!(
        "[scoutctl] storm plan: {} ({} shots, amplification {}x)",
        scenario.slug(),
        plan.shot_count(),
        config.amplification
    );

    let mut client = Client::connect(&addr).map_err(|e| ArgError(e.to_string()))?;
    let started = std::time::Instant::now();
    let (mut ok, mut suppressed, mut throttled, mut shed, mut fivexx) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut background_ms: Vec<f64> = Vec::new();
    for action in &plan.actions {
        match action {
            PlanAction::Deprecate { dataset } => {
                let body = obs::json::Obj::new().str("dataset", dataset).finish();
                let resp = client
                    .post_json("/v1/monitoring/deprecate", &body)
                    .map_err(|e| ArgError(e.to_string()))?;
                if !resp.is_success() {
                    return Err(ArgError(format!(
                        "deprecate answered {}: {}",
                        resp.status,
                        resp.body_text()
                    )));
                }
                eprintln!("[scoutctl] deprecated data set {dataset} mid-storm");
            }
            PlanAction::Route(shot) => {
                let body = obs::json::Obj::new()
                    .str("text", &shot.text)
                    .str("source", &shot.source)
                    .uint("severity", shot.severity as u64)
                    .uint("time_minutes", shot.time_minutes)
                    .finish();
                let t = std::time::Instant::now();
                let resp = client
                    .post_json_retry(
                        "/v1/route",
                        &body,
                        retries,
                        std::time::Duration::from_secs(2),
                    )
                    .map_err(|e| ArgError(e.to_string()))?;
                let latency = t.elapsed().as_secs_f64() * 1e3;
                match resp.status {
                    200 => {
                        ok += 1;
                        if resp.body_text().contains("\"suppressed\":true") {
                            suppressed += 1;
                        }
                        if shot.kind == ShotKind::Background {
                            background_ms.push(latency);
                        }
                    }
                    429 => throttled += 1,
                    503 | 504 => shed += 1,
                    s if s >= 500 => fivexx += 1,
                    _ => fivexx += 1,
                }
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    background_ms.sort_by(|a, b| a.total_cmp(b));
    println!(
        "stormgen {}: {} shots in {:.2}s ({:.0} req/s): {ok} ok ({suppressed} suppressed), {throttled} throttled, {shed} shed, {fivexx} 5xx/other",
        plan.scenario.slug(),
        plan.shot_count(),
        wall,
        plan.shot_count() as f64 / wall,
    );
    if !background_ms.is_empty() {
        println!(
            "background (non-storm) latency: p50 {:.2} ms, p99 {:.2} ms over {} shots",
            percentile(&background_ms, 50.0),
            percentile(&background_ms, 99.0),
            background_ms.len(),
        );
    }

    // The server-side view: what did the storm layer actually do?
    let metrics = client
        .get("/metrics.json")
        .map_err(|e| ArgError(e.to_string()))?;
    let metric = |name: &str| -> u64 {
        metrics
            .body_text()
            .lines()
            .filter_map(obs::json::Value::parse)
            .find(|v| v.get("name").and_then(obs::json::Value::as_str) == Some(name))
            .and_then(|v| v.get("value").and_then(obs::json::Value::as_f64))
            .unwrap_or(0.0) as u64
    };
    println!(
        "server storm counters: dedup.suppressed {} throttle.dropped {} batch.coalesced {} breaker.open {} breaker.rejected {}",
        metric("storm.dedup.suppressed"),
        metric("storm.throttle.dropped"),
        metric("storm.batch.coalesced"),
        metric("storm.breaker.open"),
        metric("storm.breaker.rejected"),
    );
    if fivexx > max_5xx {
        return Err(ArgError(format!(
            "{fivexx} server-error responses exceed --max-5xx {max_5xx}: a storm must degrade, not error"
        )));
    }
    Ok(())
}

/// Percentile of an already-sorted sample (nearest-rank on n-1).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `scoutctl flight`: fetch a running server's flight-recorder ring
/// (`GET /v1/debug/flight`) and print it — or write it to `--out` — as
/// JSONL, newest event last.
fn flight_cmd(args: &Args) -> Result<(), ArgError> {
    use serve::Client;

    let addr = args
        .get("addr")
        .ok_or_else(|| ArgError("flight needs --addr HOST:PORT".into()))?;
    let mut client = Client::connect(addr).map_err(|e| ArgError(e.to_string()))?;
    let resp = client
        .get("/v1/debug/flight")
        .map_err(|e| ArgError(e.to_string()))?;
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

    let addr = args
        .get("addr")
        .ok_or_else(|| ArgError("probe needs --addr HOST:PORT".into()))?;
    let path = args.get("path").unwrap_or("/healthz");
    let mut client = Client::connect(addr).map_err(|e| ArgError(e.to_string()))?;
    // An explicit trace id makes the request always-sampled, so its
    // spans are recoverable from `scoutctl flight` afterwards.
    let trace_id = args.get("trace-id");
    let headers: Vec<(&str, &str)> = trace_id.iter().map(|id| ("X-Trace-Id", *id)).collect();
    let resp = match args.get("body") {
        Some(body) => client.request("POST", path, &headers, body.as_bytes()),
        None => client.request("GET", path, &headers, b""),
    }
    .map_err(|e| ArgError(e.to_string()))?;
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
