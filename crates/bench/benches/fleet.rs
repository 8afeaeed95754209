//! Fleet routing-plane benchmark, reported as `BENCH_fleet.json`.
//!
//! For each fleet size (8 / 32 / 128 synthetic teams) this measures:
//!
//! * **throughput + latency** of `POST /v1/route` under a concurrent
//!   client fleet — every request fans the incident out to all N
//!   registered Scouts across the rendezvous shards;
//! * **fleet accuracy** against the per-Scout sequential baseline: the
//!   same incidents dispatched with `shards = 1` (one Scout after
//!   another) and with the sharded plane, routed through the same
//!   string-keyed Scout Master. The dispatch outcomes are asserted
//!   bit-identical, so the sharded accuracy can never trail the
//!   sequential baseline.

use bench::{bench_monitoring, dense_world, rounded, rows, smoke, smoke_build, write_report};
use cloudsim::{DependencyGraph, Team};
use featcache::FeatCache;
use incident::Workload;
use obs::json::Obj;
use scout::{Example, Scout, ScoutConfig};
use scoutmaster::{FleetAnswer, FleetDecision, FleetMaster};
use serve::client::{drive, percentile};
use serve::{Client, Engine, FleetConfig, ModelEntry, ModelRegistry, ServeConfig, Server};
use std::sync::Arc;

const SHARDS: usize = 8;
const CONCURRENCY: usize = 4;

/// One trained model per internal base team, from a single shared
/// featurization pass (the labels are the only per-team difference).
fn base_models(world: &Workload) -> Vec<(Team, String)> {
    let bases: Vec<Team> = cloudsim::TeamRegistry::new().internal_teams().collect();
    let mon = bench_monitoring(world);
    let examples: Vec<Example> = world
        .incidents
        .iter()
        .map(|i| Example::new(i.text(), i.created_at, false))
        .collect();
    let owners: Vec<Team> = world.incidents.iter().map(|i| i.owner).collect();
    let config = ScoutConfig::phynet();
    let build = smoke_build();
    let corpus = Scout::prepare(&config, &build, &examples, &mon);
    bases
        .into_iter()
        .map(|base| {
            let relabeled = corpus.relabeled(|i, _| owners[i] == base);
            let train = relabeled.trainable_indices();
            let scout =
                Scout::train_prepared(config.clone(), build.clone(), &relabeled, &train, &mon);
            (base, scout.to_text())
        })
        .collect()
}

fn fleet_team_name(bases: &[(Team, String)], i: usize) -> String {
    cloudsim::synthetic_team_name(bases[i % bases.len()].0, i / bases.len())
}

fn fleet_entries(bases: &[(Team, String)], n: usize) -> Vec<Arc<ModelEntry>> {
    (0..n)
        .map(|i| {
            Arc::new(ModelEntry {
                team: fleet_team_name(bases, i),
                version: i as u64 + 1,
                source: "bench".into(),
                scout: Scout::from_text(&bases[i % bases.len()].1).expect("model round-trip"),
                feat_cache: FeatCache::new(16 * 1024 * 1024),
            })
        })
        .collect()
}

fn fleet_registry(bases: &[(Team, String)], n: usize) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    for i in 0..n {
        let scout = Scout::from_text(&bases[i % bases.len()].1).expect("model round-trip");
        registry
            .register(&fleet_team_name(bases, i), scout, "bench")
            .expect("register bench model");
    }
    registry
}

/// Evenly-strided sample of incident route bodies across the workload.
fn sample_bodies(world: &Workload, count: usize) -> Vec<String> {
    let total = world.incidents.len();
    (0..count.min(total))
        .map(|k| {
            let incident = &world.incidents[k * total / count.min(total)];
            obs::json::Obj::new()
                .str("text", &incident.text())
                .uint("time_minutes", incident.created_at.0)
                .finish()
        })
        .collect()
}

struct HttpStats {
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    requests: usize,
}

fn run_http(
    bases: &[(Team, String)],
    world: &Arc<Workload>,
    n: usize,
    requests: usize,
) -> HttpStats {
    let registry = fleet_registry(bases, n);
    let engine = Engine::new(registry, Arc::clone(world))
        .with_master(FleetMaster::with_graph(DependencyGraph::synthetic_fleet(n)))
        .with_fleet(FleetConfig {
            shards: SHARDS,
            suggestions: 5,
            fail_teams: Vec::new(),
        });
    let server = Server::start(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 64,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let bodies = sample_bodies(world, requests);
    let route = |client: &mut Client, shot: usize| {
        let resp = client.post_json("/v1/route", &bodies[shot])?;
        assert!(
            resp.is_success(),
            "status {}: {}",
            resp.status,
            resp.body_text()
        );
        Ok(())
    };

    // Warm up the thread pool and connection paths. Every measured shot
    // is a distinct incident, so each still pays its own featurization —
    // once per fingerprint group, through that group's one cache.
    drive(&addr, 1, 1, route).expect("warmup");
    let measured = drive(&addr, CONCURRENCY, bodies.len(), route).expect("route run");
    server.shutdown();
    let latencies = measured.latencies_ms(|_| true);
    HttpStats {
        throughput_rps: measured.throughput_rps(),
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        requests: latencies.len(),
    }
}

struct AccuracyStats {
    fleet_accuracy: f64,
    sequential_accuracy: f64,
    sample: usize,
    bit_identical: bool,
}

fn outcome_key(outcomes: &[serve::TeamOutcome]) -> String {
    outcomes
        .iter()
        .map(|o| match &o.result {
            Ok(a) => format!("{} {:.17}\n", a.team, a.prediction.confidence),
            Err(e) => format!("{} ERR {e}\n", o.team),
        })
        .collect()
}

fn decision_hits(
    master: &FleetMaster,
    outcomes: &[serve::TeamOutcome],
    owner: Team,
    scouted: &[Team],
) -> bool {
    let answers: Vec<FleetAnswer> = outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|a| {
            FleetAnswer::new(
                a.team.clone(),
                a.prediction.says_responsible(),
                a.prediction.confidence,
            )
        })
        .collect();
    match master.route(&answers) {
        FleetDecision::SendTo(team) => cloudsim::base_team_name(&team) == owner.name(),
        FleetDecision::Fallback => !scouted.contains(&owner),
    }
}

fn run_accuracy(
    bases: &[(Team, String)],
    world: &Arc<Workload>,
    n: usize,
    sample: usize,
) -> AccuracyStats {
    let entries = fleet_entries(bases, n);
    let master = FleetMaster::with_graph(DependencyGraph::synthetic_fleet(n));
    let scouted: Vec<Team> = bases.iter().take(n).map(|(t, _)| *t).collect();
    let sharded_config = FleetConfig {
        shards: SHARDS,
        suggestions: 5,
        fail_teams: Vec::new(),
    };
    let sequential_config = FleetConfig {
        shards: 1,
        ..sharded_config.clone()
    };

    let total = world.incidents.len();
    let sample = sample.min(total);
    let mut fleet_hits = 0usize;
    let mut sequential_hits = 0usize;
    let mut bit_identical = true;
    for k in 0..sample {
        let incident = &world.incidents[k * total / sample];
        let text = incident.text();
        let sharded = serve::fleet::dispatch(
            &entries,
            world,
            &text,
            incident.created_at,
            None,
            &sharded_config,
        );
        let sequential = serve::fleet::dispatch(
            &entries,
            world,
            &text,
            incident.created_at,
            None,
            &sequential_config,
        );
        bit_identical &= outcome_key(&sharded) == outcome_key(&sequential);
        fleet_hits += decision_hits(&master, &sharded, incident.owner, &scouted) as usize;
        sequential_hits += decision_hits(&master, &sequential, incident.owner, &scouted) as usize;
    }
    AccuracyStats {
        fleet_accuracy: fleet_hits as f64 / sample as f64,
        sequential_accuracy: sequential_hits as f64 / sample as f64,
        sample,
        bit_identical,
    }
}

fn main() {
    let smoke = smoke();
    // (teams, http requests, accuracy sample) per fleet size.
    let sizes: &[(usize, usize, usize)] = if smoke {
        &[(8, 12, 12)]
    } else {
        &[(8, 64, 32), (32, 32, 32), (128, 16, 24)]
    };

    let world = Arc::new(dense_world(Some(if smoke { 20 } else { 40 })));
    eprintln!(
        "training {} base models on {} incidents…",
        cloudsim::TeamRegistry::new().internal_teams().count(),
        world.incidents.len()
    );
    let bases = base_models(&world);

    let mut results = Vec::new();
    for &(n, requests, sample) in sizes {
        eprintln!("fleet size {n}: HTTP run ({requests} requests)…");
        let http = run_http(&bases, &world, n, requests);
        eprintln!("fleet size {n}: accuracy run ({sample} incidents)…");
        let acc = run_accuracy(&bases, &world, n, sample);
        assert!(acc.bit_identical, "sharded dispatch diverged at {n} teams");
        assert!(
            acc.fleet_accuracy >= acc.sequential_accuracy,
            "fleet accuracy fell below the sequential baseline at {n} teams"
        );
        println!(
            "teams {n:>4}   {:>7.2} req/s   p50 {:>8.1} ms   p99 {:>8.1} ms   accuracy {:.3} (sequential {:.3})",
            http.throughput_rps, http.p50_ms, http.p99_ms, acc.fleet_accuracy, acc.sequential_accuracy
        );
        results.push((n, http, acc));
    }

    let sizes = rows(&results, |(n, http, acc)| {
        Obj::new()
            .uint("teams", *n as u64)
            .uint("requests", http.requests as u64)
            .num("throughput_rps", rounded(http.throughput_rps, 2))
            .num("p50_ms", rounded(http.p50_ms, 1))
            .num("p99_ms", rounded(http.p99_ms, 1))
            .uint("accuracy_sample", acc.sample as u64)
            .num("fleet_accuracy", rounded(acc.fleet_accuracy, 4))
            .num("sequential_accuracy", rounded(acc.sequential_accuracy, 4))
            .bool("bit_identical", acc.bit_identical)
    });
    write_report(
        "fleet",
        1,
        Obj::new()
            .uint("shards", SHARDS as u64)
            .uint("concurrency", CONCURRENCY as u64)
            .raw("sizes", &sizes),
    );
}
