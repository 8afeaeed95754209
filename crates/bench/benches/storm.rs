//! Storm-control benchmark, reported as `BENCH_storm.json`.
//!
//! The scenario is the paper's alert storm: a handful of root incidents
//! re-fired ~100x with cosmetic variation (case, punctuation, counter
//! debris) from one noisy source, with ordinary unrelated traffic
//! interleaved. The same request stream is replayed twice against two
//! servers that differ only in `--storm-control`:
//!
//! * **off** — every firing fans out to every Scout (the baseline);
//! * **on** — dedup answers repeats from the original's cached decision
//!   and the token bucket drops the over-rate tail, so only fresh
//!   content pays a fan-out.
//!
//! Three acceptance gates are asserted, not just reported:
//!
//! 1. background (non-storm) p99 stays within `SLO_P99_MS` while the
//!    storm rages with the layer on;
//! 2. the storm-on run performs **≥ 10x fewer fleet fan-outs** than the
//!    storm-off baseline (measured by diffing the process-global
//!    `fleet.dispatch.fanouts` counter around each run);
//! 3. background responses are **byte-identical** between the two runs —
//!    storm control must be invisible to non-storm traffic.
//!
//! `BENCH_STORM_SLO_MS` overrides the latency gate for slow machines.

use bench::{dense_world, rounded, smoke, trained, write_report};
use incident::Workload;
use obs::json::Obj;
use scout::Scout;
use serve::client::{drive, percentile};
use serve::{Client, Engine, FleetConfig, ModelRegistry, ServeConfig, Server};
use std::sync::Arc;
use storm::StormControl;

const TEAMS: &[&str] = &["PhyNet", "Storage", "Database", "SLB"];
const DEFAULT_SLO_P99_MS: f64 = 750.0;

/// A cosmetic re-firing of `text`: case flips, punctuation, and digit
/// debris — exactly the variation the dedup normalizer erases.
fn perturb(text: &str, k: usize) -> String {
    match k % 3 {
        0 => text.to_string(),
        1 => format!("{} {}", text.to_ascii_uppercase(), 100_000 + k),
        _ => format!("{}!! retrycount {}", text.to_ascii_lowercase(), 31 * k + 7),
    }
}

struct Shot {
    /// `false`: one of `roots` incidents re-fired with cosmetic
    /// variation, all from the same noisy source. `true`: an unrelated
    /// fresh incident from its own source — the traffic whose latency
    /// and bytes the gates protect.
    background: bool,
    body: String,
}

/// What a replayed shot came back as.
enum Reply {
    Background(String),
    FannedOut,
    Suppressed,
    Throttled,
}

/// The replayed request stream: `roots × amplification` storm firings
/// with `background` fresh incidents interleaved at an even stride.
fn build_shots(
    world: &Workload,
    roots: usize,
    amplification: usize,
    background: usize,
) -> Vec<Shot> {
    let texts: Vec<String> = world.incidents.iter().map(|i| i.text()).collect();
    let root_texts = &texts[..roots];
    let bg_texts = &texts[roots..roots + background];

    let storm_total = roots * amplification;
    let stride = (storm_total / background.max(1)).max(1);
    let mut shots = Vec::new();
    let mut bg_next = 0usize;
    for k in 0..storm_total {
        if k % stride == 0 && bg_next < bg_texts.len() {
            shots.push(Shot {
                background: true,
                body: Obj::new()
                    .str("text", &bg_texts[bg_next])
                    .str("source", &format!("background-{bg_next}"))
                    .uint("severity", 2)
                    .finish(),
            });
            bg_next += 1;
        }
        shots.push(Shot {
            background: false,
            body: Obj::new()
                .str("text", &perturb(&root_texts[k % roots], k))
                .str("source", "noisy-monitor")
                .uint("severity", 2)
                .finish(),
        });
    }
    shots
}

fn counter_value(name: &str) -> u64 {
    obs::global()
        .metrics
        .counters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

struct RunStats {
    bg_p50_ms: f64,
    bg_p99_ms: f64,
    fanouts: u64,
    suppressed: usize,
    throttled: usize,
    background_bodies: Vec<String>,
}

fn run(model_text: &str, world: &Arc<Workload>, shots: &[Shot], storm_on: bool) -> RunStats {
    let registry = Arc::new(ModelRegistry::new());
    for team in TEAMS {
        let scout = Scout::from_text(model_text).expect("model round-trip");
        registry.register(team, scout, "bench").expect("register");
    }
    let mut engine =
        Engine::new(Arc::clone(&registry), Arc::clone(world)).with_fleet(FleetConfig {
            shards: 2,
            suggestions: 3,
            fail_teams: Vec::new(),
        });
    if storm_on {
        engine = engine.with_storm(Arc::new(StormControl::new(storm::StormConfig::default())));
    }
    let server =
        Server::start(engine, "127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // Warm up (featurization paths, thread pool) before the counters are
    // snapshotted — the warmup's fan-out must not pollute the diff.
    let warmup = Obj::new()
        .str("text", "warmup incident not part of the stream")
        .str("source", "warmup")
        .finish();
    assert!(Client::connect(&addr)
        .and_then(|mut c| c.post_json("/v1/route", &warmup))
        .expect("warmup")
        .is_success());
    let fanouts_before = counter_value("fleet.dispatch.fanouts");

    // One connection replays the stream in order.
    let replay = drive(&addr, 1, shots.len(), |client, i| {
        let resp = client.post_json("/v1/route", &shots[i].body)?;
        let text = resp.body_text();
        Ok(match (shots[i].background, resp.status) {
            (true, 200) => Reply::Background(text),
            (true, _) => panic!("background traffic must never degrade: {text}"),
            (false, 200) if text.contains("\"suppressed\":true") => Reply::Suppressed,
            (false, 200) => Reply::FannedOut,
            (false, 429) => Reply::Throttled,
            (false, s) => panic!("storm shot answered {s}: {text}"),
        })
    })
    .expect("storm replay");
    let fanouts = counter_value("fleet.dispatch.fanouts") - fanouts_before;
    server.shutdown();
    let latencies = replay.latencies_ms(|r| matches!(r, Reply::Background(_)));
    let count = |pick: fn(&Reply) -> bool| replay.shots.iter().filter(|(_, r)| pick(r)).count();
    RunStats {
        bg_p50_ms: percentile(&latencies, 50.0),
        bg_p99_ms: percentile(&latencies, 99.0),
        fanouts,
        suppressed: count(|r| matches!(r, Reply::Suppressed)),
        throttled: count(|r| matches!(r, Reply::Throttled)),
        background_bodies: replay
            .shots
            .into_iter()
            .filter_map(|(_, r)| match r {
                Reply::Background(body) => Some(body),
                _ => None,
            })
            .collect(),
    }
}

fn main() {
    let smoke = smoke();
    let slo_p99_ms = std::env::var("BENCH_STORM_SLO_MS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_SLO_P99_MS);
    // (roots, amplification, background) — sized so even the smoke run
    // can clear the 10x fan-out gate.
    let (roots, amplification, background) = if smoke { (2, 50, 6) } else { (3, 100, 20) };

    let world = Arc::new(dense_world(Some(20)));
    eprintln!(
        "training the bench model on {} incidents…",
        world.incidents.len()
    );
    let model_text = trained(&world, true).to_text();
    let shots = build_shots(&world, roots, amplification, background);
    let storm_shots = shots.iter().filter(|s| !s.background).count();
    eprintln!(
        "replaying {} requests ({storm_shots} storm, {background} background) twice…",
        shots.len()
    );

    let off = run(&model_text, &world, &shots, false);
    let on = run(&model_text, &world, &shots, true);

    // Gate 1: the storm never costs non-storm traffic its latency SLO.
    assert!(
        on.bg_p99_ms <= slo_p99_ms,
        "background p99 {:.1} ms breaches the {slo_p99_ms:.0} ms SLO under storm",
        on.bg_p99_ms
    );
    // Gate 2: ≥ 10x fewer fan-outs than the storm-off baseline.
    assert!(
        on.fanouts * 10 <= off.fanouts,
        "storm control saved too little work: {} fan-outs vs {} baseline",
        on.fanouts,
        off.fanouts
    );
    // Gate 3: storm control is byte-invisible to non-storm traffic.
    assert_eq!(
        on.background_bodies, off.background_bodies,
        "background responses diverged between storm on and off"
    );
    assert!(on.suppressed > 0, "the storm must exercise dedup");

    println!(
        "storm off: {} fan-outs   background p50 {:>6.1} ms   p99 {:>6.1} ms",
        off.fanouts, off.bg_p50_ms, off.bg_p99_ms
    );
    println!(
        "storm on : {} fan-outs   background p50 {:>6.1} ms   p99 {:>6.1} ms   ({} deduped, {} throttled, {:.1}x fewer fan-outs)",
        on.fanouts,
        on.bg_p50_ms,
        on.bg_p99_ms,
        on.suppressed,
        on.throttled,
        off.fanouts as f64 / on.fanouts.max(1) as f64
    );

    let side = |r: &RunStats| {
        Obj::new()
            .uint("fanouts", r.fanouts)
            .num("bg_p50_ms", rounded(r.bg_p50_ms, 1))
            .num("bg_p99_ms", rounded(r.bg_p99_ms, 1))
    };
    write_report(
        "storm",
        1,
        Obj::new()
            .uint("roots", roots as u64)
            .uint("amplification", amplification as u64)
            .uint("background", background as u64)
            .num("slo_p99_ms", rounded(slo_p99_ms, 1))
            .raw("off", &side(&off).finish())
            .raw(
                "on",
                &side(&on)
                    .uint("suppressed", on.suppressed as u64)
                    .uint("throttled", on.throttled as u64)
                    .finish(),
            )
            .num(
                "fanout_reduction",
                rounded(off.fanouts as f64 / on.fanouts.max(1) as f64, 2),
            )
            .bool("bytes_identical", true),
    );
}
