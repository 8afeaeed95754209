//! Tracing overhead on the serving hot path, reported as
//! `BENCH_obs.json`.
//!
//! One trained Scout answers the same batched predict call
//! (`predict_many_traced`, the call a served predict makes over its one
//! input) under three tracing regimes:
//!
//! - `off` — no per-item trace contexts (tracing disabled);
//! - `sampled64` — every item traced, flight-sampled 1-in-64 (the
//!   serving default);
//! - `full` — every item traced and sampled (every span builds its
//!   JSON event and lands in the flight ring).
//!
//! The contract is that `sampled64` stays within ~5% of `off`: tracing
//! at the default rate must be effectively free, because the per-span
//! cost when unsampled is a thread-local stack push/pop and a histogram
//! record. Best-of-reps throughput is reported per mode. A traced mode's
//! overhead is taken from the median over reps of its throughput ratio to
//! the `off` rep that ran beside it: on a shared machine, reps of one mode
//! spread by ±20%, so a best-of-reps ratio reads drift as overhead, while
//! drift over seconds cancels within a pair. A full-mode rep is sized
//! from a calibration pass to run about [`REP_SECONDS`].

use bench::{
    bench_monitoring, max, median, paired_reps, rounded, rows, serving_world, smoke, trained,
    write_report,
};
use cloudsim::SimTime;
use featcache::FeatCache;
use monitoring::MonitoringSystem;
use obs::json::Obj;
use obs::TraceContext;
use scout::Scout;
use std::time::Instant;

/// Target length of one full-mode rep of `off`, the fastest mode.
const REP_SECONDS: f64 = 1.25;

struct Mode {
    name: &'static str,
    /// `None` = no contexts at all; `Some(n)` = per-item minted
    /// contexts at 1-in-`n` flight sampling.
    sample_every: Option<u64>,
}

struct RunStats {
    name: &'static str,
    throughput_ips: f64,
}

/// One timed pass: `iters` batched predicts of `inputs`, under `mode`.
fn run(
    mode: &Mode,
    scout: &Scout,
    mon: &MonitoringSystem<'_>,
    inputs: &[(&str, SimTime)],
    cache: &FeatCache,
    iters: usize,
) -> f64 {
    obs::trace::set_sample_every(mode.sample_every.unwrap_or(0));
    let started = Instant::now();
    for _ in 0..iters {
        let predictions = match mode.sample_every {
            None => scout.predict_many_cached(inputs, mon, Some(cache)),
            Some(_) => {
                // Mint one context per item, exactly as the server does
                // per request before handing the batch over.
                let ctxs: Vec<TraceContext> = inputs.iter().map(|_| TraceContext::mint()).collect();
                scout.predict_many_traced(inputs, mon, Some(cache), Some(&ctxs))
            }
        };
        assert_eq!(predictions.len(), inputs.len());
    }
    (iters * inputs.len()) as f64 / started.elapsed().as_secs_f64()
}

fn main() {
    let smoke = smoke();
    let (batch, reps) = if smoke { (16, 2) } else { (64, 9) };

    let world = serving_world(smoke);
    let scout = trained(&world, smoke);
    let mon = bench_monitoring(&world);
    let picked: Vec<(String, SimTime)> = world
        .incidents
        .iter()
        .cycle()
        .take(batch)
        .map(|i| (i.text(), i.created_at))
        .collect();
    let inputs: Vec<(&str, SimTime)> = picked.iter().map(|(t, at)| (t.as_str(), *at)).collect();

    // Same collector state as a live server: metrics on, warm feature
    // cache, no sinks (sink IO is a deployment choice, not span cost).
    obs::enable();
    let cache = FeatCache::new(64 << 20);
    let modes = [
        Mode {
            name: "off",
            sample_every: None,
        },
        Mode {
            name: "sampled64",
            sample_every: Some(64),
        },
        Mode {
            name: "full",
            sample_every: Some(1),
        },
    ];

    // Warm up every mode: pool threads, feature cache, mint path.
    for mode in &modes {
        run(mode, &scout, &mon, &inputs, &cache, 1);
    }
    let iters = if smoke {
        4
    } else {
        let items_per_s = run(&modes[0], &scout, &mon, &inputs, &cache, 25);
        (REP_SECONDS * items_per_s / batch as f64).ceil() as usize
    };

    // The modes interleaved, so `samples[m][r]` ran beside `samples[0][r]`.
    let samples = paired_reps(reps, modes.len(), |i| {
        run(&modes[i], &scout, &mon, &inputs, &cache, iters)
    });
    let stats: Vec<RunStats> = samples
        .iter()
        .zip(&modes)
        .map(|(samples, mode)| RunStats {
            name: mode.name,
            throughput_ips: max(samples),
        })
        .collect();
    obs::trace::set_sample_every(64);

    let overhead = |traced: &[f64]| {
        let ratios: Vec<f64> = traced
            .iter()
            .zip(&samples[0])
            .map(|(t, off)| t / off)
            .collect();
        ((1.0 - median(&ratios)) * 100.0).max(0.0)
    };
    let sampled_overhead = overhead(&samples[1]);
    let full_overhead = overhead(&samples[2]);

    for r in &stats {
        println!("{:<10} {:>10.1} items/s", r.name, r.throughput_ips);
    }
    println!(
        "overhead vs off (median paired ratio): sampled64 {sampled_overhead:.2}%, full {full_overhead:.2}%"
    );

    let modes = rows(&stats, |r| {
        Obj::new()
            .str("name", r.name)
            .num("throughput_items_per_s", rounded(r.throughput_ips, 1))
    });
    write_report(
        "obs",
        reps,
        Obj::new()
            .uint("batch", batch as u64)
            .uint("iters_per_rep", iters as u64)
            .raw("modes", &modes)
            .num("sampled64_overhead_pct", rounded(sampled_overhead, 2))
            .num("full_overhead_pct", rounded(full_overhead, 2)),
    );
}
