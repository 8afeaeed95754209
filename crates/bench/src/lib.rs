//! The bench harness: everything the benchmarks under `benches/` share.
//!
//! * **Mode** — [`smoke`] reads `BENCH_SMOKE` once for every bench;
//!   [`smoke_build`] is the CI-sized Scout build that goes with it.
//! * **Fixtures** — the seed-7 worlds ([`bench_world`], [`dense_world`],
//!   [`serving_world`]) and [`trained`], the PhyNet Scout over one of
//!   them, plus [`predict_shot`]. Each bench picks the world it has always measured, so its
//!   numbers stay comparable across commits.
//! * **Repetition** — [`time_s`], [`reps_s`], [`paired_reps`] (interleaved
//!   arms, so drift on a shared machine lands on every arm alike),
//!   [`median`], [`min`] and [`max`]; [`Kernel`] and [`kernel_report`]
//!   for a bench that is a list of named per-op kernels.
//! * **Report** — [`write_report`] stamps `commit`, `cores`, `smoke` and
//!   `reps` onto the bench's own keys and writes `BENCH_<name>.json`:
//!   full runs to the workspace root (the committed baselines), smoke
//!   runs to `target/bench/`, so CI never overwrites a baseline.

use cloudsim::{SimDuration, Team};
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use obs::json::{Arr, Obj};
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use serve::{Client, ClientError};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Is this a `BENCH_SMOKE=1` run (tiny workloads, used by
/// `scripts/check.sh --bench-smoke` and CI to keep the benches compiling
/// and running without paying for the full measurement)?
pub fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The CI-sized Scout build: 8 trees, 10 cluster-training incidents.
pub fn smoke_build() -> ScoutBuildConfig {
    ScoutBuildConfig {
        forest: ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        cluster_train_cap: 10,
        ..ScoutBuildConfig::default()
    }
}

fn seed7_world(faults_per_day: f64, days: Option<u64>) -> Workload {
    let mut config = WorkloadConfig {
        seed: 7,
        ..WorkloadConfig::default()
    };
    config.faults.faults_per_day = faults_per_day;
    if let Some(days) = days {
        config.faults.horizon = SimDuration::days(days);
    }
    Workload::generate(config)
}

/// A small benchmark world (~300 incidents): one fault a day over the
/// study window.
pub fn bench_world() -> Workload {
    seed7_world(1.0, None)
}

/// Two faults a day over `days` (`None`: the whole study window).
pub fn dense_world(days: Option<u64>) -> Workload {
    seed7_world(2.0, days)
}

/// The world behind a one-Scout serving bench: [`bench_world`] in full
/// mode, 20 dense days in smoke mode.
pub fn serving_world(smoke: bool) -> Workload {
    if smoke {
        dense_world(Some(20))
    } else {
        bench_world()
    }
}

/// Monitoring plane over a world.
pub fn bench_monitoring(world: &Workload) -> MonitoringSystem<'_> {
    MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default())
}

/// PhyNet-labeled examples.
pub fn bench_examples(world: &Workload) -> Vec<Example> {
    world
        .incidents
        .iter()
        .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
        .collect()
}

/// A trained Scout plus its corpus.
pub fn bench_scout<'a>(
    world: &Workload,
    mon: &MonitoringSystem<'a>,
) -> (Scout, scout::scout::PreparedCorpus) {
    let exs = bench_examples(world);
    Scout::train(
        ScoutConfig::phynet(),
        ScoutBuildConfig::default(),
        &exs,
        mon,
    )
}

/// The PhyNet Scout trained on all of `world`, with [`smoke_build`] when
/// `smoke` and the default build otherwise.
pub fn trained(world: &Workload, smoke: bool) -> Scout {
    let build = if smoke {
        smoke_build()
    } else {
        ScoutBuildConfig::default()
    };
    let mon = bench_monitoring(world);
    Scout::train(ScoutConfig::phynet(), build, &bench_examples(world), &mon).0
}

/// One `POST /v1/scouts/PhyNet/predict` of a fixed incident — the shot
/// the one-Scout serving benches hand to [`serve::client::drive`].
pub fn predict_shot(client: &mut Client, _shot: usize) -> Result<(), ClientError> {
    const INCIDENT: &str =
        r#"{"text":"Switch agg-3 in c1.dc1 reporting CRC errors and packet loss"}"#;
    let resp = client.post_json("/v1/scouts/PhyNet/predict", INCIDENT)?;
    assert!(resp.is_success(), "status {}", resp.status);
    Ok(())
}

/// Wall seconds of one call of `f`.
pub fn time_s<R>(f: impl FnOnce() -> R) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// Wall seconds of each of `reps` back-to-back calls of `f`.
pub fn reps_s<R>(reps: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..reps).map(|_| time_s(&mut f)).collect()
}

/// `reps` rounds over `arms` configurations, *interleaved* (A B C, A B C,
/// …) so slow drift on a shared machine lands on every arm instead of
/// whichever ran last. `run(arm)` produces one sample; the result is the
/// samples per arm, in rep order, so `out[a][r]` and `out[b][r]` ran
/// next to each other and may be compared as a pair.
pub fn paired_reps<T>(reps: usize, arms: usize, mut run: impl FnMut(usize) -> T) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..arms).map(|_| Vec::with_capacity(reps)).collect();
    for _ in 0..reps {
        for (arm, samples) in out.iter_mut().enumerate() {
            samples.push(run(arm));
        }
    }
    out
}

/// The median of a non-empty sample (the upper one of an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The smallest of a sample: best-of-reps for a time.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The largest of a sample: best-of-reps for a rate.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// `v` rounded to `places` decimals, so a report reads `7.495`, not
/// sixteen digits of timer noise.
pub fn rounded(v: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (v * scale).round() / scale
}

/// A JSON array of one object per row.
pub fn rows<T>(items: &[T], row: impl Fn(&T) -> Obj) -> String {
    items
        .iter()
        .fold(Arr::new(), |arr, item| arr.raw(&row(item).finish()))
        .finish()
}

/// One named kernel of a [`kernel_report`] bench. A timed rep is
/// `calls` back-to-back calls of it, so a kernel of a few microseconds
/// is timed over about a millisecond rather than at the timer's grain.
pub struct Kernel<'a> {
    name: &'static str,
    calls: usize,
    run: Box<dyn FnMut() + 'a>,
}

impl<'a> Kernel<'a> {
    /// `name` timed over `calls` calls of `f` per rep; each result goes
    /// through [`black_box`].
    pub fn new<R>(name: &'static str, calls: usize, mut f: impl FnMut() -> R + 'a) -> Kernel<'a> {
        Kernel {
            name,
            calls,
            run: Box::new(move || {
                black_box(f());
            }),
        }
    }
}

/// Time `kernels` as the bench `bench`: one untimed call of each, then
/// `reps` interleaved rounds ([`paired_reps`]). Prints and reports each
/// kernel's median and min nanoseconds per call in `BENCH_<bench>.json`.
pub fn kernel_report(bench: &str, reps: usize, mut kernels: Vec<Kernel>) {
    for kernel in &mut kernels {
        (kernel.run)();
    }
    let secs = paired_reps(reps, kernels.len(), |k| {
        let kernel = &mut kernels[k];
        time_s(|| {
            for _ in 0..kernel.calls {
                (kernel.run)();
            }
        })
    });
    let per_op: Vec<Vec<f64>> = kernels
        .iter()
        .zip(&secs)
        .map(|(kernel, s)| s.iter().map(|t| t * 1e9 / kernel.calls as f64).collect())
        .collect();
    for (kernel, ns) in kernels.iter().zip(&per_op) {
        println!(
            "{:<28} median {:>12.1} ns/op   min {:>12.1} ns/op   ({} calls/rep, {reps} reps)",
            kernel.name,
            median(ns),
            min(ns),
            kernel.calls
        );
    }
    let table: Vec<(&Kernel, &Vec<f64>)> = kernels.iter().zip(&per_op).collect();
    let report = rows(&table, |(kernel, ns)| {
        Obj::new()
            .str("name", kernel.name)
            .uint("calls_per_rep", kernel.calls as u64)
            .num("median_ns", rounded(median(ns), 1))
            .num("min_ns", rounded(min(ns), 1))
    });
    write_report(bench, reps, Obj::new().raw("kernels", &report));
}

fn commit(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Stamp `body` with `commit`, `cores`, `smoke` and `reps`, and write it
/// as `BENCH_<name>.json` — at the workspace root for a full run, under
/// `target/bench/` for a [`smoke`] run.
pub fn write_report(name: &str, reps: usize, body: Obj) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let smoke = smoke();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = body
        .str("commit", &commit(&root))
        .uint("cores", cores as u64)
        .bool("smoke", smoke)
        .uint("reps", reps as u64)
        .finish();
    let dir = if smoke {
        root.join("target/bench")
    } else {
        root
    };
    std::fs::create_dir_all(&dir).expect("create the report directory");
    let out = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&out, format!("{json}\n")).expect("write the bench report");
    println!("wrote {}", out.display());
}
