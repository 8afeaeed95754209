//! `scoutbench` — the end-to-end benchmark of the serving plane that the
//! root `BENCHMARK.json` declares.
//!
//! ```text
//! scoutbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! scoutbench --all [--seed <n>] [--repeat <k>] [--check]
//! ```
//!
//! The first form runs one workload in this process — an in-process
//! `serve::Server` on `127.0.0.1:0`, real keep-alive sockets — prints
//! every metric by name with its unit, and ends with the one-line result
//! object of the benchmark contract (`--trace 0`: the end-to-end metrics;
//! `--trace 1`: the per-layer metrics). The second form runs every mix —
//! the workloads `BENCHMARK.json` declares, then `route_storm`, which it
//! does not (see the README) — each in a fresh child process, and writes
//! `bench/scoutbench.json` and `bench/trace-<workload>.jsonl` under the
//! cargo target directory.

mod harness;
mod layers;
mod load;
mod oracle;
mod render;
mod run;
mod setup;
mod spec;
mod traffic;

use harness::{Metric, WorkloadResult};
use obs::json::Value;
use spec::Spec;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use traffic::Mix;

const USAGE: &str = "usage: scoutbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       scoutbench --all [--seed <n>] [--seconds <s>] [--repeat <k>] [--check]
  --workload    predict_warm | predict_cold_wal | route_fleet32 | route_storm
  --seed        traffic seed (default 1); the world and the models are fixed
  --seconds     measured window (alias --duration-s; default: BENCHMARK.json run_seconds)
  --trace       0: end-to-end metrics; 1: per-layer metrics
  --warmup-s    unmeasured load before the window (default 3)
  --world-days  horizon of the generated world (default 120)
  --repeat      with --all: run the whole set this many times
  --check       with --all --repeat: fail if two runs of one end-to-end metric
                on a declared workload disagree by more than its BENCHMARK.json bound";

/// `--key value` pairs and bare `--flag`s.
fn parse_args(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let value = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => String::new(),
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    args: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} takes a number, got {v:?}")),
    }
}

/// Read back the report block a `--full` child printed as its last line.
fn parse_result(line: &str) -> Option<WorkloadResult> {
    let v = Value::parse(line)?;
    let uint = |k: &str| v.get(k).and_then(Value::as_f64).map(|n| n as u64);
    let metrics = match v.get("metrics")? {
        Value::Obj(fields) => fields
            .iter()
            .map(|(name, m)| {
                Some(Metric::new(
                    name,
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?,
                ))
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    Some(WorkloadResult {
        workload: v.get("workload")?.as_str()?.to_string(),
        seed: uint("seed")?,
        duration_s: v.get("duration_s")?.as_f64()?,
        sent: uint("sent")?,
        ok: uint("ok")?,
        failed: uint("failed")?,
        failed_checks: v
            .get("failed_checks")?
            .as_arr()?
            .iter()
            .filter_map(|c| c.as_str().map(str::to_string))
            .collect(),
        metrics,
    })
}

/// Run every mix `repeat` times, each run in a fresh child process: the
/// declared workloads in declaration order, then the undeclared mixes.
fn run_all(args: &BTreeMap<String, String>, spec: &Spec) -> Result<bool, String> {
    let seed: u64 = number(args, "seed", 1)?;
    let repeat: usize = number(args, "repeat", 1)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut workloads = spec.workloads.clone();
    for mix in Mix::ALL {
        if !workloads.iter().any(|w| w == mix.name()) {
            workloads.push(mix.name().to_string());
        }
    }
    let mut runs: Vec<WorkloadResult> = Vec::new();
    for round in 0..repeat.max(1) {
        for workload in &workloads {
            println!("== {workload} (round {}/{repeat}) ==", round + 1);
            let mut child = Command::new(&exe);
            child.args(["--workload", workload, "--trace", "1", "--full"]);
            for key in ["seed", "seconds", "duration-s", "warmup-s", "world-days"] {
                if let Some(v) = args.get(key) {
                    child.arg(format!("--{key}")).arg(v);
                }
            }
            let output = child
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (body, last) = stdout
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", stdout.trim_end()));
            println!("{body}");
            runs.push(
                parse_result(last).ok_or_else(|| {
                    format!("{workload} printed no result (exit {})", output.status)
                })?,
            );
        }
    }
    let report = harness::out_dir().join("scoutbench.json");
    harness::write_report(&report, seed, run::clients(), &runs)
        .map_err(|e| format!("{}: {e}", report.display()))?;
    println!("wrote {}", report.display());

    let mut good = runs.iter().all(WorkloadResult::correct);
    if repeat > 1 {
        println!(
            "\n{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "first", "last", "spread", "bound"
        );
        for workload in &workloads {
            // An undeclared mix is shown, not judged.
            let judged = spec.workloads.contains(workload);
            for m in &spec.end_to_end {
                let values: Vec<f64> = runs
                    .iter()
                    .filter(|r| &r.workload == workload)
                    .filter_map(|r| r.metrics.iter().find(|x| x.name == m.name))
                    .map(|x| x.value)
                    .collect();
                // Two runs: their distance; many: the interquartile range
                // the acceptance check uses. Both as a share of the median.
                let spread = if values.len() < 4 {
                    let s = harness::sorted(values.clone());
                    (s[s.len() - 1] - s[0]) / harness::median(&s).abs().max(f64::MIN_POSITIVE)
                } else {
                    harness::relative_spread(&values)
                };
                let bound = m.bound.unwrap_or(0.0);
                let within = spread <= bound;
                println!(
                    "{workload:<18} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
                    m.name,
                    values.first().copied().unwrap_or(0.0),
                    values.last().copied().unwrap_or(0.0),
                    spread * 100.0,
                    bound * 100.0,
                    match (within, judged) {
                        (true, _) => "",
                        (false, true) => "  OVER",
                        (false, false) => "  over (undeclared)",
                    }
                );
                good &= within || !judged || !args.contains_key("check");
            }
        }
    }
    Ok(good)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let outcome = parse_args(&argv).and_then(|args| {
        if args.contains_key("help") {
            println!("{USAGE}");
            return Ok(true);
        }
        if args.contains_key("all") {
            return run_all(&args, &spec);
        }
        let name = args
            .get("workload")
            .ok_or("one of --workload or --all is required")?;
        let mix = Mix::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let seconds = match args.get("seconds").or(args.get("duration-s")) {
            None => spec.run_seconds,
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .ok_or_else(|| format!("--seconds takes a positive number, got {v:?}"))?,
        };
        let options = run::Options {
            mix,
            seed: number(&args, "seed", 1)?,
            seconds,
            warmup_s: number(&args, "warmup-s", 3.0)?,
            world_days: number(&args, "world-days", 120)?,
            trace: number(&args, "trace", 0u8)? != 0,
            full: args.contains_key("full"),
        };
        let result = run::run(&options);
        // The result object is the last line of standard output.
        println!(
            "{}",
            if options.full {
                result.report_json()
            } else {
                result.contract_line()
            }
        );
        Ok(result.correct())
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("scoutbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
