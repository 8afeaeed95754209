//! Every mix for one second on a 20-day world, through the `--all`
//! driver: the report must carry the workloads `BENCHMARK.json` declares,
//! in its order, then the one mix it leaves out, each with exactly the
//! declared metrics, and the oracle must pass.
//!
//! Run with `cargo test --release`: the benchmark measures optimized
//! builds only. An unoptimized build is an order of magnitude slower,
//! and its overflow checks turn a counter race in `pool` (chunks become
//! claimable before `queued` is raised, so a fast worker decrements it
//! below zero) into a worker panic under the back-to-back no-op maps of
//! the `pool.map_overhead_us` timing.

use obs::json::Value;
use std::process::Command;

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "optimized builds only: cargo test --release"
)]
fn every_workload_reports_exactly_the_declared_metrics_and_passes_its_oracle() {
    let spec = Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let mut declared = names(&spec, "end_to_end");
    declared.extend(names(&spec, "per_layer"));

    let output = Command::new(env!("CARGO_BIN_EXE_scoutbench"))
        .args([
            "--all",
            "--seed",
            "3",
            "--duration-s",
            "1",
            "--warmup-s",
            "0.3",
            "--world-days",
            "20",
        ])
        .output()
        .expect("run scoutbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "scoutbench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let path = stdout
        .lines()
        .find_map(|l| l.strip_prefix("wrote "))
        .expect("the driver says where it wrote the report");
    let report = Value::parse(&std::fs::read_to_string(path).expect("read the report"))
        .expect("the report is valid JSON");
    for key in ["commit", "cores", "clients", "seed"] {
        assert!(
            report.get(key).is_some(),
            "the report lacks its {key} stamp"
        );
    }
    let runs = report.get("runs").and_then(Value::as_arr).expect("runs");
    let workloads: Vec<&str> = runs
        .iter()
        .map(|r| r.get("workload").and_then(Value::as_str).expect("workload"))
        .collect();
    let mut expected = names(&spec, "workloads");
    expected.push("route_storm".to_string());
    assert_eq!(workloads, expected);
    for run in runs {
        let workload = run.get("workload").and_then(Value::as_str).unwrap();
        let Some(Value::Obj(metrics)) = run.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let reported: Vec<&String> = metrics.iter().map(|(name, _)| name).collect();
        assert_eq!(reported, declared.iter().collect::<Vec<_>>(), "{workload}");
        assert_eq!(
            run.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}: {run:?}"
        );
        assert_eq!(
            run.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert!(
            run.get("sent").and_then(Value::as_f64).unwrap() >= 1.0,
            "{workload}"
        );
        let trace = std::path::Path::new(path).with_file_name(format!("trace-{workload}.jsonl"));
        let spans = std::fs::read_to_string(&trace).expect("the trace file exists");
        assert!(
            spans.lines().all(|l| Value::parse(l).is_some()),
            "{workload}: bad trace line"
        );
    }
}
