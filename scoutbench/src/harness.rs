//! Shared measurement plumbing: the one percentile rule, medians and
//! quartiles, the benchmark-owned span recorder, process memory, and the
//! single JSON report writer.

use obs::json::Obj;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The `p`-th percentile (0 < p < 100) of ascending `sorted`, reported
/// only when at least ten samples lie beyond it — a "p99" of sixteen
/// requests is the maximum under another name.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let idx = (p / 100.0 * n as f64).ceil() as usize;
    (n > 0 && idx >= 1 && n - idx >= 10).then(|| sorted[idx - 1])
}

/// [`percentile`], falling back to the highest order statistic that still
/// has ten samples beyond it (or the maximum of a tiny sample). The
/// end-to-end metric names are fixed, so a short smoke run reports the
/// best-supported value under the fixed name; the sample count printed
/// beside it says which case applied.
pub fn percentile_or_highest(sorted: &[f64], p: f64) -> f64 {
    match percentile(sorted, p) {
        Some(v) => v,
        None if sorted.len() > 10 => sorted[sorted.len() - 11],
        None => sorted.last().copied().unwrap_or(0.0),
    }
}

/// Sort ascending (total order; NaNs last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median of unsorted `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the exclusive method —
/// the rule Python's `statistics.quantiles(values, n=4)` applies, so the
/// spread printed here is the spread the acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let at = |q: usize| {
        let pos = q as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Median of `calls` timings of `f`, in nanoseconds. `f` receives the
/// call index so each call can take its own input.
pub fn time_median_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(calls);
    for i in 0..calls {
        let t = Instant::now();
        f(i);
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where run artefacts go: `<cargo target dir>/bench/`, found from the
/// running executable (`<target>/<profile>/scoutbench`), so the benchmark
/// never writes beside committed files.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark needs its own executable path");
    let mut dir = exe.as_path();
    // Test binaries live one level deeper (`<target>/<profile>/deps/`).
    while let Some(parent) = dir.parent() {
        dir = parent;
        if matches!(
            dir.file_name().and_then(|n| n.to_str()),
            Some("release" | "debug")
        ) {
            break;
        }
    }
    let dir = dir.parent().unwrap_or(dir).join("bench");
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir
}

/// One benchmark-owned span: an interval on one request's layer walk.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position of the request in its traffic stream.
    pub request: u64,
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for the layer walk. Spans nest by call order;
/// when disabled, [`SpanRecorder::span`] only runs the closure, which is
/// how the walk's own overhead is measured.
pub struct SpanRecorder {
    epoch: Instant,
    enabled: bool,
    request: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl SpanRecorder {
    pub fn new(enabled: bool) -> SpanRecorder {
        SpanRecorder {
            epoch: Instant::now(),
            enabled,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from now on belong to stream position `request`.
    pub fn begin_request(&mut self, request: u64) {
        self.request = request;
        self.stack.clear();
    }

    /// Open a span named `name`, child of the innermost open span.
    /// Returns its handle for [`SpanRecorder::exit`] (`None` when
    /// recording is off).
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            request: self.request,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close the span [`SpanRecorder::enter`] opened. Spans close in
    /// reverse opening order.
    pub fn exit(&mut self, handle: Option<usize>) {
        if let Some(id) = handle {
            debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
            self.stack.pop();
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` under a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanRecorder) -> R) -> R {
        let handle = self.enter(name);
        let out = f(self);
        self.exit(handle);
        out
    }

    /// Rename the span opened last, for a layer whose cost class is only
    /// known from its result (a dedup lookup is fresh or a duplicate).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its direct
    /// children cover. Index-aligned with [`SpanRecorder::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Median self time of the spans named `name`, in microseconds (0
    /// when the walk never entered that layer).
    pub fn median_self_us(&self, name: &str) -> f64 {
        let own = self.self_times_ns();
        let samples: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        median(&samples)
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_times_ns();
        for (id, (s, own_ns)) in self.spans.iter().zip(&own).enumerate() {
            let mut obj = Obj::new()
                .uint("span", id as u64)
                .uint("request", s.request)
                .str("name", s.name);
            if let Some(p) = s.parent {
                obj = obj.uint("parent", p as u64);
            }
            let line = obj
                .uint("start_ns", s.start_ns)
                .uint("end_ns", s.end_ns)
                .uint("self_ns", *own_ns)
                .finish();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// The outcome of one workload run, as the contract's last line and the
/// report file both carry it.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub duration_s: f64,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Names of the correctness and health checks that failed.
    pub failed_checks: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }

    fn metrics_json(&self) -> String {
        let mut obj = Obj::new();
        for m in &self.metrics {
            obj = obj.raw(
                &m.name,
                &Obj::new()
                    .num("value", m.value)
                    .str("unit", &m.unit)
                    .finish(),
            );
        }
        obj.finish()
    }

    /// The one-line result object the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        Obj::new()
            .bool("correct", self.correct())
            .uint("attempted", self.sent.max(1))
            .uint("failed", self.failed)
            .raw("metrics", &self.metrics_json())
            .finish()
    }

    pub fn report_json(&self) -> String {
        let checks: Vec<String> = self
            .failed_checks
            .iter()
            .map(|c| {
                let mut s = String::from("\"");
                obs::json::escape_into(&mut s, c);
                s.push('"');
                s
            })
            .collect();
        Obj::new()
            .str("workload", &self.workload)
            .uint("seed", self.seed)
            .num("duration_s", self.duration_s)
            .uint("sent", self.sent)
            .uint("ok", self.ok)
            .uint("failed", self.failed)
            .bool("correct", self.correct())
            .raw("failed_checks", &format!("[{}]", checks.join(",")))
            .raw("metrics", &self.metrics_json())
            .finish()
    }
}

/// The commit being measured, when the checkout is a git work tree.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Write the report of a whole set of runs: one stamp (commit, cores,
/// clients, seed) and one block per workload run, in run order.
pub fn write_report(
    path: &Path,
    seed: u64,
    clients: usize,
    runs: &[WorkloadResult],
) -> std::io::Result<()> {
    let blocks: Vec<String> = runs.iter().map(|r| r.report_json()).collect();
    let body = Obj::new()
        .str("commit", &commit())
        .uint("cores", cores() as u64)
        .uint("clients", clients as u64)
        .uint("seed", seed)
        .raw("runs", &format!("[\n  {}\n]", blocks.join(",\n  ")))
        .finish();
    std::fs::write(path, format!("{body}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let small: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(percentile(&small, 99.0), None, "16 samples carry no p99");
        assert_eq!(
            percentile(&small, 50.0),
            None,
            "only 8 lie beyond the median"
        );
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&k, 99.0), Some(990.0));
        assert_eq!(percentile(&k[..999], 99.0), None);
        assert_eq!(percentile(&k, 50.0), Some(500.0));
        assert_eq!(percentile_or_highest(&small, 99.0), 6.0);
        assert_eq!(percentile_or_highest(&small[..3], 99.0), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(median(&v), 5.5);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let mut rec = SpanRecorder::new(true);
        rec.begin_request(7);
        rec.span("request", |rec| {
            rec.span("a", |rec| {
                rec.span("a.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            rec.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let own = rec.self_times_ns();
        let root = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(own.iter().sum::<u64>(), root);
        assert!(rec.median_self_us("a.inner") >= 2000.0);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = SpanRecorder::new(false);
        assert_eq!(rec.span("x", |_| 3), 3);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let r = WorkloadResult {
            workload: "w".into(),
            seed: 1,
            duration_s: 1.0,
            sent: 10,
            ok: 10,
            failed: 0,
            failed_checks: vec![],
            metrics: vec![Metric::new("latency_p50_ms", 1.25, "ms")],
        };
        assert_eq!(
            r.contract_line(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_p50_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }
}
