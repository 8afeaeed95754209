//! Per-layer measurement, from outside the program.
//!
//! Three sources, all on the workload's own generated inputs:
//!
//! * **counts** the layers publish (`FeatCache::stats`, `obs` counters
//!   and histograms), differenced around the untraced measured window;
//! * the **layer walk**: the same public calls the server makes for one
//!   request, in order, each under a benchmark-owned span. Self time is a
//!   span minus its children; the walk's reply must equal the HTTP reply
//!   for the same input, and walk total ÷ single-caller HTTP median is
//!   the share of a request the ledger explains — what it cannot explain
//!   (batch wait, thread hand-offs, the socket) is reported, not hidden;
//! * **direct timings** of the calls a request makes many times or that
//!   the walk cannot separate (one forest row, one telemetry series, one
//!   WAL append, a 32-team dispatch).

use crate::harness::{median, percentile, sorted, time_median_ns, Metric, SpanRecorder};
use crate::load::{single_caller, Drive, Reply};
use crate::render;
use crate::setup::{fleet_master, Plane};
use crate::traffic::{frame, Firing, Mix, Traffic};
use cloudsim::{SimTime, Team};
use featcache::FeatCache;
use monitoring::{MonitoringConfig, MonitoringSystem};
use obs::json::{Obj, Value};
use scout::{Example, Extractor, Scout, ScoutBuildConfig, ScoutConfig};
use scoutmaster::FleetMaster;
use serve::http::{read_request, Response};
use serve::{Answer, ModelEntry, ServedLog, TeamOutcome};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use storm::{DedupOutcome, StormConfig, StormControl};
use wal::{Event, Wal, WalConfig};

/// Requests replayed through the ledger (single-caller HTTP, then the
/// walk), per mix. Sized so a traced run stays within a few seconds.
fn ledger_requests(mix: Mix) -> u64 {
    match mix {
        Mix::PredictWarm | Mix::PredictColdWal => 400,
        Mix::RouteFleet32 => 32,
        Mix::RouteStorm => 200,
    }
}

/// The per-layer metrics of one traced run.
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    pub failed_checks: Vec<String>,
}

/// One replica of the server's request path, driven call by call.
struct Walker<'a> {
    plane: &'a Plane,
    rec: SpanRecorder,
    config: ScoutConfig,
    build: ScoutBuildConfig,
    master: FleetMaster,
    storm: StormControl,
    served: ServedLog,
    wal: Option<Arc<Wal>>,
}

fn parse_input(body: &[u8]) -> (String, SimTime, String) {
    let value = std::str::from_utf8(body)
        .ok()
        .and_then(Value::parse)
        .expect("the generator emits valid JSON");
    let text = value
        .get("text")
        .and_then(Value::as_str)
        .expect("text")
        .to_string();
    let time = SimTime(
        value
            .get("time_minutes")
            .and_then(Value::as_f64)
            .expect("time") as u64,
    );
    let source = value
        .get("source")
        .and_then(Value::as_str)
        .unwrap_or(storm::DEFAULT_SOURCE)
        .to_string();
    (text, time, source)
}

impl<'a> Walker<'a> {
    fn new(plane: &'a Plane, record: bool, wal_dir: Option<&Path>) -> Walker<'a> {
        Walker {
            plane,
            rec: SpanRecorder::new(record),
            config: ScoutConfig::phynet(),
            build: ScoutBuildConfig::default(),
            master: fleet_master(),
            storm: StormControl::new(StormConfig::default()),
            served: ServedLog::new(serve::feedback::DEFAULT_SERVED_CAP),
            wal: wal_dir.map(|dir| {
                let _ = std::fs::remove_dir_all(dir);
                Arc::new(Wal::open(WalConfig::new(dir)).expect("open the walk's WAL"))
            }),
        }
    }

    /// One Scout's share of a request: featurize through the entry's
    /// cache, classify.
    fn scout_answer(
        &mut self,
        entry: &ModelEntry,
        text: &str,
        time: SimTime,
        monitoring: &MonitoringSystem<'_>,
    ) -> Answer {
        let (config, build) = (&self.config, &self.build);
        let corpus = self.rec.span("scout.prepare", |_| {
            Scout::prepare_cached(
                config,
                build,
                &[Example::new(text, time, false)],
                monitoring,
                Some(&entry.feat_cache),
            )
        });
        let prediction = self.rec.span("scout.classify", |_| {
            entry.scout.predict_prepared(&corpus.items[0], monitoring)
        });
        Answer {
            team: entry.team.clone(),
            model_version: entry.version,
            prediction,
        }
    }

    fn write(&mut self, body: &str) {
        self.rec.span("serve.http.write", |_| {
            let mut wire = Vec::with_capacity(body.len() + 256);
            Response::json(200, body)
                .with_header("X-Trace-Id", "00000000000000000000000000000000")
                .write_to(&mut wire, true)
                .expect("write to memory");
            black_box(wire);
        });
    }

    /// Walk stream position `index`; returns the reply body and the
    /// request's wall time in nanoseconds.
    fn walk(&mut self, index: u64, firing: &Firing) -> (String, u64) {
        let mix = self.plane.mix;
        let bytes = frame(mix.path(), &self.plane.addr, &firing.body());
        self.rec.begin_request(index);
        let started = Instant::now();
        let root = self.rec.enter("request");
        let body = if mix.is_route() {
            self.walk_route(&bytes)
        } else {
            self.walk_predict(&bytes)
        };
        self.rec.exit(root);
        (body, started.elapsed().as_nanos() as u64)
    }

    fn walk_predict(&mut self, bytes: &[u8]) -> String {
        let plane = self.plane;
        let monitoring_config = MonitoringConfig::default();
        let request = self
            .rec
            .span("serve.http.parse", |_| {
                read_request(&mut std::io::Cursor::new(bytes))
            })
            .expect("well-formed request")
            .expect("one request");
        let (text, time, _) = self
            .rec
            .span("obs.json.parse", |_| parse_input(&request.body));
        let entry = self
            .rec
            .span("serve.registry.get", |_| {
                plane.registry.get(Team::PhyNet.name())
            })
            .expect("PhyNet is registered");
        let monitoring = self.rec.span("monitoring.build", |_| {
            MonitoringSystem::new(
                &plane.world.topology,
                &plane.world.faults,
                monitoring_config,
            )
        });
        let answer = self.scout_answer(&entry, &text, time, &monitoring);
        let wal = self.wal.clone();
        let served = &self.served;
        let incident = self.rec.span("serve.served.record", |rec| {
            served.record_logged(
                &answer.team,
                &text,
                answer.model_version,
                answer.prediction.says_responsible(),
                answer.prediction.confidence,
                time,
                |record| {
                    if let Some(wal) = &wal {
                        rec.span("wal.append", |_| {
                            wal.append(&Event::PredictionServed {
                                incident: record.incident,
                                team: record.team.clone(),
                                text: record.text.clone(),
                                model_version: record.model_version,
                                predicted: record.predicted_responsible,
                                confidence: record.confidence,
                                time: record.time,
                            })
                            .expect("append to the walk's WAL");
                        });
                    }
                },
            )
        });
        let body = self.rec.span("obs.json.render", |_| {
            render::answer(&answer).uint("incident", incident).finish()
        });
        self.write(&body);
        body
    }

    fn walk_route(&mut self, bytes: &[u8]) -> String {
        let plane = self.plane;
        let request = self
            .rec
            .span("serve.http.parse", |_| {
                read_request(&mut std::io::Cursor::new(bytes))
            })
            .expect("well-formed request")
            .expect("one request");
        let (text, time, source) = self
            .rec
            .span("obs.json.parse", |_| parse_input(&request.body));
        let now_ms = self.storm.now_ms();
        let storm = &self.storm;
        self.rec
            .span("storm.admit", |_| storm.admit(&source, now_ms))
            .expect("the walk stays under the token bucket");
        let (fingerprint, outcome) = self.rec.span("storm.observe.fresh", |_| {
            storm.observe(&text, &source, now_ms)
        });
        if let DedupOutcome::Duplicate {
            duplicates,
            decision,
        } = outcome
        {
            self.rec.rename_last("storm.observe.dup");
            let decision = decision.expect("the walk stores each decision before the next request");
            let body = self.rec.span("obs.json.render", |_| {
                let marker = Obj::new()
                    .bool("suppressed", true)
                    .uint("duplicates", duplicates)
                    .finish();
                let head = decision.strip_suffix('}').expect("a JSON object");
                format!("{head},\"storm\":{marker}}}")
            });
            self.write(&body);
            return body;
        }
        let entries = self
            .rec
            .span("serve.registry.snapshot", |_| plane.registry.snapshot());
        self.rec.span("storm.gate", |_| {
            for entry in &entries {
                black_box(storm.gate(&entry.team, now_ms));
            }
        });
        let monitoring = self.rec.span("monitoring.build", |_| {
            MonitoringSystem::new(
                &plane.world.topology,
                &plane.world.faults,
                MonitoringConfig::default(),
            )
        });
        // The registry snapshot is sorted by team, the order the response
        // and the Scout Master consume.
        let outcomes: Vec<TeamOutcome> = entries
            .iter()
            .map(|entry| TeamOutcome {
                team: entry.team.clone(),
                result: Ok(self.scout_answer(entry, &text, time, &monitoring)),
            })
            .collect();
        let master = &self.master;
        let (decision, suggestions) = self.rec.span("scoutmaster.route", |_| {
            let answers = render::fleet_answers(&outcomes).expect("the walk's Scouts all answer");
            (
                master.route(&answers),
                master.suggestions(&answers, plane.fleet.suggestions),
            )
        });
        let body = self.rec.span("obs.json.render", |_| {
            render::route_render(&outcomes, &decision, &suggestions)
        });
        self.storm.store_decision(fingerprint, body.clone());
        self.write(&body);
        body
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// A device and data set `MonitoringSystem::series` has data for.
fn series_target(
    plane: &Plane,
    monitoring: &MonitoringSystem<'_>,
) -> (monitoring::Dataset, cloudsim::ComponentId) {
    monitoring::Dataset::ALL
        .into_iter()
        .find_map(|dataset| {
            plane
                .world
                .topology
                .components()
                .find(|c| monitoring.series_available(dataset, c.id))
                .map(|c| (dataset, c.id))
        })
        .expect("some data set covers some device")
}

/// Counts the layers published while the measured window ran.
fn window_counts(mix: Mix, drive: &Drive, out: &mut Vec<Metric>) {
    let open_loop = mix == Mix::RouteStorm;
    let (before, after) = (&drive.before, &drive.after);
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let measured: Vec<&Reply> = drive.measured(open_loop).filter(|r| r.ok()).collect();
    let requests = measured.len() as f64;
    let window_s = (drive.window_ns.1 - drive.window_ns.0) as f64 / 1e9;

    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let evictions = (after.cache_evictions - before.cache_evictions) as f64;
    out.push(Metric::new(
        "featcache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    ));
    out.push(Metric::new(
        "featcache.misses_per_req",
        ratio(misses, requests),
        "1/req",
    ));
    out.push(Metric::new(
        "featcache.evictions_per_req",
        ratio(evictions, requests),
        "1/req",
    ));
    out.push(Metric::new(
        "featcache.bytes_mb",
        after.cache_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    ));

    let (batches0, jobs0) = before.histogram("serve.batch.occupancy");
    let (batches1, jobs1) = after.histogram("serve.batch.occupancy");
    let batches = (batches1 - batches0) as f64;
    out.push(Metric::new(
        "serve.batcher.occupancy_mean",
        ratio(jobs1 - jobs0, batches),
        "jobs",
    ));
    out.push(Metric::new(
        "serve.batcher.batches_per_s",
        batches / window_s,
        "1/s",
    ));
    out.push(Metric::new(
        "serve.admission.shed",
        delta("serve.shed"),
        "count",
    ));

    let suppressed = measured.iter().filter(|r| r.suppressed).count() as f64;
    out.push(Metric::new(
        "storm.suppressed_share",
        ratio(suppressed, requests),
        "ratio",
    ));
    out.push(Metric::new(
        "storm.fanouts_per_alert",
        ratio(delta("fleet.dispatch.fanouts"), requests),
        "1/req",
    ));

    out.push(Metric::new(
        "wal.bytes_per_event",
        ratio(delta("wal.append_bytes"), delta("wal.appends")),
        "B",
    ));
    // The fsync histogram has no window form; it covers the process, in
    // which the window is all but a handful of set-up appends.
    let fsync_p99 = obs::global()
        .metrics
        .histogram_summary("wal.fsync_ms")
        .map_or(0.0, |s| s.p99);
    out.push(Metric::new("wal.fsync_p99_ms", fsync_p99, "ms"));

    let lag_p99 = drive.lag_p99_ms(open_loop);
    out.push(Metric::new("loadgen.lag_p99_ms", lag_p99, "ms"));
}

/// Direct timings of single calls into `ml`, `scout`, `monitoring`,
/// `pool`, `obs::json` and the WAL, on inputs from the ledger's range.
fn direct_timings(plane: &Plane, inputs: &[Firing], wal: Option<&Wal>, out: &mut Vec<Metric>) {
    let world = &plane.world;
    let monitoring =
        MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let config = ScoutConfig::phynet();
    let build = ScoutBuildConfig::default();
    let entry = plane
        .registry
        .get(Team::PhyNet.name())
        .expect("every mix registers PhyNet");
    let input = |i: usize| &inputs[i % inputs.len()];
    let heavy = inputs.len().min(200);

    let (dataset, device) = series_target(plane, &monitoring);
    out.push(Metric::new(
        "monitoring.series_us",
        us(time_median_ns(1000, |i| {
            let end = input(i).time;
            black_box(monitoring.series(
                dataset,
                device,
                (end.saturating_sub(build.lookback), end),
            ));
        })),
        "us",
    ));

    let extractor = Extractor::new(&config, &world.topology);
    out.push(Metric::new(
        "scout.extract_us",
        us(time_median_ns(1000, |i| {
            black_box(extractor.extract(&input(i).text));
        })),
        "us",
    ));

    // One example against an empty cache, then the same example again.
    let mut cold = Vec::with_capacity(heavy);
    let mut warm = Vec::with_capacity(heavy);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for firing in &inputs[..heavy] {
        let cache = FeatCache::new(serve::registry::DEFAULT_FEAT_CACHE_BYTES);
        let example = [Example::new(firing.text.as_str(), firing.time, false)];
        let t = Instant::now();
        let corpus = Scout::prepare_cached(&config, &build, &example, &monitoring, Some(&cache));
        cold.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        black_box(Scout::prepare_cached(
            &config,
            &build,
            &example,
            &monitoring,
            Some(&cache),
        ));
        warm.push(t.elapsed().as_nanos() as f64);
        rows.extend(corpus.items.into_iter().filter_map(|item| item.features));
    }
    out.push(Metric::new(
        "scout.prepare_cold_us",
        us(median(&cold)),
        "us",
    ));
    out.push(Metric::new(
        "scout.prepare_warm_us",
        us(median(&warm)),
        "us",
    ));

    // A whole one-incident predict against the entry's (by now warm) cache.
    for firing in &inputs[..heavy] {
        entry.scout.predict_many_cached(
            &[(firing.text.as_str(), firing.time)],
            &monitoring,
            Some(&entry.feat_cache),
        );
    }
    out.push(Metric::new(
        "scout.predict_us",
        us(time_median_ns(heavy, |i| {
            black_box(entry.scout.predict_many_cached(
                &[(input(i).text.as_str(), input(i).time)],
                &monitoring,
                Some(&entry.feat_cache),
            ));
        })),
        "us",
    ));

    let forest = entry.scout.forest();
    assert!(
        !rows.is_empty(),
        "no generated input produced a feature row"
    );
    let row = |i: usize| &rows[i % rows.len()];
    // 64 rows per timing, so the clock reads are noise against the work.
    out.push(Metric::new(
        "ml.forest.row_ns",
        time_median_ns(200, |i| {
            let mut proba = [0.0; 2];
            for k in 0..64 {
                forest.predict_proba_into(row(64 * i + k), &mut proba);
                black_box(proba);
            }
        }) / 64.0,
        "ns",
    ));
    let mut matrix = ml::FeatureMatrix::zeros(4096, forest.n_features());
    for r in 0..4096 {
        matrix.row_mut(r).copy_from_slice(row(r));
    }
    let matrix_ns = time_median_ns(5, |_| {
        black_box(forest.predict_proba_matrix(&matrix));
    });
    out.push(Metric::new(
        "ml.forest.matrix_rows_per_s",
        4096.0 / (matrix_ns / 1e9),
        "1/s",
    ));
    out.push(Metric::new(
        "ml.contrib_us",
        us(time_median_ns(1000, |i| {
            black_box(forest.feature_contributions(row(i), 1));
        })),
        "us",
    ));

    let answer = Answer {
        team: entry.team.clone(),
        model_version: entry.version,
        prediction: entry
            .scout
            .predict(&inputs[0].text, inputs[0].time, &monitoring),
    };
    out.push(Metric::new(
        "obs.json.render_answer_us",
        us(time_median_ns(1000, |_| {
            black_box(render::answer(&answer).finish());
        })),
        "us",
    ));

    let workers = pool::Pool::global();
    let units = vec![(); workers.threads()];
    out.push(Metric::new(
        "pool.map_overhead_us",
        us(time_median_ns(2000, |_| {
            black_box(workers.parallel_map(&units, |_, _| ()));
        })),
        "us",
    ));
    out.push(Metric::new(
        "pool.threads",
        workers.threads() as f64,
        "count",
    ));

    let (mut p50, mut p99) = (0.0, 0.0);
    if let Some(wal) = wal {
        let mut samples = Vec::with_capacity(2000);
        for i in 0..2000u64 {
            let firing = input(i as usize);
            let event = Event::PredictionServed {
                incident: 1_000_000 + i,
                team: answer.team.clone(),
                text: firing.text.clone(),
                model_version: answer.model_version,
                predicted: answer.prediction.says_responsible(),
                confidence: answer.prediction.confidence,
                time: firing.time,
            };
            let t = Instant::now();
            wal.append(&event).expect("append to the walk's WAL");
            samples.push(t.elapsed().as_nanos() as f64);
        }
        let samples = sorted(samples);
        p50 = us(median(&samples));
        p99 = us(percentile(&samples, 99.0).expect("2000 samples carry a p99"));
    }
    out.push(Metric::new("wal.append_p50_us", p50, "us"));
    out.push(Metric::new("wal.append_p99_us", p99, "us"));
}

/// Direct timings of the fleet dispatcher (routing mixes only; zeros
/// elsewhere, where the layer does not run).
fn fleet_timings(plane: &Plane, inputs: &[Firing], out: &mut Vec<Metric>) {
    let (mut dispatch_ms, mut batch_ms, mut imbalance) = (0.0, 0.0, 0.0);
    if plane.mix.is_route() {
        let entries = plane.registry.snapshot();
        let monitoring = MonitoringConfig::default();
        let dispatch = |batch: &[(&str, SimTime)]| {
            let t = Instant::now();
            black_box(serve::fleet::dispatch_batch(
                &entries,
                &plane.world,
                &monitoring,
                batch,
                None,
                &plane.fleet,
                &[],
            ));
            t.elapsed().as_nanos() as f64 / 1e6
        };
        // Each input is dispatched twice; the second, warm, call is timed.
        let singles: Vec<f64> = inputs
            .iter()
            .take(16)
            .map(|f| {
                let batch = [(f.text.as_str(), f.time)];
                dispatch(&batch);
                dispatch(&batch)
            })
            .collect();
        dispatch_ms = median(&singles);
        let batch: Vec<(&str, SimTime)> = inputs
            .iter()
            .take(16)
            .map(|f| (f.text.as_str(), f.time))
            .collect();
        dispatch(&batch);
        batch_ms =
            median(&[dispatch(&batch), dispatch(&batch), dispatch(&batch)]) / batch.len() as f64;
        let shards = plane.fleet.effective_shards();
        let mut per_shard = vec![0usize; shards];
        for entry in &entries {
            per_shard[serve::fleet::shard_of(&entry.team, shards)] += 1;
        }
        let busiest = per_shard.iter().copied().max().unwrap_or(0) as f64;
        imbalance = busiest / (entries.len() as f64 / shards as f64);
    }
    let teams = plane.registry.len().max(1) as f64;
    out.push(Metric::new("serve.fleet.dispatch_ms", dispatch_ms, "ms"));
    out.push(Metric::new(
        "serve.fleet.per_team_us",
        dispatch_ms * 1e3 / teams,
        "us",
    ));
    out.push(Metric::new(
        "serve.fleet.batch16_ms_per_incident",
        batch_ms,
        "ms",
    ));
    out.push(Metric::new(
        "serve.fleet.shard_imbalance",
        imbalance,
        "ratio",
    ));
}

/// Everything a traced run adds after the untraced window.
pub fn measure(plane: &Plane, traffic: &Traffic<'_>, drive: &Drive, out_dir: &Path) -> LayerReport {
    let mix = plane.mix;
    let mut metrics = Vec::new();
    let mut failed_checks = Vec::new();
    window_counts(mix, drive, &mut metrics);

    // `/healthz` does no work behind the HTTP layer: its round trip is
    // the floor under every request.
    let mut client = serve::Client::connect(&plane.addr).expect("connect for /healthz");
    metrics.push(Metric::new(
        "serve.http.roundtrip_us",
        us(time_median_ns(1000, |_| {
            assert!(client.get("/healthz").expect("healthz").is_success());
        })),
        "us",
    ));
    drop(client);

    // The ledger replays fresh stream positions: one caller over HTTP,
    // then the same positions through two walkers — one recording spans,
    // one not — taking turns to go first, so that neither always finds
    // the feature cache warmed by the other.
    let n = ledger_requests(mix);
    let next_root = Traffic::storm_current_root(drive.next_index) + 1;
    let start = if mix == Mix::RouteStorm {
        // Start on a root, and let the server see the skipped positions
        // too, so that its dedup table and the walkers' hold the same roots.
        let start = Traffic::storm_root_position(next_root);
        single_caller(&plane.addr, traffic, drive.next_index..start);
        start
    } else {
        drive.next_index
    };
    let http = single_caller(&plane.addr, traffic, start..start + n);
    let http_ok = http.iter().all(Reply::ok);
    let http_p50_ns = median(&http.iter().map(|r| r.latency_ns as f64).collect::<Vec<_>>());

    let wal_dir = out_dir.join(format!("wal-walk-{}-{}", mix.name(), std::process::id()));
    let wal_dirs =
        (mix == Mix::PredictColdWal).then(|| (wal_dir.join("traced"), wal_dir.join("plain")));
    let mut traced = Walker::new(plane, true, wal_dirs.as_ref().map(|d| d.0.as_path()));
    let mut plain = Walker::new(plane, false, wal_dirs.as_ref().map(|d| d.1.as_path()));
    if mix == Mix::RouteStorm {
        // The positions replayed re-fire roots that fired before `start`:
        // both walkers' dedup tables must have seen them, as the server's
        // has.
        for root in next_root.saturating_sub(8)..next_root {
            let position = Traffic::storm_root_position(root);
            let firing = traffic.firing(position);
            plain.walk(position, &firing);
            traced.walk(position, &firing);
        }
        traced.rec = SpanRecorder::new(true);
    }
    let inputs: Vec<Firing> = (start..start + n).map(|i| traffic.firing(i)).collect();
    let (mut traced_ns, mut plain_ns) = (Vec::new(), Vec::new());
    let mut walk_mismatches = 0usize;
    for (k, firing) in inputs.iter().enumerate() {
        let index = start + k as u64;
        // Popcount parity (Thue-Morse) rather than odd/even: roots recur
        // every 50 positions, and a plain alternation would hand every
        // one of them to the same walker first.
        let body = if index.count_ones().is_multiple_of(2) {
            let (body, ns) = traced.walk(index, firing);
            traced_ns.push(ns as f64);
            plain_ns.push(plain.walk(index, firing).1 as f64);
            body
        } else {
            plain_ns.push(plain.walk(index, firing).1 as f64);
            let (body, ns) = traced.walk(index, firing);
            traced_ns.push(ns as f64);
            body
        };
        let same = http[k]
            .body
            .as_deref()
            .is_some_and(|got| render::canonical(mix, got) == render::canonical(mix, &body));
        walk_mismatches += !same as usize;
    }
    if !http_ok || walk_mismatches > 0 {
        failed_checks.push(format!(
            "walk_mismatch ({walk_mismatches} of {n} walked replies differ from their HTTP replies)"
        ));
    }

    let rec = &traced.rec;
    let on_route = |v: f64| if mix.is_route() { v } else { 0.0 };
    // Metric ← median self time of the walk's spans of that name.
    for (metric, span) in [
        ("serve.http.parse_us", "serve.http.parse"),
        ("serve.http.write_us", "serve.http.write"),
        ("obs.json.parse_us", "obs.json.parse"),
        ("serve.registry.snapshot_us", "serve.registry.snapshot"),
        ("monitoring.build_us", "monitoring.build"),
        ("scout.classify_us", "scout.classify"),
        ("scoutmaster.route_us", "scoutmaster.route"),
        ("storm.admit_us", "storm.admit"),
        ("storm.observe_fresh_us", "storm.observe.fresh"),
        ("storm.observe_dup_us", "storm.observe.dup"),
        ("storm.gate_us", "storm.gate"),
        ("serve.served.record_us", "serve.served.record"),
    ] {
        metrics.push(Metric::new(metric, rec.median_self_us(span), "us"));
    }

    // Self times of one request add up to its root span by construction;
    // the root is checked against a clock read outside the recorder.
    let root_ns: f64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    let wall_ns: f64 = traced_ns.iter().sum();
    if (root_ns - wall_ns).abs() > 0.05 * wall_ns {
        failed_checks.push(format!(
            "span_coverage (spans cover {root_ns} ns of {wall_ns} ns walked)"
        ));
    }
    let explained = median(&traced_ns) / http_p50_ns.max(1.0);
    metrics.push(Metric::new(
        "ledger.predict.explained_share",
        if mix.is_route() { 0.0 } else { explained },
        "ratio",
    ));
    metrics.push(Metric::new(
        "ledger.route.explained_share",
        on_route(explained),
        "ratio",
    ));
    // Total against total, as one traced walk against one plain walk —
    // less the pairs in which either walker stalled (a page fault, a
    // preemption), which would pass for tracing overhead of either sign.
    let (traced_total, plain_total) = traced_ns
        .iter()
        .zip(&plain_ns)
        .filter(|(t, p)| **t < 3.0 * **p && **p < 3.0 * **t)
        .fold((0.0, 0.0), |(ts, ps), (t, p)| (ts + t, ps + p));
    metrics.push(Metric::new(
        "trace.overhead_pct",
        (traced_total - plain_total) / plain_total.max(1.0) * 100.0,
        "%",
    ));
    let trace_path = out_dir.join(format!("trace-{}.jsonl", mix.name()));
    if let Err(e) = rec.write_jsonl(&trace_path) {
        failed_checks.push(format!("trace_file ({}: {e})", trace_path.display()));
    }

    direct_timings(plane, &inputs, traced.wal.as_deref(), &mut metrics);
    fleet_timings(plane, &inputs, &mut metrics);
    drop((traced, plain));
    let _ = std::fs::remove_dir_all(&wal_dir);
    LayerReport {
        metrics,
        failed_checks,
    }
}
