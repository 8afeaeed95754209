//! The HTTP server: endpoints, connection handling, lifecycle.
//!
//! One acceptor thread and one handler thread per connection (capped),
//! plus the Sev3 route coalescer's worker under storm control. A handler
//! does the whole of a predict itself — parse, admission, deadline, one
//! pinned model version's pass over the one input (its items fanned out
//! on the shared `pool`), render — and so does a Sev1/Sev2 `/v1/route`,
//! as one [`fleet::pass`]. Only a Sev3 route waits on another thread: it
//! parks on a rendezvous channel while the coalescer runs the batch that
//! queued while the previous one ran (see `coalesce`).
//!
//! | Endpoint | Behaviour |
//! |---|---|
//! | `GET /healthz` | liveness: 200 as long as the process serves |
//! | `GET /readyz` | readiness: 200 once ≥1 model is registered, else 503; includes SLO burn detail |
//! | `GET /metrics` | the obs registry in Prometheus exposition format |
//! | `GET /metrics.json` | the obs registry as JSONL |
//! | `GET /v1/debug/flight` | the flight recorder's ring as JSONL |
//! | `POST /v1/scouts/<team>/predict` | one Scout's verdict for `{"text", "time_minutes"?}` |
//! | `POST /v1/route` | sharded fleet fan-out → Scout-Master decision + top-k suggestions |
//! | `POST /v1/models/reload` | atomic hot-swap from the model directory |
//! | `POST /v1/models/rollback` | restore a prior version from the promotion timeline |
//! | `POST /v1/feedback` | ground-truth resolving team for a served prediction |
//! | `GET /v1/wal/state` | the WAL's projections, folded from disk (409 without `--wal-dir`) |
//! | `POST /v1/monitoring/deprecate` | disable (or restore) one monitoring data set mid-stream |
//!
//! Shedding is `503`, a throttled source is `429` — both carry an
//! adaptive `Retry-After` derived from queue depth and breaker state; a
//! lapsed `X-Deadline-Ms` is `504`; an unknown team is `404`.
//!
//! Every request runs under a [`obs::TraceContext`]: a client-supplied
//! `X-Trace-Id` is adopted (and always sampled into the flight
//! recorder), otherwise one is minted under the configured 1-in-N
//! policy; the id is echoed back in the `X-Trace-Id` response header
//! either way.

use crate::admission::{Admission, Permit};
use crate::coalesce::{Coalescer, Job};
use crate::feedback::{FeedbackHook, ResolveError, ServedLog, DEFAULT_SERVED_CAP};
use crate::fleet::{self, FleetConfig, RouteRequest, ScoutError, TeamOutcome};
use crate::http::{read_request, HttpError, Request, Response};
use crate::registry::ModelRegistry;
use crate::{Answer, PredictError};
use cloudsim::SimTime;
use incident::Workload;
use monitoring::{Dataset, MonitoringConfig, MonitoringSystem, PlaneIndex};
use obs::json::{Arr, Obj, Value};
use obs::TraceContext;
use scout::Prediction;
use scoutmaster::{FleetAnswer, FleetDecision, FleetMaster};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::ops::RangeBounds;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use storm::{DedupOutcome, StormControl};

/// Everything the endpoints need to answer a request.
pub struct Engine {
    /// Registered models, hot-swappable.
    pub registry: Arc<ModelRegistry>,
    /// The world the Scouts' monitoring plane reads from.
    pub workload: Arc<Workload>,
    /// The Scout-Master aggregation policy, string-keyed over the fleet's
    /// dependency graph.
    pub master: FleetMaster,
    /// Fleet routing-plane tunables (shard count, top-k suggestions,
    /// injected faults).
    pub fleet: FleetConfig,
    /// Where `POST /v1/models/reload` loads from (`None` → reload is 409).
    pub model_dir: Option<PathBuf>,
    /// Served predictions awaiting ground truth (`POST /v1/feedback`
    /// joins against this).
    pub served: Arc<ServedLog>,
    /// Labeled-feedback subscriber (the lifecycle controller), if any.
    pub feedback: Option<Arc<dyn FeedbackHook>>,
    /// The durability log, if `--wal-dir` is configured (attach with
    /// [`Engine::with_wal`]). Every served prediction, accepted
    /// feedback, and registry mutation is appended log-first.
    pub wal: Option<Arc<wal::Wal>>,
    /// The alert-storm control plane in front of `/v1/route` (attach
    /// with [`Engine::with_storm`]; `None` = storm control off, every
    /// firing pays a full fan-out).
    pub storm: Option<Arc<StormControl>>,
    /// The live monitoring-plane configuration shared by the predict
    /// handler and the fleet dispatcher, kept as the [`PlaneIndex`]
    /// built from it and the workload: every predict and every fleet pass
    /// opens a plane, and only a configuration change — never a request
    /// — can alter what a plane derives (the per-cluster fault index,
    /// the epoch hash over the whole fault schedule). Private so that
    /// [`Engine::deprecate_dataset`], the one writer, is also the one
    /// place the index is rebuilt.
    monitoring: RwLock<Arc<PlaneIndex>>,
}

impl Engine {
    /// An engine with the paper's default Scout-Master policy and no
    /// reload directory.
    pub fn new(registry: Arc<ModelRegistry>, workload: Arc<Workload>) -> Engine {
        Engine {
            registry,
            master: FleetMaster::default(),
            fleet: FleetConfig::default(),
            model_dir: None,
            served: Arc::new(ServedLog::new(DEFAULT_SERVED_CAP)),
            feedback: None,
            wal: None,
            storm: None,
            monitoring: RwLock::new(Arc::new(PlaneIndex::build(
                &workload.topology,
                &workload.faults,
                MonitoringConfig::default(),
            ))),
            workload,
        }
    }

    /// Attach the alert-storm control plane (dedup, throttling,
    /// severity batching, circuit breakers) in front of `/v1/route`.
    pub fn with_storm(mut self, storm: Arc<StormControl>) -> Engine {
        self.storm = Some(storm);
        self
    }

    /// Set the model directory used by `POST /v1/models/reload`.
    pub fn with_model_dir(mut self, dir: PathBuf) -> Engine {
        self.model_dir = Some(dir);
        self
    }

    /// Set the fleet routing-plane configuration.
    pub fn with_fleet(mut self, fleet: FleetConfig) -> Engine {
        self.fleet = fleet;
        self
    }

    /// Replace the Scout-Master policy (e.g. a custom dependency graph
    /// for a synthetic fleet).
    pub fn with_master(mut self, master: FleetMaster) -> Engine {
        self.master = master;
        self
    }

    /// Subscribe `hook` to labeled feedback events.
    pub fn with_feedback_hook(mut self, hook: Arc<dyn FeedbackHook>) -> Engine {
        self.feedback = Some(hook);
        self
    }

    /// Bound the served-prediction log at `cap` entries.
    pub fn with_served_cap(mut self, cap: usize) -> Engine {
        self.served = Arc::new(ServedLog::new(cap));
        self
    }

    /// The monitoring plane as of now: every predict and every fleet pass
    /// opens one, so a data set deprecated mid-stream takes effect on
    /// the next. Equal to `MonitoringSystem::new` over the workload with
    /// the live configuration, without re-deriving the index: opening
    /// one costs a reference count.
    pub fn monitoring_plane(&self) -> MonitoringSystem<'_> {
        let index = self
            .monitoring
            .read()
            .expect("monitoring plane lock poisoned");
        MonitoringSystem::over(
            &self.workload.topology,
            &self.workload.faults,
            Arc::clone(&index),
        )
    }

    /// Deprecate `dataset` for every request from this point on (the
    /// paper's §8 robustness experiment), or with `restore` bring it
    /// back; returns the data sets disabled afterwards. The monitoring
    /// epoch covers the disabled set, so feature caches invalidate on
    /// their own.
    pub fn deprecate_dataset(&self, dataset: Dataset, restore: bool) -> Vec<Dataset> {
        let mut index = self
            .monitoring
            .write()
            .expect("monitoring plane lock poisoned");
        let mut config = index.config().clone();
        if restore {
            config.disabled.retain(|d| *d != dataset);
        } else if !config.disabled.contains(&dataset) {
            config.disabled.push(dataset);
            config.disabled.sort();
        }
        let disabled = config.disabled.clone();
        *index = Arc::new(PlaneIndex::build(
            &self.workload.topology,
            &self.workload.faults,
            config,
        ));
        disabled
    }
}

/// Server tunables. All have serving-grade defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum outstanding predict and route requests before shedding.
    pub queue_cap: usize,
    /// Maximum concurrently-served connections.
    pub max_connections: usize,
    /// Flight-recorder sampling for minted traces: 1-in-N requests
    /// (`0` = never, `1` = every request). Client-supplied `X-Trace-Id`
    /// requests are always sampled.
    pub trace_sample: u64,
    /// Directory for anomaly-triggered flight-recorder dumps (`None` =
    /// dump only on demand via `GET /v1/debug/flight`).
    pub flight_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_cap: 64,
            max_connections: 128,
            trace_sample: 64,
            flight_dir: None,
        }
    }
}

/// The serving plane's default objectives: 99% of predicts under 250 ms,
/// 99.9% of responses non-5xx.
fn default_slos() -> Vec<obs::SloSpec> {
    vec![
        obs::SloSpec {
            name: "predict-latency".into(),
            objective: obs::slo::Objective::Latency {
                histogram: "serve.latency.predict".into(),
                threshold: 250.0,
                target: 0.99,
            },
        },
        obs::SloSpec {
            name: "availability".into(),
            objective: obs::slo::Objective::Availability {
                total_prefix: "serve.http.".into(),
                bad_prefix: "serve.http.5".into(),
                target: 0.999,
            },
        },
    ]
}

struct Shared {
    /// Shared with the Sev3 route coalescer's worker.
    engine: Arc<Engine>,
    /// The storm layer's Sev3 route coalescer (present iff storm
    /// control is attached with a batch-capable policy).
    route_batcher: Option<Coalescer<RouteRequest, Vec<TeamOutcome>>>,
    admission: Admission,
    slo: Arc<obs::SloEngine>,
    stop: AtomicBool,
    connections: AtomicUsize,
    max_connections: usize,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the acceptor, the Sev3 route coalescer, and the SLO sampler.
pub struct Server {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    slo_sampler: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving.
    pub fn start(engine: Engine, addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        obs::enable();
        obs::trace::set_sample_every(config.trace_sample);
        if let Some(dir) = &config.flight_dir {
            std::fs::create_dir_all(dir)?;
        }
        obs::flight().set_dump_dir(config.flight_dir.clone());
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let engine = Arc::new(engine);
        let route_batcher = engine
            .storm
            .is_some()
            .then(|| fleet::start_route_coalescer(Arc::clone(&engine)));
        let shared = Arc::new(Shared {
            engine,
            route_batcher,
            admission: Admission::new(config.queue_cap),
            slo: Arc::new(obs::SloEngine::new(
                default_slos(),
                obs::SloConfig::default(),
            )),
            stop: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            max_connections: config.max_connections.max(1),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn acceptor thread");
        let slo_shared = Arc::clone(&shared);
        let slo_sampler = std::thread::Builder::new()
            .name("serve-slo".into())
            .spawn(move || slo_loop(slo_shared))
            .expect("spawn slo sampler thread");
        Ok(Server {
            addr: local,
            shared,
            acceptor: Some(acceptor),
            slo_sampler: Some(slo_sampler),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the Sev3 route coalescer, join the acceptor.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().ok();
        }
        // Predicts not yet past their shutdown check answer 503 from here
        // on. Drain, don't drop: new Sev3 submits are refused, the batch in
        // flight finishes, and jobs still queued behind it are shed with
        // 503 — never left unanswered.
        if let Some(rb) = &self.shared.route_batcher {
            rb.begin_shutdown();
        }
        // Bounded wait for in-flight requests (admission permits are held
        // until the reply is sent) so handler threads deliver their
        // responses before the process can exit under us. Idle keep-alive
        // connections hold no permit and don't delay shutdown.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.admission.outstanding() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Some(sampler) = self.slo_sampler.take() {
            sampler.join().ok();
        }
    }
}

/// Periodic SLO evaluation against the global metrics registry. Samples
/// about once a second, polling the stop flag at 100 ms so shutdown is
/// prompt.
fn slo_loop(shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        shared.slo.sample(&obs::global().metrics);
        for _ in 0..10 {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        stream.set_nodelay(true).ok();
        let Some(slot) = ConnSlot::take(&shared) else {
            obs::counter("serve.conn.rejected").inc();
            let mut stream = stream;
            let _ = Response::from_error(&HttpError::new(503, "connection limit reached"))
                .with_header("Retry-After", &retry_after_secs(&shared).to_string())
                .write_to(&mut stream, false);
            continue;
        };
        obs::counter("serve.conn.accepted").inc();
        // The slot moves into the closure: it is released when the handler
        // returns or unwinds, and when a failed spawn drops the closure.
        let _ = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || handle_connection(stream, &slot.0));
    }
}

/// One of the server's `max_connections` slots, given back on drop.
struct ConnSlot(Arc<Shared>);

impl ConnSlot {
    /// Take a slot, or `None` when all are held.
    fn take(shared: &Arc<Shared>) -> Option<ConnSlot> {
        let active = shared.connections.fetch_add(1, Ordering::AcqRel) + 1;
        let slot = ConnSlot(Arc::clone(shared));
        (active <= shared.max_connections).then_some(slot)
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match read_request(&mut reader) {
            Ok(None) => return, // clean close
            Err(e) => {
                // Protocol error: answer and close.
                let _ = Response::from_error(&e).write_to(&mut writer, false);
                return;
            }
            Ok(Some(req)) => {
                let keep_alive = req.keep_alive();
                let started = Instant::now();
                let latency = latency_metric(&req.path);
                // Adopt the caller's trace id (always sampled: an explicit
                // id is a request to record) or mint one under the 1-in-N
                // policy; the root span anchors everything downstream.
                let ctx = match req.header("x-trace-id").and_then(obs::trace::parse_hex) {
                    Some(id) => TraceContext::adopt(id),
                    None => TraceContext::mint(),
                };
                let response = {
                    let _trace = ctx.enter();
                    let _root = obs::span!("serve.request");
                    dispatch(&req, shared)
                };
                obs::observe(latency, started.elapsed().as_secs_f64() * 1e3);
                match status_metric(response.status) {
                    Some(name) => obs::counter(name).inc(),
                    None => obs::counter(&format!("serve.http.{}", response.status)).inc(),
                }
                let response = response.with_header("X-Trace-Id", &obs::trace::hex(ctx.trace_id));
                if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
        }
    }
}

/// The per-endpoint latency histogram a request lands in: one
/// low-cardinality static name per endpoint, so the reply path formats
/// nothing.
fn latency_metric(path: &str) -> &'static str {
    match path {
        "/healthz" => "serve.latency.healthz",
        "/readyz" => "serve.latency.readyz",
        "/metrics" | "/metrics.json" => "serve.latency.metrics",
        "/v1/debug/flight" => "serve.latency.flight",
        "/v1/route" => "serve.latency.route",
        "/v1/models/reload" => "serve.latency.reload",
        "/v1/models/rollback" => "serve.latency.rollback",
        "/v1/feedback" => "serve.latency.feedback",
        "/v1/wal/state" => "serve.latency.wal",
        "/v1/monitoring/deprecate" => "serve.latency.deprecate",
        p if p.starts_with("/v1/scouts/") && p.ends_with("/predict") => "serve.latency.predict",
        _ => "serve.latency.other",
    }
}

/// The `serve.http.<status>` counter of a status the endpoints produce
/// (the availability SLO matches on that prefix); `None` for a stray one,
/// which alone pays for a `format!`.
fn status_metric(status: u16) -> Option<&'static str> {
    Some(match status {
        200 => "serve.http.200",
        400 => "serve.http.400",
        404 => "serve.http.404",
        409 => "serve.http.409",
        429 => "serve.http.429",
        500 => "serve.http.500",
        503 => "serve.http.503",
        504 => "serve.http.504",
        _ => return None,
    })
}

/// What an endpoint produces: a response, or the error [`dispatch`]
/// renders as one (`{"error": …}` under the error's status).
type Handled = Result<Response, HttpError>;

fn dispatch(req: &Request, shared: &Shared) -> Response {
    let handled = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(Response::json(200, Obj::new().str("status", "ok").finish())),
        ("GET", "/readyz") => readyz(shared),
        ("GET", "/metrics") => {
            refresh_registry_gauges(shared);
            Ok(Response::text(
                200,
                obs::sink::render_metrics_prometheus(&obs::global().metrics),
            ))
        }
        ("GET", "/metrics.json") => {
            refresh_registry_gauges(shared);
            Ok(Response::text(
                200,
                obs::sink::render_metrics_jsonl(&obs::global().metrics),
            ))
        }
        ("GET", "/v1/debug/flight") => {
            let mut out = String::new();
            for line in obs::flight().snapshot() {
                out.push_str(&line);
                out.push('\n');
            }
            Ok(Response::text(200, out))
        }
        ("GET", "/v1/wal/state") => wal_state(shared),
        ("POST", "/v1/route") => route(req, shared),
        ("POST", "/v1/models/reload") => reload(shared),
        ("POST", "/v1/models/rollback") => rollback(req, shared),
        ("POST", "/v1/feedback") => feedback(req, shared),
        ("POST", "/v1/monitoring/deprecate") => deprecate(req, shared),
        ("POST", path) => {
            if let Some(team) = path
                .strip_prefix("/v1/scouts/")
                .and_then(|rest| rest.strip_suffix("/predict"))
            {
                predict(req, team, shared)
            } else {
                not_found(path)
            }
        }
        ("GET" | "HEAD", path) => not_found(path),
        (method, _) => Err(HttpError::new(405, format!("method {method} not allowed"))),
    };
    handled.unwrap_or_else(|e| Response::from_error(&e))
}

fn not_found(path: &str) -> Handled {
    Err(HttpError::new(404, format!("no such endpoint: {path}")))
}

/// Gauges that are sums over the registry, brought up to date when
/// scraped: `serve.featcache.bytes` is the chunk bytes held by every
/// current entry's cache together (`featcache.bytes` is whichever single
/// cache published last). A fleet of one featurization fingerprint keeps
/// it under one cache's budget.
fn refresh_registry_gauges(shared: &Shared) {
    let bytes: usize = shared
        .engine
        .registry
        .snapshot()
        .iter()
        .map(|e| e.feat_cache.stats().bytes)
        .sum();
    obs::gauge("serve.featcache.bytes").set(bytes as f64);
}

fn readyz(shared: &Shared) -> Handled {
    let entries = shared.engine.registry.snapshot();
    if entries.is_empty() {
        return Err(HttpError::new(503, "no models registered"));
    }
    let teams = entries.iter().fold(Arr::new(), |arr, e| arr.str(&e.team));
    let models = entries.iter().fold(Arr::new(), |arr, e| {
        arr.raw(
            &Obj::new()
                .str("team", &e.team)
                .uint("version", e.version)
                .raw("history", &history_json(shared, &e.team))
                .finish(),
        )
    });
    Ok(Response::json(
        200,
        Obj::new()
            .str("status", "ready")
            .raw("teams", &teams.finish())
            .raw("models", &models.finish())
            .uint("epoch", shared.engine.registry.epoch())
            .raw("slo", &shared.slo.render_json())
            .finish(),
    ))
}

/// A parsed predict/route request: its JSON body plus `X-Deadline-Ms`.
struct PredictInput {
    text: String,
    time: SimTime,
    /// Wall-clock deadline from `X-Deadline-Ms`, if the header is present.
    deadline: Option<Instant>,
    /// Alert source (`"source"` field) — the storm throttle's bucket
    /// key. Defaults to [`storm::DEFAULT_SOURCE`].
    source: String,
    /// `"severity"` field, 1..=3. Defaults to Sev2 so unannotated
    /// traffic never queues in the Sev3 coalescer (which is what keeps
    /// its response bytes identical with storm control on or off).
    severity: storm::Severity,
}

/// The request body as JSON.
fn json_body(req: &Request) -> Result<Value, HttpError> {
    Value::parse(req.body_str()?)
        .ok_or_else(|| HttpError::new(400, "request body is not valid JSON"))
}

/// A request-body integer: a whole number in `range` and below
/// [`wal::INT_BOUND`], so whatever is logged from it replays; anything
/// else is a 400 saying `error`.
fn body_int(v: &Value, range: impl RangeBounds<u64>, error: &str) -> Result<u64, HttpError> {
    v.as_f64()
        .filter(|n| n.fract() == 0.0 && (0.0..wal::INT_BOUND as f64).contains(n))
        .map(|n| n as u64)
        .filter(|n| range.contains(n))
        .ok_or_else(|| HttpError::new(400, error))
}

fn parse_predict_input(req: &Request, shared: &Shared) -> Result<PredictInput, HttpError> {
    let value = json_body(req)?;
    let text = value
        .get("text")
        .and_then(Value::as_str)
        .ok_or_else(|| HttpError::new(400, "missing required string field \"text\""))?
        .to_string();
    // Default prediction time: the end of the workload's fault horizon,
    // where the monitoring look-back window has the most signal.
    let default_time = SimTime::EPOCH + shared.engine.workload.config.faults.horizon;
    let time = match value.get("time_minutes") {
        None => default_time,
        Some(v) => SimTime(body_int(
            v,
            0..,
            "\"time_minutes\" must be a whole number >= 0",
        )?),
    };
    let source = match value.get("source") {
        None => storm::DEFAULT_SOURCE.to_string(),
        Some(v) => v
            .as_str()
            .ok_or_else(|| HttpError::new(400, "\"source\" must be a string"))?
            .to_string(),
    };
    let severity = match value.get("severity") {
        None => storm::Severity::Sev2,
        Some(v) => {
            let error = "\"severity\" must be 1, 2, or 3";
            storm::Severity::from_level(body_int(v, .., error)?)
                .ok_or_else(|| HttpError::new(400, error))?
        }
    };
    let deadline = match req.header("x-deadline-ms") {
        None => None,
        Some(v) => {
            let ms: u64 = v
                .trim()
                .parse()
                .map_err(|_| HttpError::new(400, "X-Deadline-Ms must be a whole number"))?;
            Some(Instant::now() + Duration::from_millis(ms))
        }
    };
    Ok(PredictInput {
        text,
        time,
        deadline,
        source,
        severity,
    })
}

/// Seconds a refused client should wait before retrying, derived from
/// how loaded the server actually is instead of a hard-coded `1`:
/// an idle server says "1", a saturated admission queue adds up to 4,
/// and every open circuit breaker (a sign the fleet itself is sick,
/// not just busy) adds one more, clamped to `[1, 8]`. Pure function —
/// unit-tested directly.
fn adaptive_retry_after(outstanding: usize, cap: usize, breakers_open: usize) -> u64 {
    let cap = cap.max(1);
    let queue_factor = (outstanding.min(cap) * 4 / cap) as u64;
    (1 + queue_factor + breakers_open.min(3) as u64).clamp(1, 8)
}

/// The current adaptive `Retry-After` value for this server.
fn retry_after_secs(shared: &Shared) -> u64 {
    adaptive_retry_after(
        shared.admission.outstanding(),
        shared.admission.cap(),
        shared
            .engine
            .storm
            .as_ref()
            .map_or(0, |s| s.breakers_open()),
    )
}

fn shed_response(shared: &Shared) -> Response {
    Response::from_error(&HttpError::new(503, "server over capacity, request shed"))
        .with_header("Retry-After", &retry_after_secs(shared).to_string())
}

/// `429` for a source the storm throttle refused. `Retry-After` is the
/// larger of the bucket's own refill estimate and the adaptive
/// load-derived value.
fn throttled_response(retry_ms: u64, shared: &Shared) -> Response {
    let secs = retry_after_secs(shared).max(retry_ms.div_ceil(1000).max(1));
    Response::from_error(&HttpError::new(
        429,
        "source over rate limit, request throttled",
    ))
    .with_header("Retry-After", &secs.to_string())
}

impl From<PredictError> for HttpError {
    fn from(e: PredictError) -> HttpError {
        let status = match e {
            PredictError::UnknownTeam(_) => 404,
            PredictError::DeadlineExpired => 504,
            PredictError::ShuttingDown => 503,
        };
        HttpError::new(status, e.to_string())
    }
}

/// Take an admission slot, or `None` when the server is over capacity
/// (answer [`shed_response`]). The slot is held until the handler has
/// rendered its reply.
fn admit(shared: &Shared) -> Option<Permit> {
    let _span = obs::span!("serve.admission");
    shared.admission.try_admit()
}

/// `POST /v1/scouts/<team>/predict`, start to finish on the connection's
/// thread: admission, then — before any model work — the lapsed
/// deadline (`504`), shutdown (`503`) and the team (`404`), then one
/// pinned model version's pass over the one input. A panicking Scout
/// is a `500`; the admission slot is freed on every path by its guard.
fn predict(req: &Request, team: &str, shared: &Shared) -> Handled {
    let input = parse_predict_input(req, shared)?;
    let Some(_permit) = admit(shared) else {
        return Ok(shed_response(shared));
    };
    if input.deadline.is_some_and(|d| Instant::now() >= d) {
        obs::counter("serve.deadline.expired").inc();
        obs::flight().alert("deadline-miss", "predict deadline lapsed before model work");
        return Err(PredictError::DeadlineExpired.into());
    }
    if shared.stop.load(Ordering::SeqCst) {
        return Err(PredictError::ShuttingDown.into());
    }
    let entry = shared
        .engine
        .registry
        .get(team)
        .ok_or_else(|| PredictError::UnknownTeam(team.to_string()))?;
    let plane = shared.engine.monitoring_plane();
    // The request's own context, so the per-item spans on pool workers
    // land in its trace. The entry's chunk cache lets repeated predicts
    // over overlapping look-back windows skip telemetry generation.
    let ctx = obs::trace::capture().unwrap_or(TraceContext::NONE);
    let predicted = catch_unwind(AssertUnwindSafe(|| {
        entry.scout.predict_many_traced(
            &[(&input.text, input.time)],
            &plane,
            Some(&entry.feat_cache),
            Some(&[ctx]),
        )
    }));
    let Ok(mut predictions) = predicted else {
        obs::counter("serve.predict.panicked").inc();
        obs::flight().alert("predict-panic", &format!("Scout {:?} panicked", entry.team));
        return Err(HttpError::new(500, "the Scout panicked while predicting"));
    };
    let answer = Answer {
        team: entry.team.clone(),
        model_version: entry.version,
        prediction: predictions.pop().expect("one input yields one prediction"),
    };
    let incident = record_served(&answer, &input.text, input.time, shared);
    Ok(Response::json(
        200,
        render_answer(&answer).uint("incident", incident).finish(),
    ))
}

/// Remember a served answer (assigning its incident id), append it to
/// the WAL (log-first, while the served log's lock pins the order), and
/// emit its versioned audit record to the audit sink.
fn record_served(answer: &Answer, text: &str, time: SimTime, shared: &Shared) -> u64 {
    let p: &Prediction = &answer.prediction;
    let incident = shared.engine.record_served(
        &answer.team,
        text,
        answer.model_version,
        p.says_responsible(),
        p.confidence,
        time,
    );
    let trace_id = obs::trace::current().map_or(0, |c| c.trace_id);
    p.audit_record(incident, answer.model_version, trace_id)
        .emit();
    incident
}

/// `POST /v1/feedback {"incident", "team"}`: record the ground-truth
/// resolving team for a served prediction, join it back to the served
/// record, and hand the labeled example to the lifecycle hook.
fn feedback(req: &Request, shared: &Shared) -> Handled {
    let value = json_body(req)?;
    let missing = "missing required numeric field \"incident\"";
    let incident = body_int(value.get("incident").unwrap_or(&Value::Null), 1.., missing)?;
    let resolving_team = value.get("team").and_then(Value::as_str).ok_or_else(|| {
        HttpError::new(
            400,
            "missing required string field \"team\" (the resolving team)",
        )
    })?;
    let fb = match shared.engine.resolve_served(incident, resolving_team) {
        Ok(fb) => fb,
        Err(e @ ResolveError::Unknown(_)) => {
            obs::counter("serve.feedback.unknown").inc();
            return Err(HttpError::new(404, e.to_string()));
        }
        Err(e @ ResolveError::AlreadyResolved(_)) => {
            obs::counter("serve.feedback.duplicate").inc();
            return Err(HttpError::new(409, e.to_string()));
        }
    };
    obs::counter("serve.feedback.accepted").inc();
    let response = Obj::new()
        .str("status", "recorded")
        .uint("incident", fb.incident)
        .str("team", &fb.team)
        .uint("model_version", fb.model_version)
        .bool("predicted_responsible", fb.predicted)
        .bool("label_responsible", fb.label)
        .finish();
    if let Some(hook) = shared.engine.feedback.as_ref() {
        hook.on_feedback(fb);
    }
    Ok(Response::json(200, response))
}

/// `POST /v1/route`: fan the incident out to every registered Scout
/// through the sharded fleet plane, aggregate with the string-keyed
/// Scout Master, and return the decision plus top-k suggestions.
///
/// Per-team failures degrade gracefully: an errored Scout contributes
/// "no answer" (counted in `serve.route.scout_error` and itemized in the
/// response's `errors` array); the request itself fails only when
/// *every* Scout does (`504` if all deadlines lapsed, else `500`).
/// Answers from teams outside the dependency graph still route — they
/// are counted in `serve.route.unmapped`, never dropped.
fn route(req: &Request, shared: &Shared) -> Handled {
    let input = parse_predict_input(req, shared)?;
    let Some(storm) = shared.engine.storm.as_ref() else {
        return route_fanout(&input, shared);
    };
    // The storm front-end, stages in cost order: throttle (no state per
    // alert), dedup (a table lookup), then — only for survivors — the
    // fan-out with breaker gating and Sev3 coalescing.
    let now_ms = storm.now_ms();
    if let Err(retry_ms) = storm.admit(&input.source, now_ms) {
        return Ok(throttled_response(retry_ms, shared));
    }
    let (fp, outcome) = storm.observe(&input.text, &input.source, now_ms);
    let store_fp = match outcome {
        DedupOutcome::Duplicate {
            duplicates,
            decision: Some(decision),
        } => {
            // Answered from the original's cached decision: no
            // admission slot, no fan-out. The `storm` object is the
            // only difference from the original's bytes.
            obs::counter("serve.route.suppressed").inc();
            return Ok(duplicate_response(&decision, duplicates));
        }
        // The original is still in flight (no decision cached yet):
        // route normally, but only the original stores the decision.
        DedupOutcome::Duplicate { .. } => None,
        DedupOutcome::Fresh => Some(fp),
    };
    let response = route_fanout(&input, shared)?;
    if response.status == 200 {
        if let Some(fp) = store_fp {
            storm.store_decision(fp, String::from_utf8_lossy(&response.body).into_owned());
        }
    }
    Ok(response)
}

/// A suppressed duplicate's response: the original's cached body with a
/// `storm` object spliced in, so callers can tell (and count) that this
/// firing coalesced into an earlier one.
fn duplicate_response(decision: &str, duplicates: u64) -> Response {
    let storm_obj = Obj::new()
        .bool("suppressed", true)
        .uint("duplicates", duplicates)
        .finish();
    let body = match decision.strip_suffix('}') {
        Some(head) => format!("{head},\"storm\":{storm_obj}}}"),
        None => decision.to_string(),
    };
    Response::json(200, body)
}

/// The fan-out half of `/v1/route`: admission, one [`fleet::pass`]
/// (direct, or shared with a batch through the Sev3 coalescer), and
/// rendering. Non-storm traffic takes the exact same pass with storm
/// control attached or not, which is what keeps its response bytes
/// identical with the layer on or off.
fn route_fanout(input: &PredictInput, shared: &Shared) -> Handled {
    if shared.engine.registry.is_empty() {
        return Err(HttpError::new(503, "no models registered"));
    }
    // One admission slot covers the whole fan-out: a routing request is
    // one unit of operator-facing work regardless of Scout count.
    let Some(_permit) = admit(shared) else {
        return Ok(shed_response(shared));
    };

    // Stage 3: a low-severity incident queues into the coalescer and
    // shares one pass with its batch.
    if let Some(coalescer) = &shared.route_batcher {
        if input.severity == storm::Severity::Sev3 {
            let (job, reply) = Job::new((input.text.clone(), input.time), input.deadline);
            if coalescer.submit(job).is_ok() {
                // Parks until the worker answers; one that died without
                // answering is a `500`.
                let outcomes = reply
                    .recv()
                    .map_err(|_| HttpError::new(500, "route batcher dropped the request"))??;
                return decide_and_render(outcomes, shared);
            }
            // Coalescer shut down: fall through to a direct pass.
        }
    }

    // Sev1/Sev2 (and everything without storm control) never queue: the
    // pass runs here, on the handler thread.
    let outcomes = fleet::pass(&shared.engine, &[(&input.text, input.time)], input.deadline)
        .pop()
        .expect("one input yields one outcome set");
    decide_and_render(outcomes, shared)
}

/// Split sorted outcomes into answers and errors, run the Scout-Master
/// decision, and render the `/v1/route` response. Shared by the direct
/// and the coalesced dispatch paths.
fn decide_and_render(outcomes: Vec<TeamOutcome>, shared: &Shared) -> Handled {
    // Outcomes arrive sorted by team name — the canonical order that
    // keeps the response bytes identical across shard counts.
    let mut answers: Vec<Answer> = Vec::new();
    let mut errors: Vec<(String, ScoutError)> = Vec::new();
    for outcome in outcomes {
        match outcome.result {
            Ok(answer) => answers.push(answer),
            Err(e) => {
                obs::counter("serve.route.scout_error").inc();
                errors.push((outcome.team, e));
            }
        }
    }
    if answers.is_empty() {
        obs::counter("serve.route.all_failed").inc();
        let status = if errors
            .iter()
            .all(|(_, e)| *e == ScoutError::DeadlineExpired)
        {
            504
        } else {
            500
        };
        return Err(HttpError::new(
            status,
            format!("all {} Scouts failed to answer", errors.len()),
        ));
    }
    let graph = shared.engine.master.graph();
    let unmapped = answers.iter().filter(|a| !graph.contains(&a.team)).count();
    if unmapped > 0 {
        obs::counter("serve.route.unmapped").add(unmapped as u64);
    }
    let fleet_answers: Vec<FleetAnswer> = answers
        .iter()
        .map(|a| {
            FleetAnswer::new(
                a.team.clone(),
                a.prediction.says_responsible(),
                a.prediction.confidence,
            )
        })
        .collect();
    let decision = shared.engine.master.route(&fleet_answers);
    let suggestions = shared
        .engine
        .master
        .suggestions(&fleet_answers, shared.engine.fleet.suggestions);
    let suggestions_json = suggestions.iter().fold(Arr::new(), |arr, s| {
        arr.raw(
            &Obj::new()
                .str("team", &s.team)
                .num("confidence", s.confidence)
                .finish(),
        )
    });
    let answers_json = answers
        .iter()
        .fold(Arr::new(), |arr, a| arr.raw(&render_answer(a).finish()));
    let errors_json = errors.iter().fold(Arr::new(), |arr, (team, e)| {
        arr.raw(
            &Obj::new()
                .str("team", team)
                .str("error", &e.to_string())
                .finish(),
        )
    });
    let obj = match &decision {
        FleetDecision::SendTo(team) => {
            obs::counter("fleet.route.send_to").inc();
            Obj::new().str("decision", "send_to").str("team", team)
        }
        FleetDecision::Fallback => {
            obs::counter("fleet.route.fallback").inc();
            Obj::new().str("decision", "fallback")
        }
    };
    Ok(Response::json(
        200,
        obj.raw("suggestions", &suggestions_json.finish())
            .raw("answers", &answers_json.finish())
            .raw("errors", &errors_json.finish())
            .finish(),
    ))
}

/// `POST /v1/monitoring/deprecate {"dataset", "restore"?}`: disable (or
/// with `"restore": true` re-enable) one monitoring data set for every
/// request from this point on. The monitoring epoch fingerprint covers
/// the disabled list, so feature caches invalidate themselves — Scouts
/// degrade to the remaining sensors instead of erroring.
fn deprecate(req: &Request, shared: &Shared) -> Handled {
    let Some(obj @ Value::Obj(_)) = Value::parse(req.body_str()?) else {
        return Err(HttpError::new(400, "body must be a JSON object"));
    };
    let name = obj
        .get("dataset")
        .and_then(Value::as_str)
        .ok_or_else(|| HttpError::new(400, "missing string field: dataset"))?;
    let restore = match obj.get("restore") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err(HttpError::new(400, "field restore must be a boolean")),
    };
    let Some(dataset) = Dataset::ALL.iter().copied().find(|d| d.name() == name) else {
        let valid: Vec<&str> = Dataset::ALL.iter().map(|d| d.name()).collect();
        return Err(HttpError::new(
            400,
            format!("unknown dataset {name:?}; valid: {}", valid.join(", ")),
        ));
    };
    let disabled: Vec<&'static str> = shared
        .engine
        .deprecate_dataset(dataset, restore)
        .iter()
        .map(|d| d.name())
        .collect();
    obs::counter("serve.monitoring.deprecate").inc();
    obs::flight().alert(
        "monitoring-deprecate",
        &format!(
            "{} {}; disabled now [{}]",
            if restore { "restored" } else { "deprecated" },
            name,
            disabled.join(", ")
        ),
    );
    let arr = disabled.iter().fold(Arr::new(), |arr, d| arr.str(d));
    Ok(Response::json(
        200,
        Obj::new()
            .str("status", "ok")
            .raw("disabled", &arr.finish())
            .finish(),
    ))
}

fn reload(shared: &Shared) -> Handled {
    let dir = shared.engine.model_dir.as_deref().ok_or_else(|| {
        HttpError::new(
            409,
            "server was started without a model directory; reload is unavailable",
        )
    })?;
    let published = shared
        .engine
        .registry
        .load_dir(dir)
        .map_err(|e| HttpError::new(500, e.to_string()))?;
    let arr = published.iter().fold(Arr::new(), |arr, (team, version)| {
        arr.raw(
            &Obj::new()
                .str("team", team)
                .uint("version", *version)
                .finish(),
        )
    });
    Ok(Response::json(
        200,
        Obj::new().raw("reloaded", &arr.finish()).finish(),
    ))
}

/// `POST /v1/models/rollback {"team", "version"?}`: restore a prior
/// version from `team`'s promotion timeline — the most recent one, or
/// exactly `version`. Rollback works on pinned teams (a pin blocks
/// promotions, never recovery); failures (unknown team, empty or
/// unretained timeline) are `409` with the retained versions named.
fn rollback(req: &Request, shared: &Shared) -> Handled {
    let value = json_body(req)?;
    let team = value
        .get("team")
        .and_then(Value::as_str)
        .ok_or_else(|| HttpError::new(400, "missing required string field \"team\""))?;
    let version = match value.get("version") {
        None => None,
        Some(v) => Some(body_int(v, 1.., "\"version\" must be a whole number >= 1")?),
    };
    let restored = shared
        .engine
        .registry
        .rollback_to(team, version)
        .map_err(|e| HttpError::new(409, e.to_string()))?;
    Ok(Response::json(
        200,
        Obj::new()
            .str("status", "rolled_back")
            .str("team", team)
            .uint("version", restored)
            .raw("history", &history_json(shared, team))
            .finish(),
    ))
}

/// `GET /v1/wal/state`: what a crash right now would recover to — a
/// fold of the log's segments on disk (newest snapshot plus tail).
/// `409` when serving without a WAL.
fn wal_state(shared: &Shared) -> Handled {
    let wal = shared.engine.wal.as_deref().ok_or_else(|| {
        HttpError::new(
            409,
            "server was started without --wal-dir; no durability log",
        )
    })?;
    Ok(Response::json(
        200,
        Obj::new()
            .uint("seq", wal.seq())
            .raw("projections", &wal.render_state())
            .finish(),
    ))
}

/// Render one [`Answer`] as a JSON object builder.
fn render_answer(answer: &Answer) -> Obj {
    let p: &Prediction = &answer.prediction;
    Obj::new()
        .str("team", &answer.team)
        .uint("model_version", answer.model_version)
        .str("verdict", verdict_name(p))
        .num("confidence", p.confidence)
        .str("model", model_name(p))
        .raw("components", &str_array(&p.explanation.components))
        .raw("evidence", &str_array(&p.explanation.evidence))
}

fn str_array(items: &[String]) -> String {
    items.iter().fold(Arr::new(), |arr, s| arr.str(s)).finish()
}

/// `team`'s promotion timeline as a JSON array of versions.
fn history_json(shared: &Shared, team: &str) -> String {
    let history = shared.engine.registry.history_of(team);
    history
        .iter()
        .fold(Arr::new(), |arr, v| arr.uint(*v))
        .finish()
}

fn verdict_name(p: &Prediction) -> &'static str {
    match p.verdict {
        scout::Verdict::Responsible => "responsible",
        scout::Verdict::NotResponsible => "not_responsible",
        scout::Verdict::Fallback => "fallback",
    }
}

fn model_name(p: &Prediction) -> &'static str {
    match p.model {
        scout::ModelUsed::RandomForest => "random_forest",
        scout::ModelUsed::CpdConservative => "cpd_conservative",
        scout::ModelUsed::CpdCluster => "cpd_cluster",
        scout::ModelUsed::Exclusion => "exclusion",
        scout::ModelUsed::Fallback => "fallback",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_metrics_are_low_cardinality() {
        assert_eq!(latency_metric("/healthz"), "serve.latency.healthz");
        for team in ["PhyNet", "Storage"] {
            assert_eq!(
                latency_metric(&format!("/v1/scouts/{team}/predict")),
                "serve.latency.predict"
            );
        }
        assert_eq!(latency_metric("/v1/route"), "serve.latency.route");
        assert_eq!(latency_metric("/anything/else"), "serve.latency.other");
    }

    #[test]
    fn static_status_metrics_spell_what_the_fallback_formats() {
        for status in [200, 400, 404, 409, 429, 500, 503, 504] {
            let formatted = format!("serve.http.{status}");
            assert_eq!(status_metric(status), Some(formatted.as_str()));
        }
        assert_eq!(status_metric(405), None);
    }

    /// The plane the engine opens from its kept index is the plane a
    /// cold `MonitoringSystem::new` would build from the live
    /// configuration — same epoch, same telemetry — before a mid-stream
    /// deprecation, after it, and after the restore; a plane opened
    /// before the write keeps the configuration it was opened with.
    #[test]
    fn the_kept_plane_index_follows_every_deprecation() {
        let mut world = incident::WorkloadConfig::default();
        world.faults.horizon = cloudsim::SimDuration::days(20);
        let world = Arc::new(Workload::generate(world));
        let engine = Engine::new(Arc::new(ModelRegistry::new()), Arc::clone(&world));
        let cold = |disabled: &[Dataset]| {
            MonitoringSystem::new(
                &world.topology,
                &world.faults,
                MonitoringConfig {
                    disabled: disabled.to_vec(),
                    ..MonitoringConfig::default()
                },
            )
        };
        let device = world
            .topology
            .of_kind(cloudsim::ComponentKind::Server)
            .next()
            .expect("a server")
            .id;
        let window = (SimTime::from_hours(10), SimTime::from_hours(12));
        let agrees = |disabled: &[Dataset]| {
            let (kept, cold) = (engine.monitoring_plane(), cold(disabled));
            assert_eq!(kept.epoch(), cold.epoch(), "disabled {disabled:?}");
            for dataset in [Dataset::PingStats, Dataset::CpuUsage] {
                assert_eq!(
                    kept.series(dataset, device, window),
                    cold.series(dataset, device, window),
                    "{dataset} with {disabled:?} disabled"
                );
            }
            kept.epoch()
        };

        let before = agrees(&[]);
        let in_flight = engine.monitoring_plane();
        assert_eq!(
            engine.deprecate_dataset(Dataset::PingStats, false),
            [Dataset::PingStats]
        );
        let after = agrees(&[Dataset::PingStats]);
        assert_ne!(after, before, "the epoch covers the disabled set");
        assert!(engine
            .monitoring_plane()
            .series(Dataset::PingStats, device, window)
            .is_none());
        assert_eq!(in_flight.epoch(), before);
        assert!(in_flight
            .series(Dataset::PingStats, device, window)
            .is_some());
        // Deprecating twice is idempotent; restoring brings the first
        // epoch back.
        engine.deprecate_dataset(Dataset::PingStats, false);
        assert_eq!(agrees(&[Dataset::PingStats]), after);
        assert!(engine
            .deprecate_dataset(Dataset::PingStats, true)
            .is_empty());
        assert_eq!(agrees(&[]), before);
    }

    #[test]
    fn over_capacity_predict_is_shed_with_retry_after() {
        // Both permits held by hand: the shed is a fact about admission,
        // not about what happens to be sitting in a batch.
        let mut world = incident::WorkloadConfig::default();
        world.faults.horizon = cloudsim::SimDuration::days(1);
        let engine = Engine::new(
            Arc::new(ModelRegistry::new()),
            Arc::new(Workload::generate(world)),
        );
        let config = ServeConfig {
            queue_cap: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(engine, "127.0.0.1:0", config).expect("bind ephemeral port");
        let shared = &server.shared;
        let _held = [
            shared.admission.try_admit().expect("first permit"),
            shared.admission.try_admit().expect("second permit"),
        ];
        let req = Request {
            method: "POST".into(),
            path: "/v1/scouts/PhyNet/predict".into(),
            headers: Vec::new(),
            body: br#"{"text":"Switch agg-3 in c1.dc1 reporting CRC errors"}"#.to_vec(),
        };
        let shed = predict(&req, "PhyNet", shared).expect("a shed is a response, not an error");
        assert_eq!(shed.status, 503);
        // Retry-After adapts to queue depth: with every permit held the
        // hint backs off beyond the idle baseline of 1 s, inside the clamp.
        let retry: u64 = shed
            .extra_headers
            .iter()
            .find(|(name, _)| name == "Retry-After")
            .expect("shed response carries Retry-After")
            .1
            .parse()
            .expect("Retry-After is integral seconds");
        assert!((2..=8).contains(&retry), "saturated queue hint: {retry}");
    }
}
