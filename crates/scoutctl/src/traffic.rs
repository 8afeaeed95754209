//! The traffic generators — `scoutctl loadgen`, `fleetgen`, `stormgen` —
//! each a preset over the one closed-loop driver, [`serve::client::drive`]:
//! a shot list, a closure that sends one shot and classifies the reply,
//! and a report over the per-shot results. The storm shot list comes from
//! [`crate::stormtraffic`].

use crate::args::{ArgError, Args};
use crate::stormtraffic::{build_plan, PlanAction, RouteShot, ShotKind, StormTrafficConfig};
use crate::{load_world, required_addr};
use cloudsim::StormScenario;
use obs::json::Value;
use serve::client::{drive, percentile};
use serve::{Client, ClientError, ClientResponse};
use std::collections::BTreeSet;
use std::time::Duration;

/// The longest one `Retry-After` wait may stall a shot.
const MAX_RETRY_WAIT: Duration = Duration::from_secs(2);

/// POST `body`, retrying `retries` times on 429/503; anything but a 2xx
/// in the end fails the shot.
fn post_ok(
    client: &mut Client,
    path: &str,
    body: &str,
    retries: u32,
) -> Result<ClientResponse, ClientError> {
    let resp = client.post_json_retry(path, body, retries, MAX_RETRY_WAIT)?;
    if !resp.is_success() {
        return Err(ClientError(format!(
            "server answered {}: {}",
            resp.status,
            resp.body_text()
        )));
    }
    Ok(resp)
}

/// Parse a storm-scenario slug given as `--<flag>`.
fn storm_scenario(flag: &str, slug: &str) -> Result<StormScenario, ArgError> {
    StormScenario::from_slug(slug).ok_or_else(|| {
        let valid: Vec<&str> = StormScenario::ALL.iter().map(|s| s.slug()).collect();
        ArgError(format!(
            "unknown --{flag} '{slug}'; valid: {}",
            valid.join(", ")
        ))
    })
}

/// How the server answered one storm-plan route shot.
#[derive(Clone, Copy, PartialEq)]
enum StormReply {
    Ok {
        suppressed: bool,
    },
    Throttled,
    Shed,
    /// A 5xx, or any status a storm has no business producing.
    Error,
}

fn fire(client: &mut Client, shot: &RouteShot, retries: u32) -> Result<StormReply, ClientError> {
    let resp = client.post_json_retry("/v1/route", &shot.body(), retries, MAX_RETRY_WAIT)?;
    Ok(match resp.status {
        200 => StormReply::Ok {
            suppressed: resp.body_text().contains("\"suppressed\":true"),
        },
        429 => StormReply::Throttled,
        503 | 504 => StormReply::Shed,
        _ => StormReply::Error,
    })
}

/// Scrape `/metrics.json` once; the returned lookup reads one counter by
/// name (0 when the server never touched it).
fn scrape_counters(addr: &str) -> Result<impl Fn(&str) -> u64, ArgError> {
    let text = Client::connect(addr)?.get("/metrics.json")?.body_text();
    let metrics: Vec<Value> = text.lines().filter_map(Value::parse).collect();
    Ok(move |name: &str| {
        metrics
            .iter()
            .find(|v| v.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|v| v.get("value").and_then(Value::as_f64))
            .unwrap_or(0.0) as u64
    })
}

/// `scoutctl loadgen`: drive a running server and report throughput/latency.
pub fn loadgen(args: &Args) -> Result<(), ArgError> {
    let addr = required_addr(args, "loadgen")?;
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

    let run = drive(addr, concurrency, requests, |client, _| {
        post_ok(client, &path, &body, retries).map(drop)
    })?;
    let latencies = run.latencies_ms(|_| true);
    println!(
        "{} requests over {} connection(s) in {:.2}s: {:.0} req/s; latency p50 {:.2} ms, p99 {:.2} ms",
        latencies.len(),
        concurrency,
        run.wall_s,
        run.throughput_rps(),
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
    );
    Ok(())
}

/// How one replayed incident was routed, against its ground-truth owner.
struct Routed {
    hit: bool,
    topk_hit: bool,
    fallback: bool,
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
pub fn fleetgen(args: &Args) -> Result<(), ArgError> {
    let addr = required_addr(args, "fleetgen")?;
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
    let storm_preset = args
        .get("storm")
        .map(|slug| storm_scenario("storm", slug))
        .transpose()?;

    // Which base teams have a registered Scout? The server knows.
    let ready = Client::connect(addr)?.get("/readyz")?;
    if !ready.is_success() {
        return Err(ArgError(format!("/readyz answered {}", ready.status)));
    }
    let ready_json = Value::parse(&ready.body_text())
        .ok_or_else(|| ArgError("/readyz response is not valid JSON".into()))?;
    let scouted: BTreeSet<String> = ready_json
        .get("teams")
        .and_then(Value::as_arr)
        .map(|teams| {
            teams
                .iter()
                .filter_map(Value::as_str)
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
    let route_and_judge = |client: &mut Client, k: usize| -> Result<Routed, ClientError> {
        let incident = &world.incidents[k * total / requests];
        let body = obs::json::Obj::new()
            .str("text", &incident.text())
            .uint("time_minutes", incident.created_at.0)
            .finish();
        let text = post_ok(client, "/v1/route", &body, retries)?.body_text();
        let value = Value::parse(&text)
            .ok_or_else(|| ClientError(format!("route response is not valid JSON: {text}")))?;
        let decision = value
            .get("decision")
            .and_then(Value::as_str)
            .ok_or_else(|| ClientError(format!("route response has no decision: {text}")))?;
        let owner = incident.owner.name();
        let fallback = decision == "fallback";
        if !scouted.contains(owner) {
            return Ok(Routed {
                hit: fallback,
                topk_hit: fallback,
                fallback,
            });
        }
        let is_owner = |team: &Value| {
            team.as_str()
                .is_some_and(|t| cloudsim::base_team_name(t) == owner)
        };
        Ok(Routed {
            hit: value.get("team").is_some_and(is_owner),
            topk_hit: value
                .get("suggestions")
                .and_then(Value::as_arr)
                .is_some_and(|s| s.iter().filter_map(|v| v.get("team")).any(is_owner)),
            fallback,
        })
    };

    // The storm lane fires its whole plan on one more connection alongside
    // the measured lanes; 429/503 are expected under storm and tolerated.
    let storm_plan = storm_preset.map(|scenario| {
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
        plan
    });
    let (run, pressure) = std::thread::scope(|scope| {
        let lane = storm_plan.as_ref().map(|plan| {
            let shots: Vec<&RouteShot> = plan.route_shots().collect();
            scope.spawn(move || drive(addr, 1, shots.len(), |client, i| fire(client, shots[i], 0)))
        });
        let run = drive(addr, concurrency, requests, route_and_judge);
        (run, lane.map(|l| l.join().expect("storm lane panicked")))
    });
    let run = run?;
    if let Some(pressure) = pressure.transpose()? {
        let count = |reply| pressure.shots.iter().filter(|(_, r)| *r == reply).count();
        println!(
            "storm pressure: {} suppressed, {} throttled",
            count(StormReply::Ok { suppressed: true }),
            count(StormReply::Throttled)
        );
    }
    let latencies = run.latencies_ms(|_| true);
    let count = |pick: fn(&Routed) -> bool| run.shots.iter().filter(|(_, r)| pick(r)).count();
    let (hits, fallbacks) = (count(|r| r.hit), count(|r| r.fallback));
    let accuracy = hits as f64 / requests as f64;
    println!(
        "fleetgen: {requests} incidents over {concurrency} connection(s) in {:.2}s: {:.0} req/s; latency p50 {:.2} ms, p99 {:.2} ms",
        run.wall_s,
        run.throughput_rps(),
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
    );
    println!(
        "routing accuracy {:.1}% ({hits}/{requests} correct, {fallbacks} fallback); top-k hit rate {:.1}%",
        100.0 * accuracy,
        100.0 * count(|r| r.topk_hit) as f64 / requests as f64,
    );

    // The unmapped-drop counter: with the string-keyed master every
    // registered team is routable, so a fleet built from the dependency
    // graph should report zero.
    let unmapped = scrape_counters(addr)?("serve.route.unmapped");
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
pub fn stormgen(args: &Args) -> Result<(), ArgError> {
    let addr = required_addr(args, "stormgen")?;
    let scenario = storm_scenario(
        "scenario",
        args.get("scenario").unwrap_or("duplicate-burst"),
    )?;
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

    // One connection, so the plan replays in order; a control action
    // yields no reply to classify.
    let run = drive(addr, 1, plan.actions.len(), |client, i| {
        Ok(match &plan.actions[i] {
            PlanAction::Deprecate { dataset } => {
                let body = obs::json::Obj::new().str("dataset", dataset).finish();
                let resp = client.post_json("/v1/monitoring/deprecate", &body)?;
                if !resp.is_success() {
                    return Err(ClientError(format!(
                        "deprecate answered {}: {}",
                        resp.status,
                        resp.body_text()
                    )));
                }
                eprintln!("[scoutctl] deprecated data set {dataset} mid-storm");
                None
            }
            PlanAction::Route(shot) => Some((shot.kind, fire(client, shot, retries)?)),
        })
    })?;
    let replies = || {
        run.shots
            .iter()
            .filter_map(|(_, r)| r.map(|(_, reply)| reply))
    };
    let ok = replies()
        .filter(|r| matches!(r, StormReply::Ok { .. }))
        .count();
    let count = |reply| replies().filter(|r| *r == reply).count() as u64;
    let fivexx = count(StormReply::Error);
    println!(
        "stormgen {}: {} shots in {:.2}s ({:.0} req/s): {ok} ok ({} suppressed), {} throttled, {} shed, {fivexx} 5xx/other",
        plan.scenario.slug(),
        plan.shot_count(),
        run.wall_s,
        plan.shot_count() as f64 / run.wall_s,
        count(StormReply::Ok { suppressed: true }),
        count(StormReply::Throttled),
        count(StormReply::Shed),
    );
    let background_ms =
        run.latencies_ms(|r| matches!(r, Some((ShotKind::Background, StormReply::Ok { .. }))));
    if !background_ms.is_empty() {
        println!(
            "background (non-storm) latency: p50 {:.2} ms, p99 {:.2} ms over {} shots",
            percentile(&background_ms, 50.0),
            percentile(&background_ms, 99.0),
            background_ms.len(),
        );
    }

    // The server-side view: what did the storm layer actually do?
    let metric = scrape_counters(addr)?;
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
