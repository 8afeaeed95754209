//! Storm-control integration tests: duplicate suppression, per-source
//! throttling, severity coalescing byte-identity, circuit breakers, and
//! the mid-stream monitoring deprecation drill.
//!
//! The invariant under test everywhere: **storm control never changes
//! what a non-storm request is told** — it only changes how much work a
//! storm costs. Responses with the layer on are byte-identical to the
//! layer off for fresh, under-rate, default-severity traffic.

use obs::json::Value;
use serve::{Client, Engine, FleetConfig, ModelRegistry, ServeConfig, Server};
use std::sync::Arc;
use storm::{BreakerConfig, Clock, ManualClock, StormConfig, StormControl};

mod common;
use common::{small_workload, test_scout};

/// A fleet server with one test Scout per team and an optional storm
/// layer. Registration order is fixed so model versions (and therefore
/// response bytes) line up across servers.
fn start_server(teams: &[&str], fleet: FleetConfig, storm: Option<Arc<StormControl>>) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    for team in teams {
        registry
            .register(team, test_scout(), "test")
            .expect("register test model");
    }
    let mut engine = Engine::new(registry, small_workload()).with_fleet(fleet);
    if let Some(storm) = storm {
        engine = engine.with_storm(storm);
    }
    Server::start(engine, "127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.addr().to_string()).expect("connect")
}

fn fleet_config(fail_teams: &[&str]) -> FleetConfig {
    FleetConfig {
        shards: 2,
        suggestions: 3,
        fail_teams: fail_teams.iter().map(|t| t.to_string()).collect(),
    }
}

fn manual_storm(config: StormConfig) -> (Arc<StormControl>, ManualClock) {
    let (clock, handle) = Clock::manual();
    (Arc::new(StormControl::with_clock(config, clock)), handle)
}

fn route_body(text: &str, source: &str, severity: u64) -> String {
    obs::json::Obj::new()
        .str("text", text)
        .str("source", source)
        .uint("severity", severity)
        .finish()
}

/// Fetch one counter's value from `/metrics.json` (0 when absent).
fn metric(client: &mut Client, name: &str) -> f64 {
    let resp = client.get("/metrics.json").expect("metrics");
    resp.body_text()
        .lines()
        .filter_map(Value::parse)
        .find(|v| v.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|v| v.get("value").and_then(Value::as_f64))
        .unwrap_or(0.0)
}

#[test]
fn duplicate_storm_is_answered_from_the_cached_decision() {
    let (storm, _clock) = manual_storm(StormConfig::default());
    let server = start_server(&["PhyNet", "Storage"], fleet_config(&[]), Some(storm));
    let mut client = connect(&server);
    let suppressed_before = metric(&mut client, "storm.dedup.suppressed");

    let original = client
        .post_json(
            "/v1/route",
            &route_body("Switch agg-3 CRC errors and packet loss", "netmon", 2),
        )
        .unwrap();
    assert_eq!(original.status, 200, "{}", original.body_text());
    let original_body = original.body_text();
    assert!(
        !original_body.contains("\"storm\""),
        "fresh responses carry no storm object: {original_body}"
    );

    // Near-duplicate renderings: case, punctuation, and digit debris
    // differ; the normalized content does not.
    for (n, dup) in [
        "SWITCH agg-3 - CRC errors!! and packet loss 1718231",
        "switch AGG-3 crc ERRORS, and packet loss... 99",
    ]
    .iter()
    .enumerate()
    {
        let resp = client
            .post_json("/v1/route", &route_body(dup, "netmon", 2))
            .unwrap();
        assert_eq!(resp.status, 200);
        let body = resp.body_text();
        let value = Value::parse(&body).expect("JSON body");
        let storm_obj = value.get("storm").expect("duplicate carries storm object");
        assert!(
            matches!(storm_obj.get("suppressed"), Some(Value::Bool(true))),
            "suppressed flag set: {body}"
        );
        assert_eq!(
            storm_obj.get("duplicates").and_then(Value::as_f64),
            Some((n + 1) as f64)
        );
        // Everything except the storm object is the original's bytes.
        let stripped = body.replace(
            &format!(
                ",\"storm\":{{\"suppressed\":true,\"duplicates\":{}}}",
                n + 1
            ),
            "",
        );
        assert_eq!(stripped, original_body, "cached decision must be verbatim");
    }

    // A different source is a different incident stream: no suppression.
    let other = client
        .post_json(
            "/v1/route",
            &route_body("Switch agg-3 CRC errors and packet loss", "pagers", 2),
        )
        .unwrap();
    assert_eq!(other.status, 200);
    assert!(!other.body_text().contains("\"storm\""));

    // Metrics are process-global; assert the delta, not the total.
    let suppressed_after = metric(&mut client, "storm.dedup.suppressed");
    assert!(
        suppressed_after >= suppressed_before + 2.0,
        "dedup counter must advance: {suppressed_before} -> {suppressed_after}"
    );
}

#[test]
fn storm_layer_is_byte_invisible_to_non_storm_traffic() {
    // Same teams, same registration order, same fleet config — one
    // server with the full storm stack, one without.
    let (storm, _clock) = manual_storm(StormConfig::default());
    let with_storm = start_server(
        &["PhyNet", "Storage", "Database"],
        fleet_config(&[]),
        Some(storm),
    );
    let without = start_server(&["PhyNet", "Storage", "Database"], fleet_config(&[]), None);
    let mut on = connect(&with_storm);
    let mut off = connect(&without);

    let world = small_workload();
    for (i, incident) in world.incidents.iter().take(24).enumerate() {
        // Distinct sources keep every request Fresh; severities cycle
        // through all three classes, so the Sev3 coalescer path is
        // held to the same bytes as the direct fan-out.
        let severity = (i % 3 + 1) as u64;
        let body = obs::json::Obj::new()
            .str("text", &incident.text())
            .str("source", &format!("src-{i}"))
            .uint("severity", severity)
            .uint("time_minutes", incident.created_at.0)
            .finish();
        let a = on.post_json("/v1/route", &body).unwrap();
        let b = off.post_json("/v1/route", &body).unwrap();
        assert_eq!(a.status, 200, "{}", a.body_text());
        assert_eq!(b.status, 200, "{}", b.body_text());
        assert_eq!(
            a.body_text(),
            b.body_text(),
            "storm on/off bytes diverged on incident {i} (severity {severity})"
        );
    }
}

#[test]
fn over_rate_sources_get_429_without_starving_neighbors() {
    let config = StormConfig {
        throttle: storm::ThrottleConfig {
            rate_per_sec: 2,
            burst: 3,
            max_sources: 16,
        },
        ..StormConfig::default()
    };
    let (storm, clock) = manual_storm(config);
    let server = start_server(&["PhyNet"], fleet_config(&[]), Some(storm));
    let mut client = connect(&server);

    // The clock never advances: the 4th request from one source must be
    // throttled deterministically.
    let mut statuses = Vec::new();
    for i in 0..5 {
        let resp = client
            .post_json(
                "/v1/route",
                &route_body(
                    &format!("chatty alert variant {i} from flaky watchdog"),
                    "flaky",
                    2,
                ),
            )
            .unwrap();
        statuses.push(resp.status);
        if resp.status == 429 {
            let retry: u64 = resp
                .header("Retry-After")
                .expect("429 carries Retry-After")
                .parse()
                .expect("integral seconds");
            assert!((1..=8).contains(&retry), "retry hint {retry}");
        }
    }
    assert_eq!(statuses[..3], [200, 200, 200], "burst admits");
    assert_eq!(statuses[3..], [429, 429], "over-rate drops");

    // A well-behaved neighbor is untouched.
    let ok = client
        .post_json(
            "/v1/route",
            &route_body("quiet alert from healthy watchdog", "steady", 2),
        )
        .unwrap();
    assert_eq!(ok.status, 200, "per-source isolation: {}", ok.body_text());

    // Refill is driven by the injected clock: +2s buys 4 more tokens.
    clock.advance(2_000);
    let after = client
        .post_json(
            "/v1/route",
            &route_body("chatty alert variant 9 from flaky watchdog", "flaky", 2),
        )
        .unwrap();
    assert_eq!(after.status, 200, "tokens refill with the clock");
}

#[test]
fn breaker_trips_persistently_failing_team_and_probes_after_cooldown() {
    let config = StormConfig {
        breaker: BreakerConfig {
            failure_threshold: 2,
            open_ms: 10_000,
            half_open_probes: 1,
        },
        ..StormConfig::default()
    };
    let (storm, clock) = manual_storm(config);
    // Storage's Scout is failure-injected: every fan-out records one
    // breaker failure for it.
    let server = start_server(
        &["PhyNet", "Storage"],
        fleet_config(&["Storage"]),
        Some(storm),
    );
    let mut client = connect(&server);

    let storage_error = |body: &str| -> String {
        let value = Value::parse(body).expect("JSON body");
        value
            .get("errors")
            .and_then(Value::as_arr)
            .and_then(|errs| {
                errs.iter()
                    .find(|e| e.get("team").and_then(Value::as_str) == Some("Storage"))
            })
            .and_then(|e| e.get("error").and_then(Value::as_str))
            .unwrap_or_default()
            .to_string()
    };

    // Two failures trip the breaker; requests stay 200 throughout.
    // Distinct *alphabetic* tokens — digits normalize away and would
    // turn the second request into a dedup hit that never dispatches.
    for word in ["alpha", "bravo"] {
        let resp = client
            .post_json(
                "/v1/route",
                &route_body(&format!("distinct incident {word}"), "mon", 2),
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        assert!(
            storage_error(&resp.body_text()).contains("injected"),
            "closed breaker still dispatches to Storage"
        );
    }

    // Open: Storage is skipped — no catch_unwind, the error names the
    // breaker, and the answer still serves from the surviving Scouts.
    let resp = client
        .post_json(
            "/v1/route",
            &route_body("distinct incident number two beta", "mon", 2),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.body_text();
    assert!(
        storage_error(&body).contains("circuit breaker open"),
        "expected breaker-open error, got: {body}"
    );
    assert!(
        body.contains("\"team\":\"PhyNet\""),
        "healthy teams keep answering: {body}"
    );

    // After the cooldown the breaker half-opens and lets one probe
    // through; the probe fails (injection is still on) and re-trips.
    clock.advance(10_001);
    let probe = client
        .post_json(
            "/v1/route",
            &route_body("distinct incident number three gamma", "mon", 2),
        )
        .unwrap();
    assert_eq!(probe.status, 200);
    assert!(
        storage_error(&probe.body_text()).contains("injected"),
        "half-open admits a probe"
    );
    let reopened = client
        .post_json(
            "/v1/route",
            &route_body("distinct incident number four delta", "mon", 2),
        )
        .unwrap();
    assert!(
        storage_error(&reopened.body_text()).contains("circuit breaker open"),
        "failed probe re-trips"
    );
}

#[test]
fn mid_stream_monitoring_deprecation_degrades_without_errors() {
    let (storm, _clock) = manual_storm(StormConfig::default());
    let server = start_server(&["PhyNet", "Storage"], fleet_config(&[]), Some(storm));
    let mut client = connect(&server);
    let world = small_workload();

    let route = |client: &mut Client, text: &str, source: &str| -> u16 {
        let resp = client
            .post_json("/v1/route", &route_body(text, source, 2))
            .unwrap();
        let body = resp.body_text();
        assert!(
            Value::parse(&body)
                .and_then(|v| v.get("decision").and_then(Value::as_str).map(String::from))
                .is_some(),
            "every routed response carries a decision: {body}"
        );
        resp.status
    };

    for (i, incident) in world.incidents.iter().take(4).enumerate() {
        assert_eq!(
            route(&mut client, &incident.text(), &format!("pre-{i}")),
            200
        );
    }

    // Kill a data set mid-stream. The response lists the disabled set.
    let resp = client
        .post_json("/v1/monitoring/deprecate", r#"{"dataset":"snmp-syslog"}"#)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert!(resp.body_text().contains("snmp-syslog"));

    // Unknown data sets are a 400 naming the valid ones, not a 500.
    let bad = client
        .post_json("/v1/monitoring/deprecate", r#"{"dataset":"nope"}"#)
        .unwrap();
    assert_eq!(bad.status, 400);
    assert!(
        bad.body_text().contains("snmp-syslog"),
        "{}",
        bad.body_text()
    );

    // Zero 5xx after deprecation: Scouts degrade to remaining sensors.
    for (i, incident) in world.incidents.iter().skip(4).take(8).enumerate() {
        let status = route(&mut client, &incident.text(), &format!("post-{i}"));
        assert!(
            status < 500,
            "request {i} answered {status} after deprecation"
        );
        assert_eq!(status, 200);
    }

    // Restore and confirm the disabled list empties.
    let restored = client
        .post_json(
            "/v1/monitoring/deprecate",
            r#"{"dataset":"snmp-syslog","restore":true}"#,
        )
        .unwrap();
    assert_eq!(restored.status, 200);
    assert!(
        restored.body_text().contains("\"disabled\":[]"),
        "{}",
        restored.body_text()
    );
}

#[test]
fn sev3_requests_coalesce_through_the_route_batcher() {
    // Concurrent Sev3 submitters queue behind whichever pass is running
    // and share the next; correctness (bytes) is covered by the on/off
    // test, here we check the plumbing answers under concurrency.
    let (storm, _clock) = manual_storm(StormConfig::default());
    let server = start_server(&["PhyNet", "Storage"], fleet_config(&[]), Some(storm));
    let world = small_workload();
    let addr = server.addr().to_string();

    let handles: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            let text = world.incidents[i].text();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client
                    .post_json("/v1/route", &route_body(&text, &format!("sev3-{i}"), 3))
                    .unwrap()
            })
        })
        .collect();
    for h in handles {
        let resp = h.join().unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let body = resp.body_text();
        let value = Value::parse(&body).expect("JSON");
        assert!(value.get("decision").is_some(), "{body}");
    }
}
