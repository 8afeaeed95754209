//! A coalesced Sev3 batch answers byte for byte what a direct pass
//! answers, and only Sev3 routes are coalesced.
//!
//! Concurrent Sev3 routes at a storm-controlled server queue behind the
//! pass in flight and share the next one; each body must equal a
//! storm-off server's body for the same request. Rounds repeat until
//! `storm.batch.coalesced` shows that some batch carried more than one
//! job. The storm metrics are process-global, so this test has its
//! binary to itself: no other test can move them.

use obs::json::Value;
use serve::{Client, Engine, FleetConfig, ModelRegistry, ServeConfig, Server};
use std::sync::{Arc, Barrier};
use storm::{Clock, StormConfig, StormControl};

mod common;
use common::{small_workload, test_scout};

/// Concurrent callers per round.
const CALLERS: usize = 8;
/// Rounds before giving up on seeing a multi-job batch.
const MAX_ROUNDS: usize = 20;

/// A fleet server over the same teams in the same registration order, so
/// model versions (and response bytes) line up across servers.
fn start_server(storm: Option<StormControl>) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    for team in ["PhyNet", "Storage", "Database"] {
        registry
            .register(team, test_scout(), "test")
            .expect("register test model");
    }
    let fleet = FleetConfig {
        shards: 2,
        suggestions: 3,
        fail_teams: Vec::new(),
    };
    let mut engine = Engine::new(registry, small_workload()).with_fleet(fleet);
    if let Some(storm) = storm {
        engine = engine.with_storm(Arc::new(storm));
    }
    Server::start(engine, "127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port")
}

/// One field of one metric from `/metrics.json` (0 when absent): a
/// counter's `value`, a histogram's `count`.
fn metric(client: &mut Client, name: &str, field: &str) -> f64 {
    let resp = client.get("/metrics.json").expect("metrics");
    resp.body_text()
        .lines()
        .filter_map(Value::parse)
        .find(|v| v.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|v| v.get(field).and_then(Value::as_f64))
        .unwrap_or(0.0)
}

/// `CALLERS` routes of `round` at `severity(i)`, each from a source of its
/// own so every one is fresh to dedup and inside its throttle bucket.
fn bodies(round: usize, severity: impl Fn(usize) -> u64) -> Vec<String> {
    let incidents = &small_workload().incidents;
    (0..CALLERS)
        .map(|i| {
            let incident = &incidents[(round * CALLERS + i) % incidents.len()];
            obs::json::Obj::new()
                .str("text", &incident.text())
                .str("source", &format!("src-{round}-{i}"))
                .uint("severity", severity(i))
                .uint("time_minutes", incident.created_at.0)
                .finish()
        })
        .collect()
}

/// Send `bodies` to `addr` all at once, then each to `direct` in turn,
/// and require the same status and bytes from both.
fn fire_and_compare(addr: &str, direct: &mut Client, bodies: &[String]) {
    let start = Arc::new(Barrier::new(bodies.len()));
    let handles: Vec<_> = bodies
        .iter()
        .map(|body| {
            let mut client = Client::connect(addr).unwrap();
            let (body, start) = (body.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                client.post_json("/v1/route", &body).unwrap()
            })
        })
        .collect();
    for (body, handle) in bodies.iter().zip(handles) {
        let concurrent = handle.join().unwrap();
        let expected = direct.post_json("/v1/route", body).unwrap();
        assert_eq!(concurrent.status, 200, "{}", concurrent.body_text());
        assert_eq!(expected.status, 200, "{}", expected.body_text());
        assert_eq!(
            concurrent.body_text(),
            expected.body_text(),
            "storm on/off bytes diverged for {body}"
        );
    }
}

#[test]
fn sev3_batches_match_direct_passes_and_sev1_sev2_never_queue() {
    let (clock, _handle) = Clock::manual();
    let on = start_server(Some(StormControl::with_clock(
        StormConfig::default(),
        clock,
    )));
    let off = start_server(None);
    let on_addr = on.addr().to_string();
    let mut probe = Client::connect(&on_addr).unwrap();
    let mut direct = Client::connect(&off.addr().to_string()).unwrap();

    // Sev1 and Sev2 run on their handler threads: the coalescer sees no
    // batch at all, not even one of a single job.
    let batches = metric(&mut probe, "storm.batch.occupancy", "count");
    fire_and_compare(&on_addr, &mut direct, &bodies(0, |i| (i % 2 + 1) as u64));
    assert_eq!(
        metric(&mut probe, "storm.batch.occupancy", "count"),
        batches,
        "a Sev1/Sev2 route entered the Sev3 lane"
    );

    let coalesced = metric(&mut probe, "storm.batch.coalesced", "value");
    for round in 1..=MAX_ROUNDS {
        fire_and_compare(&on_addr, &mut direct, &bodies(round, |_| 3));
        if metric(&mut probe, "storm.batch.coalesced", "value") > coalesced {
            return;
        }
    }
    panic!("no Sev3 batch carried more than one job in {MAX_ROUNDS} rounds");
}
