//! Durability-plane benchmarks, reported as `BENCH_wal.json`.
//!
//! Three questions, one per section:
//!
//! 1. **Append throughput** — events/s through the log under each sync
//!    policy. `group` (the serving default) must sit near `os` (no
//!    fsync), far above `always` (fsync per append): group commit is
//!    what makes log-first serving affordable.
//! 2. **Recovery time** — `Wal::open` wall time vs log length, from
//!    genesis and snapshot-assisted. Snapshots must flatten the curve:
//!    recovery cost tracks the tail since the last snapshot, not the
//!    log's lifetime.
//! 3. **Serve-path overhead** — end-to-end HTTP predict p50/throughput
//!    with the WAL attached vs without, same model, same client fleet.
//!    The contract is ≤5% p50 regression: one buffered `write(2)` per
//!    served prediction, no fsync on the request path.
//! 4. **Snapshot stall** — per-append latency (p50, p99.9, max) across
//!    three snapshot points on a log whose served projection is full,
//!    with snapshots off and on. Snapshots are written off the append
//!    lock, so the max with them on should stay near the max without.

use bench::{
    max, min, paired_reps, predict_shot, rounded, rows, serving_world, smoke, trained, write_report,
};
use cloudsim::SimTime;
use incident::Workload;
use obs::json::Obj;
use scout::Scout;
use serve::client::{drive, percentile};
use serve::{Engine, ModelRegistry, ServeConfig, Server};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use wal::{Event, SyncPolicy, Wal, WalConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_event(i: u64) -> Event {
    Event::PredictionServed {
        incident: i,
        team: "PhyNet".into(),
        text: "Switch agg-3 in c1.dc1 reporting CRC errors and packet loss".into(),
        model_version: 1,
        predicted: i.is_multiple_of(3),
        confidence: 0.75,
        time: SimTime(i),
    }
}

// ---- 1. append throughput per sync policy ----

fn append_run(policy: SyncPolicy, tag: &str, events: u64) -> f64 {
    let dir = tmp_dir(tag);
    let mut cfg = WalConfig::new(&dir);
    cfg.sync = policy;
    let wal = Wal::open(cfg).unwrap();
    wal.append(&Event::Init {
        served_cap: 8192,
        feedback_cap: 8192,
    })
    .unwrap();
    let started = Instant::now();
    for i in 0..events {
        black_box(wal.append(&sample_event(i)).unwrap());
    }
    wal.sync().unwrap();
    let eps = events as f64 / started.elapsed().as_secs_f64();
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    eps
}

// ---- 2. recovery time vs log length ----

struct RecoveryStats {
    events: u64,
    genesis_ms: f64,
    snapshot_ms: f64,
}

fn recovery_run(events: u64, snapshot_every: u64, tag: &str) -> f64 {
    let dir = tmp_dir(tag);
    let mut cfg = WalConfig::new(&dir);
    cfg.sync = SyncPolicy::Os;
    cfg.snapshot_every = snapshot_every;
    {
        let wal = Wal::open(cfg.clone()).unwrap();
        wal.append(&Event::Init {
            served_cap: 8192,
            feedback_cap: 8192,
        })
        .unwrap();
        for i in 0..events {
            wal.append(&sample_event(i)).unwrap();
        }
        wal.sync().unwrap();
    }
    let started = Instant::now();
    let wal = Wal::open(cfg).unwrap();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(wal.seq(), events + 1);
    black_box(wal.seq());
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    ms
}

// ---- 3. end-to-end serve overhead, WAL on vs off ----

struct ServeStats {
    name: &'static str,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn serve_run(
    with_wal: bool,
    model_text: &str,
    world: &Arc<Workload>,
    concurrency: usize,
    requests: usize,
) -> ServeStats {
    // A fresh registry per run: the WAL journal attaches to the
    // registry, so sharing one would bleed appends into the "off" run.
    let registry = Arc::new(ModelRegistry::new());
    let mut engine = Engine::new(Arc::clone(&registry), Arc::clone(world));
    let dir = with_wal.then(|| tmp_dir("serve"));
    let wal = dir.as_ref().map(|d| {
        let cfg = WalConfig::new(d); // serving defaults: group commit
        let w = Arc::new(Wal::open(cfg).unwrap());
        w.append(&Event::Init {
            served_cap: 8192,
            feedback_cap: 8192,
        })
        .unwrap();
        w
    });
    if let Some(w) = &wal {
        engine = engine.with_wal(Arc::clone(w));
    }
    registry
        .register(
            "PhyNet",
            Scout::from_text(model_text).expect("model text round-trips"),
            "bench",
        )
        .expect("register bench model");
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    drive(&addr, 1, 3, predict_shot).expect("warmup");
    let measured = drive(&addr, concurrency, requests, predict_shot).expect("predict run");
    server.shutdown();
    if let Some(w) = &wal {
        assert!(
            w.seq() > 3,
            "WAL-on run must actually have logged the traffic"
        );
    }
    drop(wal);
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(&d);
    }
    let latencies = measured.latencies_ms(|_| true);
    ServeStats {
        name: if with_wal { "wal-on" } else { "wal-off" },
        throughput_rps: measured.throughput_rps(),
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
    }
}

// ---- 4. append latency across snapshots ----

struct StallStats {
    snapshot_every: u64,
    p50_us: f64,
    p999_us: f64,
    max_us: f64,
}

/// Time each of `3 * batch` appends onto a log that already holds
/// `served` predictions (the served projection is at its cap, so each
/// snapshot renders all of them), under `Os` so no fsync policy shows.
/// With `snapshot_every = batch` three snapshots fall in the window.
fn stall_run(served: u64, batch: u64, snapshot_every: u64) -> StallStats {
    let dir = tmp_dir("stall");
    let mut cfg = WalConfig::new(&dir);
    cfg.sync = SyncPolicy::Os;
    cfg.snapshot_every = snapshot_every;
    let wal = Wal::open(cfg).unwrap();
    wal.append(&Event::Init {
        served_cap: served,
        feedback_cap: served,
    })
    .unwrap();
    for i in 0..served {
        wal.append(&sample_event(i)).unwrap();
    }
    let mut us: Vec<f64> = (served..served + 3 * batch)
        .map(|i| {
            let started = Instant::now();
            black_box(wal.append(&sample_event(i)).unwrap());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    us.sort_by(f64::total_cmp);
    StallStats {
        snapshot_every,
        p50_us: percentile(&us, 50.0),
        p999_us: percentile(&us, 99.9),
        max_us: max(&us),
    }
}

fn main() {
    let smoke = smoke();
    let (append_events, recovery_lens, concurrency, requests_per_client, reps): (
        u64,
        Vec<u64>,
        usize,
        usize,
        usize,
    ) = if smoke {
        (500, vec![200, 1_000], 4, 25, 2)
    } else {
        (20_000, vec![1_000, 8_000, 32_000], 8, 100, 3)
    };

    // 1. append throughput
    let policies = [
        ("group", SyncPolicy::group_default()),
        ("always", SyncPolicy::Always),
        ("os", SyncPolicy::Os),
    ];
    let mut append_rows = Vec::new();
    for (name, policy) in policies {
        let eps: Vec<f64> = (0..reps)
            .map(|_| append_run(policy, name, append_events))
            .collect();
        let best = max(&eps);
        println!("append {name:<7} {best:>12.0} events/s");
        append_rows.push((name, best));
    }
    let group_vs_always = append_rows[0].1 / append_rows[1].1.max(1e-9);

    // 2. recovery vs log length
    let mut recovery_rows = Vec::new();
    for &n in &recovery_lens {
        // Cadence scales with the log so every length actually exercises
        // snapshot-assisted recovery (~4 snapshots/run).
        let ms = paired_reps(reps, 2, |arm| match arm {
            0 => recovery_run(n, 0, "rec-genesis"),
            _ => recovery_run(n, (n / 4).max(64), "rec-snap"),
        });
        let (genesis, snap) = (min(&ms[0]), min(&ms[1]));
        println!(
            "recovery {n:>7} events: genesis {genesis:>8.2} ms, snapshot-assisted {snap:>8.2} ms"
        );
        recovery_rows.push(RecoveryStats {
            events: n,
            genesis_ms: genesis,
            snapshot_ms: snap,
        });
    }

    // 3. serve-path overhead. The two modes interleave (off, on, off,
    // on, ...); best-by-p50 per mode is the stable estimate of each
    // configuration's floor.
    let world = Arc::new(serving_world(smoke));
    let model_text = trained(&world, smoke).to_text();
    let serve_reps = if smoke { reps } else { 5 };
    let requests = concurrency * requests_per_client;
    let serve_rows: Vec<ServeStats> = paired_reps(serve_reps, 2, |arm| {
        serve_run(arm == 1, &model_text, &world, concurrency, requests)
    })
    .into_iter()
    .map(|samples| {
        samples
            .into_iter()
            .min_by(|a, b| a.p50_ms.total_cmp(&b.p50_ms))
            .expect("reps >= 1")
    })
    .collect();
    let (off, on) = (&serve_rows[0], &serve_rows[1]);
    let p50_overhead = (on.p50_ms - off.p50_ms) / off.p50_ms.max(1e-9) * 100.0;
    println!(
        "serve wal-off: {:>8.1} req/s  p50 {:>7.3} ms  p99 {:>7.3} ms",
        off.throughput_rps, off.p50_ms, off.p99_ms
    );
    println!(
        "serve wal-on:  {:>8.1} req/s  p50 {:>7.3} ms  p99 {:>7.3} ms  (p50 {:+.2}%)",
        on.throughput_rps, on.p50_ms, on.p99_ms, p50_overhead
    );

    // 4. snapshot stall, runs interleaved (off, on, off, on, ...).
    let (served, batch) = if smoke { (512, 256) } else { (8192, 4096) };
    let stall_rows: Vec<StallStats> =
        paired_reps(reps, 2, |arm| stall_run(served, batch, arm as u64 * batch))
            .into_iter()
            .flatten()
            .collect();
    for r in &stall_rows {
        println!(
            "append snapshot_every={:<5} p50 {:>7.1} us  p99.9 {:>8.1} us  max {:>9.1} us",
            r.snapshot_every, r.p50_us, r.p999_us, r.max_us
        );
    }

    let append = rows(&append_rows, |(name, eps)| {
        Obj::new()
            .str("sync", name)
            .num("events_per_s", rounded(*eps, 0))
    });
    let recovery = rows(&recovery_rows, |r| {
        Obj::new()
            .uint("events", r.events)
            .num("genesis_ms", rounded(r.genesis_ms, 3))
            .num("snapshot_ms", rounded(r.snapshot_ms, 3))
    });
    let stall = rows(&stall_rows, |r| {
        Obj::new()
            .uint("snapshot_every", r.snapshot_every)
            .num("p50_us", rounded(r.p50_us, 1))
            .num("p999_us", rounded(r.p999_us, 1))
            .num("max_us", rounded(r.max_us, 1))
    });
    let serve = rows(&serve_rows, |r| {
        Obj::new()
            .str("name", r.name)
            .num("throughput_rps", rounded(r.throughput_rps, 1))
            .num("p50_ms", rounded(r.p50_ms, 3))
            .num("p99_ms", rounded(r.p99_ms, 3))
    });
    write_report(
        "wal",
        reps,
        Obj::new()
            .uint("append_events", append_events)
            .raw("append", &append)
            .num("group_vs_always_speedup", rounded(group_vs_always, 2))
            .raw("recovery", &recovery)
            .uint("stall_served", served)
            .uint("stall_appends", 3 * batch)
            .raw("snapshot_stall", &stall)
            .raw("serve", &serve)
            .num("serve_p50_overhead_pct", rounded(p50_overhead, 2)),
    );
}
