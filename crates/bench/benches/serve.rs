//! Sequential vs micro-batched serving throughput, reported as
//! `BENCH_serve.json`.
//!
//! Two identical in-process servers share one trained Scout and one
//! workload; the only difference is `batch_size` (1 = every request is
//! its own inference pass, 8 = concurrent requests coalesce). The same
//! concurrent client fleet drives both, so the delta is purely the
//! micro-batcher amortizing the prepared-corpus pass over the pool.

use bench::{
    paired_reps, predict_shot, rounded, rows, serving_world, smoke, trained, write_report,
};
use incident::Workload;
use obs::json::Obj;
use serve::client::{drive, percentile};
use serve::{Engine, ModelRegistry, ServeConfig, Server};
use std::sync::Arc;
use std::time::Duration;

const CONFIGS: [(&str, usize); 2] = [("sequential", 1), ("batched", 8)];

struct RunStats {
    name: &'static str,
    batch_size: usize,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn run(
    (name, batch_size): (&'static str, usize),
    registry: &Arc<ModelRegistry>,
    world: &Arc<Workload>,
    concurrency: usize,
    requests: usize,
) -> RunStats {
    let engine = Engine::new(Arc::clone(registry), Arc::clone(world));
    let server = Server::start(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            batch_size,
            batch_deadline: Duration::from_millis(2),
            queue_cap: 1024,
            max_connections: 256,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // Warm up (thread pool, page cache, connection setup paths).
    drive(&addr, 1, 3, predict_shot).expect("warmup");
    let measured = drive(&addr, concurrency, requests, predict_shot).expect("predict run");
    server.shutdown();
    let latencies = measured.latencies_ms(|_| true);
    RunStats {
        name,
        batch_size,
        throughput_rps: measured.throughput_rps(),
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
    }
}

fn main() {
    let smoke = smoke();
    let (concurrency, requests_per_client, reps) = if smoke { (8, 25, 3) } else { (8, 100, 3) };

    let world = Arc::new(serving_world(smoke));
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register("PhyNet", trained(&world, smoke), "bench")
        .expect("register bench model");

    // Best-of-`reps` throughput per config. Thread-per-connection over a
    // shared CPU is noisy (the scheduler interleaves 8 clients, the
    // acceptor, and the batcher); the max across repetitions is the
    // stable estimate of what the configuration can sustain.
    let requests = concurrency * requests_per_client;
    let stats: Vec<RunStats> = paired_reps(reps, CONFIGS.len(), |arm| {
        run(CONFIGS[arm], &registry, &world, concurrency, requests)
    })
    .into_iter()
    .map(|samples| {
        samples
            .into_iter()
            .max_by(|a, b| a.throughput_rps.total_cmp(&b.throughput_rps))
            .expect("at least one rep")
    })
    .collect();
    let speedup = stats[1].throughput_rps / stats[0].throughput_rps.max(1e-9);

    for r in &stats {
        println!(
            "{:<10} batch_size {:>2}   {:>8.1} req/s   p50 {:>7.3} ms   p99 {:>7.3} ms",
            r.name, r.batch_size, r.throughput_rps, r.p50_ms, r.p99_ms
        );
    }
    println!("batched speedup: {speedup:.2}x");

    let configs = rows(&stats, |r| {
        Obj::new()
            .str("name", r.name)
            .uint("batch_size", r.batch_size as u64)
            .num("throughput_rps", rounded(r.throughput_rps, 1))
            .num("p50_ms", rounded(r.p50_ms, 3))
            .num("p99_ms", rounded(r.p99_ms, 3))
    });
    write_report(
        "serve",
        reps,
        Obj::new()
            .uint("concurrency", concurrency as u64)
            .raw("configs", &configs)
            .num("batched_speedup", rounded(speedup, 3)),
    );
}
