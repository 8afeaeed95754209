//! Feature-chunk cache speedup on repeated `predict_many` over
//! overlapping look-back windows, reported as `BENCH_featcache.json`.
//!
//! The workload is the online serving pattern the cache was built for: a
//! stream of incidents against one cluster, spaced a few minutes apart,
//! so consecutive 2 h look-back windows share almost all of their
//! time-bucket chunks. Each incident names the cluster plus five devices
//! — past `few_device_threshold`, so both CPD+ paths are skipped and the
//! passes measure featurization (telemetry generation + aggregation)
//! almost exclusively.
//!
//! Three modes, identical inputs and bit-identical predictions:
//!  - `disabled` — no cache; every predict regenerates every window.
//!  - `cold`     — fresh cache per pass; chunks shared within the pass.
//!  - `warm`     — shared cache, pre-warmed; chunk builds all amortized.
//!
//! The bench asserts warm ≥ cold in every mode; the headline ≥2x
//! warm-over-disabled figure is in the JSON.

use bench::{
    bench_monitoring, dense_world, min, paired_reps, rounded, rows, smoke, time_s, trained,
    write_report,
};
use cloudsim::{SimDuration, SimTime};
use featcache::FeatCache;
use obs::json::Obj;

struct RunStats {
    name: &'static str,
    pass_ms: f64,
    predictions_per_s: f64,
}

/// `n` incidents against clusters c1.dc1 and c2.dc1, 10 minutes apart,
/// each naming five devices so CPD+ is skipped and featurization (two
/// clusters' worth of pooled telemetry) dominates.
fn incident_stream(n: usize) -> Vec<(String, SimTime)> {
    (0..n)
        .map(|i| {
            let t = SimTime::from_hours(48) + SimDuration(10 * i as u64);
            let text = format!(
                "srv-{}.c1.dc1 srv-{}.c1.dc1 srv-{}.c2.dc1 tor-{}.c1.dc1 agg-0.c2.dc1 \
                 widespread retransmits and CPU across c1.dc1 and c2.dc1",
                i % 24,
                (i + 1) % 24,
                (i + 2) % 24,
                i % 6,
            );
            (text, t)
        })
        .collect()
}

fn main() {
    let smoke = smoke();
    let (n_incidents, reps) = if smoke { (24, 3) } else { (96, 5) };

    // Two faults a day in both modes; smoke only shortens the horizon.
    let world = dense_world(smoke.then_some(20));
    let scout = trained(&world, smoke);
    let mon = bench_monitoring(&world);
    let stream = incident_stream(n_incidents);
    let inputs: Vec<(&str, SimTime)> = stream.iter().map(|(s, t)| (s.as_str(), *t)).collect();

    let cache = FeatCache::new(64 * 1024 * 1024);
    // Warm pass (untimed): fills the cache so the `warm` rows below never
    // build a chunk.
    scout.predict_many_cached(&inputs, &mon, Some(&cache));

    // Best-of-`reps` pass time per mode, the modes interleaved. `cold`
    // gets a fresh cache every rep; `warm` reuses the pre-warmed one.
    let modes = ["disabled", "cold", "warm"];
    let secs = paired_reps(reps, modes.len(), |mode| {
        let fresh = FeatCache::new(cache.capacity_bytes());
        let pass_cache = [None, Some(&fresh), Some(&cache)][mode];
        time_s(|| scout.predict_many_cached(&inputs, &mon, pass_cache))
    });
    let passes: Vec<RunStats> = modes
        .iter()
        .zip(&secs)
        .map(|(name, secs)| RunStats {
            name,
            pass_ms: min(secs) * 1e3,
            predictions_per_s: inputs.len() as f64 / min(secs),
        })
        .collect();
    let warm_vs_disabled = passes[0].pass_ms / passes[2].pass_ms.max(1e-9);
    let warm_vs_cold = passes[1].pass_ms / passes[2].pass_ms.max(1e-9);
    let stats = cache.stats();

    for r in &passes {
        println!(
            "{:<9} pass {:>9.3} ms   {:>9.1} predictions/s",
            r.name, r.pass_ms, r.predictions_per_s
        );
    }
    println!(
        "warm speedup: {warm_vs_disabled:.2}x vs disabled, {warm_vs_cold:.2}x vs cold; \
         cache: {} hits / {} misses / {} evictions, {} chunks, {} bytes",
        stats.hits, stats.misses, stats.evictions, stats.chunks, stats.bytes
    );

    // The warm pass does strictly less work than the cold pass (zero chunk
    // builds vs all of them); 5% slack absorbs scheduler noise.
    assert!(
        passes[2].pass_ms <= passes[1].pass_ms * 1.05,
        "warm pass ({:.3} ms) slower than cold pass ({:.3} ms)",
        passes[2].pass_ms,
        passes[1].pass_ms
    );
    assert!(
        stats.hits > stats.misses,
        "warm passes should be hit-dominated"
    );

    let configs = rows(&passes, |r| {
        Obj::new()
            .str("name", r.name)
            .num("pass_ms", rounded(r.pass_ms, 3))
            .num("predictions_per_s", rounded(r.predictions_per_s, 1))
    });
    let cache = Obj::new()
        .uint("hits", stats.hits)
        .uint("misses", stats.misses)
        .uint("evictions", stats.evictions)
        .uint("chunks", stats.chunks as u64)
        .uint("bytes", stats.bytes as u64);
    write_report(
        "featcache",
        reps,
        Obj::new()
            .uint("incidents_per_pass", n_incidents as u64)
            .raw("configs", &configs)
            .num("warm_speedup_vs_disabled", rounded(warm_vs_disabled, 3))
            .num("warm_speedup_vs_cold", rounded(warm_vs_cold, 3))
            .raw("cache", &cache.finish()),
    );
}
