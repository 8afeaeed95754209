//! `featcache` — the windowed feature-aggregate cache.
//!
//! The paper's feature construction (§5.2.1) aggregates telemetry over the
//! look-back window `[t−T, t]`; consecutive incidents on the same devices
//! share almost all of that window, yet the serving layer used to replay
//! window generation, sorting, and 11 statistics from scratch on every
//! `predict`. This crate memoizes the expensive part: telemetry is carved
//! into immutable per-`(epoch, dataset, device, aligned time-bucket)`
//! **chunks** carrying `count / sum / sum-of-squares / min / max` plus the
//! *sorted* sample slice, so merged percentiles stay exact rather than
//! sketched. Chunks live behind a bounded, byte-budgeted LRU.
//!
//! # Exactness
//!
//! A chunk is a pure function of its key: the monitoring epoch fingerprints
//! the seed, topology, fault schedule, and deprecated data sets
//! ([`monitoring::MonitoringSystem::epoch`]), and sample generation is
//! deterministic per `(dataset, device, step)`. Whether a bucket's samples
//! come from a freshly generated chunk, a cached one, or no cache at all,
//! the bytes are identical — so cached and uncached featurization agree
//! bit-for-bit (a property test in `scout` enforces this). Full buckets
//! contribute their precomputed aggregates; the window's ragged edges are
//! sliced out of the bucket's time-ordered samples and folded in
//! sample-by-sample. Which buckets are "full" depends only on the query
//! window, never on cache state, so the floating-point operation order is
//! the same in every mode.
//!
//! Percentiles cannot be merged from aggregates, so [`PoolStats`] keeps the
//! contributing slices and pulls the quantile ranks out of their pooled
//! multiset by progressive selection at finalization — `O(n)` instead of
//! the old `O(n log n)` re-sort, and exact: the element at a given rank
//! under `total_cmp`'s total order is unique, whatever algorithm finds it.
//!
//! # Invalidation
//!
//! The epoch is part of the key: a new fault schedule or monitoring config
//! simply misses, and nothing about a trained model is in a chunk, so one
//! cache can serve every model that reads the same plane (a `serve` fleet
//! pass reads through one cache per featurization fingerprint). No
//! explicit flush API is needed.
//!
//! # Counters
//!
//! Hits, misses and evictions are counted in atomics on the cache
//! ([`FeatCache::stats`]). The `obs` mirror is batched:
//! [`FeatCache::publish`] adds what accrued since the last publish to the
//! `featcache.*` metrics, outside the cache lock — the featurizer calls
//! it once per feature vector, not once per chunk.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cloudsim::{ComponentId, SimTime};
use monitoring::{window_steps, Dataset, Event, MonitoringSystem};

pub mod stats;

use stats::{finalize_stats, ord_key, with_scratch, Moments};

/// Samples per chunk: 12 steps × 5-minute [`monitoring::SAMPLE_INTERVAL`]
/// = one hour. A two-hour look-back window spans at most four buckets
/// (two full, two ragged), so the per-predict merge is a handful of
/// aggregate folds plus two short slices.
pub const CHUNK_STEPS: u64 = 12;

/// Cache key: every field that can change a chunk's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// Monitoring-plane fingerprint (seed + topology + faults + config).
    pub epoch: u64,
    /// `Dataset::index()`.
    pub dataset: usize,
    /// Device the telemetry belongs to.
    pub device: u64,
    /// Aligned bucket: covers steps `[bucket·CHUNK_STEPS, (bucket+1)·CHUNK_STEPS)`.
    pub bucket: u64,
}

/// One hour of telemetry for one `(dataset, device)`, immutable once built.
#[derive(Debug)]
pub struct SeriesChunk {
    /// Time-ordered samples (baseline-normalized for class-tagged data
    /// sets, matching the featurizer's pooling convention).
    pub samples: Vec<f64>,
    /// The same samples as order-preserving u64 keys ([`ord_key`]), sorted
    /// ascending — i.e. the `total_cmp` sort, pre-transformed so pooled
    /// percentile selection works on plain integers.
    pub sorted_keys: Vec<u64>,
    /// Sequential sum over `samples` in time order.
    pub sum: f64,
    /// Sequential sum of squares over `samples` in time order.
    pub sumsq: f64,
    /// Minimum sample (`+inf` when empty).
    pub min: f64,
    /// Maximum sample (`-inf` when empty).
    pub max: f64,
}

/// One hour of events for one `(dataset, device)`.
#[derive(Debug)]
pub struct EventChunk {
    /// Events ordered by time.
    pub events: Vec<Event>,
}

/// A cached unit: series- or event-typed.
#[derive(Debug)]
pub enum Chunk {
    /// Time-series bucket.
    Series(SeriesChunk),
    /// Event bucket.
    Events(EventChunk),
}

impl Chunk {
    /// Approximate heap footprint, for the byte budget.
    fn bytes(&self) -> usize {
        const OVERHEAD: usize = 96; // key + Arc + LRU bookkeeping
        match self {
            Chunk::Series(s) => OVERHEAD + (s.samples.len() + s.sorted_keys.len()) * 8,
            Chunk::Events(e) => OVERHEAD + e.events.len() * std::mem::size_of::<Event>(),
        }
    }
}

/// Build the series chunk for `key`'s bucket — the *only* code path that
/// turns raw telemetry into pooled samples, shared by cached and uncached
/// featurization. Class-tagged data sets are normalized to their healthy
/// baseline here so chunks mix safely across hardware generations.
fn build_series_chunk(
    mon: &MonitoringSystem,
    dataset: Dataset,
    device: ComponentId,
    bucket: u64,
) -> Chunk {
    let steps = bucket * CHUNK_STEPS..(bucket + 1) * CHUNK_STEPS;
    let mut samples = mon.series_steps(dataset, device, steps).unwrap_or_default();
    if dataset.class_tag().is_some() {
        let (mean, sd) = dataset.baseline();
        let sd = if sd > 0.0 { sd } else { 1.0 };
        for v in &mut samples {
            *v = (*v - mean) / sd;
        }
    }
    let mut sorted_keys: Vec<u64> = samples.iter().map(|&v| ord_key(v)).collect();
    sorted_keys.sort_unstable();
    let m = Moments::of(&samples);
    Chunk::Series(SeriesChunk {
        samples,
        sorted_keys,
        sum: m.sum,
        sumsq: m.sumsq,
        min: m.min,
        max: m.max,
    })
}

fn build_event_chunk(
    mon: &MonitoringSystem,
    dataset: Dataset,
    device: ComponentId,
    bucket: u64,
) -> Chunk {
    let steps = bucket * CHUNK_STEPS..(bucket + 1) * CHUNK_STEPS;
    Chunk::Events(EventChunk {
        events: mon.events_steps(dataset, device, steps),
    })
}

#[derive(Debug)]
struct Entry {
    chunk: Arc<Chunk>,
    /// Stamp of this entry's *latest* queue slot; older slots are stale.
    stamp: u64,
    bytes: usize,
}

/// `ChunkKey` lookups are the per-predict hot path (hundreds per call),
/// where SipHash's setup cost dominates the probe. The key is four plain
/// words, so a multiply-xor mixer (splitmix64's finalizer) gives full
/// avalanche at a fraction of the cost.
#[derive(Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut x = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        self.0 = x;
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type KeyMap = HashMap<ChunkKey, Entry, std::hash::BuildHasherDefault<KeyHasher>>;

/// Lazy-deletion LRU: touches push a fresh `(key, stamp)` slot instead of
/// splicing a linked list; eviction pops slots and skips the stale ones.
/// Amortized O(1) per touch, compacted when the queue outgrows the map.
#[derive(Debug, Default)]
struct Lru {
    map: KeyMap,
    queue: VecDeque<(ChunkKey, u64)>,
    next_stamp: u64,
    bytes: usize,
}

impl Lru {
    /// How stale (in stamps) an entry's queue slot may get before a hit
    /// refreshes it. Skipping the refresh keeps the hot hit path to a map
    /// probe; the cost is eviction order that is coarse to within one
    /// grain, never a capacity or correctness change.
    const REFRESH_GRAIN: u64 = 256;

    fn touch(&mut self, key: ChunkKey) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(e) = self.map.get_mut(&key) {
            e.stamp = stamp;
        }
        self.queue.push_back((key, stamp));
        if self.queue.len() > 4 * self.map.len() + 16 {
            let map = &self.map;
            self.queue
                .retain(|(k, s)| map.get(k).is_some_and(|e| e.stamp == *s));
        }
    }

    /// [`Lru::touch`] for the hit path: entries stamped within the last
    /// [`Lru::REFRESH_GRAIN`] touches keep their current queue slot.
    fn touch_hit(&mut self, key: ChunkKey) {
        if let Some(e) = self.map.get(&key) {
            if self.next_stamp.saturating_sub(e.stamp) < Lru::REFRESH_GRAIN {
                return;
            }
        }
        self.touch(key);
    }

    /// Evict least-recently-used entries until `bytes <= budget`.
    /// Returns the number of chunks evicted.
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let Some((key, stamp)) = self.queue.pop_front() else {
                break;
            };
            if self.map.get(&key).is_some_and(|e| e.stamp == stamp) {
                let e = self.map.remove(&key).unwrap();
                self.bytes -= e.bytes;
                evicted += 1;
            }
        }
        evicted
    }
}

/// Bounded, thread-safe chunk cache. Capacity `0` degenerates to a pure
/// pass-through (every lookup builds, nothing is stored), which is how the
/// bit-identity property is exercised end to end.
#[derive(Debug)]
pub struct FeatCache {
    inner: Mutex<Lru>,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// How much of the three counters above `obs` has already seen.
    published: [AtomicU64; 3],
}

/// A point-in-time view of the cache counters, for tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the chunk.
    pub misses: u64,
    /// Chunks dropped to stay inside the byte budget.
    pub evictions: u64,
    /// Bytes currently held.
    pub bytes: usize,
    /// Chunks currently held.
    pub chunks: usize,
}

impl FeatCache {
    /// A cache holding at most `capacity_bytes` of chunk data.
    pub fn new(capacity_bytes: usize) -> FeatCache {
        FeatCache {
            inner: Mutex::new(Lru::default()),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            published: Default::default(),
        }
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Current counters (mirrored into the `obs` registry by
    /// [`FeatCache::publish`]).
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: inner.bytes,
            chunks: inner.map.len(),
        }
    }

    /// Mirror the counters into the `obs` registry: what accrued since
    /// the last publish is added to `featcache.hits` / `.misses` /
    /// `.evictions`, and after a miss (the only event that changes
    /// residency) the `featcache.bytes` / `.chunks` gauges are refreshed.
    /// Lookups themselves never touch the registry — its global mutex
    /// would otherwise be taken once per chunk, under this cache's lock.
    /// Racing publishers split the delta between them; the totals equal
    /// the per-event mirror's.
    pub fn publish(&self) {
        let unpublished = |counter: &AtomicU64, seen: &AtomicU64| {
            let now = counter.load(Ordering::Relaxed);
            now.saturating_sub(seen.fetch_max(now, Ordering::Relaxed))
        };
        let [seen_hits, seen_misses, seen_evictions] = &self.published;
        let hits = unpublished(&self.hits, seen_hits);
        let misses = unpublished(&self.misses, seen_misses);
        let evictions = unpublished(&self.evictions, seen_evictions);
        if hits > 0 {
            obs::counter("featcache.hits").add(hits);
        }
        if evictions > 0 {
            obs::counter("featcache.evictions").add(evictions);
        }
        if misses > 0 {
            obs::counter("featcache.misses").add(misses);
            if self.capacity_bytes > 0 {
                let (bytes, chunks) = {
                    let inner = self.inner.lock().unwrap();
                    (inner.bytes, inner.map.len())
                };
                obs::gauge("featcache.bytes").set(bytes as f64);
                obs::gauge("featcache.chunks").set(chunks as f64);
            }
        }
    }

    /// Fetch `key`'s chunk, building it with `build` on a miss. The build
    /// runs outside the lock — two racing threads may both build, but the
    /// chunk is a pure function of the key, so whichever insert wins stores
    /// identical bytes.
    fn get_or_build(&self, key: ChunkKey, build: impl FnOnce() -> Chunk) -> Arc<Chunk> {
        if self.capacity_bytes > 0 {
            let mut inner = self.inner.lock().unwrap();
            if let Some(e) = inner.map.get(&key) {
                let chunk = Arc::clone(&e.chunk);
                inner.touch_hit(key);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return chunk;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let chunk = {
            let _span = obs::span!("featcache.build");
            Arc::new(build())
        };
        if self.capacity_bytes == 0 {
            return chunk;
        }
        let bytes = chunk.bytes();
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.map.get(&key) {
            // Lost the build race; keep the incumbent.
            let incumbent = Arc::clone(&e.chunk);
            inner.touch(key);
            return incumbent;
        }
        inner.map.insert(
            key,
            Entry {
                chunk: Arc::clone(&chunk),
                stamp: 0,
                bytes,
            },
        );
        inner.bytes += bytes;
        inner.touch(key);
        let evicted = inner.evict_to(self.capacity_bytes);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        chunk
    }
}

fn series_chunk(
    cache: Option<&FeatCache>,
    mon: &MonitoringSystem,
    dataset: Dataset,
    device: ComponentId,
    bucket: u64,
) -> Arc<Chunk> {
    let build = || build_series_chunk(mon, dataset, device, bucket);
    match cache {
        Some(c) => c.get_or_build(
            ChunkKey {
                epoch: mon.epoch(),
                dataset: dataset.index(),
                device: u64::from(device.0),
                bucket,
            },
            build,
        ),
        None => Arc::new(build()),
    }
}

fn event_chunk(
    cache: Option<&FeatCache>,
    mon: &MonitoringSystem,
    dataset: Dataset,
    device: ComponentId,
    bucket: u64,
) -> Arc<Chunk> {
    let build = || build_event_chunk(mon, dataset, device, bucket);
    match cache {
        Some(c) => c.get_or_build(
            ChunkKey {
                epoch: mon.epoch(),
                // Event and series chunks never collide: a dataset is one
                // or the other, and `dataset` is part of the key.
                dataset: dataset.index(),
                device: u64::from(device.0),
                bucket,
            },
            build,
        ),
        None => Arc::new(build()),
    }
}

/// Samples contributing to a pool's percentiles: either a whole chunk
/// (its pre-transformed `sorted_keys` memcpy straight into the selection
/// buffer) or a ragged-edge range of a chunk's time-ordered samples,
/// transformed through [`ord_key`] at finalization. Both borrow the
/// chunk via `Arc` — no per-part allocation on the hot path.
#[derive(Debug)]
enum SortedPart {
    Whole(Arc<Chunk>),
    Range(Arc<Chunk>, usize, usize),
}

impl SortedPart {
    fn extend_keys(&self, buf: &mut Vec<u64>) {
        match self {
            SortedPart::Whole(c) => {
                if let Chunk::Series(s) = &**c {
                    buf.extend_from_slice(&s.sorted_keys);
                }
            }
            SortedPart::Range(c, lo, hi) => {
                if let Chunk::Series(s) = &**c {
                    buf.extend(s.samples[*lo..*hi].iter().map(|&v| ord_key(v)));
                }
            }
        }
    }
}

/// Mergeable pool statistics: the cache-aware replacement for collecting
/// every raw sample and re-sorting. Mean/std/min/max merge from chunk
/// aggregates; percentiles merge the contributing slices at finalization,
/// so they are *exact* over the pooled multiset.
#[derive(Debug, Default)]
pub struct PoolStats {
    count: u64,
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
    parts: Vec<SortedPart>,
}

impl PoolStats {
    /// An empty pool.
    pub fn new() -> PoolStats {
        PoolStats {
            count: 0,
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            parts: Vec::new(),
        }
    }

    /// Samples accumulated so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Pool mean, `None` when empty. (The `DeviceMeans` ablation reduces
    /// each device's window to this before pooling.)
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    fn add_chunk(&mut self, chunk: Arc<Chunk>) {
        let Chunk::Series(s) = &*chunk else { return };
        if s.samples.is_empty() {
            return;
        }
        self.count += s.samples.len() as u64;
        self.sum += s.sum;
        self.sumsq += s.sumsq;
        self.min = self.min.min(s.min);
        self.max = self.max.max(s.max);
        self.parts.push(SortedPart::Whole(chunk));
    }

    /// Fold in `chunk.samples[lo..hi]` — a window's ragged edge.
    fn add_range(&mut self, chunk: Arc<Chunk>, lo: usize, hi: usize) {
        let Chunk::Series(s) = &*chunk else { return };
        let samples = &s.samples[lo..hi];
        if samples.is_empty() {
            return;
        }
        self.count += samples.len() as u64;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for &v in samples {
            sum += v;
            sumsq += v * v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.sum += sum;
        self.sumsq += sumsq;
        self.parts.push(SortedPart::Range(chunk, lo, hi));
    }

    /// Write the 11 §5.2.1 statistics (mean, std, min, max,
    /// p1/10/25/50/75/90/99) into `out`. Zeros when the pool is empty.
    ///
    /// Finalization goes through the shared fused kernel
    /// ([`stats::finalize_stats`]): the merged `sum`/`sumsq`/`min`/`max`
    /// aggregates become a [`Moments`], the contributing slices pool
    /// their [`ord_key`]s into the thread-local scratch, and the one
    /// variance-clamp + percentile-selection site produces the bytes —
    /// the same site the uncached path (`stats::fill_ts_stats`) uses, so
    /// cached and uncached stats are bit-identical by construction.
    pub fn write_stats(&self, out: &mut [f64]) {
        let m = Moments {
            count: self.count,
            sum: self.sum,
            sumsq: self.sumsq,
            min: self.min,
            max: self.max,
        };
        with_scratch(self.count as usize, |buf| {
            for part in &self.parts {
                part.extend_keys(buf);
            }
            finalize_stats(&m, buf, out);
        });
    }
}

/// Accumulate the samples of `window` on `(dataset, device)` into `pool`,
/// through `cache` when given. Buckets fully inside the window fold in as
/// aggregates; the ragged edges are sliced from the bucket's time-ordered
/// samples. The resulting pool is bit-identical with or without a cache.
pub fn accumulate_series(
    cache: Option<&FeatCache>,
    mon: &MonitoringSystem,
    dataset: Dataset,
    device: ComponentId,
    window: (SimTime, SimTime),
    pool: &mut PoolStats,
) {
    if !mon.series_available(dataset, device) {
        return;
    }
    let steps = window_steps(window);
    if steps.is_empty() {
        return;
    }
    let first_bucket = steps.start / CHUNK_STEPS;
    let last_bucket = (steps.end - 1) / CHUNK_STEPS;
    for bucket in first_bucket..=last_bucket {
        let b_start = bucket * CHUNK_STEPS;
        let b_end = b_start + CHUNK_STEPS;
        let lo = steps.start.max(b_start);
        let hi = steps.end.min(b_end);
        let chunk = series_chunk(cache, mon, dataset, device, bucket);
        if lo == b_start && hi == b_end {
            pool.add_chunk(chunk);
        } else {
            pool.add_range(chunk, (lo - b_start) as usize, (hi - b_start) as usize);
        }
    }
}

/// Visit every event of `window` on `(dataset, device)` in time order,
/// through `cache` when given.
pub fn for_each_event(
    cache: Option<&FeatCache>,
    mon: &MonitoringSystem,
    dataset: Dataset,
    device: ComponentId,
    window: (SimTime, SimTime),
    mut f: impl FnMut(&Event),
) {
    let steps = window_steps(window);
    if steps.is_empty() {
        return;
    }
    let step_len = monitoring::SAMPLE_INTERVAL.as_minutes();
    let first_bucket = steps.start / CHUNK_STEPS;
    let last_bucket = (steps.end - 1) / CHUNK_STEPS;
    for bucket in first_bucket..=last_bucket {
        let b_start = bucket * CHUNK_STEPS;
        let b_end = b_start + CHUNK_STEPS;
        let lo = steps.start.max(b_start);
        let hi = steps.end.min(b_end);
        let chunk = event_chunk(cache, mon, dataset, device, bucket);
        let Chunk::Events(e) = &*chunk else { continue };
        if lo == b_start && hi == b_end {
            e.events.iter().for_each(&mut f);
        } else {
            // Events fire only at sampled instants, so a step-range filter
            // is exact.
            for ev in &e.events {
                let s = ev.time.minutes() / step_len;
                if s >= lo && s < hi {
                    f(ev);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{
        ComponentKind, Fault, FaultKind, FaultScope, Severity, SimDuration, Team, Topology,
        TopologyConfig,
    };
    use monitoring::MonitoringConfig;

    fn topo() -> Topology {
        Topology::build(TopologyConfig {
            dcs: 1,
            clusters_per_dc: 1,
            racks_per_cluster: 2,
            servers_per_rack: 2,
            vms_per_server: 1,
            aggs_per_cluster: 1,
            cores_per_dc: 1,
            slbs_per_cluster: 1,
        })
    }

    fn fault(topo: &Topology) -> Fault {
        let tor = topo.by_name("tor-0.c0.dc0").unwrap().id;
        let cluster = topo.by_name("c0.dc0").unwrap().id;
        Fault {
            id: 0,
            kind: FaultKind::TorFailure,
            owner: Team::PhyNet,
            scope: FaultScope::Devices {
                devices: vec![tor],
                cluster,
            },
            start: SimTime::from_hours(100),
            duration: SimDuration::hours(6),
            severity: Severity::Sev2,
            upgrade_related: false,
        }
    }

    fn stats_via(
        cache: Option<&FeatCache>,
        mon: &MonitoringSystem,
        dataset: Dataset,
        device: ComponentId,
        window: (SimTime, SimTime),
    ) -> [f64; 11] {
        let mut pool = PoolStats::new();
        accumulate_series(cache, mon, dataset, device, window, &mut pool);
        let mut out = [0.0; 11];
        pool.write_stats(&mut out);
        out
    }

    #[test]
    fn cached_and_uncached_stats_are_bit_identical() {
        let topo = topo();
        let faults = vec![fault(&topo)];
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let cache = FeatCache::new(1 << 20);
        let tiny = FeatCache::new(1); // evicts everything immediately
        for start_min in [0u64, 3, 5, 599, 6000, 6003] {
            let w = (
                SimTime(start_min),
                SimTime(start_min) + SimDuration::hours(2),
            );
            let plain = stats_via(None, &mon, Dataset::PingStats, srv, w);
            let cold = stats_via(Some(&cache), &mon, Dataset::PingStats, srv, w);
            let warm = stats_via(Some(&cache), &mon, Dataset::PingStats, srv, w);
            let bypass = stats_via(Some(&tiny), &mon, Dataset::PingStats, srv, w);
            assert_eq!(plain, cold, "cold differs at {start_min}");
            assert_eq!(plain, warm, "warm differs at {start_min}");
            assert_eq!(plain, bypass, "bypass differs at {start_min}");
        }
        assert!(cache.stats().hits > 0, "second pass must hit");
    }

    #[test]
    fn pool_merge_matches_flat_computation() {
        // A window spanning ragged edges and full buckets must agree with
        // the flat series pooled directly.
        let topo = topo();
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let w = (SimTime(35), SimTime(35) + SimDuration::hours(3));
        // Temperature is class-tagged, so chunks hold baseline-normalized
        // samples; normalize the flat reference the same way.
        let mut flat = mon.series(Dataset::Temperature, srv, w).unwrap();
        let (b_mean, b_sd) = Dataset::Temperature.baseline();
        for v in &mut flat {
            *v = (*v - b_mean) / b_sd;
        }
        let mut pool = PoolStats::new();
        accumulate_series(None, &mon, Dataset::Temperature, srv, w, &mut pool);
        assert_eq!(pool.count() as usize, flat.len());
        let mut merged_mean = 0.0;
        for &v in &flat {
            merged_mean += v;
        }
        merged_mean /= flat.len() as f64;
        let mut out = [0.0; 11];
        pool.write_stats(&mut out);
        assert!((out[0] - merged_mean).abs() < 1e-9);
        let mut sorted = flat.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(out[2], sorted[0]);
        assert_eq!(out[3], *sorted.last().unwrap());
        // Exact percentiles: selection over the pooled parts must equal
        // interpolation on the flat sort, bit for bit.
        for (slot, q) in [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99]
            .iter()
            .enumerate()
        {
            let rank = (sorted.len() - 1) as f64 * q;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            let frac = rank - lo as f64;
            let expect = sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
            assert_eq!(out[4 + slot], expect, "percentile q={q}");
        }
    }

    #[test]
    fn events_match_window_query() {
        let topo = topo();
        let faults = vec![fault(&topo)];
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let tor = topo.by_name("tor-0.c0.dc0").unwrap().id;
        let cache = FeatCache::new(1 << 20);
        for start_h in [0u64, 99, 100, 103] {
            let w = (
                SimTime::from_hours(start_h),
                SimTime::from_hours(start_h) + SimDuration::hours(2),
            );
            let direct = mon.events(Dataset::SnmpSyslog, tor, w);
            for c in [None, Some(&cache)] {
                let mut seen = Vec::new();
                for_each_event(c, &mon, Dataset::SnmpSyslog, tor, w, |e| seen.push(*e));
                assert_eq!(seen, direct, "mode {:?} start {start_h}", c.is_some());
            }
        }
    }

    #[test]
    fn lru_evicts_oldest_and_counts_bytes() {
        let topo = topo();
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        // Room for roughly two series chunks (12 samples ≈ 96+192 bytes).
        let cache = FeatCache::new(600);
        for bucket in 0..4 {
            let _ = series_chunk(Some(&cache), &mon, Dataset::PingStats, srv, bucket);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 4);
        assert!(s.evictions >= 2, "evictions {}", s.evictions);
        assert!(s.bytes <= 600, "bytes {}", s.bytes);
        // Most-recent bucket is still resident (hit); oldest is not.
        let _ = series_chunk(Some(&cache), &mon, Dataset::PingStats, srv, 3);
        assert_eq!(cache.stats().hits, 1);
        let _ = series_chunk(Some(&cache), &mon, Dataset::PingStats, srv, 0);
        assert_eq!(cache.stats().misses, 5);
    }

    #[test]
    fn publish_mirrors_exactly_what_accrued_since_the_last_publish() {
        // The only test in this binary that publishes, so the global
        // `featcache.*` totals move by this cache's counts alone.
        obs::enable();
        let mirrored = || {
            ["hits", "misses", "evictions"].map(|n| {
                let name = format!("featcache.{n}");
                obs::global().metrics.counter_value(&name).unwrap_or(0)
            })
        };
        let topo = topo();
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let cache = FeatCache::new(600);
        let before = mirrored();
        for bucket in [0, 1, 2, 3, 3, 3] {
            let _ = series_chunk(Some(&cache), &mon, Dataset::PingStats, srv, bucket);
        }
        assert_eq!(mirrored(), before, "lookups never touch the registry");
        let s = cache.stats();
        assert!(s.hits == 2 && s.misses == 4 && s.evictions >= 2, "{s:?}");
        cache.publish();
        let after = mirrored();
        assert_eq!(
            [
                after[0] - before[0],
                after[1] - before[1],
                after[2] - before[2]
            ],
            [s.hits, s.misses, s.evictions]
        );
        let gauge = |n| obs::global().metrics.gauge_value(n);
        assert_eq!(gauge("featcache.bytes"), Some(s.bytes as f64));
        assert_eq!(gauge("featcache.chunks"), Some(s.chunks as f64));
        cache.publish();
        assert_eq!(mirrored(), after, "nothing accrued, nothing added");
    }

    #[test]
    fn capacity_zero_is_pure_passthrough() {
        let topo = topo();
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let cache = FeatCache::new(0);
        for _ in 0..3 {
            let _ = series_chunk(Some(&cache), &mon, Dataset::PingStats, srv, 7);
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.chunks, s.bytes), (0, 3, 0, 0));
    }

    #[test]
    fn different_epochs_do_not_collide() {
        let topo = topo();
        let faults = vec![fault(&topo)];
        let mon_a = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let mon_b = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        assert_ne!(mon_a.epoch(), mon_b.epoch());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let cache = FeatCache::new(1 << 20);
        let w = (SimTime::from_hours(101), SimTime::from_hours(103));
        let a = stats_via(Some(&cache), &mon_a, Dataset::PingStats, srv, w);
        let b = stats_via(Some(&cache), &mon_b, Dataset::PingStats, srv, w);
        // The faulty world shifts the series; a shared cache with epoch
        // keying must not serve stale healthy chunks.
        assert_ne!(a, b);
        assert_eq!(b, stats_via(None, &mon_b, Dataset::PingStats, srv, w));
    }

    #[test]
    fn device_means_pool_via_mean_accessor() {
        let topo = topo();
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let w = (SimTime::from_hours(10), SimTime::from_hours(12));
        for c in topo.components() {
            if c.kind != ComponentKind::Server {
                continue;
            }
            let mut pool = PoolStats::new();
            accumulate_series(None, &mon, Dataset::CpuUsage, c.id, w, &mut pool);
            let mut flat = mon.series(Dataset::CpuUsage, c.id, w).unwrap();
            let (b_mean, b_sd) = Dataset::CpuUsage.baseline();
            for v in &mut flat {
                *v = (*v - b_mean) / b_sd;
            }
            let mut sum = 0.0;
            for &v in &flat {
                sum += v;
            }
            let m = pool.mean().unwrap();
            assert!((m - sum / flat.len() as f64).abs() < 1e-12);
        }
    }
}
