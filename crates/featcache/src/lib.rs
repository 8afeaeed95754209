//! `featcache` — the windowed feature-aggregate cache.
//!
//! The paper's feature construction (§5.2.1) aggregates telemetry over the
//! look-back window `[t−T, t]`; consecutive incidents on the same devices
//! share almost all of that window, yet the serving layer used to replay
//! window generation, sorting, and 11 statistics from scratch on every
//! `predict`. This crate memoizes the expensive part: telemetry is carved
//! into immutable per-`(epoch, dataset, mentioned component, aligned
//! time-bucket)` **chunks**. A chunk holds the hour of every device the
//! component covers ([`MonitoringSystem::covered_devices`] — a cluster
//! mention is "all data with the same cluster tag"), in that order, in one
//! allocation: per device its samples, the same samples *sorted*, and
//! `sum / sum-of-squares / min / max` side by side, so merged percentiles
//! stay exact rather than sketched. Chunks live behind a bounded,
//! byte-budgeted LRU that admits a chunk on its second miss, so a burst of
//! never-seen incidents does not flush it. A featurization makes one
//! lookup per (feature block, mentioned component, bucket) — a few dozen
//! per incident — however many devices those components cover.
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
//! window, never on cache state, and the fold is device-major — each
//! covered device in order, and within it each bucket in order — so the
//! floating-point operation order is the same in every mode, and the same
//! as folding one device at a time (a differential test against that
//! per-device fold, kept as `reference`, enforces it).
//!
//! Percentiles cannot be merged from aggregates, so [`PoolStats`] keeps the
//! contributing chunks and pulls the quantile ranks out of their pooled
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
//! Hits, misses, evictions and deferred admissions are counted in atomics
//! on the cache ([`FeatCache::stats`]). The `obs` mirror is batched:
//! [`FeatCache::publish`] adds what accrued since the last publish to the
//! `featcache.*` metrics, outside the cache lock — the featurizer calls
//! it once per feature vector, not once per chunk.

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cloudsim::{ComponentId, SimTime};
use monitoring::{window_steps, DataType, Dataset, Event, MonitoringSystem};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;
pub mod stats;

use stats::{finalize_stats, ord_key, with_scratch, Moments};

/// Samples per chunk: 12 steps × 5-minute [`monitoring::SAMPLE_INTERVAL`]
/// = one hour. A two-hour look-back window spans at most three buckets,
/// all but the two ragged edges full, so a mention's merge is a handful
/// of aggregate folds plus two short slices per covered device.
pub const CHUNK_STEPS: u64 = 12;

const STEPS: usize = CHUNK_STEPS as usize;

/// Cache key: every field that can change a chunk's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ChunkKey {
    /// Monitoring-plane fingerprint (seed + topology + faults + config).
    epoch: u64,
    /// `Dataset::index()`.
    dataset: usize,
    /// The mentioned component; the chunk covers every device under it.
    component: u64,
    /// Aligned bucket: covers steps `[bucket·CHUNK_STEPS, (bucket+1)·CHUNK_STEPS)`.
    bucket: u64,
}

/// One device's hour inside a series chunk: the aggregates, then the
/// samples and their sorted keys inline, so a fold reads one contiguous
/// record per device.
#[derive(Debug, Clone, Copy)]
struct DeviceHour {
    /// Sequential sum over `samples` in time order.
    sum: f64,
    /// Sequential sum of squares over `samples` in time order.
    sumsq: f64,
    /// Minimum sample.
    min: f64,
    /// Maximum sample.
    max: f64,
    /// Time-ordered samples (baseline-normalized for class-tagged data
    /// sets, matching the featurizer's pooling convention).
    samples: [f64; STEPS],
    /// The same samples as order-preserving u64 keys ([`ord_key`]), sorted
    /// ascending — i.e. the `total_cmp` sort, pre-transformed so pooled
    /// percentile selection works on plain integers.
    sorted_keys: [u64; STEPS],
}

impl DeviceHour {
    fn of(samples: &[f64]) -> DeviceHour {
        let m = Moments::of(samples);
        let mut hour = DeviceHour {
            sum: m.sum,
            sumsq: m.sumsq,
            min: m.min,
            max: m.max,
            samples: [0.0; STEPS],
            sorted_keys: [0; STEPS],
        };
        hour.samples.copy_from_slice(samples);
        for (key, &v) in hour.sorted_keys.iter_mut().zip(samples) {
            *key = ord_key(v);
        }
        hour.sorted_keys.sort_unstable();
        hour
    }
}

/// One hour of one mentioned component, immutable once built. Device `i`
/// is the `i`-th device `covered_devices` returns that has data.
#[derive(Debug)]
enum Chunk {
    /// A time-series data set: one record per device.
    Series(Box<[DeviceHour]>),
    /// An event data set: every device's events in time order, devices
    /// concatenated; device `i`'s end at `ends[i]`.
    Events {
        events: Box<[Event]>,
        ends: Box<[usize]>,
    },
}

impl Chunk {
    /// Build `component`'s chunk for `bucket` — the *only* code path that
    /// turns raw telemetry into pooled samples, shared by cached and
    /// uncached featurization, and the only place featurization resolves
    /// `covered_devices`. Class-tagged data sets are normalized to their
    /// healthy baseline here so chunks mix safely across hardware
    /// generations.
    fn build(
        mon: &MonitoringSystem,
        dataset: Dataset,
        component: ComponentId,
        bucket: u64,
    ) -> Chunk {
        let steps = bucket * CHUNK_STEPS..(bucket + 1) * CHUNK_STEPS;
        let devices = mon.covered_devices(dataset, component);
        match dataset.data_type() {
            DataType::TimeSeries => {
                let baseline = dataset.class_tag().map(|_| {
                    let (mean, sd) = dataset.baseline();
                    (mean, if sd > 0.0 { sd } else { 1.0 })
                });
                let hours = devices
                    .into_iter()
                    .filter_map(|device| mon.series_steps(dataset, device, steps.clone()))
                    .map(|mut samples| {
                        if let Some((mean, sd)) = baseline {
                            for v in &mut samples {
                                *v = (*v - mean) / sd;
                            }
                        }
                        DeviceHour::of(&samples)
                    })
                    .collect();
                Chunk::Series(hours)
            }
            DataType::Event => {
                let mut events = Vec::new();
                let mut ends = Vec::with_capacity(devices.len());
                for device in devices {
                    events.extend(mon.events_steps(dataset, device, steps.clone()));
                    ends.push(events.len());
                }
                Chunk::Events {
                    events: events.into(),
                    ends: ends.into(),
                }
            }
        }
    }

    /// Devices in the chunk.
    fn devices(&self) -> usize {
        match self {
            Chunk::Series(hours) => hours.len(),
            Chunk::Events { ends, .. } => ends.len(),
        }
    }

    fn hours(&self) -> &[DeviceHour] {
        match self {
            Chunk::Series(hours) => hours,
            Chunk::Events { .. } => &[],
        }
    }

    /// Device `i`'s events, in time order.
    fn device_events(&self, i: usize) -> &[Event] {
        match self {
            Chunk::Events { events, ends } => {
                &events[if i == 0 { 0 } else { ends[i - 1] }..ends[i]]
            }
            Chunk::Series(_) => &[],
        }
    }

    /// Approximate heap footprint, for the byte budget: every device's
    /// inline record counts, so a DC-wide chunk weighs what it holds.
    fn bytes(&self) -> usize {
        const OVERHEAD: usize = 96; // key + Arc + LRU bookkeeping
        OVERHEAD
            + match self {
                Chunk::Series(hours) => std::mem::size_of_val::<[DeviceHour]>(hours),
                Chunk::Events { events, ends } => {
                    std::mem::size_of_val::<[Event]>(events)
                        + std::mem::size_of_val::<[usize]>(ends)
                }
            }
    }
}

#[derive(Debug)]
struct Entry {
    chunk: Arc<Chunk>,
    /// Stamp of this entry's *latest* queue slot; older slots are stale.
    stamp: u64,
    bytes: usize,
}

/// `ChunkKey` lookups are the per-predict hot path (a few dozen per
/// call), where SipHash's setup cost dominates the probe. The key is four
/// plain words, so a multiply-xor mixer (splitmix64's finalizer) gives
/// full avalanche at a fraction of the cost.
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

type KeyBuildHasher = std::hash::BuildHasherDefault<KeyHasher>;
type KeyMap = HashMap<ChunkKey, Entry, KeyBuildHasher>;

/// TinyLFU's doorkeeper (Einziger et al., "TinyLFU: A Highly Efficient
/// Cache Admission Policy"): a Bloom bit set of the keys that missed since
/// the last clear. A chunk is admitted on its second miss, so a flood of
/// one-shot chunks is built, used and dropped without evicting anything.
///
/// A key sets two bits taken from its [`KeyHasher`] fingerprint and counts
/// as seen when both are set. Bits are only ever set between clears, so a
/// key recorded since the last clear always reads as seen: the one error
/// is a false "seen", which admits a one-shot chunk. A direct-mapped table
/// of fingerprints would err the other way — two keys sharing a slot
/// overwrite each other and neither is ever admitted.
#[derive(Debug, Default)]
struct Doorkeeper {
    words: Vec<u64>,
    /// Keys recorded since the last clear.
    records: usize,
}

impl Doorkeeper {
    /// One bit per 64 budget bytes, rounded up to a power of two, at least
    /// 4096. Cleared every `bits / 8` records, the set remembers about
    /// `capacity / 512` first misses: over half as many keys as the budget
    /// holds of the smallest (one-device, 320-byte) chunks.
    fn for_budget(capacity_bytes: usize) -> Doorkeeper {
        let bits = (capacity_bytes / 64).next_power_of_two().max(4096);
        Doorkeeper {
            words: vec![0; bits / 64],
            records: 0,
        }
    }

    fn bit_positions(&self, key: &ChunkKey) -> [usize; 2] {
        let fingerprint = KeyBuildHasher::default().hash_one(key);
        let mask = self.words.len() * 64 - 1;
        [
            fingerprint as usize & mask,
            (fingerprint >> 32) as usize & mask,
        ]
    }

    /// Has `key` been recorded since the last clear? If not, record it.
    /// Clearing after `bits / 8` records forgets keys that never came back
    /// and caps the load at ~22% of the bits, so a false "seen" stays
    /// under ~5%.
    fn seen_or_record(&mut self, key: &ChunkKey) -> bool {
        let positions = self.bit_positions(key);
        let is_set = |p: usize| self.words[p / 64] >> (p % 64) & 1 == 1;
        if positions.into_iter().all(is_set) {
            return true;
        }
        if self.records == self.words.len() * 64 / 8 {
            self.words.fill(0);
            self.records = 0;
        }
        for p in positions {
            self.words[p / 64] |= 1 << (p % 64);
        }
        self.records += 1;
        false
    }
}

/// Lazy-deletion LRU: touches push a fresh `(key, stamp)` slot instead of
/// splicing a linked list; eviction pops slots and skips the stale ones.
/// Amortized O(1) per touch, compacted when the queue outgrows the map.
#[derive(Debug, Default)]
struct Lru {
    map: KeyMap,
    queue: VecDeque<(ChunkKey, u64)>,
    next_stamp: u64,
    bytes: usize,
    doorkeeper: Doorkeeper,
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
    deferred: AtomicU64,
    /// How much of the four counters above `obs` has already seen.
    published: [AtomicU64; 4],
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
    /// Chunks built on their first miss since the doorkeeper last cleared,
    /// and returned without being kept.
    pub deferred: u64,
    /// Bytes currently held.
    pub bytes: usize,
    /// Chunks currently held.
    pub chunks: usize,
}

impl FeatCache {
    /// A cache holding at most `capacity_bytes` of chunk data.
    pub fn new(capacity_bytes: usize) -> FeatCache {
        FeatCache {
            inner: Mutex::new(Lru {
                doorkeeper: Doorkeeper::for_budget(capacity_bytes),
                ..Lru::default()
            }),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
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
            deferred: self.deferred.load(Ordering::Relaxed),
            bytes: inner.bytes,
            chunks: inner.map.len(),
        }
    }

    /// Mirror the counters into the `obs` registry: what accrued since
    /// the last publish is added to `featcache.hits` / `.misses` /
    /// `.evictions` / `.deferred`, and after a miss (the only event that
    /// changes residency) the `featcache.bytes` / `.chunks` gauges are
    /// refreshed.
    /// Lookups themselves never touch the registry — its global mutex
    /// would otherwise be taken once per chunk, under this cache's lock.
    /// Racing publishers split the delta between them; the totals equal
    /// the per-event mirror's.
    pub fn publish(&self) {
        let unpublished = |counter: &AtomicU64, seen: &AtomicU64| {
            let now = counter.load(Ordering::Relaxed);
            now.saturating_sub(seen.fetch_max(now, Ordering::Relaxed))
        };
        let [seen_hits, seen_misses, seen_evictions, seen_deferred] = &self.published;
        let hits = unpublished(&self.hits, seen_hits);
        let misses = unpublished(&self.misses, seen_misses);
        let evictions = unpublished(&self.evictions, seen_evictions);
        let deferred = unpublished(&self.deferred, seen_deferred);
        if hits > 0 {
            obs::counter("featcache.hits").add(hits);
        }
        if evictions > 0 {
            obs::counter("featcache.evictions").add(evictions);
        }
        if deferred > 0 {
            obs::counter("featcache.deferred").add(deferred);
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
    /// identical bytes. A chunk is kept only on its second miss (see
    /// [`Doorkeeper`]); on its first it is returned and dropped with its
    /// last user. A chunk larger than the whole budget is returned but
    /// never kept: inserting it would only evict everything else first.
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
        let bytes = chunk.bytes();
        if bytes > self.capacity_bytes {
            return chunk;
        }
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.map.get(&key) {
            // Lost the build race; keep the incumbent.
            let incumbent = Arc::clone(&e.chunk);
            inner.touch(key);
            return incumbent;
        }
        if !inner.doorkeeper.seen_or_record(&key) {
            self.deferred.fetch_add(1, Ordering::Relaxed);
            return chunk;
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

/// `component`'s chunk of `dataset` for `bucket`, through `cache` when
/// given. Event and series chunks never collide: a dataset is one or the
/// other, and `dataset` is part of the key.
fn chunk(
    cache: Option<&FeatCache>,
    mon: &MonitoringSystem,
    dataset: Dataset,
    component: ComponentId,
    bucket: u64,
) -> Arc<Chunk> {
    let build = || Chunk::build(mon, dataset, component, bucket);
    match cache {
        Some(c) => c.get_or_build(
            ChunkKey {
                epoch: mon.epoch(),
                dataset: dataset.index(),
                component: u64::from(component.0),
                bucket,
            },
            build,
        ),
        None => Arc::new(build()),
    }
}

/// One bucket of a window: the chunk and the in-bucket steps `lo..hi`
/// the window covers. A pool keeps its parts for percentile finalization
/// — whole buckets' pre-sorted keys memcpy straight into the selection
/// buffer, ragged edges go through [`ord_key`] — borrowing the chunk via
/// `Arc`, with no per-device allocation on the hot path.
#[derive(Debug)]
struct Part {
    chunk: Arc<Chunk>,
    lo: usize,
    hi: usize,
}

impl Part {
    fn whole(&self) -> bool {
        self.lo == 0 && self.hi == STEPS
    }

    fn extend_keys(&self, buf: &mut Vec<u64>) {
        for hour in self.chunk.hours() {
            if self.whole() {
                buf.extend_from_slice(&hour.sorted_keys);
            } else {
                buf.extend(hour.samples[self.lo..self.hi].iter().map(|&v| ord_key(v)));
            }
        }
    }
}

/// One [`Part`] per aligned bucket `window` touches, in time order.
fn parts<'m>(
    cache: Option<&'m FeatCache>,
    mon: &'m MonitoringSystem<'m>,
    dataset: Dataset,
    component: ComponentId,
    window: (SimTime, SimTime),
) -> impl Iterator<Item = Part> + 'm {
    let steps = window_steps(window);
    let buckets = if steps.is_empty() {
        0..0
    } else {
        steps.start / CHUNK_STEPS..(steps.end - 1) / CHUNK_STEPS + 1
    };
    buckets.map(move |bucket| {
        let b_start = bucket * CHUNK_STEPS;
        Part {
            chunk: chunk(cache, mon, dataset, component, bucket),
            lo: (steps.start.max(b_start) - b_start) as usize,
            hi: (steps.end.min(b_start + CHUNK_STEPS) - b_start) as usize,
        }
    })
}

/// Devices in a window's parts (every bucket of a component covers the
/// same devices).
fn devices(parts: &[Part]) -> usize {
    parts.first().map_or(0, |p| p.chunk.devices())
}

/// Can `dataset` hold series data on this plane at all?
fn series_enabled(mon: &MonitoringSystem, dataset: Dataset) -> bool {
    mon.is_enabled(dataset) && dataset.data_type() == DataType::TimeSeries
}

/// Fold device `i` of each part into `m`, bucket after bucket: whole
/// buckets as their aggregates, ragged edges sample by sample. Callers
/// go device by device, so the sums see exactly the operation order of
/// folding one device's window at a time.
fn fold_device(m: &mut Moments, parts: &[Part], i: usize) {
    for part in parts {
        let hour = &part.chunk.hours()[i];
        if part.whole() {
            m.count += CHUNK_STEPS;
            m.sum += hour.sum;
            m.sumsq += hour.sumsq;
            m.min = m.min.min(hour.min);
            m.max = m.max.max(hour.max);
        } else {
            let samples = &hour.samples[part.lo..part.hi];
            m.count += samples.len() as u64;
            let mut sum = 0.0;
            let mut sumsq = 0.0;
            for &v in samples {
                sum += v;
                sumsq += v * v;
                m.min = m.min.min(v);
                m.max = m.max.max(v);
            }
            m.sum += sum;
            m.sumsq += sumsq;
        }
    }
}

/// Mergeable pool statistics: the cache-aware replacement for collecting
/// every raw sample and re-sorting. Mean/std/min/max merge from chunk
/// aggregates; percentiles merge the contributing chunks at finalization,
/// so they are *exact* over the pooled multiset.
#[derive(Debug)]
pub struct PoolStats {
    m: Moments,
    parts: Vec<Part>,
}

impl Default for PoolStats {
    fn default() -> PoolStats {
        PoolStats::new()
    }
}

impl PoolStats {
    /// An empty pool.
    pub fn new() -> PoolStats {
        PoolStats {
            m: Moments::default(),
            parts: Vec::new(),
        }
    }

    /// Samples accumulated so far.
    pub fn count(&self) -> u64 {
        self.m.count
    }

    /// Pool mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.m.count > 0).then(|| self.m.sum / self.m.count as f64)
    }

    /// Write the 11 §5.2.1 statistics (mean, std, min, max,
    /// p1/10/25/50/75/90/99) into `out`. Zeros when the pool is empty.
    ///
    /// Finalization goes through the shared fused kernel
    /// ([`stats::finalize_stats`]): the merged `sum`/`sumsq`/`min`/`max`
    /// aggregates are a [`Moments`], the contributing chunks pool their
    /// [`ord_key`]s into the thread-local scratch, and the one
    /// variance-clamp + percentile-selection site produces the bytes —
    /// the same site the uncached path (`stats::fill_ts_stats`) uses, so
    /// cached and uncached stats are bit-identical by construction.
    pub fn write_stats(&self, out: &mut [f64]) {
        with_scratch(self.m.count as usize, |buf| {
            for part in &self.parts {
                part.extend_keys(buf);
            }
            finalize_stats(&self.m, buf, out);
        });
    }
}

/// Accumulate the samples of `window` on every device `component` covers
/// for `dataset` (a covered device covers just itself) into `pool`,
/// through `cache` when given: one chunk lookup per bucket, then each
/// device in `covered_devices` order. Buckets fully inside the window fold
/// in as aggregates; the ragged edges are sliced from the bucket's
/// time-ordered samples. The resulting pool is bit-identical with or
/// without a cache.
pub fn accumulate_series(
    cache: Option<&FeatCache>,
    mon: &MonitoringSystem,
    dataset: Dataset,
    component: ComponentId,
    window: (SimTime, SimTime),
    pool: &mut PoolStats,
) {
    if !series_enabled(mon, dataset) {
        return;
    }
    let first = pool.parts.len();
    pool.parts
        .extend(parts(cache, mon, dataset, component, window));
    let parts = &pool.parts[first..];
    for i in 0..devices(parts) {
        fold_device(&mut pool.m, parts, i);
    }
}

/// The `DeviceMeans` ablation's reduction: append the window mean of
/// every device `component` covers for `dataset`, in `covered_devices`
/// order, to `means` — the mean [`accumulate_series`] gives for that
/// device alone.
pub fn device_means(
    cache: Option<&FeatCache>,
    mon: &MonitoringSystem,
    dataset: Dataset,
    component: ComponentId,
    window: (SimTime, SimTime),
    means: &mut Vec<f64>,
) {
    if !series_enabled(mon, dataset) {
        return;
    }
    let parts: Vec<Part> = parts(cache, mon, dataset, component, window).collect();
    for i in 0..devices(&parts) {
        let mut device = PoolStats::new();
        fold_device(&mut device.m, &parts, i);
        means.extend(device.mean());
    }
}

/// Visit every event of `window` on every device `component` covers for
/// `dataset`, device by device in `covered_devices` order and each
/// device's in time order, through `cache` when given.
pub fn for_each_event(
    cache: Option<&FeatCache>,
    mon: &MonitoringSystem,
    dataset: Dataset,
    component: ComponentId,
    window: (SimTime, SimTime),
    mut f: impl FnMut(&Event),
) {
    let step_len = monitoring::SAMPLE_INTERVAL.as_minutes();
    let parts: Vec<Part> = parts(cache, mon, dataset, component, window).collect();
    for i in 0..devices(&parts) {
        for part in &parts {
            let events = part.chunk.device_events(i);
            if part.whole() {
                events.iter().for_each(&mut f);
            } else {
                // Events fire only at sampled instants, so a step-range
                // filter is exact.
                for ev in events {
                    let s = (ev.time.minutes() / step_len % CHUNK_STEPS) as usize;
                    if (part.lo..part.hi).contains(&s) {
                        f(ev);
                    }
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
        let tiny = FeatCache::new(1); // keeps nothing
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
        // Room for one one-device series chunk but not two: 96 bytes of
        // bookkeeping + one `DeviceHour` (4 aggregates, 12 samples and 12
        // keys inline: 224 bytes) = 320.
        let cache = FeatCache::new(600);
        // Each bucket twice: deferred on its first miss, kept on its second.
        for bucket in [0, 0, 1, 1, 2, 2, 3, 3] {
            let _ = chunk(Some(&cache), &mon, Dataset::PingStats, srv, bucket);
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.deferred), (8, 4));
        assert!(s.evictions >= 2, "evictions {}", s.evictions);
        assert!(s.bytes <= 600, "bytes {}", s.bytes);
        // Most-recent bucket is still resident (hit); oldest is not.
        let _ = chunk(Some(&cache), &mon, Dataset::PingStats, srv, 3);
        assert_eq!(cache.stats().hits, 1);
        let _ = chunk(Some(&cache), &mon, Dataset::PingStats, srv, 0);
        assert_eq!(cache.stats().misses, 9);
    }

    #[test]
    fn a_chunk_weighs_every_device_it_covers() {
        let topo = topo();
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let dc = topo.by_name("dc0").unwrap().id;
        let cache = FeatCache::new(1 << 20);
        let group = chunk(Some(&cache), &mon, Dataset::PingStats, dc, 0);
        assert_eq!(cache.stats().bytes, 0, "a first miss is not kept");
        let group_again = chunk(Some(&cache), &mon, Dataset::PingStats, dc, 0);
        assert!(
            !Arc::ptr_eq(&group, &group_again),
            "rebuilt on the second miss"
        );
        assert_eq!(group.devices(), 4, "the DC's four servers");
        assert_eq!(std::mem::size_of::<DeviceHour>(), 4 * 8 + 12 * 16);
        assert_eq!(
            cache.stats().bytes,
            96 + 4 * std::mem::size_of::<DeviceHour>()
        );
    }

    #[test]
    fn a_cold_flood_of_dc_mentions_stays_within_budget() {
        let topo = topo();
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let dc = topo.by_name("dc0").unwrap().id;
        // Room for two of the DC's chunks at most (992 bytes for
        // ping-statistics' 4 servers, 1888 for cpu-usage's 8 devices).
        let budget = 2500;
        let cache = FeatCache::new(budget);
        for hour in 0..48u64 {
            let w = (
                SimTime::from_hours(hour) + SimDuration(7),
                SimTime::from_hours(hour + 2) + SimDuration(7),
            );
            let mut pool = PoolStats::new();
            accumulate_series(Some(&cache), &mon, Dataset::PingStats, dc, w, &mut pool);
            assert!(cache.stats().bytes <= budget, "{:?}", cache.stats());
            accumulate_series(Some(&cache), &mon, Dataset::CpuUsage, dc, w, &mut pool);
            assert!(cache.stats().bytes <= budget, "{:?}", cache.stats());
            for_each_event(Some(&cache), &mon, Dataset::SnmpSyslog, dc, w, |_| {});
            assert!(cache.stats().bytes <= budget, "{:?}", cache.stats());
        }
        let s = cache.stats();
        assert!(s.evictions > 0 && s.chunks > 0, "{s:?}");
    }

    #[test]
    fn a_chunk_larger_than_the_budget_is_returned_but_not_kept() {
        let topo = topo();
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let dc = topo.by_name("dc0").unwrap().id;
        // A one-device chunk (320 bytes) fits; the DC's four (992) do not.
        let cache = FeatCache::new(600);
        for _ in 0..2 {
            let _ = chunk(Some(&cache), &mon, Dataset::PingStats, srv, 5);
        }
        // Oversized, it is never kept: not on its first miss, nor its second.
        let _ = chunk(Some(&cache), &mon, Dataset::PingStats, dc, 5);
        let big = chunk(Some(&cache), &mon, Dataset::PingStats, dc, 5);
        let fresh = chunk(None, &mon, Dataset::PingStats, dc, 5);
        assert_eq!(big.devices(), 4);
        for (a, b) in big.hours().iter().zip(fresh.hours()) {
            assert_eq!(a.samples.map(f64::to_bits), b.samples.map(f64::to_bits));
        }
        let s = cache.stats();
        assert_eq!(
            (s.misses, s.deferred, s.evictions, s.chunks),
            (4, 1, 0, 1),
            "{s:?}"
        );
        assert!(s.bytes <= 600, "bytes {}", s.bytes);
        // The resident chunk survived the oversized one.
        let _ = chunk(Some(&cache), &mon, Dataset::PingStats, srv, 5);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn publish_mirrors_exactly_what_accrued_since_the_last_publish() {
        // The only test in this binary that publishes, so the global
        // `featcache.*` totals move by this cache's counts alone.
        obs::enable();
        let mirrored = || {
            ["hits", "misses", "evictions", "deferred"].map(|n| {
                let name = format!("featcache.{n}");
                obs::global().metrics.counter_value(&name).unwrap_or(0)
            })
        };
        let topo = topo();
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let cache = FeatCache::new(600);
        let before = mirrored();
        // Each bucket twice (deferred, then kept), then two hits.
        for bucket in [0, 0, 1, 1, 2, 2, 3, 3, 3, 3] {
            let _ = chunk(Some(&cache), &mon, Dataset::PingStats, srv, bucket);
        }
        assert_eq!(mirrored(), before, "lookups never touch the registry");
        let s = cache.stats();
        assert!(
            s.hits == 2 && s.misses == 8 && s.deferred == 4 && s.evictions >= 2,
            "{s:?}"
        );
        cache.publish();
        let after = mirrored();
        assert_eq!(
            [0, 1, 2, 3].map(|i| after[i] - before[i]),
            [s.hits, s.misses, s.evictions, s.deferred]
        );
        let gauge = |n| obs::global().metrics.gauge_value(n);
        assert_eq!(gauge("featcache.bytes"), Some(s.bytes as f64));
        assert_eq!(gauge("featcache.chunks"), Some(s.chunks as f64));
        cache.publish();
        assert_eq!(mirrored(), after, "nothing accrued, nothing added");
    }

    /// Warm-set hits over rounds `2..=ROUNDS` of a cache whose warm set —
    /// about half the budget — is looked up every round, with (when
    /// `flood`) a seeded flood of never-repeated chunks totalling more
    /// than the budget between rounds.
    fn warm_hit_ratio(flood: bool) -> f64 {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const ROUNDS: u64 = 10;
        let topo = topo();
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let servers: Vec<ComponentId> = topo
            .components()
            .filter(|c| c.kind == ComponentKind::Server)
            .map(|c| c.id)
            .collect();
        // Room for 64 one-device chunks (320 bytes each); the warm set is
        // 32 of them.
        let budget = 64 * 320;
        let cache = FeatCache::new(budget);
        let warm: Vec<(ComponentId, u64)> = servers
            .iter()
            .flat_map(|&srv| (0..8).map(move |bucket| (srv, bucket)))
            .collect();
        let mut rng = SmallRng::seed_from_u64(43);
        let mut next_cold_bucket = 1000;
        let (mut hits, mut lookups) = (0, 0);
        for round in 1..=ROUNDS {
            let before = cache.stats().hits;
            for &(srv, bucket) in &warm {
                let _ = chunk(Some(&cache), &mon, Dataset::PingStats, srv, bucket);
            }
            if round >= 2 {
                hits += cache.stats().hits - before;
                lookups += warm.len() as u64;
            }
            let mut round_bytes = 0;
            while flood && round_bytes <= budget {
                let srv = servers[rng.gen_range(0..servers.len())];
                next_cold_bucket += rng.gen_range(1..4u64);
                let cold = chunk(
                    Some(&cache),
                    &mon,
                    Dataset::PingStats,
                    srv,
                    next_cold_bucket,
                );
                round_bytes += cold.bytes();
            }
        }
        hits as f64 / lookups as f64
    }

    #[test]
    fn a_warm_working_set_survives_a_cold_flood() {
        let quiet = warm_hit_ratio(false);
        let flooded = warm_hit_ratio(true);
        assert!(
            flooded >= 0.9 * quiet,
            "warm hit ratio {flooded:.3} under a flood against {quiet:.3} without"
        );
    }

    #[test]
    fn capacity_zero_is_pure_passthrough() {
        let topo = topo();
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let cache = FeatCache::new(0);
        for _ in 0..3 {
            let _ = chunk(Some(&cache), &mon, Dataset::PingStats, srv, 7);
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
            let mut means = Vec::new();
            device_means(None, &mon, Dataset::CpuUsage, c.id, w, &mut means);
            assert_eq!(means, vec![m]);
        }
    }
}
