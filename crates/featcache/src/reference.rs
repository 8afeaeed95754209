//! The per-device fold the component-keyed chunks replaced, kept as the
//! oracle the shipped fold is compared against: one chunk per
//! `(dataset, device, bucket)`, built fresh, walked by the featurizer's
//! old loop over `covered_devices`. Test-only — the library has one chunk
//! kind.

use cloudsim::{ComponentId, SimTime};
use monitoring::{window_steps, Dataset, Event, MonitoringSystem};

use crate::stats::{finalize_stats, ord_key, Moments};
use crate::CHUNK_STEPS;

/// One hour of one `(dataset, device)`.
struct DeviceChunk {
    samples: Vec<f64>,
    sorted_keys: Vec<u64>,
    m: Moments,
}

fn device_chunk(
    mon: &MonitoringSystem,
    dataset: Dataset,
    device: ComponentId,
    bucket: u64,
) -> DeviceChunk {
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
    DeviceChunk {
        samples,
        sorted_keys,
        m,
    }
}

/// A pool as the per-device path kept it: merged aggregates and every
/// contributing key.
#[derive(Default)]
pub(crate) struct Pool {
    pub(crate) m: Moments,
    keys: Vec<u64>,
}

impl Pool {
    fn add_chunk(&mut self, c: &DeviceChunk) {
        if c.samples.is_empty() {
            return;
        }
        self.m.count += c.samples.len() as u64;
        self.m.sum += c.m.sum;
        self.m.sumsq += c.m.sumsq;
        self.m.min = self.m.min.min(c.m.min);
        self.m.max = self.m.max.max(c.m.max);
        self.keys.extend_from_slice(&c.sorted_keys);
    }

    fn add_range(&mut self, c: &DeviceChunk, lo: usize, hi: usize) {
        let samples = &c.samples[lo..hi];
        if samples.is_empty() {
            return;
        }
        self.m.count += samples.len() as u64;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for &v in samples {
            sum += v;
            sumsq += v * v;
            self.m.min = self.m.min.min(v);
            self.m.max = self.m.max.max(v);
        }
        self.m.sum += sum;
        self.m.sumsq += sumsq;
        self.keys.extend(samples.iter().map(|&v| ord_key(v)));
    }

    /// The 11 §5.2.1 statistics of the pool.
    pub(crate) fn stats(&self) -> [f64; 11] {
        let mut keys = self.keys.clone();
        let mut out = [0.0; 11];
        finalize_stats(&self.m, &mut keys, &mut out);
        out
    }
}

/// The aligned buckets `window` touches, each with the absolute steps
/// `lo..hi` it covers.
fn buckets(window: (SimTime, SimTime)) -> Vec<(u64, u64, u64)> {
    let steps = window_steps(window);
    if steps.is_empty() {
        return Vec::new();
    }
    (steps.start / CHUNK_STEPS..=(steps.end - 1) / CHUNK_STEPS)
        .map(|bucket| {
            let b_start = bucket * CHUNK_STEPS;
            (
                bucket,
                steps.start.max(b_start),
                steps.end.min(b_start + CHUNK_STEPS),
            )
        })
        .collect()
}

/// The per-device `accumulate_series`.
fn accumulate_device(
    mon: &MonitoringSystem,
    dataset: Dataset,
    device: ComponentId,
    window: (SimTime, SimTime),
    pool: &mut Pool,
) {
    if !mon.series_available(dataset, device) {
        return;
    }
    for (bucket, lo, hi) in buckets(window) {
        let b_start = bucket * CHUNK_STEPS;
        let chunk = device_chunk(mon, dataset, device, bucket);
        if lo == b_start && hi == b_start + CHUNK_STEPS {
            pool.add_chunk(&chunk);
        } else {
            pool.add_range(&chunk, (lo - b_start) as usize, (hi - b_start) as usize);
        }
    }
}

/// A `PooledSamples` feature block: every device each mention covers,
/// one after another, into one pool.
pub(crate) fn pooled(
    mon: &MonitoringSystem,
    dataset: Dataset,
    mentioned: &[ComponentId],
    window: (SimTime, SimTime),
) -> Pool {
    let mut pool = Pool::default();
    for &c in mentioned {
        for device in mon.covered_devices(dataset, c) {
            accumulate_device(mon, dataset, device, window, &mut pool);
        }
    }
    pool
}

/// A `DeviceMeans` feature block's inputs: each covered device's mean.
pub(crate) fn device_means(
    mon: &MonitoringSystem,
    dataset: Dataset,
    mentioned: &[ComponentId],
    window: (SimTime, SimTime),
) -> Vec<f64> {
    let mut means = Vec::new();
    for &c in mentioned {
        for device in mon.covered_devices(dataset, c) {
            let mut pool = Pool::default();
            accumulate_device(mon, dataset, device, window, &mut pool);
            if pool.m.count > 0 {
                means.push(pool.m.sum / pool.m.count as f64);
            }
        }
    }
    means
}

/// An event block's walk: every covered device's events, bucket by
/// bucket.
pub(crate) fn events(
    mon: &MonitoringSystem,
    dataset: Dataset,
    mentioned: &[ComponentId],
    window: (SimTime, SimTime),
) -> Vec<Event> {
    let step_len = monitoring::SAMPLE_INTERVAL.as_minutes();
    let mut out = Vec::new();
    for &c in mentioned {
        for device in mon.covered_devices(dataset, c) {
            for (bucket, lo, hi) in buckets(window) {
                let b_start = bucket * CHUNK_STEPS;
                for ev in mon.events_steps(dataset, device, b_start..b_start + CHUNK_STEPS) {
                    let s = ev.time.minutes() / step_len;
                    if s >= lo && s < hi {
                        out.push(ev);
                    }
                }
            }
        }
    }
    out
}
