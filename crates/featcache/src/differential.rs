//! The component-keyed chunks against the per-device fold they replaced
//! ([`crate::reference`]), bit for bit: the pooled aggregates and
//! statistics, the per-device means, and the event sequence, over seeded
//! cases crossing every axis the fold could depend on — the kind of
//! component mentioned (a VM covers nothing most data sets read, a DC
//! covers every device of the kinds they do), series and event data sets
//! (class-tagged ones included, and a deprecated one), windows with
//! ragged edges at both ends spanning three and four buckets, cache
//! capacities {0, 1, large} cold and warm, and both aggregations.
//!
//! These live in the library's unit tests, not in `tests/`, because the
//! reference is `#[cfg(test)]` and an integration test links the library
//! built without it.

use cloudsim::{
    ComponentId, ComponentKind, Fault, FaultKind, FaultScope, Severity, SimDuration, SimTime, Team,
    Topology, TopologyConfig,
};
use monitoring::{window_steps, DataType, Dataset, MonitoringConfig, MonitoringSystem};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

use crate::stats::Moments;
use crate::{
    accumulate_series, device_means, for_each_event, reference, FeatCache, PoolStats, CHUNK_STEPS,
};

const CASES: u32 = 1000;

/// The component kinds an incident names, leaf to root.
const KINDS: [ComponentKind; 6] = [
    ComponentKind::Vm,
    ComponentKind::Server,
    ComponentKind::TorSwitch,
    ComponentKind::AggSwitch,
    ComponentKind::Cluster,
    ComponentKind::Dc,
];

/// Pass-through, keeps nothing, keeps everything.
const CAPACITIES: [usize; 3] = [0, 1, 64 << 20];

#[derive(Debug, Clone)]
struct Case {
    dataset: Dataset,
    /// `(kind, pick)`: the `pick`-th component of `KINDS[kind]`, modulo
    /// how many there are.
    mentions: Vec<(usize, usize)>,
    window: (SimTime, SimTime),
    /// 0: the queried data set is deprecated; 1: another one is; else none.
    deprecate: u8,
    /// 0: no fault; 1: a ToR failure; 2: a server overload; 3: an
    /// aggregation-switch failure across a cluster — each over the window.
    fault: u8,
    capacity: usize,
    device_means: bool,
}

fn any_case() -> impl Strategy<Value = Case> {
    (
        0..Dataset::ALL.len(),
        proptest::collection::vec((0..KINDS.len(), 0usize..64), 1..4),
        // Any minute, so window edges fall mid-step as well as on steps.
        0u64..240 * 60,
        // Two hours, three hours, or anything up to five.
        (0u8..4, 0u64..300),
        0u8..4,
        0u8..4,
        0..CAPACITIES.len(),
        any::<bool>(),
    )
        .prop_map(
            |(dataset, mentions, start, (len_pick, len), deprecate, fault, capacity, means)| {
                let len = match len_pick {
                    0 => 120,
                    1 => 180,
                    _ => len,
                };
                Case {
                    dataset: Dataset::ALL[dataset],
                    mentions,
                    window: (SimTime(start), SimTime(start + len)),
                    deprecate,
                    fault,
                    capacity: CAPACITIES[capacity],
                    device_means: means,
                }
            },
        )
}

/// Two clusters of two racks, three servers a rack: a DC-wide cpu-usage
/// mention covers 21 devices.
fn topo() -> Topology {
    Topology::build(TopologyConfig {
        dcs: 1,
        clusters_per_dc: 2,
        racks_per_cluster: 2,
        servers_per_rack: 3,
        vms_per_server: 1,
        aggs_per_cluster: 2,
        cores_per_dc: 1,
        slbs_per_cluster: 1,
    })
}

fn faults(topo: &Topology, case: &Case) -> Vec<Fault> {
    let id = |name: &str| topo.by_name(name).unwrap().id;
    let (kind, owner, scope) = match case.fault {
        1 => (
            FaultKind::TorFailure,
            Team::PhyNet,
            FaultScope::Devices {
                devices: vec![id("tor-0.c0.dc0")],
                cluster: id("c0.dc0"),
            },
        ),
        2 => (
            FaultKind::ServerOverload,
            Team::Compute,
            FaultScope::Devices {
                devices: vec![id("srv-0.c0.dc0")],
                cluster: id("c0.dc0"),
            },
        ),
        3 => (
            FaultKind::AggFailure,
            Team::PhyNet,
            FaultScope::Cluster(id("c1.dc0")),
        ),
        _ => return Vec::new(),
    };
    vec![Fault {
        id: 0,
        kind,
        owner,
        scope,
        start: SimTime(case.window.0.minutes().saturating_sub(30)),
        duration: SimDuration::hours(4),
        severity: Severity::Sev2,
        upgrade_related: false,
    }]
}

fn mentioned(topo: &Topology, case: &Case) -> Vec<ComponentId> {
    case.mentions
        .iter()
        .map(|&(kind, pick)| {
            let of_kind: Vec<ComponentId> = topo.of_kind(KINDS[kind]).map(|c| c.id).collect();
            of_kind[pick % of_kind.len()]
        })
        .collect()
}

fn moments_bits(m: &Moments) -> [u64; 5] {
    [
        m.count,
        m.sum.to_bits(),
        m.sumsq.to_bits(),
        m.min.to_bits(),
        m.max.to_bits(),
    ]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn check(topo: &Topology, case: &Case) -> Result<(), TestCaseError> {
    let faults = faults(topo, case);
    let disabled = match case.deprecate {
        0 => vec![case.dataset],
        1 => vec![Dataset::ALL[(case.dataset.index() + 1) % Dataset::ALL.len()]],
        _ => Vec::new(),
    };
    let mon = MonitoringSystem::new(topo, &faults, MonitoringConfig { seed: 11, disabled });
    let (dataset, window) = (case.dataset, case.window);
    let mentioned = mentioned(topo, case);
    let cache = FeatCache::new(case.capacity);
    // Uncached, then cold, then warm.
    for (mode, cache) in [None, Some(&cache), Some(&cache)].into_iter().enumerate() {
        match dataset.data_type() {
            DataType::Event => {
                let mut got = Vec::new();
                for &c in &mentioned {
                    for_each_event(cache, &mon, dataset, c, window, |e| got.push(*e));
                }
                let want = reference::events(&mon, dataset, &mentioned, window);
                prop_assert_eq!(got, want, "events, mode {}", mode);
            }
            DataType::TimeSeries if case.device_means => {
                let mut got = Vec::new();
                for &c in &mentioned {
                    device_means(cache, &mon, dataset, c, window, &mut got);
                }
                let want = reference::device_means(&mon, dataset, &mentioned, window);
                prop_assert_eq!(bits(&got), bits(&want), "device means, mode {}", mode);
            }
            DataType::TimeSeries => {
                let mut pool = PoolStats::new();
                for &c in &mentioned {
                    accumulate_series(cache, &mon, dataset, c, window, &mut pool);
                }
                let mut out = [0.0; 11];
                pool.write_stats(&mut out);
                let want = reference::pooled(&mon, dataset, &mentioned, window);
                prop_assert_eq!(
                    moments_bits(&pool.m),
                    moments_bits(&want.m),
                    "pooled aggregates, mode {}",
                    mode
                );
                prop_assert_eq!(
                    bits(&out),
                    bits(&want.stats()),
                    "pooled statistics, mode {}",
                    mode
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn component_chunks_fold_exactly_like_devices(case in any_case()) {
        check(&topo(), &case)?;
    }
}

/// The seeded cases above really cross every axis: replay the same
/// generator and count.
#[test]
fn the_seeded_cases_cross_every_axis() {
    let topo = topo();
    let mut runner = TestRunner::new(
        &ProptestConfig::with_cases(CASES),
        concat!(
            module_path!(),
            "::",
            "component_chunks_fold_exactly_like_devices"
        ),
    );
    let strategy = any_case();
    let mut kinds = [0; KINDS.len()];
    let mut multi_device_mentions = 0;
    let (mut series, mut events, mut class_tagged, mut deprecated) = (0, 0, 0, 0);
    let mut ragged_spans = [0; 5]; // by buckets spanned, both edges ragged
    let mut capacities = [0; CAPACITIES.len()];
    let mut aggregations = [0; 2];
    while let Some((index, mut rng)) = runner.next_case() {
        let case = strategy.generate(&mut rng);
        let mon = MonitoringSystem::new(&topo, &[], MonitoringConfig::default());
        for (&(kind, _), c) in case.mentions.iter().zip(mentioned(&topo, &case)) {
            kinds[kind] += 1;
            if mon.covered_devices(case.dataset, c).len() > 1 {
                multi_device_mentions += 1;
            }
        }
        match case.dataset.data_type() {
            DataType::TimeSeries => {
                series += 1;
                aggregations[usize::from(case.device_means)] += 1;
            }
            DataType::Event => events += 1,
        }
        class_tagged += usize::from(case.dataset.class_tag().is_some());
        deprecated += usize::from(case.deprecate == 0);
        let steps = window_steps(case.window);
        if !steps.is_empty()
            && !steps.start.is_multiple_of(CHUNK_STEPS)
            && !steps.end.is_multiple_of(CHUNK_STEPS)
        {
            let spanned = (steps.end - 1) / CHUNK_STEPS - steps.start / CHUNK_STEPS + 1;
            ragged_spans[(spanned as usize).min(4)] += 1;
        }
        capacities[CAPACITIES.iter().position(|&c| c == case.capacity).unwrap()] += 1;
        runner.record(index, Ok(()));
    }
    let at_least = |n: usize, what: &str| assert!(n >= 20, "{what}: only {n} cases");
    for (kind, &n) in KINDS.iter().zip(&kinds) {
        at_least(n, &format!("{kind:?} mentions"));
    }
    at_least(multi_device_mentions, "mentions covering several devices");
    at_least(series, "series data sets");
    at_least(events, "event data sets");
    at_least(class_tagged, "class-tagged data sets");
    at_least(deprecated, "deprecated data sets");
    at_least(ragged_spans[3], "3-bucket windows ragged at both ends");
    at_least(ragged_spans[4], "4-bucket windows ragged at both ends");
    for (capacity, &n) in CAPACITIES.iter().zip(&capacities) {
        at_least(n, &format!("capacity {capacity}"));
    }
    at_least(aggregations[0], "pooled samples");
    at_least(aggregations[1], "device means");
}
