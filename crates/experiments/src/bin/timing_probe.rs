//! Not a paper figure: a pipeline timing probe used during development.
//!
//! Stage timings come from the `obs` spans the pipeline itself emits
//! (`scout.prepare`, `scout.train`, `scout.predict`, …); the probe just
//! enables collection and prints the summary at the end.
use experiments::{banner, default_build, paper_split, Lab};
use scout::{ModelUsed, Prediction, Scout, ScoutConfig};
use std::collections::BTreeMap;

fn main() {
    obs::enable();
    banner("probe", "pipeline timing + per-model confusion");
    let lab = Lab::standard();
    let mon = lab.monitoring();
    let build = default_build();
    let corpus = lab.prepare(&build, &mon);
    let (train, test) = paper_split(&corpus, lab.seed);
    let scout = Scout::train_prepared(ScoutConfig::phynet(), build, &corpus, &train, &mon);
    // Predict each held-out incident exactly once; every analysis below
    // reuses these.
    let preds: Vec<Prediction> = {
        let _span = obs::span!("probe.predict_all");
        test.iter()
            .map(|&i| scout.predict_prepared(&corpus.items[i], &mon))
            .collect()
    };
    let mut per_model: BTreeMap<&'static str, (usize, usize, usize, usize)> = BTreeMap::new();
    for (&i, p) in test.iter().zip(&preds) {
        let item = &corpus.items[i];
        let key = match p.model {
            ModelUsed::RandomForest => "rf",
            ModelUsed::CpdConservative => "cpd-conservative",
            ModelUsed::CpdCluster => "cpd-cluster",
            ModelUsed::Exclusion => "exclusion",
            ModelUsed::Fallback => "fallback",
        };
        let e = per_model.entry(key).or_default();
        match (item.example.label, p.says_responsible()) {
            (true, true) => e.0 += 1,
            (false, true) => e.1 += 1,
            (true, false) => e.2 += 1,
            (false, false) => e.3 += 1,
        }
    }
    for (k, (tp, fp, fneg, tn)) in per_model {
        println!("{k:<18} tp={tp:<5} fp={fp:<5} fn={fneg:<5} tn={tn:<5}");
    }
    // Error composition by fault kind.
    let mut fn_by_kind: BTreeMap<String, usize> = BTreeMap::new();
    let mut fp_by_kind: BTreeMap<String, usize> = BTreeMap::new();
    for (&i, p) in test.iter().zip(&preds) {
        let item = &corpus.items[i];
        let inc = &lab.workload.incidents[i];
        assert_eq!(inc.text(), item.example.text);
        let kind = format!("{:?}", lab.workload.fault_of(inc).kind);
        match (item.example.label, p.says_responsible()) {
            (true, false) => *fn_by_kind.entry(kind).or_default() += 1,
            (false, true) => *fp_by_kind.entry(kind).or_default() += 1,
            _ => {}
        }
    }
    println!("-- false negatives by fault kind --");
    for (k, n) in fn_by_kind {
        println!("  {k:<22} {n}");
    }
    println!("-- false positives by fault kind --");
    for (k, n) in fp_by_kind {
        println!("  {k:<22} {n}");
    }
    // How many FPs overlap a concurrent PhyNet fault in the same cluster?
    let mut fp_total = 0;
    let mut fp_overlap = 0;
    for (&i, p) in test.iter().zip(&preds) {
        let item = &corpus.items[i];
        if item.example.label || !p.says_responsible() {
            continue;
        }
        fp_total += 1;
        let inc = &lab.workload.incidents[i];
        let f = lab.workload.fault_of(inc);
        let w0 = inc
            .created_at
            .saturating_sub(cloudsim::SimDuration::hours(2));
        let overlap = lab.workload.faults.iter().any(|g| {
            g.id != f.id
                && g.owner == cloudsim::Team::PhyNet
                && g.scope.cluster() == f.scope.cluster()
                && g.start < inc.created_at
                && g.start + g.duration > w0
        });
        if overlap {
            fp_overlap += 1;
        }
    }
    println!("FPs with concurrent same-cluster PhyNet fault: {fp_overlap}/{fp_total}");
    // CPD+-forced error composition (a different prediction path, so it
    // cannot reuse `preds`). `probe.cpd_only` includes the change-point
    // detection itself: CPD+ gathers its evidence on this path, not in
    // `prepare`.
    let mut cpd_fn: BTreeMap<String, usize> = BTreeMap::new();
    let mut cpd_fp: BTreeMap<String, usize> = BTreeMap::new();
    let mut cpd_fn_model: BTreeMap<&'static str, usize> = BTreeMap::new();
    {
        let _span = obs::span!("probe.cpd_only");
        for &i in &test {
            let item = &corpus.items[i];
            let p = scout.predict_path(item, &mon, scout::PathChoice::CpdOnly);
            let inc = &lab.workload.incidents[i];
            let kind = format!("{:?}", lab.workload.fault_of(inc).kind);
            match (item.example.label, p.says_responsible()) {
                (true, false) => {
                    *cpd_fn.entry(kind).or_default() += 1;
                    *cpd_fn_model
                        .entry(match p.model {
                            ModelUsed::CpdConservative => "conservative",
                            ModelUsed::CpdCluster => "cluster",
                            _ => "other",
                        })
                        .or_default() += 1;
                }
                (false, true) => {
                    *cpd_fp.entry(kind).or_default() += 1;
                }
                _ => {}
            }
        }
    }
    println!("-- CPD+ FN by kind --");
    for (k, n) in cpd_fn {
        println!("  {k:<22} {n}");
    }
    println!("-- CPD+ FN by model path: {cpd_fn_model:?}");
    println!("-- CPD+ FP by kind --");
    for (k, n) in cpd_fp {
        println!("  {k:<22} {n}");
    }
    println!();
    println!("-- stage timings (obs) --");
    print!("{}", obs::global().summary());
}
