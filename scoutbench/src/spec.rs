//! `BENCHMARK.json`, compiled in: the metric and workload names the
//! benchmark emits come from the file itself, so the two cannot drift.

use obs::json::Value;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The declaration of the whole benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Value, key: &str) -> Vec<MetricSpec> {
    let field = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a {key} metric lacks \"{k}\""))
            .to_string()
    };
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no \"{key}\" list"))
        .iter()
        .map(|m| MetricSpec {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Spec {
    /// The declaration this binary was built against.
    pub fn load() -> Spec {
        let doc = Value::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: doc
                .get("workloads")
                .and_then(Value::as_arr)
                .expect("BENCHMARK.json: workloads")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .expect("BENCHMARK.json: a workload lacks \"name\"")
                        .to_string()
                })
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Mix;

    #[test]
    fn the_declaration_names_mixes_and_a_setup_metric() {
        let spec = Spec::load();
        assert!(spec.workloads.len() >= 2);
        for (i, name) in spec.workloads.iter().enumerate() {
            assert!(Mix::parse(name).is_some(), "{name} is not a mix");
            assert!(
                !spec.workloads[..i].contains(name),
                "{name} is declared twice"
            );
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
