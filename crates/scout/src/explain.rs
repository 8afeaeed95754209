//! Operator-facing explanations (§8: "Explanations are crucial").
//!
//! Every prediction carries: the components the Scout examined, the data
//! sets it consulted, the top contributing features (via the random
//! forest's feature-contribution decomposition), and the recommendation
//! blurb — including the fine-print caveats the paper's operators were
//! shown (and, §8 admits, did not read).

use std::cmp::Ordering;

/// The explanation attached to a [`crate::Prediction`].
#[derive(Debug, Clone, Default)]
pub struct Explanation {
    /// Component names found in the incident and examined.
    pub components: Vec<String>,
    /// Data sets consulted.
    pub datasets: Vec<String>,
    /// `(feature name, contribution)` pairs, strongest first. Positive
    /// contributions push toward "team is responsible".
    pub top_features: Vec<(String, f64)>,
    /// Free-form evidence lines (CPD+ change-point hits, exclusion rule
    /// matches, fallback reasons).
    pub evidence: Vec<String>,
}

/// Strongest contribution first, by magnitude; `NaN` compares equal to
/// everything, so a stable sort leaves it (and every tie) in input order.
fn by_magnitude(a: f64, b: f64) -> Ordering {
    b.abs().partial_cmp(&a.abs()).unwrap_or(Ordering::Equal)
}

/// Indices of the `k` strongest `contributions`, ranked exactly as
/// [`Explanation::truncated`] ranks `(name, contribution)` pairs — for
/// callers that hold the names elsewhere and want to clone only `k`.
pub(crate) fn strongest(contributions: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..contributions.len()).collect();
    order.sort_by(|&a, &b| by_magnitude(contributions[a], contributions[b]));
    order.truncate(k);
    order
}

impl Explanation {
    /// Keep only the `k` strongest feature contributions by magnitude.
    pub fn truncated(mut self, k: usize) -> Explanation {
        self.top_features.sort_by(|a, b| by_magnitude(a.1, b.1));
        self.top_features.truncate(k);
        self
    }

    /// Render the recommendation text shown to operators, fine print
    /// included (§8 "Operators do not have time to read the fine-print").
    pub fn render(&self, team: &str, responsible: bool, confidence: f64) -> String {
        let verdict = if responsible {
            format!("suggests this IS a {team} incident")
        } else {
            format!("suggests this is NOT a {team} incident")
        };
        let mut out = format!(
            "The {team} Scout investigated [{}] using [{}] and {verdict}. \
             Its confidence is {confidence:.2}. We recommend not using this \
             output if confidence is below 0.8.",
            self.components.join(", "),
            self.datasets.join(", "),
        );
        if !self.top_features.is_empty() {
            out.push_str(" Strongest signals: ");
            let parts: Vec<String> = self
                .top_features
                .iter()
                .map(|(name, c)| format!("{name} ({c:+.3})"))
                .collect();
            out.push_str(&parts.join(", "));
            out.push('.');
        }
        for e in &self.evidence {
            out.push(' ');
            out.push_str(e);
        }
        out.push_str(
            " Attention: known false negatives occur for transient issues, \
             when an incident is created after the problem has already been \
             resolved, and if the incident is too broad in scope.",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_keeps_strongest_by_magnitude() {
        let e = Explanation {
            top_features: vec![
                ("weak".into(), 0.01),
                ("strong-neg".into(), -0.5),
                ("strong-pos".into(), 0.4),
            ],
            ..Default::default()
        };
        let t = e.truncated(2);
        assert_eq!(t.top_features.len(), 2);
        assert_eq!(t.top_features[0].0, "strong-neg");
        assert_eq!(t.top_features[1].0, "strong-pos");
    }

    /// Ranking bare indices (what the forest path does, cloning `k`
    /// names) and ranking named pairs agree on ties and on `NaN`.
    #[test]
    fn index_ranking_matches_pair_truncation_on_ties_and_nan() {
        let cases: [&[f64]; 4] = [
            &[0.2, -0.2, 0.2, 0.1, -0.2, 0.3],
            &[0.1, f64::NAN, 0.4, -0.4, f64::NAN, 0.0, 0.4],
            &[f64::NAN, f64::NAN, f64::NAN],
            &[],
        ];
        for contributions in cases {
            for k in [0, 1, 3, 5, 10] {
                let named = contributions.iter().enumerate();
                let by_pair: Vec<String> = Explanation {
                    top_features: named.map(|(i, &c)| (i.to_string(), c)).collect(),
                    ..Default::default()
                }
                .truncated(k)
                .top_features
                .into_iter()
                .map(|(name, _)| name)
                .collect();
                let by_index: Vec<String> = strongest(contributions, k)
                    .iter()
                    .map(|i| i.to_string())
                    .collect();
                assert_eq!(by_pair, by_index, "{contributions:?} k={k}");
            }
        }
        // Ties keep feature-index order.
        assert_eq!(strongest(&[0.2, -0.2, 0.2, 0.3], 3), vec![3, 0, 1]);
    }

    #[test]
    fn render_contains_the_operator_contract() {
        let e = Explanation {
            components: vec!["tor-1.c0.dc0".into()],
            datasets: vec!["ping-statistics".into()],
            top_features: vec![("switch/link-loss-status/mean".into(), 0.31)],
            evidence: vec!["Change point at sample 12 of link-loss-status.".into()],
        };
        let text = e.render("PhyNet", true, 0.93);
        assert!(text.contains("IS a PhyNet incident"));
        assert!(text.contains("0.93"));
        assert!(text.contains("tor-1.c0.dc0"));
        assert!(text.contains("below 0.8"));
        assert!(text.contains("transient"));
        assert!(text.contains("Change point"));
    }
}
