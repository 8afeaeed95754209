//! The §3 measurement study ("Incidents in the Wild"), computed over a
//! synthetic workload. Backs experiment binaries `fig01`–`fig04` and
//! `sec3_stats`.

use crate::model::{Incident, IncidentSource};
use crate::routing::RoutingTrace;
use crate::workload::Workload;
use cloudsim::{Severity, Team};
use std::collections::BTreeMap;

/// Empirical CDF: sorted `(value, cumulative_fraction)` points.
pub fn ecdf(mut values: Vec<f64>) -> Vec<(f64, f64)> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = values.len() as f64;
    values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Quantile of an unsorted sample (`q` in `[0,1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx]
}

/// Everything §3 reports, recomputed over the synthetic workload.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// Fig. 1a — per-day fraction of PhyNet-owned incidents created by
    /// (own monitors, other teams' monitors, customers).
    pub fig1a_per_day: Vec<(f64, f64, f64)>,
    /// Fig. 1b — per-source-type mis-routed fraction, per day:
    /// (own-monitor, other-monitor, CRI).
    pub fig1b_per_day: Vec<(f64, f64, f64)>,
    /// Fig. 2 — normalized time-to-diagnosis samples: single-team vs
    /// multi-team traces.
    pub fig2_single: Vec<f64>,
    /// Multi-team samples (normalized by the same maximum).
    pub fig2_multi: Vec<f64>,
    /// Fig. 3 — % of investigation time mis-routed PhyNet incidents spent
    /// in other teams (the reducible share).
    pub fig3_reducible_pct: Vec<f64>,
    /// Fig. 4 — per-day fraction of PhyNet-engaged incidents where PhyNet
    /// was not responsible.
    pub fig4_waypoint_per_day: Vec<f64>,
    /// §3.1 — fraction of PhyNet-touching incidents that were mis-routed
    /// in or out (the paper reports 58%).
    pub phynet_passthrough_fraction: f64,
    /// §3.1 — mean / max teams engaged on PhyNet-resolved incidents
    /// (paper: 1.6 average, up to 11).
    pub phynet_teams_mean: f64,
    /// Maximum teams engaged.
    pub phynet_teams_max: usize,
    /// §3.1 — % time-to-mitigation reduction under perfect routing, by
    /// severity (paper: low 32%, medium 47.4%, high 0.15%).
    pub perfect_routing_savings: BTreeMap<Severity, f64>,
    /// §3.1 — average wasted investigation hours per day (paper: 97.6 h).
    pub wasted_hours_per_day: f64,
    /// §3.1 — the ~10× median slowdown of mis-routed incidents.
    pub misrouted_slowdown: f64,
}

impl StudyReport {
    /// Compute the full report.
    pub fn compute(w: &Workload) -> StudyReport {
        let horizon_days = w.config.faults.horizon.as_days_f64().max(1.0);
        let n_days = horizon_days.ceil() as usize;

        // --- Fig 1a / 1b ---
        let mut fig1a_per_day = Vec::new();
        let mut fig1b_per_day = Vec::new();
        let mut by_day: Vec<Vec<(&Incident, &RoutingTrace)>> = vec![Vec::new(); n_days];
        for (inc, tr) in w.iter() {
            let d = (inc.created_at.days() as usize).min(n_days - 1);
            by_day[d].push((inc, tr));
        }
        for day in &by_day {
            let phynet: Vec<_> = day
                .iter()
                .filter(|(i, _)| i.owner == Team::PhyNet)
                .collect();
            if !phynet.is_empty() {
                let n = phynet.len() as f64;
                let own = phynet
                    .iter()
                    .filter(|(i, _)| i.source == IncidentSource::Monitor(Team::PhyNet))
                    .count() as f64;
                let cri = phynet.iter().filter(|(i, _)| i.source.is_cri()).count() as f64;
                let other = n - own - cri;
                fig1a_per_day.push((own / n, other / n, cri / n));
            }
            // 1b: mis-routed fraction per creation type (all incidents).
            let frac = |pred: &dyn Fn(&Incident) -> bool| {
                let of_type: Vec<_> = day.iter().filter(|(i, _)| pred(i)).collect();
                if of_type.is_empty() {
                    return f64::NAN;
                }
                of_type.iter().filter(|(_, t)| t.misrouted()).count() as f64 / of_type.len() as f64
            };
            let own_f = frac(
                &|i: &Incident| matches!(i.source, IncidentSource::Monitor(t) if t == i.owner),
            );
            let other_f = frac(
                &|i: &Incident| matches!(i.source, IncidentSource::Monitor(t) if t != i.owner),
            );
            let cri_f = frac(&|i: &Incident| i.source.is_cri());
            if !own_f.is_nan() || !other_f.is_nan() || !cri_f.is_nan() {
                fig1b_per_day.push((own_f, other_f, cri_f));
            }
        }

        // --- Fig 2 ---
        let mut single = Vec::new();
        let mut multi = Vec::new();
        for (_, tr) in w.iter() {
            let t = tr.total_time().as_minutes() as f64;
            if tr.misrouted() {
                multi.push(t);
            } else {
                single.push(t);
            }
        }
        let max_t = single
            .iter()
            .chain(multi.iter())
            .copied()
            .fold(1.0f64, f64::max);
        let fig2_single: Vec<f64> = single.iter().map(|t| t / max_t).collect();
        let fig2_multi: Vec<f64> = multi.iter().map(|t| t / max_t).collect();

        // --- Fig 3: reducible time for mis-routed PhyNet incidents ---
        let mut fig3 = Vec::new();
        for (inc, tr) in w.iter() {
            if inc.owner == Team::PhyNet && tr.misrouted() {
                let total = tr.total_time().as_minutes() as f64;
                let in_phynet = tr.time_in(Team::PhyNet).as_minutes() as f64;
                if total > 0.0 {
                    fig3.push(100.0 * (total - in_phynet) / total);
                }
            }
        }

        // --- Fig 4: PhyNet as a waypoint ---
        let mut fig4 = Vec::new();
        for day in &by_day {
            let engaged: Vec<_> = day
                .iter()
                .filter(|(_, t)| t.visited(Team::PhyNet))
                .collect();
            if !engaged.is_empty() {
                let innocent = engaged
                    .iter()
                    .filter(|(i, _)| i.owner != Team::PhyNet)
                    .count() as f64;
                fig4.push(100.0 * innocent / engaged.len() as f64);
            }
        }

        // --- §3.1 headline numbers ---
        let phynet_touching: Vec<_> = w.iter().filter(|(_, t)| t.visited(Team::PhyNet)).collect();
        let passthrough = phynet_touching
            .iter()
            .filter(|(i, t)| t.misrouted() || i.owner != Team::PhyNet)
            .count() as f64
            / phynet_touching.len().max(1) as f64;

        let phynet_resolved: Vec<_> = w
            .iter()
            .filter(|(i, t)| i.owner == Team::PhyNet && t.resolver() == Team::PhyNet)
            .collect();
        let teams_counts: Vec<usize> = phynet_resolved
            .iter()
            .map(|(_, t)| {
                let mut teams = t.teams();
                teams.sort_unstable_by_key(|t| t.id());
                teams.dedup();
                teams.len()
            })
            .collect();
        let teams_mean =
            teams_counts.iter().sum::<usize>() as f64 / teams_counts.len().max(1) as f64;
        let teams_max = teams_counts.iter().copied().max().unwrap_or(0);

        let mut savings: BTreeMap<Severity, (f64, f64)> = BTreeMap::new();
        for (inc, tr) in w.iter() {
            let total = tr.total_time().as_minutes() as f64;
            // Perfect routing: the incident goes straight to its resolver.
            let direct = if tr.all_hands {
                total // severity-1: everyone is engaged regardless
            } else {
                tr.hops
                    .last()
                    .map(|h| h.total().as_minutes() as f64)
                    .unwrap_or(total)
            };
            let e = savings.entry(inc.severity).or_insert((0.0, 0.0));
            e.0 += total - direct;
            e.1 += total;
        }
        let perfect_routing_savings: BTreeMap<Severity, f64> = savings
            .into_iter()
            .map(|(sev, (saved, total))| (sev, 100.0 * saved / total.max(1.0)))
            .collect();

        let wasted_minutes: f64 = w
            .iter()
            .map(|(_, tr)| {
                if tr.all_hands {
                    return 0.0;
                }
                let total = tr.total_time().as_minutes() as f64;
                let last = tr
                    .hops
                    .last()
                    .map(|h| h.total().as_minutes() as f64)
                    .unwrap_or(0.0);
                total - last
            })
            .sum();
        let wasted_hours_per_day = wasted_minutes / 60.0 / horizon_days;

        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { quantile(v, 0.5) };
        let misrouted_slowdown = med(&multi) / med(&single).max(1.0);

        StudyReport {
            fig1a_per_day,
            fig1b_per_day,
            fig2_single,
            fig2_multi,
            fig3_reducible_pct: fig3,
            fig4_waypoint_per_day: fig4,
            phynet_passthrough_fraction: passthrough,
            phynet_teams_mean: teams_mean,
            phynet_teams_max: teams_max,
            perfect_routing_savings,
            wasted_hours_per_day,
            misrouted_slowdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadConfig;

    fn report() -> StudyReport {
        let w = Workload::generate(WorkloadConfig::default());
        StudyReport::compute(&w)
    }

    #[test]
    fn ecdf_is_monotone_and_complete() {
        let cdf = ecdf(vec![3.0, 1.0, 2.0]);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0], (1.0, 1.0 / 3.0));
        assert_eq!(cdf[2], (3.0, 1.0));
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn quantiles() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
    }

    #[test]
    fn phynet_is_mostly_self_detected_fig1a() {
        let r = report();
        assert!(!r.fig1a_per_day.is_empty());
        let mean_own: f64 =
            r.fig1a_per_day.iter().map(|d| d.0).sum::<f64>() / r.fig1a_per_day.len() as f64;
        assert!(mean_own > 0.45, "own-monitor share {mean_own}");
    }

    #[test]
    fn own_monitor_incidents_misroute_least_fig1b() {
        let r = report();
        let mean = |f: fn(&(f64, f64, f64)) -> f64| {
            let vals: Vec<f64> = r
                .fig1b_per_day
                .iter()
                .map(f)
                .filter(|v| !v.is_nan())
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        let own = mean(|d| d.0);
        let other = mean(|d| d.1);
        let cri = mean(|d| d.2);
        assert!(own < 0.2, "own-monitor misroute rate {own}");
        assert!(
            other > own,
            "cross-monitor misroutes more: {other} vs {own}"
        );
        assert!(cri > own, "CRIs misroute more: {cri} vs {own}");
    }

    #[test]
    fn misrouted_incidents_are_dramatically_slower_fig2() {
        let r = report();
        assert!(
            r.misrouted_slowdown > 2.5,
            "median slowdown {} (paper reports ~10×)",
            r.misrouted_slowdown
        );
    }

    #[test]
    fn reducible_time_is_substantial_fig3() {
        let r = report();
        assert!(!r.fig3_reducible_pct.is_empty());
        let median = quantile(&r.fig3_reducible_pct, 0.5);
        assert!(median > 30.0, "median reducible share {median}%");
        for &v in &r.fig3_reducible_pct {
            assert!((0.0..=100.0).contains(&v));
        }
    }

    #[test]
    fn phynet_waypoint_rate_is_meaningful_fig4() {
        let r = report();
        let median = quantile(&r.fig4_waypoint_per_day, 0.5);
        // Paper: median day has ~35% of PhyNet engagements caused elsewhere.
        assert!(
            (10.0..70.0).contains(&median),
            "median waypoint rate {median}%"
        );
    }

    #[test]
    fn sec31_headline_numbers_are_in_band() {
        let r = report();
        assert!(
            (0.2..0.8).contains(&r.phynet_passthrough_fraction),
            "passthrough {} (paper: 0.58)",
            r.phynet_passthrough_fraction
        );
        assert!(
            (1.0..3.0).contains(&r.phynet_teams_mean),
            "teams mean {} (paper: 1.6)",
            r.phynet_teams_mean
        );
        assert!(r.phynet_teams_max >= 4, "teams max {}", r.phynet_teams_max);
        assert!(
            r.wasted_hours_per_day > 5.0,
            "wasted h/day {}",
            r.wasted_hours_per_day
        );
        // Severity ordering: high severity benefits least from routing.
        let hi = r.perfect_routing_savings[&Severity::Sev1];
        let med = r.perfect_routing_savings[&Severity::Sev2];
        let lo = r.perfect_routing_savings[&Severity::Sev3];
        assert!(hi < 5.0, "Sev1 savings {hi}% (paper: 0.15%)");
        assert!(med > 10.0, "Sev2 savings {med}% (paper: 47.4%)");
        assert!(lo > 10.0, "Sev3 savings {lo}% (paper: 32%)");
    }
}
