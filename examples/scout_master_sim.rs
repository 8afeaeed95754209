//! Composing Scouts with a Scout Master (Appendix C/D): route incidents
//! with a fleet of gate-keepers and measure how much investigation time
//! disappears as deployment widens.
//!
//! ```sh
//! cargo run --release --example scout_master_sim
//! ```

use incident::{Workload, WorkloadConfig};
use scoutmaster::{FleetAnswer, FleetDecision, FleetMaster, PerfectScoutSim};

fn main() {
    let mut config = WorkloadConfig::default();
    config.faults.faults_per_day = 6.0;
    let world = Workload::generate(config);

    // --- The strawman master on one concrete incident ---
    let master = FleetMaster::new();
    let answers = [
        FleetAnswer::new("Database", true, 0.93),
        FleetAnswer::new("PhyNet", true, 0.88),
        FleetAnswer::new("Storage", false, 0.97),
    ];
    let decision = master.route(&answers);
    let shown = match decision.team() {
        Some(team) => format!("SendTo({team})"),
        None => "Fallback".to_string(),
    };
    println!("two yes answers, Database depends on PhyNet → {shown}");
    assert_eq!(decision, FleetDecision::SendTo("PhyNet".into()));

    // --- Fleet-wide what-if: perfect Scouts, growing deployment ---
    println!();
    println!("fraction of mis-routed incidents whose investigation time shrinks:");
    for n in [1usize, 3, 6] {
        let reductions = PerfectScoutSim::pooled_reductions(world.iter(), n);
        let helped =
            reductions.iter().filter(|&&r| r > 0.0).count() as f64 / reductions.len() as f64;
        let mean: f64 = reductions.iter().sum::<f64>() / reductions.len() as f64;
        println!(
            "  {n} scout(s): {:>4.0}% of incidents helped, mean reduction {:>4.0}%",
            100.0 * helped,
            100.0 * mean
        );
    }
    let best = PerfectScoutSim::best_possible(world.iter());
    let mean: f64 = best.iter().sum::<f64>() / best.len() as f64;
    println!("  every team:  mean reduction {:>4.0}%", 100.0 * mean);
}
