//! `scoutmaster` — what happens *around* a Scout: the §7 gain/overhead
//! accounting that turns predictions into saved (or wasted) investigation
//! time, and the Appendix C/D Scout Master that composes many Scouts over
//! the baseline routing traces.
//!
//! * [`gain`] — per-incident gain-in / gain-out / overhead-in / error-out,
//!   measured against a baseline [`incident::RoutingTrace`] exactly as §7
//!   defines them, including the paper's estimation trick for overhead-in
//!   (sampling from the baseline distribution of mis-routings into the
//!   team, Fig. 6).
//! * [`fleet`] — the one Scout Master, [`FleetMaster`], string-keyed over
//!   a [`cloudsim::DependencyGraph`], plus DeepTriage-style top-k
//!   suggestions. Its default policy is the strawman of Appendix C (one
//!   "yes" → send it there; several → prefer the deeper dependency, then
//!   confidence; all "no" → fall back to the legacy process), which the
//!   serving plane routes with.
//! * [`mle`] — the master's other policy: Appendix C's MLE estimate over
//!   per-Scout historical accuracy and confidence.
//! * [`sim`] — the Appendix D trace-driven simulations: N perfect Scouts
//!   (Fig. 15) and imperfect Scouts over an (α, β) accuracy/confidence
//!   sweep (Fig. 16).

pub mod fleet;
pub mod gain;
pub mod mle;
pub mod sim;

pub use fleet::{FleetAnswer, FleetDecision, FleetMaster, Suggestion};
pub use gain::{GainAccountant, GainReport, IncidentOutcome};
pub use mle::ScoutStats;
pub use sim::{ImperfectParams, ImperfectResult, PerfectScoutSim};
