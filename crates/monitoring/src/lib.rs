//! `monitoring` — the twelve PhyNet monitoring data sets of Table 2,
//! reproduced as synthetic, fault-conditioned telemetry generators.
//!
//! The paper's PhyNet Scout consumes twelve production data sets (ping mesh
//! latency, link/switch drop localization, canary VMs, device reboots, link
//! loss, FCS corruption, SNMP/syslog, PFC counters, interface counters,
//! temperature, CPU). Those systems are proprietary; this crate implements
//! the closest synthetic equivalent: telemetry is a *pure function* of
//!
//! 1. a healthy per-cluster baseline (clusters have different baselines,
//!    §3.3 "different clusters have different baseline latencies"),
//! 2. deterministic per-(data set, device, timestep) noise, and
//! 3. the active faults' telemetry signatures ([`signature`]).
//!
//! Because the function is deterministic given a seed, nine months of fleet
//! telemetry needs no storage: windows are generated on demand, which is
//! also how the real Scout pulls "the relevant monitoring data" per incident
//! rather than scanning the fleet (§9 "Scouts route incidents, they do not
//! trigger them").
//!
//! Ground-truth faults enter *only* through their telemetry signature; the
//! Scout sees values, never causes.

pub mod dataset;
pub mod noise;
pub mod signature;
pub mod system;

pub use dataset::{DataType, Dataset};
pub use signature::{EffectTarget, TelemetryEffect};
pub use system::{
    window_steps, Event, MonitoringConfig, MonitoringSystem, PlaneIndex, SAMPLE_INTERVAL,
};
