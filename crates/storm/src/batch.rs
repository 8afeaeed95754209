//! Stage 3 policy: which incidents coalesce, and into how much.
//!
//! Low-severity incidents are the bulk of a storm and the least urgent
//! work in it: a Sev3 ticket may queue behind the fan-out already
//! running, and everything that queued meanwhile then shares one pass —
//! one `MonitoringSystem` build, one prepare per featurization
//! fingerprint. Nothing is held back to wait for company: with no pass
//! running, a lone Sev3 fans out at once. This module is the *policy*
//! half — severity classification and the batch cap; the queue itself
//! lives in `serve`, next to the fleet dispatcher it feeds, because a
//! batch is executed as one multi-incident fan-out.

/// Incident severity as the storm layer sees it. Mirrors cloudsim's
/// `Severity` (Sev1 page → Sev3 ticket) without depending on it: the
/// wire format is a plain `"severity": 1..=3` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Page: outage-grade, never queued.
    Sev1,
    /// Alert: degraded, never queued.
    Sev2,
    /// Ticket: background-grade, eligible for coalescing.
    Sev3,
}

impl Severity {
    /// Parse the wire level (1..=3). Absent/garbage levels are the
    /// caller's problem; `/v1/route` defaults to Sev2 so unannotated
    /// traffic never queues.
    pub fn from_level(level: u64) -> Option<Severity> {
        match level {
            1 => Some(Severity::Sev1),
            2 => Some(Severity::Sev2),
            3 => Some(Severity::Sev3),
            _ => None,
        }
    }

    /// The wire level.
    pub fn level(self) -> u64 {
        match self {
            Severity::Sev1 => 1,
            Severity::Sev2 => 2,
            Severity::Sev3 => 3,
        }
    }
}

/// Most incidents one coalesced Sev3 fan-out carries: up to 16 that
/// queued behind one pass share the next.
pub const MAX_BATCH: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_round_trip() {
        for level in 1..=3 {
            assert_eq!(Severity::from_level(level).unwrap().level(), level);
        }
        assert_eq!(Severity::from_level(0), None);
        assert_eq!(Severity::from_level(4), None);
    }
}
