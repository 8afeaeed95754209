//! Ground-truth feedback: the served-prediction log and the ingestion
//! hook the lifecycle controller subscribes to.
//!
//! Every `POST /v1/scouts/<team>/predict` answer is assigned a
//! process-unique incident id and remembered in a bounded [`ServedLog`].
//! When the incident is eventually resolved, `POST /v1/feedback`
//! reports the ground-truth resolving team; the server joins it back to
//! the served prediction and hands the labeled [`wal::Feedback`] — the
//! same record the log replays — to the registered [`FeedbackHook`].
//! Each incident accepts feedback once — a second report is a `409`, so
//! downstream labeled streams see each example exactly once.
//!
//! The log is a lock around the WAL's own [`wal::ServedState`]: the
//! capped insert, the id counter and the exactly-once resolve are the
//! ones replay folds, and recovery hands the replayed state straight
//! back (see [`crate::durability`]).

use cloudsim::SimTime;
use std::sync::Mutex;
use wal::ServedState;

pub use wal::{Feedback, ResolveError, ServedRecord, DEFAULT_SERVED_CAP};

/// Bounded FIFO of served predictions, keyed by assigned incident id.
/// Ids are assigned inside the lock, so they rise in log order.
#[derive(Debug)]
pub struct ServedLog {
    state: Mutex<ServedState>,
}

impl From<ServedState> for ServedLog {
    /// Serve on from recovered state: ids continue the recovered
    /// sequence under the recovered bound.
    fn from(state: ServedState) -> ServedLog {
        ServedLog {
            state: Mutex::new(state),
        }
    }
}

impl ServedLog {
    /// A log remembering at most `cap` served predictions (oldest
    /// evicted first). `cap` is clamped to at least 1.
    pub fn new(cap: usize) -> ServedLog {
        ServedLog::from(ServedState::new(cap))
    }

    /// Remember one served prediction, returning its assigned incident
    /// id. `log` sees the new record while the log's lock is still held
    /// — the WAL producer hook, guaranteeing the durable event order
    /// matches the in-memory insertion order.
    #[allow(clippy::too_many_arguments)]
    pub fn record_logged(
        &self,
        team: &str,
        text: &str,
        model_version: u64,
        predicted_responsible: bool,
        confidence: f64,
        time: SimTime,
        log: impl FnOnce(&ServedRecord),
    ) -> u64 {
        let mut state = self.state.lock().unwrap();
        let rec = state.record(
            team,
            text,
            model_version,
            predicted_responsible,
            confidence,
            time,
        );
        log(rec);
        rec.incident
    }

    /// Mark `incident` resolved, returning its served record (as it was
    /// before resolution). Errs when unknown/evicted or already
    /// resolved. `log` sees the returned record while the lock is held
    /// (WAL producer hook; see [`ServedLog::record_logged`]).
    pub fn resolve_logged(
        &self,
        incident: u64,
        log: impl FnOnce(&ServedRecord),
    ) -> Result<ServedRecord, ResolveError> {
        let mut state = self.state.lock().unwrap();
        let rec = state.resolve(incident)?;
        log(&rec);
        Ok(rec)
    }

    /// Number of remembered predictions (resolved or not).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().records.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the whole log: records, bound and id counter.
    pub fn state(&self) -> ServedState {
        self.state.lock().unwrap().clone()
    }
}

/// Receiver for labeled feedback (the lifecycle controller). Called on
/// the HTTP handler thread — implementations must hand off quickly.
pub trait FeedbackHook: Send + Sync {
    /// One incident's ground truth arrived.
    fn on_feedback(&self, feedback: Feedback);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(log: &ServedLog, text: &str) -> u64 {
        log.record_logged("PhyNet", text, 1, true, 0.9, SimTime(1), |_| {})
    }

    #[test]
    fn hooks_see_each_record_under_the_lock() {
        let log = ServedLog::new(4);
        let mut logged = None;
        let id = log.record_logged("Storage", "disk latency", 3, true, 0.8, SimTime(9), |r| {
            logged = Some(r.clone())
        });
        assert_eq!(logged.map(|r| (r.incident, r.resolved)), Some((id, false)));
        let mut seen = None;
        let rec = log.resolve_logged(id, |r| seen = Some(r.clone())).unwrap();
        assert_eq!(seen, Some(rec.clone()));
        assert!(!rec.resolved, "returned snapshot is pre-resolution");
        let dup = log.resolve_logged(id, |_| panic!("a rejected resolve is not logged"));
        assert_eq!(dup, Err(ResolveError::AlreadyResolved(id)));
    }

    #[test]
    fn recovered_state_continues_id_sequence() {
        let mut state = ServedState::new(2);
        state.next_incident = 3;
        for t in ["t3", "t4", "t5"] {
            state.record("PhyNet", t, 1, true, 0.9, SimTime(1));
        }
        let log = ServedLog::from(state);
        assert_eq!(log.len(), 2, "the recovered bound still holds");
        assert_eq!(log.resolve_logged(3, |_| {}), Err(ResolveError::Unknown(3)));
        assert!(log.resolve_logged(4, |_| {}).is_ok());
        assert_eq!(record(&log, "t6"), 6, "ids continue the pre-crash sequence");
    }
}
