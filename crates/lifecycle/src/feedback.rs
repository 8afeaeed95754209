//! The labeled feedback stream: bounded, time-ordered ground truth.
//!
//! Every resolved incident becomes one [`Feedback`] — the served
//! prediction joined with its ground-truth label. The
//! [`FeedbackStore`] keeps the trailing window of that stream in
//! simulation-time order regardless of arrival order (operators resolve
//! incidents out of order), because everything downstream — drift
//! bucketing, retrain windows, shadow splits — is defined over
//! prediction time, not arrival time.
//!
//! The example and the stream are the WAL's own types (`wal::Feedback`,
//! `wal::FeedbackState`): the store adds only queries, so a controller's
//! stream and the replayed one obey the same insertion and eviction
//! rule.

use cloudsim::SimTime;
use ml::metrics::Confusion;
use scout::Example;
use wal::FeedbackState;

pub use wal::{Feedback, DEFAULT_FEEDBACK_CAP as DEFAULT_STORE_CAP};

/// Bounded, simulation-time-ordered stream of labeled feedback.
#[derive(Debug)]
pub struct FeedbackStore {
    state: FeedbackState,
}

impl FeedbackStore {
    /// A store retaining at most `cap` examples (oldest evicted first).
    pub fn new(cap: usize) -> FeedbackStore {
        FeedbackStore::from(FeedbackState::new(cap))
    }

    /// Insert one labeled example, keeping the store time-ordered
    /// (stable for equal times: later arrivals go after earlier ones).
    /// Evicts the oldest example when full.
    pub fn push(&mut self, fb: Feedback) {
        self.state.insert(fb);
    }

    /// Number of retained examples.
    pub fn len(&self) -> usize {
        self.state.items.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.state.items.is_empty()
    }

    /// Total ever ingested (including evicted).
    pub fn total_ingested(&self) -> u64 {
        self.state.total
    }

    /// Time-ordered view of the retained stream.
    pub fn iter(&self) -> impl Iterator<Item = &Feedback> {
        self.state.items.iter()
    }

    /// The retained feedback with `from <= time < to`, time-ordered.
    pub fn slice(&self, from: SimTime, to: SimTime) -> Vec<&Feedback> {
        self.state
            .items
            .iter()
            .filter(|f| f.time >= from && f.time < to)
            .collect()
    }

    /// Confusion of recorded predictions against ground truth over
    /// `[from, to)`.
    pub fn confusion_in(&self, from: SimTime, to: SimTime) -> Confusion {
        let mut c = Confusion::default();
        for f in self.slice(from, to) {
            c.record(f.label, f.predicted);
        }
        c
    }

    /// Like [`FeedbackStore::confusion_in`], restricted to predictions
    /// made by model `version` (the probation signal).
    pub fn confusion_for_version(&self, version: u64, from: SimTime, to: SimTime) -> Confusion {
        let mut c = Confusion::default();
        for f in self.slice(from, to) {
            if f.model_version == version {
                c.record(f.label, f.predicted);
            }
        }
        c
    }

    /// Training examples (text, time, ground-truth label) for the
    /// feedback in `[from, to)`, plus the aligned mistake flags.
    pub fn examples_in(&self, from: SimTime, to: SimTime) -> (Vec<Example>, Vec<bool>) {
        let slice = self.slice(from, to);
        let examples = slice
            .iter()
            .map(|f| Example::new(f.text.clone(), f.time, f.label))
            .collect();
        let mistaken = slice.iter().map(|f| f.mistaken()).collect();
        (examples, mistaken)
    }
}

impl From<FeedbackState> for FeedbackStore {
    fn from(state: FeedbackState) -> FeedbackStore {
        FeedbackStore { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(incident: u64, minute: u64, predicted: bool, label: bool) -> Feedback {
        Feedback {
            incident,
            text: format!("incident {incident}"),
            team: "PhyNet".into(),
            time: SimTime(minute),
            predicted,
            label,
            model_version: 1,
        }
    }

    #[test]
    fn out_of_order_arrival_is_time_ordered() {
        let mut s = FeedbackStore::new(10);
        s.push(fb(1, 50, true, true));
        s.push(fb(2, 10, false, false));
        s.push(fb(3, 30, true, false));
        let times: Vec<u64> = s.iter().map(|f| f.time.0).collect();
        assert_eq!(times, vec![10, 30, 50]);
    }

    #[test]
    fn capacity_evicts_oldest_by_time() {
        let mut s = FeedbackStore::new(2);
        s.push(fb(1, 50, true, true));
        s.push(fb(2, 10, false, false));
        s.push(fb(3, 30, true, false));
        let times: Vec<u64> = s.iter().map(|f| f.time.0).collect();
        assert_eq!(times, vec![30, 50]);
        assert_eq!(s.total_ingested(), 3);
    }

    #[test]
    fn windowed_confusion_counts_the_right_cells() {
        let mut s = FeedbackStore::new(10);
        s.push(fb(1, 10, true, true)); // tp
        s.push(fb(2, 20, true, false)); // fp
        s.push(fb(3, 30, false, true)); // fn
        s.push(fb(4, 40, false, false)); // tn
        s.push(fb(5, 99, true, true)); // outside window
        let c = s.confusion_in(SimTime(0), SimTime(50));
        assert_eq!((c.tp, c.fp, c.fn_, c.tn), (1, 1, 1, 1));
        let (examples, mistaken) = s.examples_in(SimTime(0), SimTime(50));
        assert_eq!(examples.len(), 4);
        assert_eq!(mistaken, vec![false, true, true, false]);
        assert!(examples[0].label);
        assert!(!examples[1].label);
    }
}
