//! Serving-plane ↔ WAL glue: the served-log and registry producers
//! and the engine recovery path.
//!
//! Producers are **log-first**: the event is appended (one buffered-free
//! `write(2)`; see `wal::log`) before the mutation is acknowledged to
//! the caller, and the append happens while the mutated structure's own
//! lock is still held, so the durable event order always matches the
//! in-memory mutation order. The runtime structures hold the WAL's own
//! state types (the served log *is* a `wal::ServedState` behind a
//! lock), so on recovery the engine takes the replayed state as is:
//! post-restart state equals the deterministic replay of the log by
//! construction.

use crate::feedback::{ResolveError, ServedLog};
use crate::registry::{RegistryChange, RegistryJournal};
use crate::server::Engine;
use cloudsim::SimTime;
use std::sync::Arc;
use wal::{Event, Feedback, Wal};

/// Append `event`, containing failures: serving must not return 500s
/// because the log disk hiccuped. A failed append is counted
/// (`wal.append_errors`) and shows up as recovery divergence, not as a
/// request error.
pub fn append_or_count(wal: &Wal, event: &Event) {
    if wal.append(event).is_err() {
        obs::counter("wal.append_errors").inc();
    }
}

/// [`RegistryJournal`] implementation feeding registry mutations into
/// the WAL. Registry changes are operator/controller actions with no
/// inherent simulation time, so they are stamped `SimTime::EPOCH` —
/// keeping the encoded event (and thus the log) deterministic.
pub struct WalJournal(pub Arc<Wal>);

impl RegistryJournal for WalJournal {
    fn on_change(&self, change: &RegistryChange) {
        let event = match change {
            RegistryChange::Promoted {
                team,
                version,
                source,
            } => Event::ModelPromoted {
                team: team.clone(),
                version: *version,
                source: source.clone(),
                at: SimTime::EPOCH,
            },
            RegistryChange::RolledBack { team, from, to } => Event::ModelRolledBack {
                team: team.clone(),
                from: *from,
                to: *to,
                at: SimTime::EPOCH,
            },
            RegistryChange::Pinned { team, pinned } => Event::ModelPinned {
                team: team.clone(),
                pinned: *pinned,
                at: SimTime::EPOCH,
            },
            RegistryChange::EpochChanged { epoch } => Event::EpochChanged {
                epoch: *epoch,
                at: SimTime::EPOCH,
            },
        };
        append_or_count(&self.0, &event);
    }
}

impl Engine {
    /// Attach `wal` as the engine's durability log.
    ///
    /// Restores from the log's recovered projections first — the
    /// served-prediction log (ids continue the pre-crash sequence),
    /// the registry's version/epoch counters, and pins — and only then
    /// subscribes the registry journal, so recovered state is never
    /// re-logged. Models themselves are *not* restorable from the log
    /// (a trained Scout lives in the model directory, not the WAL);
    /// the caller reloads them after this, which appends fresh
    /// `ModelPromoted` events under new version numbers.
    ///
    /// Call this after the other builders: it replaces the served log
    /// (superseding `with_served_cap`) with the recovered one.
    pub fn with_wal(mut self, wal: Arc<Wal>) -> Engine {
        let proj = wal.projections();
        self.served = Arc::new(ServedLog::from(proj.served));
        self.registry
            .resume_versions_from(proj.registry.next_version);
        self.registry.resume_epoch_from(proj.registry.epoch);
        for (team, slot) in &proj.registry.teams {
            if slot.pinned {
                self.registry.pin(team);
            }
        }
        self.registry
            .set_journal(Arc::new(WalJournal(Arc::clone(&wal))));
        self.wal = Some(wal);
        self
    }

    /// Remember a served answer under a fresh incident id and, with a
    /// WAL attached, log it while the served log's lock pins the order.
    pub fn record_served(
        &self,
        team: &str,
        text: &str,
        model_version: u64,
        predicted_responsible: bool,
        confidence: f64,
        time: SimTime,
    ) -> u64 {
        self.served.record_logged(
            team,
            text,
            model_version,
            predicted_responsible,
            confidence,
            time,
            |rec| {
                if let Some(wal) = self.wal.as_deref() {
                    append_or_count(
                        wal,
                        &Event::PredictionServed {
                            incident: rec.incident,
                            team: rec.team.clone(),
                            text: rec.text.clone(),
                            model_version: rec.model_version,
                            predicted: rec.predicted_responsible,
                            confidence: rec.confidence,
                            time: rec.time,
                        },
                    );
                }
            },
        )
    }

    /// Join `resolving_team`'s ground truth to served prediction
    /// `incident` (exactly once) and, with a WAL attached, log the
    /// labeled example under the served log's lock. The returned
    /// example is the one the log's `FeedbackAccepted` event replays to.
    pub fn resolve_served(
        &self,
        incident: u64,
        resolving_team: &str,
    ) -> Result<Feedback, ResolveError> {
        let label = |team: &str| resolving_team.eq_ignore_ascii_case(team);
        let rec = self.served.resolve_logged(incident, |rec| {
            if let Some(wal) = self.wal.as_deref() {
                append_or_count(
                    wal,
                    &Event::FeedbackAccepted {
                        incident: rec.incident,
                        team: rec.team.clone(),
                        text: rec.text.clone(),
                        model_version: rec.model_version,
                        predicted: rec.predicted_responsible,
                        label: label(&rec.team),
                        time: rec.time,
                    },
                );
            }
        })?;
        Ok(Feedback {
            incident: rec.incident,
            label: label(&rec.team),
            team: rec.team,
            text: rec.text,
            model_version: rec.model_version,
            predicted: rec.predicted_responsible,
            time: rec.time,
        })
    }
}
