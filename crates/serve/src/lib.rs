//! The online half of the Scouts system: an incident-routing server.
//!
//! The paper splits each Scout into an offline component (training, the
//! `scout` crate) and an **online component** that serves routing
//! decisions to the incident-management pipeline. This crate is that
//! online component. Every request walks one ordered path —
//! [`http`] parse → [`admission`] → (for `/v1/route`) the `storm` front
//! end → the model work, on the connection's own thread or (Sev3 routes
//! only) through one queue → render — built from:
//!
//! * [`registry::ModelRegistry`] — versioned `Arc`-swapped models, so a
//!   retrain (the paper retrains Scouts on a schedule, §6) can be rolled
//!   out with `POST /v1/models/reload` while predictions are in flight;
//! * [`admission::Admission`] — a hard cap on outstanding work with
//!   load-shedding (`503` + `Retry-After`) and per-request deadlines
//!   (`X-Deadline-Ms` → `504`), because a late routing decision is a
//!   useless one;
//! * the predict path in [`server`] — each `POST /v1/scouts/<team>/predict`
//!   pins one model version and runs `Scout::predict_many_traced` over its
//!   one input on the connection thread that parsed it; a lapsed
//!   deadline is answered before any model work;
//! * `coalesce` — the one micro-batching queue, with one handler: the
//!   storm layer's Sev3 route coalescer in [`fleet`]. A batch is what
//!   queued while the previous one ran, under a batch span linking every
//!   coalesced request, with the expired-deadline split and
//!   drain-never-drop shutdown;
//! * [`fleet`] — the sharded routing plane behind `POST /v1/route`:
//!   registered teams are rendezvous-hashed across bounded worker
//!   groups, each incident is featurized once per featurization
//!   fingerprint and classified shard-parallel per team with per-team
//!   fault isolation, and the string-keyed Scout Master aggregates the
//!   outcomes deterministically (byte-identical across shard counts).
//!   One *fleet pass* (registry snapshot → breaker gate sampled once →
//!   `dispatch_batch` → one breaker report per team) serves both the
//!   direct Sev1/Sev2 call on the handler thread and a coalesced Sev3
//!   batch on the worker.
//!
//! Everything — including the HTTP/1.1 implementation in [`http`] — is
//! dependency-free, like the rest of the workspace.

pub mod admission;
pub mod client;
mod coalesce;
pub mod durability;
pub mod feedback;
pub mod fleet;
pub mod http;
pub mod registry;
pub mod server;

pub use admission::{Admission, Permit};
pub use client::{Client, ClientError, ClientResponse};
pub use durability::WalJournal;
pub use feedback::{Feedback, FeedbackHook, ResolveError, ServedLog, ServedRecord};
pub use fleet::{FleetConfig, ScoutError, TeamOutcome};
pub use http::{HttpError, Request, Response};
pub use registry::{ModelEntry, ModelRegistry, RegistryChange, RegistryError, RegistryJournal};
pub use server::{Engine, ServeConfig, Server};

/// A completed prediction, attributable to exactly one model version.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Canonical team name (registry key; may differ in case from the
    /// request).
    pub team: String,
    /// Version of the model that produced this answer.
    pub model_version: u64,
    /// The Scout's prediction.
    pub prediction: scout::Prediction,
}

/// Why a request did not produce an [`Answer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// No Scout registered under that team name.
    UnknownTeam(String),
    /// The request's deadline lapsed before its model work began.
    DeadlineExpired,
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::UnknownTeam(t) => write!(f, "no Scout registered for team {t:?}"),
            PredictError::DeadlineExpired => write!(f, "request deadline expired before it ran"),
            PredictError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}
