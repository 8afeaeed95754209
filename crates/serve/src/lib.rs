//! The online half of the Scouts system: an incident-routing server.
//!
//! The paper splits each Scout into an offline component (training, the
//! `scout` crate) and an **online component** that serves routing
//! decisions to the incident-management pipeline. This crate is that
//! online component. Every request walks one ordered path —
//! [`http`] parse → [`admission`] → (for `/v1/route`) the `storm` front
//! end → one of two queues or a direct call → render — built from:
//!
//! * [`registry::ModelRegistry`] — versioned `Arc`-swapped models, so a
//!   retrain (the paper retrains Scouts on a schedule, §6) can be rolled
//!   out with `POST /v1/models/reload` while predictions are in flight;
//! * [`admission::Admission`] — a hard cap on outstanding work with
//!   load-shedding (`503` + `Retry-After`) and per-request deadlines
//!   (`X-Deadline-Ms` → `504`), because a late routing decision is a
//!   useless one;
//! * `coalesce` — the one micro-batching queue: a batch is what queued
//!   while the previous one ran, under a batch span linking every
//!   coalesced request, with the expired-deadline split and
//!   drain-never-drop shutdown. It has exactly two handlers:
//!   [`batcher`] (predict: group by team → one pinned model version →
//!   one pooled `Scout::predict_many` pass, bit-identical to sequential
//!   predicts) and the storm layer's Sev3 route coalescer in [`fleet`];
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
pub mod batcher;
pub mod client;
mod coalesce;
pub mod durability;
pub mod feedback;
pub mod fleet;
pub mod http;
pub mod registry;
pub mod server;

pub use admission::{Admission, Permit};
pub use batcher::{Answer, PredictError};
pub use client::{Client, ClientError, ClientResponse};
pub use durability::WalJournal;
pub use feedback::{Feedback, FeedbackHook, ResolveError, ServedLog, ServedRecord};
pub use fleet::{FleetConfig, ScoutError, TeamOutcome};
pub use http::{HttpError, Request, Response};
pub use registry::{ModelEntry, ModelRegistry, RegistryChange, RegistryError, RegistryJournal};
pub use server::{Engine, ServeConfig, Server};
