//! Event-sourced durability for the serving plane.
//!
//! Everything stateful the online components hold — the serve
//! `ServedLog`, the lifecycle `FeedbackStore` and controller phase, the
//! registry's promotion timeline — is reconstructible from an
//! append-only log of [`Event`]s, and is held in this crate's own
//! state types ([`ServedState`], [`FeedbackState`], [`Timeline`],
//! [`TeamLifecycle`]), so replay and the live path share every rule.
//! Producers append **log-first**: the event is written (and
//! CRC-framed) before the state change is acknowledged, so a killed
//! process recovers to exactly the state it died with by replaying the
//! log, and `scoutctl wal replay --until` answers "why did we promote
//! that model?" forensically from the log alone.
//!
//! Module map:
//!
//! * [`crc`] — dependency-free CRC-32 (frame checksums);
//! * [`frame`] — the length-prefixed, CRC-checked on-disk record
//!   format, with a total scanner that classifies torn/corrupt tails;
//! * [`event`] — the versioned event schema and its canonical JSON
//!   codec;
//! * [`projection`] — the recoverable state types and the deterministic
//!   fold of the event stream into them, with a canonical byte-stable
//!   rendering (also the snapshot format);
//! * [`log`] — the segmented write-ahead log: group-commit fsync,
//!   rotation, background snapshots, crash recovery, and read-only
//!   replay. The log holds no live copy of the projections: recovery,
//!   snapshots and [`Wal::projections`] are one fold of the segments
//!   on disk.

pub mod crc;
pub mod event;
pub mod frame;
pub mod log;
pub mod projection;

pub use event::{Event, INT_BOUND, SCHEMA};
pub use log::{replay_dir, SyncPolicy, Wal, WalConfig};
pub use projection::{
    Feedback, FeedbackState, PhaseState, Projections, ResolveError, ServedRecord, ServedState,
    TeamLifecycle, Timeline, Versioned, DEFAULT_FEEDBACK_CAP, DEFAULT_SERVED_CAP, HISTORY_CAP,
};
