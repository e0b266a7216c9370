//! # corral-serve
//!
//! The Corral planner as a **long-lived scheduling service**. The paper
//! evaluates "plan when you can" batch-style — one planning problem per
//! experiment. This crate turns the same planner into the resident form
//! network-aware schedulers are actually deployed in: a deterministic
//! service loop that consumes a stream of job arrivals and completions
//! and emits admission, dispatch, and completion decisions.
//!
//! Architecture (DESIGN.md §7):
//!
//! * [`scheduler`] — the state machine. Admission control with a bounded
//!   queue; on every arrival/completion it **incrementally replans** the
//!   queued (not-yet-dispatched) jobs: survivors are pinned to the racks
//!   chosen at their admission (their data is already uploaded — §3.1),
//!   so an arrival perturbs only the newcomer's candidates and a
//!   completion re-times a fully pinned problem. Latency response tables
//!   are reused across replans via
//!   [`corral_core::IncrementalPlanner`]; the full
//!   [`corral_core::plan_jobs_pinned`] stays the oracle, and tripwire
//!   mode asserts plan-equality on every replan.
//! * [`cache`] — a plan cache keyed by (cluster-config fingerprint, job
//!   template hashes, relative arrivals, pins, id-order permutation);
//!   [`ServeStats`] counts its hits and misses. Replans happen in
//!   *now-relative* time, so an empty-queue arrival of a recurring
//!   template hits the cache no matter when it lands.
//! * [`event`] — the event/decision vocabulary of the service.
//! * [`source`] — frontends: an in-process channel service and the JSONL
//!   stream reader behind `corral-sim serve`.
//! * [`wire`] — the JSONL wire format (events in, decisions out), built
//!   on [`corral_trace::json`].
//! * [`snapshot`] — versioned text snapshot/restore of scheduler state;
//!   a restored run's decision stream is byte-identical to the
//!   uninterrupted one.
//! * [`driver`] — co-simulation: the scheduler driving a live
//!   [`corral_cluster::engine::Engine`] through its feed/drain seam
//!   (`submit_jobs` / `drain_finished`) instead of self-clocking.
//!
//! Failure model (DESIGN.md §8): machine/rack failure and repair events
//! flow through the same wire as arrivals. With the §7 fallback on, the
//! scheduler masks dead capacity behind a **virtual rack map** (the
//! planner's rack symmetry makes masking exact), re-anchors queued jobs
//! whose racks died, and keys the plan cache on the dead set. Degraded
//! modes never panic:
//!
//! * [`error`] — the structured [`error::ServeError`] every fallible
//!   serving path returns (malformed lines, corrupt snapshots, overload).
//! * [`chaos`] — deterministic seeded failure-schedule injection for
//!   tests and the chaos golden cells.
//! * malformed input degrades to [`event::ServeEvent::Malformed`]
//!   (counted + structured reject), snapshots are checksummed, the
//!   channel frontend is bounded with explicit shed-load, and dispatch
//!   onto dead racks retries with backoff before dropping its pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod driver;
pub mod error;
pub mod event;
pub(crate) mod fault;
pub mod scheduler;
pub mod snapshot;
pub mod source;
pub mod wire;

pub use cache::PlanCache;
pub use chaos::ChaosSpec;
pub use driver::EngineDriver;
pub use error::ServeError;
pub use event::{Decision, RejectCause, ServeEvent};
pub use scheduler::{Scheduler, ServeConfig, ServeStats};
pub use source::{spawn_service, spawn_service_bounded, ServiceHandle, ServiceResult};
