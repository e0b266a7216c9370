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
//!   mode asserts plan-equality on every replan. Every replan is computed
//!   by the planner; there is no whole-plan cache.
//! * [`event`] — the event/decision vocabulary of the service.
//! * [`source`] — the strict and lossy JSONL stream readers behind
//!   `corral-sim serve`, and the batch-trace adapter.
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
//! whose racks died. Degraded modes never panic:
//!
//! * [`error`] — the structured [`error::ServeError`] every fallible
//!   serving path returns (malformed lines, corrupt snapshots, config
//!   mismatches).
//! * [`chaos`] — deterministic seeded failure-schedule injection for
//!   tests and the chaos golden cells.
//! * malformed input degrades to [`event::ServeEvent::Malformed`]
//!   (counted + structured reject), snapshots are checksummed, and
//!   dispatch onto dead racks retries with backoff before dropping its
//!   pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod driver;
pub mod error;
pub mod event;
pub(crate) mod fault;
pub mod scheduler;
pub mod snapshot;
pub mod source;
pub mod wire;

pub use chaos::ChaosSpec;
pub use driver::EngineDriver;
pub use error::ServeError;
pub use event::{Decision, RejectCause, ServeEvent};
pub use scheduler::{Scheduler, ServeConfig, ServeStats};
