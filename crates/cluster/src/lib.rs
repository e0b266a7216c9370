//! # corral-cluster
//!
//! A deterministic discrete-event simulator of a YARN/HDFS-style big-data
//! cluster, faithful to the mechanisms the Corral paper (SIGCOMM 2015)
//! builds on:
//!
//! * machines with a fixed number of task **slots**, grouped into racks on
//!   an oversubscribed CLOS fabric (`corral-simnet`);
//! * job **input files** stored in a DFS with pluggable replica placement
//!   (`corral-dfs`);
//! * jobs executed as **stage DAGs** (MapReduce is the 2-stage special
//!   case): source stages read DFS input with the usual
//!   local/rack-local/remote hierarchy, downstream stages *shuffle* from the
//!   machines that produced their inputs, sink stages write replicated DFS
//!   output — every byte that moves between machines becomes a fluid flow
//!   on the simulated fabric;
//! * pluggable **runtime schedulers** assigning pending tasks to free slots:
//!   - [`scheduler::CapacityScheduler`] — YARN's capacity scheduler with
//!     delay scheduling for source-stage locality (the paper's baseline,
//!     "Yarn-CS");
//!   - [`scheduler::PlannedScheduler`] — Corral's cluster scheduler (§3.1):
//!     tasks confined to each job's rack set `Rj`, slots to the
//!     highest-priority job allowed on the rack, work-conserving across
//!     jobs sharing racks, and the §7 failure fallback.
//!
//!   The §6.1 systems differ only in where each job's guideline (rack set
//!   plus priority) comes from, which [`Engine::submit_jobs`] derives from
//!   the [`SchedulerKind`]: *Corral* takes it from the offline plan with
//!   plan-aware data placement ([`config::DataPlacement::PerPlan`]);
//!   *LocalShuffle* takes the plan with stock-HDFS placement
//!   ([`config::DataPlacement::HdfsRandom`]); *ShuffleWatcher* picks a
//!   greedy rack subset per job with FIFO priorities, and no placement.
//!   All three run [`scheduler::PlannedScheduler`].
//!
//! The engine co-simulates with the network fabric: between cluster events
//! the fabric evolves linearly, and whichever of (next cluster event, next
//! flow completion) is earlier drives the clock. Identical inputs produce
//! bit-identical runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod job;
pub mod metrics;
pub mod scheduler;

pub use config::{DataPlacement, FailureSpec, IngestMode, NetPolicy, SimParams, StragglerModel};
pub use engine::Engine;
pub use metrics::{JobMetrics, RunReport, TaskRecord};
pub use scheduler::SchedulerKind;
