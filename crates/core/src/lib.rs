//! # corral-core
//!
//! The Corral offline planner — the primary contribution of *"Network-Aware
//! Scheduling for Data-Parallel Jobs: Plan When You Can"* (SIGCOMM 2015).
//!
//! Given estimates of the jobs that will run on a cluster (arrival times,
//! data volumes, task counts, processing rates), the planner jointly decides
//! **where** each job's input data and compute should be placed (a set of
//! racks `Rj`) and **in what order** jobs should run (a priority `pj`),
//! so that shuffles stay rack-local and jobs are isolated from one another
//! both spatially and temporally.
//!
//! Pipeline (paper §3–§4):
//!
//! 1. [`latency`] — closed-form *latency response functions* `L_j(r)`:
//!    expected completion time of job `j` on `r` racks (§4.3), with the
//!    data-imbalance penalty `α·D_I/r` of §4.5. DAG jobs are handled by
//!    modeling every stage as a MapReduce-like unit and summing the DAG's
//!    critical path ([`latency::dag_latency`]).
//! 2. [`provision`](mod@provision) — the *provisioning phase* (§4.2): starting from one
//!    rack per job, repeatedly widen the currently-longest job, generating
//!    `J·R` candidate allocations.
//! 3. [`prioritize`] — the *prioritization phase* (Fig. 4): an extension of
//!    LPT/LIST scheduling that places widest-jobs-first onto the racks that
//!    free up earliest, producing rack sets `Rj` and start times `Tj`.
//! 4. [`planner`] — ties 2 and 3 together: evaluates every candidate
//!    allocation under the chosen [`objective::Objective`] and
//!    returns the best [`plan::Plan`].
//!
//! Two auxiliary components round out the paper's toolbox:
//!
//! * [`lp`] — the LP relaxation of Appendix A (a lower bound on *any*
//!   rack-granularity schedule), solved by a self-contained dense two-phase
//!   simplex implementation, plus a squashed-area bound for the online
//!   objective.
//! * [`predict`] — the §2 recurring-job predictor (day-type averaging),
//!   which is how Corral obtains the job characteristics it plans with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod incremental;
pub mod latency;
pub mod lp;
pub mod objective;
pub mod plan;
pub mod planner;
pub mod predict;
pub mod prioritize;
pub mod provision;

pub use incremental::{profile_fingerprint, IncrementalPlanner, ReplanKind, ReplanStats};
pub use latency::{dag_latency, mr_latency, LatencyModel, ResponseOptions};
pub use objective::Objective;
pub use plan::{Plan, PlanEntry};
pub use planner::{
    plan_jobs, plan_jobs_pinned, plan_jobs_pinned_pooled, plan_jobs_with_tracer, PlannerConfig,
};
pub use predict::{HistoryPoint, Predictor};
pub use prioritize::{prioritize_jobs, schedule_value, PlannerScratch, PrioritizeJob};
pub use provision::{
    provision, provision_pinned, provision_pinned_pooled, provision_reference, provision_with_mode,
    validate_pins, ProvisionMode, ProvisionStats,
};
