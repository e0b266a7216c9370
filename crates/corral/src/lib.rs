//! # corral
//!
//! Umbrella crate for the Corral reproduction — *"Network-Aware Scheduling
//! for Data-Parallel Jobs: Plan When You Can"* (SIGCOMM 2015) — re-exporting
//! the public API of every workspace crate:
//!
//! * [`model`] — shared domain types (ids, units, cluster config, job specs);
//! * [`simnet`] — the flow-level CLOS fabric (max-min "TCP", Varys coflows);
//! * [`dfs`] — the HDFS-like filesystem model with pluggable placement;
//! * [`cluster`] — the discrete-event cluster engine and runtime schedulers;
//! * [`core`] — Corral's offline planner (latency models, provisioning,
//!   prioritization, LP bounds, recurring-job predictor);
//! * [`workloads`] — generators for the paper's W1/W2/W3, TPC-H DAGs,
//!   slot CDFs and recurring histories;
//! * [`sweep`] — the deterministic parallel sweep engine (cell grids,
//!   work pool, cross-seed aggregation) behind `--jobs`/`--seeds`.
//!
//! ## Quickstart
//!
//! ```
//! use corral::prelude::*;
//!
//! // 1. A cluster and a small workload.
//! let cfg = ClusterConfig::tiny_test();
//! let jobs = corral::workloads::w1::generate(
//!     &corral::workloads::w1::W1Params { jobs: 4, ..corral::workloads::w1::W1Params::with_seed(1) },
//!     Scale { task_divisor: 8.0, data_divisor: 8.0 },
//! );
//!
//! // 2. Plan offline.
//! let plan = plan_jobs(&cfg, &jobs, Objective::Makespan, &PlannerConfig::default());
//! assert_eq!(plan.len(), 4);
//!
//! // 3. Execute the plan on the simulated cluster.
//! let params = SimParams {
//!     cluster: cfg,
//!     placement: DataPlacement::PerPlan,
//!     horizon: SimTime::hours(8.0),
//!     ..SimParams::testbed()
//! };
//! let report = Engine::new(params, jobs, &plan, SchedulerKind::Planned).run();
//! assert_eq!(report.unfinished, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use corral_cluster as cluster;
pub use corral_core as core;
pub use corral_dfs as dfs;
pub use corral_model as model;
pub use corral_serve as serve;
pub use corral_simnet as simnet;
pub use corral_sweep as sweep;
pub use corral_trace as trace;
pub use corral_workloads as workloads;

pub mod cli;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use corral_cluster::config::{DataPlacement, FailureSpec, NetPolicy, SimParams};
    pub use corral_cluster::engine::Engine;
    pub use corral_cluster::metrics::{reduction_pct, JobMetrics, RunReport};
    pub use corral_cluster::scheduler::SchedulerKind;
    pub use corral_core::{plan_jobs, Objective, Plan, PlannerConfig};
    pub use corral_model::{
        Bandwidth, Bytes, ClusterConfig, JobId, JobProfile, JobSpec, MapReduceProfile, RackId,
        SimTime,
    };
    pub use corral_simnet::background::BackgroundModel;
    pub use corral_trace::percentile;
    pub use corral_workloads::{assign_uniform_arrivals, make_batch, Scale};
}
