//! Shared experiment plumbing: the four compared systems and a uniform way
//! to run a workload under each.

use corral_cluster::config::{DataPlacement, SimParams};
use corral_cluster::engine::Engine;
use corral_cluster::metrics::RunReport;
use corral_cluster::scheduler::SchedulerKind;
use corral_core::{plan_jobs, Objective, Plan, PlannerConfig};
use corral_model::JobSpec;
use corral_model::SimTime;
use corral_simnet::background::BackgroundModel;

/// The four systems compared throughout §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// YARN capacity scheduler + delay scheduling, stock HDFS placement.
    YarnCs,
    /// Corral: offline plan drives both data placement and task placement.
    Corral,
    /// Corral's task placement, stock HDFS data placement (§6.1 baseline).
    LocalShuffle,
    /// ShuffleWatcher: per-job greedy racks, no planning, stock HDFS.
    ShuffleWatcher,
}

impl Variant {
    /// All four, in the paper's presentation order.
    pub const ALL: [Variant; 4] = [
        Variant::YarnCs,
        Variant::Corral,
        Variant::LocalShuffle,
        Variant::ShuffleWatcher,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::YarnCs => "yarn-cs",
            Variant::Corral => "corral",
            Variant::LocalShuffle => "localshuffle",
            Variant::ShuffleWatcher => "shufflewatcher",
        }
    }
}

/// Parameters shared by one experiment's runs.
///
/// Concurrency hygiene: `RunConfig` (and everything inside `SimParams`)
/// is plain owned data — no `Arc`/`Rc`, no interior mutability, no file
/// paths — so cloning one per sweep cell shares nothing mutable. Tracer
/// sinks are *not* part of the config (the engine takes one explicitly
/// via `Engine::set_tracer`), and [`run_variant`] never touches the
/// filesystem; every `results/*.csv` is written by an experiment's
/// `main()` after all cells have been collected, so two cells can never
/// race on an output file. `sweep_hygiene` below asserts the
/// send/sync part of this contract at compile time.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Simulator parameters (cluster, background, seed, horizon …).
    pub params: SimParams,
    /// Planning objective for the plan-based variants.
    pub objective: Objective,
    /// Planner configuration (latency-model options).
    pub planner: PlannerConfig,
}

impl RunConfig {
    /// The standard experimental setup of §6.1: the 210-machine testbed
    /// with background traffic occupying 50% of each rack's core link,
    /// TCP fabric.
    ///
    /// The simulator runs 4 slots per machine instead of the testbed's 32,
    /// with workload task counts scaled by the same rule (see
    /// EXPERIMENTS.md).
    pub fn testbed(objective: Objective) -> Self {
        let mut params = SimParams::testbed();
        params.cluster = scaled_testbed();
        params.background = background_fraction(&params.cluster, 0.5);
        params.horizon = SimTime::hours(24.0);
        RunConfig {
            params,
            objective,
            planner: PlannerConfig::default(),
        }
    }
}

/// The 210-machine testbed as the experiments use it. NICs stay at the
/// testbed's 10 Gbps: the paper's regime is *core-bound* (oversubscribed
/// rack uplinks saturate long before NICs), and scaling NICs down with the
/// slot count would instead make the NICs the bottleneck, which changes
/// who wins. See EXPERIMENTS.md for the calibration discussion.
pub fn scaled_testbed() -> corral_model::ClusterConfig {
    corral_model::ClusterConfig::testbed_210()
}

/// Background traffic occupying `frac` of each rack's core uplink — the
/// paper states background consumes "up to 50% of the core bandwidth
/// usage", and Fig. 12 sweeps 30/35/40 Gbps of the testbed's 60 Gbps
/// uplinks (fractions 0.5 / 0.583 / 0.667).
pub fn background_fraction(cluster: &corral_model::ClusterConfig, frac: f64) -> BackgroundModel {
    BackgroundModel::Constant {
        per_rack: cluster.rack_core_bandwidth() * frac,
    }
}

/// Runs `jobs` under one system variant and returns the report.
///
/// Corral and LocalShuffle first run the offline planner over the plannable
/// jobs (the paper's LocalShuffle "schedules jobs using the same offline
/// planning phase as Corral", §6.1); Yarn-CS and ShuffleWatcher run
/// unplanned.
pub fn run_variant(v: Variant, jobs: &[JobSpec], rc: &RunConfig) -> RunReport {
    let mut params = rc.params.clone();
    let (plan, kind) = match v {
        Variant::YarnCs => {
            params.placement = DataPlacement::HdfsRandom;
            (Plan::default(), SchedulerKind::Capacity)
        }
        Variant::Corral => {
            params.placement = DataPlacement::PerPlan;
            let plan = plan_jobs(&params.cluster, jobs, rc.objective, &rc.planner);
            (plan, SchedulerKind::Planned)
        }
        Variant::LocalShuffle => {
            params.placement = DataPlacement::HdfsRandom;
            let plan = plan_jobs(&params.cluster, jobs, rc.objective, &rc.planner);
            (plan, SchedulerKind::Planned)
        }
        Variant::ShuffleWatcher => {
            params.placement = DataPlacement::HdfsRandom;
            (Plan::default(), SchedulerKind::ShuffleWatcher)
        }
    };
    Engine::new(params, jobs.to_vec(), &plan, kind).run()
}

/// Runs the full `(jobset × variant)` grid on the harness's sweep pool
/// and returns reports as `out[jobset_idx][variant_idx]` (variants in
/// [`Variant::ALL`] order). Jobsets may be owned (`Vec<JobSpec>`) or the
/// memoized `Arc<[JobSpec]>` of `experiments::workload_shared`, which
/// cells borrow instead of cloning.
///
/// Each cell is one independent [`run_variant`] call — its engine, RNGs
/// and tracer are cell-owned — so the collected grid is byte-identical
/// whatever `--jobs` is (asserted by
/// `crates/bench/tests/sweep_determinism.rs`). A panicking cell fails
/// the sweep *after* every other cell has completed, with a message
/// naming all failed cells.
pub fn run_variant_grid<J>(jobsets: &[J], rc: &RunConfig) -> Vec<Vec<RunReport>>
where
    J: AsRef<[JobSpec]> + Sync,
{
    let nv = Variant::ALL.len();
    let reports = crate::config::pool().run_all(jobsets.len() * nv, |i| {
        run_variant(Variant::ALL[i % nv], jobsets[i / nv].as_ref(), rc)
    });
    collect_grid(reports, jobsets.len(), nv)
}

fn collect_grid(reports: Vec<RunReport>, njobsets: usize, nv: usize) -> Vec<Vec<RunReport>> {
    let mut out: Vec<Vec<RunReport>> = Vec::with_capacity(njobsets);
    let mut it = reports.into_iter();
    for _ in 0..njobsets {
        out.push(it.by_ref().take(nv).collect());
    }
    out
}

// Compile-time half of the hygiene contract: a cell config can be moved
// to and shared across worker threads only if it contains no un-synced
// interior mutability.
#[allow(dead_code)]
mod sweep_hygiene {
    fn assert_send_sync<T: Send + Sync>() {}
    fn run_config_is_shareable() {
        assert_send_sync::<super::RunConfig>();
        assert_send_sync::<corral_cluster::metrics::RunReport>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corral_model::{Bandwidth, ClusterConfig};
    use corral_workloads::{w1, Scale};

    #[test]
    fn all_variants_run_a_small_workload() {
        let jobs = w1::generate(
            &w1::W1Params {
                jobs: 5,
                ..w1::W1Params::with_seed(3)
            },
            Scale {
                task_divisor: 10.0,
                data_divisor: 10.0,
            },
        );
        let mut rc = RunConfig::testbed(Objective::Makespan);
        rc.params.cluster = ClusterConfig::tiny_test();
        rc.params.background = BackgroundModel::Constant {
            per_rack: Bandwidth::gbps(5.0),
        };
        for v in Variant::ALL {
            let r = run_variant(v, &jobs, &rc);
            assert_eq!(r.unfinished, 0, "{} left jobs unfinished", v.label());
            assert_eq!(r.jobs.len(), 5);
        }
    }
}
