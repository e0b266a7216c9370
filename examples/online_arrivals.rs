//! Online scenario: jobs arrive over time; the planner minimizes average
//! completion time; completion-time percentiles are compared against
//! Yarn-CS — a miniature of the paper's Figure 8.
//!
//! ```text
//! cargo run --release -p corral --example online_arrivals
//! ```

use corral::cluster::config::DataPlacement;
use corral::prelude::*;
use corral::trace::percentile;
use corral::workloads::w1;

fn main() {
    let cfg = ClusterConfig::testbed_210();
    let mut jobs = w1::generate(
        &w1::W1Params {
            jobs: 30,
            ..w1::W1Params::with_seed(21)
        },
        Scale {
            task_divisor: 8.0,
            data_divisor: 2.0,
        },
    );
    // Arrivals uniform over 20 minutes.
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(20.0), 99);

    let background = BackgroundModel::Constant {
        per_rack: cfg.rack_core_bandwidth() * 0.5,
    };
    let base = SimParams {
        cluster: cfg.clone(),
        background,
        horizon: SimTime::hours(12.0),
        ..SimParams::testbed()
    };

    // Plan with the online objective.
    let plan = plan_jobs(
        &cfg,
        &jobs,
        Objective::AvgCompletionTime,
        &PlannerConfig::default(),
    );

    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10}",
        "system", "p25", "p50", "p90", "mean"
    );
    for (label, kind, placement, with_plan) in [
        (
            "yarn-cs",
            SchedulerKind::Capacity,
            DataPlacement::HdfsRandom,
            false,
        ),
        (
            "corral",
            SchedulerKind::Planned,
            DataPlacement::PerPlan,
            true,
        ),
    ] {
        let mut params = base.clone();
        params.placement = placement;
        let empty = Plan::default();
        let p = if with_plan { &plan } else { &empty };
        let report = Engine::new(params, jobs.clone(), p, kind).run();
        let t = report.completion_times();
        println!(
            "{label:>10} {:>9.1}s {:>9.1}s {:>9.1}s {:>9.1}s",
            percentile(&t, 25.0),
            percentile(&t, 50.0),
            percentile(&t, 90.0),
            report.avg_completion_time(),
        );
    }
}
