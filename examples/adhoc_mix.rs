//! Mixed workload (§6.4): recurring jobs are planned by Corral while ad hoc
//! jobs — unknown to the planner — are scheduled with the fallback
//! (Yarn-CS-like) policy on leftover slots. Planning the recurring jobs
//! frees core bandwidth, so the ad hoc jobs speed up too.
//!
//! ```text
//! cargo run --release -p corral --example adhoc_mix
//! ```

use corral::cluster::config::DataPlacement;
use corral::prelude::*;
use corral::trace::percentile;
use corral::workloads::w1;

fn main() {
    let cfg = ClusterConfig::testbed_210();
    let scale = Scale {
        task_divisor: 8.0,
        data_divisor: 2.0,
    };
    // 20 recurring jobs over 15 minutes + 10 ad hoc jobs at t = 0.
    let mut jobs = w1::generate(
        &w1::W1Params {
            jobs: 20,
            ..w1::W1Params::with_seed(61)
        },
        scale,
    );
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(15.0), 62);
    let recurring_ids: Vec<JobId> = jobs.iter().map(|j| j.id).collect();

    let mut adhoc = w1::generate(
        &w1::W1Params {
            jobs: 10,
            ..w1::W1Params::with_seed(63)
        },
        scale,
    );
    let mut adhoc_ids = Vec::new();
    for (i, j) in adhoc.iter_mut().enumerate() {
        j.id = JobId(500 + i as u32);
        j.plannable = false; // the planner never sees these
        adhoc_ids.push(j.id);
    }
    jobs.extend(adhoc);

    let background = BackgroundModel::Constant {
        per_rack: cfg.rack_core_bandwidth() * 0.5,
    };
    let base = SimParams {
        cluster: cfg.clone(),
        background,
        horizon: SimTime::hours(12.0),
        ..SimParams::testbed()
    };

    // Only the recurring jobs end up in the plan.
    let plan = plan_jobs(
        &cfg,
        &jobs,
        Objective::AvgCompletionTime,
        &PlannerConfig::default(),
    );
    assert_eq!(plan.len(), recurring_ids.len());

    let summarize = |report: &RunReport, ids: &[JobId]| -> (f64, f64) {
        let mut t: Vec<f64> = ids
            .iter()
            .filter_map(|id| report.jobs[id].completion_time())
            .map(|x| x.as_secs())
            .collect();
        t.sort_by(f64::total_cmp);
        let mean = t.iter().sum::<f64>() / t.len().max(1) as f64;
        (mean, percentile(&t, 90.0))
    };

    println!(
        "{:>10} {:>16} {:>16} {:>16} {:>16}",
        "system", "recurring mean", "recurring p90", "adhoc mean", "adhoc p90"
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
        assert_eq!(report.unfinished, 0);
        let (rm, r90) = summarize(&report, &recurring_ids);
        let (am, a90) = summarize(&report, &adhoc_ids);
        println!(
            "{label:>10} {:>15.1}s {:>15.1}s {:>15.1}s {:>15.1}s",
            rm, r90, am, a90
        );
    }
}
