//! Periodic replanning (§3.1): "The offline planner will periodically
//! receive updated estimates of future workload, rerun the planning
//! problem, and update the guidelines to the cluster scheduler."
//!
//! Setup: the initial plan is built from *forecast* arrivals (a perturbed
//! view of reality, as in Fig. 13b). Every `interval`, the planner reruns
//! over the jobs that have not started yet, now knowing their true
//! arrivals. Compared against (a) the stale single-shot plan and (b) an
//! oracle that planned with true arrivals from the start.

use crate::experiments::workload_online;
use crate::runner::RunConfig;
use crate::table;
use corral_cluster::config::DataPlacement;
use corral_cluster::engine::Engine;
use corral_cluster::metrics::RunReport;
use corral_cluster::scheduler::SchedulerKind;
use corral_core::planner::perturb_arrivals;
use corral_core::{plan_jobs, plan_jobs_pinned, Objective};
use corral_model::{JobSpec, SimTime};
use std::collections::BTreeMap;

/// Runs Corral with an initial (possibly stale) plan and optional periodic
/// replanning every `interval` (None = never).
pub fn run_with_replanning(
    true_jobs: &[JobSpec],
    forecast_jobs: &[JobSpec],
    rc: &RunConfig,
    interval: Option<SimTime>,
) -> RunReport {
    let initial = plan_jobs(&rc.params.cluster, forecast_jobs, rc.objective, &rc.planner);
    let mut params = rc.params.clone();
    params.placement = DataPlacement::PerPlan;
    let mut engine = Engine::new(params, true_jobs.to_vec(), &initial, SchedulerKind::Planned);

    if let Some(step) = interval {
        let mut t = step;
        let mut generation: u32 = 1;
        loop {
            if !engine.run_until(t) {
                break;
            }
            // Replan the not-yet-started jobs with their *true* arrivals
            // (by now the estimates have been corrected by observation).
            let unstarted = engine.unstarted_jobs();
            if !unstarted.is_empty() {
                let remaining: Vec<JobSpec> = true_jobs
                    .iter()
                    .filter(|j| unstarted.iter().any(|(id, _)| *id == j.id))
                    .cloned()
                    .map(|mut j| {
                        // Jobs whose true arrival already passed are ready now.
                        j.arrival = j.arrival.max(engine.now()).max(SimTime::ZERO);
                        j
                    })
                    .collect();
                // Input replicas were written where the *initial* plan put
                // them (§3.1: data placement happens at upload, only the
                // guidelines are updated), so replanning pins each job to
                // its data's racks and re-derives ordering around them.
                let pins: BTreeMap<_, _> = remaining
                    .iter()
                    .filter_map(|j| initial.entry(j.id).map(|e| (j.id, e.racks.clone())))
                    .collect();
                let mut fresh = plan_jobs_pinned(
                    &rc.params.cluster,
                    &remaining,
                    rc.objective,
                    &rc.planner,
                    &pins,
                );
                for (_, e) in fresh.entries.iter_mut() {
                    // Later generations must not outrank jobs that already
                    // started under earlier guidance (no preemption, §4.1).
                    e.priority = e.priority.saturating_add(generation * 100_000);
                }
                engine.apply_plan_update(&fresh);
            }
            t += step;
            generation += 1;
        }
    }
    engine.run()
}

/// Prints the comparison.
pub fn main() {
    table::section("§3.1 periodic replanning (W1 online, 50% of arrivals off by ±8 min)");
    table::row(&["strategy", "mean jct", "median jct"]);
    let rc = RunConfig::testbed(Objective::AvgCompletionTime);

    let mut agg: Vec<(String, Vec<f64>)> = vec![
        ("stale plan".into(), Vec::new()),
        ("replan 5min".into(), Vec::new()),
        ("oracle plan".into(), Vec::new()),
    ];
    let seeds = crate::config::arrival_seeds();
    // One sweep cell per arrival seed; the three strategies stay serial
    // inside the cell so they share its workload/forecast by reference.
    let per_seed = crate::config::pool().run_all(seeds.len(), |i| {
        let true_jobs = workload_online("W1", seeds[i]);
        let forecast = perturb_arrivals(&true_jobs, 0.5, SimTime::minutes(8.0), seeds[i] ^ 0x8E);
        [
            run_with_replanning(&true_jobs, &forecast, &rc, None),
            run_with_replanning(&true_jobs, &forecast, &rc, Some(SimTime::minutes(5.0))),
            run_with_replanning(&true_jobs, &true_jobs, &rc, None),
        ]
    });
    for runs in &per_seed {
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.unfinished, 0);
            agg[i].1.extend(r.completion_times());
        }
    }
    let mut csv = Vec::new();
    for (i, (label, mut t)) in agg.into_iter().enumerate() {
        t.sort_by(f64::total_cmp);
        let mean = t.iter().sum::<f64>() / t.len().max(1) as f64;
        let median = corral_trace::percentile(&t, 50.0);
        table::row(&[label, table::secs(mean), table::secs(median)]);
        csv.push(vec![i as f64, mean, median]);
    }
    println!("   finding: with data anchored at upload-time locations, replanning can only");
    println!("   reorder; most of the stale-plan penalty is placement, which is sunk — the");
    println!("   paper's periodic replanning pays off chiefly for *data not yet uploaded*");
    table::write_csv(
        "replan",
        &["strategy_idx", "mean_jct_s", "median_jct_s"],
        &csv,
    );
}
