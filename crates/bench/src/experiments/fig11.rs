//! Figure 11 — mixed recurring + ad hoc workload (§6.4): 100 recurring W1
//! jobs arriving over [0, 60 min] (planned by Corral) and 50 ad hoc W1
//! jobs submitted as a batch (always scheduled Yarn-CS-style). Paper:
//! planning the recurring jobs improves recurring completion times by ~33%
//! (mean) / 27% (median) *and* speeds up the ad hoc jobs (~37% at the 90th
//! percentile, ~28% better makespan) because planned jobs free core
//! bandwidth.

use crate::experiments::bench_scale;
use crate::runner::{run_variant, RunConfig, Variant};
use crate::table;
use corral_cluster::metrics::reduction_pct;
use corral_core::Objective;
use corral_model::{JobId, JobSpec, SimTime};
use corral_trace::percentile;
use corral_workloads::{assign_uniform_arrivals, w1};

/// Builds the mix. Returns (jobs, recurring ids, ad hoc ids).
pub fn mixed_workload() -> (Vec<JobSpec>, Vec<JobId>, Vec<JobId>) {
    let mut recurring = w1::generate(
        &w1::W1Params {
            jobs: 100,
            bytes_per_task: 512e6,
            ..w1::W1Params::with_seed(0xF11A)
        },
        bench_scale(),
    );
    assign_uniform_arrivals(&mut recurring, SimTime::minutes(60.0), 0xF11B);
    let rec_ids: Vec<JobId> = recurring.iter().map(|j| j.id).collect();

    // Ad hoc jobs are the small research/testing jobs of §6.4 — a
    // small/medium W1 mix (a batch as heavy as the planned workload would
    // simply saturate the cluster for both systems).
    let mut adhoc = w1::generate(
        &w1::W1Params {
            jobs: 50,
            mix: [0.7, 0.3, 0.0],
            bytes_per_task: 512e6,
            ..w1::W1Params::with_seed(0xF11C)
        },
        bench_scale(),
    );
    let mut adhoc_ids = Vec::new();
    for (i, j) in adhoc.iter_mut().enumerate() {
        j.id = JobId(1000 + i as u32);
        j.plannable = false;
        j.arrival = SimTime::ZERO;
        adhoc_ids.push(j.id);
    }
    let mut jobs = recurring;
    jobs.extend(adhoc);
    (jobs, rec_ids, adhoc_ids)
}

fn times_of(r: &corral_cluster::metrics::RunReport, ids: &[JobId]) -> Vec<f64> {
    let mut v: Vec<f64> = ids
        .iter()
        .filter_map(|id| r.jobs.get(id))
        .filter_map(|m| m.completion_time().map(|t| t.as_secs()))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Prints recurring and ad hoc CDpercentiles under both systems.
pub fn main() {
    table::section("Figure 11: recurring + ad hoc mix (completion-time percentiles, s)");
    let (jobs, rec_ids, adhoc_ids) = mixed_workload();
    let rc = RunConfig::testbed(Objective::AvgCompletionTime);

    let mut rows: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for v in [Variant::YarnCs, Variant::Corral] {
        let r = run_variant(v, &jobs, &rc);
        assert_eq!(r.unfinished, 0, "{}: unfinished", v.label());
        rows.push((
            v.label().to_string(),
            times_of(&r, &rec_ids),
            times_of(&r, &adhoc_ids),
        ));
    }

    let mut csv = Vec::new();
    for (group_idx, group) in ["recurring", "ad-hoc"].iter().enumerate() {
        table::row(&[group.to_string(), "p50".into(), "p90".into(), "mean".into()]);
        for (si, (label, rec, adhoc)) in rows.iter().enumerate() {
            let t = if group_idx == 0 { rec } else { adhoc };
            let mean = t.iter().sum::<f64>() / t.len().max(1) as f64;
            table::row(&[
                format!("  {label}"),
                table::secs(percentile(t, 50.0)),
                table::secs(percentile(t, 90.0)),
                table::secs(mean),
            ]);
            for r in table::cdf_rows(t) {
                csv.push(vec![group_idx as f64, si as f64, r[0], r[1]]);
            }
        }
    }
    let rec_gain = reduction_pct(
        rows[0].1.iter().sum::<f64>() / rows[0].1.len().max(1) as f64,
        rows[1].1.iter().sum::<f64>() / rows[1].1.len().max(1) as f64,
    );
    let adhoc_gain = reduction_pct(percentile(&rows[0].2, 90.0), percentile(&rows[1].2, 90.0));
    println!(
        "   corral gains: recurring mean {} | ad hoc p90 {}",
        table::pct(rec_gain),
        table::pct(adhoc_gain)
    );
    table::write_csv(
        "fig11_mix_cdf",
        &["group_idx", "system_idx", "completion_s", "cum_fraction"],
        &csv,
    );
}
