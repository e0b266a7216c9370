//! Figure 10 — TPC-H (Hive) queries scheduled with Corral vs Yarn-CS.
//!
//! Fifteen queries over a 200 GB database arrive uniformly over 25 minutes
//! and are treated as recurring (plannable). "To emulate conditions in a
//! real cluster, along with the queries, we also submit a batch of
//! MapReduce jobs chosen from the workload W1, which are run using
//! Yarn-CS" — we mark those ad hoc so the Planned scheduler handles them
//! with the capacity-style fallback path in both runs. Paper: ~18.5%
//! median / ~21% mean improvement.

use crate::experiments::bench_scale;
use crate::runner::{run_variant, RunConfig, Variant};
use crate::table;
use corral_cluster::metrics::reduction_pct;
use corral_core::Objective;
use corral_model::{JobId, JobSpec, SimTime};
use corral_trace::percentile;
use corral_workloads::{assign_uniform_arrivals, tpch, w1};

/// Builds the mixed workload: 15 plannable TPC-H queries + W1 background
/// batch (ad hoc). Returns (jobs, query ids).
pub fn mixed_workload() -> (Vec<JobSpec>, Vec<JobId>) {
    let mut queries = tpch::generate(200e9, bench_scale());
    assign_uniform_arrivals(&mut queries, SimTime::minutes(25.0), 0xF10);
    let query_ids: Vec<JobId> = queries.iter().map(|q| q.id).collect();

    // A moderate background batch: heavy enough that queries feel the
    // contention (the paper's point), light enough that Yarn-CS can still
    // schedule queries at all.
    let mut background = w1::generate(
        &w1::W1Params {
            jobs: 40,
            ..w1::W1Params::with_seed(0xB6)
        },
        bench_scale(),
    );
    for (i, b) in background.iter_mut().enumerate() {
        b.id = JobId(100 + i as u32);
        b.plannable = false; // scheduled by the fallback (Yarn-CS-like) path
        b.arrival = SimTime::ZERO;
    }
    let mut jobs = queries;
    jobs.extend(background);
    (jobs, query_ids)
}

/// Prints query-completion percentiles for both systems.
pub fn main() {
    table::section("Figure 10: TPC-H query completion times, Corral vs Yarn-CS");
    let (jobs, query_ids) = mixed_workload();
    let rc = RunConfig::testbed(Objective::AvgCompletionTime);

    let mut results: Vec<(String, Vec<f64>)> = Vec::new();
    for v in [Variant::YarnCs, Variant::Corral] {
        let r = run_variant(v, &jobs, &rc);
        let mut times: Vec<f64> = query_ids
            .iter()
            .filter_map(|id| r.jobs.get(id))
            .filter_map(|m| m.completion_time().map(|t| t.as_secs()))
            .collect();
        times.sort_by(f64::total_cmp);
        assert_eq!(
            times.len(),
            query_ids.len(),
            "{}: queries unfinished",
            v.label()
        );
        results.push((v.label().to_string(), times));
    }

    table::row(&["system", "p25", "p50", "p75", "mean"]);
    let mut csv = Vec::new();
    for (si, (label, t)) in results.iter().enumerate() {
        let mean = t.iter().sum::<f64>() / t.len() as f64;
        table::row(&[
            label.clone(),
            table::secs(percentile(t, 25.0)),
            table::secs(percentile(t, 50.0)),
            table::secs(percentile(t, 75.0)),
            table::secs(mean),
        ]);
        for r in table::cdf_rows(t) {
            csv.push(vec![si as f64, r[0], r[1]]);
        }
    }
    let y = &results[0].1;
    let c = &results[1].1;
    println!(
        "   corral vs yarn-cs: median {} | mean {}",
        table::pct(reduction_pct(percentile(y, 50.0), percentile(c, 50.0))),
        table::pct(reduction_pct(
            y.iter().sum::<f64>() / y.len() as f64,
            c.iter().sum::<f64>() / c.len() as f64
        )),
    );
    table::write_csv(
        "fig10_tpch_cdf",
        &["system_idx", "completion_s", "cum_fraction"],
        &csv,
    );
}
