//! Latency-model validation (§4.3).
//!
//! The paper's response functions are "proxies for the actual latencies,
//! and need not be highly accurate" — what matters is that they *rank*
//! configurations correctly so the planner picks good allocations. This
//! experiment quantifies that: for every planned job, compare the planner's
//! predicted latency `L_j(r_j)` against the job's simulated execution time
//! (start → finish, queueing excluded), and report the median absolute
//! error plus the Spearman rank correlation.

use crate::experiments::workload;
use crate::runner::{run_variant, RunConfig, Variant};
use crate::table;
use corral_core::{plan_jobs, Objective};

/// Spearman rank correlation of two equal-length samples.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0; v.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let ra = rank(a);
    let rb = rank(b);
    let mean = (n as f64 - 1.0) / 2.0;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        cov += (ra[i] - mean) * (rb[i] - mean);
        va += (ra[i] - mean).powi(2);
        vb += (rb[i] - mean).powi(2);
    }
    cov / (va.sqrt() * vb.sqrt()).max(1e-12)
}

/// Runs the validation over a workload; returns
/// `(median |err| %, spearman)`.
pub fn validate(workload_name: &str) -> (f64, f64) {
    let rc = RunConfig::testbed(Objective::Makespan);
    let jobs = workload(workload_name);
    let plan = plan_jobs(&rc.params.cluster, &jobs, rc.objective, &rc.planner);
    let report = run_variant(Variant::Corral, &jobs, &rc);

    let mut predicted = Vec::new();
    let mut actual = Vec::new();
    let mut errors = Vec::new();
    for j in &jobs {
        let (Some(e), Some(m)) = (plan.entry(j.id), report.jobs.get(&j.id)) else {
            continue;
        };
        let (Some(start), Some(fin)) = (m.started, m.finished) else {
            continue;
        };
        let run = (fin - start).as_secs();
        let pred = e.predicted_latency.as_secs();
        if run <= 0.0 {
            continue;
        }
        predicted.push(pred);
        actual.push(run);
        errors.push(((pred - run) / run).abs() * 100.0);
    }
    errors.sort_by(f64::total_cmp);
    let median_err = corral_trace::percentile(&errors, 50.0);
    (median_err, spearman(&predicted, &actual))
}

/// Prints the validation table.
pub fn main() {
    table::section("§4.3 latency-model validation: predicted L_j(r) vs simulated runtime");
    table::row(&["workload", "median |err|", "rank corr"]);
    let mut csv = Vec::new();
    for (wi, w) in ["W1", "W3"].iter().enumerate() {
        let (err, rho) = validate(w);
        table::row(&[w.to_string(), format!("{err:.0}%"), format!("{rho:.2}")]);
        csv.push(vec![wi as f64, err, rho]);
    }
    println!("   the model is a coarse proxy (errors expected); planning only needs the ranking");
    table::write_csv(
        "latmodel",
        &["workload_idx", "median_abs_err_pct", "spearman"],
        &csv,
    );
}

#[cfg(test)]
mod tests {
    use super::spearman;

    #[test]
    fn spearman_basics() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]) + 1.0).abs() < 1e-12);
        let mid = spearman(&[1.0, 2.0, 3.0, 4.0], &[2.0, 1.0, 4.0, 3.0]);
        assert!(mid > 0.0 && mid < 1.0);
    }
}
