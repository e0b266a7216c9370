//! Figure 7 — batch-scenario detail metrics, plus the §6.2.1 data-balance
//! claim:
//!
//! * 7a: % reduction in cross-rack data transferred vs Yarn-CS (paper:
//!   Corral 20–90%; ShuffleWatcher can beat Corral on W2);
//! * 7b: % reduction in compute hours (Corral up to 20%; ShuffleWatcher
//!   can exceed Corral by loading racks unevenly);
//! * 7c: CDF of per-job average reduce time for W1 (≈40% better at the
//!   median under Corral);
//! * bal: CoV of per-rack input bytes (Corral ≤ 0.004, HDFS ≈ 0.014).

use crate::experiments::workload_shared;
use crate::runner::{run_variant_grid, RunConfig, Variant};
use crate::table;
use corral_cluster::metrics::reduction_pct;
use corral_core::Objective;
use corral_trace::percentile;

/// Runs all three workloads under the four systems and prints 7a/7b/7c/bal.
pub fn main() {
    let rc = RunConfig::testbed(Objective::Makespan);
    let workloads = ["W1", "W2", "W3"];

    let mut cross = vec![[0.0; 4]; workloads.len()];
    let mut hours = vec![[0.0; 4]; workloads.len()];
    let mut covs = vec![[0.0; 4]; workloads.len()];
    let mut w1_reduce_cdfs: Vec<(String, Vec<f64>)> = Vec::new();

    let jobsets: Vec<_> = workloads.iter().map(|&w| workload_shared(w)).collect();
    let grid = run_variant_grid(&jobsets, &rc);
    for (wi, w) in workloads.iter().enumerate() {
        for (vi, (v, r)) in Variant::ALL.iter().zip(&grid[wi]).enumerate() {
            cross[wi][vi] = r.cross_rack_bytes.0;
            hours[wi][vi] = r.total_task_seconds();
            covs[wi][vi] = r.input_balance_cov;
            if *w == "W1" && matches!(v, Variant::YarnCs | Variant::Corral) {
                w1_reduce_cdfs.push((v.label().to_string(), r.avg_reduce_times()));
            }
        }
    }

    table::section("Figure 7a: % reduction in cross-rack data vs Yarn-CS (batch)");
    table::row(&["workload", "corral", "localshuffle", "shufflewatcher"]);
    let mut csv = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let c = cross[wi];
        table::row(&[
            w.to_string(),
            table::pct(reduction_pct(c[0], c[1])),
            table::pct(reduction_pct(c[0], c[2])),
            table::pct(reduction_pct(c[0], c[3])),
        ]);
        csv.push(vec![wi as f64, c[0], c[1], c[2], c[3]]);
    }
    table::write_csv(
        "fig7a_cross_rack",
        &[
            "workload_idx",
            "yarn_cs",
            "corral",
            "localshuffle",
            "shufflewatcher",
        ],
        &csv,
    );

    table::section("Figure 7b: % reduction in compute hours vs Yarn-CS (batch)");
    table::row(&["workload", "corral", "localshuffle", "shufflewatcher"]);
    let mut csv = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let h = hours[wi];
        table::row(&[
            w.to_string(),
            table::pct(reduction_pct(h[0], h[1])),
            table::pct(reduction_pct(h[0], h[2])),
            table::pct(reduction_pct(h[0], h[3])),
        ]);
        csv.push(vec![wi as f64, h[0], h[1], h[2], h[3]]);
    }
    table::write_csv(
        "fig7b_compute_hours",
        &[
            "workload_idx",
            "yarn_cs",
            "corral",
            "localshuffle",
            "shufflewatcher",
        ],
        &csv,
    );

    table::section("Figure 7c: avg reduce time per job, W1 batch (percentiles, s)");
    table::row(&["system", "p25", "p50", "p75", "p90"]);
    let mut csv = Vec::new();
    for (label, cdf) in &w1_reduce_cdfs {
        table::row(&[
            label.clone(),
            table::secs(percentile(cdf, 25.0)),
            table::secs(percentile(cdf, 50.0)),
            table::secs(percentile(cdf, 75.0)),
            table::secs(percentile(cdf, 90.0)),
        ]);
        for r in table::cdf_rows(cdf) {
            csv.push(vec![if label == "yarn-cs" { 0.0 } else { 1.0 }, r[0], r[1]]);
        }
    }
    table::write_csv(
        "fig7c_reduce_time_cdf",
        &["system", "avg_reduce_s", "cum_fraction"],
        &csv,
    );

    table::section("§6.2.1 data balance: CoV of per-rack input bytes");
    table::row(&[
        "workload",
        "hdfs (yarn-cs)",
        "corral",
        "paper hdfs",
        "paper corral",
    ]);
    for (wi, w) in workloads.iter().enumerate() {
        table::row(&[
            w.to_string(),
            format!("{:.4}", covs[wi][0]),
            format!("{:.4}", covs[wi][1]),
            "~0.014".to_string(),
            "<=0.004".to_string(),
        ]);
    }
}
