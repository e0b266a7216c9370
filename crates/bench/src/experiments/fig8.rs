//! Figure 8 — online scenario (arrivals uniform in [0, 60 min]): CDFs of
//! job completion time for W1/W2/W3 under all four systems. The paper:
//! Corral improves the median by 30–56% and the mean by 26–36% vs Yarn-CS;
//! ShuffleWatcher tracks Corral at low percentiles but collapses at the
//! tail.

use crate::experiments::workload_online;
use crate::runner::{run_variant_grid, RunConfig, Variant};
use crate::table;
use corral_cluster::metrics::reduction_pct;
use corral_core::Objective;
use corral_trace::percentile;

/// Completion-time distributions per system for one workload, pooled
/// over the configured arrival-seed pool
/// ([`crate::config::arrival_seeds`], default 8 seeds — Yarn-CS
/// completion times vary a lot with the arrival pattern while Corral's
/// are stable, the isolation the paper sells, so single-seed results
/// are noisy). The `(seed × variant)` grid runs on the sweep pool;
/// pooling order is seed-major and deterministic.
pub fn run(workload_name: &str) -> Vec<(String, Vec<f64>)> {
    let rc = RunConfig::testbed(Objective::AvgCompletionTime);
    let seeds = crate::config::arrival_seeds();
    let jobsets: Vec<_> = seeds
        .iter()
        .map(|&s| workload_online(workload_name, s))
        .collect();
    let grid = run_variant_grid(&jobsets, &rc);
    let mut out: Vec<(String, Vec<f64>)> = Variant::ALL
        .iter()
        .map(|v| (v.label().to_string(), Vec::new()))
        .collect();
    for per_seed in &grid {
        for (vi, (v, r)) in Variant::ALL.iter().zip(per_seed).enumerate() {
            assert_eq!(r.unfinished, 0, "{}: unfinished jobs", v.label());
            out[vi].1.extend(r.completion_times());
        }
    }
    for (_, t) in out.iter_mut() {
        t.sort_by(f64::total_cmp);
    }
    out
}

/// Prints the three workloads' percentile tables and CSVs.
pub fn main() {
    for w in ["W1", "W2", "W3"] {
        table::section(&format!(
            "Figure 8: job completion time CDF, {w} online (percentiles, s)"
        ));
        table::row(&["system", "p25", "p50", "p75", "p90", "mean"]);
        let results = run(w);
        let yarn_median = percentile(&results[0].1, 50.0);
        let yarn_mean = results[0].1.iter().sum::<f64>() / results[0].1.len().max(1) as f64;
        let mut csv = Vec::new();
        for (si, (label, cdf)) in results.iter().enumerate() {
            let mean = cdf.iter().sum::<f64>() / cdf.len().max(1) as f64;
            table::row(&[
                label.clone(),
                table::secs(percentile(cdf, 25.0)),
                table::secs(percentile(cdf, 50.0)),
                table::secs(percentile(cdf, 75.0)),
                table::secs(percentile(cdf, 90.0)),
                table::secs(mean),
            ]);
            for r in table::cdf_rows(cdf) {
                csv.push(vec![si as f64, r[0], r[1]]);
            }
        }
        let corral_median = percentile(&results[1].1, 50.0);
        let corral_mean = results[1].1.iter().sum::<f64>() / results[1].1.len().max(1) as f64;
        println!(
            "   corral vs yarn-cs: median {} | mean {}",
            table::pct(reduction_pct(yarn_median, corral_median)),
            table::pct(reduction_pct(yarn_mean, corral_mean)),
        );
        table::write_csv(
            &format!("fig8_{}_jct_cdf", w.to_lowercase()),
            &["system_idx", "completion_s", "cum_fraction"],
            &csv,
        );
    }
}
