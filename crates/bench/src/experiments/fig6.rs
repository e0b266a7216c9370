//! Figure 6 — reduction in makespan vs Yarn-CS, batch scenario, workloads
//! W1/W2/W3, for Corral, LocalShuffle and ShuffleWatcher.
//!
//! Paper's result: Corral 10–33% reduction (lowest on the highly skewed
//! W2); LocalShuffle mixed (can be negative); ShuffleWatcher significantly
//! negative on all three.

use crate::experiments::workload_shared;
use crate::runner::{run_variant_grid, RunConfig, Variant};
use crate::table;
use corral_cluster::metrics::reduction_pct;
use corral_core::Objective;

/// One workload's makespans under the four systems (seconds).
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Workload label.
    pub workload: String,
    /// Yarn-CS baseline makespan.
    pub yarn_cs: f64,
    /// Corral / LocalShuffle / ShuffleWatcher makespans.
    pub corral: f64,
    /// LocalShuffle makespan.
    pub localshuffle: f64,
    /// ShuffleWatcher makespan.
    pub shufflewatcher: f64,
}

impl Fig6Row {
    /// Reductions relative to Yarn-CS, in the figure's order.
    pub fn reductions(&self) -> [f64; 3] {
        [
            reduction_pct(self.yarn_cs, self.corral),
            reduction_pct(self.yarn_cs, self.localshuffle),
            reduction_pct(self.yarn_cs, self.shufflewatcher),
        ]
    }
}

/// Runs the experiment for the given workloads (default all three) as
/// one parallel `(workload × variant)` sweep.
pub fn run(workloads: &[&str]) -> Vec<Fig6Row> {
    let rc = RunConfig::testbed(Objective::Makespan);
    let jobsets: Vec<_> = workloads.iter().map(|&w| workload_shared(w)).collect();
    let grid = run_variant_grid(&jobsets, &rc);
    let mut rows = Vec::new();
    for (&w, reports) in workloads.iter().zip(&grid) {
        let mut makespans = [0.0; 4];
        for (i, (v, report)) in Variant::ALL.iter().zip(reports).enumerate() {
            assert_eq!(
                report.unfinished,
                0,
                "{w}/{}: {} unfinished jobs",
                v.label(),
                report.unfinished
            );
            makespans[i] = report.makespan.as_secs();
        }
        rows.push(Fig6Row {
            workload: w.to_string(),
            yarn_cs: makespans[0],
            corral: makespans[1],
            localshuffle: makespans[2],
            shufflewatcher: makespans[3],
        });
    }
    rows
}

/// Runs and prints the full figure.
pub fn main() {
    table::section("Figure 6: % reduction in makespan vs Yarn-CS (batch)");
    table::row(&["workload", "corral", "localshuffle", "shufflewatcher"]);
    let rows = run(&["W1", "W2", "W3"]);
    let mut csv = Vec::new();
    for r in &rows {
        let red = r.reductions();
        table::row(&[
            r.workload.clone(),
            table::pct(red[0]),
            table::pct(red[1]),
            table::pct(red[2]),
        ]);
        csv.push(vec![r.yarn_cs, r.corral, r.localshuffle, r.shufflewatcher]);
    }
    table::write_csv(
        "fig6_makespan",
        &[
            "yarn_cs_s",
            "corral_s",
            "localshuffle_s",
            "shufflewatcher_s",
        ],
        &csv,
    );
}
