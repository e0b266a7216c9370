//! Figure 14 — large-scale simulation (§6.6): 2000 machines (50 racks ×
//! 40), 200 W1 jobs arriving over 15 minutes, under the four combinations
//! of job scheduler {Yarn-CS, Corral} × network scheduler {TCP, Varys}.
//!
//! Paper's ordering: Yarn-CS+TCP ≪ Yarn-CS+Varys < Corral+TCP <
//! Corral+Varys — i.e. Corral with plain TCP beats Yarn-CS with Varys
//! (proper endpoint placement dominates flow scheduling), and the two
//! techniques compose.

use crate::runner::{run_variant, RunConfig, Variant};
use crate::table;
use corral_cluster::config::NetPolicy;
use corral_core::Objective;
use corral_model::SimTime;
use corral_trace::percentile;
use corral_workloads::{assign_uniform_arrivals, w1};

/// Runs the 2×2 grid and returns (label, sorted completion times).
pub fn run() -> Vec<(String, Vec<f64>)> {
    // 2000 machines with a fluid model is expensive: 40 jobs at a coarser
    // task scale (divisor 16) keep the run tractable while preserving the
    // figure's point — the relative ordering of the four scheduler
    // combinations. See EXPERIMENTS.md.
    let mut jobs = w1::generate(
        &w1::W1Params {
            jobs: 40,
            bytes_per_task: 512e6,
            ..w1::W1Params::with_seed(0xF14)
        },
        corral_workloads::Scale {
            task_divisor: 16.0,
            data_divisor: 1.0,
        },
    );
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(15.0), 0xF14B);

    let mut out = Vec::new();
    for (variant, net) in [
        (Variant::YarnCs, NetPolicy::Tcp),
        (Variant::YarnCs, NetPolicy::Varys),
        (Variant::Corral, NetPolicy::Tcp),
        (Variant::Corral, NetPolicy::Varys),
    ] {
        let mut rc = RunConfig::testbed(Objective::AvgCompletionTime);
        rc.params = corral_cluster::config::SimParams::large_sim();
        // Keep per-machine concurrency moderate so the fluid model stays
        // fast at 2000 machines (see EXPERIMENTS.md): 20 slots in the
        // paper, 4 here with task counts scaled by the same workload rule.
        rc.params.cluster.slots_per_machine = 4;
        rc.params.horizon = SimTime::hours(24.0);
        rc.params.net = net;
        let r = run_variant(variant, &jobs, &rc);
        assert_eq!(r.unfinished, 0, "{}/{net:?}: unfinished", variant.label());
        let label = format!(
            "{}+{}",
            variant.label(),
            match net {
                NetPolicy::Tcp => "tcp",
                NetPolicy::Varys => "varys",
            }
        );
        out.push((label, r.completion_times()));
    }
    out
}

/// Prints the four CDFs' percentiles.
pub fn main() {
    table::section("Figure 14: 2000-machine simulation, job × network schedulers");
    table::row(&["system", "p25", "p50", "p75", "p90"]);
    let results = run();
    let mut csv = Vec::new();
    for (si, (label, t)) in results.iter().enumerate() {
        table::row(&[
            label.clone(),
            table::secs(percentile(t, 25.0)),
            table::secs(percentile(t, 50.0)),
            table::secs(percentile(t, 75.0)),
            table::secs(percentile(t, 90.0)),
        ]);
        for r in table::cdf_rows(t) {
            csv.push(vec![si as f64, r[0], r[1]]);
        }
    }
    table::write_csv(
        "fig14_large_sim_cdf",
        &["system_idx", "completion_s", "cum_fraction"],
        &csv,
    );
}
