//! §4.2 heuristic quality — the provisioning+prioritization heuristics vs
//! the LP lower bounds of Appendix A. Paper: within 3% of the LP for
//! makespan (batch) and 15% for average completion time (online).
//!
//! Both sides are evaluated in *planning-model space* (the latency response
//! functions), exactly as the paper does: the LP bounds any algorithm that
//! plans at rack granularity under the same latency model.

use crate::experiments::bench_scale;
use crate::table;
use corral_core::latency::{LatencyModel, ResponseOptions};
use corral_core::lp::{batch_lower_bound, online_lower_bound};
use corral_core::provision::{provision, ProvisionMode};
use corral_core::Objective;
use corral_model::{ClusterConfig, SimTime};
use corral_workloads::{assign_uniform_arrivals, w1, w3};

fn latency_tables(
    jobs: &[corral_model::JobSpec],
    cfg: &ClusterConfig,
) -> (Vec<LatencyModel>, Vec<Vec<f64>>) {
    let opts = ResponseOptions::default();
    let models: Vec<LatencyModel> = jobs
        .iter()
        .map(|j| LatencyModel::build(&j.profile, cfg, &opts))
        .collect();
    let tables: Vec<Vec<f64>> = models
        .iter()
        .map(|m| (1..=cfg.racks).map(|r| m.latency(r).as_secs()).collect())
        .collect();
    (models, tables)
}

/// Batch gap for one workload: (heuristic makespan, LP bound, gap %).
pub fn batch_gap(jobs: &[corral_model::JobSpec], cfg: &ClusterConfig) -> (f64, f64, f64) {
    let (models, tables) = latency_tables(jobs, cfg);
    let models: Vec<&LatencyModel> = models.iter().collect();
    let meta: Vec<_> = jobs.iter().map(|j| (j.id, SimTime::ZERO)).collect();
    let pins = vec![None; meta.len()];
    let heur = provision(
        &models,
        &meta,
        &pins,
        cfg.racks,
        Objective::Makespan,
        ProvisionMode::Exhaustive,
    )
    .objective_value;
    let lp = batch_lower_bound(&tables, cfg.racks).expect("LP solve");
    (heur, lp, (heur - lp) / lp * 100.0)
}

/// The §4.2 design note quantified: the paper runs the provisioning loop
/// to exhaustion instead of Belkhale–Banerjee's early stop. Returns the two
/// heuristics' makespans (model space).
pub fn heuristic_variants(
    jobs: &[corral_model::JobSpec],
    cfg: &ClusterConfig,
    objective: Objective,
) -> (f64, f64) {
    let (models, _) = latency_tables(jobs, cfg);
    let models: Vec<&LatencyModel> = models.iter().collect();
    let meta: Vec<_> = jobs.iter().map(|j| (j.id, j.arrival)).collect();
    let pins = vec![None; meta.len()];
    let full = provision(
        &models,
        &meta,
        &pins,
        cfg.racks,
        objective,
        ProvisionMode::Exhaustive,
    )
    .objective_value;
    let early = provision(
        &models,
        &meta,
        &pins,
        cfg.racks,
        objective,
        ProvisionMode::EarlyStop,
    )
    .objective_value;
    (full, early)
}

/// Online gap: (heuristic avg completion, LP bound, gap %).
pub fn online_gap(
    jobs: &[corral_model::JobSpec],
    cfg: &ClusterConfig,
    epochs: usize,
) -> (f64, f64, f64) {
    let (models, tables) = latency_tables(jobs, cfg);
    let models: Vec<&LatencyModel> = models.iter().collect();
    let meta: Vec<_> = jobs.iter().map(|j| (j.id, j.arrival)).collect();
    let pins = vec![None; meta.len()];
    let out = provision(
        &models,
        &meta,
        &pins,
        cfg.racks,
        Objective::AvgCompletionTime,
        ProvisionMode::Exhaustive,
    );
    let heur = out.objective_value;
    let horizon = out
        .schedule
        .iter()
        .map(|s| s.finish.as_secs())
        .fold(0.0, f64::max)
        * 1.05;
    let arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival.as_secs()).collect();
    let lp = online_lower_bound(&tables, &arrivals, cfg.racks, horizon, epochs)
        .expect("online LP solve");
    (heur, lp, (heur - lp) / lp * 100.0)
}

/// Prints both gaps over W1 and W3 subsets.
pub fn main() {
    let cfg = ClusterConfig::testbed_210();
    table::section("§4.2 heuristic vs LP lower bound (planning-model space)");
    table::row(&["case", "heuristic", "LP bound", "gap"]);

    let mut csv = Vec::new();
    for (name, jobs) in [
        (
            "W1 batch",
            w1::generate(
                &w1::W1Params {
                    jobs: 40,
                    ..w1::W1Params::with_seed(0x17A)
                },
                bench_scale(),
            ),
        ),
        (
            "W3 batch",
            w3::generate(
                &w3::W3Params {
                    jobs: 40,
                    ..Default::default()
                },
                bench_scale(),
            ),
        ),
    ] {
        let (h, lp, gap) = batch_gap(&jobs, &cfg);
        table::row(&[
            name.to_string(),
            table::secs(h),
            table::secs(lp),
            table::pct(gap),
        ]);
        csv.push(vec![0.0, h, lp, gap]);
    }

    {
        let (name, mut jobs) = (
            "W1 online",
            w1::generate(
                &w1::W1Params {
                    jobs: 25,
                    ..w1::W1Params::with_seed(0x17B)
                },
                bench_scale(),
            ),
        );
        assign_uniform_arrivals(&mut jobs, SimTime::minutes(30.0), 0x17C);
        let (h, lp, gap) = online_gap(&jobs, &cfg, 200);
        table::row(&[
            name.to_string(),
            table::secs(h),
            table::secs(lp),
            table::pct(gap),
        ]);
        csv.push(vec![1.0, h, lp, gap]);
    }
    println!("   paper: batch within 3%, online within 15% (their LP formulations)");

    // The exhaustive/early-stop difference shows when widening decisions
    // matter: few jobs relative to racks (batch) and the average-completion
    // objective the early-stop rule was never designed for (§4.2).
    table::section("§4.2 provisioning variants: exhaustive (paper) vs early-stop [19]");
    table::row(&["case", "exhaustive", "early-stop", "advantage"]);
    // A 100-rack cluster (the fig5 geometry), where widening decisions have
    // real range; on the 7-rack testbed both variants find the same plans.
    let big_cluster = ClusterConfig {
        racks: 100,
        machines_per_rack: 40,
        slots_per_machine: 1,
        ..cfg.clone()
    };
    let few_big = w3::generate(
        &w3::W3Params {
            jobs: 8,
            ..Default::default()
        },
        corral_workloads::Scale::full(),
    );
    let mut online = w1::generate(
        &w1::W1Params {
            jobs: 30,
            ..w1::W1Params::with_seed(0x17D)
        },
        corral_workloads::Scale::full(),
    );
    assign_uniform_arrivals(&mut online, SimTime::minutes(20.0), 0x17E);
    for (name, jobs, obj) in [
        ("8 W3 jobs, 100 racks", few_big, Objective::Makespan),
        ("W1 online, 100 racks", online, Objective::AvgCompletionTime),
    ] {
        let (full, early) = heuristic_variants(&jobs, &big_cluster, obj);
        table::row(&[
            name.to_string(),
            table::secs(full),
            table::secs(early),
            table::pct((early - full) / early * 100.0),
        ]);
    }
    table::write_csv(
        "lpgap",
        &["scenario_idx", "heuristic_s", "lp_bound_s", "gap_pct"],
        &csv,
    );
}
