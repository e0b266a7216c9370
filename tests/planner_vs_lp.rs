//! The provisioning+prioritization heuristics against the Appendix-A LP
//! lower bounds: the LP must lower-bound the heuristic, and the heuristic
//! must land close (the paper reports 3% batch / 15% online; we allow
//! modest slack since workloads are random).

use corral::core::latency::{LatencyModel, ResponseOptions};
use corral::core::lp::{batch_lower_bound, online_lower_bound};
use corral::core::provision::{provision, ProvisionMode, ProvisionOutcome};
use corral::prelude::*;
use corral::workloads::{assign_uniform_arrivals, w1, w3, Scale};

fn tables(jobs: &[JobSpec], cfg: &ClusterConfig) -> (Vec<LatencyModel>, Vec<Vec<f64>>) {
    let opts = ResponseOptions::default();
    let models: Vec<LatencyModel> = jobs
        .iter()
        .map(|j| LatencyModel::build(&j.profile, cfg, &opts))
        .collect();
    let t = models
        .iter()
        .map(|m| (1..=cfg.racks).map(|r| m.latency(r).as_secs()).collect())
        .collect();
    (models, t)
}

/// Unpinned, exhaustive provisioning on the whole cluster.
fn plan(
    models: &[LatencyModel],
    meta: &[(JobId, SimTime)],
    cfg: &ClusterConfig,
    objective: Objective,
) -> ProvisionOutcome {
    let pins = vec![None; meta.len()];
    provision(
        &models.iter().collect::<Vec<_>>(),
        meta,
        &pins,
        cfg.racks,
        objective,
        ProvisionMode::Exhaustive,
    )
}

#[test]
fn batch_heuristic_within_modest_gap_of_lp() {
    let cfg = ClusterConfig::testbed_210();
    for seed in [1u64, 2, 3] {
        let jobs = w1::generate(
            &w1::W1Params {
                jobs: 25,
                ..w1::W1Params::with_seed(seed)
            },
            Scale::bench_default(),
        );
        let (models, tabs) = tables(&jobs, &cfg);
        let meta: Vec<_> = jobs.iter().map(|j| (j.id, SimTime::ZERO)).collect();
        let heur = plan(&models, &meta, &cfg, Objective::Makespan).objective_value;
        let lp = batch_lower_bound(&tabs, cfg.racks).expect("lp solves");
        assert!(lp > 0.0);
        assert!(heur >= lp - 1e-6, "LP must lower-bound: {heur} vs {lp}");
        assert!(
            heur <= lp * 1.25,
            "seed {seed}: heuristic {heur} too far above LP {lp}"
        );
    }
}

#[test]
fn online_heuristic_bounded_by_time_indexed_lp() {
    let cfg = ClusterConfig::testbed_210();
    let mut jobs = w3::generate(
        &w3::W3Params {
            jobs: 15,
            ..Default::default()
        },
        Scale::bench_default(),
    );
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(10.0), 9);
    let (models, tabs) = tables(&jobs, &cfg);
    let meta: Vec<_> = jobs.iter().map(|j| (j.id, j.arrival)).collect();
    let out = plan(&models, &meta, &cfg, Objective::AvgCompletionTime);
    let horizon = out
        .schedule
        .iter()
        .map(|s| s.finish.as_secs())
        .fold(0.0, f64::max)
        * 1.1;
    let arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival.as_secs()).collect();
    let lp = online_lower_bound(&tabs, &arrivals, cfg.racks, horizon, 80).expect("lp solves");
    assert!(lp > 0.0);
    assert!(
        out.objective_value >= lp - 1e-6,
        "LP must lower-bound: {} vs {lp}",
        out.objective_value
    );
    // The time-indexed grid is coarse; still expect same order of magnitude.
    assert!(out.objective_value <= lp * 2.0);
}

#[test]
fn lp_bound_tight_when_capacity_binds() {
    // R identical 1-rack-best jobs on R racks: both the heuristic and the
    // LP hit exactly the per-rack serialization bound.
    let cfg = ClusterConfig::testbed_210();
    let jobs: Vec<JobSpec> = (0..cfg.racks as u32 * 2)
        .map(|i| {
            JobSpec::map_reduce(
                JobId(i),
                "same",
                MapReduceProfile {
                    input: Bytes::gb(4.0),
                    shuffle: Bytes::gb(4.0),
                    output: Bytes::gb(0.4),
                    maps: 30,
                    reduces: 20,
                    map_rate: Bandwidth::mbytes_per_sec(100.0),
                    reduce_rate: Bandwidth::mbytes_per_sec(100.0),
                },
            )
        })
        .collect();
    let (models, tabs) = tables(&jobs, &cfg);
    let meta: Vec<_> = jobs.iter().map(|j| (j.id, SimTime::ZERO)).collect();
    let heur = plan(&models, &meta, &cfg, Objective::Makespan).objective_value;
    let lp = batch_lower_bound(&tabs, cfg.racks).expect("lp solves");
    // Two identical jobs per rack, narrow is optimal: heuristic == 2·L(1)
    // and the LP capacity constraint forces the same value.
    let two_l1 = 2.0 * models[0].latency(1).as_secs();
    assert!((heur - two_l1).abs() < 1e-6, "heur={heur} vs {two_l1}");
    assert!(heur <= lp * 1.05, "gap should be tiny here: {heur} vs {lp}");
}
