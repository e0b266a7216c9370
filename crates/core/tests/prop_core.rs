//! Property tests for the planner: scheduling invariants, LP bounds,
//! simplex correctness, predictor sanity.

use corral_core::latency::{LatencyModel, ResponseOptions};
use corral_core::lp::batch_lower_bound;
use corral_core::lp::simplex::{LinearProgram, LpOutcome, Relation};
use corral_core::predict::{HistoryPoint, Predictor};
use corral_core::prioritize::{prioritize_jobs, PrioritizeJob};
use corral_core::provision::{provision, ProvisionMode};
use corral_core::Objective;
use corral_model::{Bandwidth, Bytes, ClusterConfig, JobId, JobProfile, MapReduceProfile, SimTime};
use proptest::prelude::*;

fn cluster() -> ClusterConfig {
    ClusterConfig::testbed_210()
}

fn job_strategy() -> impl Strategy<Value = MapReduceProfile> {
    (
        1e8f64..5e11, // input
        1e7f64..5e11, // shuffle
        1e7f64..1e11, // output
        1usize..600,  // maps
        1usize..300,  // reduces
    )
        .prop_map(|(i, s, o, m, r)| MapReduceProfile {
            input: Bytes(i),
            shuffle: Bytes(s),
            output: Bytes(o),
            maps: m,
            reduces: r,
            map_rate: Bandwidth::mbytes_per_sec(100.0),
            reduce_rate: Bandwidth::mbytes_per_sec(100.0),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Latency response functions are finite, positive and defined for all
    /// rack counts; the imbalance penalty strictly decreases with racks.
    #[test]
    fn latency_model_well_formed(mr in job_strategy()) {
        let cfg = cluster();
        let model = LatencyModel::build(
            &JobProfile::MapReduce(mr),
            &cfg,
            &ResponseOptions::default(),
        );
        let mut prev_penalty = f64::INFINITY;
        for r in 1..=cfg.racks {
            let l = model.latency(r).as_secs();
            let raw = model.raw_latency(r).as_secs();
            prop_assert!(l.is_finite() && l > 0.0);
            prop_assert!(raw > 0.0 && raw <= l);
            let penalty = l - raw;
            prop_assert!(penalty < prev_penalty);
            prev_penalty = penalty;
        }
    }

    /// Prioritization invariants: on each rack, assigned jobs never overlap
    /// in time; no job starts before its arrival; rack sets have the
    /// requested size.
    #[test]
    fn prioritization_invariants(
        jobs in proptest::collection::vec((1usize..7, 1.0f64..5e3, 0.0f64..1e4), 1..30),
        online in any::<bool>(),
    ) {
        let total_racks = 7;
        let inputs: Vec<PrioritizeJob> = jobs
            .iter()
            .enumerate()
            .map(|(i, (r, l, a))| PrioritizeJob {
                job: JobId(i as u32),
                racks: *r,
                latency: SimTime(*l),
                arrival: SimTime(*a),
                pinned: &[],
            })
            .collect();
        let sched = prioritize_jobs(&inputs, total_racks, online);
        prop_assert_eq!(sched.len(), inputs.len());
        let mut per_rack: Vec<Vec<(f64, f64)>> = vec![Vec::new(); total_racks];
        for s in &sched {
            let inp = &inputs[s.job.index()];
            prop_assert_eq!(s.racks.len(), inp.racks.min(total_racks));
            prop_assert!(s.start.0 >= inp.arrival.0 - 1e-9);
            prop_assert!((s.finish.0 - s.start.0 - inp.latency.0).abs() < 1e-9);
            for r in &s.racks {
                per_rack[r.index()].push((s.start.0, s.finish.0));
            }
        }
        for intervals in per_rack.iter_mut() {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in intervals.windows(2) {
                prop_assert!(w[1].0 >= w[0].1 - 1e-9, "overlap on a rack: {w:?}");
            }
        }
    }

    /// The LP bound never exceeds the heuristic's objective (batch).
    #[test]
    fn lp_lower_bounds_heuristic(profiles in proptest::collection::vec(job_strategy(), 1..12)) {
        let cfg = cluster();
        let models: Vec<LatencyModel> = profiles
            .iter()
            .map(|mr| LatencyModel::build(&JobProfile::MapReduce(mr.clone()), &cfg, &ResponseOptions::default()))
            .collect();
        let tables: Vec<Vec<f64>> = models
            .iter()
            .map(|m| (1..=cfg.racks).map(|r| m.latency(r).as_secs()).collect())
            .collect();
        let meta: Vec<_> = (0..profiles.len()).map(|i| (JobId(i as u32), SimTime::ZERO)).collect();
        let pins = vec![None; meta.len()];
        let heur = provision(&models, &meta, &pins, cfg.racks, Objective::Makespan, ProvisionMode::Exhaustive)
            .objective_value;
        let lp = batch_lower_bound(&tables, cfg.racks).expect("lp optimal");
        prop_assert!(heur >= lp - 1e-6 * lp.max(1.0), "heur {heur} below LP {lp}");
    }

    /// Simplex solutions are primal feasible and at least as good as the
    /// best corner of a random sample of feasible points.
    #[test]
    fn simplex_feasible_and_competitive(
        c0 in -3.0f64..3.0,
        c1 in -3.0f64..3.0,
        rows in proptest::collection::vec((0.1f64..2.0, 0.1f64..2.0, 1.0f64..6.0), 1..5),
    ) {
        let mut lp = LinearProgram {
            num_vars: 2,
            objective: vec![c0, c1],
            constraints: vec![],
        };
        for (a, b, rhs) in &rows {
            lp = lp.with(vec![(0, *a), (1, *b)], Relation::Le, *rhs);
        }
        // Bounding box keeps the problem bounded for negative costs.
        lp = lp.with(vec![(0, 1.0)], Relation::Le, 20.0);
        lp = lp.with(vec![(1, 1.0)], Relation::Le, 20.0);
        match lp.solve() {
            LpOutcome::Optimal { objective, x } => {
                prop_assert!(x[0] >= -1e-7 && x[1] >= -1e-7);
                for (a, b, rhs) in &rows {
                    prop_assert!(a * x[0] + b * x[1] <= rhs + 1e-6);
                }
                // Sample grid points; none may beat the simplex optimum.
                for i in 0..=10 {
                    for j in 0..=10 {
                        let gx = 20.0 * i as f64 / 10.0;
                        let gy = 20.0 * j as f64 / 10.0;
                        let feasible = rows.iter().all(|(a, b, r)| a * gx + b * gy <= *r + 1e-9);
                        if feasible {
                            prop_assert!(c0 * gx + c1 * gy >= objective - 1e-6);
                        }
                    }
                }
            }
            other => prop_assert!(false, "expected optimal, got {other:?}"),
        }
    }

    /// Predictions always lie within the range of the history they average.
    #[test]
    fn predictions_within_history_range(values in proptest::collection::vec(1.0f64..1e6, 4..40)) {
        let hist: Vec<HistoryPoint> = values
            .iter()
            .enumerate()
            .map(|(d, v)| HistoryPoint { day: d as u32, slot: 0, value: *v })
            .collect();
        let p = Predictor::default();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        for d in 1..values.len() as u32 {
            if let Some(pred) = p.predict(&hist, d, 0) {
                prop_assert!(pred >= min - 1e-9 && pred <= max + 1e-9);
            }
        }
    }
}
