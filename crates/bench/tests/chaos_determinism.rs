//! Determinism contract for chaos runs: the same chaos seed produces a
//! **byte-identical formatted decision stream** no matter how the run is
//! executed — serial vs an 8-worker sweep pool, oracle tripwire on vs
//! off. Chaos schedules, failure masking, re-anchoring, and the retry
//! cascade must all be pure functions of the input stream. Eight churn
//! cells also pin golden decision counts, each run twice with equal
//! stats.

use corral_cluster::config::{DataPlacement, SimParams};
use corral_core::Objective;
use corral_model::{Bandwidth, Bytes, ClusterConfig, JobId, JobSpec, MapReduceProfile, SimTime};
use corral_serve::{
    chaos, wire, ChaosSpec, EngineDriver, Scheduler, ServeConfig, ServeEvent, ServeStats,
};
use corral_sweep::SweepPool;
use corral_workloads::{assign_uniform_arrivals, w1, w2, Scale};

/// Chaos seeds for the sweep grid (one cell per seed).
const SEEDS: [u64; 6] = [0x11, 0x22, 0x33, 0x5A5A, 0xC0441, 0xFFFF];

fn cluster() -> ClusterConfig {
    ClusterConfig {
        racks: 5,
        ..ClusterConfig::testbed_210()
    }
}

fn config(tripwire: bool) -> ServeConfig {
    ServeConfig {
        cluster: cluster(),
        objective: Objective::AvgCompletionTime,
        tripwire,
        failure_threshold: 0.1,
        ..ServeConfig::default()
    }
}

/// The input stream for one cell: a W1 burst merged with that seed's
/// churn schedule.
fn stream(seed: u64) -> Vec<ServeEvent> {
    let mut jobs = w1::generate(
        &w1::W1Params {
            jobs: 16,
            ..w1::W1Params::with_seed(0xBEEF)
        },
        Scale {
            task_divisor: 8.0,
            data_divisor: 4.0,
        },
    );
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(20.0), seed);
    let arrivals = corral_serve::source::events_from_specs(&jobs);
    let spec = ChaosSpec {
        mtbf: SimTime(7200.0),
        mean_repair: SimTime(600.0),
        horizon: SimTime(1800.0),
        seed,
    };
    chaos::merge(arrivals, spec.events(&cluster()))
}

/// Runs one cell and renders its decisions exactly as the wire would.
fn formatted_decisions(seed: u64, tripwire: bool) -> String {
    let mut out = Vec::new();
    let stats = Scheduler::new(config(tripwire)).run(stream(seed), &mut out);
    assert_eq!(stats.decisions as usize, out.len());
    assert!(stats.machine_failures > 0, "churn must be non-empty");
    out.iter()
        .map(|(t, d)| wire::format_decision(*t, d))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs the full seed grid on a pool of `workers` threads; results are
/// collected in cell-index order.
fn run_grid(workers: usize, tripwire: bool) -> Vec<String> {
    let pool = SweepPool::new(workers);
    pool.run_all(SEEDS.len(), |i| formatted_decisions(SEEDS[i], tripwire))
}

#[test]
fn chaos_streams_are_identical_across_pool_widths() {
    let serial = run_grid(1, true);
    let parallel = run_grid(8, true);
    assert_eq!(
        serial, parallel,
        "chaos decision streams must be byte-identical under --jobs 1 vs --jobs 8"
    );
    // Different chaos seeds genuinely produce different streams (the
    // equality above is not vacuous).
    assert!(serial.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn chaos_streams_are_identical_with_tripwire_on_or_off() {
    let checked = run_grid(4, true);
    let unchecked = run_grid(4, false);
    assert_eq!(
        checked, unchecked,
        "the oracle tripwire only asserts — it must never change decisions"
    );
}

/// `(cell, workload, seed, per-machine MTBF in seconds, §7 fallback on,
/// golden decisions)`. `"w1"`/`"w2"` self-clock the scheduler on 40 jobs
/// arriving over 30 minutes on the 7-rack testbed shape; `"cosim"` drives
/// [`EngineDriver`] on the tiny cluster with the same churn schedule
/// injected into the engine, so goodput is execution ground truth. Low
/// churn is ≈ 17 expected machine failures over the hour, high ≈ 70; the
/// high-churn pair runs again with the fallback off. With the fallback
/// on, high churn re-anchors queued jobs, hence 122/133 decisions against
/// the failure-free 120.
const CELLS: [(&str, &str, u64, f64, bool, u64); 8] = [
    ("w1-lochurn", "w1", 0xC4A1, 43_200.0, true, 120),
    ("w2-lochurn", "w2", 0xC4A2, 43_200.0, true, 120),
    ("w1-hichurn", "w1", 0xC4A3, 10_800.0, true, 122),
    ("w2-hichurn", "w2", 0xC4A4, 10_800.0, true, 133),
    ("w1-hichurn-nofb", "w1", 0xC4A3, 10_800.0, false, 120),
    ("w2-hichurn-nofb", "w2", 0xC4A4, 10_800.0, false, 120),
    ("cosim-fb", "cosim", 0xC4A7, 400.0, true, 24),
    ("cosim-nofb", "cosim", 0xC4A7, 400.0, false, 24),
];

/// Runs one churn cell with the oracle tripwire armed. Churn covers the
/// whole arrival span; repairs are slow against it, so dead capacity
/// accumulates past the 10% re-anchor threshold (the default 50% would
/// need implausible pile-ups at 30 machines per rack).
fn run_cell(workload: &str, seed: u64, mtbf: f64, fallback: bool) -> ServeStats {
    let cosim = workload == "cosim";
    let cluster = if cosim {
        ClusterConfig::tiny_test()
    } else {
        ClusterConfig {
            racks: 7,
            ..ClusterConfig::testbed_210()
        }
    };
    let spec = ChaosSpec {
        mtbf: SimTime(mtbf),
        mean_repair: SimTime(if cosim { 60.0 } else { 600.0 }),
        horizon: SimTime(if cosim { 600.0 } else { 3600.0 }),
        seed: seed ^ 0xC0441,
    };
    let config = ServeConfig {
        cluster: cluster.clone(),
        objective: Objective::AvgCompletionTime,
        tripwire: true,
        fallback,
        failure_threshold: 0.1,
        ..ServeConfig::default()
    };
    let scale = Scale::bench_default();
    let mut jobs = match workload {
        "w1" => w1::generate(
            &w1::W1Params {
                jobs: 40,
                ..w1::W1Params::with_seed(seed)
            },
            scale,
        ),
        "w2" => w2::generate(
            &w2::W2Params {
                jobs: 40,
                seed,
                ..Default::default()
            },
            scale,
        ),
        // GB-scale map-reduce jobs arriving every 20 s.
        _ => (1..=8u32)
            .map(|i| {
                let gb = 1.0 + (i % 3) as f64;
                let mr = MapReduceProfile {
                    input: Bytes::gb(gb),
                    shuffle: Bytes::gb(gb / 2.0),
                    output: Bytes::gb(gb / 10.0),
                    maps: 8,
                    reduces: 4,
                    map_rate: Bandwidth::mbytes_per_sec(50.0),
                    reduce_rate: Bandwidth::mbytes_per_sec(50.0),
                };
                JobSpec::map_reduce(JobId(i), format!("j{i}"), mr)
                    .arriving_at(SimTime(i as f64 * 20.0))
            })
            .collect(),
    };
    if !cosim {
        assign_uniform_arrivals(&mut jobs, SimTime::minutes(30.0), seed ^ 0xA);
    }
    let events = chaos::merge(
        corral_serve::source::events_from_specs(&jobs),
        spec.events(&cluster),
    );
    let mut out = Vec::new();
    let stats = if cosim {
        let params = SimParams {
            cluster: cluster.clone(),
            placement: DataPlacement::PerPlan,
            failures: spec.schedule(&cluster),
            ..SimParams::testbed()
        };
        let (stats, report) = EngineDriver::new(config, params).run(&events, &mut out);
        assert_eq!(report.unfinished, 0, "transient churn stranded jobs");
        stats
    } else {
        Scheduler::new(config).run(events, &mut out)
    };
    assert_eq!(stats.decisions as usize, out.len());
    stats
}

#[test]
fn chaos_cells_hit_golden_decision_counts_deterministically() {
    for (name, workload, seed, mtbf, fallback, golden) in CELLS {
        let first = run_cell(workload, seed, mtbf, fallback);
        assert_eq!(first.decisions, golden, "{name}: decision count drifted");
        assert_eq!(
            first,
            run_cell(workload, seed, mtbf, fallback),
            "{name}: two runs of the same chaos cell diverged"
        );
    }
}
