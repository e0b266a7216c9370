//! Golden determinism contract of the planner, the planner twin of
//! `fabric_golden.rs`:
//!
//! 1. The offline planner on a fixed workload reproduces *embedded*
//!    bit-level fingerprints for both objectives — catching any change to
//!    the provisioning trajectory, the prioritization arithmetic, or the
//!    objective fold, not just gross regressions.
//! 2. The planner agrees with the frozen reference oracle
//!    (`crates/core/tests/support/provision_reference.rs`) on objective
//!    bits, rack counts and candidate counts — on the golden workload, on
//!    the two planning shapes the experiments rerun hottest (the
//!    replan-shaped pinned problem of §3.1 and the fig13b-shaped forecast
//!    problem, planned on perturbed arrivals), and on five larger cells
//!    (three synthetic scales, a replan-shaped W1 problem and a
//!    serve-shaped pinned problem) whose candidate and placement counts
//!    are golden too.
//! 3. The planner run in cells of a sweep pool at `--jobs 1` and
//!    `--jobs 8` produces byte-identical plan CSVs on the replan-shaped
//!    and fig13b-shaped problems.
//!
//! The fingerprints and counts are asserted with the actual values in the
//! panic message; after an *intentional* planner change, rerun and paste
//! the printed values.

#[path = "../../core/tests/support/provision_reference.rs"]
mod provision_reference;

use corral_bench::experiments::workload_online;
use corral_bench::runner::RunConfig;
use corral_core::planner::perturb_arrivals;
use corral_core::provision::ProvisionMode;
use corral_core::{
    plan_jobs, plan_jobs_pinned, LatencyModel, Objective, Plan, PlannerConfig, ResponseOptions,
};
use corral_model::{
    Bandwidth, Bytes, ClusterConfig, JobId, JobSpec, MapReduceProfile, RackId, SimTime,
};
use corral_sweep::SweepPool;
use corral_trace::fnv::Fnv64;
use corral_workloads::{assign_uniform_arrivals, w1, Scale};
use provision_reference::provision_reference;
use std::collections::BTreeMap;

/// `(objective label, objective_value bits, FNV-1a of the plan CSV)`.
/// Regenerate from the assertion message after an intentional change.
const GOLDEN_PLANS: [(&str, u64, u64); 2] = [
    ("makespan", 0x407b62998d8c58bf, 0x166369d3df7a7680),
    ("avgjct", 0x4040d7aa207521f1, 0x1e3ad0591bb2703b),
];

/// The fixed golden workload (same family as `fabric_golden.rs`): 8 W1
/// jobs, seed 17, tasks and volumes ÷10, arrivals uniform in 5 minutes.
fn golden_jobsets() -> Vec<JobSpec> {
    let mut jobs = w1::generate(
        &w1::W1Params {
            jobs: 8,
            ..w1::W1Params::with_seed(17)
        },
        Scale {
            task_divisor: 10.0,
            data_divisor: 10.0,
        },
    );
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(5.0), 0x1);
    jobs
}

fn cluster() -> ClusterConfig {
    ClusterConfig::tiny_test()
}

fn objective_of(label: &str) -> Objective {
    match label {
        "makespan" => Objective::Makespan,
        "avgjct" => Objective::AvgCompletionTime,
        other => panic!("unknown objective {other}"),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(bytes);
    h.finish()
}

fn fingerprint(plan: &Plan) -> (u64, u64) {
    (
        plan.objective_value.to_bits(),
        fnv1a(plan.to_csv().as_bytes()),
    )
}

#[test]
fn planner_matches_embedded_golden_bits_for_both_objectives() {
    let cfg = cluster();
    let jobs = golden_jobsets();
    for (label, value_bits, csv_fnv) in GOLDEN_PLANS {
        let plan = plan_jobs(&cfg, &jobs, objective_of(label), &PlannerConfig::default());
        assert_eq!(
            fingerprint(&plan),
            (value_bits, csv_fnv),
            "{label}: plan drifted from golden bits (got {:#018x} / {:#018x}) — \
             paste the new constants only if the change is intentional",
            plan.objective_value.to_bits(),
            fnv1a(plan.to_csv().as_bytes()),
        );
    }
}

/// The replan-shaped pinned planning problem (§3.1): an initial plan from
/// forecast arrivals (true arrivals jittered by up to `jitter`) anchors
/// the racks of jobs arriving by `uploaded`, whose input is already
/// placed; re-plan with true arrivals and those pins. Mirrors
/// `experiments/replan.rs`.
fn replan_pins(
    cfg: &ClusterConfig,
    jobs: &[JobSpec],
    jitter: SimTime,
    seed: u64,
    uploaded: SimTime,
) -> BTreeMap<JobId, Vec<RackId>> {
    let forecast = perturb_arrivals(jobs, 0.5, jitter, seed);
    let initial = plan_jobs(
        cfg,
        &forecast,
        Objective::AvgCompletionTime,
        &PlannerConfig::default(),
    );
    jobs.iter()
        .filter(|j| j.arrival <= uploaded)
        .filter_map(|j| initial.entry(j.id).map(|e| (j.id, e.racks.clone())))
        .collect()
}

/// Plans `jobs` in several cells of a sweep pool at `--jobs 1` and
/// `--jobs 8` and asserts every cell's plan is byte-identical to the plan
/// built outside any pool: the planner keeps no state that leaks between
/// concurrent cells or depends on the worker thread it runs on.
fn assert_identical_across_pool_sizes(
    cfg: &ClusterConfig,
    jobs: &[JobSpec],
    objective: Objective,
    pins: &BTreeMap<JobId, Vec<RackId>>,
) {
    let pc = PlannerConfig::default();
    let serial = plan_jobs_pinned(cfg, jobs, objective, &pc, pins);
    for pool_jobs in [1, 8] {
        let pool = SweepPool::new(pool_jobs).progress(false);
        let pooled = pool.run_all(8, |_| plan_jobs_pinned(cfg, jobs, objective, &pc, pins));
        for (cell, plan) in pooled.iter().enumerate() {
            assert_eq!(
                &serial, plan,
                "{objective:?} --jobs {pool_jobs} cell {cell}: plans diverge"
            );
            assert_eq!(
                serial.to_csv(),
                plan.to_csv(),
                "{objective:?} --jobs {pool_jobs} cell {cell}: plan CSV bytes diverge"
            );
            assert_eq!(
                serial.provision_stats.candidates, plan.provision_stats.candidates,
                "{objective:?} --jobs {pool_jobs} cell {cell}: candidate counts diverge"
            );
        }
    }
}

#[test]
fn replan_shaped_plan_is_identical_across_pool_sizes() {
    let cfg = cluster();
    let jobs = golden_jobsets();
    let pins = replan_pins(
        &cfg,
        &jobs,
        SimTime::minutes(2.0),
        0x8E,
        SimTime::minutes(2.5),
    );
    assert!(
        !pins.is_empty() && pins.len() < jobs.len(),
        "shape check: the replan problem must mix pinned and free jobs"
    );
    assert_identical_across_pool_sizes(&cfg, &jobs, Objective::AvgCompletionTime, &pins);
}

#[test]
fn fig13b_shaped_plan_is_identical_across_pool_sizes() {
    // Fig 13b plans on *perturbed* arrivals (the planner's forecast is
    // wrong) and both objectives appear across the sweep; cover each.
    let cfg = cluster();
    let forecast = perturb_arrivals(&golden_jobsets(), 0.5, SimTime::minutes(2.0), 0xF13B);
    for objective in [Objective::Makespan, Objective::AvgCompletionTime] {
        assert_identical_across_pool_sizes(&cfg, &forecast, objective, &BTreeMap::new());
    }
}

/// One input of the reference-oracle check: jobs on a cluster under one
/// objective, with optional rack pins and, where embedded, the golden
/// `(candidates, placements)` counts.
struct Problem {
    label: &'static str,
    cfg: ClusterConfig,
    jobs: Vec<JobSpec>,
    objective: Objective,
    pins: BTreeMap<JobId, Vec<RackId>>,
    golden_counts: Option<(u64, u64)>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(rng: &mut u64) -> f64 {
    (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64
}

/// `jobs` synthetic MapReduce jobs: sizes log-uniform over ~3 decades
/// (mostly small jobs, a heavy tail that dominates the makespan — where
/// widening decisions matter), arrivals uniform over an hour.
fn synthetic_jobs(jobs: usize, rng: &mut u64) -> Vec<JobSpec> {
    (0..jobs)
        .map(|i| {
            let input_gb = 10f64.powf(unit(rng) * 3.0) * 0.5; // 0.5 GB – 500 GB
            let shuffle_gb = input_gb * (0.2 + 0.6 * unit(rng));
            let tasks = ((input_gb * 4.0) as usize).clamp(4, 4000);
            let mr = MapReduceProfile {
                input: Bytes::gb(input_gb),
                shuffle: Bytes::gb(shuffle_gb),
                output: Bytes::gb(input_gb / 10.0),
                maps: tasks,
                reduces: (tasks / 2).max(1),
                map_rate: Bandwidth::mbytes_per_sec(100.0),
                reduce_rate: Bandwidth::mbytes_per_sec(100.0),
            };
            JobSpec::map_reduce(JobId(i as u32), format!("s{i}"), mr)
                .arriving_at(SimTime(unit(rng) * 3600.0))
        })
        .collect()
}

fn testbed_with(racks: usize) -> ClusterConfig {
    ClusterConfig {
        racks,
        ..ClusterConfig::testbed_210()
    }
}

/// A synthetic makespan problem of `jobs` unpinned jobs on `racks` racks.
/// Unpinned, the candidate count follows the §4.2 formula `1 + J·(R−1)`
/// exactly, and with no prefix every candidate places all `J` jobs.
fn synthetic(
    label: &'static str,
    jobs: usize,
    racks: usize,
    seed: u64,
    golden: (u64, u64),
) -> Problem {
    let mut rng = seed;
    Problem {
        label,
        cfg: testbed_with(racks),
        jobs: synthetic_jobs(jobs, &mut rng),
        objective: Objective::Makespan,
        pins: BTreeMap::new(),
        golden_counts: Some(golden),
    }
}

/// The shape of every `corral-serve` replan, in relative time: `jobs`
/// pinned jobs that arrived within the last hour hold 1–3 racks each,
/// one more pinned job and the unpinned newcomer both arrive at exactly
/// `0.0`. Only the newcomer widens, so there are `R` candidates. The
/// earlier pinned jobs form the invariant prefix and are placed once;
/// the tie at `0.0` stays in the suffix, so each candidate places two
/// jobs — far below the `candidates × J` of a full replay.
fn serve_shaped(
    label: &'static str,
    jobs: usize,
    racks: usize,
    seed: u64,
    golden: (u64, u64),
) -> Problem {
    let mut rng = seed;
    let mut specs = synthetic_jobs(jobs + 2, &mut rng);
    let mut pins = BTreeMap::new();
    for (i, s) in specs.iter_mut().enumerate() {
        if i < jobs {
            s.arrival = SimTime(-s.arrival.0);
        } else {
            s.arrival = SimTime(0.0);
        }
        if i <= jobs {
            let width = 1 + (splitmix64(&mut rng) % 3) as usize;
            let pin = (0..width)
                .map(|_| RackId((splitmix64(&mut rng) % racks as u64) as u32))
                .collect();
            pins.insert(s.id, pin);
        }
    }
    Problem {
        label,
        cfg: testbed_with(racks),
        jobs: specs,
        objective: Objective::AvgCompletionTime,
        pins,
        golden_counts: Some(golden),
    }
}

/// Every problem the oracle check runs: the golden workload under both
/// objectives, its replan-shaped pinned re-plan, its fig13b-shaped
/// forecast (both objectives — both appear across the fig13b sweep),
/// three synthetic scales, and the W1 online workload re-planned
/// mid-horizon — jobs arriving in the first half hour stay pinned to
/// their forecast racks and sit out the widening loop.
fn problems() -> Vec<Problem> {
    let small = |label, jobs, objective, pins| Problem {
        label,
        cfg: cluster(),
        jobs,
        objective,
        pins,
        golden_counts: None,
    };
    let golden = |label, objective| small(label, golden_jobsets(), objective, BTreeMap::new());
    let golden_pins = replan_pins(
        &cluster(),
        &golden_jobsets(),
        SimTime::minutes(2.0),
        0x8E,
        SimTime::minutes(2.5),
    );
    assert!(
        !golden_pins.is_empty() && golden_pins.len() < golden_jobsets().len(),
        "shape check: the replan problem must mix pinned and free jobs"
    );
    let forecast = perturb_arrivals(&golden_jobsets(), 0.5, SimTime::minutes(2.0), 0xF13B);
    let rc = RunConfig::testbed(Objective::AvgCompletionTime);
    let w1 = workload_online("W1", 0x1);
    let pins = replan_pins(
        &rc.params.cluster,
        &w1,
        SimTime::minutes(8.0),
        0x1 ^ 0x8E,
        SimTime::minutes(30.0),
    );
    vec![
        golden("golden-makespan", Objective::Makespan),
        golden("golden-avgjct", Objective::AvgCompletionTime),
        small(
            "replan-golden",
            golden_jobsets(),
            Objective::AvgCompletionTime,
            golden_pins,
        ),
        small(
            "fig13b-makespan",
            forecast.clone(),
            Objective::Makespan,
            BTreeMap::new(),
        ),
        small(
            "fig13b-avgjct",
            forecast,
            Objective::AvgCompletionTime,
            BTreeMap::new(),
        ),
        synthetic("small", 24, 7, 0x91A_0001, (145, 3480)),
        synthetic("medium", 96, 14, 0x91A_0002, (1249, 119_904)),
        synthetic("large", 256, 24, 0x91A_0003, (5889, 1_507_584)),
        Problem {
            label: "replan-w1",
            cfg: rc.params.cluster,
            jobs: w1,
            objective: rc.objective,
            pins,
            golden_counts: Some((463, 35_724)),
        },
        serve_shaped("serve-shaped", 60, 40, 0x91A_0004, (40, 140)),
    ]
}

#[test]
fn planner_agrees_with_frozen_reference_oracle_on_golden_workload() {
    // End-to-end: the plan the fast path builds scores exactly what the
    // frozen reference provisioner computes on the same inputs.
    let pc = PlannerConfig::default();
    for p in problems() {
        let label = p.label;
        let plan = plan_jobs_pinned(&p.cfg, &p.jobs, p.objective, &pc, &p.pins);
        let models: Vec<LatencyModel> = p
            .jobs
            .iter()
            .map(|j| LatencyModel::build(&j.profile, &p.cfg, &ResponseOptions::default()))
            .collect();
        let meta: Vec<(JobId, SimTime)> = p.jobs.iter().map(|j| (j.id, j.arrival)).collect();
        let pins: Vec<_> = p.jobs.iter().map(|j| p.pins.get(&j.id).cloned()).collect();
        let oracle = provision_reference(
            &models.iter().collect::<Vec<_>>(),
            &meta,
            &pins,
            p.cfg.racks,
            p.objective,
            ProvisionMode::Exhaustive,
        );
        assert_eq!(
            plan.objective_value.to_bits(),
            oracle.objective_value.to_bits(),
            "{label}: plan and oracle objective bits diverge"
        );
        let racks: Vec<usize> = p
            .jobs
            .iter()
            .map(|j| plan.entry(j.id).map_or(0, |e| e.racks.len()))
            .collect();
        assert_eq!(racks, oracle.racks, "{label}: allocations diverge");
        let stats = plan.provision_stats;
        assert_eq!(
            stats.candidates, oracle.stats.candidates,
            "{label}: candidate counts diverge"
        );
        // The oracle replays all J jobs per candidate; the planner
        // places its invariant prefix once.
        assert!(
            stats.placements <= oracle.stats.placements,
            "{label}: more placements than a full replay"
        );
        if let Some(golden) = p.golden_counts {
            assert_eq!(
                (oracle.stats.candidates, stats.placements),
                golden,
                "{label}: (candidates, placements) drifted from their golden"
            );
        }
    }
}
