//! Golden determinism contract of the fabric:
//!
//! 1. The four scheduler variants on a fixed workload reproduce
//!    *embedded* bit-level fingerprints — catching any change to the
//!    simulator's floating-point behavior, not just gross regressions.
//! 2. Both network policies (`NetPolicy::Tcp`, `NetPolicy::Varys`)
//!    produce byte-identical reports on a sweep pool at `--jobs 1` vs
//!    `--jobs 8`, and the Tcp half keeps the golden bits there too.
//! 3. Five synthetic churn cells — fair sharing at three scales, Varys
//!    at the small and medium ones — hit their golden recompute counts;
//!    the small cells run with the from-scratch shadow oracle armed on
//!    every recompute, and the small Varys cell exercises both its full
//!    and its incremental recompute paths.
//!
//! Regenerate the fingerprints with
//! `cargo run --release -p corral-bench --example golden_dump`
//! after an *intentional* output change; the workload below must stay in
//! lockstep with that example. The recompute counts are printed by the
//! failing assertion.

use corral_bench::runner::{run_variant, RunConfig, Variant};
use corral_cluster::config::{NetPolicy, SimParams};
use corral_cluster::metrics::RunReport;
use corral_core::{Objective, PlannerConfig};
use corral_model::{Bytes, ClusterConfig, JobSpec, MachineId, SimTime};
use corral_simnet::{CoflowId, Fabric, FabricStats, FlowKind, FlowSpec, FlowTag, RatePolicy};
use corral_sweep::SweepPool;
use corral_workloads::{assign_uniform_arrivals, w1, Scale};

/// `(variant, makespan_bits, avg_jct_bits, cross_rack_bits, network_bits)`
/// — regenerated by `examples/golden_dump.rs`.
const GOLDEN: [(&str, u64, u64, u64, u64); 4] = [
    (
        "yarn-cs",
        0x4078b480f1a68525,
        0x403e36a5ec5f47a6,
        0x424707de50cc963a,
        0x425363ca47ecb696,
    ),
    (
        "corral",
        0x4078b480f1a68525,
        0x404301ee52f8cdd2,
        0x42449852b87c3163,
        0x425345ddfb908291,
    ),
    (
        "localshuffle",
        0x4078b929cda6df31,
        0x4043a4d340e74b72,
        0x42461d9f02c9ce60,
        0x4253bfe6b6c80b56,
    ),
    (
        "shufflewatcher",
        0x4078b929cda6df31,
        0x403dc4357b4f90ea,
        0x42471f774028777f,
        0x42539be5f2dafd52,
    ),
];

fn golden_rc(net: NetPolicy) -> RunConfig {
    let mut params = SimParams::testbed();
    params.cluster = ClusterConfig::tiny_test();
    params.horizon = SimTime::hours(10.0);
    params.net = net;
    RunConfig {
        params,
        objective: Objective::Makespan,
        planner: PlannerConfig::default(),
    }
}

/// The fixed golden workload (lockstep with `examples/golden_dump.rs`).
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

fn fingerprint(r: &RunReport) -> (u64, u64, u64, u64) {
    (
        r.makespan.0.to_bits(),
        r.avg_completion_time().to_bits(),
        r.cross_rack_bytes.0.to_bits(),
        r.network_bytes.0.to_bits(),
    )
}

#[test]
fn fast_path_matches_embedded_golden_bits() {
    let rc = golden_rc(NetPolicy::Tcp);
    let jobs = golden_jobsets();
    for (v, &(label, mk, jct, xr, net)) in Variant::ALL.iter().zip(&GOLDEN) {
        let r = run_variant(*v, &jobs, &rc);
        assert_eq!(v.label(), label, "variant order changed");
        assert_eq!(
            fingerprint(&r),
            (mk, jct, xr, net),
            "{label}: output drifted from golden bits — regenerate via golden_dump \
             only if the change is intentional"
        );
    }
}

#[test]
fn pool_jobs1_vs_jobs8_identical_under_both_fabric_paths() {
    let jobs = golden_jobsets();
    let nv = Variant::ALL.len();
    // Grid: net-policy-major, variant-minor — both fabric paths in one
    // sweep, so the pool exercise covers the fair and Varys paths alike.
    let nets = [NetPolicy::Tcp, NetPolicy::Varys];
    let grid = |pool: &SweepPool| -> Vec<RunReport> {
        pool.run_all(nets.len() * nv, |i| {
            run_variant(Variant::ALL[i % nv], &jobs, &golden_rc(nets[i / nv]))
        })
    };
    let serial = grid(&SweepPool::new(1).progress(false));
    let parallel = grid(&SweepPool::new(8).progress(false));
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "cell {i} ({}) differs between --jobs 1 and --jobs 8",
            a.scheduler
        );
        assert_eq!(a.summary.to_string(), b.summary.to_string());
    }
    // The golden bits hold on the pooled Tcp runs as well.
    for (r, &(label, mk, jct, xr, net)) in serial[..nv].iter().zip(&GOLDEN) {
        assert_eq!(r.scheduler, label);
        assert_eq!(fingerprint(r), (mk, jct, xr, net), "{label} (pooled)");
    }
}

/// A synthetic churn shape: `(racks, machines per rack, live flows,
/// flow completions to run, seed)`.
type Shape = (usize, usize, usize, u64, u64);

const SMALL: Shape = (3, 4, 48, 4000, 0xFAB_0001);
const MEDIUM: Shape = (10, 16, 512, 6000, 0xFAB_0002);
const LARGE: Shape = (20, 16, 640, 12000, 0xFAB_0003);

/// `(cell, policy, shape, oracle armed, golden recompute count)`. The
/// from-scratch oracle runs on the small cells only: on the larger ones
/// it would multiply the cost.
const CHURN_CELLS: [(&str, RatePolicy, Shape, bool, u64); 5] = [
    ("fair-small", RatePolicy::FairShare, SMALL, true, 7996),
    ("fair-medium", RatePolicy::FairShare, MEDIUM, false, 11954),
    ("fair-large", RatePolicy::FairShare, LARGE, false, 23940),
    ("varys-small", RatePolicy::Varys, SMALL, true, 7913),
    ("varys-medium", RatePolicy::Varys, MEDIUM, false, 11904),
];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Starts one flow: sources cycle round-robin over the machines and every
/// flow goes to the same position in the next rack, so per-link flow
/// counts stay near-uniform (a large shuffle's balanced all-to-all) and
/// every flow crosses the oversubscribed core. Sizes are random (8–263
/// MB), so completion *order* — and with it the churn the allocator sees
/// — stays irregular. Roughly half the flows join one of 24 coflows.
fn spawn_flow(fab: &mut Fabric, machines: u64, per_rack: u64, seq: &mut u64, rng: &mut u64) {
    let src = *seq % machines;
    *seq += 1;
    let bytes = Bytes::mb(8.0 + (splitmix64(rng) % 256) as f64);
    let group = splitmix64(rng) % 48;
    fab.start_flow(FlowSpec {
        src: MachineId::from_index(src as usize),
        dst: MachineId::from_index(((src + per_rack) % machines) as usize),
        bytes,
        tag: FlowTag::infrastructure(FlowKind::Shuffle),
        coflow: (group < 24).then_some(CoflowId(group)),
    });
}

/// Fills the fabric to the shape's live-flow count, then replaces every
/// completed flow with a fresh one until the shape's completion count is
/// reached; returns the fabric's counters.
fn churn_stats(policy: RatePolicy, shape: Shape, oracle: bool) -> FabricStats {
    let (racks, machines_per_rack, live, completions, seed) = shape;
    let cfg = ClusterConfig {
        racks,
        machines_per_rack,
        ..ClusterConfig::tiny_test()
    };
    let machines = cfg.total_machines() as u64;
    let per_rack = machines_per_rack as u64;
    let mut fab = Fabric::new(cfg, policy);
    fab.set_full_oracle(oracle);
    let (mut rng, mut seq) = (seed, 0u64);
    for _ in 0..live {
        spawn_flow(&mut fab, machines, per_rack, &mut seq, &mut rng);
    }
    let mut done = Vec::new();
    let mut finished = 0u64;
    while finished < completions {
        let Some(tc) = fab.next_completion() else {
            break;
        };
        done.clear();
        fab.advance_collect(tc, &mut done);
        finished += done.len() as u64;
        for _ in 0..done.len() {
            spawn_flow(&mut fab, machines, per_rack, &mut seq, &mut rng);
        }
    }
    fab.stats().clone()
}

#[test]
fn churn_cells_hit_golden_recomputes_with_oracle_armed() {
    for (name, policy, shape, oracle, golden) in CHURN_CELLS {
        let st = churn_stats(policy, shape, oracle);
        assert_eq!(
            st.recomputes, golden,
            "{name}: churn cell recompute count drifted (oracle armed: {oracle})"
        );
        if name == "varys-small" {
            // Both Varys recompute paths run: full passes (cold cache,
            // capacity boundary) and coflow-local incremental ones.
            assert!(
                st.recomputes_full > 0 && st.recomputes_incremental > 0,
                "{name}: a Varys recompute path went unexercised: {st:?}"
            );
        }
    }
}
