//! The fixed workloads behind the fabric goldens: the scheduler-variant
//! run whose output bits `tests/fabric_golden.rs` pins, and the synthetic
//! churn cells whose recompute counts, calendar pushes and completion
//! digests it pins. `examples/golden_dump.rs` prints every one of those
//! values from the same functions, so the test and its regenerator cannot
//! drift apart.

use crate::runner::RunConfig;
use corral_cluster::config::{NetPolicy, SimParams};
use corral_core::{Objective, PlannerConfig};
use corral_model::{Bandwidth, Bytes, ClusterConfig, FlowId, JobSpec, MachineId, RackId, SimTime};
use corral_simnet::{CoflowId, Fabric, FabricStats, FlowKind, FlowSpec, FlowTag, RatePolicy};
use corral_trace::fnv::Fnv64;
use corral_workloads::{assign_uniform_arrivals, w1, Scale};

/// The golden run's configuration: the testbed on the 3-rack test
/// cluster, a 10 h horizon, the makespan planner and `net`'s fabric.
pub fn golden_rc(net: NetPolicy) -> RunConfig {
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

/// The golden run's jobs: 8 W1 jobs (seed 17) at a tenth of their tasks
/// and bytes, arriving uniformly over 5 minutes.
pub fn golden_jobsets() -> Vec<JobSpec> {
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

/// A synthetic churn shape: `(racks, machines per rack, live flows,
/// flow completions to run, seed)`.
pub type Shape = (usize, usize, usize, u64, u64);

const SMALL: Shape = (3, 4, 48, 4000, 0xFAB_0001);
const MEDIUM: Shape = (10, 16, 512, 6000, 0xFAB_0002);
const LARGE: Shape = (20, 16, 640, 12000, 0xFAB_0003);

/// `(cell, policy, shape, oracle armed, disturbed)`: fair sharing at
/// three scales, Varys at the small and medium ones, and a disturbed fair
/// cell. The from-scratch oracle runs on the small cells only: on the
/// larger ones it would multiply the cost. A disturbed cell also cancels
/// a recently started flow and moves a rack's background reservation
/// every few completion batches, so components dissolve without a
/// completion too.
pub const CHURN_CELLS: [(&str, RatePolicy, Shape, bool, bool); 6] = [
    ("fair-small", RatePolicy::FairShare, SMALL, true, false),
    ("fair-medium", RatePolicy::FairShare, MEDIUM, false, false),
    ("fair-large", RatePolicy::FairShare, LARGE, false, false),
    ("varys-small", RatePolicy::Varys, SMALL, true, false),
    ("varys-medium", RatePolicy::Varys, MEDIUM, false, false),
    ("fair-disturbed", RatePolicy::FairShare, SMALL, true, true),
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
/// MB, 256 discrete values, so equal-time completions occur), which keeps
/// completion *order* — and with it the churn the allocator sees —
/// irregular. Roughly half the flows join one of 24 coflows.
fn spawn_flow(
    fab: &mut Fabric,
    machines: u64,
    per_rack: u64,
    seq: &mut u64,
    rng: &mut u64,
) -> FlowId {
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
    })
}

/// Fills a fabric to the shape's live-flow count, then replaces every
/// completed flow with a fresh one until the shape's completion count is
/// reached. A `disturbed` run also cancels one of the 16 most recently
/// started flows (replacing it if it was live) every 7th completion
/// batch, and every 11th batch sets the next rack's background
/// reservation, alternating 2 Gbps and none. Returns the fabric's
/// counters and an FNV-1a digest of the completion stream, `(flow id,
/// completion time bits)` in the order the fabric reported them.
pub fn churn(
    policy: RatePolicy,
    shape: Shape,
    oracle: bool,
    disturbed: bool,
) -> (FabricStats, u64) {
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
    let mut started = Vec::new();
    for _ in 0..live {
        started.push(spawn_flow(&mut fab, machines, per_rack, &mut seq, &mut rng));
    }
    let mut done = Vec::new();
    let mut digest = Fnv64::new();
    let (mut finished, mut batches) = (0u64, 0u64);
    while finished < completions {
        let Some(tc) = fab.next_completion() else {
            break;
        };
        done.clear();
        fab.advance_collect(tc, &mut done);
        finished += done.len() as u64;
        for f in &done {
            digest.u64(f.id.0);
            digest.f64(f.finished.0);
        }
        for _ in 0..done.len() {
            started.push(spawn_flow(&mut fab, machines, per_rack, &mut seq, &mut rng));
        }
        batches += 1;
        if disturbed && batches % 7 == 0 {
            let back = (splitmix64(&mut rng) % 16) as usize;
            let id = started[started.len() - 1 - back];
            if fab.flow_remaining(id).is_some() {
                fab.cancel_flow(id);
                started.push(spawn_flow(&mut fab, machines, per_rack, &mut seq, &mut rng));
            }
        }
        if disturbed && batches % 11 == 0 {
            let epoch = batches / 11;
            let rack = RackId::from_index(epoch as usize % racks);
            let gbps = if epoch % 2 == 0 { 2.0 } else { 0.0 };
            fab.set_rack_background(rack, Bandwidth::gbps(gbps));
        }
    }
    (fab.stats().clone(), digest.finish())
}
