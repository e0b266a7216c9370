//! Golden dispatch contract of the engine: the order in which
//! `Engine::dispatch` offers free slots to the policy decides every task
//! placement, so the four variants on a multi-rack cluster reproduce
//! embedded completion digests and paper-metric bits.
//!
//! The cell is built to reach the paths `fabric_golden`'s three-rack
//! cluster does not: 8 racks of 8 machines (so the rack-interleaved walk
//! and the planned policies' per-rack decline matter), staggered
//! arrivals (every arrival re-dirties the whole cluster mid-run), and
//! machine failures with repairs plus one rack loss (the remove and
//! re-insert paths of the dirty set, and the planned fallback). Yarn-CS
//! runs the capacity scheduler, whose delay-scheduling waits must see
//! every offer.
//!
//! The Corral cell also pins `engine.picks`, the number of
//! `TaskScheduler::pick` calls: the deterministic cost counter of
//! dispatch. It is read from the probe, whose accumulator is
//! process-global, so this binary holds a single `#[test]`.
//!
//! The golden values are printed by the failing assertion; change them
//! only for an intentional change of scheduling behavior.

use corral_bench::runner::{run_variant, RunConfig, Variant};
use corral_cluster::config::{FailureSpec, NetPolicy, SimParams};
use corral_cluster::metrics::RunReport;
use corral_core::{Objective, PlannerConfig};
use corral_model::{Bandwidth, Bytes, ClusterConfig, JobSpec, MachineId, RackId, SimTime};
use corral_trace::fnv::Fnv64;
use corral_trace::probe::{self, ProbeCounter};
use corral_workloads::{assign_uniform_arrivals, w1, Scale};

/// `(variant, completion digest, makespan bits, avg JCT bits,
/// cross-rack bytes bits, task attempts killed)`.
const GOLDEN: [(&str, u64, u64, u64, u64, u64); 4] = [
    (
        "yarn-cs",
        0x5cfc814795ff9351,
        0x408577b173d235f0,
        0x40577fee87f2758a,
        0x427f05480ac4f014,
        17,
    ),
    (
        "corral",
        0x97a9ba030f36f02e,
        0x40884709c0adb0af,
        0x405ffce3972b6358,
        0x427aa7834f3ceabb,
        22,
    ),
    (
        "localshuffle",
        0x5a84d54c59c4d4c6,
        0x40888b0cb9b2fc6e,
        0x4060cc695d5d7a26,
        0x428135694cd4676d,
        27,
    ),
    (
        "shufflewatcher",
        0x4f82085a5b8d3bfa,
        0x4086626d17fd98a4,
        0x40593e779e36681b,
        0x427f7491de7bb27e,
        5,
    ),
];

/// `engine.picks` of the Corral cell. Offering every free slot, without
/// the planned policies' rack skip, makes 2,826 picks for the same
/// placements.
const CORRAL_PICKS: u64 = 1516;

fn cluster() -> ClusterConfig {
    ClusterConfig {
        racks: 8,
        machines_per_rack: 8,
        slots_per_machine: 2,
        nic_bandwidth: Bandwidth::gbps(10.0),
        oversubscription: 4.0,
        chunk_size: Bytes::mb(64.0),
        replication: 3,
    }
}

fn machine(rack: usize, pos: usize) -> MachineId {
    MachineId::from_index(rack * 8 + pos)
}

/// Transient failures spread over racks and positions, a permanent
/// machine loss, and one whole rack lost late in the run.
fn failures() -> Vec<FailureSpec> {
    let transient = |s: f64, rack, pos, down: f64| FailureSpec::MachineTransient {
        at: SimTime(s),
        machine: machine(rack, pos),
        repair_after: SimTime(down),
    };
    vec![
        transient(60.0, 0, 0, 90.0),
        transient(150.0, 3, 5, 200.0),
        transient(155.0, 3, 6, 40.0),
        transient(320.0, 6, 1, 120.0),
        FailureSpec::Machine {
            at: SimTime(240.0),
            machine: machine(5, 7),
        },
        transient(400.0, 1, 2, 60.0),
        FailureSpec::Rack {
            at: SimTime(480.0),
            rack: RackId::from_index(7),
        },
        transient(600.0, 2, 4, 300.0),
    ]
}

fn rc() -> RunConfig {
    RunConfig {
        params: SimParams {
            cluster: cluster(),
            horizon: SimTime::hours(10.0),
            net: NetPolicy::Tcp,
            failures: failures(),
            ..SimParams::testbed()
        },
        objective: Objective::AvgCompletionTime,
        planner: PlannerConfig::default(),
    }
}

fn jobs() -> Vec<JobSpec> {
    let mut jobs = w1::generate(
        &w1::W1Params {
            jobs: 16,
            ..w1::W1Params::with_seed(0xD15)
        },
        Scale {
            task_divisor: 8.0,
            data_divisor: 1.0,
        },
    );
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(10.0), 0xD15B);
    jobs
}

/// FNV-1a over `(job id, completion time bits)` in job-id order: the
/// digest perfbench pins for its simulation workloads.
fn completion_digest(r: &RunReport) -> u64 {
    let mut h = Fnv64::new();
    for (id, m) in &r.jobs {
        h.bytes(&id.0.to_le_bytes());
        h.u64(
            m.completion_time()
                .map_or(u64::MAX, |t| t.as_secs().to_bits()),
        );
    }
    h.finish()
}

#[test]
fn dispatch_order_hits_embedded_golden() {
    let jobs = jobs();
    let rc = rc();
    let mut got = Vec::new();
    let mut picks = 0;
    for v in Variant::ALL {
        let corral = v == Variant::Corral;
        if corral {
            probe::reset();
            probe::set_enabled(true);
        }
        let r = run_variant(v, &jobs, &rc);
        if corral {
            probe::flush_thread();
            picks = probe::report().counter(ProbeCounter::EnginePicks);
            probe::set_enabled(false);
        }
        assert_eq!(r.unfinished, 0, "{}: jobs left unfinished", v.label());
        got.push((
            v.label(),
            completion_digest(&r),
            r.makespan.0.to_bits(),
            r.avg_completion_time().to_bits(),
            r.cross_rack_bytes.0.to_bits(),
            r.summary.tasks_killed,
        ));
    }
    assert_eq!(got, GOLDEN, "dispatch drifted from the golden values");
    assert_eq!(picks, CORRAL_PICKS, "corral engine.picks drifted");
}
