//! Direct tests of the scheduling policies against hand-built cluster
//! state (the engine tests cover them end-to-end; these pin the decision
//! rules themselves).

use corral_cluster::config::SimParams;
use corral_cluster::engine::ClusterState;
use corral_cluster::job::RtJob;
use corral_cluster::scheduler::{CapacityScheduler, PlannedScheduler, TaskScheduler};
use corral_model::{
    Bandwidth, Bytes, ClusterConfig, JobId, JobSpec, MachineId, MapReduceProfile, RackId, SimTime,
    StageId,
};

fn cfg() -> ClusterConfig {
    ClusterConfig::tiny_test() // 3 racks x 4 machines
}

fn job(id: u32, maps: usize, reduces: usize) -> RtJob {
    let spec = JobSpec::map_reduce(
        JobId(id),
        format!("j{id}"),
        MapReduceProfile {
            input: Bytes::gb(1.0),
            shuffle: Bytes::gb(1.0),
            output: Bytes::gb(0.1),
            maps,
            reduces,
            map_rate: Bandwidth::mbytes_per_sec(100.0),
            reduce_rate: Bandwidth::mbytes_per_sec(100.0),
        },
    );
    let mut j = RtJob::new(spec, &cfg());
    j.arrived = true;
    j
}

fn state(jobs: Vec<RtJob>) -> ClusterState {
    let cfg = cfg();
    let machines = cfg.total_machines();
    let n = jobs.len();
    let mut params = SimParams::testbed();
    params.cluster = cfg;
    let mut st = ClusterState {
        params,
        now: SimTime::ZERO,
        jobs,
        prio_order: (0..n).collect(),
        free_slots: vec![2; machines],
        dead: vec![false; machines],
        tracer: std::sync::Arc::new(corral_trace::NullTracer),
    };
    // Priority order: by priority field then index.
    st.prio_order.sort_by_key(|&i| (st.jobs[i].priority, i));
    st
}

#[test]
fn capacity_prefers_machine_local_map() {
    let mut j = job(0, 4, 2);
    // Task 2's input lives on machine 5; others elsewhere.
    j.stages[0].preferred = vec![
        vec![MachineId(0)],
        vec![MachineId(1)],
        vec![MachineId(5)],
        vec![MachineId(2)],
    ];
    let st = state(vec![j]);
    let mut pol = CapacityScheduler::new(3);
    let pick = pol.pick(MachineId(5), &st).expect("slot should be used");
    assert_eq!(pick.job_idx, 0);
    assert_eq!(pick.stage, StageId(0));
    // pending is [3,2,1,0]; task index 2 sits at position 1.
    assert_eq!(st.jobs[0].stages[0].pending[pick.pending_pos], 2);
}

#[test]
fn capacity_delay_ladder_eventually_relaxes() {
    let mut j = job(0, 2, 1);
    // All input lives on machine 0; machine 11 (other rack) asks for work.
    j.stages[0].preferred = vec![vec![MachineId(0)], vec![MachineId(0)]];
    let st = state(vec![j]);
    let mut pol = CapacityScheduler::new(2);
    // First offers are skipped (waiting for locality)...
    assert!(pol.pick(MachineId(11), &st).is_none());
    assert!(pol.pick(MachineId(11), &st).is_none());
    // ...then rack-local would be allowed (machine 3 is rack 0, like the
    // data) ...
    let p = pol
        .pick(MachineId(3), &st)
        .expect("rack-local allowed after wait");
    assert_eq!(st.jobs[0].stages[0].pending[p.pending_pos], 0);
    // ...and after the second threshold any machine gets a task.
    let mut pol = CapacityScheduler::new(1);
    assert!(pol.pick(MachineId(11), &st).is_none()); // wait 1
    assert!(pol.pick(MachineId(11), &st).is_none()); // wait 2 (rack miss)
    assert!(pol.pick(MachineId(11), &st).is_some(), "fully relaxed");
}

#[test]
fn capacity_reducers_have_no_locality_gate() {
    let mut j = job(0, 1, 3);
    // Map stage done; reduce stage ready.
    j.stages[0].state = corral_cluster::job::StageState::Done;
    j.stages[0].pending.clear();
    j.stages[1].state = corral_cluster::job::StageState::Ready;
    let st = state(vec![j]);
    let mut pol = CapacityScheduler::new(3);
    let p = pol.pick(MachineId(7), &st).expect("reducer anywhere");
    assert_eq!(p.stage, StageId(1));
}

#[test]
fn planned_respects_rack_constraints_and_priorities() {
    let mut a = job(0, 2, 1);
    a.constrain_to(vec![RackId(0)]);
    a.priority = 1;
    let mut b = job(1, 2, 1);
    b.constrain_to(vec![RackId(0), RackId(1)]);
    b.priority = 0;
    let st = state(vec![a, b]);
    let mut pol = PlannedScheduler;

    // Machine 0 (rack 0): both jobs allowed; priority 0 (job b) wins.
    let p = pol.pick(MachineId(0), &st).unwrap();
    assert_eq!(p.job_idx, 1);
    // Machine 4 (rack 1): only job b allowed.
    let p = pol.pick(MachineId(4), &st).unwrap();
    assert_eq!(p.job_idx, 1);
    // Machine 8 (rack 2): nobody is allowed there.
    assert!(pol.pick(MachineId(8), &st).is_none());
}

#[test]
fn planned_fallback_lifts_constraints() {
    let mut a = job(0, 2, 1);
    a.constrain_to(vec![RackId(0)]);
    a.fallback = true;
    let st = state(vec![a]);
    let mut pol = PlannedScheduler;
    assert!(
        pol.pick(MachineId(8), &st).is_some(),
        "fallback opens rack 2"
    );
}

#[test]
fn planned_ignores_unarrived_and_finished_jobs() {
    let mut a = job(0, 2, 1);
    a.arrived = false;
    let mut b = job(1, 2, 1);
    b.finished_at = Some(SimTime(1.0));
    let st = state(vec![a, b]);
    let mut pol = PlannedScheduler;
    assert!(pol.pick(MachineId(0), &st).is_none());
}

#[test]
fn planned_prefers_rack_local_input() {
    let mut j = job(0, 3, 1);
    j.constrain_to(vec![RackId(0), RackId(1)]);
    // Task 1's replica is on rack 1 (machine 5); tasks 0/2 on rack 0.
    j.stages[0].preferred = vec![vec![MachineId(0)], vec![MachineId(5)], vec![MachineId(1)]];
    let st = state(vec![j]);
    let mut pol = PlannedScheduler;
    // Machine 6 (rack 1): rack-local choice is task 1.
    let p = pol.pick(MachineId(6), &st).unwrap();
    assert_eq!(st.jobs[0].stages[0].pending[p.pending_pos], 1);
    // Machine 0 (rack 0): machine-local choice is task 0.
    let p = pol.pick(MachineId(0), &st).unwrap();
    assert_eq!(st.jobs[0].stages[0].pending[p.pending_pos], 0);
}
