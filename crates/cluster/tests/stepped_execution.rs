//! Stepped execution and live plan updates (`run_until`,
//! `apply_plan_update`, `unstarted_jobs`) — the API behind §3.1's periodic
//! replanning.

use corral_cluster::config::{DataPlacement, SimParams};
use corral_cluster::engine::Engine;
use corral_cluster::scheduler::SchedulerKind;
use corral_core::plan::{Plan, PlanEntry};
use corral_model::{
    Bandwidth, Bytes, ClusterConfig, JobId, JobSpec, MapReduceProfile, RackId, SimTime,
};

fn job(id: u32, arrival_s: f64) -> JobSpec {
    JobSpec::map_reduce(
        JobId(id),
        format!("j{id}"),
        MapReduceProfile {
            input: Bytes::gb(1.0),
            shuffle: Bytes::gb(2.0),
            output: Bytes::mb(100.0),
            maps: 6,
            reduces: 4,
            map_rate: Bandwidth::mbytes_per_sec(100.0),
            reduce_rate: Bandwidth::mbytes_per_sec(100.0),
        },
    )
    .arriving_at(SimTime(arrival_s))
}

fn entry(id: u32, rack: u32, prio: u32) -> (JobId, PlanEntry) {
    (
        JobId(id),
        PlanEntry {
            job: JobId(id),
            racks: vec![RackId(rack)],
            priority: prio,
            planned_start: SimTime::ZERO,
            planned_finish: SimTime(1e4),
            predicted_latency: SimTime(1e4),
        },
    )
}

fn params() -> SimParams {
    SimParams {
        cluster: ClusterConfig::tiny_test(),
        placement: DataPlacement::PerPlan,
        horizon: SimTime::hours(10.0),
        ..SimParams::testbed()
    }
}

#[test]
fn run_until_stops_at_the_limit_and_resumes() {
    let mut plan = Plan::default();
    plan.entries.extend([entry(0, 0, 0), entry(1, 1, 1)]);
    let jobs = vec![job(0, 0.0), job(1, 120.0)];
    let mut engine = Engine::new(params(), jobs, &plan, SchedulerKind::Planned);

    // Stop before job 1 arrives.
    let more = engine.run_until(SimTime(60.0));
    assert!(more, "job 1 still pending");
    assert!(engine.now() <= SimTime(60.0));
    let unstarted = engine.unstarted_jobs();
    assert_eq!(unstarted, vec![(JobId(1), SimTime(120.0))]);

    let report = engine.run();
    assert_eq!(report.unfinished, 0);
    assert!(report.jobs[&JobId(1)].started.unwrap() >= SimTime(120.0));
}

#[test]
fn plan_update_moves_an_unstarted_job() {
    let mut plan = Plan::default();
    plan.entries.extend([entry(0, 0, 0), entry(1, 0, 1)]);
    let jobs = vec![job(0, 0.0), job(1, 300.0)];
    let mut engine = Engine::new(params(), jobs, &plan, SchedulerKind::Planned);
    engine.run_until(SimTime(100.0));

    // Move job 1 (not yet arrived) to rack 2 with top priority.
    let mut fresh = Plan::default();
    fresh.entries.extend([entry(1, 2, 0)]);
    engine.apply_plan_update(&fresh);

    let report = engine.run();
    assert_eq!(report.unfinished, 0);
    let cfg = ClusterConfig::tiny_test();
    // Every attempt of job 1 ran on rack 2.
    for t in report.task_log.iter().filter(|t| t.job == JobId(1)) {
        assert_eq!(cfg.rack_of(t.machine), RackId(2));
    }
}

#[test]
fn plan_update_never_touches_started_jobs() {
    let mut plan = Plan::default();
    plan.entries.extend([entry(0, 1, 0)]);
    let jobs = vec![job(0, 0.0)];
    let mut engine = Engine::new(params(), jobs, &plan, SchedulerKind::Planned);
    engine.run_until(SimTime(2.0)); // job 0 has launched tasks by now

    let mut fresh = Plan::default();
    fresh.entries.extend([entry(0, 2, 0)]); // try to move it
    engine.apply_plan_update(&fresh);

    let report = engine.run();
    let cfg = ClusterConfig::tiny_test();
    for t in &report.task_log {
        assert_eq!(
            cfg.rack_of(t.machine),
            RackId(1),
            "started job must keep its allocation (§4.1: no preemption)"
        );
    }
}

// ---------------------------------------------------------------------
// The corral-serve feed/drain seam: submit_jobs / drain_finished.
// ---------------------------------------------------------------------

/// Drives a run where job 1 is submitted live at t=100 instead of being
/// present at construction. Returns (completion pairs, report).
fn seam_run(seed: u64) -> (Vec<(JobId, SimTime)>, corral_cluster::metrics::RunReport) {
    let mut plan = Plan::default();
    plan.entries.extend([entry(0, 0, 0)]);
    let mut engine = Engine::new(
        SimParams { seed, ..params() },
        vec![job(0, 0.0)],
        &plan,
        SchedulerKind::Planned,
    );
    engine.run_until(SimTime(100.0));

    let mut live = Plan::default();
    live.entries.extend([entry(0, 0, 0), entry(1, 1, 1)]);
    engine.submit_jobs(&[job(1, 100.0)], &live);

    let mut done = Vec::new();
    let mut t = 100.0;
    while engine.run_until(SimTime(t)) {
        t += 50.0;
    }
    engine.drain_finished(&mut done);
    (done, engine.run())
}

#[test]
fn submit_jobs_feeds_a_live_run_deterministically() {
    let (done_a, report_a) = seam_run(7);
    let (done_b, report_b) = seam_run(7);

    assert_eq!(report_a.unfinished, 0);
    // Both jobs completed and were reported through the drain, in
    // simulation order.
    assert_eq!(done_a.len(), 2);
    assert!(done_a[0].1 <= done_a[1].1);
    let ids: Vec<JobId> = done_a.iter().map(|c| c.0).collect();
    assert!(ids.contains(&JobId(0)) && ids.contains(&JobId(1)));
    // Drain times match the report's finish times exactly.
    for (id, at) in &done_a {
        assert_eq!(report_a.jobs[id].finished.unwrap(), *at);
    }
    // Same inputs, same submission times → identical runs.
    assert_eq!(done_a, done_b);
    assert_eq!(
        report_a.jobs[&JobId(1)].finished,
        report_b.jobs[&JobId(1)].finished
    );
    // The late job ran where its plan entry pinned it.
    let cfg = ClusterConfig::tiny_test();
    for t in report_a.task_log.iter().filter(|t| t.job == JobId(1)) {
        assert_eq!(cfg.rack_of(t.machine), RackId(1));
    }
}

#[test]
fn drain_is_incremental_and_non_lossy() {
    let mut plan = Plan::default();
    plan.entries.extend([entry(0, 0, 0), entry(1, 1, 1)]);
    let mut engine = Engine::new(
        params(),
        vec![job(0, 0.0), job(1, 0.0)],
        &plan,
        SchedulerKind::Planned,
    );
    let mut seen = Vec::new();
    let mut t = 25.0;
    loop {
        let more = engine.run_until(SimTime(t));
        engine.drain_finished(&mut seen); // drain as we go
        if !more {
            break;
        }
        t += 25.0;
    }
    let report = engine.run();
    assert_eq!(report.unfinished, 0);
    assert_eq!(seen.len(), 2, "each completion delivered exactly once");
}

// ---------------------------------------------------------------------
// One admission path: `Engine::new` is `submit_jobs` on an empty engine.
// ---------------------------------------------------------------------

/// A job wider than the cluster (40 maps of 10 s each against 24 slots),
/// so jobs that overlap in time queue behind each other's maps.
fn wide_job(id: u32, arrival_s: f64) -> JobSpec {
    JobSpec::map_reduce(
        JobId(id),
        format!("w{id}"),
        MapReduceProfile {
            input: Bytes::gb(4.0),
            shuffle: Bytes::gb(2.0),
            output: Bytes::mb(100.0),
            maps: 40,
            reduces: 12,
            map_rate: Bandwidth::mbytes_per_sec(10.0),
            reduce_rate: Bandwidth::mbytes_per_sec(20.0),
        },
    )
    .arriving_at(SimTime(arrival_s))
}

/// Submitting a batch given out of arrival order to an empty engine ranks
/// it FIFO by `(arrival, id)`, exactly as construction does, so the two
/// runs are the same run.
#[test]
fn submitted_batch_ranks_fifo_like_construction() {
    let batch = vec![wide_job(0, 2.0), wide_job(1, 0.0), wide_job(2, 1.0)];
    let p = SimParams {
        placement: DataPlacement::HdfsRandom,
        ..params()
    };
    for kind in [SchedulerKind::Capacity, SchedulerKind::ShuffleWatcher] {
        let built = Engine::new(p.clone(), batch.clone(), &Plan::default(), kind).run();
        let mut engine = Engine::new(p.clone(), Vec::new(), &Plan::default(), kind);
        engine.submit_jobs(&batch, &Plan::default());
        let submitted = engine.run();

        assert_eq!(built.unfinished, 0, "{kind:?}");
        assert_eq!(
            format!("{:?}", built.task_log),
            format!("{:?}", submitted.task_log),
            "{kind:?}: task logs differ"
        );
        for id in [0, 1, 2] {
            let (a, b) = (&built.jobs[&JobId(id)], &submitted.jobs[&JobId(id)]);
            assert_eq!(a.arrival, b.arrival, "{kind:?}: job {id} arrival");
            assert_eq!(a.finished, b.finished, "{kind:?}: job {id} finish");
        }
        assert_eq!(built.summary.to_string(), submitted.summary.to_string());
    }
}
