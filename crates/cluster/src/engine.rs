//! The discrete-event cluster engine.
//!
//! Co-simulates the cluster (slots, tasks, stage DAGs, DFS) with the fluid
//! network fabric: the clock repeatedly jumps to whichever of (next cluster
//! event, next flow completion) is earlier. Identical inputs produce
//! bit-identical runs — all randomness flows from the seed in
//! [`SimParams`], and all iteration is over deterministic orders.

use crate::config::{DataPlacement, FailureSpec, NetPolicy, SimParams};
use crate::job::{RtJob, RtTask, StageState, TaskPhase};
use crate::metrics::{JobMetrics, RunReport};
use crate::scheduler::{SchedulerKind, TaskScheduler};
use corral_core::plan::Plan;
use corral_dfs::{CorralPlacement, Dfs, HdfsDefault, PlacementPolicy};
use corral_model::{Bytes, FlowId, JobId, JobSpec, MachineId, RackId, SimTime, StageId, TaskId};
use corral_simnet::{
    CoflowId, CompletedFlow, EventQueue, Fabric, FlowKind, FlowSpec, FlowTag, RatePolicy,
};
use corral_trace::{
    probe, LocalityCounts, LocalityLevel, LogHistogram, NullTracer, Percentiles, RunSummary,
    SharedTracer, TimeWeightedGauge, TraceEvent,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cluster-side events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A job's submission time arrived (`jobs` index).
    JobArrival(usize),
    /// Begin uploading a job's input data (`jobs` index; Simulated ingest).
    IngestStart(usize),
    /// A task finished its compute phase.
    ComputeDone(TaskId),
    /// Background traffic on a rack changed.
    Background(RackId, corral_model::Bandwidth),
    /// Infrastructure failure.
    Failure(FailureSpec),
    /// A transiently-failed machine rejoins.
    Repair(MachineId),
    /// Deferred speculation check for a stage (`jobs` index, stage).
    SpecCheck(usize, StageId),
}

/// Read-only cluster state handed to scheduling policies.
pub struct ClusterState {
    /// Run parameters.
    pub params: SimParams,
    /// Current simulation time.
    pub now: SimTime,
    /// All jobs (stable order; indices are policy handles).
    pub jobs: Vec<RtJob>,
    /// Job indices in FIFO order (arrival, then id).
    pub fifo_order: Vec<usize>,
    /// Job indices in priority order (priority, arrival, id).
    pub prio_order: Vec<usize>,
    /// Free slots per machine.
    pub free_slots: Vec<u32>,
    /// Machine liveness.
    pub dead: Vec<bool>,
    /// Structured event sink shared with the fabric and the scheduling
    /// policy ([`NullTracer`] unless the run opted into tracing). Policies
    /// should gate event construction on `tracer.enabled()`.
    pub tracer: SharedTracer,
}

/// Engine-owned scratch hoisted out of the per-event hot loops. Buffers are
/// `mem::take`n at each use site (freeing `self` for nested calls), cleared,
/// refilled, and put back — never shrunk, so the steady state allocates
/// nothing.
#[derive(Debug, Default)]
struct EngineScratch {
    /// Flow completions drained from the fabric each event step.
    completions: Vec<CompletedFlow>,
    /// Sibling attempts to cancel on task completion.
    tids: Vec<TaskId>,
    /// Outlier task indices awaiting speculation.
    indices: Vec<u32>,
    /// Candidate machines (speculation targets, output-replica targets).
    machines: Vec<MachineId>,
    /// Incoming shuffle edges of a stage.
    edges: Vec<(StageId, f64, corral_model::EdgeKind)>,
    /// Producer `(machine, count)` pairs, stably sorted by rack.
    producers: Vec<(MachineId, u32)>,
    /// Per-rack producer runs: `(rack, start, end, count)` into `producers`.
    rack_groups: Vec<(RackId, u32, u32, u32)>,
    /// Live input replicas of a source task (filtered preferred list).
    replicas: Vec<MachineId>,
    /// Recycled per-task flow-list vectors: moved into `task_flows` on
    /// spawn, returned here (cleared) when the task ends.
    flow_lists: Vec<Vec<(FlowId, MachineId, MachineId)>>,
    /// Racks whose policy declined a machine in the current dispatch pass.
    declined_racks: Vec<bool>,
}

/// Machines worth re-offering to the policy, kept in dispatch order.
///
/// Each machine is keyed by its *rack-interleaved* ordinal
/// `position in rack * racks + rack`, so `pop_first` yields the next
/// machine [`Engine::dispatch`] visits without a scan. Every insert and
/// removal goes through the same key.
#[derive(Debug)]
struct DirtyMachines {
    set: BTreeSet<u32>,
    racks: usize,
    machines_per_rack: usize,
}

impl DirtyMachines {
    fn new(racks: usize, machines_per_rack: usize) -> Self {
        DirtyMachines {
            set: BTreeSet::new(),
            racks,
            machines_per_rack,
        }
    }

    fn key(&self, m: MachineId) -> u32 {
        let (rack, pos) = (
            m.index() / self.machines_per_rack,
            m.index() % self.machines_per_rack,
        );
        (pos * self.racks + rack) as u32
    }

    fn insert(&mut self, m: MachineId) {
        let key = self.key(m);
        self.set.insert(key);
    }

    fn remove(&mut self, m: MachineId) {
        let key = self.key(m);
        self.set.remove(&key);
    }

    fn pop_first(&mut self) -> Option<MachineId> {
        let key = self.set.pop_first()? as usize;
        let (rack, pos) = (key % self.racks, key / self.racks);
        Some(MachineId::from_index(rack * self.machines_per_rack + pos))
    }

    fn len(&self) -> usize {
        self.set.len()
    }

    fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

/// The simulator. Construct with [`Engine::new`], then call [`Engine::run`].
pub struct Engine {
    st: ClusterState,
    policy: Box<dyn TaskScheduler>,
    fabric: Fabric,
    dfs: Dfs,
    queue: EventQueue<Event>,
    /// Live task attempts.
    tasks: BTreeMap<TaskId, RtTask>,
    /// Flows owned by each live task (flow, src, dst).
    task_flows: BTreeMap<TaskId, Vec<(FlowId, MachineId, MachineId)>>,
    /// Reverse map: flow → owning task.
    flow_task: BTreeMap<FlowId, TaskId>,
    /// Ingress upload flows → owning job index.
    ingest_flows: BTreeMap<FlowId, usize>,
    next_task_id: u64,
    /// Attempt counter per (job, stage, index); feeds the straggler coin.
    attempt_seq: BTreeMap<(JobId, StageId, u32), u32>,
    next_coflow: u64,
    /// Coflow ids per (job, stage, phase-kind) so related flows share one.
    coflows: BTreeMap<(JobId, StageId, u8), CoflowId>,
    rng: StdRng,
    metrics: BTreeMap<JobId, JobMetrics>,
    /// Machines worth re-offering to the policy.
    dirty_machines: DirtyMachines,
    /// Jobs not finished yet (the run ends when this reaches zero).
    unfinished_jobs: usize,
    job_index: BTreeMap<JobId, usize>,
    scheduler_label: String,
    /// The policy kind the engine was built with; late submissions
    /// ([`Engine::submit_jobs`]) derive constraints/priorities the same
    /// way construction did.
    kind: SchedulerKind,
    /// Completions since the last [`Engine::drain_finished`] call, in
    /// simulation order — the feed half of the `corral-serve` seam.
    finished_log: Vec<(JobId, SimTime)>,
    horizon_hit: bool,
    task_log: Vec<crate::metrics::TaskRecord>,
    /// Cached `tracer.enabled()` so untraced runs pay one branch per site.
    trace_on: bool,
    // Always-on run telemetry feeding [`RunSummary`] (cheap: a few
    // counter/gauge/histogram updates per attempt).
    /// Task attempts that ran to completion (speculative copies included).
    tasks_finished: u64,
    /// Task attempts killed (speculation losers, machine failures).
    tasks_killed: u64,
    /// Busy slots over simulated time.
    slots_busy: TimeWeightedGauge,
    /// First-attempt queueing delay, seconds.
    queue_delay: LogHistogram,
    /// Per-attempt task duration, seconds.
    task_duration: LogHistogram,
    /// First-attempt placements by achieved locality level.
    locality: LocalityCounts,
    /// Reused hot-loop buffers.
    scratch: EngineScratch,
}

impl Engine {
    /// Builds a run: validates inputs, ingests job input data into the DFS
    /// (placement per `params.placement` and `plan`), derives constraints
    /// and priorities, and schedules arrival / background / failure events.
    pub fn new(params: SimParams, jobs: Vec<JobSpec>, plan: &Plan, kind: SchedulerKind) -> Self {
        params.cluster.validate().expect("invalid cluster config");
        for j in &jobs {
            j.validate().expect("invalid job spec");
        }
        let machines = params.cluster.total_machines();
        let dirty_machines =
            DirtyMachines::new(params.cluster.racks, params.cluster.machines_per_rack);
        let policy = match params.net {
            NetPolicy::Tcp => RatePolicy::FairShare,
            NetPolicy::Varys => RatePolicy::Varys,
        };
        let mut fabric = Fabric::new(params.cluster.clone(), policy);
        if let Some(bucket) = params.sample_core_utilization {
            fabric.enable_utilization_sampling(bucket);
        }
        let dfs = Dfs::new(params.cluster.clone());
        let mut rng = StdRng::seed_from_u64(params.seed);

        let mut rt_jobs: Vec<RtJob> = jobs
            .iter()
            .map(|s| RtJob::new(s.clone(), &params.cluster))
            .collect();
        let mut job_index = BTreeMap::new();
        for (i, j) in rt_jobs.iter().enumerate() {
            let prev = job_index.insert(j.spec.id, i);
            assert!(prev.is_none(), "duplicate job id {}", j.spec.id);
        }

        // Constraints + priorities.
        match kind {
            SchedulerKind::Planned => {
                for j in rt_jobs.iter_mut() {
                    if let Some(entry) = plan.entry(j.spec.id) {
                        j.constrain_to(entry.racks.clone());
                        j.priority = entry.priority;
                    }
                }
            }
            SchedulerKind::Capacity | SchedulerKind::ShuffleWatcher => {
                // FIFO priorities by (arrival, id).
                let mut order: Vec<usize> = (0..rt_jobs.len()).collect();
                order.sort_by(|&a, &b| {
                    rt_jobs[a]
                        .spec
                        .arrival
                        .total_cmp(rt_jobs[b].spec.arrival)
                        .then(rt_jobs[a].spec.id.cmp(&rt_jobs[b].spec.id))
                });
                for (rank, &i) in order.iter().enumerate() {
                    rt_jobs[i].priority = rank as u32;
                }
            }
        }

        let mut engine = Engine {
            st: ClusterState {
                params,
                now: SimTime::ZERO,
                jobs: rt_jobs,
                fifo_order: Vec::new(),
                prio_order: Vec::new(),
                free_slots: vec![0; machines],
                dead: vec![false; machines],
                tracer: Arc::new(NullTracer),
            },
            policy: kind.build(0),
            fabric,
            dfs,
            queue: EventQueue::new(),
            tasks: BTreeMap::new(),
            task_flows: BTreeMap::new(),
            flow_task: BTreeMap::new(),
            ingest_flows: BTreeMap::new(),
            next_task_id: 0,
            attempt_seq: BTreeMap::new(),
            next_coflow: 0,
            coflows: BTreeMap::new(),
            rng: StdRng::seed_from_u64(0),
            metrics: BTreeMap::new(),
            dirty_machines,
            unfinished_jobs: jobs.len(),
            job_index,
            scheduler_label: String::new(),
            kind,
            finished_log: Vec::new(),
            horizon_hit: false,
            task_log: Vec::new(),
            trace_on: false,
            tasks_finished: 0,
            tasks_killed: 0,
            slots_busy: TimeWeightedGauge::default(),
            queue_delay: LogHistogram::default(),
            task_duration: LogHistogram::default(),
            locality: LocalityCounts::default(),
            scratch: EngineScratch::default(),
        };
        // Anchor the busy-slot gauge at t=0 so its time average covers the
        // whole run, including any idle prefix before the first launch.
        engine.slots_busy.set(0.0, 0.0);
        engine.policy = kind.build(engine.st.params.locality_wait_slots);
        engine.scheduler_label = match (kind, engine.st.params.placement) {
            (SchedulerKind::Planned, DataPlacement::PerPlan) => "corral".to_string(),
            (SchedulerKind::Planned, DataPlacement::HdfsRandom) => "localshuffle".to_string(),
            _ => engine.policy.name().to_string(),
        };
        engine.st.free_slots = vec![engine.st.params.cluster.slots_per_machine as u32; machines];
        engine.rng = rng.clone();

        // --- Ingest input data (offline, before execution; §3.1 step 2).
        for ji in 0..engine.st.jobs.len() {
            engine.ingest_job_inputs(ji, &mut rng);
        }
        engine.rng = rng;

        // ShuffleWatcher rack assignment: needs input locality, hence after
        // ingest.
        if kind == SchedulerKind::ShuffleWatcher {
            for ji in 0..engine.st.jobs.len() {
                let racks = engine.shufflewatcher_racks(ji);
                engine.st.jobs[ji].constrain_to(racks);
            }
        }

        // Sort orders.
        let jobs = &engine.st.jobs;
        let mut fifo: Vec<usize> = (0..jobs.len()).collect();
        fifo.sort_by(|&a, &b| {
            jobs[a]
                .spec
                .arrival
                .total_cmp(jobs[b].spec.arrival)
                .then(jobs[a].spec.id.cmp(&jobs[b].spec.id))
        });
        let mut prio: Vec<usize> = (0..jobs.len()).collect();
        prio.sort_by(|&a, &b| {
            jobs[a]
                .priority
                .cmp(&jobs[b].priority)
                .then(jobs[a].spec.arrival.total_cmp(jobs[b].spec.arrival))
                .then(jobs[a].spec.id.cmp(&jobs[b].spec.id))
        });
        engine.st.fifo_order = fifo;
        engine.st.prio_order = prio;

        // --- Events: arrivals, uploads, failures, background changes.
        for (i, j) in engine.st.jobs.iter().enumerate() {
            engine.queue.schedule(j.spec.arrival, Event::JobArrival(i));
        }
        if let crate::config::IngestMode::Simulated { lead_time } = engine.st.params.ingest {
            for i in 0..engine.st.jobs.len() {
                if !engine.st.jobs[i].files.is_empty() {
                    let at = (engine.st.jobs[i].spec.arrival - lead_time).max(SimTime::ZERO);
                    engine.queue.schedule(at, Event::IngestStart(i));
                    // Placeholder so an arrival firing before the upload
                    // begins still gates on it; start_ingest replaces it
                    // with the real outstanding-flow count.
                    engine.st.jobs[i].ingest_remaining = 1;
                }
            }
        }
        for f in engine.st.params.failures.clone() {
            engine.queue.schedule(f.at(), Event::Failure(f));
        }
        let horizon = engine.st.params.horizon;
        for r in 0..engine.st.params.cluster.racks {
            for (t, bw) in engine.st.params.background.schedule_for_rack(r, horizon) {
                engine
                    .queue
                    .schedule(t, Event::Background(RackId::from_index(r), bw));
            }
        }

        // Metrics skeletons.
        for j in &engine.st.jobs {
            engine.metrics.insert(
                j.spec.id,
                JobMetrics {
                    arrival: j.spec.arrival,
                    slots_requested: j.spec.profile.slots_requested(),
                    ..Default::default()
                },
            );
        }
        engine
    }

    /// Runs the simulation to completion (all jobs done, or the horizon).
    pub fn run(mut self) -> RunReport {
        self.step_until(SimTime::INFINITY);
        self.finalize()
    }

    /// Advances the simulation until `limit` (events strictly after `limit`
    /// stay queued). Returns `true` while work remains. Used together with
    /// [`Engine::apply_plan_update`] for the paper's §3.1 periodic
    /// replanning loop, and with [`Engine::finish`] to collect the report.
    pub fn run_until(&mut self, limit: SimTime) -> bool {
        self.step_until(limit)
    }

    /// Completes the simulation and produces the report (the `&mut`-style
    /// counterpart of [`Engine::run`] for stepped drivers).
    pub fn finish(mut self) -> RunReport {
        self.step_until(SimTime::INFINITY);
        self.finalize()
    }

    /// §3.1: "The offline planner will periodically receive updated
    /// estimates of future workload, rerun the planning problem, and update
    /// the guidelines to the cluster scheduler." Applies new guidelines to
    /// every planned job that has not started yet (running jobs keep their
    /// allocation — the model assumes no preemption, §4.1). Input data
    /// placement is *not* redone: replicas were written at upload time.
    pub fn apply_plan_update(&mut self, plan: &Plan) {
        let mut jobs_updated = 0usize;
        for ji in 0..self.st.jobs.len() {
            let job = &mut self.st.jobs[ji];
            if job.first_task_at.is_some() || job.is_finished() {
                continue;
            }
            if let Some(entry) = plan.entry(job.spec.id) {
                job.constrain_to(entry.racks.clone());
                job.priority = entry.priority;
                jobs_updated += 1;
            }
        }
        if self.trace_on {
            self.emit(TraceEvent::Replanned { jobs_updated });
        }
        // Priorities changed: rebuild the priority order.
        let jobs = &self.st.jobs;
        let mut prio: Vec<usize> = (0..jobs.len()).collect();
        prio.sort_by(|&a, &b| {
            jobs[a]
                .priority
                .cmp(&jobs[b].priority)
                .then(jobs[a].spec.arrival.total_cmp(jobs[b].spec.arrival))
                .then(jobs[a].spec.id.cmp(&jobs[b].spec.id))
        });
        self.st.prio_order = prio;
        self.mark_all_machines_dirty();
        self.dispatch();
    }

    /// Jobs that have not launched any task yet (candidates for
    /// replanning), with their arrival times.
    pub fn unstarted_jobs(&self) -> Vec<(JobId, SimTime)> {
        self.st
            .jobs
            .iter()
            .filter(|j| j.first_task_at.is_none() && !j.is_finished())
            .map(|j| (j.spec.id, j.spec.arrival))
            .collect()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.st.now
    }

    /// Submits `specs` into a *running* simulation — the feed half of the
    /// `corral-serve` seam. Each job goes through the same pipeline as at
    /// construction: constraints/priorities from `plan` (for the planned
    /// policy; fallback policies get FIFO ranks after the existing jobs),
    /// DFS ingest under the engine's own RNG stream, order rebuilds, and
    /// an arrival event clamped to `max(now, spec.arrival)` (the engine
    /// clock never goes backwards — a spec whose arrival is already in
    /// the past arrives "now").
    ///
    /// Determinism: submissions are part of the input sequence, so two
    /// runs that submit the same specs at the same simulation times are
    /// byte-identical. Panics on duplicate job ids, like `new`.
    pub fn submit_jobs(&mut self, specs: &[JobSpec], plan: &Plan) {
        if specs.is_empty() {
            return;
        }
        let cluster = self.st.params.cluster.clone();
        for s in specs {
            s.validate().expect("invalid job spec");
        }
        let base = self.st.jobs.len();
        let next_rank = self
            .st
            .jobs
            .iter()
            .map(|j| j.priority.saturating_add(1))
            .max()
            .unwrap_or(0);
        for s in specs {
            let mut j = RtJob::new(s.clone(), &cluster);
            let i = self.st.jobs.len();
            let prev = self.job_index.insert(j.spec.id, i);
            assert!(prev.is_none(), "duplicate job id {}", j.spec.id);
            match self.kind {
                SchedulerKind::Planned => {
                    if let Some(entry) = plan.entry(j.spec.id) {
                        j.constrain_to(entry.racks.clone());
                        j.priority = entry.priority;
                    }
                }
                SchedulerKind::Capacity | SchedulerKind::ShuffleWatcher => {
                    // FIFO after everything already admitted (specs are
                    // assumed arrival-ordered within the batch).
                    j.priority = next_rank + (i - base) as u32;
                }
            }
            self.metrics.insert(
                j.spec.id,
                JobMetrics {
                    arrival: j.spec.arrival.max(self.st.now),
                    slots_requested: j.spec.profile.slots_requested(),
                    ..Default::default()
                },
            );
            self.st.jobs.push(j);
            self.unfinished_jobs += 1;
        }

        // Ingest under the engine RNG (same swap pattern as construction:
        // placement draws come from one stream however jobs arrive).
        let mut rng = std::mem::replace(&mut self.rng, StdRng::seed_from_u64(0));
        for ji in base..self.st.jobs.len() {
            self.ingest_job_inputs(ji, &mut rng);
        }
        self.rng = rng;
        if self.kind == SchedulerKind::ShuffleWatcher {
            for ji in base..self.st.jobs.len() {
                let racks = self.shufflewatcher_racks(ji);
                self.st.jobs[ji].constrain_to(racks);
            }
        }

        // Rebuild both orders over the grown job set.
        let jobs = &self.st.jobs;
        let mut fifo: Vec<usize> = (0..jobs.len()).collect();
        fifo.sort_by(|&a, &b| {
            jobs[a]
                .spec
                .arrival
                .total_cmp(jobs[b].spec.arrival)
                .then(jobs[a].spec.id.cmp(&jobs[b].spec.id))
        });
        let mut prio: Vec<usize> = (0..jobs.len()).collect();
        prio.sort_by(|&a, &b| {
            jobs[a]
                .priority
                .cmp(&jobs[b].priority)
                .then(jobs[a].spec.arrival.total_cmp(jobs[b].spec.arrival))
                .then(jobs[a].spec.id.cmp(&jobs[b].spec.id))
        });
        self.st.fifo_order = fifo;
        self.st.prio_order = prio;

        // Arrival + (simulated) upload events, clamped to now.
        let now = self.st.now;
        for i in base..self.st.jobs.len() {
            let arrival = self.st.jobs[i].spec.arrival.max(now);
            self.queue.schedule(arrival, Event::JobArrival(i));
            if let crate::config::IngestMode::Simulated { lead_time } = self.st.params.ingest {
                if !self.st.jobs[i].files.is_empty() {
                    let at = (self.st.jobs[i].spec.arrival - lead_time).max(now);
                    self.queue.schedule(at, Event::IngestStart(i));
                    self.st.jobs[i].ingest_remaining = 1;
                }
            }
        }
        self.mark_all_machines_dirty();
    }

    /// Moves every completion recorded since the last drain into `out`
    /// (job id, finish time; simulation order) — the drain half of the
    /// `corral-serve` seam. The buffer is engine-owned and reused, so a
    /// steady-state serve loop allocates nothing here.
    pub fn drain_finished(&mut self, out: &mut Vec<(JobId, SimTime)>) {
        out.append(&mut self.finished_log);
    }

    /// Routes structured events for this run into `tracer`: task lifecycle
    /// and job events from the engine, flow events from the fabric, and
    /// scheduler decisions from the policy (via [`ClusterState::tracer`]).
    /// Call before [`Engine::run`]; the default [`NullTracer`] keeps the
    /// untraced path free.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.trace_on = tracer.enabled();
        self.fabric.set_tracer(tracer.clone());
        self.st.tracer = tracer;
    }

    /// Records `ev` at the current simulation time. Callers gate on
    /// `self.trace_on` so disabled runs skip event construction.
    fn emit(&self, ev: TraceEvent) {
        self.st.tracer.record(self.st.now.as_secs(), ev);
    }

    fn step_until(&mut self, limit: SimTime) -> bool {
        loop {
            let tq = self.queue.peek_time();
            let tf = self.fabric.next_completion();
            let next = match (tq, tf) {
                (None, None) => return false,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            if next > limit {
                return true;
            }
            if next > self.st.params.horizon {
                self.horizon_hit = true;
                return false;
            }
            self.st.now = next;
            // Always advance the fabric to `next` so flows started by this
            // iteration's dispatch are timestamped correctly. Completions at
            // exactly `next` fire first: they unblock tasks whose follow-up
            // events land at the same instant. The completion buffer is
            // engine-owned and reused across events (no per-event Vec).
            let mut done = std::mem::take(&mut self.scratch.completions);
            done.clear();
            self.fabric.advance_collect(next, &mut done);
            for c in &done {
                self.on_flow_done(c.id);
            }
            self.scratch.completions = done;
            while self.queue.peek_time().is_some_and(|t| t <= next) {
                let (_, ev) = self.queue.pop().unwrap();
                self.handle_event(ev);
            }
            self.dispatch();
            if self.unfinished_jobs == 0 {
                return false;
            }
        }
    }

    // ------------------------------------------------------------------
    // Setup helpers
    // ------------------------------------------------------------------

    /// Writes every source stage's DFS input for job `ji`, then fills the
    /// per-task preferred machine lists.
    fn ingest_job_inputs(&mut self, ji: usize, rng: &mut StdRng) {
        let use_plan = self.st.params.placement == DataPlacement::PerPlan;
        let (planned, racks) = {
            let j = &self.st.jobs[ji];
            (!j.constrained_racks.is_empty(), j.constrained_racks.clone())
        };
        let corral_policy = CorralPlacement::new(racks);
        let hdfs = HdfsDefault;
        let policy: &dyn PlacementPolicy = if use_plan && planned {
            &corral_policy
        } else {
            &hdfs
        };

        let stage_count = self.st.jobs[ji].stages.len();
        for si in 0..stage_count {
            let sid = StageId::from_index(si);
            let (is_source, dfs_input, tasks, name) = {
                let j = &self.st.jobs[ji];
                let st = j.dag.stage(sid);
                (
                    j.stages[si].is_source,
                    st.dfs_input,
                    st.tasks,
                    format!("{}/{}", j.spec.name, st.name),
                )
            };
            if !is_source || dfs_input.0 <= 0.0 {
                continue;
            }
            let file = self.dfs.write_file(name, dfs_input, policy, rng);
            let chunks = self.dfs.chunks_of(file);
            let n_chunks = chunks.len();
            let mut preferred: Vec<Vec<MachineId>> = Vec::with_capacity(tasks);
            for t in 0..tasks {
                if n_chunks == 0 {
                    preferred.push(Vec::new());
                } else {
                    // Representative chunk: contiguous split of the file.
                    let c = (t * n_chunks) / tasks;
                    preferred.push(chunks[c].replicas.clone());
                }
            }
            let j = &mut self.st.jobs[ji];
            j.input_file = j.input_file.or(Some(file));
            j.files.push(file);
            j.stages[si].preferred = preferred;
        }
    }

    /// ShuffleWatcher's greedy, contention-oblivious rack choice: the
    /// minimum number of racks that fit the job's widest stage, ranked by
    /// the job's input-data locality (ties by rack id). Because it looks
    /// only at its own job, concurrent large jobs gravitate to the same
    /// racks — the pathology §6.2.1 observes.
    fn shufflewatcher_racks(&self, ji: usize) -> Vec<RackId> {
        let cfg = &self.st.params.cluster;
        let j = &self.st.jobs[ji];
        let need = j
            .spec
            .profile
            .slots_requested()
            .div_ceil(cfg.slots_per_rack())
            .clamp(1, cfg.racks);
        let frac = j
            .input_file
            .map(|f| self.dfs.rack_locality_fractions(f))
            .unwrap_or_else(|| vec![0.0; cfg.racks]);
        let mut order: Vec<usize> = (0..cfg.racks).collect();
        order.sort_by(|&a, &b| frac[b].total_cmp(&frac[a]).then(a.cmp(&b)));
        let mut racks: Vec<RackId> = order[..need]
            .iter()
            .map(|&r| RackId::from_index(r))
            .collect();
        racks.sort_unstable();
        racks
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle_event(&mut self, ev: Event) {
        // Per-event decision latency (host wall-clock, observability
        // only — the probe layer never feeds back into the simulation).
        let _probe = probe::span(probe::SpanKind::EngineEvent);
        match ev {
            Event::JobArrival(ji) => {
                let job = &mut self.st.jobs[ji];
                job.arrival_passed = true;
                let uploading = matches!(
                    self.st.params.ingest,
                    crate::config::IngestMode::Simulated { .. }
                ) && job.ingest_remaining > 0;
                if !uploading {
                    self.on_job_arrived(ji);
                }
            }
            Event::IngestStart(ji) => self.start_ingest(ji),
            Event::ComputeDone(tid) => self.on_compute_done(tid),
            Event::Background(rack, bw) => {
                self.fabric.set_rack_background(rack, bw);
                if self.trace_on {
                    self.emit(TraceEvent::BackgroundEpoch {
                        rack: rack.0,
                        gbps: bw.as_gbps(),
                    });
                }
            }
            Event::Failure(f) => self.on_failure(f),
            Event::Repair(m) => self.on_repair(m),
            Event::SpecCheck(ji, sid) => {
                if self.st.params.stragglers.is_some_and(|sm| sm.speculate)
                    && self.st.jobs[ji].stages[sid.index()].state != StageState::Done
                {
                    self.maybe_speculate(ji, sid);
                }
            }
        }
    }

    /// Marks job `ji` as arrived: its already-Ready stages start their
    /// queueing-delay clocks now, and machines are re-offered.
    fn on_job_arrived(&mut self, ji: usize) {
        let now = self.st.now;
        let id = {
            let job = &mut self.st.jobs[ji];
            job.arrived = true;
            for s in job.stages.iter_mut() {
                if s.state == StageState::Ready && s.ready_at.is_none() {
                    s.ready_at = Some(now);
                }
            }
            job.spec.id
        };
        if self.trace_on {
            self.emit(TraceEvent::JobArrived { job: id.0 });
        }
        self.mark_all_machines_dirty();
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn mark_all_machines_dirty(&mut self) {
        for m in 0..self.st.dead.len() {
            if !self.st.dead[m] && self.st.free_slots[m] > 0 {
                self.dirty_machines.insert(MachineId::from_index(m));
            }
        }
    }

    /// Offers dirty machines' free slots to the policy until it declines.
    ///
    /// Machines are visited in *rack-interleaved* order (position within the
    /// rack first, rack id second) so that a wide stage's tasks spread
    /// across all of its racks instead of packing into the lowest-numbered
    /// ones. The planner's latency model assumes exactly this uniform
    /// spread (§4.3), and packing would saturate individual racks and
    /// starve the jobs planned onto them.
    ///
    /// A launch only starts flows and schedules events, so nothing is
    /// dirtied during a pass and the walk is a plain `pop_first` loop.
    /// Under a policy whose declines are per rack
    /// ([`TaskScheduler::declines_per_rack`]), the first decline in a rack
    /// skips the rest of that rack for the pass: launches only shrink the
    /// pending lists, so its other machines would decline too.
    fn dispatch(&mut self) {
        if self.dirty_machines.is_empty() {
            return;
        }
        let _probe = probe::span(probe::SpanKind::EngineDispatch);
        let k = self.st.params.cluster.machines_per_rack;
        let skip_declined = self.policy.declines_per_rack();
        let mut declined = std::mem::take(&mut self.scratch.declined_racks);
        declined.clear();
        declined.resize(self.st.params.cluster.racks, false);
        let mut picks = 0;
        while let Some(m) = self.dirty_machines.pop_first() {
            let rack = m.index() / k;
            if declined[rack] {
                continue;
            }
            while !self.st.dead[m.index()] && self.st.free_slots[m.index()] > 0 {
                picks += 1;
                match self.policy.pick(m, &self.st) {
                    Some(pick) => {
                        let dirty = self.dirty_machines.len();
                        self.launch(pick, m);
                        debug_assert_eq!(
                            self.dirty_machines.len(),
                            dirty,
                            "a launch dirtied a machine mid-dispatch"
                        );
                    }
                    None => {
                        if skip_declined {
                            declined[rack] = true;
                        }
                        break;
                    }
                }
            }
        }
        self.scratch.declined_racks = declined;
        probe::count(probe::ProbeCounter::EnginePicks, picks);
    }

    /// Places a task attempt on machine `m` per the policy's `pick`.
    fn launch(&mut self, pick: crate::scheduler::Pick, m: MachineId) {
        let now = self.st.now;
        let ji = pick.job_idx;
        let sid = pick.stage;
        let si = sid.index();

        let (index, is_source) = {
            let job = &mut self.st.jobs[ji];
            let stage = &mut job.stages[si];
            let index = stage.pending.remove(pick.pending_pos);
            stage.running += 1;
            if stage.state == StageState::Ready && job.first_task_at.is_none() {
                job.first_task_at = Some(now);
                if let Some(mm) = self.metrics.get_mut(&job.spec.id) {
                    mm.started = Some(now);
                }
            }
            (index, stage.is_source)
        };
        self.st.free_slots[m.index()] -= 1;

        // Local-launch hook for delay scheduling.
        if is_source {
            let local = self.st.jobs[ji].stages[si]
                .preferred
                .get(index as usize)
                .is_some_and(|p| p.contains(&m));
            if local {
                self.policy.on_local_launch(ji);
            }
        }
        self.spawn_attempt(ji, sid, index, m);
    }

    /// Creates a task attempt (fetch flows + state) on machine `m`. The
    /// caller has already accounted for the slot and stage bookkeeping.
    fn spawn_attempt(&mut self, ji: usize, sid: StageId, index: u32, m: MachineId) {
        let now = self.st.now;
        let si = sid.index();
        let job_id = self.st.jobs[ji].spec.id;
        let is_source = self.st.jobs[ji].stages[si].is_source;
        let tid = TaskId(self.next_task_id);
        self.next_task_id += 1;
        let attempt = {
            let n = self.attempt_seq.entry((job_id, sid, index)).or_insert(0);
            let a = *n;
            *n += 1;
            a
        };
        let mut task = RtTask {
            id: tid,
            job: job_id,
            stage: sid,
            index,
            attempt,
            machine: m,
            phase: TaskPhase::Fetching,
            pending_flows: 0,
            scheduled_at: now,
            compute_started: None,
            write_started: None,
        };

        // --- Create fetch flows (recycled list: no allocation once warm).
        let mut flows = self.scratch.flow_lists.pop().unwrap_or_default();
        if is_source {
            self.make_input_read_flow(ji, sid, index, m, tid, &mut flows);
        } else {
            self.make_shuffle_flows(ji, sid, index, m, tid, &mut flows);
        }
        task.pending_flows = flows.len() as u32;
        let fetch_empty = flows.is_empty();
        for &(f, _, _) in &flows {
            self.flow_task.insert(f, tid);
        }
        self.task_flows.insert(tid, flows);
        self.tasks.insert(tid, task);

        // Telemetry: achieved locality and queueing delay. The delay
        // (stage runnable → slot assignment) is only meaningful for the
        // first attempt — retries and speculative duplicates were not
        // queueing.
        let (locality, queue_delay) = {
            let stage = &self.st.jobs[ji].stages[si];
            let locality = match stage
                .preferred
                .get(index as usize)
                .filter(|p| !p.is_empty())
            {
                None => LocalityLevel::Unconstrained,
                Some(p) if p.contains(&m) => LocalityLevel::Machine,
                Some(p) => {
                    let cfg = &self.st.params.cluster;
                    let rack = cfg.rack_of(m);
                    if p.iter().any(|&pm| cfg.rack_of(pm) == rack) {
                        LocalityLevel::Rack
                    } else {
                        LocalityLevel::Remote
                    }
                }
            };
            let delay = stage.ready_at.map_or(0.0, |r| (now - r).as_secs().max(0.0));
            (locality, delay)
        };
        if attempt == 0 {
            match locality {
                LocalityLevel::Machine => self.locality.machine += 1,
                LocalityLevel::Rack => self.locality.rack += 1,
                LocalityLevel::Remote => self.locality.remote += 1,
                LocalityLevel::Unconstrained => self.locality.unconstrained += 1,
            }
            self.queue_delay.record(queue_delay);
        }
        self.slots_busy.add(now.as_secs(), 1.0);
        if self.trace_on {
            self.emit(TraceEvent::TaskScheduled {
                job: job_id.0,
                stage: sid.0,
                index: index as usize,
                machine: m.0,
                locality,
                queue_delay_s: queue_delay,
            });
        }

        if fetch_empty {
            self.begin_compute(tid);
        }
    }

    /// Source-stage input read: local replica ⇒ no flow; otherwise a flow
    /// from the best replica (same rack preferred).
    fn make_input_read_flow(
        &mut self,
        ji: usize,
        sid: StageId,
        index: u32,
        m: MachineId,
        tid: TaskId,
        flows: &mut Vec<(FlowId, MachineId, MachineId)>,
    ) {
        let cfg = self.st.params.cluster.clone();
        let job = &self.st.jobs[ji];
        let share = job.dfs_share(sid);
        if share.is_negligible() {
            return;
        }
        let mut replicas = std::mem::take(&mut self.scratch.replicas);
        replicas.clear();
        if let Some(p) = job.stages[sid.index()].preferred.get(index as usize) {
            replicas.extend(p.iter().copied().filter(|r| !self.st.dead[r.index()]));
        }
        if replicas.contains(&m) {
            self.scratch.replicas = replicas;
            return; // machine-local read; disk folded into compute
        }
        let my_rack = cfg.rack_of(m);
        let src = replicas
            .iter()
            .copied()
            .find(|&r| cfg.rack_of(r) == my_rack)
            .or_else(|| replicas.first().copied())
            .unwrap_or_else(|| {
                // All replicas dead: re-fetch from an arbitrary live machine
                // (stand-in for re-replication / re-upload).
                self.first_live_machine()
            });
        self.scratch.replicas = replicas;
        if src == m {
            return;
        }
        let job_id = self.st.jobs[ji].spec.id;
        let coflow = self.coflow_for(job_id, sid, 0);
        let f = self.fabric.start_flow(FlowSpec {
            src,
            dst: m,
            bytes: share,
            tag: FlowTag::task(job_id, sid, tid, FlowKind::InputRead),
            coflow: Some(coflow),
        });
        flows.push((f, src, m));
    }

    /// Upper bound on distinct network flows created for one task's shuffle
    /// fetch (per incoming edge). On large topologies a stage's producers
    /// can span dozens of racks; creating a flow per rack makes the fluid
    /// model quadratically slow, so racks beyond the cap are merged into
    /// the flows of the largest producer racks. Rack-confined (planned)
    /// jobs never hit the cap.
    const MAX_FETCH_FLOWS: usize = 8;

    /// Shuffle / broadcast fetch: per incoming edge, one aggregated flow per
    /// producer rack (deterministically rotated across that rack's
    /// producers to spread NIC load), capped at [`Self::MAX_FETCH_FLOWS`]
    /// flows by merging the smallest rack contributions.
    fn make_shuffle_flows(
        &mut self,
        ji: usize,
        sid: StageId,
        index: u32,
        m: MachineId,
        tid: TaskId,
        flows: &mut Vec<(FlowId, MachineId, MachineId)>,
    ) {
        let cfg = self.st.params.cluster.clone();
        let job_id = self.st.jobs[ji].spec.id;
        let mut edges = std::mem::take(&mut self.scratch.edges);
        let mut producers = std::mem::take(&mut self.scratch.producers);
        let mut rack_groups = std::mem::take(&mut self.scratch.rack_groups);
        edges.clear();
        edges.extend(
            self.st.jobs[ji]
                .dag
                .in_edges(sid)
                .map(|e| (e.from, e.bytes.0, e.kind)),
        );
        let dst_tasks = self.st.jobs[ji].dag.stage(sid).tasks as f64;

        for &(from, edge_bytes, kind) in &edges {
            let share = match kind {
                corral_model::EdgeKind::Shuffle => edge_bytes / dst_tasks,
                corral_model::EdgeKind::Broadcast => edge_bytes,
            };
            if share < 1.0 {
                continue;
            }
            // Group producers by rack: a stable sort by rack leaves the
            // groups in ascending-rack order with each rack's members in
            // original producer order — exactly the iteration order of the
            // per-rack `BTreeMap` this replaces, without its allocations.
            producers.clear();
            producers.extend_from_slice(&self.st.jobs[ji].stages[from.index()].producers);
            let total: u32 = producers.iter().map(|&(_, c)| c).sum();
            if total == 0 {
                continue;
            }
            producers.sort_by_key(|&(pm, _)| cfg.rack_of(pm));
            rack_groups.clear();
            let mut start = 0usize;
            while start < producers.len() {
                let r = cfg.rack_of(producers[start].0);
                let mut end = start + 1;
                while end < producers.len() && cfg.rack_of(producers[end].0) == r {
                    end += 1;
                }
                let count: u32 = producers[start..end].iter().map(|&(_, c)| c).sum();
                rack_groups.push((r, start as u32, end as u32, count));
                start = end;
            }
            // Group racks: the largest MAX_FETCH_FLOWS-1 racks get their own
            // flow; the rest merge into one flow sourced from the largest
            // remaining rack (deterministic: sort by count desc, rack asc).
            rack_groups.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)));
            let coflow = self.coflow_for(job_id, sid, 1);
            let distinct = rack_groups.len().min(Self::MAX_FETCH_FLOWS);
            for i in 0..distinct {
                let (_rack, gs, ge, count) = rack_groups[i];
                let mut group_count = count;
                if i == distinct - 1 {
                    // Absorb the merged tail.
                    group_count += rack_groups[distinct..]
                        .iter()
                        .map(|&(_, _, _, c)| c)
                        .sum::<u32>();
                }
                let bytes = share * group_count as f64 / total as f64;
                if bytes < 1.0 {
                    continue;
                }
                // Rotate source across the rack's producers.
                let members = &producers[gs as usize..ge as usize];
                let src = members[(index as usize) % members.len()].0;
                let f = self.fabric.start_flow(FlowSpec {
                    src,
                    dst: m,
                    bytes: Bytes(bytes),
                    tag: FlowTag::task(job_id, sid, tid, FlowKind::Shuffle),
                    coflow: Some(coflow),
                });
                flows.push((f, src, m));
            }
        }
        self.scratch.edges = edges;
        self.scratch.producers = producers;
        self.scratch.rack_groups = rack_groups;
    }

    /// Sink-stage output write: one same-rack replica flow plus one
    /// cross-rack replica flow (HDFS's fault-tolerance shape; the primary
    /// replica is the local disk and costs no network). Appends to `flows`.
    fn make_output_flows(&mut self, tid: TaskId, flows: &mut Vec<(FlowId, MachineId, MachineId)>) {
        let task = self.tasks.get(&tid).expect("task missing").clone();
        let ji = self.job_index[&task.job];
        let cfg = self.st.params.cluster.clone();
        let share = self.st.jobs[ji].dfs_out_share(task.stage);
        if share.is_negligible() {
            return;
        }
        let m = task.machine;
        let my_rack = cfg.rack_of(m);
        let mut machines = std::mem::take(&mut self.scratch.machines);
        // Same-rack replica: next live machine in the rack.
        machines.clear();
        machines.extend(
            cfg.machines_in_rack(my_rack)
                .filter(|x| !self.st.dead[x.index()] && *x != m),
        );
        if let Some(&dst) = machines
            .get((task.index as usize) % machines.len().max(1))
            .or(machines.first())
        {
            let coflow = self.coflow_for(task.job, task.stage, 2);
            let f = self.fabric.start_flow(FlowSpec {
                src: m,
                dst,
                bytes: share,
                tag: FlowTag::task(task.job, task.stage, tid, FlowKind::OutputWrite),
                coflow: Some(coflow),
            });
            flows.push((f, m, dst));
        }
        // Cross-rack replica: rotate over other racks.
        if cfg.racks > 1 {
            let base = 1 + (task.index as usize) % (cfg.racks - 1);
            for step in 0..cfg.racks {
                let r = RackId::from_index((my_rack.index() + base + step) % cfg.racks);
                if r != my_rack {
                    machines.clear();
                    machines.extend(cfg.machines_in_rack(r).filter(|x| !self.st.dead[x.index()]));
                    if !machines.is_empty() {
                        let dst = machines[(task.index as usize) % machines.len()];
                        let coflow = self.coflow_for(task.job, task.stage, 2);
                        let f = self.fabric.start_flow(FlowSpec {
                            src: m,
                            dst,
                            bytes: share,
                            tag: FlowTag::task(task.job, task.stage, tid, FlowKind::OutputWrite),
                            coflow: Some(coflow),
                        });
                        flows.push((f, m, dst));
                        break;
                    }
                }
            }
        }
        self.scratch.machines = machines;
    }

    fn first_live_machine(&self) -> MachineId {
        MachineId::from_index(
            self.st
                .dead
                .iter()
                .position(|d| !d)
                .expect("entire cluster is dead"),
        )
    }

    fn coflow_for(&mut self, job: JobId, stage: StageId, phase: u8) -> CoflowId {
        if let Some(&c) = self.coflows.get(&(job, stage, phase)) {
            return c;
        }
        let c = CoflowId(self.next_coflow);
        self.next_coflow += 1;
        self.coflows.insert((job, stage, phase), c);
        c
    }

    // ------------------------------------------------------------------
    // Task lifecycle
    // ------------------------------------------------------------------

    fn on_flow_done(&mut self, f: FlowId) {
        if let Some(ji) = self.ingest_flows.remove(&f) {
            let job = &mut self.st.jobs[ji];
            debug_assert!(job.ingest_remaining > 0);
            job.ingest_remaining -= 1;
            if job.ingest_remaining == 0 && job.arrival_passed && !job.arrived {
                self.on_job_arrived(ji);
            }
            return;
        }
        let Some(tid) = self.flow_task.remove(&f) else {
            return; // flow of a task killed meanwhile
        };
        let Some(task) = self.tasks.get_mut(&tid) else {
            return;
        };
        debug_assert!(task.pending_flows > 0);
        task.pending_flows -= 1;
        if task.pending_flows > 0 {
            return;
        }
        match task.phase {
            TaskPhase::Fetching => self.begin_compute(tid),
            TaskPhase::Writing => self.complete_task(tid),
            TaskPhase::Computing => unreachable!("no flows pending during compute"),
        }
    }

    fn begin_compute(&mut self, tid: TaskId) {
        let now = self.st.now;
        let (ji, sid, job_id, index, attempt, m) = {
            let task = self.tasks.get_mut(&tid).expect("task missing");
            task.phase = TaskPhase::Computing;
            task.compute_started = Some(now);
            (
                self.job_index[&task.job],
                task.stage,
                task.job,
                task.index,
                task.attempt,
                task.machine,
            )
        };
        if self.trace_on {
            self.emit(TraceEvent::TaskComputeStart {
                job: job_id.0,
                stage: sid.0,
                index: index as usize,
                machine: m.0,
            });
        }
        let mut dur = self.st.jobs[ji].compute_time(sid);
        if let Some(sm) = self.st.params.stragglers {
            let coin = straggler_coin(self.st.params.seed, job_id, sid, index, attempt);
            if coin < sm.probability {
                dur = dur * sm.slowdown;
            }
        }
        let at = self.st.now + dur;
        self.queue
            .schedule(at.max(SimTime(self.queue.now().0)), Event::ComputeDone(tid));
    }

    /// Begins uploading a job's input: one ingress flow per destination
    /// rack, carrying every replica byte placed there (upload and pipeline
    /// replication combined). The flows share the rack downlinks with job
    /// traffic; the job's arrival is gated on their completion.
    fn start_ingest(&mut self, ji: usize) {
        let cfg = self.st.params.cluster.clone();
        let files = self.st.jobs[ji].files.clone();
        let job_id = self.st.jobs[ji].spec.id;
        // Aggregate replica bytes per rack, remembering the heaviest
        // destination machine per rack as the flow endpoint.
        let mut rack_bytes: BTreeMap<RackId, BTreeMap<MachineId, f64>> = BTreeMap::new();
        for f in files {
            for c in self.dfs.chunks_of(f) {
                for &m in &c.replicas {
                    *rack_bytes
                        .entry(cfg.rack_of(m))
                        .or_default()
                        .entry(m)
                        .or_insert(0.0) += c.size.0;
                }
            }
        }
        let coflow = self.coflow_for(job_id, StageId(0), 3);
        let mut started = 0u32;
        for (_rack, machines) in rack_bytes {
            let total: f64 = machines.values().sum();
            if total < 1.0 {
                continue;
            }
            let dst = machines
                .iter()
                .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
                .map(|(m, _)| *m)
                .expect("non-empty rack group");
            let flow = self.fabric.start_ingress_flow(
                dst,
                Bytes(total),
                FlowTag {
                    job: Some(job_id),
                    stage: None,
                    task: None,
                    kind: FlowKind::Ingest,
                },
                Some(coflow),
            );
            self.ingest_flows.insert(flow, ji);
            started += 1;
        }
        self.st.jobs[ji].ingest_remaining = started;
        if self.trace_on && started > 0 {
            self.emit(TraceEvent::IngestStarted {
                job: job_id.0,
                flows: started as usize,
            });
        }
        if started == 0 && self.st.jobs[ji].arrival_passed {
            self.on_job_arrived(ji);
        }
    }

    fn on_compute_done(&mut self, tid: TaskId) {
        if !self.tasks.contains_key(&tid) {
            return; // killed while computing
        }
        let mut flows = self.scratch.flow_lists.pop().unwrap_or_default();
        self.make_output_flows(tid, &mut flows);
        let now = self.st.now;
        let task = self.tasks.get_mut(&tid).unwrap();
        task.phase = TaskPhase::Writing;
        task.write_started = Some(now);
        task.pending_flows = flows.len() as u32;
        for &(f, _, _) in &flows {
            self.flow_task.insert(f, tid);
        }
        self.task_flows
            .get_mut(&tid)
            .expect("flow table missing")
            .append(&mut flows);
        self.scratch.flow_lists.push(flows);
        if self.trace_on {
            let t = &self.tasks[&tid];
            self.emit(TraceEvent::TaskWriteStart {
                job: t.job.0,
                stage: t.stage.0,
                index: t.index as usize,
                machine: t.machine.0,
            });
        }
        if self.tasks[&tid].pending_flows == 0 {
            self.complete_task(tid);
        }
    }

    fn complete_task(&mut self, tid: TaskId) {
        let task = self.tasks.remove(&tid).expect("task missing");
        if let Some(mut v) = self.task_flows.remove(&tid) {
            v.clear();
            self.scratch.flow_lists.push(v);
        }
        let now = self.st.now;
        self.task_log.push(crate::metrics::TaskRecord {
            job: task.job,
            stage: task.stage,
            index: task.index,
            machine: task.machine,
            scheduled: task.scheduled_at,
            compute_started: task.compute_started,
            write_started: task.write_started,
            finished: now,
            killed: false,
        });
        let ji = self.job_index[&task.job];
        let m = task.machine;

        if !self.st.dead[m.index()] {
            self.st.free_slots[m.index()] += 1;
            self.dirty_machines.insert(m);
        }

        // Metrics (charged for every attempt, including redundant
        // speculative copies — they consumed real resources).
        let dur = (now - task.scheduled_at).as_secs();
        let is_source = self.st.jobs[ji].stages[task.stage.index()].is_source;
        if let Some(mm) = self.metrics.get_mut(&task.job) {
            mm.task_seconds += dur;
        }
        self.slots_busy.add(now.as_secs(), -1.0);
        self.tasks_finished += 1;
        self.task_duration.record(dur);
        if self.trace_on {
            self.emit(TraceEvent::TaskFinished {
                job: task.job.0,
                stage: task.stage.0,
                index: task.index as usize,
                machine: m.0,
                scheduled_s: task.scheduled_at.as_secs(),
                compute_started_s: task.compute_started.map(|t| t.as_secs()),
                write_started_s: task.write_started.map(|t| t.as_secs()),
            });
        }

        // A speculative duplicate finishing after its sibling is redundant:
        // the slot is back, nothing else to do.
        if self.st.jobs[ji].stages[task.stage.index()].completed[task.index as usize] {
            let stage = &mut self.st.jobs[ji].stages[task.stage.index()];
            stage.running -= 1;
            return;
        }

        if let Some(mm) = self.metrics.get_mut(&task.job) {
            mm.tasks_completed += 1;
            if !is_source {
                mm.reduce_task_seconds.push(dur);
            }
        }

        // Stage bookkeeping.
        let stage_done = {
            let job = &mut self.st.jobs[ji];
            let stage = &mut job.stages[task.stage.index()];
            stage.running -= 1;
            stage.done += 1;
            stage.completed[task.index as usize] = true;
            stage.duration_sum += dur;
            stage.record_producer(m);
            stage.done == stage.total
        };

        // Cancel any sibling attempts of the now-complete index (their
        // output is redundant; no re-queue).
        let mut siblings = std::mem::take(&mut self.scratch.tids);
        siblings.clear();
        siblings.extend(
            self.tasks
                .iter()
                .filter(|(_, t)| {
                    t.job == task.job && t.stage == task.stage && t.index == task.index
                })
                .map(|(id, _)| *id),
        );
        for &s in &siblings {
            self.kill_task_inner(s, false);
        }
        self.scratch.tids = siblings;

        if stage_done {
            self.on_stage_done(ji, task.stage);
        } else if self.st.params.stragglers.is_some_and(|sm| sm.speculate) {
            self.maybe_speculate(ji, task.stage);
        }
    }

    /// Hadoop-style speculative execution: once a stage has completed
    /// attempts to average over, any still-running attempt that exceeds
    /// `spec_threshold ×` the average gets a duplicate on a free slot in an
    /// allowed rack. First finisher wins; the loser is cancelled.
    fn maybe_speculate(&mut self, ji: usize, sid: StageId) {
        let sm = self.st.params.stragglers.expect("caller checked");
        let Some(avg) = self.st.jobs[ji].stages[sid.index()].avg_duration() else {
            return;
        };
        let cutoff = sm.spec_threshold * avg;
        let now = self.st.now;
        let job_id = self.st.jobs[ji].spec.id;
        let mut outliers = std::mem::take(&mut self.scratch.indices);
        outliers.clear();
        outliers.extend(
            self.tasks
                .values()
                .filter(|t| {
                    t.job == job_id
                        && t.stage == sid
                        // Inclusive: a deferred SpecCheck lands exactly on
                        // the crossing time, and a strict test would skip
                        // it there.
                        && (now - t.scheduled_at).as_secs() >= cutoff
                })
                .map(|t| t.index),
        );
        let k = self.st.params.cluster.machines_per_rack;
        let mut candidates = std::mem::take(&mut self.scratch.machines);
        for &index in &outliers {
            {
                let stage = &mut self.st.jobs[ji].stages[sid.index()];
                if stage.completed[index as usize] || !stage.speculated.insert(index) {
                    continue; // already done or already duplicated
                }
            }
            // A free slot in an allowed rack, rack-interleaved order.
            candidates.clear();
            candidates.extend(
                (0..self.st.dead.len())
                    .filter(|&mi| {
                        !self.st.dead[mi]
                            && self.st.free_slots[mi] > 0
                            && self.st.jobs[ji].allowed_on(
                                self.st.params.cluster.rack_of(MachineId::from_index(mi)),
                            )
                    })
                    .map(MachineId::from_index),
            );
            candidates.sort_by_key(|m| (m.index() % k, m.index() / k));
            let Some(&m) = candidates.first() else {
                // No slot right now; allow a later completion to retry.
                self.st.jobs[ji].stages[sid.index()]
                    .speculated
                    .remove(&index);
                continue;
            };
            self.st.free_slots[m.index()] -= 1;
            self.st.jobs[ji].stages[sid.index()].running += 1;
            self.spawn_attempt(ji, sid, index, m);
        }
        self.scratch.indices = outliers;
        self.scratch.machines = candidates;

        // A tail straggler can outlive every completion event in its
        // stage, so completion-driven checks alone would never flag it.
        // Schedule a deferred check for the earliest future moment a
        // still-running, not-yet-duplicated attempt crosses the cutoff.
        let next = self
            .tasks
            .values()
            .filter(|t| t.job == job_id && t.stage == sid)
            .filter(|t| {
                let stage = &self.st.jobs[ji].stages[sid.index()];
                !stage.completed[t.index as usize] && !stage.speculated.contains(&t.index)
            })
            .map(|t| t.scheduled_at.as_secs() + cutoff)
            .filter(|&at| at > now.as_secs())
            .min_by(|a, b| a.total_cmp(b));
        if let Some(at) = next {
            self.queue.schedule(SimTime(at), Event::SpecCheck(ji, sid));
        }
    }

    fn on_stage_done(&mut self, ji: usize, sid: StageId) {
        {
            let job = &mut self.st.jobs[ji];
            job.stages[sid.index()].state = StageState::Done;
            job.stages_done += 1;
        }
        // Unblock children (each distinct child once).
        let children: BTreeSet<StageId> =
            self.st.jobs[ji].dag.out_edges(sid).map(|e| e.to).collect();
        let mut unblocked = false;
        let now = self.st.now;
        for c in children {
            let job = &mut self.st.jobs[ji];
            if let StageState::Waiting(n) = job.stages[c.index()].state {
                job.stages[c.index()].state = if n <= 1 {
                    unblocked = true;
                    // Queueing-delay clock starts now for the child's tasks.
                    job.stages[c.index()].ready_at = Some(now);
                    StageState::Ready
                } else {
                    StageState::Waiting(n - 1)
                };
            }
        }
        if unblocked {
            self.mark_all_machines_dirty();
        }
        let finished = {
            let job = &mut self.st.jobs[ji];
            if job.stages_done == job.stages.len() {
                job.finished_at = Some(now);
                self.unfinished_jobs -= 1;
                if let Some(mm) = self.metrics.get_mut(&job.spec.id) {
                    mm.finished = Some(now);
                }
                let arrival = self
                    .metrics
                    .get(&job.spec.id)
                    .map_or(SimTime::ZERO, |m| m.arrival);
                Some((job.spec.id, (now - arrival).as_secs()))
            } else {
                None
            }
        };
        if let Some((id, completion_s)) = finished {
            self.finished_log.push((id, now));
            if self.trace_on {
                self.emit(TraceEvent::JobFinished {
                    job: id.0,
                    completion_s,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Failures (§7)
    // ------------------------------------------------------------------

    fn on_failure(&mut self, f: FailureSpec) {
        let cfg = self.st.params.cluster.clone();
        let victims: Vec<MachineId> = match f {
            FailureSpec::Machine { machine, .. } => vec![machine],
            FailureSpec::Rack { rack, .. } => cfg.machines_in_rack(rack).collect(),
            FailureSpec::MachineTransient {
                machine,
                repair_after,
                ..
            } => {
                self.queue
                    .schedule(self.st.now + repair_after, Event::Repair(machine));
                vec![machine]
            }
        };
        for &m in &victims {
            self.st.dead[m.index()] = true;
            self.st.free_slots[m.index()] = 0;
            self.dfs.kill_machine(m);
            self.dirty_machines.remove(m);
        }
        if self.trace_on {
            for &m in &victims {
                self.emit(TraceEvent::MachineFailed { machine: m.0 });
            }
        }

        // Kill task attempts on dead machines and attempts with flows
        // touching dead machines (their transfer source/sink is gone).
        let mut to_kill: Vec<TaskId> = Vec::new();
        for (tid, t) in &self.tasks {
            if self.st.dead[t.machine.index()] {
                to_kill.push(*tid);
                continue;
            }
            if let Some(fl) = self.task_flows.get(tid) {
                if fl.iter().any(|&(fid, src, dst)| {
                    self.fabric.flow_remaining(fid).is_some()
                        && (self.st.dead[src.index()] || self.st.dead[dst.index()])
                }) {
                    to_kill.push(*tid);
                }
            }
        }
        for tid in to_kill {
            self.kill_task(tid);
        }

        // Corral failure fallback.
        let threshold = self.st.params.failure_fallback_threshold;
        for job in self.st.jobs.iter_mut() {
            if job.fallback || job.constrained_racks.is_empty() {
                continue;
            }
            let mut total = 0usize;
            let mut dead = 0usize;
            for &r in &job.constrained_racks {
                for m in cfg.machines_in_rack(r) {
                    total += 1;
                    if self.st.dead[m.index()] {
                        dead += 1;
                    }
                }
            }
            if total > 0 && (dead as f64 / total as f64) > threshold {
                job.fallback = true;
            }
        }
        self.mark_all_machines_dirty();
    }

    /// A transiently-failed machine rejoins: its slots and DFS replicas
    /// return to service. (Plan fallbacks already triggered stay triggered —
    /// §7's scheduler does not re-constrain a job mid-flight.)
    fn on_repair(&mut self, m: MachineId) {
        if !self.st.dead[m.index()] {
            return; // already repaired (overlapping churn events)
        }
        self.st.dead[m.index()] = false;
        self.dfs.revive_machine(m);
        self.st.free_slots[m.index()] = self.st.params.cluster.slots_per_machine as u32;
        self.dirty_machines.insert(m);
        if self.trace_on {
            self.emit(TraceEvent::MachineRepaired { machine: m.0 });
        }
    }

    /// Kills a task attempt: cancels its flows, frees its slot (if the
    /// machine survives) and re-queues the task index.
    fn kill_task(&mut self, tid: TaskId) {
        self.kill_task_inner(tid, true);
    }

    /// Kill with control over re-queuing (speculative losers are not
    /// re-queued — their index already completed).
    fn kill_task_inner(&mut self, tid: TaskId, requeue: bool) {
        let Some(task) = self.tasks.remove(&tid) else {
            return;
        };
        if let Some(mut flows) = self.task_flows.remove(&tid) {
            for &(f, _, _) in &flows {
                self.fabric.cancel_flow(f);
                self.flow_task.remove(&f);
            }
            flows.clear();
            self.scratch.flow_lists.push(flows);
        }
        let m = task.machine;
        if !self.st.dead[m.index()] {
            self.st.free_slots[m.index()] += 1;
            self.dirty_machines.insert(m);
        }
        let ji = self.job_index[&task.job];
        let job = &mut self.st.jobs[ji];
        let stage = &mut job.stages[task.stage.index()];
        stage.running -= 1;
        if requeue && !stage.completed[task.index as usize] {
            stage.pending.push(task.index);
            stage.pending.sort_unstable_by(|a, b| b.cmp(a));
        }
        if let Some(mm) = self.metrics.get_mut(&task.job) {
            mm.tasks_killed += 1;
        }
        self.slots_busy.add(self.st.now.as_secs(), -1.0);
        self.tasks_killed += 1;
        if self.trace_on {
            self.emit(TraceEvent::TaskKilled {
                job: task.job.0,
                stage: task.stage.0,
                index: task.index as usize,
                machine: m.0,
                scheduled_s: task.scheduled_at.as_secs(),
            });
        }
        self.task_log.push(crate::metrics::TaskRecord {
            job: task.job,
            stage: task.stage,
            index: task.index,
            machine: task.machine,
            scheduled: task.scheduled_at,
            compute_started: task.compute_started,
            write_started: task.write_started,
            finished: self.st.now,
            killed: true,
        });
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    fn finalize(mut self) -> RunReport {
        // Incremental fabric mode accounts bytes lazily; settle everything
        // still in flight before reading the counters.
        self.fabric.flush_accounting();
        let stats = self.fabric.stats();
        for (id, m) in self.metrics.iter_mut() {
            m.cross_rack_bytes = stats.cross_rack_of(*id);
        }
        let makespan = self
            .st
            .jobs
            .iter()
            .filter_map(|j| j.finished_at)
            .fold(SimTime::ZERO, SimTime::max);
        let unfinished = self.unfinished_jobs;
        let (edge_utilization, core_utilization) = self.fabric.class_utilization();
        let makespan = if unfinished > 0 && self.horizon_hit {
            self.st.params.horizon
        } else {
            makespan
        };

        // End-of-run summary from the run telemetry and fabric stats.
        let end_t = makespan.as_secs();
        let total_slots = self.st.params.cluster.total_slots() as f64;
        let busy_avg = self.slots_busy.time_avg(end_t).unwrap_or(0.0);
        let summary = RunSummary {
            scheduler: self.scheduler_label.clone(),
            makespan_s: end_t,
            jobs: self.st.jobs.len(),
            jobs_finished: self.st.jobs.len() - unfinished,
            tasks_finished: self.tasks_finished,
            tasks_killed: self.tasks_killed,
            slot_utilization: if total_slots > 0.0 && end_t > 0.0 {
                (busy_avg / total_slots).clamp(0.0, 1.0)
            } else {
                0.0
            },
            locality: self.locality,
            queue_delay_s: Percentiles::from_histogram(&self.queue_delay),
            task_duration_s: Percentiles::from_histogram(&self.task_duration),
            cross_rack_fraction: if stats.network_bytes.0 > 0.0 {
                stats.cross_rack_bytes.0 / stats.network_bytes.0
            } else {
                0.0
            },
            edge_utilization,
            core_utilization,
            flows_started: stats.flows_started,
            flows_completed: stats.flows_completed,
            network_bytes: stats.network_bytes.0,
            cross_rack_bytes: stats.cross_rack_bytes.0,
            // Planning cost and trace-ring drops are host-side facts;
            // only the invoking CLI can stamp them without breaking
            // run-to-run summary byte-equality.
            planning: None,
            trace_drops: None,
        };
        self.st.tracer.flush();

        RunReport {
            scheduler: self.scheduler_label.clone(),
            net: self.fabric.allocator_name().to_string(),
            makespan,
            jobs: std::mem::take(&mut self.metrics),
            cross_rack_bytes: stats.cross_rack_bytes,
            network_bytes: stats.network_bytes,
            local_bytes: stats.local_bytes,
            unfinished,
            input_balance_cov: self.dfs.rack_balance_cov(),
            edge_utilization,
            core_utilization,
            core_utilization_series: self.fabric.core_utilization_series(),
            task_log: std::mem::take(&mut self.task_log),
            summary,
        }
    }

    // Test/diagnostic accessors -----------------------------------------

    /// Immutable state view (tests and harnesses).
    pub fn state(&self) -> &ClusterState {
        &self.st
    }

    /// The DFS namespace (tests and harnesses).
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }
}

/// Deterministic straggler coin in `[0, 1)` for one task attempt.
///
/// Hashing the attempt identity (instead of drawing from the engine's
/// shared rng stream) keeps straggler outcomes identical across runs that
/// differ only in scheduling order or speculation policy: a given attempt
/// straggles — or not — regardless of how many other rng draws happened
/// before it. That makes A/B comparisons (e.g. speculation on vs off)
/// measure the policy, not a reshuffled coin sequence. Murmur3 fmix64
/// finalizer over the mixed words.
fn straggler_coin(seed: u64, job: JobId, stage: StageId, index: u32, attempt: u32) -> f64 {
    fn fmix64(mut h: u64) -> u64 {
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 33;
        h
    }
    let mut h = seed;
    for w in [
        u64::from(job.0),
        u64::from(stage.0),
        u64::from(index),
        u64::from(attempt),
    ] {
        h = fmix64(h ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}
