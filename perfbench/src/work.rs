//! The three workloads: input generation from a seed, the set-up each
//! run repeats, and one timed pass through the public API.

use std::time::Instant;

use corral_cluster::config::{DataPlacement, NetPolicy, SimParams};
use corral_cluster::{Engine, RunReport, SchedulerKind};
use corral_core::{plan_jobs, Objective, PlannerConfig};
use corral_model::{ClusterConfig, JobId, JobSpec, SimTime};
use corral_serve::source::events_from_specs;
use corral_serve::wire::format_decision;
use corral_serve::{Decision, Scheduler, ServeConfig, ServeEvent, ServeStats};
use corral_simnet::background::BackgroundModel;
use corral_workloads::{assign_uniform_arrivals, w1, Scale};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig6,
    Fig14,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fig6, Workload::Fig14, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6 => "fig6-w1-tcp",
            Workload::Fig14 => "fig14-2k-varys",
            Workload::Serve => "serve-w1-xl",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Simulated time one `Engine::run_until` step advances (the
    /// simulation workloads' operation).
    fn step_s(self) -> f64 {
        match self {
            Workload::Fig6 => 5.0,
            Workload::Fig14 => 2.0,
            Workload::Serve => unreachable!("serve-w1-xl has no simulated step"),
        }
    }
}

/// Generator seeds of the repository's own cells (`repro fig6` W1,
/// `repro fig14` Corral+Varys, servebench `w1-xl`); the instance
/// (`--seed` modulo 16) offsets the seeds it varies.
const FIG6_SEED: u64 = 0xA001;
const FIG14_SEED: u64 = 0xF14;
const FIG14_ARRIVAL_SEED: u64 = 0xF14B;
const SERVE_SEED: u64 = 0x5E48;

/// Largest shift the seed applies to a serving arrival, in seconds.
const ARRIVAL_JITTER_S: f64 = 1.0;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits to `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Inputs of one simulation run, as generated from the seed.
pub struct SimInput {
    pub params: SimParams,
    pub jobs: Vec<JobSpec>,
    pub objective: Objective,
}

pub fn gen_sim(w: Workload, seed: u64) -> SimInput {
    match w {
        Workload::Fig6 => {
            let jobs = w1::generate(
                &w1::W1Params {
                    jobs: 150,
                    bytes_per_task: 512e6,
                    ..w1::W1Params::with_seed(FIG6_SEED)
                },
                Scale::bench_default(),
            );
            let mut params = SimParams::testbed();
            params.background = BackgroundModel::Constant {
                per_rack: params.cluster.rack_core_bandwidth() * 0.5,
            };
            params.horizon = SimTime::hours(24.0);
            params.placement = DataPlacement::PerPlan;
            params.net = NetPolicy::Tcp;
            params.seed = params.seed.wrapping_add(seed);
            SimInput {
                params,
                jobs,
                objective: Objective::Makespan,
            }
        }
        Workload::Fig14 => {
            let mut jobs = w1::generate(
                &w1::W1Params {
                    jobs: 40,
                    bytes_per_task: 512e6,
                    ..w1::W1Params::with_seed(FIG14_SEED)
                },
                Scale {
                    task_divisor: 16.0,
                    data_divisor: 1.0,
                },
            );
            assign_uniform_arrivals(
                &mut jobs,
                SimTime::minutes(15.0),
                FIG14_ARRIVAL_SEED.wrapping_add(seed),
            );
            let mut params = SimParams::large_sim();
            params.cluster.slots_per_machine = 4;
            params.horizon = SimTime::hours(24.0);
            params.placement = DataPlacement::PerPlan;
            params.net = NetPolicy::Varys;
            params.seed = params.seed.wrapping_add(seed);
            SimInput {
                params,
                jobs,
                objective: Objective::AvgCompletionTime,
            }
        }
        Workload::Serve => unreachable!("serve-w1-xl is not a simulation workload"),
    }
}

pub fn gen_serve(seed: u64) -> (ServeConfig, Vec<ServeEvent>) {
    let mut jobs = w1::generate(
        &w1::W1Params {
            jobs: 320,
            ..w1::W1Params::with_seed(SERVE_SEED)
        },
        Scale::bench_default(),
    );
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(60.0), SERVE_SEED ^ 0xA);
    let mut state = seed;
    for j in &mut jobs {
        j.arrival = SimTime(j.arrival.as_secs() + unit(splitmix64(&mut state)) * ARRIVAL_JITTER_S);
    }
    let cfg = ServeConfig {
        cluster: ClusterConfig {
            racks: 334,
            ..ClusterConfig::testbed_210()
        },
        objective: Objective::AvgCompletionTime,
        ..ServeConfig::default()
    };
    (cfg, events_from_specs(&jobs))
}

/// Host time of each set-up piece, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub gen: f64,
    pub plan: f64,
    pub build: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.gen + self.plan + self.build
    }
}

/// A built instance, ready for one timed pass. Only one exists at a
/// time, so the size difference between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Built {
    Sim {
        engine: Engine,
        candidates: u64,
    },
    Serve {
        sched: Scheduler,
        events: Vec<ServeEvent>,
    },
}

/// Generates the inputs and builds the instance: generate + `plan_jobs`
/// + `Engine::new`, or generate + `Scheduler::new`.
pub fn setup(w: Workload, seed: u64) -> (Built, SetupTimes) {
    let t0 = Instant::now();
    if w == Workload::Serve {
        let (cfg, events) = gen_serve(seed);
        let t1 = Instant::now();
        let sched = Scheduler::new(cfg);
        let t2 = Instant::now();
        let times = SetupTimes {
            gen: (t1 - t0).as_secs_f64(),
            plan: 0.0,
            build: (t2 - t1).as_secs_f64(),
        };
        return (Built::Serve { sched, events }, times);
    }
    let input = gen_sim(w, seed);
    let t1 = Instant::now();
    let plan = plan_jobs(
        &input.params.cluster,
        &input.jobs,
        input.objective,
        &PlannerConfig::default(),
    );
    let t2 = Instant::now();
    let candidates = plan.provision_stats.candidates;
    let engine = Engine::new(input.params, input.jobs, &plan, SchedulerKind::Planned);
    let t3 = Instant::now();
    let times = SetupTimes {
        gen: (t1 - t0).as_secs_f64(),
        plan: (t2 - t1).as_secs_f64(),
        build: (t3 - t2).as_secs_f64(),
    };
    (Built::Sim { engine, candidates }, times)
}

/// What one pass produced: the checked outputs and the paper metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a digest of per-job completion times, or of the decision
    /// stream's wire lines.
    pub digest: u64,
    /// Deterministic counts, in a fixed order.
    pub counts: Vec<(&'static str, u64)>,
    pub makespan_s: f64,
    pub avg_jct_s: f64,
    pub cross_rack_gb: f64,
    /// Jobs not finished (simulation) or arrivals rejected or malformed
    /// (serving), over jobs or arrivals.
    pub fail_ratio: f64,
    /// Task + flow completions, or serving decisions.
    pub ops: u64,
}

impl Outcome {
    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// One timed pass; returns the outputs and the pass's host wall time.
///
/// A simulation pass advances the engine in fixed simulated steps with
/// `Engine::run_until` and collects the report with `Engine::finish`; a
/// step in which the engine processed at least one event is one
/// operation. A serving pass feeds every event to `Scheduler::on_event`
/// back to back (one operation each), then drains the timers with
/// `Scheduler::finish`. The wall time is the sum of the timed calls.
/// `after_call` runs after every timed call, outside the timing; it
/// receives the call's host time and whether the call was an operation.
pub fn pass(w: Workload, built: Built, after_call: &mut dyn FnMut(f64, bool)) -> (Outcome, f64) {
    match built {
        Built::Sim {
            mut engine,
            candidates,
        } => {
            let mut wall = 0.0;
            for k in 1u64.. {
                let limit = SimTime(w.step_s() * k as f64);
                let before = engine.now();
                let t = Instant::now();
                let more = engine.run_until(limit);
                let dt = t.elapsed().as_secs_f64();
                wall += dt;
                after_call(dt, engine.now() > before);
                if !more {
                    break;
                }
            }
            let t = Instant::now();
            let report = engine.finish();
            let dt = t.elapsed().as_secs_f64();
            wall += dt;
            after_call(dt, false);
            (sim_outcome(&report, candidates), wall)
        }
        Built::Serve { mut sched, events } => {
            let arrivals: Vec<(JobId, SimTime)> = events
                .iter()
                .filter_map(|e| match e {
                    ServeEvent::Arrival(s) => Some((s.id, s.arrival)),
                    _ => None,
                })
                .collect();
            let mut out = Vec::with_capacity(events.len() * 3);
            let mut wall = 0.0;
            for ev in events {
                let t = Instant::now();
                sched.on_event(ev, &mut out);
                let dt = t.elapsed().as_secs_f64();
                wall += dt;
                after_call(dt, true);
            }
            let t = Instant::now();
            sched.finish(&mut out);
            let dt = t.elapsed().as_secs_f64();
            wall += dt;
            after_call(dt, false);
            (serve_outcome(&sched.stats(), &out, &arrivals), wall)
        }
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn sim_outcome(r: &RunReport, candidates: u64) -> Outcome {
    let mut digest = FNV_OFFSET;
    for (id, m) in &r.jobs {
        fnv(&mut digest, &id.0.to_le_bytes());
        let done = m
            .completion_time()
            .map_or(u64::MAX, |t| t.as_secs().to_bits());
        fnv(&mut digest, &done.to_le_bytes());
    }
    let s = &r.summary;
    let jobs = r.jobs.len() as u64;
    Outcome {
        digest,
        counts: vec![
            ("jobs", jobs),
            ("jobs_finished", s.jobs_finished as u64),
            ("tasks_finished", s.tasks_finished),
            ("tasks_killed", s.tasks_killed),
            ("flows_started", s.flows_started),
            ("flows_completed", s.flows_completed),
            ("candidates", candidates),
        ],
        makespan_s: r.makespan.as_secs(),
        avg_jct_s: r.avg_completion_time(),
        cross_rack_gb: r.cross_rack_bytes.as_gb(),
        fail_ratio: r.unfinished as f64 / jobs.max(1) as f64,
        ops: s.tasks_finished + s.flows_completed,
    }
}

fn serve_outcome(
    stats: &ServeStats,
    out: &[(SimTime, Decision)],
    arrivals: &[(JobId, SimTime)],
) -> Outcome {
    let mut digest = FNV_OFFSET;
    let mut makespan = 0.0f64;
    let mut jct_sum = 0.0;
    let mut completes = 0u64;
    for (t, d) in out {
        fnv(&mut digest, format_decision(*t, d).as_bytes());
        fnv(&mut digest, b"\n");
        if let Decision::Complete { job } = d {
            let arrival = arrivals
                .iter()
                .find(|(id, _)| id == job)
                .map_or(0.0, |(_, a)| a.as_secs());
            makespan = makespan.max(t.as_secs());
            jct_sum += t.as_secs() - arrival;
            completes += 1;
        }
    }
    Outcome {
        digest,
        counts: vec![
            ("arrivals", stats.arrivals),
            ("decisions", stats.decisions),
            ("admitted", stats.admitted),
            ("rejected", stats.rejected),
            ("dispatched", stats.dispatched),
            ("completed", stats.completed),
            ("late_arrivals", stats.late_arrivals),
            ("malformed", stats.malformed),
            ("cache_hits", stats.cache_hits),
            ("cache_misses", stats.cache_misses),
            ("replans_incremental", stats.replans_incremental),
            ("replans_full", stats.replans_full),
        ],
        makespan_s: makespan,
        avg_jct_s: jct_sum / completes.max(1) as f64,
        cross_rack_gb: 0.0,
        fail_ratio: (stats.rejected + stats.malformed) as f64 / stats.arrivals.max(1) as f64,
        ops: stats.decisions,
    }
}
