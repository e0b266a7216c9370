//! Co-simulation driver: the serve scheduler as the *control plane* of a
//! live cluster-engine run.
//!
//! The scheduler makes the decisions (admit, anchor, order); the engine
//! is the execution ground truth. The driver time-steps both in
//! lockstep:
//!
//! 1. pick the next instant `t` anything happens (input arrival, or a
//!    scheduler dispatch timer);
//! 2. pump the engine to `t` and feed every completion it produced back
//!    into the scheduler as [`ServeEvent::Completion`]s (which replan
//!    the survivors);
//! 3. deliver the arrival / fire the timers at `t`;
//! 4. submit freshly dispatched jobs into the running engine via
//!    [`Engine::submit_jobs`].
//!
//! The scheduler runs with `self_clock` off: completions come from the
//! engine, not from the plan's predicted finish times. Because engine
//! submission is part of the input sequence, two drivers fed the same
//! arrivals are byte-identical — decisions *and* the engine report.

use crate::event::{Decision, ServeEvent};
use crate::scheduler::{Scheduler, ServeConfig, ServeStats};
use corral_cluster::config::SimParams;
use corral_cluster::engine::Engine;
use corral_cluster::metrics::RunReport;
use corral_cluster::scheduler::SchedulerKind;
use corral_core::plan::{Plan, PlanEntry};
use corral_model::{JobId, JobSpec, SimTime};
use std::collections::BTreeMap;

/// The scheduler/engine co-simulation (see module docs).
pub struct EngineDriver {
    sched: Scheduler,
    engine: Engine,
    /// Admitted specs parked until dispatch hands them to the engine.
    parked: BTreeMap<JobId, JobSpec>,
    /// Decisions in `out` before this index have been acted on.
    watermark: usize,
    done_buf: Vec<(JobId, SimTime)>,
}

impl EngineDriver {
    /// Builds the pair. `cfg.self_clock` is forced off (the engine owns
    /// completions); `params.cluster` should match `cfg.cluster` for the
    /// plans to mean anything.
    pub fn new(mut cfg: ServeConfig, params: SimParams) -> Self {
        cfg.self_clock = false;
        EngineDriver {
            sched: Scheduler::new(cfg),
            engine: Engine::new(params, Vec::new(), &Plan::default(), SchedulerKind::Planned),
            parked: BTreeMap::new(),
            watermark: 0,
            done_buf: Vec::new(),
        }
    }

    /// The control plane.
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Runs an arrival stream to completion: consumes every event, runs
    /// both sides dry, and returns the scheduler's stats plus the
    /// engine's ground-truth report. Decisions append to `out` (which
    /// must start empty — the driver tracks its own read watermark).
    pub fn run(
        mut self,
        events: &[ServeEvent],
        out: &mut Vec<(SimTime, Decision)>,
    ) -> (ServeStats, RunReport) {
        assert!(out.is_empty(), "driver wants a fresh decision log");
        let mut idx = 0;
        loop {
            let arrival = events.get(idx).map(|e| e.at().max(self.sched.now()));
            let timer = self.sched.next_timer();
            let t = match (arrival, timer) {
                (Some(a), Some(w)) => a.min(w),
                (Some(a), None) => a,
                (None, Some(w)) => w,
                (None, None) => {
                    // Inputs and timers exhausted. Anything still active
                    // lives only in the engine: run it dry, feed the
                    // completions back (each may re-arm dispatch timers
                    // for queued survivors), and go around again.
                    if self.sched.active_len() == 0 {
                        break;
                    }
                    self.pump_engine(SimTime::INFINITY, out);
                    continue;
                }
            };

            // Engine first: completions strictly before `t` must replan
            // the survivors before the `t`-instant work fires.
            self.pump_engine(t, out);

            // Timers due at `t` fire before an arrival at `t`: the queue
            // state the arrival replans against must be current.
            if timer.is_some_and(|w| w <= t) {
                self.sched.tick(t, out);
            }
            if arrival == Some(t) && self.sched.next_timer().is_none_or(|w| w > t) {
                if let ServeEvent::Arrival(spec) = &events[idx] {
                    self.parked.insert(spec.id, spec.clone());
                }
                self.sched.on_event(events[idx].clone(), out);
                idx += 1;
            }
            self.absorb_decisions(out);
        }
        (self.sched.stats(), self.engine.run())
    }

    /// Advances the engine to `t` and feeds every completion it produced
    /// back into the scheduler, in engine (simulation) order.
    fn pump_engine(&mut self, t: SimTime, out: &mut Vec<(SimTime, Decision)>) {
        self.engine.run_until(t);
        self.engine.drain_finished(&mut self.done_buf);
        for (job, at) in std::mem::take(&mut self.done_buf) {
            self.sched.on_event(ServeEvent::Completion { job, at }, out);
        }
        self.absorb_decisions(out);
    }

    /// Acts on every decision past the watermark: dispatches hand their
    /// parked spec to the engine (with the anchor racks and monotonic
    /// dispatch priority as a one-entry plan), rejects drop theirs.
    fn absorb_decisions(&mut self, out: &[(SimTime, Decision)]) {
        while self.watermark < out.len() {
            let (t, d) = out[self.watermark].clone();
            self.watermark += 1;
            match d {
                Decision::Dispatch {
                    job,
                    racks,
                    priority,
                } => {
                    let mut spec = self
                        .parked
                        .remove(&job)
                        .expect("dispatched job has a parked spec");
                    // Arrive "now": the queueing delay already happened
                    // on the scheduler side.
                    spec.arrival = t;
                    let mut plan = Plan::default();
                    plan.entries.insert(
                        job,
                        PlanEntry {
                            job,
                            racks,
                            priority,
                            planned_start: t,
                            planned_finish: t,
                            predicted_latency: SimTime::ZERO,
                        },
                    );
                    self.engine.submit_jobs(&[spec], &plan);
                }
                Decision::Reject { job, .. } => {
                    self.parked.remove(&job);
                }
                // Re-anchors concern only still-queued jobs; the engine
                // hears about them at dispatch time.
                Decision::Admit { .. } | Decision::Reanchor { .. } | Decision::Complete { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corral_cluster::config::DataPlacement;
    use corral_model::{Bandwidth, Bytes, ClusterConfig, MapReduceProfile};

    fn spec(id: u32, arrival: f64, gb: f64) -> JobSpec {
        JobSpec::map_reduce(
            JobId(id),
            format!("j{id}"),
            MapReduceProfile {
                input: Bytes::gb(gb),
                shuffle: Bytes::gb(gb / 2.0),
                output: Bytes::gb(gb / 10.0),
                maps: 8,
                reduces: 4,
                map_rate: Bandwidth::mbytes_per_sec(50.0),
                reduce_rate: Bandwidth::mbytes_per_sec(50.0),
            },
        )
        .arriving_at(SimTime(arrival))
    }

    fn setup() -> (ServeConfig, SimParams) {
        let cluster = ClusterConfig::tiny_test();
        let cfg = ServeConfig {
            cluster: cluster.clone(),
            tripwire: true,
            ..ServeConfig::default()
        };
        let params = SimParams {
            cluster,
            placement: DataPlacement::PerPlan,
            ..SimParams::testbed()
        };
        (cfg, params)
    }

    fn events() -> Vec<ServeEvent> {
        (1..=5u32)
            .map(|i| ServeEvent::Arrival(spec(i, i as f64 * 20.0, 1.0 + (i % 3) as f64)))
            .collect()
    }

    #[test]
    fn cosimulation_runs_every_job_to_engine_completion() {
        let (cfg, params) = setup();
        let mut out = Vec::new();
        let (stats, report) = EngineDriver::new(cfg, params).run(&events(), &mut out);
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.dispatched, 5);
        // Completions came from the engine, not the plan.
        assert_eq!(stats.completed, 5);
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.jobs.len(), 5);
        for m in report.jobs.values() {
            assert!(m.finished.is_some());
        }
        // The serve clock followed the engine's completion times.
        assert_eq!(stats.decisions, out.len() as u64);
    }

    /// Chaos co-simulation: the engine executes under the *same* seeded
    /// churn schedule the scheduler hears about as failure events, so
    /// both sides agree on which machines are down.
    #[test]
    fn cosimulation_under_churn_completes_and_is_deterministic() {
        let run = || {
            let (cfg, mut params) = setup();
            let chaos = crate::chaos::ChaosSpec {
                mtbf: SimTime(400.0),
                mean_repair: SimTime(60.0),
                horizon: SimTime(600.0),
                seed: 7,
            };
            params.failures = chaos.schedule(&cfg.cluster);
            let stream =
                crate::chaos::merge(events(), crate::chaos::failure_events(&params.failures));
            let mut out = Vec::new();
            let (stats, report) = EngineDriver::new(cfg, params).run(&stream, &mut out);
            (stats, report, out)
        };
        let (sa, ra, out_a) = run();
        let (sb, rb, out_b) = run();
        assert_eq!(out_a, out_b, "chaos co-simulation must be deterministic");
        assert_eq!(sa, sb);
        assert_eq!(ra.makespan, rb.makespan);
        assert!(sa.machine_failures > 0, "churn schedule must be non-empty");
        assert_eq!(sa.admitted, 5);
        // Transient churn (machines rejoin): every job still finishes.
        assert_eq!(sa.completed, 5);
        assert_eq!(ra.unfinished, 0);
    }

    #[test]
    fn cosimulation_is_deterministic() {
        let (cfg, params) = setup();
        let mut out_a = Vec::new();
        let (sa, ra) = EngineDriver::new(cfg.clone(), params.clone()).run(&events(), &mut out_a);
        let (cfg, params) = setup();
        let mut out_b = Vec::new();
        let (sb, rb) = EngineDriver::new(cfg, params).run(&events(), &mut out_b);
        assert_eq!(out_a, out_b);
        assert_eq!(sa, sb);
        assert_eq!(ra.makespan, rb.makespan);
        assert_eq!(ra.cross_rack_bytes, rb.cross_rack_bytes);
        for (id, m) in &ra.jobs {
            assert_eq!(m.finished, rb.jobs[id].finished);
        }
    }
}
