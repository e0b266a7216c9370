//! The provisioning phase (§4.2).
//!
//! Decides how many racks `r_j` each job receives. Starting from `r_j = 1`
//! for every job, each iteration finds the job with the longest estimated
//! latency `L'_j(r_j)` among jobs not yet at `R` racks and widens it by one
//! rack. This walks through `J·(R−1)` candidate allocations; each candidate
//! is scored by running the prioritization phase and evaluating the
//! objective, and the best-scoring allocation wins. (The paper notes this is
//! the [Belkhale–Banerjee] malleable-scheduling heuristic run to exhaustion
//! rather than stopping at `Σ r_j = R`, which lets it serve the
//! average-completion-time objective too.)
//!
//! # The fast path
//!
//! The key structural fact (exploited since ISSUE 5): the **widening
//! trajectory is independent of the evaluations**. Which job widens next
//! depends only on the latency tables `L'_j(·)` and the current widths —
//! never on a candidate's score — so the entire sequence of candidate
//! allocations can be enumerated up front (a max-heap over `L'_j(r_j)`
//! replaces the per-iteration `O(J)` scan) and every candidate scored
//! independently: serially with a persistent per-thread
//! [`PlannerScratch`], or in parallel on a [`corral_sweep::SweepPool`]
//! via [`provision_pinned_pooled`]. The reduction is a deterministic
//! min-by-`(value, trajectory index)` fold, so the result is
//! bit-identical whatever the worker count. Each evaluation is
//! allocation-free: borrowed pins, reused job-order / `finish_at` /
//! rack-selection buffers, a k-smallest rack selection instead of the
//! full `O(R log R)` sort, and an iterator-fold objective
//! ([`Objective::evaluate_iter`]).
//!
//! The pre-optimization implementation survives as
//! [`provision_reference`], the oracle a 200-case randomized property
//! test (`crates/core/tests/prop_provision.rs`) and the golden planner
//! cells (`crates/bench/tests/planner_golden.rs`) hold the fast path
//! against, bit for bit.

use crate::latency::LatencyModel;
use crate::objective::Objective;
use crate::prioritize::{
    prioritize_jobs, schedule_value_with, PlannerScratch, PrioritizeJob, ScheduledJob,
};
use corral_model::{JobId, RackId, SimTime};
use corral_trace::probe;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How far the provisioning loop explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvisionMode {
    /// The paper's choice: widen until *every* job reaches `R` racks,
    /// evaluating all `J·(R−1)` candidate allocations.
    Exhaustive,
    /// Belkhale–Banerjee's original stopping rule: quit once the jobs that
    /// received more than one rack jointly cover the cluster
    /// (`Σ_{j: r_j>1} r_j ≥ R`). Cheaper, explores fewer candidates — the
    /// paper argues (and the `heuristics` ablation measures) that the
    /// exhaustive variant finds better schedules.
    EarlyStop,
}

/// Cost counters of one provisioning run, the planner's analogue of the
/// fabric's `FabricStats`. `candidates` and `heap_pops` are deterministic
/// (pure functions of the input); `candidates` is pinned by golden counts
/// in `crates/bench/tests/planner_golden.rs`. `scratch_grows` depends on
/// what previously ran on the scoring threads and is informational only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvisionStats {
    /// Candidate allocations scored (widenings + the initial allocation).
    pub candidates: u64,
    /// Widening steps popped off the trajectory heap.
    pub heap_pops: u64,
    /// Times a scoring scratch buffer had to (re)allocate — 0 in steady
    /// state once the per-thread scratches have warmed up.
    pub scratch_grows: u64,
}

/// The outcome of provisioning + prioritization.
#[derive(Debug, Clone)]
pub struct ProvisionOutcome {
    /// Chosen rack count per job (parallel to the input slice).
    pub racks: Vec<usize>,
    /// The schedule produced by the prioritization phase at that allocation.
    pub schedule: Vec<ScheduledJob>,
    /// Objective value of the winning allocation.
    pub objective_value: f64,
    /// Cost counters of this run.
    pub stats: ProvisionStats,
}

/// Validates per-job rack pins against the cluster once, at the planner
/// boundary: out-of-range rack ids are dropped, duplicates collapse, and
/// a pin left empty becomes "unpinned" (the job re-enters the widening
/// loop). Before this existed, `provision_pinned` derived a pinned job's
/// *width* from the raw pin (`pin.len()`) while `prioritize` silently
/// dropped out-of-range ids from its *placement* — the two could
/// disagree. Both the fast path and [`provision_reference`] consume the
/// validated pins, so width and placement now always derive from the
/// same rack set.
pub fn validate_pins(pins: &[Option<Vec<RackId>>], total_racks: usize) -> Vec<Option<Vec<RackId>>> {
    pins.iter()
        .map(|pin| {
            let pin = pin.as_ref()?;
            let mut valid: Vec<RackId> = pin
                .iter()
                .copied()
                .filter(|r| r.index() < total_racks)
                .collect();
            valid.sort_unstable();
            valid.dedup();
            if valid.is_empty() {
                None
            } else {
                Some(valid)
            }
        })
        .collect()
}

/// Runs the provisioning phase over per-job latency models.
///
/// * `models[i]` — the latency table of job `i`;
/// * `jobs[i]` — its id and arrival time;
/// * `total_racks` — the cluster's `R`;
/// * `objective` — what to minimize (selects the online sort order too).
pub fn provision(
    models: &[LatencyModel],
    jobs: &[(JobId, SimTime)],
    total_racks: usize,
    objective: Objective,
) -> ProvisionOutcome {
    provision_with_mode(
        models,
        jobs,
        total_racks,
        objective,
        ProvisionMode::Exhaustive,
    )
}

/// [`provision`] with an explicit exploration mode.
pub fn provision_with_mode(
    models: &[LatencyModel],
    jobs: &[(JobId, SimTime)],
    total_racks: usize,
    objective: Objective,
    mode: ProvisionMode,
) -> ProvisionOutcome {
    let pins = vec![None; jobs.len()];
    provision_pinned(models, jobs, &pins, total_racks, objective, mode)
}

/// [`provision_with_mode`] with optional per-job rack pins: a pinned job is
/// excluded from widening (its rack count is its pin's size) and the
/// prioritization phase places it on exactly those racks — the §3.1
/// replanning case, where input replicas already sit on specific racks.
/// Pins are validated once via [`validate_pins`].
///
/// This is the serial fast path: candidates are scored one after another
/// against a persistent per-thread scratch. Use
/// [`provision_pinned_pooled`] to fan candidate scoring out over a sweep
/// pool; both produce bit-identical outcomes (and both match
/// [`provision_reference`]).
pub fn provision_pinned(
    models: &[LatencyModel],
    jobs: &[(JobId, SimTime)],
    pins: &[Option<Vec<RackId>>],
    total_racks: usize,
    objective: Objective,
    mode: ProvisionMode,
) -> ProvisionOutcome {
    provision_fast(None, models, jobs, pins, total_racks, objective, mode)
}

/// [`provision_pinned`] with candidate scoring parallelized on `pool`.
/// The trajectory is enumerated up front, every candidate is scored as an
/// independent cell, and the winner is reduced by
/// `(value, trajectory index)` — byte-identical to the serial path
/// whatever the pool's worker count.
pub fn provision_pinned_pooled(
    pool: &corral_sweep::SweepPool,
    models: &[LatencyModel],
    jobs: &[(JobId, SimTime)],
    pins: &[Option<Vec<RackId>>],
    total_racks: usize,
    objective: Objective,
    mode: ProvisionMode,
) -> ProvisionOutcome {
    provision_fast(Some(pool), models, jobs, pins, total_racks, objective, mode)
}

thread_local! {
    /// Per-thread scoring scratch, persistent across planner calls: after
    /// the first plan at a given cluster size, steady-state replanning
    /// performs zero allocations per candidate.
    static SCRATCH: RefCell<PlannerScratch> = RefCell::new(PlannerScratch::new());
}

/// A pending widening in the trajectory heap: job `idx` currently holds
/// some width `r` with `latency = L'_idx(r)`. Ordered so the heap pops
/// the longest job first, ties broken toward the smaller job index —
/// exactly the `max_by` rule of the original per-iteration scan.
struct Widen {
    latency: SimTime,
    idx: usize,
}

impl PartialEq for Widen {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Widen {}
impl PartialOrd for Widen {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Widen {
    fn cmp(&self, other: &Self) -> Ordering {
        self.latency
            .total_cmp(other.latency)
            .then(other.idx.cmp(&self.idx))
    }
}

/// Enumerates the full widening trajectory: returns the flattened
/// candidate widths (`n` per candidate, candidate 0 = the initial
/// allocation) plus the number of heap pops. Depends only on the latency
/// tables, pins and mode — never on evaluation results — which is what
/// makes the parallel scoring below legal.
fn enumerate_candidates(
    models: &[LatencyModel],
    pins: &[Option<Vec<RackId>>],
    initial: &[usize],
    total_racks: usize,
    mode: ProvisionMode,
) -> (Vec<u32>, u64) {
    let n = initial.len();
    let mut alloc: Vec<u32> = initial.iter().map(|&r| r as u32).collect();
    let mut widths: Vec<u32> = Vec::with_capacity(n * (1 + n * (total_racks - 1).max(1)));
    widths.extend_from_slice(&alloc);

    let mut heap: BinaryHeap<Widen> = (0..n)
        .filter(|&i| pins[i].is_none() && initial[i] < total_racks)
        .map(|i| Widen {
            latency: models[i].latency(initial[i]),
            idx: i,
        })
        .collect();
    // Σ_{j: r_j > 1} r_j, maintained incrementally for the EarlyStop rule
    // (pinned jobs count, as in the original loop's full rescan).
    let mut wide_sum: usize = initial.iter().filter(|&&r| r > 1).sum();
    let mut pops = 0u64;
    while let Some(w) = heap.pop() {
        pops += 1;
        let i = w.idx;
        alloc[i] += 1;
        let r = alloc[i] as usize;
        wide_sum += if r == 2 { 2 } else { 1 };
        widths.extend_from_slice(&alloc);
        if r < total_racks {
            heap.push(Widen {
                latency: models[i].latency(r),
                idx: i,
            });
        }
        if mode == ProvisionMode::EarlyStop && wide_sum >= total_racks {
            probe::count(probe::ProbeCounter::EarlyStops, 1);
            break;
        }
    }
    probe::count(probe::ProbeCounter::HeapPops, pops);
    (widths, pops)
}

/// The borrowed per-candidate job view: job `i` at the widths of one
/// candidate, with validated pins. Everything is borrowed — scoring a
/// candidate clones nothing.
fn candidate_view<'a>(
    w: &'a [u32],
    models: &'a [LatencyModel],
    jobs: &'a [(JobId, SimTime)],
    pins: &'a [Option<Vec<RackId>>],
) -> impl Fn(usize) -> PrioritizeJob<'a> + 'a {
    move |i: usize| PrioritizeJob {
        job: jobs[i].0,
        racks: w[i] as usize,
        latency: models[i].latency(w[i] as usize),
        arrival: jobs[i].1,
        pinned: pins[i].as_deref().unwrap_or(&[]),
    }
}

fn provision_fast(
    pool: Option<&corral_sweep::SweepPool>,
    models: &[LatencyModel],
    jobs: &[(JobId, SimTime)],
    pins: &[Option<Vec<RackId>>],
    total_racks: usize,
    objective: Objective,
    mode: ProvisionMode,
) -> ProvisionOutcome {
    let _probe = probe::span(probe::SpanKind::Provision);
    assert_eq!(models.len(), jobs.len());
    assert_eq!(pins.len(), jobs.len());
    assert!(total_racks > 0);
    let n = jobs.len();
    let online = objective == Objective::AvgCompletionTime;
    let pins = validate_pins(pins, total_racks);

    // Pinned jobs are fixed at their pin's size.
    let initial: Vec<usize> = (0..n)
        .map(|i| pins[i].as_ref().map(|p| p.len()).unwrap_or(1))
        .collect();
    if n == 0 {
        return ProvisionOutcome {
            racks: initial,
            schedule: Vec::new(),
            objective_value: 0.0,
            stats: ProvisionStats::default(),
        };
    }

    let (widths, heap_pops) = {
        let _probe = probe::span(probe::SpanKind::CandidateEnum);
        enumerate_candidates(models, &pins, &initial, total_racks, mode)
    };
    let candidates = widths.len() / n;

    let pins = &pins;
    let score = |c: usize| -> (f64, u64) {
        // Runs on pool worker threads too; the span lands in that
        // thread's probe state and merges when the pool flushes.
        let _probe = probe::span(probe::SpanKind::CandidateScore);
        let w = &widths[c * n..(c + 1) * n];
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            let g0 = s.grows();
            let view = candidate_view(w, models, jobs, pins);
            let v = schedule_value_with(n, view, total_racks, online, objective, s);
            let g = s.grows() - g0;
            probe::count(probe::ProbeCounter::PlannerScratchGrow, g);
            (v, g)
        })
    };

    // Score every candidate (independently — in parallel when a pool is
    // given), then reduce deterministically: first candidate in trajectory
    // order whose value strictly improves on everything before it, i.e.
    // min by (value, trajectory index).
    let scored: Vec<(f64, u64)> = match pool {
        Some(pool) if candidates > 1 => pool.run_all(candidates, score),
        _ => (0..candidates).map(score).collect(),
    };
    let mut best_c = 0usize;
    let mut grows = 0u64;
    for (c, &(v, g)) in scored.iter().enumerate() {
        grows += g;
        if v < scored[best_c].0 {
            best_c = c;
        }
    }

    // Materialize the winning schedule once, through the same borrowed
    // prioritization the reference oracle uses.
    let w = &widths[best_c * n..(best_c + 1) * n];
    let view = candidate_view(w, models, jobs, pins);
    let inputs: Vec<PrioritizeJob<'_>> = (0..n).map(view).collect();
    let schedule = prioritize_jobs(&inputs, total_racks, online);
    ProvisionOutcome {
        racks: w.iter().map(|&r| r as usize).collect(),
        schedule,
        objective_value: scored[best_c].0,
        stats: ProvisionStats {
            candidates: candidates as u64,
            heap_pops,
            scratch_grows: grows,
        },
    }
}

/// The pre-fast-path provisioning implementation, kept as the oracle the
/// property tests and golden planner cells check against: per-iteration
/// `O(J)` widening scan, a fresh full prioritization (with its
/// per-job `O(R log R)` rack sort) per candidate, and a materialized
/// schedule per evaluation. Pins are borrowed (not cloned per candidate)
/// and the job-input vector is built once and patched in place, so a
/// timing against it isolates the *algorithmic* wins of the fast path
/// from incidental allocation. Must stay semantically frozen — behavioral
/// changes belong in the fast path, proven equivalent by
/// `prop_provision.rs`.
pub fn provision_reference(
    models: &[LatencyModel],
    jobs: &[(JobId, SimTime)],
    pins: &[Option<Vec<RackId>>],
    total_racks: usize,
    objective: Objective,
    mode: ProvisionMode,
) -> ProvisionOutcome {
    assert_eq!(models.len(), jobs.len());
    assert_eq!(pins.len(), jobs.len());
    assert!(total_racks > 0);
    let n = jobs.len();
    let online = objective == Objective::AvgCompletionTime;
    let pins = validate_pins(pins, total_racks);

    // Pinned jobs are fixed at their pin's size.
    let mut alloc: Vec<usize> = (0..n)
        .map(|i| pins[i].as_ref().map(|p| p.len()).unwrap_or(1))
        .collect();
    if n == 0 {
        return ProvisionOutcome {
            racks: alloc,
            schedule: Vec::new(),
            objective_value: 0.0,
            stats: ProvisionStats::default(),
        };
    }

    // Built once; `racks`/`latency` are patched per candidate.
    let mut inputs: Vec<PrioritizeJob<'_>> = (0..n)
        .map(|i| PrioritizeJob {
            job: jobs[i].0,
            racks: alloc[i],
            latency: models[i].latency(alloc[i]),
            arrival: jobs[i].1,
            pinned: pins[i].as_deref().unwrap_or(&[]),
        })
        .collect();
    let evaluate = |inputs: &[PrioritizeJob<'_>]| -> (Vec<ScheduledJob>, f64) {
        let schedule = prioritize_jobs(inputs, total_racks, online);
        let value = objective.evaluate_iter(schedule.iter().map(|s| (s.arrival, s.finish)));
        (schedule, value)
    };

    let mut candidates = 1u64;
    let (schedule, value) = evaluate(&inputs);
    let mut best = ProvisionOutcome {
        racks: alloc.clone(),
        schedule,
        objective_value: value,
        stats: ProvisionStats::default(),
    };

    loop {
        // Widen the longest unpinned job still below R racks (ties by job
        // index for determinism).
        let candidate = (0..n)
            .filter(|&i| pins[i].is_none() && alloc[i] < total_racks)
            .max_by(|&a, &b| {
                models[a]
                    .latency(alloc[a])
                    .total_cmp(models[b].latency(alloc[b]))
                    .then(b.cmp(&a)) // prefer the smaller index on ties
            });
        let Some(i) = candidate else { break };
        alloc[i] += 1;
        inputs[i].racks = alloc[i];
        inputs[i].latency = models[i].latency(alloc[i]);
        candidates += 1;
        let (schedule, value) = evaluate(&inputs);
        if value < best.objective_value {
            best = ProvisionOutcome {
                racks: alloc.clone(),
                schedule,
                objective_value: value,
                stats: ProvisionStats::default(),
            };
        }
        if mode == ProvisionMode::EarlyStop {
            let wide_sum: usize = alloc.iter().filter(|&&r| r > 1).sum();
            if wide_sum >= total_racks {
                break;
            }
        }
    }
    best.stats = ProvisionStats {
        candidates,
        heap_pops: candidates - 1,
        scratch_grows: 0,
    };
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ResponseOptions;
    use corral_model::{Bandwidth, Bytes, ClusterConfig, JobProfile, MapReduceProfile};

    fn cfg() -> ClusterConfig {
        ClusterConfig::testbed_210()
    }

    fn model(input_gb: f64, shuffle_gb: f64, tasks: usize, cfg: &ClusterConfig) -> LatencyModel {
        let mr = MapReduceProfile {
            input: Bytes::gb(input_gb),
            shuffle: Bytes::gb(shuffle_gb),
            output: Bytes::gb(input_gb / 10.0),
            maps: tasks,
            reduces: tasks / 2,
            map_rate: Bandwidth::mbytes_per_sec(100.0),
            reduce_rate: Bandwidth::mbytes_per_sec(100.0),
        };
        LatencyModel::build(&JobProfile::MapReduce(mr), cfg, &ResponseOptions::default())
    }

    #[test]
    fn small_jobs_stay_narrow_large_jobs_widen() {
        let c = cfg();
        // One huge job (thousands of tasks, TBs) and several tiny ones.
        let models = vec![
            model(2000.0, 1000.0, 4000, &c),
            model(1.0, 0.5, 20, &c),
            model(1.0, 0.5, 20, &c),
            model(1.0, 0.5, 20, &c),
        ];
        let jobs: Vec<(JobId, SimTime)> = (0..4).map(|i| (JobId(i), SimTime::ZERO)).collect();
        let out = provision(&models, &jobs, c.racks, Objective::Makespan);
        assert!(
            out.racks[0] > 1,
            "huge job should get several racks: {:?}",
            out.racks
        );
        for i in 1..4 {
            assert!(
                out.racks[i] < out.racks[0],
                "tiny jobs should stay much narrower than the huge job: {:?}",
                out.racks
            );
            assert!(
                out.racks[i] <= 2,
                "tiny jobs should stay near one rack: {:?}",
                out.racks
            );
        }
    }

    #[test]
    fn objective_never_worse_than_all_ones() {
        let c = cfg();
        let models: Vec<LatencyModel> = (0..6)
            .map(|i| {
                model(
                    10.0 * (i + 1) as f64,
                    5.0 * (i + 1) as f64,
                    100 * (i + 1),
                    &c,
                )
            })
            .collect();
        let jobs: Vec<(JobId, SimTime)> = (0..6).map(|i| (JobId(i), SimTime::ZERO)).collect();

        // Baseline: every job on one rack.
        let inputs: Vec<crate::prioritize::PrioritizeInput> = (0..6)
            .map(|i| crate::prioritize::PrioritizeInput {
                job: JobId(i),
                racks: 1,
                latency: models[i as usize].latency(1),
                arrival: SimTime::ZERO,
                pinned: Vec::new(),
            })
            .collect();
        let base = crate::prioritize::prioritize(&inputs, c.racks, false);
        let base_mk = base.iter().map(|s| s.finish.as_secs()).fold(0.0, f64::max);

        let out = provision(&models, &jobs, c.racks, Objective::Makespan);
        assert!(out.objective_value <= base_mk + 1e-9);
    }

    #[test]
    fn empty_job_set() {
        let out = provision(&[], &[], 7, Objective::Makespan);
        assert!(out.schedule.is_empty());
        assert_eq!(out.objective_value, 0.0);
        assert_eq!(out.stats.candidates, 0);
    }

    #[test]
    fn single_rack_cluster() {
        let c = ClusterConfig { racks: 1, ..cfg() };
        let models = vec![model(10.0, 5.0, 100, &c), model(20.0, 10.0, 200, &c)];
        let jobs = vec![(JobId(0), SimTime::ZERO), (JobId(1), SimTime::ZERO)];
        let out = provision(&models, &jobs, 1, Objective::Makespan);
        assert_eq!(out.racks, vec![1, 1]);
        // Sequential on one rack.
        let mk = out.objective_value;
        let expect = models[0].latency(1).as_secs() + models[1].latency(1).as_secs();
        assert!((mk - expect).abs() < 1e-9);
    }

    #[test]
    fn online_objective_uses_arrivals() {
        let c = cfg();
        let models = vec![model(10.0, 5.0, 100, &c), model(10.0, 5.0, 100, &c)];
        let jobs = vec![(JobId(0), SimTime::ZERO), (JobId(1), SimTime(10_000.0))];
        let out = provision(&models, &jobs, c.racks, Objective::AvgCompletionTime);
        // Arrivals far apart: no queueing; avg completion ~ per-job latency.
        let solo = models[0].latency(out.racks[0]).as_secs();
        assert!(out.objective_value <= solo + 1e-6);
    }

    #[test]
    fn pinned_jobs_keep_their_racks_through_planning() {
        let c = cfg();
        let models = vec![model(50.0, 25.0, 500, &c), model(50.0, 25.0, 500, &c)];
        let jobs = vec![(JobId(0), SimTime::ZERO), (JobId(1), SimTime::ZERO)];
        let pins = vec![Some(vec![RackId(5), RackId(6)]), None];
        let out = provision_pinned(
            &models,
            &jobs,
            &pins,
            c.racks,
            Objective::Makespan,
            ProvisionMode::Exhaustive,
        );
        let pinned_sched = out.schedule.iter().find(|s| s.job == JobId(0)).unwrap();
        assert_eq!(pinned_sched.racks, vec![RackId(5), RackId(6)]);
        assert_eq!(out.racks[0], 2, "pinned job's width is its pin size");
    }

    #[test]
    fn out_of_range_pin_is_filtered_and_width_matches_placement() {
        // Regression for the width/placement mismatch: rack 99 does not
        // exist on a 7-rack cluster, so the pin collapses to {5} — the
        // job's provisioned width and its actual placement must both be 1.
        let c = cfg();
        let models = vec![model(50.0, 25.0, 500, &c), model(50.0, 25.0, 500, &c)];
        let jobs = vec![(JobId(0), SimTime::ZERO), (JobId(1), SimTime::ZERO)];
        let pins = vec![Some(vec![RackId(99), RackId(5), RackId(5)]), None];
        for f in [provision_pinned, provision_reference] {
            let out = f(
                &models,
                &jobs,
                &pins,
                c.racks,
                Objective::Makespan,
                ProvisionMode::Exhaustive,
            );
            let sched = out.schedule.iter().find(|s| s.job == JobId(0)).unwrap();
            assert_eq!(sched.racks, vec![RackId(5)]);
            assert_eq!(
                out.racks[0],
                sched.racks.len(),
                "width must equal the placed rack count"
            );
        }
        // A pin that is *entirely* out of range un-pins the job.
        let pins = vec![Some(vec![RackId(99)]), None];
        let out = provision_pinned(
            &models,
            &jobs,
            &pins,
            c.racks,
            Objective::Makespan,
            ProvisionMode::Exhaustive,
        );
        let sched = out.schedule.iter().find(|s| s.job == JobId(0)).unwrap();
        assert!(!sched.racks.is_empty(), "unpinned job gets real racks");
        assert_eq!(out.racks[0], sched.racks.len());
    }

    #[test]
    fn exhaustive_never_worse_than_early_stop() {
        let c = cfg();
        for seed in 0..5u64 {
            let models: Vec<LatencyModel> = (0..8)
                .map(|i| {
                    let g = 1.0 + ((seed * 7 + i) % 11) as f64 * 8.0;
                    model(g * 4.0, g * 2.0, 40 + 60 * ((seed + i) % 9) as usize, &c)
                })
                .collect();
            let jobs: Vec<(JobId, SimTime)> =
                (0..8).map(|i| (JobId(i as u32), SimTime::ZERO)).collect();
            let full = provision_with_mode(
                &models,
                &jobs,
                c.racks,
                Objective::Makespan,
                ProvisionMode::Exhaustive,
            );
            let early = provision_with_mode(
                &models,
                &jobs,
                c.racks,
                Objective::Makespan,
                ProvisionMode::EarlyStop,
            );
            assert!(
                full.objective_value <= early.objective_value + 1e-9,
                "seed {seed}: exhaustive {} must be <= early-stop {}",
                full.objective_value,
                early.objective_value
            );
            assert!(
                full.stats.candidates >= early.stats.candidates,
                "early stop must not explore more candidates"
            );
        }
    }

    #[test]
    fn deterministic() {
        let c = cfg();
        let models: Vec<LatencyModel> = (0..5)
            .map(|i| model(5.0 + i as f64, 2.0, 50 + 10 * i as usize, &c))
            .collect();
        let jobs: Vec<(JobId, SimTime)> = (0..5).map(|i| (JobId(i), SimTime::ZERO)).collect();
        let a = provision(&models, &jobs, c.racks, Objective::Makespan);
        let b = provision(&models, &jobs, c.racks, Objective::Makespan);
        assert_eq!(a.racks, b.racks);
        assert_eq!(a.objective_value, b.objective_value);
        assert_eq!(a.stats.candidates, b.stats.candidates);
    }

    #[test]
    fn candidate_count_matches_the_paper_formula() {
        // Exhaustive, no pins: 1 initial + J·(R−1) widenings.
        let c = cfg();
        let models: Vec<LatencyModel> =
            (0..4).map(|i| model(5.0 + i as f64, 2.0, 50, &c)).collect();
        let jobs: Vec<(JobId, SimTime)> = (0..4).map(|i| (JobId(i), SimTime::ZERO)).collect();
        let out = provision(&models, &jobs, c.racks, Objective::Makespan);
        assert_eq!(out.stats.candidates, 1 + 4 * (c.racks as u64 - 1));
        assert_eq!(out.stats.heap_pops, out.stats.candidates - 1);
    }

    #[test]
    fn pooled_scoring_is_bit_identical_to_serial() {
        let c = cfg();
        let models: Vec<LatencyModel> = (0..7)
            .map(|i| model(8.0 + 3.0 * i as f64, 4.0, 60 + 25 * i as usize, &c))
            .collect();
        let jobs: Vec<(JobId, SimTime)> = (0..7)
            .map(|i| (JobId(i), SimTime(i as f64 * 40.0)))
            .collect();
        let pins = vec![None; 7];
        let pool = corral_sweep::SweepPool::new(4).progress(false);
        for objective in [Objective::Makespan, Objective::AvgCompletionTime] {
            let serial = provision_pinned(
                &models,
                &jobs,
                &pins,
                c.racks,
                objective,
                ProvisionMode::Exhaustive,
            );
            let pooled = provision_pinned_pooled(
                &pool,
                &models,
                &jobs,
                &pins,
                c.racks,
                objective,
                ProvisionMode::Exhaustive,
            );
            assert_eq!(serial.racks, pooled.racks);
            assert_eq!(
                serial.objective_value.to_bits(),
                pooled.objective_value.to_bits()
            );
            assert_eq!(serial.stats.candidates, pooled.stats.candidates);
        }
    }

    #[test]
    fn validate_pins_filters_sorts_and_unpins() {
        let pins = vec![
            None,
            Some(vec![RackId(3), RackId(1), RackId(3), RackId(42)]),
            Some(vec![RackId(42)]),
        ];
        let v = validate_pins(&pins, 7);
        assert_eq!(v[0], None);
        assert_eq!(v[1], Some(vec![RackId(1), RackId(3)]));
        assert_eq!(v[2], None, "fully out-of-range pin unpins the job");
    }
}
