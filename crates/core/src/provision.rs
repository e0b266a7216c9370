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
//! The widening trajectory depends only on the latency tables `L'_j(·)`
//! and the current widths, never on a candidate's score, so a max-heap
//! over `L'_j(r_j)` replaces the per-iteration `O(J)` scan. The loop pops
//! the heap, scores the new allocation at once against a persistent
//! per-thread [`PlannerScratch`], and keeps the first strict minimum in
//! trajectory order. Each evaluation is allocation-free: borrowed pins,
//! reused job-order / `finish_at` / rack-selection buffers, a k-smallest
//! rack selection instead of the full `O(R log R)` sort, and an
//! iterator-fold objective ([`Objective::evaluate_iter`]).
//!
//! The pre-optimization implementation lives in test code, as the
//! oracle `crates/core/tests/support/provision_reference.rs`. A
//! randomized property test (`crates/core/tests/prop_provision.rs`) and
//! the golden planner cells (`crates/bench/tests/planner_golden.rs`)
//! hold [`provision`] to it bit for bit.

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
/// in `crates/bench/tests/planner_golden.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvisionStats {
    /// Candidate allocations scored (widenings + the initial allocation).
    pub candidates: u64,
    /// Widening steps popped off the trajectory heap.
    pub heap_pops: u64,
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
/// loop). Without it, a pinned job's *width* would come from the raw pin
/// (`pin.len()`) while the prioritization phase silently drops
/// out-of-range ids from its *placement*, and the two could disagree.
/// [`provision`] and the test-side reference oracle both consume the
/// validated pins, so width and placement always derive from the same
/// rack set.
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
/// * `pins[i]` — racks job `i` must use, if any: a pinned job is excluded
///   from widening (its rack count is its pin's size) and the
///   prioritization phase places it on exactly those racks — the §3.1
///   replanning case, where input replicas already sit on specific
///   racks. Pins are validated once via [`validate_pins`];
/// * `total_racks` — the cluster's `R`;
/// * `objective` — what to minimize (selects the online sort order too);
/// * `mode` — how far the widening loop explores.
pub fn provision(
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
    let pins = &validate_pins(pins, total_racks);

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

    let mut heap: BinaryHeap<Widen> = (0..n)
        .filter(|&i| pins[i].is_none() && alloc[i] < total_racks)
        .map(|i| Widen {
            latency: models[i].latency(alloc[i]),
            idx: i,
        })
        .collect();
    // Σ_{j: r_j > 1} r_j, maintained incrementally for the EarlyStop rule
    // (pinned jobs count, as in the reference's full rescan).
    let mut wide_sum: usize = alloc.iter().filter(|&&r| r > 1).sum();
    let mut stats = ProvisionStats {
        candidates: 1,
        ..ProvisionStats::default()
    };
    let (best, best_value) = SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        let g0 = s.grows();
        let mut score = |alloc: &[usize]| {
            let _probe = probe::span(probe::SpanKind::CandidateScore);
            let view = candidate_view(alloc, models, jobs, pins);
            schedule_value_with(n, view, total_racks, online, objective, s)
        };
        // The first candidate in trajectory order whose value strictly
        // improves on everything before it wins.
        let mut best_value = score(&alloc);
        let mut best = alloc.clone();
        while let Some(w) = heap.pop() {
            stats.heap_pops += 1;
            let i = w.idx;
            alloc[i] += 1;
            let r = alloc[i];
            wide_sum += if r == 2 { 2 } else { 1 };
            if r < total_racks {
                heap.push(Widen {
                    latency: models[i].latency(r),
                    idx: i,
                });
            }
            stats.candidates += 1;
            let value = score(&alloc);
            if value < best_value {
                best_value = value;
                best.copy_from_slice(&alloc);
            }
            if mode == ProvisionMode::EarlyStop && wide_sum >= total_racks {
                probe::count(probe::ProbeCounter::EarlyStops, 1);
                break;
            }
        }
        probe::count(probe::ProbeCounter::PlannerScratchGrow, s.grows() - g0);
        (best, best_value)
    });
    probe::count(probe::ProbeCounter::HeapPops, stats.heap_pops);

    // Materialize the winning schedule once, through the borrowed
    // prioritization the scoring above mirrors.
    let view = candidate_view(&best, models, jobs, pins);
    let inputs: Vec<PrioritizeJob<'_>> = (0..n).map(view).collect();
    let schedule = prioritize_jobs(&inputs, total_racks, online);
    ProvisionOutcome {
        racks: best,
        schedule,
        objective_value: best_value,
        stats,
    }
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
/// exactly the `max_by` rule of the reference's per-iteration scan.
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

/// The borrowed per-candidate job view: job `i` at the widths `w` of one
/// candidate, with validated pins. Everything is borrowed — scoring a
/// candidate clones nothing.
fn candidate_view<'a>(
    w: &'a [usize],
    models: &'a [LatencyModel],
    jobs: &'a [(JobId, SimTime)],
    pins: &'a [Option<Vec<RackId>>],
) -> impl Fn(usize) -> PrioritizeJob<'a> + 'a {
    move |i: usize| PrioritizeJob {
        job: jobs[i].0,
        racks: w[i],
        latency: models[i].latency(w[i]),
        arrival: jobs[i].1,
        pinned: pins[i].as_deref().unwrap_or(&[]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ResponseOptions;
    use corral_model::{Bandwidth, Bytes, ClusterConfig, JobProfile, MapReduceProfile};

    fn cfg() -> ClusterConfig {
        ClusterConfig::testbed_210()
    }

    /// Unpinned, exhaustive provisioning.
    fn plan(
        models: &[LatencyModel],
        jobs: &[(JobId, SimTime)],
        racks: usize,
        objective: Objective,
    ) -> ProvisionOutcome {
        let pins = vec![None; jobs.len()];
        provision(
            models,
            jobs,
            &pins,
            racks,
            objective,
            ProvisionMode::Exhaustive,
        )
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
        let out = plan(&models, &jobs, c.racks, Objective::Makespan);
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
        let inputs: Vec<PrioritizeJob<'_>> = (0..6)
            .map(|i| PrioritizeJob {
                job: JobId(i),
                racks: 1,
                latency: models[i as usize].latency(1),
                ..PrioritizeJob::default()
            })
            .collect();
        let base = prioritize_jobs(&inputs, c.racks, false);
        let base_mk = base.iter().map(|s| s.finish.as_secs()).fold(0.0, f64::max);

        let out = plan(&models, &jobs, c.racks, Objective::Makespan);
        assert!(out.objective_value <= base_mk + 1e-9);
    }

    #[test]
    fn empty_job_set() {
        let out = plan(&[], &[], 7, Objective::Makespan);
        assert!(out.schedule.is_empty());
        assert_eq!(out.objective_value, 0.0);
        assert_eq!(out.stats.candidates, 0);
    }

    #[test]
    fn single_rack_cluster() {
        let c = ClusterConfig { racks: 1, ..cfg() };
        let models = vec![model(10.0, 5.0, 100, &c), model(20.0, 10.0, 200, &c)];
        let jobs = vec![(JobId(0), SimTime::ZERO), (JobId(1), SimTime::ZERO)];
        let out = plan(&models, &jobs, 1, Objective::Makespan);
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
        let out = plan(&models, &jobs, c.racks, Objective::AvgCompletionTime);
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
        let out = provision(
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
        let out = provision(
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
        // A pin that is *entirely* out of range un-pins the job.
        let pins = vec![Some(vec![RackId(99)]), None];
        let out = provision(
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
            let pins = vec![None; jobs.len()];
            let full = provision(
                &models,
                &jobs,
                &pins,
                c.racks,
                Objective::Makespan,
                ProvisionMode::Exhaustive,
            );
            let early = provision(
                &models,
                &jobs,
                &pins,
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
        let a = plan(&models, &jobs, c.racks, Objective::Makespan);
        let b = plan(&models, &jobs, c.racks, Objective::Makespan);
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
        let out = plan(&models, &jobs, c.racks, Objective::Makespan);
        assert_eq!(out.stats.candidates, 1 + 4 * (c.racks as u64 - 1));
        assert_eq!(out.stats.heap_pops, out.stats.candidates - 1);
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
