//! The prioritization phase (§4.2, Figure 4).
//!
//! Given the rack *count* `r_j` chosen for each job by the provisioning
//! phase, decide *which* racks each job gets and *when* it starts:
//!
//! 1. Sort jobs — batch: widest-job first (descending `r_j`), ties by
//!    descending latency (LPT); online: ascending arrival time, same tie
//!    breaks. The widest-first order avoids "holes" in the schedule.
//! 2. Track `F_i`, the time rack `i` finishes its previously assigned jobs.
//!    For each job, pick the `r_j` racks with the smallest `F_i`, start the
//!    job at `T_j = max(max_{i∈R_j} F_i, A_j)` and advance those racks'
//!    `F_i` to `T_j + L_j(r_j)`.
//!
//! The resulting start times induce the priority order the cluster
//! scheduler uses at run time (§3.1).

use crate::objective::Objective;
use corral_model::{JobId, RackId, SimTime};
use std::cmp::Ordering;

/// One job's input to the prioritization phase. Pins are borrowed: the
/// provisioning loop re-scores thousands of candidate allocations
/// against the same pin sets, and scoring a candidate clones nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrioritizeJob<'a> {
    /// Job identity (carried through to the output).
    pub job: JobId,
    /// Number of racks `r_j` chosen by the provisioning phase.
    pub racks: usize,
    /// Estimated latency `L_j(r_j)` at that allocation.
    pub latency: SimTime,
    /// Arrival time `A_j` (zero in the batch scenario).
    pub arrival: SimTime,
    /// Specific racks the job *must* use (its data already lives there —
    /// the replanning case, §3.1). Empty = the algorithm chooses freely;
    /// non-empty overrides `racks`.
    pub pinned: &'a [RackId],
}

/// The job-ordering rule of §4.2 — batch: widest first, then longest
/// (LPT), then id; online: earliest arrival first, same tie breaks.
fn order_key(a: &PrioritizeJob<'_>, b: &PrioritizeJob<'_>, online: bool) -> Ordering {
    let batch = b
        .racks
        .cmp(&a.racks)
        .then(b.latency.total_cmp(a.latency))
        .then(a.job.cmp(&b.job));
    if online {
        a.arrival.total_cmp(b.arrival).then(batch)
    } else {
        batch
    }
}

/// One job's placement in the offline schedule.
#[derive(Debug, Clone)]
pub struct ScheduledJob {
    /// Job identity.
    pub job: JobId,
    /// The specific racks `R_j` assigned.
    pub racks: Vec<RackId>,
    /// Planned start time `T_j`.
    pub start: SimTime,
    /// Planned finish `T_j + L_j(r_j)`.
    pub finish: SimTime,
    /// Arrival `A_j` (copied from the input for objective evaluation).
    pub arrival: SimTime,
}

/// Runs the prioritization phase. `online` selects the arrival-first sort
/// order. Jobs requesting more racks than exist are clamped to `total_racks`.
///
/// The output preserves no particular order; sort by `start` to obtain the
/// priority order.
///
/// ```
/// use corral_core::prioritize::{prioritize_jobs, PrioritizeJob};
/// use corral_model::{JobId, SimTime};
///
/// let jobs = [
///     PrioritizeJob { job: JobId(0), racks: 2, latency: SimTime(10.0), ..Default::default() },
///     PrioritizeJob { job: JobId(1), racks: 1, latency: SimTime(4.0), ..Default::default() },
/// ];
/// let schedule = prioritize_jobs(&jobs, 2, false);
/// // Widest-first: the 2-rack job starts at t=0; the 1-rack job follows.
/// let wide = schedule.iter().find(|s| s.job == JobId(0)).unwrap();
/// assert_eq!(wide.start, SimTime(0.0));
/// ```
pub fn prioritize_jobs(
    jobs: &[PrioritizeJob<'_>],
    total_racks: usize,
    online: bool,
) -> Vec<ScheduledJob> {
    assert!(total_racks > 0, "cluster must have racks");
    let job = |i: usize| jobs[i];
    let mut order: Vec<u32> = (0..jobs.len() as u32).collect();
    sort_order(&mut order, &job, online);
    let mut finish_at = vec![SimTime::ZERO; total_racks];
    let mut racks: Vec<u32> = (0..total_racks as u32).collect();
    // Only the recorded placements are wanted; the fold is discarded.
    let mut fold = Fold::new(Objective::Makespan);
    let mut out = Vec::with_capacity(jobs.len());
    place_in_order(
        &order,
        &job,
        &mut finish_at,
        &mut racks,
        &mut fold,
        Some(&mut out),
    );
    out
}

/// Sorts job indices into scheduling order. An unstable sort with a
/// final index tie-break equals a stable sort on [`order_key`].
fn sort_order<'a, F>(order: &mut [u32], job: &F, online: bool)
where
    F: Fn(usize) -> PrioritizeJob<'a>,
{
    order.sort_unstable_by(|&a, &b| {
        order_key(&job(a as usize), &job(b as usize), online).then(a.cmp(&b))
    });
}

/// The objective folded over planned `(arrival, finish)` pairs in
/// scheduling order: the same expression tree and accumulation order as
/// [`Objective::evaluate_iter`], so the two agree bit for bit. Copyable,
/// so a candidate can continue from the prefix's accumulators.
#[derive(Debug, Clone, Copy)]
struct Fold {
    objective: Objective,
    mk: f64,
    sum: f64,
    jobs: usize,
}

impl Fold {
    fn new(objective: Objective) -> Self {
        Fold {
            objective,
            mk: 0.0,
            sum: 0.0,
            jobs: 0,
        }
    }

    fn push(&mut self, arrival: SimTime, finish: SimTime) {
        match self.objective {
            Objective::Makespan => self.mk = self.mk.max(finish.as_secs()),
            Objective::AvgCompletionTime => {
                self.sum += (finish.as_secs() - arrival.as_secs()).max(0.0);
            }
        }
        self.jobs += 1;
    }

    fn value(self) -> f64 {
        match self.objective {
            Objective::Makespan => self.mk,
            Objective::AvgCompletionTime => {
                if self.jobs == 0 {
                    0.0
                } else {
                    self.sum / self.jobs as f64
                }
            }
        }
    }
}

/// The §4.2 placement recurrence, the one copy in production: places the
/// jobs of `order` in turn on the per-rack free times `finish_at` and
/// folds each planned finish into `fold`. With `record`, each placement
/// is also appended as a [`ScheduledJob`]; scoring passes `None`.
///
/// `racks` is a permutation of `0..R` that must arrive sorted by
/// `(F_i, rack id)`. The first job, if unpinned, takes its `r_j`
/// earliest-free racks straight off its front; every later unpinned job
/// selects them with `select_nth_unstable`. Both yield the same *set* as
/// a full sort, because `(F_i, rack id)` is a total order. Afterwards
/// `racks` is still a permutation, in no particular order.
fn place_in_order<'a, F>(
    order: &[u32],
    job: &F,
    finish_at: &mut [SimTime],
    racks: &mut [u32],
    fold: &mut Fold,
    mut record: Option<&mut Vec<ScheduledJob>>,
) where
    F: Fn(usize) -> PrioritizeJob<'a>,
{
    let total_racks = finish_at.len();
    let mut sorted = true;
    for &oi in order {
        let inp = job(oi as usize);
        let (start, finish);
        if inp.pinned.is_empty() {
            let want = inp.racks.clamp(1, total_racks);
            if !sorted && want < total_racks {
                racks.select_nth_unstable_by(want - 1, |&a, &b| {
                    finish_at[a as usize]
                        .total_cmp(finish_at[b as usize])
                        .then(a.cmp(&b))
                });
            }
            let sel = &racks[..want];
            start = sel
                .iter()
                .map(|&i| finish_at[i as usize])
                .fold(SimTime::ZERO, SimTime::max)
                .max(inp.arrival);
            finish = start + inp.latency;
            for &i in sel {
                finish_at[i as usize] = finish;
            }
            if let Some(out) = record.as_deref_mut() {
                let chosen = sel.iter().map(|&i| RackId::from_index(i as usize));
                out.push(scheduled(&inp, chosen, start, finish));
            }
        } else {
            let sel = inp
                .pinned
                .iter()
                .map(|r| r.index())
                .filter(|&i| i < total_racks);
            start = sel
                .clone()
                .map(|i| finish_at[i])
                .fold(SimTime::ZERO, SimTime::max)
                .max(inp.arrival);
            finish = start + inp.latency;
            for i in sel.clone() {
                finish_at[i] = finish;
            }
            if let Some(out) = record.as_deref_mut() {
                out.push(scheduled(&inp, sel.map(RackId::from_index), start, finish));
            }
        }
        sorted = false;
        fold.push(inp.arrival, finish);
    }
}

/// One recorded placement, its rack set in ascending id order. The set
/// is sized exactly: plans keep their schedules.
fn scheduled(
    inp: &PrioritizeJob<'_>,
    chosen: impl Iterator<Item = RackId> + Clone,
    start: SimTime,
    finish: SimTime,
) -> ScheduledJob {
    let mut racks = Vec::with_capacity(chosen.clone().count());
    racks.extend(chosen);
    racks.sort_unstable();
    ScheduledJob {
        job: inp.job,
        racks,
        start,
        finish,
        arrival: inp.arrival,
    }
}

/// Reusable buffers for allocation-free candidate scoring, and the
/// schedule state of one provisioning call's *invariant prefix*.
///
/// The prefix is the jobs that sort before every other job in every
/// candidate and whose view never changes. `begin` places them once per
/// call; `score` then scores a candidate by replaying only the remaining
/// *suffix* jobs from a copy of that state. One scratch per thread lives for the whole process (the
/// provisioning loop keeps it in a thread-local), so in steady state a
/// planner run performs **zero** heap allocation per candidate;
/// [`PlannerScratch::grows`] counts the times any buffer had to grow
/// (reported as the `planner.scratch_grows` probe counter), the planner
/// twin of the fabric's `FabricStats::scratch_grows` invariant.
#[derive(Debug)]
pub struct PlannerScratch {
    /// Whether the call orders jobs arrival-first.
    online: bool,
    /// Indices of the suffix jobs, ascending.
    suffix: Vec<u32>,
    /// Job indices in scheduling order: the prefix while
    /// [`PlannerScratch::begin`] places it, then each candidate's suffix.
    order: Vec<u32>,
    /// Per-rack `F_i` after the prefix.
    prefix_finish: Vec<SimTime>,
    /// `0..R` sorted by `(F_i, rack id)` after the prefix.
    prefix_racks: Vec<u32>,
    /// Objective accumulators after the prefix.
    prefix_fold: Fold,
    /// One candidate's working copy of `prefix_finish`.
    finish_at: Vec<SimTime>,
    /// One candidate's working copy of `prefix_racks`.
    racks: Vec<u32>,
    grows: u64,
}

impl Default for PlannerScratch {
    fn default() -> Self {
        PlannerScratch {
            online: false,
            suffix: Vec::new(),
            order: Vec::new(),
            prefix_finish: Vec::new(),
            prefix_racks: Vec::new(),
            prefix_fold: Fold::new(Objective::Makespan),
            finish_at: Vec::new(),
            racks: Vec::new(),
            grows: 0,
        }
    }
}

impl PlannerScratch {
    /// A fresh (empty) scratch; buffers are sized on first use.
    pub fn new() -> Self {
        PlannerScratch::default()
    }

    /// How many times any buffer had to (re)allocate since construction.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    fn ensure(&mut self, jobs: usize, racks: usize) {
        if self.suffix.capacity() < jobs
            || self.order.capacity() < jobs
            || self.prefix_finish.capacity() < racks
            || self.prefix_racks.capacity() < racks
            || self.finish_at.capacity() < racks
            || self.racks.capacity() < racks
        {
            self.grows += 1;
        }
    }

    /// Starts scoring the candidates of one call over jobs `0..n`:
    /// places the jobs `in_prefix` selects, in scheduling order, on an
    /// empty cluster and keeps the resulting state. Returns the number of
    /// prefix jobs placed.
    ///
    /// The caller guarantees that in every candidate later passed to
    /// [`PlannerScratch::score`], each prefix job has the view `job`
    /// gives here and sorts before every suffix job. Then the prefix's
    /// placements, its `F_i` row and its objective accumulators are the
    /// same in every candidate, and replaying only the suffix from them
    /// is exact.
    pub(crate) fn begin<'a, F>(
        &mut self,
        n: usize,
        in_prefix: impl Fn(usize) -> bool,
        job: F,
        total_racks: usize,
        online: bool,
        objective: Objective,
    ) -> usize
    where
        F: Fn(usize) -> PrioritizeJob<'a>,
    {
        assert!(total_racks > 0, "cluster must have racks");
        self.ensure(n, total_racks);
        self.online = online;
        let PlannerScratch {
            suffix,
            order,
            prefix_finish,
            prefix_racks,
            prefix_fold,
            ..
        } = self;
        order.clear();
        suffix.clear();
        for i in 0..n as u32 {
            if in_prefix(i as usize) {
                order.push(i);
            } else {
                suffix.push(i);
            }
        }
        sort_order(order, &job, online);
        prefix_finish.clear();
        prefix_finish.resize(total_racks, SimTime::ZERO);
        prefix_racks.clear();
        prefix_racks.extend(0..total_racks as u32);
        *prefix_fold = Fold::new(objective);
        place_in_order(order, &job, prefix_finish, prefix_racks, prefix_fold, None);
        prefix_racks.sort_unstable_by(|&a, &b| {
            prefix_finish[a as usize]
                .total_cmp(prefix_finish[b as usize])
                .then(a.cmp(&b))
        });
        order.len()
    }

    /// Scores one candidate without materializing a schedule: sorts and
    /// places only the suffix jobs, from a copy of the prefix state, and
    /// returns the objective over all `n` jobs. Bit-identical to
    /// evaluating the objective over [`prioritize_jobs`] of the whole
    /// candidate — the randomized property test against the reference
    /// provisioning oracle (`crates/core/tests/prop_provision.rs`) holds
    /// the two paths together.
    ///
    /// `job(i)` returns job `i`'s view for this candidate; it is called
    /// repeatedly (including inside the sort comparator), so it must be
    /// cheap and pure.
    pub(crate) fn score<'a, F>(&mut self, job: F) -> f64
    where
        F: Fn(usize) -> PrioritizeJob<'a>,
    {
        let PlannerScratch {
            online,
            suffix,
            order,
            prefix_finish,
            prefix_racks,
            prefix_fold,
            finish_at,
            racks,
            ..
        } = self;
        order.clear();
        order.extend_from_slice(suffix);
        sort_order(order, &job, *online);
        finish_at.clear();
        finish_at.extend_from_slice(prefix_finish);
        racks.clear();
        racks.extend_from_slice(prefix_racks);
        let mut fold = *prefix_fold;
        place_in_order(order, &job, finish_at, racks, &mut fold, None);
        fold.value()
    }

    /// The number of jobs [`PlannerScratch::score`] places per candidate.
    pub(crate) fn suffix_len(&self) -> usize {
        self.suffix.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inp(job: u32, racks: usize, latency: f64, arrival: f64) -> PrioritizeJob<'static> {
        PrioritizeJob {
            job: JobId(job),
            racks,
            latency: SimTime(latency),
            arrival: SimTime(arrival),
            pinned: &[],
        }
    }

    #[test]
    fn widest_job_goes_first_in_batch() {
        // A 3-rack job and a 1-rack job on a 3-rack cluster: wide job first,
        // narrow job after it — no "hole".
        let s = prioritize_jobs(&[inp(0, 1, 10.0, 0.0), inp(1, 3, 5.0, 0.0)], 3, false);
        let wide = s.iter().find(|x| x.job == JobId(1)).unwrap();
        let narrow = s.iter().find(|x| x.job == JobId(0)).unwrap();
        assert_eq!(wide.start, SimTime(0.0));
        assert_eq!(narrow.start, SimTime(5.0));
        assert_eq!(wide.racks.len(), 3);
        assert_eq!(narrow.racks.len(), 1);
    }

    #[test]
    fn narrow_jobs_pack_onto_distinct_racks() {
        // Three 1-rack jobs on 3 racks all start immediately on different
        // racks (earliest-free, tie by rack id).
        let s = prioritize_jobs(
            &[
                inp(0, 1, 10.0, 0.0),
                inp(1, 1, 8.0, 0.0),
                inp(2, 1, 6.0, 0.0),
            ],
            3,
            false,
        );
        for j in &s {
            assert_eq!(j.start, SimTime::ZERO);
        }
        let mut racks: Vec<RackId> = s.iter().map(|j| j.racks[0]).collect();
        racks.sort();
        racks.dedup();
        assert_eq!(racks.len(), 3);
    }

    #[test]
    fn lpt_breaks_ties_among_equal_width() {
        // Equal width, the longer job is placed first (starts no later).
        let s = prioritize_jobs(&[inp(0, 2, 5.0, 0.0), inp(1, 2, 50.0, 0.0)], 2, false);
        let long = s.iter().find(|x| x.job == JobId(1)).unwrap();
        let short = s.iter().find(|x| x.job == JobId(0)).unwrap();
        assert_eq!(long.start, SimTime::ZERO);
        assert_eq!(short.start, SimTime(50.0));
    }

    #[test]
    fn online_respects_arrivals() {
        let s = prioritize_jobs(&[inp(0, 1, 10.0, 100.0), inp(1, 1, 10.0, 0.0)], 1, true);
        let early = s.iter().find(|x| x.job == JobId(1)).unwrap();
        let late = s.iter().find(|x| x.job == JobId(0)).unwrap();
        assert_eq!(early.start, SimTime(0.0));
        // Rack frees at 10, but the job only arrives at 100.
        assert_eq!(late.start, SimTime(100.0));
    }

    #[test]
    fn oversized_request_is_clamped() {
        let s = prioritize_jobs(&[inp(0, 10, 5.0, 0.0)], 3, false);
        assert_eq!(s[0].racks.len(), 3);
    }

    #[test]
    fn pinned_jobs_use_exactly_their_racks() {
        // Job 0 pinned to rack 2; job 1 free. The free job takes the
        // earliest-available rack (0), the pinned one waits for rack 2.
        let mut pinned = inp(0, 1, 5.0, 0.0);
        pinned.pinned = &[RackId(2)];
        let s = prioritize_jobs(&[pinned, inp(1, 1, 9.0, 0.0)], 3, false);
        let p = s.iter().find(|x| x.job == JobId(0)).unwrap();
        assert_eq!(p.racks, vec![RackId(2)]);
        // Two pinned jobs on the same rack serialize.
        let mut a = inp(0, 1, 5.0, 0.0);
        a.pinned = &[RackId(1)];
        let mut b = inp(1, 1, 7.0, 0.0);
        b.pinned = &[RackId(1)];
        let s = prioritize_jobs(&[a, b], 3, false);
        let t0 = s.iter().find(|x| x.job == JobId(0)).unwrap();
        let t1 = s.iter().find(|x| x.job == JobId(1)).unwrap();
        let (first, second) = if t0.start < t1.start {
            (t0, t1)
        } else {
            (t1, t0)
        };
        assert!(second.start.0 >= first.finish.0 - 1e-9);
    }

    #[test]
    fn makespan_matches_hand_computation() {
        // 2 racks; jobs: (2 racks, 4s), (1 rack, 3s), (1 rack, 2s).
        // Wide first: finishes at 4 on both racks. Then 3s on rack 0 (F=7),
        // 2s on rack 1 (F=6). Makespan 7.
        let s = prioritize_jobs(
            &[
                inp(0, 1, 3.0, 0.0),
                inp(1, 2, 4.0, 0.0),
                inp(2, 1, 2.0, 0.0),
            ],
            2,
            false,
        );
        let makespan = s.iter().map(|j| j.finish.as_secs()).fold(0.0, f64::max);
        assert_eq!(makespan, 7.0);
    }

    #[test]
    fn deterministic_under_permutation_of_equal_jobs() {
        let a = prioritize_jobs(&[inp(0, 1, 5.0, 0.0), inp(1, 1, 5.0, 0.0)], 2, false);
        let b = prioritize_jobs(&[inp(1, 1, 5.0, 0.0), inp(0, 1, 5.0, 0.0)], 2, false);
        let key = |v: &[ScheduledJob]| {
            let mut k: Vec<(JobId, Vec<RackId>, u64)> = v
                .iter()
                .map(|j| (j.job, j.racks.clone(), j.start.0.to_bits()))
                .collect();
            k.sort();
            k
        };
        assert_eq!(key(&a), key(&b));
    }
}
