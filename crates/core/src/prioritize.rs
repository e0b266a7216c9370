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
    let mut order: Vec<&PrioritizeJob<'_>> = jobs.iter().collect();
    // Batch: widest first, then longest, then id (determinism).
    // Online: earliest arrival first, then the batch criteria.
    order.sort_by(|a, b| order_key(a, b, online));

    let mut finish_at: Vec<SimTime> = vec![SimTime::ZERO; total_racks];
    let mut out = Vec::with_capacity(jobs.len());
    for inp in order {
        let chosen: Vec<usize> = if inp.pinned.is_empty() {
            let want = inp.racks.clamp(1, total_racks);
            // Racks with the smallest F_i; ties by rack id.
            let mut rack_order: Vec<usize> = (0..total_racks).collect();
            rack_order.sort_by(|&a, &b| finish_at[a].total_cmp(finish_at[b]).then(a.cmp(&b)));
            rack_order[..want].to_vec()
        } else {
            inp.pinned
                .iter()
                .map(|r| r.index())
                .filter(|&i| i < total_racks)
                .collect()
        };
        let free_at = chosen
            .iter()
            .map(|&i| finish_at[i])
            .fold(SimTime::ZERO, SimTime::max);
        let start = free_at.max(inp.arrival);
        let finish = start + inp.latency;
        for &i in &chosen {
            finish_at[i] = finish;
        }
        let mut racks: Vec<RackId> = chosen.iter().map(|&i| RackId::from_index(i)).collect();
        racks.sort_unstable();
        out.push(ScheduledJob {
            job: inp.job,
            racks,
            start,
            finish,
            arrival: inp.arrival,
        });
    }
    out
}

/// Reusable buffers for allocation-free candidate scoring
/// ([`schedule_value_with`]). One scratch per thread lives for the whole
/// process (the provisioning loop keeps it in a thread-local), so in
/// steady state a planner run performs **zero** heap allocation per
/// candidate; [`PlannerScratch::grows`] counts the times any buffer had
/// to grow (reported as the `planner.scratch_grows` probe counter), the
/// planner twin of the fabric's `FabricStats::scratch_grows` invariant.
#[derive(Debug, Default)]
pub struct PlannerScratch {
    /// Job indices in scheduling order (the sorted `order` of
    /// [`prioritize_jobs`], by index instead of reference).
    order: Vec<u32>,
    /// Per-rack `F_i` — when rack `i` finishes its assigned jobs.
    finish_at: Vec<SimTime>,
    /// Persistent permutation of `0..R` used for k-smallest rack
    /// selection. Any permutation is valid input to the selection, so it
    /// is never reset between jobs or candidates.
    rack_sel: Vec<u32>,
    grows: u64,
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
        if self.order.capacity() < jobs
            || self.finish_at.capacity() < racks
            || self.rack_sel.capacity() < racks
        {
            self.grows += 1;
        }
        if self.rack_sel.len() != racks {
            self.rack_sel.clear();
            self.rack_sel.extend(0..racks as u32);
        }
    }
}

/// Scores one candidate allocation without materializing a schedule: runs
/// the §4.2 placement recurrence entirely inside `scratch` and folds
/// `objective` over the planned `(arrival, finish)` pairs in schedule
/// order. Bit-identical to
/// `objective.evaluate_iter(prioritize_jobs(..).iter() pairs)` — the
/// randomized property test against the reference provisioning oracle
/// (`crates/core/tests/prop_provision.rs`) holds the two paths together.
///
/// `job(i)` returns job `i`'s view for this candidate (`0 <= i < n`); it
/// is called repeatedly (including inside the sort comparator), so it must
/// be cheap and pure. Instead of the full `O(R log R)` rack sort the
/// reference performs per job, unpinned jobs select their `r_j`
/// cheapest-to-free racks via `select_nth_unstable` — the selected *set*
/// is unique under the total (F_i, rack-id) order, so the placement is
/// unchanged.
pub fn schedule_value_with<'a, F>(
    n: usize,
    job: F,
    total_racks: usize,
    online: bool,
    objective: Objective,
    scratch: &mut PlannerScratch,
) -> f64
where
    F: Fn(usize) -> PrioritizeJob<'a>,
{
    assert!(total_racks > 0, "cluster must have racks");
    scratch.ensure(n, total_racks);
    let PlannerScratch {
        order,
        finish_at,
        rack_sel,
        ..
    } = scratch;

    order.clear();
    order.extend(0..n as u32);
    // Unstable sort with a final index tie-break reproduces the reference
    // path's stable sort exactly.
    order.sort_unstable_by(|&a, &b| {
        order_key(&job(a as usize), &job(b as usize), online).then(a.cmp(&b))
    });

    finish_at.clear();
    finish_at.resize(total_racks, SimTime::ZERO);

    // Objective accumulators, folded in schedule order — the same order
    // and arithmetic `Objective::evaluate` applies to the pairs slice.
    let mut mk = 0.0f64;
    let mut sum = 0.0f64;
    for &oi in order.iter() {
        let inp = job(oi as usize);
        let (free_at, finish);
        if inp.pinned.is_empty() {
            let want = inp.racks.clamp(1, total_racks);
            if want < total_racks {
                rack_sel.select_nth_unstable_by(want - 1, |&a, &b| {
                    finish_at[a as usize]
                        .total_cmp(finish_at[b as usize])
                        .then(a.cmp(&b))
                });
            }
            let sel = &rack_sel[..want];
            free_at = sel
                .iter()
                .map(|&i| finish_at[i as usize])
                .fold(SimTime::ZERO, SimTime::max);
            finish = free_at.max(inp.arrival) + inp.latency;
            for &i in sel {
                finish_at[i as usize] = finish;
            }
        } else {
            let sel = inp
                .pinned
                .iter()
                .map(|r| r.index())
                .filter(|&i| i < total_racks);
            free_at = sel
                .clone()
                .map(|i| finish_at[i])
                .fold(SimTime::ZERO, SimTime::max);
            finish = free_at.max(inp.arrival) + inp.latency;
            for i in sel {
                finish_at[i] = finish;
            }
        }
        match objective {
            Objective::Makespan => mk = mk.max(finish.as_secs()),
            Objective::AvgCompletionTime => {
                sum += (finish.as_secs() - inp.arrival.as_secs()).max(0.0);
            }
        }
    }
    match objective {
        Objective::Makespan => mk,
        Objective::AvgCompletionTime => {
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        }
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
