//! The provisioning oracle shared by the planner's identity tests
//! (`crates/core/tests/prop_provision.rs` and
//! `crates/bench/tests/planner_golden.rs` include this file with
//! `#[path]`). It is the pre-fast-path implementation of the §4.2
//! provisioning and prioritization phases, kept verbatim so that
//! [`corral_core::provision::provision`] can be held to it bit for bit.
//! It shares no scheduling code with the crate under test: the
//! prioritization recurrence below is its own sort-based copy.

use corral_core::latency::LatencyModel;
use corral_core::prioritize::{PrioritizeJob, ScheduledJob};
use corral_core::provision::{validate_pins, ProvisionMode, ProvisionOutcome, ProvisionStats};
use corral_core::Objective;
use corral_model::{JobId, RackId, SimTime};
use std::cmp::Ordering;

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

/// The pre-fast-path prioritization phase: a stable sort of the jobs,
/// then per job a full `(F_i, rack id)` sort of every rack to pick the
/// `r_j` earliest-free ones.
fn prioritize_reference(
    jobs: &[PrioritizeJob<'_>],
    total_racks: usize,
    online: bool,
) -> Vec<ScheduledJob> {
    assert!(total_racks > 0, "cluster must have racks");
    let mut order: Vec<&PrioritizeJob<'_>> = jobs.iter().collect();
    order.sort_by(|a, b| order_key(a, b, online));

    let mut finish_at: Vec<SimTime> = vec![SimTime::ZERO; total_racks];
    let mut out = Vec::with_capacity(jobs.len());
    for inp in order {
        let chosen: Vec<usize> = if inp.pinned.is_empty() {
            let want = inp.racks.clamp(1, total_racks);
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

/// The pre-fast-path provisioning implementation, kept as the oracle the
/// property tests and golden planner cells check against: per-iteration
/// `O(J)` widening scan, a fresh full prioritization (with its
/// per-job `O(R log R)` rack sort) per candidate, and a materialized
/// schedule per evaluation, so its `placements` count is
/// `candidates × J`. Pins are borrowed (not cloned per candidate)
/// and the job-input vector is built once and patched in place, so a
/// timing against it isolates the *algorithmic* wins of the fast path
/// from incidental allocation. Must stay semantically frozen — behavioral
/// changes belong in the fast path, proven equivalent by
/// `prop_provision.rs`.
pub fn provision_reference(
    models: &[&LatencyModel],
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
        let schedule = prioritize_reference(inputs, total_racks, online);
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
        placements: candidates * n as u64,
    };
    best
}
