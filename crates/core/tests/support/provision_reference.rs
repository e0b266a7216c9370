//! The provisioning oracle shared by the planner's identity tests
//! (`crates/core/tests/prop_provision.rs` and
//! `crates/bench/tests/planner_golden.rs` include this file with
//! `#[path]`). It is the pre-fast-path implementation of the §4.2
//! provisioning phase, kept verbatim so that
//! [`corral_core::provision::provision`] can be held to it bit for bit.

use corral_core::latency::LatencyModel;
use corral_core::prioritize::{prioritize_jobs, PrioritizeJob, ScheduledJob};
use corral_core::provision::{validate_pins, ProvisionMode, ProvisionOutcome, ProvisionStats};
use corral_core::Objective;
use corral_model::{JobId, RackId, SimTime};

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
    };
    best
}
