//! The end-to-end offline planner: latency models → provisioning →
//! prioritization → [`Plan`].

use crate::latency::{LatencyModel, ResponseOptions};
use crate::objective::Objective;
use crate::plan::{Plan, PlanEntry};
use crate::provision::{provision, ProvisionMode};
use corral_model::{ClusterConfig, JobSpec, RackId, SimTime};
use std::collections::BTreeMap;

/// Planner configuration.
#[derive(Debug, Clone, Default)]
pub struct PlannerConfig {
    /// Latency-model options (imbalance penalty α, volume-error injection).
    pub response: ResponseOptions,
}

/// Runs the Corral offline planner over `jobs` (only jobs marked
/// `plannable` are scheduled; ad hoc jobs are ignored here and handled by
/// the cluster's fallback policies at run time).
///
/// The returned [`Plan`] holds, for each planned job, its rack set `R_j`,
/// priority `p_j` (rank by planned start time) and planned start/finish.
pub fn plan_jobs(
    cfg: &ClusterConfig,
    jobs: &[JobSpec],
    objective: Objective,
    planner: &PlannerConfig,
) -> Plan {
    plan_jobs_pinned(cfg, jobs, objective, planner, &BTreeMap::new())
}

/// [`plan_jobs`], also emitting `PlanComputed` / `PlannerAssigned` trace
/// events. Planning happens before the simulation clock starts, so events
/// are stamped at `t = 0`; `PlanComputed` carries the candidate count so
/// traces record planning cost. (Wall-clock is deliberately kept out of
/// the event stream — traces are byte-identical across same-seed runs —
/// and reported via `RunSummary::planning`, stamped by the CLI.)
pub fn plan_jobs_with_tracer(
    cfg: &ClusterConfig,
    jobs: &[JobSpec],
    objective: Objective,
    planner: &PlannerConfig,
    tracer: &dyn corral_trace::Tracer,
) -> Plan {
    let plan = plan_jobs(cfg, jobs, objective, planner);
    if tracer.enabled() {
        let label = match objective {
            Objective::Makespan => "makespan",
            Objective::AvgCompletionTime => "avgjct",
        };
        tracer.record(
            0.0,
            corral_trace::TraceEvent::PlanComputed {
                jobs: plan.len(),
                objective: label,
                candidates: plan.provision_stats.candidates,
            },
        );
        for e in plan.entries.values() {
            tracer.record(
                0.0,
                corral_trace::TraceEvent::PlannerAssigned {
                    job: e.job.0,
                    racks: e.racks.len(),
                    priority: e.priority,
                },
            );
        }
    }
    plan
}

/// [`plan_jobs`] with per-job rack pins: pinned jobs keep exactly those
/// racks (their data already lives there — §3.1 replanning), while the rest
/// are provisioned and placed around them.
pub fn plan_jobs_pinned(
    cfg: &ClusterConfig,
    jobs: &[JobSpec],
    objective: Objective,
    planner: &PlannerConfig,
    pinned: &BTreeMap<corral_model::JobId, Vec<RackId>>,
) -> Plan {
    // Per-plan decision latency: the histogram `corral-serve` will
    // report against (probe layer, host wall-clock, observability only).
    let _probe = corral_trace::probe::span(corral_trace::probe::SpanKind::PlanDecision);
    let plannable: Vec<&JobSpec> = jobs.iter().filter(|j| j.plannable).collect();
    let models: Vec<LatencyModel> = plannable
        .iter()
        .map(|j| LatencyModel::build(&j.profile, cfg, &planner.response))
        .collect();
    let meta: Vec<_> = plannable.iter().map(|j| (j.id, j.arrival)).collect();
    let pins: Vec<Option<Vec<RackId>>> = plannable
        .iter()
        .map(|j| pinned.get(&j.id).cloned())
        .collect();
    plan_with_models(&models, &meta, &pins, cfg.racks, objective)
}

/// Provisioning + prioritization + plan assembly over prebuilt latency
/// models. The shared tail of [`plan_jobs_pinned`] and
/// [`crate::incremental::IncrementalPlanner`]: one code path, so the
/// incremental planner is bit-identical to the batch oracle by
/// construction (its only delta is *where the models come from*).
pub(crate) fn plan_with_models(
    models: &[LatencyModel],
    meta: &[(corral_model::JobId, SimTime)],
    pins: &[Option<Vec<RackId>>],
    total_racks: usize,
    objective: Objective,
) -> Plan {
    let outcome = provision(
        models,
        meta,
        pins,
        total_racks,
        objective,
        ProvisionMode::Exhaustive,
    );

    // Priorities: rank by planned start time (earlier start = higher
    // priority = smaller number), ties by job id.
    let mut order: Vec<usize> = (0..outcome.schedule.len()).collect();
    order.sort_by(|&a, &b| {
        let sa = &outcome.schedule[a];
        let sb = &outcome.schedule[b];
        sa.start.total_cmp(sb.start).then(sa.job.cmp(&sb.job))
    });

    let mut plan = Plan {
        objective_value: outcome.objective_value,
        provision_stats: outcome.stats,
        ..Default::default()
    };
    for (rank, &idx) in order.iter().enumerate() {
        let s = &outcome.schedule[idx];
        plan.entries.insert(
            s.job,
            PlanEntry {
                job: s.job,
                racks: s.racks.clone(),
                priority: rank as u32,
                planned_start: s.start,
                planned_finish: s.finish,
                predicted_latency: s.finish - s.start,
            },
        );
    }
    plan
}

/// Perturbs every job's data volumes by an independent multiplicative
/// factor uniform in `[1−e, 1+e]` (Fig. 13a: the planner's size estimates
/// are off per job by up to ±e; uniform error across all jobs would be a
/// planning no-op since only *relative* latencies drive the plan).
/// Deterministic given `seed`.
pub fn perturb_volumes(jobs: &[JobSpec], e: f64, seed: u64) -> Vec<JobSpec> {
    let mut next_f64 = xorshift_unit(seed ^ 0x7071);
    jobs.iter()
        .cloned()
        .map(|mut j| {
            let factor = (1.0 + (next_f64() * 2.0 - 1.0) * e).max(0.05);
            scale_spec_volumes(&mut j, factor);
            j
        })
        .collect()
}

fn scale_spec_volumes(spec: &mut JobSpec, factor: f64) {
    match &mut spec.profile {
        corral_model::JobProfile::MapReduce(mr) => {
            mr.input = mr.input * factor;
            mr.shuffle = mr.shuffle * factor;
            mr.output = mr.output * factor;
        }
        corral_model::JobProfile::Dag(d) => {
            for s in d.stages.iter_mut() {
                s.dfs_input = s.dfs_input * factor;
                s.dfs_output = s.dfs_output * factor;
            }
            for e in d.edges.iter_mut() {
                e.bytes = e.bytes * factor;
            }
        }
    }
}

/// A tiny deterministic xorshift stream in [0,1); avoids pulling `rand`
/// into corral-core.
fn xorshift_unit(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Convenience: perturbs job arrival times by `±t` for a fraction `f` of
/// jobs (Fig. 13b sensitivity experiment). Deterministic given `seed`.
/// Returns a modified copy of the specs; arrivals never go negative.
pub fn perturb_arrivals(jobs: &[JobSpec], fraction: f64, t: SimTime, seed: u64) -> Vec<JobSpec> {
    let mut next_f64 = xorshift_unit(seed);
    jobs.iter()
        .cloned()
        .map(|mut j| {
            if next_f64() < fraction {
                let delta = (next_f64() * 2.0 - 1.0) * t.as_secs();
                j.arrival = SimTime((j.arrival.as_secs() + delta).max(0.0));
            }
            j
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corral_model::{Bandwidth, Bytes, JobId, MapReduceProfile};

    fn spec(id: u32, input_gb: f64, tasks: usize) -> JobSpec {
        JobSpec::map_reduce(
            JobId(id),
            format!("j{id}"),
            MapReduceProfile {
                input: Bytes::gb(input_gb),
                shuffle: Bytes::gb(input_gb / 2.0),
                output: Bytes::gb(input_gb / 10.0),
                maps: tasks,
                reduces: (tasks / 2).max(1),
                map_rate: Bandwidth::mbytes_per_sec(100.0),
                reduce_rate: Bandwidth::mbytes_per_sec(100.0),
            },
        )
    }

    #[test]
    fn plan_covers_all_plannable_jobs() {
        let cfg = ClusterConfig::testbed_210();
        let jobs = vec![
            spec(0, 10.0, 100),
            spec(1, 5.0, 50),
            spec(2, 1.0, 10).ad_hoc(),
        ];
        let plan = plan_jobs(&cfg, &jobs, Objective::Makespan, &PlannerConfig::default());
        assert_eq!(plan.len(), 2, "ad hoc jobs are not planned");
        assert!(plan.entry(JobId(2)).is_none());
        for e in plan.entries.values() {
            assert!(!e.racks.is_empty());
            assert!(e.racks.iter().all(|r| r.index() < cfg.racks));
            assert!(e.planned_finish >= e.planned_start);
        }
    }

    #[test]
    fn priorities_follow_start_times() {
        let cfg = ClusterConfig::testbed_210();
        let jobs: Vec<JobSpec> = (0..10)
            .map(|i| spec(i, 5.0 + i as f64 * 20.0, 100))
            .collect();
        let plan = plan_jobs(&cfg, &jobs, Objective::Makespan, &PlannerConfig::default());
        let mut entries: Vec<&PlanEntry> = plan.entries.values().collect();
        entries.sort_by_key(|e| e.priority);
        for w in entries.windows(2) {
            assert!(w[0].planned_start <= w[1].planned_start);
        }
        // Priorities are dense 0..n.
        let prios: Vec<u32> = entries.iter().map(|e| e.priority).collect();
        assert_eq!(prios, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_workload_gives_empty_plan() {
        let cfg = ClusterConfig::testbed_210();
        let plan = plan_jobs(&cfg, &[], Objective::Makespan, &PlannerConfig::default());
        assert!(plan.is_empty());
        assert_eq!(plan.objective_value, 0.0);
    }

    #[test]
    fn perturb_arrivals_is_bounded_and_deterministic() {
        let jobs: Vec<JobSpec> = (0..100)
            .map(|i| spec(i, 5.0, 50).arriving_at(SimTime(600.0)))
            .collect();
        let a = perturb_arrivals(&jobs, 0.5, SimTime(240.0), 7);
        let b = perturb_arrivals(&jobs, 0.5, SimTime(240.0), 7);
        assert_eq!(a, b);
        let changed = a
            .iter()
            .zip(&jobs)
            .filter(|(x, y)| x.arrival != y.arrival)
            .count();
        assert!(
            changed > 20 && changed < 80,
            "~50% should move, got {changed}"
        );
        for (x, y) in a.iter().zip(&jobs) {
            let d = (x.arrival.as_secs() - y.arrival.as_secs()).abs();
            assert!(d <= 240.0 + 1e-9);
            assert!(x.arrival.as_secs() >= 0.0);
        }
    }
}
