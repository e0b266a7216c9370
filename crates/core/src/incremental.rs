//! Incremental replanning: the resident-service entry point to the
//! planner.
//!
//! `corral-serve` replans on every arrival and completion. Between two
//! consecutive replans the planning problem barely changes: the same
//! queued jobs (now pinned to the racks chosen at their admission —
//! §3.1, their data is already uploaded) plus at most one newcomer.
//! Rebuilding every latency response table `L'_j(r)` from scratch on
//! each event is the dominant avoidable cost, so [`IncrementalPlanner`]
//! keeps the tables of jobs it has already seen and rebuilds only what
//! the delta touched: the arriving job's table is built once and reused
//! until the job departs; a completion rebuilds nothing.
//!
//! Because [`LatencyModel::build`] is deterministic, a cached table is
//! bit-identical to a freshly built one, and the provisioning /
//! prioritization tail is the *same code path* as the batch planner
//! ([`plan_with_models`](crate::planner)). The incremental plan is
//! therefore bit-equal to the full [`crate::plan_jobs_pinned`] oracle
//! by construction — a property `corral-serve` enforces at run time on
//! tripwire cells.
//!
//! Cache validity is guarded by a structural fingerprint of each job's
//! profile ([`profile_fingerprint`]): if a job id is resubmitted with a
//! different profile, the stale table is detected and rebuilt rather
//! than silently reused.

use crate::latency::LatencyModel;
use crate::objective::Objective;
use crate::plan::Plan;
use crate::planner::{plan_with_models, PlannerConfig};
use corral_model::{ClusterConfig, JobId, JobProfile, JobSpec, RackId};
use corral_trace::fnv::Fnv64;
use corral_trace::probe::{self, SpanKind};
use std::collections::BTreeMap;

/// A 64-bit FNV-1a fingerprint of a job profile's *structure*: every
/// field that [`LatencyModel::build`] reads, via `f64::to_bits` for
/// exactness. Two profiles with equal fingerprints produce bit-identical
/// latency tables (same cluster, same options); the fingerprint is also
/// the "job template hash" component of the serve-layer plan-cache key,
/// so recurring submissions of the same template collide on purpose.
pub fn profile_fingerprint(profile: &JobProfile) -> u64 {
    let mut h = Fnv64::new();
    match profile {
        JobProfile::MapReduce(mr) => {
            h.u64(1); // variant tag
            h.f64(mr.input.0);
            h.f64(mr.shuffle.0);
            h.f64(mr.output.0);
            h.u64(mr.maps as u64);
            h.u64(mr.reduces as u64);
            h.f64(mr.map_rate.0);
            h.f64(mr.reduce_rate.0);
        }
        JobProfile::Dag(d) => {
            h.u64(2); // variant tag
            h.u64(d.stages.len() as u64);
            for st in &d.stages {
                h.bytes(st.name.as_bytes());
                h.u64(st.tasks as u64);
                h.f64(st.dfs_input.0);
                h.f64(st.dfs_output.0);
                h.f64(st.rate.0);
            }
            h.u64(d.edges.len() as u64);
            for e in &d.edges {
                h.u64(e.from.index() as u64);
                h.u64(e.to.index() as u64);
                h.f64(e.bytes.0);
                h.u64(matches!(e.kind, corral_model::EdgeKind::Broadcast) as u64);
            }
        }
    }
    h.finish()
}

/// Was a replan able to reuse cached latency tables?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanKind {
    /// At least one job's latency table was served from the cache.
    Incremental,
    /// Every table was (re)built — first replan, or nothing survived
    /// the delta.
    Full,
}

/// What one [`IncrementalPlanner::plan`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplanStats {
    /// Incremental (≥1 cached table reused) or full rebuild.
    pub kind: ReplanKind,
    /// Latency tables served from the per-job cache.
    pub models_reused: usize,
    /// Latency tables built this call.
    pub models_built: usize,
    /// Stale cache entries evicted (departed jobs + fingerprint
    /// mismatches).
    pub models_evicted: usize,
}

/// A resident planner that caches per-job latency response tables
/// between replans.
///
/// Cluster config, objective and planner options are fixed at
/// construction (a cached table is only valid for the cluster and α it
/// was built against); the job set varies call to call. Plans produced
/// here are bit-equal to [`crate::plan_jobs_pinned`] on the same
/// inputs — see the module docs.
#[derive(Debug, Clone)]
pub struct IncrementalPlanner {
    cfg: ClusterConfig,
    objective: Objective,
    planner: PlannerConfig,
    /// job id → (profile fingerprint, latency table).
    models: BTreeMap<JobId, (u64, LatencyModel)>,
}

impl IncrementalPlanner {
    /// New planner with an empty model cache.
    pub fn new(cfg: ClusterConfig, objective: Objective, planner: PlannerConfig) -> Self {
        IncrementalPlanner {
            cfg,
            objective,
            planner,
            models: BTreeMap::new(),
        }
    }

    /// The objective plans are optimized under.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The cluster configuration plans are built against.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Latency tables currently cached.
    pub fn cached_models(&self) -> usize {
        self.models.len()
    }

    /// Drops every cached latency table (e.g. after a snapshot
    /// restore — the next replan is then a full rebuild, which is safe
    /// because rebuilt tables are bit-identical to cached ones).
    pub fn clear(&mut self) {
        self.models.clear();
    }

    /// Replans `jobs` (pinned jobs keep exactly their pinned racks),
    /// reusing cached latency tables where the job's profile is
    /// unchanged. Departed jobs' tables are garbage-collected.
    ///
    /// Runs under the same `PlanDecision` span as the batch planner, so
    /// the existing decision-latency histogram covers both entry points.
    pub fn plan(
        &mut self,
        jobs: &[JobSpec],
        pinned: &BTreeMap<JobId, Vec<RackId>>,
    ) -> (Plan, ReplanStats) {
        let _probe = probe::span(SpanKind::PlanDecision);

        let plannable: Vec<&JobSpec> = jobs.iter().filter(|j| j.plannable).collect();

        // GC tables for jobs no longer in the problem (completions).
        let before = self.models.len();
        self.models
            .retain(|id, _| plannable.iter().any(|j| j.id == *id));
        let mut evicted = before - self.models.len();

        let mut reused = 0usize;
        let mut built = 0usize;
        let mut models: Vec<LatencyModel> = Vec::with_capacity(plannable.len());
        for j in &plannable {
            let fp = profile_fingerprint(&j.profile);
            match self.models.get(&j.id) {
                Some((cached_fp, m)) if *cached_fp == fp => {
                    reused += 1;
                    models.push(m.clone());
                }
                stale => {
                    if stale.is_some() {
                        evicted += 1;
                    }
                    built += 1;
                    let m = LatencyModel::build(&j.profile, &self.cfg, &self.planner.response);
                    self.models.insert(j.id, (fp, m.clone()));
                    models.push(m);
                }
            }
        }

        let kind = if reused > 0 {
            ReplanKind::Incremental
        } else {
            ReplanKind::Full
        };

        let meta: Vec<_> = plannable.iter().map(|j| (j.id, j.arrival)).collect();
        let pins: Vec<Option<Vec<RackId>>> = plannable
            .iter()
            .map(|j| pinned.get(&j.id).cloned())
            .collect();
        let plan = plan_with_models(&models, &meta, &pins, self.cfg.racks, self.objective);
        (
            plan,
            ReplanStats {
                kind,
                models_reused: reused,
                models_built: built,
                models_evicted: evicted,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_jobs_pinned;
    use corral_model::{Bandwidth, Bytes, JobId, MapReduceProfile, SimTime};

    fn job(id: u32, arrival: f64, gb: f64) -> JobSpec {
        JobSpec::map_reduce(
            JobId(id),
            format!("j{id}"),
            MapReduceProfile {
                input: Bytes::gb(gb),
                shuffle: Bytes::gb(gb / 2.0),
                output: Bytes::gb(gb / 10.0),
                maps: 40,
                reduces: 10,
                map_rate: Bandwidth::mbytes_per_sec(50.0),
                reduce_rate: Bandwidth::mbytes_per_sec(50.0),
            },
        )
        .arriving_at(SimTime(arrival))
    }

    fn oracle(jobs: &[JobSpec], pins: &BTreeMap<JobId, Vec<RackId>>) -> Plan {
        plan_jobs_pinned(
            &ClusterConfig::tiny_test(),
            jobs,
            Objective::Makespan,
            &PlannerConfig::default(),
            pins,
        )
    }

    #[test]
    fn incremental_matches_oracle_across_deltas() {
        let mut ip = IncrementalPlanner::new(
            ClusterConfig::tiny_test(),
            Objective::Makespan,
            PlannerConfig::default(),
        );
        let mut jobs = vec![job(1, 0.0, 10.0), job(2, 5.0, 20.0)];
        let mut pins: BTreeMap<JobId, Vec<RackId>> = BTreeMap::new();

        let (p, s) = ip.plan(&jobs, &pins);
        assert_eq!(s.kind, ReplanKind::Full);
        assert_eq!(s.models_built, 2);
        assert_eq!(p, oracle(&jobs, &pins));

        // Arrival: pin the survivors, add a newcomer — tables reused.
        for e in p.entries.values() {
            pins.insert(e.job, e.racks.clone());
        }
        jobs.push(job(3, 8.0, 5.0));
        let (p, s) = ip.plan(&jobs, &pins);
        assert_eq!(s.kind, ReplanKind::Incremental);
        assert_eq!(s.models_reused, 2);
        assert_eq!(s.models_built, 1);
        assert_eq!(p, oracle(&jobs, &pins));

        // Completion: job 1 departs — its table is GC'd, rest reused.
        jobs.remove(0);
        pins.remove(&JobId(1));
        let (p, s) = ip.plan(&jobs, &pins);
        assert_eq!(s.kind, ReplanKind::Incremental);
        assert_eq!(s.models_reused, 2);
        assert_eq!(s.models_built, 0);
        assert_eq!(s.models_evicted, 1);
        assert_eq!(p, oracle(&jobs, &pins));
        assert_eq!(ip.cached_models(), 2);
    }

    #[test]
    fn profile_change_invalidates_cached_model() {
        let mut ip = IncrementalPlanner::new(
            ClusterConfig::tiny_test(),
            Objective::AvgCompletionTime,
            PlannerConfig::default(),
        );
        let pins = BTreeMap::new();
        let jobs = vec![job(7, 0.0, 10.0)];
        ip.plan(&jobs, &pins);

        // Same id, different volumes: the stale table must not be reused.
        let jobs2 = vec![job(7, 0.0, 40.0)];
        let (p, s) = ip.plan(&jobs2, &pins);
        assert_eq!(s.models_reused, 0);
        assert_eq!(s.models_built, 1);
        assert_eq!(s.models_evicted, 1);
        assert_eq!(p, oracle_avg(&jobs2));
    }

    fn oracle_avg(jobs: &[JobSpec]) -> Plan {
        plan_jobs_pinned(
            &ClusterConfig::tiny_test(),
            jobs,
            Objective::AvgCompletionTime,
            &PlannerConfig::default(),
            &BTreeMap::new(),
        )
    }

    #[test]
    fn fingerprint_separates_profiles() {
        let a = profile_fingerprint(&job(1, 0.0, 10.0).profile);
        let b = profile_fingerprint(&job(2, 0.0, 10.0).profile);
        let c = profile_fingerprint(&job(1, 0.0, 11.0).profile);
        assert_eq!(a, b); // same template, different id → same hash
        assert_ne!(a, c);
        let dag = JobProfile::Dag(job(1, 0.0, 10.0).profile.as_dag());
        assert_ne!(a, profile_fingerprint(&dag));
    }
}
