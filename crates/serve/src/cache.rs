//! The plan cache: replanning problems keyed by *shape*, not identity.
//!
//! Replans run in now-relative time (the newcomer arrives at `0.0`,
//! queued survivors at their negative age), so the planning problem for
//! "recurring template T arrives at an empty queue" is byte-identical no
//! matter when it happens — the dominant steady-state case. The cache
//! stores **abstract plans**: per-position entries with the job ids
//! stripped, re-materialized against the live ids on a hit.
//!
//! The key covers everything the planner reads: a cluster/objective
//! config fingerprint, and per job (in canonical `(arrival, id)` problem
//! order) its profile template hash
//! ([`corral_core::profile_fingerprint`]), exact relative arrival bits,
//! pinned rack set (or an unpinned marker), and — crucially — its rank
//! in the problem's *id order*. The planner breaks start-time ties by
//! job id, so two problems are only interchangeable when their id
//! permutations agree; hashing the permutation makes a hit sufficient
//! for bit-equal output. Keys are a 128-bit [`Fnv128`] hash, and a
//! length mismatch at lookup demotes a residual collision to a miss
//! rather than a wrong plan. Hits and misses are counted by the caller
//! (`ServeStats::cache_hits` / `cache_misses`).

use corral_core::plan::{Plan, PlanEntry};
use corral_core::profile_fingerprint;
use corral_model::{JobId, JobSpec, RackId, SimTime};
use corral_trace::fnv::Fnv128;
use std::collections::{BTreeMap, VecDeque};

/// Cache key: 128 bits over config + canonical problem.
pub type CacheKey = (u64, u64);

/// Computes the cache key for one replanning problem. `problem` must be
/// in canonical `(arrival, id)` order with *relative* arrivals; `pins`
/// maps queued survivors to their anchored racks. `dead_fp` is the
/// dead-machine-set fingerprint (`0` while the cluster is fully live):
/// a failure changes the virtual cluster the planner sees, so plans
/// cached before it must not answer problems after it — and a full
/// repair restores `dead_fp = 0`, making the pre-failure entries valid
/// (and hittable) again.
pub fn problem_key(
    config_fp: u64,
    dead_fp: u64,
    problem: &[JobSpec],
    pins: &BTreeMap<JobId, Vec<RackId>>,
) -> CacheKey {
    let mut h = Fnv128::new();
    h.u64(config_fp);
    h.u64(dead_fp);
    h.u64(problem.len() as u64);
    // Rank of each position's id within the problem's id set: the
    // planner's tie-breaks compare ids, so the permutation is part of
    // the problem shape.
    let mut by_id: Vec<usize> = (0..problem.len()).collect();
    by_id.sort_by_key(|&i| problem[i].id);
    let mut rank = vec![0u64; problem.len()];
    for (r, &i) in by_id.iter().enumerate() {
        rank[i] = r as u64;
    }
    for (i, s) in problem.iter().enumerate() {
        h.u64(profile_fingerprint(&s.profile));
        h.f64(s.arrival.0);
        h.u64(rank[i]);
        match pins.get(&s.id) {
            Some(racks) => {
                h.u64(1 + racks.len() as u64);
                for r in racks {
                    h.u64(r.0 as u64);
                }
            }
            None => h.u64(0),
        }
    }
    h.finish()
}

/// One cached entry: a plan with the ids stripped, positions matching
/// the canonical problem order the key was computed from.
#[derive(Debug, Clone)]
struct AbstractPlan {
    entries: Vec<AbstractEntry>,
    objective_value: f64,
}

#[derive(Debug, Clone)]
struct AbstractEntry {
    racks: Vec<RackId>,
    priority: u32,
    planned_start: SimTime,
    planned_finish: SimTime,
    predicted_latency: SimTime,
}

/// A bounded FIFO plan cache. `capacity == 0` disables caching (every
/// probe is a miss and nothing is stored).
#[derive(Debug, Default)]
pub struct PlanCache {
    capacity: usize,
    map: BTreeMap<CacheKey, AbstractPlan>,
    order: VecDeque<CacheKey>,
}

impl PlanCache {
    /// New cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            ..Default::default()
        }
    }

    /// Plans currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Probes the cache. `ids` are the problem's job ids in the same
    /// canonical order the key was computed from; on a hit the abstract
    /// plan is materialized against them.
    pub fn lookup(&self, key: CacheKey, ids: &[JobId]) -> Option<Plan> {
        let c = self
            .map
            .get(&key)
            .filter(|c| c.entries.len() == ids.len())?;
        let mut plan = Plan {
            objective_value: c.objective_value,
            ..Default::default()
        };
        for (id, e) in ids.iter().zip(&c.entries) {
            plan.entries.insert(
                *id,
                PlanEntry {
                    job: *id,
                    racks: e.racks.clone(),
                    priority: e.priority,
                    planned_start: e.planned_start,
                    planned_finish: e.planned_finish,
                    predicted_latency: e.predicted_latency,
                },
            );
        }
        Some(plan)
    }

    /// Stores `plan` under `key` (`ids` in canonical problem order),
    /// evicting the oldest entry beyond capacity.
    pub fn insert(&mut self, key: CacheKey, ids: &[JobId], plan: &Plan) {
        if self.capacity == 0 {
            return;
        }
        let entries: Vec<AbstractEntry> = ids
            .iter()
            .map(|id| {
                let e = plan.entry(*id).expect("plan covers every problem job");
                AbstractEntry {
                    racks: e.racks.clone(),
                    priority: e.priority,
                    planned_start: e.planned_start,
                    planned_finish: e.planned_finish,
                    predicted_latency: e.predicted_latency,
                }
            })
            .collect();
        if self
            .map
            .insert(
                key,
                AbstractPlan {
                    entries,
                    objective_value: plan.objective_value,
                },
            )
            .is_none()
        {
            self.order.push_back(key);
            while self.map.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corral_model::{Bandwidth, Bytes, MapReduceProfile};

    fn spec(id: u32, arrival: f64, gb: f64) -> JobSpec {
        JobSpec::map_reduce(
            JobId(id),
            format!("j{id}"),
            MapReduceProfile {
                input: Bytes::gb(gb),
                shuffle: Bytes::gb(gb),
                output: Bytes::gb(gb / 10.0),
                maps: 8,
                reduces: 4,
                map_rate: Bandwidth::mbytes_per_sec(50.0),
                reduce_rate: Bandwidth::mbytes_per_sec(50.0),
            },
        )
        .arriving_at(SimTime(arrival))
    }

    fn entry(id: u32, prio: u32) -> PlanEntry {
        PlanEntry {
            job: JobId(id),
            racks: vec![RackId(0)],
            priority: prio,
            planned_start: SimTime(0.0),
            planned_finish: SimTime(10.0),
            predicted_latency: SimTime(10.0),
        }
    }

    #[test]
    fn same_shape_different_ids_hits_and_rematerializes() {
        let pins = BTreeMap::new();
        let p1 = vec![spec(5, 0.0, 2.0)];
        let p2 = vec![spec(9, 0.0, 2.0)];
        let k1 = problem_key(42, 0, &p1, &pins);
        let k2 = problem_key(42, 0, &p2, &pins);
        assert_eq!(k1, k2, "template + shape match ⇒ same key");

        let mut cache = PlanCache::new(4);
        assert!(cache.lookup(k1, &[JobId(5)]).is_none());
        let mut plan = Plan::default();
        plan.entries.insert(JobId(5), entry(5, 0));
        plan.objective_value = 10.0;
        cache.insert(k1, &[JobId(5)], &plan);

        let hit = cache.lookup(k2, &[JobId(9)]).expect("cache hit");
        assert_eq!(hit.entry(JobId(9)).unwrap().priority, 0);
        assert_eq!(hit.objective_value, 10.0);
    }

    #[test]
    fn key_separates_arrivals_pins_and_id_order() {
        let pins = BTreeMap::new();
        let base = vec![spec(1, -3.0, 2.0), spec(2, 0.0, 4.0)];
        let k = problem_key(42, 0, &base, &pins);

        // Different relative age.
        let aged = vec![spec(1, -4.0, 2.0), spec(2, 0.0, 4.0)];
        assert_ne!(k, problem_key(42, 0, &aged, &pins));

        // Same shapes, inverted id order (ties would break differently).
        let inverted = vec![spec(2, -3.0, 2.0), spec(1, 0.0, 4.0)];
        assert_ne!(k, problem_key(42, 0, &inverted, &pins));

        // A pin changes the problem.
        let mut pinned = BTreeMap::new();
        pinned.insert(JobId(1), vec![RackId(0), RackId(2)]);
        assert_ne!(k, problem_key(42, 0, &base, &pinned));

        // Different config fingerprint.
        assert_ne!(k, problem_key(43, 0, &base, &pins));
    }

    #[test]
    fn fifo_eviction_and_zero_capacity() {
        let pins = BTreeMap::new();
        let mut cache = PlanCache::new(2);
        let mut plan = Plan::default();
        plan.entries.insert(JobId(1), entry(1, 0));
        let keys: Vec<CacheKey> = (0..3)
            .map(|i| problem_key(i, 0, &[spec(1, 0.0, 2.0)], &pins))
            .collect();
        for k in &keys {
            cache.insert(*k, &[JobId(1)], &plan);
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(keys[0], &[JobId(1)]).is_none(), "evicted");
        assert!(cache.lookup(keys[2], &[JobId(1)]).is_some());

        let mut off = PlanCache::new(0);
        off.insert(keys[0], &[JobId(1)], &plan);
        assert!(off.is_empty());
        assert!(off.lookup(keys[0], &[JobId(1)]).is_none());
    }
}
