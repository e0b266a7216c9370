//! The planner's output: per-job rack sets, priorities and planned times.
//!
//! §3.1: "The planner creates a schedule which consists of a tuple
//! `{R_j, p_j}` for each job j, where `R_j` is the set of racks on which job
//! j has to run and `p_j` is its priority." Planned start/finish times are
//! retained for analysis and for deriving the priority order.

use corral_model::{JobId, RackId, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One job's entry in the offline schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanEntry {
    /// The job.
    pub job: JobId,
    /// The racks `R_j` the job's data and tasks should be confined to.
    pub racks: Vec<RackId>,
    /// Priority `p_j`; lower value = scheduled earlier by the cluster
    /// scheduler. Derived from the planned start times.
    pub priority: u32,
    /// Planned start time `T_j`.
    pub planned_start: SimTime,
    /// Planned finish `T_j + L_j(r_j)`.
    pub planned_finish: SimTime,
    /// The latency estimate the plan was built with.
    pub predicted_latency: SimTime,
}

/// The full offline schedule for a workload.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Plan {
    /// Entries keyed by job id.
    pub entries: BTreeMap<JobId, PlanEntry>,
    /// Value of the planning objective for this schedule (seconds).
    pub objective_value: f64,
    /// Cost counters of the provisioning run that produced this plan
    /// (candidates scored, heap pops). Diagnostic only —
    /// not serialized, and `Plan::from_csv` yields the default.
    #[serde(skip)]
    pub provision_stats: crate::provision::ProvisionStats,
}

/// Equality is over the *schedule* (entries + objective value), not the
/// diagnostic cost counters: a plan materialized from the serve plan
/// cache or read back from CSV carries no counters, and must still
/// compare equal to the bit-identical plan the planner produced.
impl PartialEq for Plan {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries && self.objective_value == other.objective_value
    }
}

impl Plan {
    /// The entry for `job`, if it was planned.
    pub fn entry(&self, job: JobId) -> Option<&PlanEntry> {
        self.entries.get(&job)
    }

    /// The planned rack set of `job` (empty slice view if unplanned).
    pub fn racks_of(&self, job: JobId) -> &[RackId] {
        self.entry(job).map(|e| e.racks.as_slice()).unwrap_or(&[])
    }

    /// Priority of `job`; unplanned jobs get the lowest priority.
    pub fn priority_of(&self, job: JobId) -> u32 {
        self.entry(job).map(|e| e.priority).unwrap_or(u32::MAX)
    }

    /// Number of planned jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no jobs were planned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the plan as CSV (one entry per line; racks are
    /// `|`-separated). The counterpart of [`Plan::from_csv`].
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "job,priority,planned_start_s,planned_finish_s,predicted_latency_s,racks\n",
        );
        for e in self.entries.values() {
            let racks: Vec<String> = e.racks.iter().map(|r| r.0.to_string()).collect();
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                e.job.0,
                e.priority,
                e.planned_start.as_secs(),
                e.planned_finish.as_secs(),
                e.predicted_latency.as_secs(),
                racks.join("|"),
            ));
        }
        out
    }

    /// Parses a plan from [`Plan::to_csv`]'s format. The objective value is
    /// not stored; it is recomputed as the max planned finish.
    pub fn from_csv(text: &str) -> Result<Plan, String> {
        let mut plan = Plan::default();
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim().starts_with("job,priority,") => {}
            other => return Err(format!("bad plan header: {other:?}")),
        }
        for (n, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 6 {
                return Err(format!("plan line {}: expected 6 fields", n + 1));
            }
            let err = |what: &str| format!("plan line {}: bad {what}", n + 1);
            let job = JobId(f[0].parse().map_err(|_| err("job id"))?);
            let priority: u32 = f[1].parse().map_err(|_| err("priority"))?;
            let planned_start = SimTime(f[2].parse().map_err(|_| err("start"))?);
            let planned_finish = SimTime(f[3].parse().map_err(|_| err("finish"))?);
            let predicted_latency = SimTime(f[4].parse().map_err(|_| err("latency"))?);
            let racks: Result<Vec<RackId>, _> = f[5]
                .split('|')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse::<u32>().map(RackId))
                .collect();
            let racks = racks.map_err(|_| err("racks"))?;
            if racks.is_empty() {
                return Err(err("racks (empty)"));
            }
            plan.entries.insert(
                job,
                PlanEntry {
                    job,
                    racks,
                    priority,
                    planned_start,
                    planned_finish,
                    predicted_latency,
                },
            );
        }
        plan.objective_value = plan
            .entries
            .values()
            .map(|e| e.planned_finish.as_secs())
            .fold(0.0, f64::max);
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let mut plan = Plan::default();
        for i in 0..4u32 {
            plan.entries.insert(
                JobId(i),
                PlanEntry {
                    job: JobId(i),
                    racks: vec![RackId(i % 3), RackId(6)],
                    priority: i,
                    planned_start: SimTime(i as f64 * 7.5),
                    planned_finish: SimTime(i as f64 * 7.5 + 100.0),
                    predicted_latency: SimTime(100.0),
                },
            );
        }
        plan.objective_value = 122.5;
        let back = Plan::from_csv(&plan.to_csv()).unwrap();
        assert_eq!(back.entries, plan.entries);
        assert!((back.objective_value - 122.5).abs() < 1e-9);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(Plan::from_csv("").is_err());
        assert!(Plan::from_csv("nope\n1,2,3").is_err());
        let bad =
            "job,priority,planned_start_s,planned_finish_s,predicted_latency_s,racks\n1,0,0,1,1,\n";
        assert!(Plan::from_csv(bad).is_err(), "empty rack set must fail");
    }

    #[test]
    fn lookup_and_defaults() {
        let mut plan = Plan::default();
        plan.entries.insert(
            JobId(3),
            PlanEntry {
                job: JobId(3),
                racks: vec![RackId(1), RackId(2)],
                priority: 0,
                planned_start: SimTime(5.0),
                planned_finish: SimTime(15.0),
                predicted_latency: SimTime(10.0),
            },
        );
        assert_eq!(plan.racks_of(JobId(3)), &[RackId(1), RackId(2)]);
        assert_eq!(plan.priority_of(JobId(3)), 0);
        assert_eq!(plan.racks_of(JobId(9)), &[] as &[RackId]);
        assert_eq!(plan.priority_of(JobId(9)), u32::MAX);
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
    }
}
