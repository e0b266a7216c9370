//! Run metrics: everything the paper's figures are computed from.

use corral_model::{Bytes, JobId, MachineId, SimTime, StageId};
use corral_trace::percentile;
use serde::Serialize;
use std::collections::BTreeMap;

/// One completed (or killed) task attempt — the run's execution timeline.
/// Useful for Gantt-style visualization and for asserting placement
/// invariants in tests.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TaskRecord {
    /// Owning job.
    pub job: JobId,
    /// Stage within the job.
    pub stage: StageId,
    /// Task index within the stage.
    pub index: u32,
    /// Machine the attempt ran on.
    pub machine: MachineId,
    /// When the attempt got its slot.
    pub scheduled: SimTime,
    /// When its compute phase began (None if killed while fetching).
    pub compute_started: Option<SimTime>,
    /// When its output-write phase began (None if it wrote nothing or was
    /// killed earlier).
    pub write_started: Option<SimTime>,
    /// When the attempt left its slot (completion or kill).
    pub finished: SimTime,
    /// True if the attempt was killed by a failure (and re-queued).
    pub killed: bool,
}

/// Per-job outcome.
#[derive(Debug, Clone, Default, Serialize)]
pub struct JobMetrics {
    /// Submission time.
    pub arrival: SimTime,
    /// First task placement time (None if never started).
    pub started: Option<SimTime>,
    /// Completion time (None if unfinished at the horizon).
    pub finished: Option<SimTime>,
    /// Total task-seconds consumed (the paper's "compute hours" metric,
    /// Fig. 7b, kept in seconds here).
    pub task_seconds: f64,
    /// Durations of non-source-stage task attempts (reduce tasks for
    /// MapReduce jobs) — Fig. 7c's "average reduce time" inputs.
    pub reduce_task_seconds: Vec<f64>,
    /// Cross-rack bytes attributed to the job by the fabric.
    pub cross_rack_bytes: Bytes,
    /// Number of task attempts that completed.
    pub tasks_completed: u64,
    /// Number of attempts killed by failures.
    pub tasks_killed: u64,
    /// Requested slots (widest stage) — used for size binning (Fig. 9).
    pub slots_requested: usize,
}

impl JobMetrics {
    /// Completion time minus arrival, if finished.
    pub fn completion_time(&self) -> Option<SimTime> {
        self.finished.map(|f| f - self.arrival)
    }

    /// Mean duration of this job's non-source task attempts.
    pub fn avg_reduce_time(&self) -> Option<f64> {
        if self.reduce_task_seconds.is_empty() {
            None
        } else {
            Some(
                self.reduce_task_seconds.iter().sum::<f64>()
                    / self.reduce_task_seconds.len() as f64,
            )
        }
    }
}

/// Whole-run outcome.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunReport {
    /// Scheduler label (e.g. "yarn-cs", "corral").
    pub scheduler: String,
    /// Network policy label ("tcp-fair" / "varys-sebf").
    pub net: String,
    /// Time the last job finished (or the horizon, if jobs were cut off).
    pub makespan: SimTime,
    /// Per-job metrics.
    pub jobs: BTreeMap<JobId, JobMetrics>,
    /// Bytes that crossed the oversubscribed core.
    pub cross_rack_bytes: Bytes,
    /// All bytes that touched the network (cross-rack + intra-rack).
    pub network_bytes: Bytes,
    /// Machine-local transfer volume.
    pub local_bytes: Bytes,
    /// Jobs still unfinished when the horizon hit.
    pub unfinished: usize,
    /// Coefficient of variation of per-rack DFS input bytes (§6.2.1).
    pub input_balance_cov: f64,
    /// Time-averaged utilization of machine NIC links (fraction of
    /// capacity over the run).
    pub edge_utilization: f64,
    /// Time-averaged utilization of rack core links.
    pub core_utilization: f64,
    /// Sampled core-utilization time series `(bucket_start_s, fraction)`;
    /// empty unless `SimParams::sample_core_utilization` was set.
    pub core_utilization_series: Vec<(f64, f64)>,
    /// Execution timeline: one record per task attempt, in completion
    /// order.
    pub task_log: Vec<TaskRecord>,
    /// The human-readable end-of-run summary (utilization, locality hit
    /// rates, queueing-delay percentiles) — printable via `Display`.
    pub summary: corral_trace::RunSummary,
}

impl RunReport {
    /// Completion times (seconds) of all finished jobs, sorted ascending —
    /// the input to every CDF figure.
    pub fn completion_times(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .jobs
            .values()
            .filter_map(|m| m.completion_time().map(|t| t.as_secs()))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Mean completion time over finished jobs.
    pub fn avg_completion_time(&self) -> f64 {
        let v = self.completion_times();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Median completion time over finished jobs.
    pub fn median_completion_time(&self) -> f64 {
        percentile(&self.completion_times(), 50.0)
    }

    /// Total task-seconds across jobs ("compute hours", in seconds).
    pub fn total_task_seconds(&self) -> f64 {
        self.jobs.values().map(|m| m.task_seconds).sum()
    }

    /// Renders the task timeline as CSV (one attempt per line) for
    /// Gantt-style visualization.
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from(
            "job,stage,index,machine,scheduled_s,compute_started_s,finished_s,killed\n",
        );
        for t in &self.task_log {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                t.job.0,
                t.stage.0,
                t.index,
                t.machine.0,
                t.scheduled.as_secs(),
                t.compute_started.map(|x| x.as_secs()).unwrap_or(f64::NAN),
                t.finished.as_secs(),
                t.killed,
            ));
        }
        out
    }

    /// Aggregate task time split into (fetch, compute, write) seconds over
    /// completed attempts — "where does task time go".
    pub fn phase_breakdown(&self) -> (f64, f64, f64) {
        let mut fetch = 0.0;
        let mut compute = 0.0;
        let mut write = 0.0;
        for t in &self.task_log {
            if t.killed {
                continue;
            }
            let c = t.compute_started.unwrap_or(t.finished);
            let w = t.write_started.unwrap_or(t.finished);
            fetch += (c - t.scheduled).as_secs().max(0.0);
            compute += (w - c).as_secs().max(0.0);
            write += (t.finished - w).as_secs().max(0.0);
        }
        (fetch, compute, write)
    }

    /// Per-job average reduce-task durations, sorted (Fig. 7c CDF input).
    pub fn avg_reduce_times(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .jobs
            .values()
            .filter_map(|m| m.avg_reduce_time())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Percentage reduction of `ours` versus `baseline` (positive = better).
pub fn reduction_pct(baseline: f64, ours: f64) -> f64 {
    if baseline.abs() < f64::EPSILON {
        0.0
    } else {
        (baseline - ours) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn reduction_math() {
        assert!((reduction_pct(100.0, 67.0) - 33.0).abs() < 1e-12);
        assert!(reduction_pct(100.0, 120.0) < 0.0);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn report_aggregates() {
        let mut r = RunReport::default();
        for (i, (a, f)) in [(0.0, 10.0), (0.0, 30.0), (5.0, 10.0)].iter().enumerate() {
            r.jobs.insert(
                JobId(i as u32),
                JobMetrics {
                    arrival: SimTime(*a),
                    finished: Some(SimTime(*f)),
                    task_seconds: 100.0,
                    reduce_task_seconds: vec![1.0, 3.0],
                    ..Default::default()
                },
            );
        }
        assert_eq!(r.completion_times(), vec![5.0, 10.0, 30.0]);
        assert_eq!(r.avg_completion_time(), 15.0);
        assert_eq!(r.median_completion_time(), 10.0);
        assert_eq!(r.total_task_seconds(), 300.0);
        assert_eq!(r.avg_reduce_times(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn unfinished_jobs_do_not_pollute_cdfs() {
        let mut r = RunReport::default();
        r.jobs.insert(
            JobId(0),
            JobMetrics {
                finished: None,
                ..Default::default()
            },
        );
        assert!(r.completion_times().is_empty());
        assert_eq!(r.avg_completion_time(), 0.0);
    }
}
