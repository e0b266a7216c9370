//! End-of-run plain-text report: the quantities the Corral paper argues
//! about (utilization, locality hit rates, queueing delay, cross-rack
//! traffic), printable with `--summary` and embedded in `RunReport`.

use std::fmt;

use crate::histogram::LogHistogram;

/// p50/p90/p99 of one histogram, precomputed for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Extracts percentiles from a histogram, `None` when it is empty.
    pub fn from_histogram(h: &LogHistogram) -> Option<Percentiles> {
        Some(Percentiles {
            p50: h.p50()?,
            p90: h.p90()?,
            p99: h.p99()?,
        })
    }
}

/// The `p`-th percentile (0–100) of an ascending-sorted sample, with linear
/// interpolation between ranks; `0.0` on empty input.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Tasks scheduled at each locality level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalityCounts {
    /// Landed on a machine holding their input.
    pub machine: u64,
    /// Landed in a rack holding their input.
    pub rack: u64,
    /// Landed away from every preferred machine.
    pub remote: u64,
    /// Had no placement preference.
    pub unconstrained: u64,
}

impl LocalityCounts {
    /// Tasks that had a preference (the denominator for hit rates).
    pub fn constrained(&self) -> u64 {
        self.machine + self.rack + self.remote
    }

    /// Fraction of constrained tasks that ran machine-local.
    pub fn machine_rate(&self) -> f64 {
        rate(self.machine, self.constrained())
    }

    /// Fraction of constrained tasks that ran machine- or rack-local.
    pub fn rack_or_better_rate(&self) -> f64 {
        rate(self.machine + self.rack, self.constrained())
    }
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Cost of computing the offline plan for a run — host wall-clock, not
/// simulated time. Filled in by the CLI (which is what observes planning
/// happen), never by the engine: the engine's summary must stay a pure
/// function of the simulated run so byte-equality tests across identical
/// runs keep holding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanningCost {
    /// Planner wall-clock in seconds.
    pub wall_s: f64,
    /// Candidate allocations the provisioning loop scored.
    pub candidates: u64,
}

/// The end-of-run report printed by `corral-sim simulate --summary`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Scheduler label ("yarn-cs", "corral", …).
    pub scheduler: String,
    /// Batch makespan in seconds.
    pub makespan_s: f64,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that finished inside the horizon.
    pub jobs_finished: usize,
    /// Task attempts that completed.
    pub tasks_finished: u64,
    /// Task attempts that were killed.
    pub tasks_killed: u64,
    /// Busy-slot-seconds over total slot-seconds, `0..=1`.
    pub slot_utilization: f64,
    /// Tasks by achieved locality level.
    pub locality: LocalityCounts,
    /// Queueing delay (stage runnable → task scheduled), if any tasks ran.
    pub queue_delay_s: Option<Percentiles>,
    /// Task durations (scheduled → finished), if any tasks finished.
    pub task_duration_s: Option<Percentiles>,
    /// Fraction of network bytes that crossed the core.
    pub cross_rack_fraction: f64,
    /// Mean utilization of edge (machine) links, `0..=1`.
    pub edge_utilization: f64,
    /// Mean utilization of core (rack uplink) links, `0..=1`.
    pub core_utilization: f64,
    /// Flows admitted into the fabric.
    pub flows_started: u64,
    /// Flows that drained completely.
    pub flows_completed: u64,
    /// Bytes moved over the network (excludes machine-local transfers).
    pub network_bytes: f64,
    /// Bytes that crossed the rack-to-core boundary.
    pub cross_rack_bytes: f64,
    /// Planning cost, when the invoking CLI measured it (`None` for
    /// unplanned schedulers and for summaries built by the engine alone).
    pub planning: Option<PlanningCost>,
    /// Events evicted from a bounded trace ring (`MemTracer`), when the
    /// invoking CLI used one. Like [`RunSummary::planning`] this is
    /// stamped by the CLI, never by the engine: ring pressure is a host
    /// artifact, not part of the simulated run. Non-zero means any
    /// downstream trace analysis saw a truncated stream.
    pub trace_drops: Option<u64>,
}

fn pct(x: f64) -> f64 {
    100.0 * x
}

fn fmt_pctl(f: &mut fmt::Formatter<'_>, name: &str, p: &Option<Percentiles>) -> fmt::Result {
    match p {
        Some(p) => writeln!(
            f,
            "  {name:<22} p50 {:>9.3}s  p90 {:>9.3}s  p99 {:>9.3}s",
            p.p50, p.p90, p.p99
        ),
        None => writeln!(f, "  {name:<22} (no samples)"),
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run summary [{}]", self.scheduler)?;
        writeln!(
            f,
            "  makespan               {:.1}s   jobs {}/{} finished",
            self.makespan_s, self.jobs_finished, self.jobs
        )?;
        writeln!(
            f,
            "  tasks                  {} finished, {} killed",
            self.tasks_finished, self.tasks_killed
        )?;
        writeln!(
            f,
            "  slot utilization       {:.1}%",
            pct(self.slot_utilization)
        )?;
        writeln!(
            f,
            "  locality               machine {:.1}%  ≤rack {:.1}%  ({} machine / {} rack / {} remote / {} unconstrained)",
            pct(self.locality.machine_rate()),
            pct(self.locality.rack_or_better_rate()),
            self.locality.machine,
            self.locality.rack,
            self.locality.remote,
            self.locality.unconstrained,
        )?;
        fmt_pctl(f, "queueing delay", &self.queue_delay_s)?;
        fmt_pctl(f, "task duration", &self.task_duration_s)?;
        writeln!(
            f,
            "  network                {:.2} GB moved, {:.1}% cross-rack ({:.2} GB)",
            self.network_bytes / 1e9,
            pct(self.cross_rack_fraction),
            self.cross_rack_bytes / 1e9,
        )?;
        writeln!(
            f,
            "  link utilization       edge {:.1}%  core {:.1}%",
            pct(self.edge_utilization),
            pct(self.core_utilization)
        )?;
        writeln!(
            f,
            "  flows                  {} started, {} completed",
            self.flows_started, self.flows_completed
        )?;
        if let Some(p) = &self.planning {
            writeln!(
                f,
                "  planning               {:.3}s wall ({} candidates)",
                p.wall_s, p.candidates
            )?;
        }
        if let Some(d) = self.trace_drops {
            if d > 0 {
                writeln!(
                    f,
                    "  trace ring             {d} events dropped (truncated!)"
                )?;
            } else {
                writeln!(f, "  trace ring             0 events dropped")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> RunSummary {
        RunSummary {
            scheduler: "corral".into(),
            makespan_s: 1234.5,
            jobs: 10,
            jobs_finished: 10,
            tasks_finished: 400,
            tasks_killed: 3,
            slot_utilization: 0.62,
            locality: LocalityCounts {
                machine: 300,
                rack: 50,
                remote: 10,
                unconstrained: 43,
            },
            queue_delay_s: Some(Percentiles {
                p50: 0.5,
                p90: 2.0,
                p99: 9.0,
            }),
            task_duration_s: None,
            cross_rack_fraction: 0.25,
            edge_utilization: 0.4,
            core_utilization: 0.7,
            flows_started: 1200,
            flows_completed: 1200,
            network_bytes: 5e9,
            cross_rack_bytes: 1.25e9,
            planning: Some(PlanningCost {
                wall_s: 0.042,
                candidates: 1261,
            }),
            trace_drops: Some(17),
        }
    }

    #[test]
    fn locality_rates() {
        let l = summary().locality;
        assert_eq!(l.constrained(), 360);
        assert!((l.machine_rate() - 300.0 / 360.0).abs() < 1e-12);
        assert!((l.rack_or_better_rate() - 350.0 / 360.0).abs() < 1e-12);
        let empty = LocalityCounts::default();
        assert_eq!(empty.machine_rate(), 0.0);
    }

    #[test]
    fn display_mentions_headline_numbers() {
        let text = summary().to_string();
        assert!(text.contains("run summary [corral]"));
        assert!(text.contains("makespan               1234.5s"));
        assert!(text.contains("slot utilization       62.0%"));
        assert!(text.contains("25.0% cross-rack"));
        assert!(text.contains("queueing delay"));
        assert!(text.contains("(no samples)"));
        assert!(text.contains("1200 started, 1200 completed"));
        assert!(text.contains("planning               0.042s wall (1261 candidates)"));
        assert!(text.contains("trace ring             17 events dropped (truncated!)"));
    }

    #[test]
    fn trace_drops_line_is_quiet_when_unmeasured() {
        let mut s = summary();
        s.trace_drops = None;
        assert!(!s.to_string().contains("trace ring"));
        s.trace_drops = Some(0);
        assert!(s
            .to_string()
            .contains("trace ring             0 events dropped"));
    }
}
