//! Planning objectives (§4.1).

use corral_model::SimTime;
use serde::{Deserialize, Serialize};

/// What the offline planner minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Batch scenario: minimize the time to finish *all* jobs.
    Makespan,
    /// Online scenario: minimize the mean of (completion − arrival).
    AvgCompletionTime,
}

impl Objective {
    /// Evaluates the objective over per-job `(arrival, finish)` pairs.
    /// Returns seconds (makespan) or mean seconds (average completion).
    pub fn evaluate(self, jobs: &[(SimTime, SimTime)]) -> f64 {
        self.evaluate_iter(jobs.iter().copied())
    }

    /// Evaluates the objective over a stream of `(arrival, finish)` pairs
    /// without materializing them. Arithmetic and accumulation order are
    /// identical to [`Objective::evaluate`] on the collected pairs, and to
    /// the planner's per-candidate fold, so all three are bit-equal for
    /// the same stream.
    pub fn evaluate_iter(self, jobs: impl Iterator<Item = (SimTime, SimTime)>) -> f64 {
        match self {
            Objective::Makespan => jobs.map(|(_, f)| f.as_secs()).fold(0.0, f64::max),
            Objective::AvgCompletionTime => {
                let mut sum = 0.0;
                let mut n = 0usize;
                for (a, f) in jobs {
                    sum += (f.as_secs() - a.as_secs()).max(0.0);
                    n += 1;
                }
                if n == 0 {
                    0.0
                } else {
                    sum / n as f64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_is_latest_finish() {
        let jobs = vec![
            (SimTime(0.0), SimTime(10.0)),
            (SimTime(5.0), SimTime(30.0)),
            (SimTime(0.0), SimTime(20.0)),
        ];
        assert_eq!(Objective::Makespan.evaluate(&jobs), 30.0);
    }

    #[test]
    fn avg_completion_subtracts_arrival() {
        let jobs = vec![
            (SimTime(0.0), SimTime(10.0)),
            (SimTime(10.0), SimTime(20.0)),
        ];
        assert_eq!(Objective::AvgCompletionTime.evaluate(&jobs), 10.0);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(Objective::Makespan.evaluate(&[]), 0.0);
        assert_eq!(Objective::AvgCompletionTime.evaluate(&[]), 0.0);
    }

    #[test]
    fn iter_matches_slice_bitwise() {
        let jobs = vec![
            (SimTime(0.3), SimTime(10.7)),
            (SimTime(5.1), SimTime(30.9)),
            (SimTime(0.0), SimTime(20.123)),
            (SimTime(19.0), SimTime(17.0)), // finish < arrival clamps to 0
        ];
        for obj in [Objective::Makespan, Objective::AvgCompletionTime] {
            let a = obj.evaluate(&jobs);
            let b = obj.evaluate_iter(jobs.iter().copied());
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
