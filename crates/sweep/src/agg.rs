//! Cross-cell aggregation: the statistics a seed-pooled experiment
//! reports per configuration.
//!
//! Everything here is deterministic given the input slice — sorting is
//! by `f64::total_cmp` and the percentile rule is the workspace's one
//! linear interpolation, [`corral_trace::percentile`] — so aggregated
//! tables are as reproducible as the per-cell results feeding them.

use corral_trace::percentile;

/// Summary statistics of one metric across sweep cells (typically one
/// value per seed).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub std: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Half-width of the normal-approximation 95% confidence interval
    /// of the mean: `1.96 · std / √n` (0 for n ≤ 1). With seed pools of
    /// 8–16 this is an approximation, not a t-interval — it is reported
    /// as a stability gauge, not a significance test.
    pub ci95: f64,
}

impl Summary {
    /// Summarizes `values` (need not be sorted). Empty input yields the
    /// all-zero summary with `n == 0`.
    pub fn of(values: &[f64]) -> Summary {
        let n = values.len();
        if n == 0 {
            return Summary {
                n: 0,
                mean: 0.0,
                std: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                ci95: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let std = if n > 1 {
            let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            std,
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            p99: percentile(&sorted, 99.0),
            ci95: if n > 1 {
                1.96 * std / (n as f64).sqrt()
            } else {
                0.0
            },
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:.1} ±{:.1} | p50 {:.1} p90 {:.1} p99 {:.1} (n={})",
            self.mean, self.ci95, self.p50, self.p90, self.p99, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[4.0, 2.0, 1.0, 3.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.p50 - 2.5).abs() < 1e-12);
        // std of {1,2,3,4} with n-1: sqrt(5/3)
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((s.ci95 - 1.96 * s.std / 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Summary::of(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean, 0.0);
        let one = Summary::of(&[7.0]);
        assert_eq!(one.n, 1);
        assert_eq!(one.mean, 7.0);
        assert_eq!(one.p99, 7.0);
        assert_eq!(one.std, 0.0);
        assert_eq!(one.ci95, 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&sorted, 0.0), 10.0);
        assert_eq!(percentile(&sorted, 50.0), 30.0);
        assert_eq!(percentile(&sorted, 100.0), 50.0);
        assert!((percentile(&sorted, 90.0) - 46.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_compact() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        let text = format!("{s}");
        assert!(text.contains("mean 2.0"), "{text}");
        assert!(text.contains("n=3"), "{text}");
    }
}
