//! Sim-time-weighted gauges. The engine keeps its run telemetry as
//! typed fields (a [`TimeWeightedGauge`] for busy slots, a
//! [`crate::LogHistogram`] per latency distribution, plain `u64`
//! counts); nothing here needs sharing or string keys.

/// A gauge integrated over simulation time: `set(t, v)` closes the
/// previous level at `t`, so `time_avg(end)` is the exact time-weighted
/// mean of the step function.
#[derive(Debug, Clone, Default)]
pub struct TimeWeightedGauge {
    started_at: Option<f64>,
    last_t: f64,
    last_v: f64,
    integral: f64,
    min: f64,
    max: f64,
}

impl TimeWeightedGauge {
    /// Sets the gauge to `v` at time `t` (times must be non-decreasing).
    pub fn set(&mut self, t: f64, v: f64) {
        match self.started_at {
            None => {
                self.started_at = Some(t);
                self.min = v;
                self.max = v;
            }
            Some(_) => {
                let dt = (t - self.last_t).max(0.0);
                self.integral += self.last_v * dt;
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
        }
        self.last_t = t;
        self.last_v = v;
    }

    /// Adds `delta` to the current level at time `t`.
    pub fn add(&mut self, t: f64, delta: f64) {
        let v = self.last_v + delta;
        self.set(t, v);
    }

    /// The current level.
    pub fn value(&self) -> f64 {
        self.last_v
    }

    /// Time-weighted mean over `[first_set, end_t]`, or `None` if the
    /// gauge was never set or the window is empty.
    pub fn time_avg(&self, end_t: f64) -> Option<f64> {
        let start = self.started_at?;
        let span = end_t - start;
        if span <= 0.0 {
            return Some(self.last_v);
        }
        let tail = (end_t - self.last_t).max(0.0);
        Some((self.integral + self.last_v * tail) / span)
    }

    /// Smallest level ever set.
    pub fn min(&self) -> Option<f64> {
        self.started_at.map(|_| self.min)
    }

    /// Largest level ever set.
    pub fn max(&self) -> Option<f64> {
        self.started_at.map(|_| self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_time_average_is_exact_for_steps() {
        let mut g = TimeWeightedGauge::default();
        g.set(0.0, 2.0); // level 2 over [0, 10)
        g.set(10.0, 4.0); // level 4 over [10, 20)
        assert_eq!(g.time_avg(20.0), Some(3.0));
        assert_eq!(g.min(), Some(2.0));
        assert_eq!(g.max(), Some(4.0));
        assert_eq!(g.value(), 4.0);
    }

    #[test]
    fn gauge_add_tracks_occupancy() {
        let mut g = TimeWeightedGauge::default();
        g.add(0.0, 1.0);
        g.add(5.0, 1.0);
        g.add(10.0, -2.0);
        // 1 over [0,5), 2 over [5,10), 0 after: avg over [0,10] = 1.5.
        let avg = g.time_avg(10.0).unwrap();
        assert!((avg - 1.5).abs() < 1e-12);
    }
}
