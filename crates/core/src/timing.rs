//! Phase-level timing of STKDE runs.

use std::time::{Duration, Instant};

/// Wall-clock breakdown of one STKDE computation into the paper's phases:
/// memory initialization, point binning, kernel computation, and reduction
/// (Figure 7 plots the init/compute split; DR adds the reduce phase; DD/PD
/// add the bin phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Grid (and replica) allocation + zeroing.
    pub init: Duration,
    /// Binning points into subdomains (zero for undecomposed algorithms).
    pub bin: Duration,
    /// Kernel density computation proper.
    pub compute: Duration,
    /// Reduction of replicated grids (zero when nothing is replicated).
    pub reduce: Duration,
}

impl PhaseTimings {
    /// Total wall-clock time across phases.
    pub fn total(&self) -> Duration {
        self.init + self.bin + self.compute + self.reduce
    }

    /// Fraction of the total spent in initialization (the quantity that
    /// dominates the sparse Flu instances in Figure 7).
    pub fn init_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.init.as_secs_f64() / total
        }
    }
}

impl std::fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "init {:.3}s | bin {:.3}s | compute {:.3}s | reduce {:.3}s | total {:.3}s",
            self.init.as_secs_f64(),
            self.bin.as_secs_f64(),
            self.compute.as_secs_f64(),
            self.reduce.as_secs_f64(),
            self.total().as_secs_f64()
        )
    }
}

/// A simple phase stopwatch.
#[derive(Debug)]
pub(crate) struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing.
    pub(crate) fn start() -> Self {
        Self(Instant::now())
    }

    /// Elapsed time since start (or last lap) and restart.
    pub(crate) fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.0;
        self.0 = now;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_phases() {
        let t = PhaseTimings {
            init: Duration::from_millis(10),
            bin: Duration::from_millis(5),
            compute: Duration::from_millis(80),
            reduce: Duration::from_millis(5),
        };
        assert_eq!(t.total(), Duration::from_millis(100));
        assert!((t.init_fraction() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn zero_timings() {
        let t = PhaseTimings::default();
        assert_eq!(t.total(), Duration::ZERO);
        assert_eq!(t.init_fraction(), 0.0);
    }

    #[test]
    fn stopwatch_laps_monotonic() {
        let mut sw = Stopwatch::start();
        let a = sw.lap();
        let b = sw.lap();
        assert!(a >= Duration::ZERO && b >= Duration::ZERO);
    }

    #[test]
    fn display_contains_phases() {
        let s = PhaseTimings::default().to_string();
        assert!(s.contains("init") && s.contains("compute"));
    }
}
