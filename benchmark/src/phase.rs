//! What one part of a run did, for rates and CPU cost.

use crate::report::Measured;
use crate::stats;

/// Work completed over a stretch of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Part {
    pub seconds: f64,
    pub items: f64,
    /// CPU seconds the system under test used meanwhile.
    pub cpu_s: f64,
}

/// Items per second: the median of the per-part rates.
pub fn throughput(parts: &[Part]) -> Measured {
    let rates: Vec<f64> = parts.iter().map(|p| p.items / p.seconds).collect();
    Measured::new(stats::median(&rates), rates.len())
}

/// CPU microseconds per item: the median of the per-part costs.
pub fn cpu_us_per_item(parts: &[Part]) -> Measured {
    let costs: Vec<f64> = parts.iter().map(|p| p.cpu_s * 1e6 / p.items).collect();
    Measured::new(stats::median(&costs), costs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_part_does_not_move_the_median() {
        let part = |items: f64| Part {
            seconds: 10.0,
            items,
            cpu_s: 1.0,
        };
        let parts = [
            part(100.0),
            part(100.0),
            part(50.0),
            part(100.0),
            part(100.0),
        ];
        assert_eq!(throughput(&parts).value(), 10.0);
        assert_eq!(cpu_us_per_item(&parts).value(), 10_000.0);
    }
}
