//! Latency/bandwidth communication cost model.
//!
//! The substrate runs ranks as threads on one host, so measured wall-clock
//! says little about a real cluster. Instead, each rank's *accounted*
//! traffic ([`RankStats`]) is priced with the classic postal model
//! `T = msgs·α + bytes·β` and combined with the rank's measured compute
//! time to yield a modeled makespan — the same measured-work-plus-model
//! methodology the paper uses for its Graham-bound analysis (§5.2).

use crate::world::RankStats;

/// Postal-model network parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCost {
    /// Per-message latency α in seconds (includes header/software
    /// overhead).
    pub latency: f64,
    /// Per-byte transfer time β in seconds (1 / bandwidth).
    pub inv_bandwidth: f64,
}

impl CommCost {
    /// 10 Gb/s Ethernet with ~10 µs end-to-end latency.
    pub const ETHERNET_10G: Self = Self {
        latency: 10e-6,
        inv_bandwidth: 1.0 / 1.25e9,
    };

    /// HDR InfiniBand-class fabric: ~1 µs latency, ~25 GB/s.
    pub const INFINIBAND: Self = Self {
        latency: 1e-6,
        inv_bandwidth: 1.0 / 25e9,
    };

    /// A zero-cost network (upper bound: perfect interconnect).
    pub const FREE: Self = Self {
        latency: 0.0,
        inv_bandwidth: 0.0,
    };

    /// Seconds this rank spends communicating under the model. Sends and
    /// receives are both priced — a rank pays to inject and to drain.
    pub(crate) fn rank_time(&self, s: &RankStats) -> f64 {
        (s.msgs_sent + s.msgs_recv) as f64 * self.latency
            + (s.bytes_sent + s.bytes_recv) as f64 * self.inv_bandwidth
    }
}

/// A modeled distributed execution: measured per-rank compute plus priced
/// per-rank communication.
#[derive(Debug, Clone)]
pub struct ModeledRun {
    /// Measured compute seconds per rank.
    pub compute: Vec<f64>,
    /// Modeled communication seconds per rank.
    pub comm: Vec<f64>,
}

impl ModeledRun {
    /// Price a run from measured compute times and accounted traffic.
    ///
    /// # Panics
    /// Panics if the slices disagree in length.
    pub fn price(compute: Vec<f64>, stats: &[RankStats], cost: CommCost) -> Self {
        assert_eq!(compute.len(), stats.len(), "one compute time per rank");
        let comm = stats.iter().map(|s| cost.rank_time(s)).collect();
        Self { compute, comm }
    }

    /// Modeled makespan: the slowest rank's compute + comm total.
    ///
    /// Bulk-synchronous view (compute phase, then exchange phase), which
    /// matches how the distributed STKDE algorithms are structured.
    pub fn makespan(&self) -> f64 {
        self.compute
            .iter()
            .zip(&self.comm)
            .map(|(&c, &m)| c + m)
            .fold(0.0, f64::max)
    }

    /// Modeled speedup against a sequential reference time.
    pub fn speedup(&self, sequential: f64) -> f64 {
        let m = self.makespan();
        if m == 0.0 {
            0.0
        } else {
            sequential / m
        }
    }

    /// Load imbalance of the compute phase: max/mean (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        if self.compute.is_empty() {
            return 1.0;
        }
        let max = self.compute.iter().fold(0.0f64, |a, &b| a.max(b));
        let mean = self.compute.iter().sum::<f64>() / self.compute.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(msgs: usize, bytes: usize) -> RankStats {
        RankStats {
            msgs_sent: msgs,
            bytes_sent: bytes,
            ..RankStats::default()
        }
    }

    #[test]
    fn postal_model_prices_messages_and_bytes() {
        let c = CommCost {
            latency: 1e-3,
            inv_bandwidth: 1e-6,
        };
        let t = c.rank_time(&stats(10, 1000));
        assert!((t - (10.0 * 1e-3 + 1000.0 * 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn free_network_costs_nothing() {
        assert_eq!(CommCost::FREE.rank_time(&stats(1000, 1 << 30)), 0.0);
    }

    #[test]
    fn infiniband_beats_ethernet() {
        let s = stats(100, 10_000_000);
        assert!(CommCost::INFINIBAND.rank_time(&s) < CommCost::ETHERNET_10G.rank_time(&s));
    }

    #[test]
    fn makespan_is_max_rank_total() {
        let run = ModeledRun {
            compute: vec![1.0, 2.0, 0.5],
            comm: vec![0.5, 0.1, 0.2],
        };
        assert!((run.makespan() - 2.1).abs() < 1e-12);
        assert!((run.speedup(4.2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn price_combines_measured_and_modeled() {
        let run = ModeledRun::price(
            vec![1.0, 1.0],
            &[stats(0, 0), stats(1, 0)],
            CommCost {
                latency: 0.5,
                inv_bandwidth: 0.0,
            },
        );
        assert!((run.makespan() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_even_load_is_one() {
        let run = ModeledRun {
            compute: vec![2.0, 2.0, 2.0],
            comm: vec![0.0; 3],
        };
        assert!((run.imbalance() - 1.0).abs() < 1e-12);
        let skew = ModeledRun {
            compute: vec![4.0, 1.0, 1.0],
            comm: vec![0.0; 3],
        };
        assert!(skew.imbalance() > 1.9);
    }

    #[test]
    #[should_panic(expected = "one compute time per rank")]
    fn price_length_mismatch_panics() {
        let _ = ModeledRun::price(vec![1.0], &[], CommCost::FREE);
    }
}
