//! Exact window-cube arithmetic: densities accumulated as `i64` counts
//! of one quantum.
//!
//! Both the serve tier's [`crate::ShardedWindowStkde`] and the test
//! kit's `IncrementalStkde` accumulate the *unnormalized* sum
//! `Σᵢ ks·kt / (hs²·ht)` and divide by the live point count only on
//! reads: the `1/n` factor in the estimator changes with every update,
//! but scaling at query time keeps updates O(cylinder).
//!
//! **Exactness.** Both cubes store every voxel as an `i64` count of one
//! quantum `q = 2^(⌈log₂ peak⌉ − 35)`, `peak` being one cylinder's
//! largest contribution: each update adds its contribution rounded to
//! the nearest quantum (`stkde_grid::axpy_row_quanta`, the pre-rounding
//! of reproducible summation, Demmel & Nguyen 2013). Integer sums are
//! exact in any order, so a removal cancels its insert bit for bit and
//! the cube equals a fresh batch insert of its live events. That holds
//! while fewer than `2²⁸` events are live ([`MAX_LIVE`], enforced): a
//! voxel then holds at most `2⁶³ − 2³⁵` quanta. Each contribution is
//! within `q/2` of its unrounded value, and every read converts once, to
//! `(n·q)·(1/live)`.

use crate::problem::Problem;
use stkde_grid::pyramid::CellStats;
use stkde_grid::{Bandwidth, Domain, GridStats};
#[cfg(any(test, feature = "testkit"))]
use stkde_grid::{Grid3, GridDims};
use stkde_kernels::SpaceTimeKernel;

/// Bits between one cylinder's peak contribution and the quantum `q`.
const QUANTUM_BITS: i32 = 35;

/// Most events a cube holds live: one event adds at most `2³⁵` quanta to
/// a voxel, and removals run before inserts, so every partial voxel sum
/// fits in `i64` (module docs).
pub(crate) const MAX_LIVE: usize = (1 << 28) - 1;
const _: () = assert!((MAX_LIVE as u128) << QUANTUM_BITS <= i64::MAX as u128);

/// `m / q` for the rounding constant `m = 1.5·2⁵²·q`.
const M_OVER_Q: f64 = (3u64 << 51) as f64;

/// The unit problem: the estimator's `1/n` stripped (`n = 1` leaves
/// exactly `1/(hs²·ht)` in the folded norm), signed for insertion (+1)
/// or removal (−1).
pub(crate) fn unit_problem(domain: Domain, bw: Bandwidth, sign: f64) -> Problem {
    let mut p = Problem::new(domain, bw, 1);
    p.norm *= sign;
    p
}

/// The rounding constant `1.5·2⁵²·q` of `stkde_grid::axpy_row_quanta`,
/// with `peak` the kernel's value at the origin on the unit problem.
pub(crate) fn rounding_constant<K: SpaceTimeKernel>(
    domain: Domain,
    bw: Bandwidth,
    kernel: &K,
) -> f64 {
    let peak = unit_problem(domain, bw, 1.0).norm * kernel.spatial(0.0, 0.0) * kernel.temporal(0.0);
    debug_assert!(peak.is_normal() && peak > 0.0, "kernel peak {peak}");
    // ⌈log₂ peak⌉: the binary exponent, plus one unless peak is a power of two.
    let bits = peak.to_bits();
    let ceil_log2 = (bits >> 52) as i32 - 1023 + i32::from(bits & ((1 << 52) - 1) != 0);
    let q = f64::from_bits(((ceil_log2 - QUANTUM_BITS + 1023) as u64) << 52);
    M_OVER_Q * q
}

/// Quanta to density, the one conversion every read makes: a voxel of
/// `n` quanta reads `(n·q)·(1/live)`, and zero when nothing is live.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    q: f64,
    inv_n: f64,
}

impl Scale {
    /// The scale of a cube written with rounding constant `m`.
    pub(crate) fn new(m: f64, live: usize) -> Self {
        let inv_n = if live == 0 { 0.0 } else { 1.0 / live as f64 };
        Self {
            q: m / M_OVER_Q,
            inv_n,
        }
    }

    /// The normalized density of `n` quanta.
    pub(crate) fn voxel(self, n: i64) -> f64 {
        (n as f64 * self.q) * self.inv_n
    }

    /// Normalized statistics of a box of `total` voxels folded into `c`.
    pub(crate) fn stats(self, c: CellStats, total: usize) -> GridStats {
        if total == 0 {
            return GridStats {
                sum: 0.0,
                max: f64::NEG_INFINITY,
                min: f64::INFINITY,
                nonzero: 0,
                total,
            };
        }
        GridStats {
            sum: (c.sum as f64 * self.q) * self.inv_n,
            max: self.voxel(c.max),
            min: self.voxel(c.min),
            nonzero: c.nonzero,
            total,
        }
    }

    /// Slabs stacked in T order as one grid of unnormalized values `n·q`
    /// (the conformance view the tests compare bit for bit).
    #[cfg(any(test, feature = "testkit"))]
    pub(crate) fn values<'a>(
        self,
        dims: GridDims,
        slabs: impl Iterator<Item = &'a Grid3<i64>>,
    ) -> Grid3<f64> {
        let data = slabs.flat_map(Grid3::as_slice);
        Grid3::from_vec(dims, data.map(|&n| n as f64 * self.q).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_kernels::Epanechnikov;

    fn domain() -> Domain {
        Domain::from_dims(GridDims::new(24, 20, 16))
    }

    #[test]
    fn quantum_sits_35_bits_below_the_peak() {
        for (hs, ht) in [(3.0, 2.0), (0.7, 5.0), (1000.0, 7.0)] {
            let bw = Bandwidth::new(hs, ht);
            let m = rounding_constant(domain(), bw, &Epanechnikov);
            let q = m / (3u64 << 51) as f64;
            assert_eq!(q.to_bits() & ((1 << 52) - 1), 0, "q must be a power of two");
            let peak = Problem::new(domain(), bw, 1).norm
                * Epanechnikov.spatial(0.0, 0.0)
                * Epanechnikov.temporal(0.0);
            let ratio = peak / q;
            assert!(ratio > (1u64 << 34) as f64 && ratio <= (1u64 << 35) as f64);
        }
        assert_eq!(MAX_LIVE, 268_435_455);
    }
}
