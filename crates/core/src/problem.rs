//! The shared description of one STKDE computation.

use stkde_data::Point;
use stkde_grid::{Bandwidth, Domain, VoxelBandwidth};

/// Everything an STKDE algorithm needs besides the points themselves:
/// the discretized domain, the bandwidths in both spaces, and the
/// normalization constant `1/(n·hs²·ht)`.
#[derive(Debug, Clone, Copy)]
pub struct Problem {
    /// The discretized computation domain.
    pub domain: Domain,
    /// World-space bandwidths.
    pub bw: Bandwidth,
    /// Voxel-space bandwidths (`Hs = ⌈hs/sres⌉`, `Ht = ⌈ht/tres⌉`).
    pub vbw: VoxelBandwidth,
    /// `1/(n·hs²·ht)`; zero when there are no points (the estimate is
    /// identically zero then, avoiding a division by zero).
    pub norm: f64,
    /// Number of events.
    pub n: usize,
}

impl Problem {
    /// Assemble a problem description.
    pub fn new(domain: Domain, bw: Bandwidth, n: usize) -> Self {
        let vbw = domain.voxel_bandwidth(bw);
        let norm = if n == 0 { 0.0 } else { bw.normalization(n) };
        Self {
            domain,
            bw,
            vbw,
            norm,
            n,
        }
    }

    /// Normalized spatial offsets `(u, v)` of a voxel center relative to a
    /// point.
    #[inline(always)]
    pub(crate) fn uv(&self, cx: f64, cy: f64, p: &Point) -> (f64, f64) {
        ((cx - p.x) / self.bw.hs, (cy - p.y) / self.bw.hs)
    }

    /// Normalized temporal offset `w` of a voxel center relative to a
    /// point.
    #[inline(always)]
    pub(crate) fn w(&self, ct: f64, p: &Point) -> f64 {
        (ct - p.t) / self.bw.ht
    }

    /// Estimated kernel work in voxel updates, `n · (2Hs+1)²(2Ht+1)`.
    pub fn compute_cost(&self) -> f64 {
        self.n as f64 * self.vbw.cylinder_box_volume() as f64
    }

    /// Estimated initialization work in voxel writes, `Gx·Gy·Gt`.
    pub fn init_cost(&self) -> f64 {
        self.domain.dims().volume() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_grid::GridDims;

    fn problem(n: usize) -> Problem {
        Problem::new(
            Domain::from_dims(GridDims::new(20, 20, 10)),
            Bandwidth::new(2.0, 1.0),
            n,
        )
    }

    #[test]
    fn norm_matches_formula() {
        let p = problem(10);
        assert!((p.norm - 1.0 / (10.0 * 4.0 * 1.0)).abs() < 1e-15);
        assert_eq!(p.vbw, VoxelBandwidth::new(2, 1));
    }

    #[test]
    fn zero_points_zero_norm() {
        assert_eq!(problem(0).norm, 0.0);
    }

    #[test]
    fn offsets() {
        let pr = problem(1);
        let p = Point::new(10.0, 10.0, 5.0);
        let (u, v) = pr.uv(11.0, 9.0, &p);
        assert!((u - 0.5).abs() < 1e-15);
        assert!((v + 0.5).abs() < 1e-15);
        assert!((pr.w(5.5, &p) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn costs() {
        let p = problem(10);
        assert_eq!(p.compute_cost(), 10.0 * 25.0 * 3.0);
        assert_eq!(p.init_cost(), 4000.0);
    }
}
