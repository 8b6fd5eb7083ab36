//! `VB` — the voxel-based gold standard (paper Algorithm 1).
//!
//! For every voxel, scan *all* points, test the cylinder membership
//! (`d < hs`, `|Δt| ≤ ht`), and sum the kernel contributions. Complexity
//! `Θ(Gx·Gy·Gt·n)` — orders of magnitude slower than the point-based
//! algorithms (Table 3), but the semantics are the definition itself, which
//! is why every other algorithm is validated against it.

use crate::problem::Problem;
use crate::timing::{PhaseTimings, Stopwatch};
use stkde_data::Point;
use stkde_grid::{Grid3, Scalar};
use stkde_kernels::SpaceTimeKernel;

/// Run `VB`.
pub(crate) fn run<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
) -> (Grid3<S>, PhaseTimings) {
    let mut sw = Stopwatch::start();
    let dims = problem.domain.dims();
    let mut grid = Grid3::zeros_touched(dims);
    let init = sw.lap();

    let norm = problem.norm;
    for t in 0..dims.gt {
        let ct = problem.domain.voxel_center(0, 0, t)[2];
        for y in 0..dims.gy {
            let cy = problem.domain.voxel_center(0, y, 0)[1];
            for x in 0..dims.gx {
                let cx = problem.domain.voxel_center(x, 0, 0)[0];
                let mut sum = 0.0;
                for p in points {
                    let (u, v) = problem.uv(cx, cy, p);
                    let w = problem.w(ct, p);
                    // kernel.eval vanishes outside the support, realizing
                    // the `d < hs && |Δt| <= ht` test of Algorithm 1.
                    sum += kernel.eval(u, v, w);
                }
                if sum != 0.0 {
                    *grid.get_mut(x, y, t) = S::from_f64(sum * norm);
                }
            }
        }
    }
    let compute = sw.lap();
    (
        grid,
        PhaseTimings {
            init,
            compute,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    fn problem() -> Problem {
        Problem::new(
            Domain::from_dims(GridDims::new(10, 10, 6)),
            Bandwidth::new(2.0, 1.5),
            1,
        )
    }

    #[test]
    fn single_point_peak_at_its_voxel() {
        let problem = problem();
        let points = [Point::new(5.5, 5.5, 3.5)];
        let (g, t) = run::<f64, _>(&problem, &Epanechnikov, &points);
        let peak = g.get(5, 5, 3);
        assert!(peak > 0.0);
        for (x, y, tt) in g.dims().iter() {
            assert!(g.get(x, y, tt) <= peak + 1e-15);
        }
        assert!(t.total().as_nanos() > 0);
    }

    #[test]
    fn support_is_respected() {
        let problem = problem();
        let points = [Point::new(5.5, 5.5, 3.5)];
        let (g, _) = run::<f64, _>(&problem, &Epanechnikov, &points);
        // Voxel centers farther than hs in space or ht in time are zero.
        assert_eq!(g.get(0, 5, 3), 0.0); // 5 voxels away > hs = 2
        assert_eq!(g.get(5, 5, 0), 0.0); // 3 voxels away > ht = 1.5
    }

    #[test]
    fn two_identical_points_double_density() {
        let problem1 = problem();
        let p1 = [Point::new(5.5, 5.5, 3.5)];
        let (g1, _) = run::<f64, _>(&problem1, &Epanechnikov, &p1);
        let problem2 = Problem::new(problem1.domain, problem1.bw, 2);
        let p2 = [Point::new(5.5, 5.5, 3.5), Point::new(5.5, 5.5, 3.5)];
        let (g2, _) = run::<f64, _>(&problem2, &Epanechnikov, &p2);
        // Two coincident points with n=2 normalization give the same
        // density as one point with n=1.
        assert!(g1.max_abs_diff(&g2) < 1e-12);
    }
}
