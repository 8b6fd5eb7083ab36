//! `PB` — the point-based algorithm (paper Algorithm 2, §3.1).
//!
//! Instead of asking "which points affect this voxel?", each point scatters
//! its own density cylinder: complexity drops from `Θ(Gx·Gy·Gt·n)` to
//! `Θ(Gx·Gy·Gt + n·Hs²·Ht)` — initialization plus per-point work, the two
//! terms whose balance drives everything in the paper's evaluation.

use crate::kernel_apply::{apply_points_seq, PointKernel};
use crate::problem::Problem;
use crate::timing::{PhaseTimings, Stopwatch};
use stkde_data::Point;
use stkde_grid::{Grid3, Scalar, VoxelRange};
use stkde_kernels::SpaceTimeKernel;

/// Run `PB`.
pub(crate) fn run<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
) -> (Grid3<S>, PhaseTimings) {
    run_with(PointKernel::Plain, problem, kernel, points)
}

/// Shared driver for the four sequential point-based variants.
pub(crate) fn run_with<S: Scalar, K: SpaceTimeKernel>(
    which: PointKernel,
    problem: &Problem,
    kernel: &K,
    points: &[Point],
) -> (Grid3<S>, PhaseTimings) {
    let mut sw = Stopwatch::start();
    let dims = problem.domain.dims();
    let mut grid = Grid3::zeros_touched(dims);
    let init = sw.lap();
    apply_points_seq(
        which,
        &mut grid,
        problem,
        kernel,
        points,
        VoxelRange::full(dims),
    );
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

    #[test]
    fn boundary_points_are_clipped_not_dropped() {
        let domain = Domain::from_dims(GridDims::new(10, 10, 10));
        let problem = Problem::new(domain, Bandwidth::new(3.0, 3.0), 1);
        // A point in the corner voxel: its cylinder extends outside the
        // grid and must be clipped.
        let points = [Point::new(0.1, 0.1, 0.1)];
        let (g, _) = run::<f64, _>(&problem, &Epanechnikov, &points);
        assert!(g.get(0, 0, 0) > 0.0);
        let mass: f64 = g.as_slice().iter().sum();
        // Clipping discards roughly 7/8 of the cylinder.
        assert!(mass < 0.6, "clipped mass should be well below 1: {mass}");
        assert!(mass > 0.0);
    }

    #[test]
    fn density_sums_points_independently() {
        let domain = Domain::from_dims(GridDims::new(20, 10, 10));
        let problem = Problem::new(domain, Bandwidth::new(2.0, 2.0), 2);
        let p1 = Point::new(5.0, 5.0, 5.0);
        let p2 = Point::new(15.0, 5.0, 5.0);
        let (both, _) = run::<f64, _>(&problem, &Epanechnikov, &[p1, p2]);
        let (only1, _) = run::<f64, _>(&problem, &Epanechnikov, &[p1]);
        let (only2, _) = run::<f64, _>(&problem, &Epanechnikov, &[p2]);
        // With the same n=2 normalization, densities superpose.
        let mut sum = only1.clone();
        for (o, (&a, &b)) in sum
            .as_mut_slice()
            .iter_mut()
            .zip(only1.as_slice().iter().zip(only2.as_slice()))
        {
            *o = a + b;
        }
        // only1/only2 were computed with norm 1/(2·hs²·ht) via problem.n=2.
        assert!(both.max_abs_diff(&sum) < 1e-12);
    }
}
