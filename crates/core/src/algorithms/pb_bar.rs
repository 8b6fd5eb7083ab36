//! `PB-BAR` — point-based with the temporal invariant hoisted (paper §3.2).
//!
//! The temporal factor `Kt[T]` does not depend on `(X, Y)`, so it is
//! computed once per time layer instead of once per voxel. Complementary to
//! `PB-DISK`; the bar is only `2Ht+1` long while the disk has `(2Hs+1)²`
//! entries, which is why the paper finds PB-BAR's gain more modest.

use crate::kernel_apply::PointKernel;
use crate::problem::Problem;
use crate::timing::PhaseTimings;
use stkde_data::Point;
use stkde_grid::{Grid3, Scalar};
use stkde_kernels::SpaceTimeKernel;

/// Run `PB-BAR`.
pub(crate) fn run<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
) -> (Grid3<S>, PhaseTimings) {
    super::pb::run_with(PointKernel::Bar, problem, kernel, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_data::synth;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    #[test]
    fn matches_pb() {
        let domain = Domain::from_dims(GridDims::new(12, 16, 10));
        let problem = Problem::new(domain, Bandwidth::new(2.0, 3.0), 15);
        let points = synth::uniform(15, domain.extent(), 4).into_vec();
        let (bar, _) = run::<f64, _>(&problem, &Epanechnikov, &points);
        let (pb, _) = super::super::pb::run::<f64, _>(&problem, &Epanechnikov, &points);
        assert!(pb.max_rel_diff(&bar, 1e-14) < 1e-10);
    }
}
