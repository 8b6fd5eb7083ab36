//! `PB-DISK` — point-based with the spatial invariant hoisted (paper §3.2).
//!
//! The spatial factor `Ks[X][Y]` of a point's contribution does not depend
//! on `T`, so it is computed once per point instead of once per voxel. The
//! temporal factor is still evaluated per voxel; `PB-SYM` removes that too.

use crate::kernel_apply::PointKernel;
use crate::problem::Problem;
use crate::timing::PhaseTimings;
use stkde_data::Point;
use stkde_grid::{Grid3, Scalar};
use stkde_kernels::SpaceTimeKernel;

/// Run `PB-DISK`.
pub(crate) fn run<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
) -> (Grid3<S>, PhaseTimings) {
    super::pb::run_with(PointKernel::Disk, problem, kernel, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_data::synth;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    #[test]
    fn matches_pb() {
        let domain = Domain::from_dims(GridDims::new(14, 14, 8));
        let problem = Problem::new(domain, Bandwidth::new(3.0, 2.0), 20);
        let points = synth::uniform(20, domain.extent(), 2).into_vec();
        let (disk, _) = run::<f64, _>(&problem, &Epanechnikov, &points);
        let (pb, _) = super::super::pb::run::<f64, _>(&problem, &Epanechnikov, &points);
        assert!(pb.max_rel_diff(&disk, 1e-14) < 1e-10);
    }
}
