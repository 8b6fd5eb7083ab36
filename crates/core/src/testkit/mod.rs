//! Test kit: the gold standards every faster variant is proven against.
//!
//! The paper proves each optimized algorithm against a simpler one that
//! computes the same density; these are the simpler ones. The product
//! builds without them: the `testkit` feature compiles this module, and
//! only `[dev-dependencies]` turn that feature on, so `cargo test` sees
//! it and `cargo build` does not.
//!
//! * [`IncrementalStkde`] — one full grid under insertions and removals,
//!   which the serve tier's [`crate::ShardedWindowStkde`] equals bit for
//!   bit after any history;
//! * [`pb_sym`] — sequential `PB-SYM` (paper Algorithm 3), the reference
//!   of the parallel variants, the sparse backend and the distributed
//!   extension;
//! * [`sparse_run_par_slabs`] — the block-sparse parallel path with its
//!   slab count forced, so multi-slab execution is exercised on any host.

mod incremental;

pub use incremental::IncrementalStkde;

use crate::error::StkdeError;
use crate::problem::Problem;
use crate::timing::PhaseTimings;
use stkde_data::Point;
use stkde_grid::{Grid3, Scalar, SparseGrid3};
use stkde_kernels::SpaceTimeKernel;

/// Sequential `PB-SYM` over `points`: the density grid and its phase
/// timings.
pub fn pb_sym<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
) -> (Grid3<S>, PhaseTimings) {
    crate::algorithms::pb_sym::run(problem, kernel, points)
}

/// [`crate::sparse::run_par`] with an explicit slab count, so tests can
/// force multi-slab execution (and boundary-straddling brick races) on
/// hosts where the adaptive count would collapse to one slab.
pub fn sparse_run_par_slabs<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    threads: usize,
    nslabs: usize,
) -> Result<(SparseGrid3<S>, PhaseTimings), StkdeError> {
    crate::sparse::run_par_slabs(problem, kernel, points, threads, nslabs)
}
