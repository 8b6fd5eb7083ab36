//! Offset-slab kernel application.
//!
//! Ranks own only a run of T-layers, so their local buffer is a [`Grid3`]
//! whose T axis starts at an *offset* into the global grid. This module
//! re-hosts the shared scatter engine (`kernel_apply`) onto such a buffer:
//! the same `PB-SYM` row walker and native-scalar `axpy` rows, with the T
//! index shifted by the slab offset.

use crate::kernel_apply::{scatter_rows, write_region, Scratch};
use crate::problem::Problem;
use stkde_data::Point;
use stkde_grid::{Grid3, Scalar, SharedGrid, VoxelRange};
use stkde_kernels::SpaceTimeKernel;

/// Scatter one point with `PB-SYM` into a slab buffer whose layer `l`
/// holds global layer `t_off + l`, restricted to the *global* clip range.
///
/// The clip must lie within the buffer: `clip.t0 >= t_off` and
/// `clip.t1 <= t_off + buffer layers` (debug-asserted).
pub(crate) fn apply_point_slab<S: Scalar, K: SpaceTimeKernel>(
    grid: &mut Grid3<S>,
    t_off: usize,
    problem: &Problem,
    kernel: &K,
    p: &Point,
    clip: VoxelRange,
    scratch: &mut Scratch<S>,
) {
    debug_assert!(clip.t0 >= t_off && clip.t1 <= t_off + grid.dims().gt);
    let r = write_region(problem, p, clip);
    if r.is_empty() {
        return;
    }
    let shared = SharedGrid::new(grid);
    // SAFETY: `grid` is exclusively borrowed for the duration of the
    // shared view and this call is the only writer — trivially race-free.
    unsafe {
        scatter_rows(&shared, t_off, problem, kernel, p, r, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pb_sym;
    use stkde_data::synth;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    #[test]
    fn offset_slab_matches_global_section() {
        let domain = Domain::from_dims(GridDims::new(20, 16, 24));
        let points = synth::uniform(30, domain.extent(), 5).into_vec();
        let problem = Problem::new(domain, Bandwidth::new(3.0, 4.0), points.len());
        let (global, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);

        // Compute layers [8, 16) in an offset buffer.
        let (t_off, t_end) = (8usize, 16usize);
        let mut slab: Grid3<f64> = Grid3::zeros(GridDims::new(20, 16, t_end - t_off));
        let clip = VoxelRange {
            t0: t_off,
            t1: t_end,
            ..VoxelRange::full(domain.dims())
        };
        let mut scratch = Scratch::default();
        for p in &points {
            apply_point_slab(
                &mut slab,
                t_off,
                &problem,
                &Epanechnikov,
                p,
                clip,
                &mut scratch,
            );
        }
        for t in t_off..t_end {
            for y in 0..16 {
                for x in 0..20 {
                    let a = global.get(x, y, t);
                    let b = slab.get(x, y, t - t_off);
                    assert!((a - b).abs() < 1e-12, "mismatch at ({x},{y},{t})");
                }
            }
        }
    }
}
