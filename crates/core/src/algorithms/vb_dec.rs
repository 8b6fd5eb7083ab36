//! `VB-DEC` — voxel-based with point blocking (paper §6.2).
//!
//! The paper's improved voxel-based baseline: points are partitioned into
//! blocks of size equal to the bandwidth, so each voxel only computes
//! distances against points in the 3×3×3 neighborhood of blocks that could
//! possibly reach it. Still voxel-driven (and unable to exploit the kernel
//! symmetries), but one to two orders of magnitude faster than plain `VB`
//! (Table 3).

use crate::problem::Problem;
use crate::timing::{PhaseTimings, Stopwatch};
use stkde_data::Point;
use stkde_grid::{Grid3, Scalar};
use stkde_kernels::SpaceTimeKernel;

/// Run `VB-DEC`.
pub(crate) fn run<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
) -> (Grid3<S>, PhaseTimings) {
    let mut sw = Stopwatch::start();
    let dims = problem.domain.dims();
    let mut grid = Grid3::zeros_touched(dims);
    let init = sw.lap();

    // Block sizes equal the voxel bandwidths (min 1): any point affecting a
    // voxel lies in the voxel's own block or an adjacent one.
    let bs = problem.vbw.hs.max(1);
    let bt = problem.vbw.ht.max(1);
    let nbx = dims.gx.div_ceil(bs);
    let nby = dims.gy.div_ceil(bs);
    let nbt = dims.gt.div_ceil(bt);
    let block_of = |x: usize, y: usize, t: usize| (x / bs, y / bs, t / bt);
    let block_idx = |bx: usize, by: usize, bz: usize| (bz * nby + by) * nbx + bx;

    let mut blocks: Vec<Vec<u32>> = vec![Vec::new(); nbx * nby * nbt];
    for (i, p) in points.iter().enumerate() {
        let (x, y, t) = problem.domain.voxel_of(p.as_array());
        let (bx, by, bz) = block_of(x, y, t);
        blocks[block_idx(bx, by, bz)].push(i as u32);
    }
    let bin = sw.lap();

    let norm = problem.norm;
    let mut candidates: Vec<u32> = Vec::new();
    // Iterate voxels block by block so the candidate gather happens once
    // per block instead of once per voxel.
    for bz in 0..nbt {
        for by in 0..nby {
            for bx in 0..nbx {
                candidates.clear();
                for nz in bz.saturating_sub(1)..(bz + 2).min(nbt) {
                    for ny in by.saturating_sub(1)..(by + 2).min(nby) {
                        for nx in bx.saturating_sub(1)..(bx + 2).min(nbx) {
                            candidates.extend_from_slice(&blocks[block_idx(nx, ny, nz)]);
                        }
                    }
                }
                if candidates.is_empty() {
                    continue;
                }
                let (x0, x1) = (bx * bs, ((bx + 1) * bs).min(dims.gx));
                let (y0, y1) = (by * bs, ((by + 1) * bs).min(dims.gy));
                let (t0, t1) = (bz * bt, ((bz + 1) * bt).min(dims.gt));
                for t in t0..t1 {
                    let ct = problem.domain.voxel_center(0, 0, t)[2];
                    for y in y0..y1 {
                        let cy = problem.domain.voxel_center(0, y, 0)[1];
                        for x in x0..x1 {
                            let cx = problem.domain.voxel_center(x, 0, 0)[0];
                            let mut sum = 0.0;
                            for &pi in &candidates {
                                let p = &points[pi as usize];
                                let (u, v) = problem.uv(cx, cy, p);
                                let w = problem.w(ct, p);
                                sum += kernel.eval(u, v, w);
                            }
                            if sum != 0.0 {
                                *grid.get_mut(x, y, t) = S::from_f64(sum * norm);
                            }
                        }
                    }
                }
            }
        }
    }
    let compute = sw.lap();
    (
        grid,
        PhaseTimings {
            init,
            bin,
            compute,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_data::synth;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    #[test]
    fn matches_vb_on_random_points() {
        let domain = Domain::from_dims(GridDims::new(17, 13, 9));
        let problem = Problem::new(domain, Bandwidth::new(2.5, 1.5), 30);
        let points = synth::uniform(30, domain.extent(), 9).into_vec();
        let (dec, _) = run::<f64, _>(&problem, &Epanechnikov, &points);
        let (vb, _) = super::super::vb::run::<f64, _>(&problem, &Epanechnikov, &points);
        assert!(vb.max_rel_diff(&dec, 1e-14) < 1e-10);
    }

    #[test]
    fn block_coverage_when_bandwidth_exceeds_grid() {
        // Bandwidth larger than the whole grid: a single block, and every
        // voxel sees the point.
        let domain = Domain::from_dims(GridDims::new(5, 5, 5));
        let problem = Problem::new(domain, Bandwidth::new(50.0, 50.0), 1);
        let points = [stkde_data::Point::new(2.5, 2.5, 2.5)];
        let (g, _) = run::<f64, _>(&problem, &Epanechnikov, &points);
        assert!(g.as_slice().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn empty_regions_skipped_cheaply() {
        let domain = Domain::from_dims(GridDims::new(30, 30, 10));
        let problem = Problem::new(domain, Bandwidth::new(1.0, 1.0), 1);
        let points = [stkde_data::Point::new(0.5, 0.5, 0.5)];
        let (g, timings) = run::<f64, _>(&problem, &Epanechnikov, &points);
        assert!(g.get(0, 0, 0) > 0.0);
        assert!(g.get(29, 29, 9) == 0.0);
        assert!(timings.bin.as_nanos() > 0 || timings.bin.is_zero());
    }
}
