//! Multi-resolution mip pyramid over a [`Grid3`]: exact box aggregates
//! from a mixed-level walk.
//!
//! Each level halves every axis (ceiling division), and each coarse cell
//! stores the **sum**, **max**, **min** and **non-zero count** of the base
//! voxels it covers. Max, min and the count propagate *exactly* through
//! the reduction (`max` of `max`es is the true block max, bit-for-bit),
//! and the sum up to float rounding.
//!
//! [`MipPyramid::range_stats_into`] answers a box exactly. A cell the box
//! covers fully is read once, at the coarsest level where it is covered;
//! a cut cell sends the walk down to its children, and a cut cell at
//! level ≤ 2 folds its covered voxels directly. The visit is O(surface)
//! cells instead of O(volume) voxels; `max`, `min` and `nonzero` equal
//! the voxel fold's bit for bit, `sum` within [`rounding_slack`].
//!
//! Min is stored alongside max because `/region` reports it, and the walk
//! must answer it bit-identically to the voxel fold.
//!
//! The reduction is rayon-parallel over coarse T-planes; level ℓ is built
//! from level ℓ−1 so the whole pyramid costs a geometric series over the
//! base sweep (< 1/7 of the base volume in cells).

use crate::dims::GridDims;
use crate::grid3::Grid3;
use crate::range::VoxelRange;
use crate::scalar::Scalar;
use crate::stats::{range_stats_into, GridStats};
use rayon::prelude::*;

/// Cut cells at this level or finer fold their covered voxels instead of
/// recursing. On wide boxes of a 64×64×32 cube (2-vCPU VM), folding from
/// level 3 took ≈ 1.7× the walk time of level 2, and level 1 was no
/// faster than 2.
const FOLD_LEVEL: usize = 2;

/// Conservative allowance, per voxel and in the voxels' unit, for the
/// float-summation rounding of a `voxels`-value sum whose values are at
/// most `scale` in magnitude.
///
/// A sequential fold and the pyramid's tree summation both accumulate
/// with worst-case relative error `O(n·ε)`; `16·ε·(n + 64)·scale` covers
/// the gap between any two summation orders with headroom. A sum over
/// `n` voxels is within `rounding_slack(n, scale) · n` of any other.
pub fn rounding_slack(voxels: usize, scale: f64) -> f64 {
    16.0 * f64::EPSILON * (voxels as f64 + 64.0) * scale
}

/// Per-cell statistics of the base voxels a pyramid cell covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CellStats {
    /// Sum of covered base voxels (f64 tree summation).
    pub sum: f64,
    /// Exact maximum of covered base voxels.
    pub max: f64,
    /// Exact minimum of covered base voxels.
    pub min: f64,
    /// Exact count of covered base voxels that are not zero.
    pub nonzero: usize,
}

impl CellStats {
    /// Reduction identity (`sum = 0`, `max = −∞`, `min = +∞`, no voxels).
    pub const EMPTY: Self = Self {
        sum: 0.0,
        max: f64::NEG_INFINITY,
        min: f64::INFINITY,
        nonzero: 0,
    };

    /// The statistics of one base voxel.
    #[inline]
    fn voxel(v: f64) -> Self {
        Self {
            sum: v,
            max: v,
            min: v,
            nonzero: (v != 0.0) as usize,
        }
    }

    #[inline]
    fn absorb(&mut self, other: Self) {
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        self.nonzero += other.nonzero;
    }
}

/// One pyramid level: a coarse grid of [`CellStats`] in the same X-fastest
/// layout as [`Grid3`].
#[derive(Debug, Clone)]
pub(crate) struct PyramidLevel {
    level: u32,
    dims: GridDims,
    cells: Vec<CellStats>,
}

impl PyramidLevel {
    /// The cell at coarse coordinates `(cx, cy, ct)`.
    #[inline]
    fn cell(&self, cx: usize, cy: usize, ct: usize) -> &CellStats {
        &self.cells[self.dims.idx(cx, cy, ct)]
    }

    /// The base-voxel box a cell covers, clipped to the base grid.
    #[inline]
    fn cell_base_range(&self, base: GridDims, cx: usize, cy: usize, ct: usize) -> VoxelRange {
        let s = 1usize << self.level;
        VoxelRange {
            x0: cx * s,
            x1: ((cx + 1) * s).min(base.gx),
            y0: cy * s,
            y1: ((cy + 1) * s).min(base.gy),
            t0: ct * s,
            t1: ((ct + 1) * s).min(base.gt),
        }
    }
}

/// A mip pyramid: successive 2×2×2 (ceiling) reductions of a base grid
/// down to a single root cell.
#[derive(Debug, Clone)]
pub struct MipPyramid {
    base: GridDims,
    levels: Vec<PyramidLevel>,
}

impl MipPyramid {
    /// Build the full pyramid (levels `1..=L` until a `1×1×1` root) with a
    /// rayon-parallel reduction per level.
    ///
    /// A `1×1×1` base grid yields an empty pyramid (`levels() == 0`).
    pub fn build<S: Scalar>(grid: &Grid3<S>) -> Self {
        let base = grid.dims();
        let mut levels: Vec<PyramidLevel> = Vec::new();
        let mut child_dims = base;
        let mut level = 0u32;
        while child_dims.volume() > 1 {
            level += 1;
            let dims = halved(child_dims);
            let cells = match levels.last() {
                None => reduce_from(dims, child_dims, |x, y, t| {
                    CellStats::voxel(grid.get(x, y, t).to_f64())
                }),
                Some(prev) => {
                    let (pc, pd) = (&prev.cells, prev.dims);
                    reduce_from(dims, child_dims, |x, y, t| pc[pd.idx(x, y, t)])
                }
            };
            levels.push(PyramidLevel { level, dims, cells });
            child_dims = dims;
        }
        Self { base, levels }
    }

    /// Number of levels, `L` (the coarsest usable level index).
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Heap bytes held by all levels (the resident-bytes gauge).
    pub fn heap_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.cells.capacity() * std::mem::size_of::<CellStats>())
            .sum()
    }

    /// Fold the exact aggregates of box `r` of `grid` — the grid this
    /// pyramid was built from — into `acc`, continuing its running
    /// `sum`/`max`/`min`/`nonzero` like [`range_stats_into`]; `total` is
    /// left to the caller. `r` must be non-empty and inside the grid.
    ///
    /// `max`, `min` and `nonzero` come out bit-identical to
    /// [`range_stats_into`] over the same box; `sum` differs only in
    /// summation order, within [`rounding_slack`].
    pub fn range_stats_into<S: Scalar>(&self, grid: &Grid3<S>, r: VoxelRange, acc: &mut GridStats) {
        debug_assert_eq!(grid.dims(), self.base, "pyramid built from another grid");
        let top = self.levels();
        if top <= FOLD_LEVEL {
            range_stats_into(grid, r, acc);
        } else {
            self.walk(grid, top, cells_under(r, top), r, acc);
        }
    }

    /// Visit the cells `span` (coarse coordinates, each intersecting `r`)
    /// of level `l`: read the covered ones, descend into the cut ones.
    fn walk<S: Scalar>(
        &self,
        grid: &Grid3<S>,
        l: usize,
        span: VoxelRange,
        r: VoxelRange,
        acc: &mut GridStats,
    ) {
        let lvl = &self.levels[l - 1];
        let children = cells_under(r, l - 1);
        for ct in span.t0..span.t1 {
            for cy in span.y0..span.y1 {
                for cx in span.x0..span.x1 {
                    let bounds = lvl.cell_base_range(self.base, cx, cy, ct);
                    let cut = bounds.intersect(r);
                    if cut == bounds {
                        let c = lvl.cell(cx, cy, ct);
                        acc.sum += c.sum;
                        acc.max = acc.max.max(c.max);
                        acc.min = acc.min.min(c.min);
                        acc.nonzero += c.nonzero;
                    } else if l <= FOLD_LEVEL {
                        range_stats_into(grid, cut, acc);
                    } else {
                        let own = VoxelRange {
                            x0: 2 * cx,
                            x1: 2 * cx + 2,
                            y0: 2 * cy,
                            y1: 2 * cy + 2,
                            t0: 2 * ct,
                            t1: 2 * ct + 2,
                        };
                        self.walk(grid, l - 1, own.intersect(children), r, acc);
                    }
                }
            }
        }
    }
}

/// The level-`l` cells that intersect the non-empty base box `r`, as a
/// box of coarse coordinates.
fn cells_under(r: VoxelRange, l: usize) -> VoxelRange {
    VoxelRange {
        x0: r.x0 >> l,
        x1: ((r.x1 - 1) >> l) + 1,
        y0: r.y0 >> l,
        y1: ((r.y1 - 1) >> l) + 1,
        t0: r.t0 >> l,
        t1: ((r.t1 - 1) >> l) + 1,
    }
}

/// Ceiling-halved dimensions (axes saturate at 1).
fn halved(d: GridDims) -> GridDims {
    GridDims::new(d.gx.div_ceil(2), d.gy.div_ceil(2), d.gt.div_ceil(2))
}

/// Reduce a child layer (grid voxels or a finer level) into coarse cells,
/// parallel over coarse T-planes.
fn reduce_from(
    dims: GridDims,
    child: GridDims,
    fetch: impl Fn(usize, usize, usize) -> CellStats + Sync,
) -> Vec<CellStats> {
    let plane = dims.gx * dims.gy;
    let mut cells = vec![CellStats::EMPTY; dims.volume()];
    cells
        .par_chunks_mut(plane)
        .enumerate()
        .for_each(|(ct, out)| {
            let (t0, t1) = (ct * 2, (ct * 2 + 2).min(child.gt));
            for cy in 0..dims.gy {
                let (y0, y1) = (cy * 2, (cy * 2 + 2).min(child.gy));
                for cx in 0..dims.gx {
                    let (x0, x1) = (cx * 2, (cx * 2 + 2).min(child.gx));
                    let mut acc = CellStats::EMPTY;
                    for t in t0..t1 {
                        for y in y0..y1 {
                            for x in x0..x1 {
                                acc.absorb(fetch(x, y, t));
                            }
                        }
                    }
                    out[cy * dims.gx + cx] = acc;
                }
            }
        });
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::range_stats;
    use proptest::prelude::*;

    fn filled_grid(dims: GridDims, f: impl Fn(usize) -> f64) -> Grid3<f64> {
        let mut g = Grid3::zeros(dims);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            *v = f(i);
        }
        g
    }

    fn brute_cell(g: &Grid3<f64>, r: VoxelRange) -> CellStats {
        let mut acc = CellStats::EMPTY;
        for (x, y, t) in r.iter() {
            acc.absorb(CellStats::voxel(g.get(x, y, t)));
        }
        acc
    }

    /// Deterministic pseudo-random values in `[-50, 50)`, a third of them
    /// zero, so `min`, `max` and `nonzero` all have something to get wrong.
    fn mixed_grid(dims: GridDims, seed: u64) -> Grid3<f64> {
        filled_grid(dims, |i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed.wrapping_mul(7919));
            if (h >> 20).is_multiple_of(3) {
                0.0
            } else {
                ((h >> 32) % 1000) as f64 / 10.0 - 50.0
            }
        })
    }

    #[test]
    fn level_count_reaches_root() {
        let g: Grid3<f64> = Grid3::zeros(GridDims::new(64, 64, 32));
        let p = MipPyramid::build(&g);
        assert_eq!(p.levels(), 6);
        assert_eq!(p.levels[5].dims, GridDims::new(1, 1, 1));
        assert!(p.heap_bytes() > 0);
    }

    #[test]
    fn unit_grid_has_no_levels() {
        let g: Grid3<f32> = Grid3::zeros(GridDims::new(1, 1, 1));
        let p = MipPyramid::build(&g);
        assert_eq!(p.levels(), 0);
        assert!(p.levels.is_empty());
    }

    #[test]
    fn root_max_min_are_exact() {
        let g = filled_grid(GridDims::new(13, 7, 5), |i| ((i * 37) % 101) as f64 - 50.0);
        let p = MipPyramid::build(&g);
        let root = p.levels.last().unwrap().cells[0];
        let s = range_stats(&g, VoxelRange::full(g.dims()));
        assert_eq!(root.max, s.max);
        assert_eq!(root.min, s.min);
        assert!((root.sum - s.sum).abs() <= 1e-9 * s.sum.abs().max(1.0));
    }

    proptest! {
        #[test]
        fn cells_match_brute_force(
            gx in 1usize..20, gy in 1usize..20, gt in 1usize..12,
            seed in 0u64..1000
        ) {
            let dims = GridDims::new(gx, gy, gt);
            // Deterministic pseudo-random values, sign-mixed to exercise min.
            let g = mixed_grid(dims, seed);
            let p = MipPyramid::build(&g);
            prop_assert!(p.levels() >= 1 || dims.volume() == 1);
            for lvl in &p.levels {
                for (cx, cy, ct) in lvl.dims.iter() {
                    let r = lvl.cell_base_range(dims, cx, cy, ct);
                    prop_assert!(!r.is_empty());
                    let b = brute_cell(&g, r);
                    let c = lvl.cell(cx, cy, ct);
                    prop_assert_eq!(c.max, b.max);
                    prop_assert_eq!(c.min, b.min);
                    prop_assert_eq!(c.nonzero, b.nonzero);
                    let tol = 1e-9 * b.sum.abs().max(1.0);
                    prop_assert!((c.sum - b.sum).abs() <= tol);
                }
            }
        }

        #[test]
        fn walk_matches_brute_force(
            gx in 1usize..40, gy in 1usize..40, gt in 1usize..24,
            x0 in 0usize..40, xw in 1usize..40,
            y0 in 0usize..40, yw in 1usize..40,
            t0 in 0usize..24, tw in 1usize..24,
            seed in 0u64..500
        ) {
            let dims = GridDims::new(gx, gy, gt);
            let g = mixed_grid(dims, seed);
            let p = MipPyramid::build(&g);
            let random = VoxelRange { x0, x1: x0 + xw, y0, y1: y0 + yw, t0, t1: t0 + tw }
                .clipped(dims);
            let (vx, vy, vt) = (x0 % gx, y0 % gy, t0 % gt);
            let voxel = VoxelRange { x0: vx, x1: vx + 1, y0: vy, y1: vy + 1, t0: vt, t1: vt + 1 };
            for r in [VoxelRange::full(dims), voxel, random] {
                if r.is_empty() {
                    continue;
                }
                let want = range_stats(&g, r);
                let mut got = GridStats {
                    sum: 0.0,
                    max: f64::NEG_INFINITY,
                    min: f64::INFINITY,
                    nonzero: 0,
                    total: want.total,
                };
                p.range_stats_into(&g, r, &mut got);
                prop_assert_eq!(got.max.to_bits(), want.max.to_bits(), "max over {:?}", r);
                prop_assert_eq!(got.min.to_bits(), want.min.to_bits(), "min over {:?}", r);
                prop_assert_eq!(got.nonzero, want.nonzero, "nonzero over {:?}", r);
                prop_assert_eq!(got.total, want.total);
                let scale = want.max.abs().max(want.min.abs());
                let allowed = rounding_slack(want.total, scale) * want.total as f64;
                prop_assert!((got.sum - want.sum).abs() <= allowed,
                    "sum over {:?}: walk {} fold {} allowed {}", r, got.sum, want.sum, allowed);
            }
        }
    }
}
