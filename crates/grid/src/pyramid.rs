//! Multi-resolution mip pyramid over a [`Grid3<i64>`]: exact box
//! aggregates from a mixed-level walk.
//!
//! Each level halves every axis (ceiling division), and each coarse cell
//! stores the **sum**, **max**, **min** and **non-zero count** of the base
//! voxels it covers. The voxels are integers (the window cubes' quanta)
//! and sums are `i128`, so every aggregate propagates *exactly* through
//! the reduction, in any order.
//!
//! [`MipPyramid::range_stats_into`] answers a box exactly. A cell the box
//! covers fully is read once, at the coarsest level where it is covered;
//! a cut cell sends the walk down to its children, and a cut cell at
//! level ≤ 2 folds its covered voxels directly. The visit is O(surface)
//! cells instead of O(volume) voxels, and every field equals the voxel
//! fold's ([`CellStats::fold`]).
//!
//! Min is stored alongside max because `/region` reports it.
//!
//! The reduction is rayon-parallel over coarse T-planes; level ℓ is built
//! from level ℓ−1 so the whole pyramid costs a geometric series over the
//! base sweep (< 1/7 of the base volume in cells).

use crate::dims::GridDims;
use crate::grid3::Grid3;
use crate::range::VoxelRange;
use rayon::prelude::*;

/// Cut cells at this level or finer fold their covered voxels instead of
/// recursing. On wide boxes of a 64×64×32 cube (2-vCPU VM), folding from
/// level 3 took ≈ 1.7× the walk time of level 2, and level 1 was no
/// faster than 2.
const FOLD_LEVEL: usize = 2;

/// Exact aggregates of a set of `i64` voxels: a pyramid cell, or the
/// running accumulator of a box read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellStats {
    /// Sum of the voxels: a slab's total passes `2⁶³` quanta at about
    /// `2¹⁸` live events.
    pub sum: i128,
    /// Maximum voxel (`i64::MIN` when empty).
    pub max: i64,
    /// Minimum voxel (`i64::MAX` when empty).
    pub min: i64,
    /// Count of voxels that are not zero.
    pub nonzero: usize,
}

impl CellStats {
    /// Reduction identity (no voxels).
    pub const EMPTY: Self = Self {
        sum: 0,
        max: i64::MIN,
        min: i64::MAX,
        nonzero: 0,
    };

    /// The statistics of one voxel.
    #[inline]
    fn voxel(v: i64) -> Self {
        Self {
            sum: v.into(),
            max: v,
            min: v,
            nonzero: (v != 0) as usize,
        }
    }

    #[inline]
    fn absorb(&mut self, other: Self) {
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        self.nonzero += other.nonzero;
    }

    /// Fold the voxels of box `r` (non-empty, inside `grid`).
    pub fn fold(&mut self, grid: &Grid3<i64>, r: VoxelRange) {
        for t in r.t0..r.t1 {
            for y in r.y0..r.y1 {
                for &v in grid.row(y, t, r.x0, r.x1) {
                    self.absorb(Self::voxel(v));
                }
            }
        }
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
    pub fn build(grid: &Grid3<i64>) -> Self {
        let base = grid.dims();
        let mut levels: Vec<PyramidLevel> = Vec::new();
        let mut child_dims = base;
        let mut level = 0u32;
        while child_dims.volume() > 1 {
            level += 1;
            let dims = halved(child_dims);
            let cells = match levels.last() {
                None => reduce_from(dims, child_dims, |x, y, t| {
                    CellStats::voxel(grid.get(x, y, t))
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

    /// Fold the aggregates of box `r` of `grid` — the grid this pyramid
    /// was built from — into `acc`, equal to [`CellStats::fold`] over the
    /// same box. `r` must be non-empty and inside the grid.
    pub fn range_stats_into(&self, grid: &Grid3<i64>, r: VoxelRange, acc: &mut CellStats) {
        debug_assert_eq!(grid.dims(), self.base, "pyramid built from another grid");
        let top = self.levels();
        if top <= FOLD_LEVEL {
            acc.fold(grid, r);
        } else {
            self.walk(grid, top, cells_under(r, top), r, acc);
        }
    }

    /// Visit the cells `span` (coarse coordinates, each intersecting `r`)
    /// of level `l`: read the covered ones, descend into the cut ones.
    fn walk(
        &self,
        grid: &Grid3<i64>,
        l: usize,
        span: VoxelRange,
        r: VoxelRange,
        acc: &mut CellStats,
    ) {
        let lvl = &self.levels[l - 1];
        let children = cells_under(r, l - 1);
        for ct in span.t0..span.t1 {
            for cy in span.y0..span.y1 {
                for cx in span.x0..span.x1 {
                    let bounds = lvl.cell_base_range(self.base, cx, cy, ct);
                    let cut = bounds.intersect(r);
                    if cut == bounds {
                        acc.absorb(*lvl.cell(cx, cy, ct));
                    } else if l <= FOLD_LEVEL {
                        acc.fold(grid, cut);
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
    use proptest::prelude::*;

    fn brute(g: &Grid3<i64>, r: VoxelRange) -> CellStats {
        let mut acc = CellStats::EMPTY;
        for (x, y, t) in r.iter() {
            acc.absorb(CellStats::voxel(g.get(x, y, t)));
        }
        acc
    }

    /// Deterministic pseudo-random quanta up to `±2⁴⁰`, a third of them
    /// zero, so every field has something to get wrong and sums pass the
    /// `f64` mantissa.
    fn mixed_grid(dims: GridDims, seed: u64) -> Grid3<i64> {
        let data = (0..dims.volume() as u64)
            .map(|i| {
                let h = i
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed.wrapping_mul(7919));
                if (h >> 20).is_multiple_of(3) {
                    0
                } else {
                    (h >> 23) as i64 - (1 << 40)
                }
            })
            .collect();
        Grid3::from_vec(dims, data)
    }

    #[test]
    fn level_count_reaches_root() {
        let g: Grid3<i64> = Grid3::zeros(GridDims::new(64, 64, 32));
        let p = MipPyramid::build(&g);
        assert_eq!(p.levels(), 6);
        assert_eq!(p.levels[5].dims, GridDims::new(1, 1, 1));
        assert!(p.heap_bytes() > 0);
    }

    #[test]
    fn unit_grid_has_no_levels() {
        let g: Grid3<i64> = Grid3::zeros(GridDims::new(1, 1, 1));
        let p = MipPyramid::build(&g);
        assert_eq!(p.levels(), 0);
        assert!(p.levels.is_empty());
    }

    #[test]
    fn root_max_min_are_exact() {
        let g = mixed_grid(GridDims::new(13, 7, 5), 3);
        let p = MipPyramid::build(&g);
        let root = p.levels.last().unwrap().cells[0];
        let want = brute(&g, VoxelRange::full(g.dims()));
        assert_eq!(root, want);
        assert!(want.max > 0 && want.min < 0 && want.nonzero < g.dims().volume());
    }

    proptest! {
        #[test]
        fn cells_match_brute_force(
            gx in 1usize..20, gy in 1usize..20, gt in 1usize..12,
            seed in 0u64..1000
        ) {
            let dims = GridDims::new(gx, gy, gt);
            let g = mixed_grid(dims, seed);
            let p = MipPyramid::build(&g);
            prop_assert!(p.levels() >= 1 || dims.volume() == 1);
            for lvl in &p.levels {
                for (cx, cy, ct) in lvl.dims.iter() {
                    let r = lvl.cell_base_range(dims, cx, cy, ct);
                    prop_assert!(!r.is_empty());
                    prop_assert_eq!(*lvl.cell(cx, cy, ct), brute(&g, r));
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
                let mut fold = CellStats::EMPTY;
                fold.fold(&g, r);
                prop_assert_eq!(fold, brute(&g, r));
                let mut walk = CellStats::EMPTY;
                p.range_stats_into(&g, r, &mut walk);
                prop_assert_eq!(walk, fold, "walk over {:?}", r);
            }
        }
    }
}
