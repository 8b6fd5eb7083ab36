//! Mip pyramid and per-axis slices over a [`Grid3<i64>`]: exact box
//! aggregates from a split walk.
//!
//! Every stored cell holds the **sum**, **max**, **min** and **non-zero
//! count** of the base voxels it covers. The voxels are integers (the
//! window cubes' quanta) and sums are `i128`, so every aggregate
//! propagates *exactly* through any reduction, in any order.
//!
//! Two kinds of cell grid are stored, both at block edge `B` = 4:
//!
//! - **Levels** `2..=L`: level ℓ has cells of `2^ℓ` voxels on every axis
//!   (ceiling division at the far edges), up to a single root cell.
//! - **Slices**, one set per axis, each one voxel thick on its axis and a
//!   block on the other two: `S_x` cells are 1×4×4 voxels, `S_y` 4×1×4,
//!   `S_t` 4×4×1.
//!
//! [`MipPyramid::range_stats_into`] answers a box exactly. It splits the
//! box on each axis into a low shell, a block-aligned middle and a high
//! shell (a grid edge counts as aligned), and reads each of the 27 parts
//! one way:
//!
//! - middle on all three axes: a mixed-level walk. A cell the part covers
//!   fully is read once, at the coarsest level where it is covered; a cut
//!   cell sends the walk down to its children. At block alignment no
//!   level-2 cell is ever cut, so the walk never folds a voxel.
//! - shell on exactly one axis (a face): that axis's slices, one cell per
//!   shell layer and block of the cross-section.
//! - shell on two or three axes (an edge or a corner): the voxel fold.
//!
//! An axis with no aligned block is one shell end to end, and still reads
//! its slices. A wide box thus costs a few hundred cell reads, and only
//! its edges and corners fold voxels. Every field equals the voxel fold's
//! ([`CellStats::fold`]).
//!
//! Min is stored alongside max because `/region` reports it. Cells are
//! stored in 40 bytes (`Cell`): the `i128` sum as two 64-bit halves, so
//! no 16-byte alignment pads them to 48.
//!
//! The build is one rayon-parallel pass over the voxels, by T-blocks, that
//! fills all three slice sets; level 2 is reduced from `S_t`, and each
//! coarser level from the one below it.

use crate::dims::GridDims;
use crate::grid3::Grid3;
use crate::range::VoxelRange;
use rayon::prelude::*;

/// Block edge, in voxels, of level 2 and of the slices' two wide axes.
const B: usize = 4;

/// Exact aggregates of a set of `i64` voxels: the running accumulator of a
/// box read, and the value of a stored cell.
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

/// A stored [`CellStats`] in 40 bytes: the `i128` sum as two 64-bit
/// halves keeps the cell at 8-byte alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    sum_lo: u64,
    sum_hi: i64,
    max: i64,
    min: i64,
    nonzero: u64,
}

impl Cell {
    const EMPTY: Self = Self::pack(CellStats::EMPTY);

    #[inline]
    const fn pack(s: CellStats) -> Self {
        Self {
            sum_lo: s.sum as u64,
            sum_hi: (s.sum >> 64) as i64,
            max: s.max,
            min: s.min,
            nonzero: s.nonzero as u64,
        }
    }

    #[inline]
    fn stats(self) -> CellStats {
        CellStats {
            sum: (i128::from(self.sum_hi) << 64) | i128::from(self.sum_lo),
            max: self.max,
            min: self.min,
            nonzero: self.nonzero as usize,
        }
    }
}

/// A grid of stored cells, each covering an `edge[0]×edge[1]×edge[2]` box
/// of base voxels (clipped at the grid's far edges), in the same X-fastest
/// layout as [`Grid3`].
#[derive(Debug, Clone)]
struct Cells {
    edge: [usize; 3],
    dims: GridDims,
    cells: Vec<Cell>,
}

impl Cells {
    /// Empty cells of edge `edge` over a base grid of `base`.
    fn new(base: GridDims, edge: [usize; 3]) -> Self {
        let dims = GridDims::new(
            base.gx.div_ceil(edge[0]),
            base.gy.div_ceil(edge[1]),
            base.gt.div_ceil(edge[2]),
        );
        Self {
            edge,
            dims,
            cells: vec![Cell::EMPTY; dims.volume()],
        }
    }

    /// The cell at cell coordinates `(cx, cy, ct)`.
    #[inline]
    fn get(&self, cx: usize, cy: usize, ct: usize) -> CellStats {
        self.cells[self.dims.idx(cx, cy, ct)].stats()
    }

    /// The base-voxel box a cell covers, clipped to the base grid.
    #[inline]
    fn base_range(&self, base: GridDims, cx: usize, cy: usize, ct: usize) -> VoxelRange {
        let [ex, ey, et] = self.edge;
        VoxelRange {
            x0: cx * ex,
            x1: ((cx + 1) * ex).min(base.gx),
            y0: cy * ey,
            y1: ((cy + 1) * ey).min(base.gy),
            t0: ct * et,
            t1: ((ct + 1) * et).min(base.gt),
        }
    }

    /// The cells that intersect the non-empty base box `r`, as a box of
    /// cell coordinates.
    #[inline]
    fn cover(&self, r: VoxelRange) -> VoxelRange {
        let [ex, ey, et] = self.edge;
        VoxelRange {
            x0: r.x0 / ex,
            x1: (r.x1 - 1) / ex + 1,
            y0: r.y0 / ey,
            y1: (r.y1 - 1) / ey + 1,
            t0: r.t0 / et,
            t1: (r.t1 - 1) / et + 1,
        }
    }

    /// Absorb every cell in `span` (cell coordinates).
    #[inline]
    fn absorb_span(&self, span: VoxelRange, acc: &mut CellStats) {
        for ct in span.t0..span.t1 {
            for cy in span.y0..span.y1 {
                let row = self.dims.idx(0, cy, ct);
                for c in &self.cells[row + span.x0..row + span.x1] {
                    acc.absorb(c.stats());
                }
            }
        }
    }

    /// Coarser cells, each the reduction of `ratio[0]×ratio[1]×ratio[2]`
    /// of these, parallel over the coarse T-planes.
    fn reduce(&self, base: GridDims, ratio: [usize; 3]) -> Self {
        let edge = [0, 1, 2].map(|a| self.edge[a] * ratio[a]);
        let mut out = Self::new(base, edge);
        let (dims, child) = (out.dims, self.dims);
        let [rx, ry, rt] = ratio;
        out.cells
            .par_chunks_mut(dims.gx * dims.gy)
            .enumerate()
            .for_each(|(ct, plane)| {
                for cy in 0..dims.gy {
                    for cx in 0..dims.gx {
                        let span = VoxelRange {
                            x0: cx * rx,
                            x1: ((cx + 1) * rx).min(child.gx),
                            y0: cy * ry,
                            y1: ((cy + 1) * ry).min(child.gy),
                            t0: ct * rt,
                            t1: ((ct + 1) * rt).min(child.gt),
                        };
                        let mut acc = CellStats::EMPTY;
                        self.absorb_span(span, &mut acc);
                        plane[cy * dims.gx + cx] = Cell::pack(acc);
                    }
                }
            });
        out
    }
}

/// Slice set indices, by the axis the slices are one voxel thick on.
const X: usize = 0;
const Y: usize = 1;
const T: usize = 2;

/// The pyramid levels `2..=L` and the three per-axis slice sets of one
/// base grid.
#[derive(Debug, Clone)]
pub struct MipPyramid {
    base: GridDims,
    /// Levels `2..=L`, finest first (`levels[i]` is level `i + 2`).
    levels: Vec<Cells>,
    /// `S_x`, `S_y`, `S_t`, indexed by [`X`], [`Y`], [`T`].
    slices: Vec<Cells>,
}

impl MipPyramid {
    /// Build the slices in one rayon-parallel pass over the voxels, then
    /// levels `2..=L` until a `1×1×1` root.
    ///
    /// A `1×1×1` base grid yields an empty pyramid (no levels).
    pub fn build(grid: &Grid3<i64>) -> Self {
        let base = grid.dims();
        if base.volume() == 1 {
            return Self {
                base,
                levels: Vec::new(),
                slices: Vec::new(),
            };
        }
        let slices = build_slices(grid);
        let mut levels = vec![slices[T].reduce(base, [1, 1, B])];
        while let Some(top) = levels.last().filter(|l| l.dims.volume() > 1) {
            let next = top.reduce(base, [2, 2, 2]);
            levels.push(next);
        }
        Self {
            base,
            levels,
            slices,
        }
    }

    /// Heap bytes held by all levels and slices (the resident-bytes gauge).
    pub fn heap_bytes(&self) -> usize {
        self.levels
            .iter()
            .chain(&self.slices)
            .map(|c| c.cells.capacity() * std::mem::size_of::<Cell>())
            .sum()
    }

    /// Fold the aggregates of box `r` of `grid` — the grid this pyramid
    /// was built from — into `acc`, equal to [`CellStats::fold`] over the
    /// same box. `r` must be non-empty and inside the grid.
    pub fn range_stats_into(&self, grid: &Grid3<i64>, r: VoxelRange, acc: &mut CellStats) {
        debug_assert_eq!(grid.dims(), self.base, "pyramid built from another grid");
        if self.levels.is_empty() {
            acc.fold(grid, r);
            return;
        }
        let xs = split(r.x0, r.x1, self.base.gx);
        let ys = split(r.y0, r.y1, self.base.gy);
        let ts = split(r.t0, r.t1, self.base.gt);
        for (i, &(t0, t1)) in ts.iter().enumerate() {
            for (j, &(y0, y1)) in ys.iter().enumerate() {
                for (k, &(x0, x1)) in xs.iter().enumerate() {
                    let part = VoxelRange {
                        x0,
                        x1,
                        y0,
                        y1,
                        t0,
                        t1,
                    };
                    if part.is_empty() {
                        continue;
                    }
                    // Index 1 of a split is its block-aligned middle.
                    match (k == 1, j == 1, i == 1) {
                        (true, true, true) => {
                            let top = self.levels.len() - 1;
                            self.walk(top, self.levels[top].cover(part), part, acc);
                        }
                        (false, true, true) => self.read_slices(X, part, acc),
                        (true, false, true) => self.read_slices(Y, part, acc),
                        (true, true, false) => self.read_slices(T, part, acc),
                        _ => acc.fold(grid, part),
                    }
                }
            }
        }
    }

    /// Absorb the slices of set `axis` that tile `part`, a face: one shell
    /// layer thick on `axis` and block-aligned on the other two.
    fn read_slices(&self, axis: usize, part: VoxelRange, acc: &mut CellStats) {
        let slices = &self.slices[axis];
        slices.absorb_span(slices.cover(part), acc);
    }

    /// Visit the cells `span` (cell coordinates, each intersecting the
    /// block-aligned box `r`) of `levels[i]`: read the covered ones, descend
    /// into the cut ones.
    fn walk(&self, i: usize, span: VoxelRange, r: VoxelRange, acc: &mut CellStats) {
        let lvl = &self.levels[i];
        for ct in span.t0..span.t1 {
            for cy in span.y0..span.y1 {
                for cx in span.x0..span.x1 {
                    let bounds = lvl.base_range(self.base, cx, cy, ct);
                    if bounds.intersect(r) == bounds {
                        acc.absorb(lvl.get(cx, cy, ct));
                    } else {
                        debug_assert!(i > 0, "a block-aligned box cuts no level-2 cell");
                        let own = VoxelRange {
                            x0: 2 * cx,
                            x1: 2 * cx + 2,
                            y0: 2 * cy,
                            y1: 2 * cy + 2,
                            t0: 2 * ct,
                            t1: 2 * ct + 2,
                        };
                        let children = own.intersect(self.levels[i - 1].cover(r));
                        self.walk(i - 1, children, r, acc);
                    }
                }
            }
        }
    }
}

/// Split `[a, b)` on an axis of `g` voxels into the low shell up to the
/// first block boundary, the block-aligned middle, and the high shell from
/// the last boundary; the grid edge `g` counts as a boundary. Parts may be
/// empty, and an axis with no aligned block is one shell.
fn split(a: usize, b: usize, g: usize) -> [(usize, usize); 3] {
    let m0 = a.next_multiple_of(B).min(b);
    let m1 = if b == g { b } else { b / B * B }.max(m0);
    [(a, m0), (m0, m1), (m1, b)]
}

/// `S_x`, `S_y` and `S_t` of `grid` from one pass over its voxels,
/// parallel over T-blocks: each block fills its own slab of all three sets,
/// accumulating one Y-block at a time before it stores the cells.
fn build_slices(grid: &Grid3<i64>) -> Vec<Cells> {
    let base = grid.dims();
    let mut sx = Cells::new(base, [1, B, B]);
    let mut sy = Cells::new(base, [B, 1, B]);
    let mut st = Cells::new(base, [B, B, 1]);
    let (nbx, nby) = (st.dims.gx, st.dims.gy);
    let blocks: Vec<_> = sx
        .cells
        .chunks_mut(base.gx * nby)
        .zip(sy.cells.chunks_mut(nbx * base.gy))
        .zip(st.cells.chunks_mut(nbx * nby * B))
        .map(|((x, y), t)| (x, y, t))
        .collect();
    blocks
        .into_par_iter()
        .enumerate()
        .for_each(|(bt, (sx, sy, st))| {
            let ts = bt * B..((bt + 1) * B).min(base.gt);
            let mut sx_acc = vec![CellStats::EMPTY; base.gx];
            let mut sy_acc = vec![CellStats::EMPTY; B * nbx];
            let mut st_acc = vec![CellStats::EMPTY; nbx];
            for by in 0..nby {
                let ys = by * B..((by + 1) * B).min(base.gy);
                sx_acc.fill(CellStats::EMPTY);
                sy_acc.fill(CellStats::EMPTY);
                for t in ts.clone() {
                    st_acc.fill(CellStats::EMPTY);
                    for y in ys.clone() {
                        let sy_row = &mut sy_acc[(y - ys.start) * nbx..][..nbx];
                        let row = grid.row(y, t, 0, base.gx);
                        let runs = row.chunks(B).zip(sx_acc.chunks_mut(B));
                        for (bx, (run, cells)) in runs.enumerate() {
                            let mut acc = CellStats::EMPTY;
                            for (&v, cell) in run.iter().zip(cells) {
                                let s = CellStats::voxel(v);
                                cell.absorb(s);
                                acc.absorb(s);
                            }
                            sy_row[bx].absorb(acc);
                            st_acc[bx].absorb(acc);
                        }
                    }
                    let plane = ((t - ts.start) * nby + by) * nbx;
                    store(&mut st[plane..plane + nbx], &st_acc);
                }
                store(&mut sx[by * base.gx..][..base.gx], &sx_acc);
                store(&mut sy[ys.start * nbx..ys.end * nbx], &sy_acc);
            }
        });
    vec![sx, sy, st]
}

/// Pack `acc` into the stored cells `out` (`acc` may be longer).
fn store(out: &mut [Cell], acc: &[CellStats]) {
    for (o, &a) in out.iter_mut().zip(acc) {
        *o = Cell::pack(a);
    }
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

    fn walk(p: &MipPyramid, g: &Grid3<i64>, r: VoxelRange) -> CellStats {
        let mut acc = CellStats::EMPTY;
        p.range_stats_into(g, r, &mut acc);
        acc
    }

    #[test]
    fn level_count_reaches_root() {
        let g = mixed_grid(GridDims::new(64, 64, 32), 5);
        let p = MipPyramid::build(&g);
        assert_eq!(p.levels.len(), 5, "levels 2..=6");
        // The whole grid is one aligned middle: it reads through the root.
        let full = VoxelRange::full(g.dims());
        assert_eq!(walk(&p, &g, full), brute(&g, full));
        assert!(p.heap_bytes() > 0);
    }

    #[test]
    fn unit_grid_has_no_levels() {
        let g: Grid3<i64> = Grid3::zeros(GridDims::new(1, 1, 1));
        let p = MipPyramid::build(&g);
        assert!(p.levels.is_empty());
    }

    #[test]
    fn root_max_min_are_exact() {
        let g = mixed_grid(GridDims::new(13, 7, 5), 3);
        let p = MipPyramid::build(&g);
        let root = p.levels.last().unwrap().get(0, 0, 0);
        let want = brute(&g, VoxelRange::full(g.dims()));
        assert_eq!(root, want);
        assert!(want.max > 0 && want.min < 0 && want.nonzero < g.dims().volume());
    }

    #[test]
    fn stored_cells_are_40_bytes() {
        assert_eq!(std::mem::size_of::<Cell>(), 40);
        // A daemon slab: 64×64×8 voxels. Slices 3 × 2 048 cells, levels
        // 2..=6 hold 512 + 64 + 16 + 4 + 1.
        let g: Grid3<i64> = Grid3::zeros(GridDims::new(64, 64, 8));
        let p = MipPyramid::build(&g);
        let cells: usize = p
            .levels
            .iter()
            .chain(&p.slices)
            .map(|c| c.cells.len())
            .sum();
        assert_eq!(cells, 3 * 2048 + 597);
        assert_eq!(p.heap_bytes(), cells * 40);
    }

    #[test]
    fn cell_round_trips_extreme_sums() {
        for sum in [0, -1, 1, i128::from(i64::MIN) * 3, i128::from(u64::MAX) + 7] {
            let s = CellStats {
                sum,
                max: i64::MAX,
                min: i64::MIN,
                nonzero: 12,
            };
            assert_eq!(Cell::pack(s).stats(), s);
        }
    }

    #[test]
    fn split_shapes() {
        // Low shell, middle, high shell.
        assert_eq!(split(1, 10, 64), [(1, 4), (4, 8), (8, 10)]);
        // No aligned block: one shell end to end.
        assert_eq!(split(1, 3, 64), [(1, 3), (3, 3), (3, 3)]);
        // Two shells across one boundary, no middle.
        assert_eq!(split(3, 6, 64), [(3, 4), (4, 4), (4, 6)]);
        // The ragged grid edge is aligned.
        assert_eq!(split(2, 11, 11), [(2, 4), (4, 11), (11, 11)]);
        assert_eq!(split(0, 3, 3), [(0, 0), (0, 3), (3, 3)]);
    }

    /// One axis's `[a, b)` inside `0..g` (`g ≥ 10`), of a shape chosen by
    /// `kind`: 0 low shell, middle and high shell; 1 no aligned block;
    /// 2 two shells across one boundary; 3 an aligned middle only; 4 up to
    /// the ragged grid edge; 5 a single voxel.
    fn shaped(kind: u8, g: usize, seed: usize) -> (usize, usize) {
        let unaligned = |a: usize| if a.is_multiple_of(B) { a + 1 } else { a };
        match kind {
            0 => {
                // `a` inside block k, `b` inside block m ≥ k + 2, b < g.
                let m = 2 + seed % ((g - 2) / B - 1);
                let k = seed / 7 % (m - 1);
                let a = k * B + 1 + seed % 3;
                (a, m * B + 1 + seed / 3 % (g - 1 - m * B).min(3))
            }
            1 => {
                let a = unaligned(seed % (g - 1));
                (a, (a + 1 + seed / 7 % 3).min(a.next_multiple_of(B)).min(g))
            }
            2 => {
                let k = seed % ((g - 2) / B);
                let b = (k + 1) * B + 1 + seed / 3 % (g - 1 - (k + 1) * B).min(3);
                (k * B + 1 + seed % 3, b)
            }
            3 => {
                let blocks = g / B;
                let k = seed % blocks;
                (k * B, (k + 1 + seed / 7 % (blocks - k)) * B)
            }
            4 => (seed % g, g),
            _ => {
                let a = seed % g;
                (a, a + 1)
            }
        }
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
            prop_assert!(!p.levels.is_empty() || dims.volume() == 1);
            prop_assert_eq!(p.slices.len(), if dims.volume() == 1 { 0 } else { 3 });
            for cells in p.levels.iter().chain(&p.slices) {
                for (cx, cy, ct) in cells.dims.iter() {
                    let r = cells.base_range(dims, cx, cy, ct);
                    prop_assert!(!r.is_empty());
                    prop_assert_eq!(cells.get(cx, cy, ct), brute(&g, r));
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Boxes shaped per axis so that, across cases, every one of the 27
        /// parts is non-empty, alone and together, on ragged grids.
        #[test]
        fn every_part_of_the_split_matches_brute_force(
            gx in 10usize..30, gy in 10usize..30, gt in 10usize..20,
            kinds in (0u8..6, 0u8..6, 0u8..6),
            sx in 0usize..1000, sy in 0usize..1000, st in 0usize..1000,
            seed in 0u64..500
        ) {
            let dims = GridDims::new(gx, gy, gt);
            let g = mixed_grid(dims, seed);
            let p = MipPyramid::build(&g);
            let (x0, x1) = shaped(kinds.0, gx, sx);
            let (y0, y1) = shaped(kinds.1, gy, sy);
            let (t0, t1) = shaped(kinds.2, gt, st);
            let r = VoxelRange { x0, x1, y0, y1, t0, t1 };
            prop_assert!(!r.is_empty() && r.clipped(dims) == r, "{:?}", r);
            if kinds == (0, 0, 0) {
                for s in [split(x0, x1, gx), split(y0, y1, gy), split(t0, t1, gt)] {
                    prop_assert!(s.iter().all(|&(a, b)| a < b), "{:?} of {:?}", s, r);
                }
            }
            prop_assert_eq!(walk(&p, &g, r), brute(&g, r), "walk over {:?}", r);
        }
    }
}
