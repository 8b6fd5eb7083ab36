//! Morton-brick sparse 3-D voxel grid.
//!
//! The paper's complexity analysis (§3.1) splits the point-based algorithms
//! into an initialization term `Θ(Gx·Gy·Gt)` and a compute term
//! `Θ(n·Hs²·Ht)`, and Figure 7 shows the initialization term *dominating*
//! the sparse instances (Flu: 31K points spread over a 20 GB world grid).
//! §6.3 further observes that zeroing memory parallelizes poorly (≈3× on 16
//! threads), capping every parallel algorithm's speedup on those instances.
//!
//! [`SparseGrid3`] removes the `Θ(G)` term instead of parallelizing it: the
//! domain is tiled by fixed 8³ **bricks** inside Morton-indexed chunks (see
//! `crate::brick` for the layout and `crate::morton` for the encoding),
//! and a brick is allocated (and zeroed) only when a density cylinder first
//! touches it. Initialization becomes `Θ(G/512)` pointer-table setup, and
//! total memory is proportional to the *touched* volume `O(n·Hs²·Ht)`
//! rather than the domain volume. Unlike the row-major block table this
//! replaced, brick slots are CAS-allocated (`crate::brick`'s lock-free
//! protocol), so parallel scatters share one grid through
//! [`SharedSparseGrid`] instead of merging per-thread replicas; and Morton
//! ordering keeps spatially adjacent bricks adjacent in the slot table, so
//! a cylinder's brick set stays cache-coherent. On dense instances (eBird)
//! the dense [`Grid3`] remains preferable since every brick
//! gets allocated anyway and the table adds one indirection per 8-voxel
//! row segment.

use crate::axpy::axpy_row;
use crate::brick::{BrickTable, BRICK_EDGE};
use crate::dims::GridDims;
use crate::grid3::Grid3;
use crate::scalar::Scalar;

/// A brick-sparse 3-D grid: Morton-chunked tables of lazily allocated 8³
/// bricks.
///
/// Reads of never-written voxels return zero without allocating. All
/// accumulation APIs mirror [`Grid3`] so the STKDE kernels can target
/// either backend; [`SharedSparseGrid`] additionally mirrors
/// [`SharedGrid`](crate::SharedGrid) for partitioned parallel writers.
///
/// ```
/// use stkde_grid::{GridDims, SparseGrid3};
///
/// // A grid that would be 256 MB dense; nothing is allocated up front.
/// let mut g: SparseGrid3<f32> = SparseGrid3::new(GridDims::new(1024, 1024, 64));
/// assert_eq!(g.allocated_bricks(), 0);
/// g.axpy_row(500, 30, 500, &[1.0], 1.0); // voxel (500, 500, 30) += 1
/// assert_eq!(g.sum(), 1.0);
/// assert_eq!(g.allocated_bricks(), 1);   // one 8³ brick materialized
/// ```
pub struct SparseGrid3<S> {
    table: BrickTable<S>,
}

impl<S: Scalar> SparseGrid3<S> {
    /// Empty sparse grid over `dims`; allocates only the brick pointer
    /// table (8 bytes per brick position).
    pub fn new(dims: GridDims) -> Self {
        SparseGrid3 {
            table: BrickTable::new(dims),
        }
    }

    /// Grid dimensions.
    #[inline]
    pub(crate) fn dims(&self) -> GridDims {
        self.table.dims()
    }

    /// The underlying brick table (shared-writer entry points live there).
    /// Only the `model`-feature test facade reaches through this.
    #[cfg_attr(not(feature = "model"), allow(dead_code))]
    #[inline]
    pub(crate) fn table(&self) -> &BrickTable<S> {
        &self.table
    }

    /// Number of brick positions inside the domain
    /// (`⌈Gx/8⌉·⌈Gy/8⌉·⌈Gt/8⌉`) — the denominator for [`occupancy`](Self::occupancy).
    #[inline]
    pub fn table_len(&self) -> usize {
        self.table.domain_bricks()
    }

    /// Number of bricks currently materialized.
    #[inline]
    pub fn allocated_bricks(&self) -> usize {
        self.table.allocated()
    }

    /// Brick allocations that lost the install CAS to a concurrent
    /// writer (always zero after purely sequential writes).
    #[inline]
    pub fn alloc_cas_races(&self) -> u64 {
        self.table.cas_races()
    }

    /// Approximate heap footprint: brick payloads plus the pointer table.
    pub fn allocated_bytes(&self) -> usize {
        self.table.allocated_bytes()
    }

    /// Fraction of in-domain brick positions that are allocated, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        let denom = self.table.domain_bricks();
        if denom == 0 {
            0.0
        } else {
            self.table.allocated() as f64 / denom as f64
        }
    }

    /// Value at voxel `(x, y, t)`; zero if its brick was never written.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[cfg(any(test, feature = "model"))]
    #[inline]
    pub(crate) fn get(&self, x: usize, y: usize, t: usize) -> S {
        self.table.get(x, y, t)
    }

    /// Add `v` to voxel `(x, y, t)`, materializing its brick if needed.
    #[cfg(test)]
    pub(crate) fn add(&mut self, x: usize, y: usize, t: usize, v: S) {
        // SAFETY: `&mut self` proves exclusive access — no concurrent
        // writer can target any voxel.
        unsafe { self.table.add_shared(x, y, t, v) }
    }

    /// `row[x0..x0+ks.len()] += kt · ks`, splitting the row across brick
    /// columns and materializing bricks on the way.
    ///
    /// Each ≤8-voxel segment goes through the same stride-1
    /// [`axpy_row`] kernel as the dense path, and
    /// `axpy_row` is elementwise, so a row written here is bit-identical
    /// to the same row written into a dense [`Grid3`].
    #[inline]
    pub fn axpy_row(&mut self, y: usize, t: usize, x0: usize, ks: &[S], kt: S) {
        // SAFETY: `&mut self` proves exclusive access.
        unsafe {
            self.table
                .row_segments_shared(y, t, x0, ks.len(), |seg, off| {
                    axpy_row(seg, &ks[off..off + seg.len()], kt);
                });
        }
    }

    /// Materialize as a dense [`Grid3`] (allocating `Θ(G)`). The grid is
    /// first-touched before the bricks are copied in: brick order scatters
    /// across the dense layout, and scattering into lazily zeroed pages
    /// takes a 4-KiB fault per page in that order.
    pub fn to_dense(&self) -> Grid3<S> {
        let dims = self.dims();
        let mut g = Grid3::zeros_touched(dims);
        self.table.for_each_brick(|bx, by, bt, data| {
            let (x0, y0, t0) = (bx * BRICK_EDGE, by * BRICK_EDGE, bt * BRICK_EDGE);
            let xw = BRICK_EDGE.min(dims.gx - x0);
            for lt in 0..BRICK_EDGE.min(dims.gt - t0) {
                for ly in 0..BRICK_EDGE.min(dims.gy - y0) {
                    let src = &data[(lt * BRICK_EDGE + ly) * BRICK_EDGE..][..xw];
                    g.row_mut(y0 + ly, t0 + lt, x0, x0 + xw)
                        .copy_from_slice(src);
                }
            }
        });
        g
    }

    /// Visit every materialized brick as `(bx, by, bt, payload)`; the
    /// payload is the full 512-cell X-fastest slab (padding cells of edge
    /// bricks read zero).
    pub(crate) fn for_each_brick(&self, f: impl FnMut(usize, usize, usize, &[S])) {
        self.table.for_each_brick(f)
    }

    /// Sum of all stored values (unallocated bricks contribute zero).
    pub fn sum(&self) -> f64 {
        let mut total = 0.0;
        // Padding voxels (outside `dims` in edge bricks) are never
        // written, so summing whole payloads is safe.
        self.for_each_brick(|_, _, _, data| {
            total += data.iter().map(|v| v.to_f64()).sum::<f64>();
        });
        total
    }

    /// Maximum absolute difference against a dense grid of the same shape.
    ///
    /// # Panics
    /// Panics if shapes differ.
    #[cfg(any(test, feature = "model"))]
    pub fn max_abs_diff_dense(&self, dense: &Grid3<S>) -> f64 {
        assert_eq!(self.dims(), dense.dims(), "grid shapes must match");
        let mut worst = 0.0f64;
        for (x, y, t) in self.dims().iter() {
            let d = (self.get(x, y, t).to_f64() - dense.get(x, y, t).to_f64()).abs();
            worst = worst.max(d);
        }
        worst
    }
}

impl<S: Scalar> Clone for SparseGrid3<S> {
    fn clone(&self) -> Self {
        SparseGrid3 {
            table: self.table.clone(),
        }
    }
}

impl<S: Scalar> std::fmt::Debug for SparseGrid3<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseGrid3")
            .field("table", &self.table)
            .finish()
    }
}

/// A sparse grid opened for concurrent partitioned writers, mirroring
/// [`SharedGrid`](crate::SharedGrid) on the dense side.
///
/// Construction takes `&mut SparseGrid3`, so for its lifetime this handle
/// is the *only* route to the grid; workers share it by reference and
/// write through [`axpy_row`](Self::axpy_row). Brick **slots** may be
/// raced freely (the CAS protocol in `crate::brick` materializes each
/// brick exactly once); payload **voxels** must be disjoint across
/// concurrent writers, which the parallel scatter guarantees by
/// partitioning the time axis into worker-owned slabs.
pub struct SharedSparseGrid<'a, S> {
    table: &'a BrickTable<S>,
}

impl<'a, S: Scalar> SharedSparseGrid<'a, S> {
    /// Open `grid` for shared writing. The exclusive borrow guarantees no
    /// other access for the handle's lifetime.
    pub fn new(grid: &'a mut SparseGrid3<S>) -> Self {
        SharedSparseGrid { table: &grid.table }
    }

    /// `row[x0..x0+ks.len()] += kt · ks`, exactly like
    /// [`SparseGrid3::axpy_row`], from any worker thread.
    ///
    /// # Safety
    /// Concurrent callers must target disjoint voxels: the written row
    /// `(y, t, x0..x0+ks.len())` must not overlap any row another thread
    /// writes concurrently.
    #[inline]
    pub unsafe fn axpy_row(&self, y: usize, t: usize, x0: usize, ks: &[S], kt: S) {
        // SAFETY: voxel disjointness is forwarded to the caller; slot
        // races are resolved by the brick CAS protocol.
        unsafe {
            self.table
                .row_segments_shared(y, t, x0, ks.len(), |seg, off| {
                    axpy_row(seg, &ks[off..off + seg.len()], kt);
                });
        }
    }
}

// SAFETY: the handle only exposes `unsafe` writes whose contract demands
// voxel-disjoint access, and the brick table's slot allocation is
// lock-free and thread-safe; sharing the handle across workers is the
// intended use (same argument as the dense `SharedGrid`).
unsafe impl<S: Scalar> Sync for SharedSparseGrid<'_, S> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brick::BRICK_VOLUME;
    use crate::range::VoxelRange;
    use proptest::prelude::*;

    /// Upper bound on the number of bricks a voxel range can touch.
    fn bricks_touching<S: Scalar>(g: &SparseGrid3<S>, r: VoxelRange) -> usize {
        let r = r.clipped(g.dims());
        if r.is_empty() {
            return 0;
        }
        let nx = r.x1.div_ceil(BRICK_EDGE) - r.x0 / BRICK_EDGE;
        let ny = r.y1.div_ceil(BRICK_EDGE) - r.y0 / BRICK_EDGE;
        let nt = r.t1.div_ceil(BRICK_EDGE) - r.t0 / BRICK_EDGE;
        nx * ny * nt
    }

    #[test]
    fn empty_grid_reads_zero_without_allocating() {
        let g: SparseGrid3<f64> = SparseGrid3::new(GridDims::new(100, 100, 50));
        assert_eq!(g.get(99, 99, 49), 0.0);
        assert_eq!(g.allocated_bricks(), 0);
        assert_eq!(g.occupancy(), 0.0);
        assert_eq!(g.alloc_cas_races(), 0);
    }

    #[test]
    fn add_allocates_exactly_one_brick() {
        let mut g: SparseGrid3<f64> = SparseGrid3::new(GridDims::new(100, 100, 50));
        g.add(5, 5, 5, 2.0);
        g.add(6, 5, 5, 1.0);
        assert_eq!(g.allocated_bricks(), 1);
        assert_eq!(g.get(5, 5, 5), 2.0);
        assert_eq!(g.get(6, 5, 5), 1.0);
        assert_eq!(g.get(7, 5, 5), 0.0);
    }

    #[test]
    fn table_len_is_ceil_division() {
        let g: SparseGrid3<f32> = SparseGrid3::new(GridDims::new(33, 9, 8));
        // ⌈33/8⌉ × ⌈9/8⌉ × ⌈8/8⌉ = 5 × 2 × 1 brick positions.
        assert_eq!(g.table_len(), 10);
    }

    #[test]
    fn axpy_row_spans_brick_boundaries() {
        let dims = GridDims::new(70, 10, 10);
        let mut g: SparseGrid3<f64> = SparseGrid3::new(dims);
        let vals: Vec<f64> = (0..70).map(|i| i as f64).collect();
        g.axpy_row(3, 4, 0, &vals, 1.0);
        // The row crosses ⌈70/8⌉ = 9 brick columns.
        assert_eq!(g.allocated_bricks(), 9);
        for x in 0..70 {
            assert_eq!(g.get(x, 3, 4), x as f64, "x={x}");
        }
        assert_eq!(g.get(0, 4, 4), 0.0);
    }

    #[test]
    fn to_dense_roundtrip() {
        let dims = GridDims::new(50, 20, 12);
        let mut g: SparseGrid3<f64> = SparseGrid3::new(dims);
        g.add(0, 0, 0, 1.0);
        g.add(49, 19, 11, 2.0); // edge brick (partially outside)
        g.add(25, 10, 6, 3.0);
        let dense = g.to_dense();
        assert_eq!(dense.get(0, 0, 0), 1.0);
        assert_eq!(dense.get(49, 19, 11), 2.0);
        assert_eq!(dense.get(25, 10, 6), 3.0);
        assert_eq!(g.max_abs_diff_dense(&dense), 0.0);
        let total: f64 = dense.as_slice().iter().sum();
        assert_eq!(total, 6.0);
        assert_eq!(g.sum(), 6.0);
    }

    #[test]
    fn bricks_touching_counts_straddled_columns() {
        let g: SparseGrid3<f32> = SparseGrid3::new(GridDims::new(64, 64, 64));
        let r = VoxelRange {
            x0: 6,
            x1: 11, // straddles x-bricks 0 and 1
            y0: 0,
            y1: 8, // one y-brick
            t0: 7,
            t1: 9, // straddles t-bricks 0 and 1
        };
        assert_eq!(
            bricks_touching(&g, r),
            4,
            "2 x-bricks × 1 y-brick × 2 t-bricks"
        );
        assert_eq!(bricks_touching(&g, VoxelRange::empty()), 0);
    }

    #[test]
    fn allocated_bytes_grows_with_bricks() {
        let mut g: SparseGrid3<f32> = SparseGrid3::new(GridDims::new(64, 64, 64));
        let empty = g.allocated_bytes();
        g.add(0, 0, 0, 1.0);
        assert_eq!(g.allocated_bytes(), empty + BRICK_VOLUME * 4);
    }

    #[test]
    fn shared_writers_on_disjoint_rows_match_sequential() {
        let dims = GridDims::new(48, 16, 16);
        let ks: Vec<f32> = (0..20).map(|i| 0.25 + i as f32).collect();

        let mut seq: SparseGrid3<f32> = SparseGrid3::new(dims);
        for t in 0..16 {
            for y in 0..16 {
                seq.axpy_row(y, t, 3, &ks, 0.5);
            }
        }

        let mut par: SparseGrid3<f32> = SparseGrid3::new(dims);
        {
            let shared = SharedSparseGrid::new(&mut par);
            std::thread::scope(|s| {
                for w in 0..4usize {
                    let shared = &shared;
                    let ks = &ks;
                    // Each worker owns t-layers w*4 .. w*4+4: disjoint voxels.
                    s.spawn(move || {
                        for t in w * 4..w * 4 + 4 {
                            for y in 0..16 {
                                // SAFETY: workers own disjoint t-layers.
                                unsafe { shared.axpy_row(y, t, 3, ks, 0.5) };
                            }
                        }
                    });
                }
            });
        }
        assert_eq!(par.to_dense(), seq.to_dense());
        assert_eq!(par.allocated_bricks(), seq.allocated_bricks());
    }

    proptest! {
        /// Random scattered adds agree voxel-for-voxel with a dense grid.
        #[test]
        fn sparse_matches_dense_scatter(
            writes in proptest::collection::vec(
                (0usize..50, 0usize..30, 0usize..20, -10.0f64..10.0), 0..200),
        ) {
            let dims = GridDims::new(50, 30, 20);
            let mut sparse: SparseGrid3<f64> = SparseGrid3::new(dims);
            let mut dense: Grid3<f64> = Grid3::zeros(dims);
            for &(x, y, t, v) in &writes {
                sparse.add(x, y, t, v);
                dense.add(x, y, t, v);
            }
            prop_assert_eq!(sparse.max_abs_diff_dense(&dense), 0.0);
            prop_assert_eq!(sparse.to_dense(), dense);
        }

        /// `axpy_row` into a sparse grid is bit-identical to `axpy_row`
        /// into a dense grid, for f32, across brick boundaries.
        #[test]
        fn axpy_row_bitwise_matches_dense(
            x0 in 0usize..40,
            len in 1usize..24,
            y in 0usize..16, t in 0usize..16,
            kt in 0.01f32..3.0,
            seed in 0u64..1000,
        ) {
            let dims = GridDims::new(64, 16, 16);
            let len = len.min(64 - x0);
            let ks: Vec<f32> = (0..len)
                .map(|i| ((seed + i as u64) % 23) as f32 * 0.37)
                .collect();
            let mut sparse: SparseGrid3<f32> = SparseGrid3::new(dims);
            let mut dense: Grid3<f32> = Grid3::zeros(dims);
            // Two passes so accumulation order is exercised too.
            for _ in 0..2 {
                sparse.axpy_row(y, t, x0, &ks, kt);
                crate::axpy_row(dense.row_mut(y, t, x0, x0 + len), &ks, kt);
            }
            prop_assert_eq!(sparse.to_dense(), dense);
        }

        /// Allocation never exceeds the bricks-touching bound of the
        /// written region, and occupancy stays in [0, 1].
        #[test]
        fn allocation_bounded_by_touched_region(
            xs in proptest::collection::vec((0usize..64, 0usize..64, 0usize..32), 1..50),
        ) {
            let dims = GridDims::new(64, 64, 32);
            let mut g: SparseGrid3<f32> = SparseGrid3::new(dims);
            let mut r = VoxelRange::empty();
            for &(x, y, t) in &xs {
                g.add(x, y, t, 1.0);
                let single = VoxelRange { x0: x, x1: x + 1, y0: y, y1: y + 1, t0: t, t1: t + 1 };
                r = if r.is_empty() { single } else {
                    VoxelRange {
                        x0: r.x0.min(x), x1: r.x1.max(x + 1),
                        y0: r.y0.min(y), y1: r.y1.max(y + 1),
                        t0: r.t0.min(t), t1: r.t1.max(t + 1),
                    }
                };
            }
            prop_assert!(g.allocated_bricks() <= bricks_touching(&g, r));
            prop_assert!(g.occupancy() > 0.0 && g.occupancy() <= 1.0);
        }
    }
}
