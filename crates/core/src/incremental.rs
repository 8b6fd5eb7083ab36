//! Incremental STKDE (extension).
//!
//! The paper's motivation is *interactive exploration* of event data: an
//! analyst pans, filters, and watches new events arrive. Recomputing the
//! full cube on every change costs `Θ(G + n·Hs²·Ht)`; this module
//! maintains the cube under point insertions and removals at
//! `Θ(Hs²·Ht)` per update — one cylinder rasterized with the `PB-SYM`
//! invariants, added or subtracted.
//!
//! The trick is to accumulate the *unnormalized* sum
//! `Σᵢ ks·kt / (hs²·ht)` and divide by the live point count only on
//! reads: the `1/n` factor in the estimator changes with every update,
//! but scaling at query time keeps updates O(cylinder).
//!
//! [`IncrementalStkde`] is one sequential full grid with no notion of a
//! time window: callers choose what to insert and what to remove. The
//! streaming "last 30 days" view — time-ordered pushes that evict what
//! aged out — is [`crate::ShardedWindowStkde`], whose conformance tests
//! replay its operation sequence on an `IncrementalStkde` and demand
//! bit-identical grids.
//!
//! Floating-point caveat: removals cancel additions exactly only in exact
//! arithmetic. Drift is bounded by a few ULPs per update pair and is
//! invisible with `f64` grids (the property tests assert tight agreement
//! with batch recomputation); the window cube clears it with
//! [`rebuild`](crate::ShardedWindowStkde::rebuild) /
//! [`auto_rebuild_every`](crate::ShardedWindowStkde::auto_rebuild_every).
//!
//! Every mutation advances a monotone *generation counter*
//! ([`IncrementalStkde::generation`]); equal generations mean
//! byte-identical cubes.

use crate::kernel_apply::{apply_points_seq_with, PointKernel, Scratch};
use crate::problem::Problem;
use stkde_data::Point;
use stkde_grid::{stats, Bandwidth, Domain, Grid3, GridStats, Scalar, VoxelRange};
use stkde_kernels::{Epanechnikov, SpaceTimeKernel};

/// An STKDE cube maintained under insertions and removals.
///
/// ```
/// use stkde_core::IncrementalStkde;
/// use stkde_data::Point;
/// use stkde_grid::{Bandwidth, Domain, GridDims};
///
/// let domain = Domain::from_dims(GridDims::new(32, 32, 16));
/// let mut cube = IncrementalStkde::<f64>::new(domain, Bandwidth::new(4.0, 2.0));
/// let p = Point::new(16.0, 16.0, 8.0);
/// cube.insert(p);
/// assert!(cube.density(16, 16, 8) > 0.0);
/// cube.remove(&p);                        // Θ(Hs²·Ht), not a recompute
/// assert_eq!(cube.len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalStkde<S, K = Epanechnikov> {
    domain: Domain,
    bw: Bandwidth,
    kernel: K,
    /// Unnormalized accumulation: `Σ ks·kt / (hs²·ht)`.
    grid: Grid3<S>,
    n: usize,
    /// Monotone mutation counter: equal generations ⇒ identical cubes.
    generation: u64,
    /// Persistent scatter-engine buffers: the per-event insert/evict path
    /// (a server ingest thread pays it per batch) reuses one allocation
    /// instead of churning a fresh `Scratch` per mutation.
    scratch: Scratch<S>,
}

impl<S: Scalar> IncrementalStkde<S, Epanechnikov> {
    /// Empty cube over `domain` with bandwidth `bw` and the default
    /// Epanechnikov kernel.
    pub fn new(domain: Domain, bw: Bandwidth) -> Self {
        Self::with_kernel(domain, bw, Epanechnikov)
    }
}

impl<S: Scalar, K: SpaceTimeKernel> IncrementalStkde<S, K> {
    /// Empty cube with an explicit kernel.
    pub fn with_kernel(domain: Domain, bw: Bandwidth, kernel: K) -> Self {
        Self {
            domain,
            bw,
            kernel,
            grid: Grid3::zeros(domain.dims()),
            n: 0,
            generation: 0,
            scratch: Scratch::default(),
        }
    }

    /// Number of points currently contributing.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if no points contribute.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The domain this cube discretizes.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The bandwidths in use.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bw
    }

    /// Monotone mutation counter, advanced by every state change
    /// ([`insert`](Self::insert), [`remove`](Self::remove),
    /// [`insert_batch`](Self::insert_batch), [`clear`](Self::clear)).
    ///
    /// Two reads observing the same generation observed an identical cube,
    /// which is exactly what a query cache needs for its key.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A problem description with the estimator's `1/n` stripped (`n = 1`
    /// leaves exactly the `1/(hs²·ht)` factor in the folded norm).
    fn unit_problem(&self, sign: f64) -> Problem {
        let mut p = Problem::new(self.domain, self.bw, 1);
        p.norm *= sign;
        p
    }

    /// Add one event's cylinder. `Θ(Hs²·Ht)`.
    pub fn insert(&mut self, p: Point) {
        let problem = self.unit_problem(1.0);
        let clip = VoxelRange::full(self.domain.dims());
        apply_points_seq_with(
            PointKernel::Sym,
            &mut self.grid,
            &problem,
            &self.kernel,
            &[p],
            clip,
            &mut self.scratch,
        );
        self.n += 1;
        self.generation += 1;
    }

    /// Add many events' cylinders in one pass: `Θ(k·Hs²·Ht)` for `k`
    /// points, but with a single problem setup and a single generation
    /// step. This is the write-coalescing primitive a serving ingest
    /// thread uses to apply a whole drained batch per lock acquisition.
    pub fn insert_batch(&mut self, points: &[Point]) {
        if points.is_empty() {
            return;
        }
        let problem = self.unit_problem(1.0);
        let clip = VoxelRange::full(self.domain.dims());
        apply_points_seq_with(
            PointKernel::Sym,
            &mut self.grid,
            &problem,
            &self.kernel,
            points,
            clip,
            &mut self.scratch,
        );
        self.n += points.len();
        self.generation += 1;
    }

    /// Subtract one event's cylinder. `Θ(Hs²·Ht)`.
    ///
    /// The caller must only remove points previously inserted (the cube
    /// does not store them); removing anything else leaves the cube
    /// meaningless.
    ///
    /// # Panics
    /// Panics if the cube is empty.
    pub fn remove(&mut self, p: &Point) {
        assert!(self.n > 0, "remove from an empty cube");
        let problem = self.unit_problem(-1.0);
        let clip = VoxelRange::full(self.domain.dims());
        apply_points_seq_with(
            PointKernel::Sym,
            &mut self.grid,
            &problem,
            &self.kernel,
            std::slice::from_ref(p),
            clip,
            &mut self.scratch,
        );
        self.n -= 1;
        self.generation += 1;
    }

    /// Normalized density at voxel `(x, y, t)` — the estimator
    /// `f̂ = unnormalized / n` (zero when empty).
    pub fn density(&self, x: usize, y: usize, t: usize) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.grid.get(x, y, t).to_f64() / self.n as f64
        }
    }

    /// The live (unnormalized) accumulation grid — for footprint
    /// reporting and direct slab reads; normalized queries go through
    /// [`density`](Self::density) and friends.
    pub fn grid(&self) -> &Grid3<S> {
        &self.grid
    }

    /// Materialize the normalized cube (equals a batch `PB-SYM` over the
    /// live points, up to float summation order).
    pub fn snapshot(&self) -> Grid3<S> {
        let inv_n = if self.n == 0 {
            0.0
        } else {
            1.0 / self.n as f64
        };
        let data = self
            .grid
            .as_slice()
            .iter()
            .map(|&v| S::from_f64(v.to_f64() * inv_n))
            .collect();
        Grid3::from_vec(self.domain.dims(), data)
    }

    /// Normalized density at voxel `(x, y, t)`, or `None` when the
    /// coordinate is outside the grid — the bounds-checked read a query
    /// endpoint wants.
    pub fn density_checked(&self, x: usize, y: usize, t: usize) -> Option<f64> {
        if self.domain.dims().contains(x, y, t) {
            Some(self.density(x, y, t))
        } else {
            None
        }
    }

    /// Summary statistics of the **normalized** density inside a voxel
    /// box (clipped to the grid), without materializing a snapshot.
    ///
    /// `sum`, `max`, and `min` are scaled by `1/n`; `nonzero`/`total`
    /// count voxels and are scale-invariant. An empty cube reports the
    /// statistics of an all-zero region.
    pub fn density_range(&self, r: VoxelRange) -> GridStats {
        let mut s = stats::range_stats(&self.grid, r);
        if self.n == 0 {
            // No contributions: the accumulator is identically zero and the
            // estimator is defined as zero.
            if s.total > 0 {
                s.max = 0.0;
                s.min = 0.0;
            }
            return s;
        }
        let inv_n = 1.0 / self.n as f64;
        s.sum *= inv_n;
        s.max *= inv_n;
        s.min *= inv_n;
        s
    }

    /// The normalized time plane at `t` as a row-major `Gy × Gx` vector,
    /// or `None` when `t` is out of range.
    pub fn density_slice(&self, t: usize) -> Option<Vec<f64>> {
        if t >= self.domain.dims().gt {
            return None;
        }
        let inv_n = if self.n == 0 {
            0.0
        } else {
            1.0 / self.n as f64
        };
        Some(
            self.grid
                .time_slice(t)
                .iter()
                .map(|&v| v.to_f64() * inv_n)
                .collect(),
        )
    }

    /// Drop every contribution (reusing the allocation).
    pub fn clear(&mut self) {
        self.grid.clear_parallel();
        self.n = 0;
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pb_sym;
    use stkde_data::synth;
    use stkde_grid::GridDims;

    fn domain() -> Domain {
        Domain::from_dims(GridDims::new(24, 20, 16))
    }

    fn batch(points: &[Point]) -> Grid3<f64> {
        let problem = Problem::new(domain(), Bandwidth::new(3.0, 2.0), points.len());
        pb_sym::run::<f64, _>(&problem, &Epanechnikov, points).0
    }

    #[test]
    fn inserts_match_batch() {
        let points = synth::uniform(40, domain().extent(), 31).into_vec();
        let mut inc = IncrementalStkde::<f64>::new(domain(), Bandwidth::new(3.0, 2.0));
        for &p in &points {
            inc.insert(p);
        }
        assert_eq!(inc.len(), 40);
        let diff = batch(&points).max_rel_diff(&inc.snapshot(), 1e-13);
        assert!(diff < 1e-9, "diff {diff}");
    }

    #[test]
    fn remove_undoes_insert() {
        let points = synth::uniform(20, domain().extent(), 32).into_vec();
        let extra = Point::new(12.0, 10.0, 8.0);
        let mut inc = IncrementalStkde::<f64>::new(domain(), Bandwidth::new(3.0, 2.0));
        for &p in &points {
            inc.insert(p);
        }
        inc.insert(extra);
        inc.remove(&extra);
        assert_eq!(inc.len(), 20);
        let diff = batch(&points).max_rel_diff(&inc.snapshot(), 1e-12);
        assert!(diff < 1e-9, "removal must cancel: {diff}");
    }

    #[test]
    fn normalization_tracks_live_count() {
        // Density halves (at the untouched voxel) when an unrelated far
        // point doubles n.
        let mut inc = IncrementalStkde::<f64>::new(domain(), Bandwidth::new(2.0, 1.5));
        inc.insert(Point::new(5.0, 5.0, 4.0));
        let before = inc.density(5, 5, 4);
        assert!(before > 0.0);
        inc.insert(Point::new(20.0, 18.0, 14.0)); // outside the first cylinder
        let after = inc.density(5, 5, 4);
        assert!((after - before / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cube_reads_zero() {
        let inc = IncrementalStkde::<f64>::new(domain(), Bandwidth::new(3.0, 2.0));
        assert!(inc.is_empty());
        assert_eq!(inc.density(0, 0, 0), 0.0);
        assert!(inc.snapshot().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "empty cube")]
    fn remove_from_empty_panics() {
        let mut inc = IncrementalStkde::<f64>::new(domain(), Bandwidth::new(3.0, 2.0));
        inc.remove(&Point::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn clear_resets() {
        let mut inc = IncrementalStkde::<f64>::new(domain(), Bandwidth::new(3.0, 2.0));
        inc.insert(Point::new(12.0, 10.0, 8.0));
        inc.clear();
        assert!(inc.is_empty());
        assert_eq!(inc.density(12, 10, 8), 0.0);
    }

    #[test]
    fn insert_batch_matches_one_at_a_time() {
        let points = synth::uniform(50, domain().extent(), 36).into_vec();
        let mut single = IncrementalStkde::<f64>::new(domain(), Bandwidth::new(3.0, 2.0));
        for &p in &points {
            single.insert(p);
        }
        let mut batched = IncrementalStkde::<f64>::new(domain(), Bandwidth::new(3.0, 2.0));
        batched.insert_batch(&points);
        assert_eq!(batched.len(), 50);
        // Same points in the same order accumulate in the same order per
        // voxel: the cubes are bit-identical.
        assert_eq!(single.snapshot(), batched.snapshot());
        // One generation step for the whole batch vs. one per point.
        assert_eq!(batched.generation(), 1);
        assert_eq!(single.generation(), 50);
    }

    #[test]
    fn read_view_matches_snapshot() {
        let mut inc = IncrementalStkde::<f64>::new(domain(), Bandwidth::new(3.0, 2.0));
        inc.insert_batch(&synth::uniform(25, domain().extent(), 39).into_vec());
        let snap = inc.snapshot();
        // Voxel reads.
        assert_eq!(inc.density_checked(5, 5, 5), Some(snap.get(5, 5, 5)));
        assert_eq!(inc.density_checked(99, 0, 0), None);
        // Range aggregate over the normalized cube.
        let r = VoxelRange {
            x0: 2,
            x1: 14,
            y0: 1,
            y1: 11,
            t0: 3,
            t1: 9,
        };
        let got = inc.density_range(r);
        let want = stats::range_stats(&snap, r);
        assert!((got.sum - want.sum).abs() < 1e-12);
        assert!((got.max - want.max).abs() < 1e-15);
        assert_eq!(got.nonzero, want.nonzero);
        assert_eq!(got.total, want.total);
        // Time-plane export.
        let plane = inc.density_slice(6).unwrap();
        assert_eq!(plane, snap.time_slice(6).to_vec());
        assert!(inc.density_slice(16).is_none());
    }
}
