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
//! streaming "last 30 days" view is [`crate::ShardedWindowStkde`].
//!
//! **Exactness.** Both cubes store every voxel as an `i64` count of one
//! quantum `q = 2^(⌈log₂ peak⌉ − 35)`, `peak` being one cylinder's
//! largest contribution: each update adds its contribution rounded to
//! the nearest quantum (`stkde_grid::axpy_row_quanta`, the pre-rounding
//! of reproducible summation, Demmel & Nguyen 2013). Integer sums are
//! exact in any order, so a removal cancels its insert bit for bit and
//! the cube equals a fresh [`insert_batch`](IncrementalStkde::insert_batch)
//! of its live events. That holds while fewer than `2²⁸` events are live
//! ([`MAX_LIVE`], enforced): a voxel then holds at most `2⁶³ − 2³⁵`
//! quanta. Each contribution is within `q/2` of its unrounded value, and
//! every read converts once, to `(n·q)·(1/live)`.
//!
//! Every mutation advances a monotone *generation counter*
//! ([`IncrementalStkde::generation`]); equal generations mean
//! byte-identical cubes.

use crate::problem::Problem;
use crate::sharded::CylinderWriter;
use stkde_data::Point;
use stkde_grid::pyramid::CellStats;
use stkde_grid::{Bandwidth, Domain, Grid3, GridDims, GridStats, VoxelRange};
use stkde_kernels::{Epanechnikov, SpaceTimeKernel};

/// Bits between one cylinder's peak contribution and the quantum `q`.
const QUANTUM_BITS: i32 = 35;

/// Most events a cube holds live: one event adds at most `2³⁵` quanta to
/// a voxel, and removals run before inserts, so every partial voxel sum
/// fits in `i64` (module docs).
pub(crate) const MAX_LIVE: usize = (1 << 28) - 1;
const _: () = assert!((MAX_LIVE as u128) << QUANTUM_BITS <= i64::MAX as u128);

/// `m / q` for the rounding constant `m = 1.5·2⁵²·q`.
const M_OVER_Q: f64 = (3u64 << 51) as f64;

/// The unit problem: the estimator's `1/n` stripped (`n = 1` leaves
/// exactly `1/(hs²·ht)` in the folded norm), signed for insertion (+1)
/// or removal (−1).
pub(crate) fn unit_problem(domain: Domain, bw: Bandwidth, sign: f64) -> Problem {
    let mut p = Problem::new(domain, bw, 1);
    p.norm *= sign;
    p
}

/// The rounding constant `1.5·2⁵²·q` of `stkde_grid::axpy_row_quanta`,
/// with `peak` the kernel's value at the origin on the unit problem.
pub(crate) fn rounding_constant<K: SpaceTimeKernel>(
    domain: Domain,
    bw: Bandwidth,
    kernel: &K,
) -> f64 {
    let peak = unit_problem(domain, bw, 1.0).norm * kernel.spatial(0.0, 0.0) * kernel.temporal(0.0);
    debug_assert!(peak.is_normal() && peak > 0.0, "kernel peak {peak}");
    // ⌈log₂ peak⌉: the binary exponent, plus one unless peak is a power of two.
    let bits = peak.to_bits();
    let ceil_log2 = (bits >> 52) as i32 - 1023 + i32::from(bits & ((1 << 52) - 1) != 0);
    let q = f64::from_bits(((ceil_log2 - QUANTUM_BITS + 1023) as u64) << 52);
    M_OVER_Q * q
}

/// Quanta to density, the one conversion every read makes: a voxel of
/// `n` quanta reads `(n·q)·(1/live)`, and zero when nothing is live.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    q: f64,
    inv_n: f64,
}

impl Scale {
    /// The scale of a cube written with rounding constant `m`.
    pub(crate) fn new(m: f64, live: usize) -> Self {
        let inv_n = if live == 0 { 0.0 } else { 1.0 / live as f64 };
        Self {
            q: m / M_OVER_Q,
            inv_n,
        }
    }

    /// The normalized density of `n` quanta.
    pub(crate) fn voxel(self, n: i64) -> f64 {
        (n as f64 * self.q) * self.inv_n
    }

    /// Normalized statistics of a box of `total` voxels folded into `c`.
    pub(crate) fn stats(self, c: CellStats, total: usize) -> GridStats {
        if total == 0 {
            return GridStats {
                sum: 0.0,
                max: f64::NEG_INFINITY,
                min: f64::INFINITY,
                nonzero: 0,
                total,
            };
        }
        GridStats {
            sum: (c.sum as f64 * self.q) * self.inv_n,
            max: self.voxel(c.max),
            min: self.voxel(c.min),
            nonzero: c.nonzero,
            total,
        }
    }

    /// Slabs stacked in T order as one grid of unnormalized values `n·q`.
    pub(crate) fn values<'a>(
        self,
        dims: GridDims,
        slabs: impl Iterator<Item = &'a Grid3<i64>>,
    ) -> Grid3<f64> {
        let data = slabs.flat_map(Grid3::as_slice);
        Grid3::from_vec(dims, data.map(|&n| n as f64 * self.q).collect())
    }
}

/// An STKDE cube maintained under insertions and removals.
///
/// ```
/// use stkde_core::IncrementalStkde;
/// use stkde_data::Point;
/// use stkde_grid::{Bandwidth, Domain, GridDims};
///
/// let domain = Domain::from_dims(GridDims::new(32, 32, 16));
/// let mut cube = IncrementalStkde::new(domain, Bandwidth::new(4.0, 2.0));
/// let p = Point::new(16.0, 16.0, 8.0);
/// cube.insert(p);
/// assert!(cube.density(16, 16, 8) > 0.0);
/// cube.remove(&p);                        // Θ(Hs²·Ht), not a recompute
/// assert_eq!(cube.len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalStkde<K = Epanechnikov> {
    domain: Domain,
    bw: Bandwidth,
    kernel: K,
    /// Unnormalized accumulation `Σ ks·kt / (hs²·ht)` in quanta over the
    /// full grid.
    grid: Grid3<i64>,
    /// The window cube's writer, run as one band; its scatter buffers are
    /// reused across mutations.
    writer: CylinderWriter,
    n: usize,
    /// Monotone mutation counter: equal generations ⇒ identical cubes.
    generation: u64,
}

impl IncrementalStkde {
    /// Empty cube over `domain` with bandwidth `bw` and the default
    /// Epanechnikov kernel.
    pub fn new(domain: Domain, bw: Bandwidth) -> Self {
        Self::with_kernel(domain, bw, Epanechnikov)
    }
}

impl<K: SpaceTimeKernel> IncrementalStkde<K> {
    /// Empty cube with an explicit kernel.
    pub fn with_kernel(domain: Domain, bw: Bandwidth, kernel: K) -> Self {
        Self {
            domain,
            bw,
            grid: Grid3::zeros(domain.dims()),
            writer: CylinderWriter::new(domain, bw, &kernel),
            kernel,
            n: 0,
            generation: 0,
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

    fn scale(&self) -> Scale {
        Scale::new(self.writer.m(), self.n)
    }

    /// Subtract the rounded cylinders of `removals`, then add those of
    /// `inserts`, on the calling thread.
    fn apply(&mut self, removals: &[Point], inserts: &[Point]) {
        let grid = std::iter::once(&mut self.grid);
        self.writer.write(&self.kernel, grid, 1, removals, inserts);
    }

    /// Add one event's cylinder. `Θ(Hs²·Ht)`.
    pub fn insert(&mut self, p: Point) {
        self.insert_batch(&[p]);
    }

    /// Add many events' cylinders in one pass: `Θ(k·Hs²·Ht)` for `k`
    /// points, but with a single problem setup and a single generation
    /// step. This is the write-coalescing primitive a serving ingest
    /// thread uses to apply a whole drained batch per lock acquisition.
    ///
    /// # Panics
    /// Panics if more than `MAX_LIVE` points would contribute.
    pub fn insert_batch(&mut self, points: &[Point]) {
        if points.is_empty() {
            return;
        }
        assert!(
            self.n + points.len() <= MAX_LIVE,
            "at most MAX_LIVE = {MAX_LIVE} events may be live"
        );
        self.apply(&[], points);
        self.n += points.len();
        self.generation += 1;
    }

    /// Subtract one event's cylinder. `Θ(Hs²·Ht)`. The rounded writes
    /// make this cancel the event's insert bit for bit.
    ///
    /// The caller must only remove points previously inserted (the cube
    /// does not store them); removing anything else leaves the cube
    /// meaningless.
    ///
    /// # Panics
    /// Panics if the cube is empty.
    pub fn remove(&mut self, p: &Point) {
        assert!(self.n > 0, "remove from an empty cube");
        self.apply(std::slice::from_ref(p), &[]);
        self.n -= 1;
        self.generation += 1;
    }

    /// Normalized density at voxel `(x, y, t)` — the estimator
    /// `f̂ = unnormalized / n` (zero when empty).
    pub fn density(&self, x: usize, y: usize, t: usize) -> f64 {
        self.scale().voxel(self.grid.get(x, y, t))
    }

    /// The live unnormalized accumulation as values `n·q` — for
    /// conformance checks and footprint reporting; normalized queries go
    /// through [`density`](Self::density) and friends.
    pub fn assemble(&self) -> Grid3<f64> {
        let grid = &self.grid;
        self.scale().values(grid.dims(), std::iter::once(grid))
    }

    /// Materialize the normalized cube (equals a batch `PB-SYM` over the
    /// live points within `q/2` per contribution; see the module docs).
    pub fn snapshot(&self) -> Grid3<f64> {
        let scale = self.scale();
        let data = self.grid.as_slice().iter();
        Grid3::from_vec(self.domain.dims(), data.map(|&n| scale.voxel(n)).collect())
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
        let r = r.clipped(self.domain.dims());
        let mut c = CellStats::EMPTY;
        if !r.is_empty() {
            c.fold(&self.grid, r);
        }
        self.scale().stats(c, r.volume())
    }

    /// The normalized time plane at `t` as a row-major `Gy × Gx` vector,
    /// or `None` when `t` is out of range.
    pub fn density_slice(&self, t: usize) -> Option<Vec<f64>> {
        if t >= self.domain.dims().gt {
            return None;
        }
        let (scale, plane) = (self.scale(), self.grid.time_slice(t));
        Some(plane.iter().map(|&n| scale.voxel(n)).collect())
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
    use stkde_grid::stats;

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
        let mut inc = IncrementalStkde::new(domain(), Bandwidth::new(3.0, 2.0));
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
        let mut inc = IncrementalStkde::new(domain(), Bandwidth::new(3.0, 2.0));
        let mut never = IncrementalStkde::new(domain(), Bandwidth::new(3.0, 2.0));
        for &p in &points {
            inc.insert(p);
            never.insert(p);
        }
        inc.insert(extra);
        inc.remove(&extra);
        assert_eq!(inc.len(), 20);
        assert_eq!(
            inc.assemble(),
            never.assemble(),
            "removal must cancel bit for bit"
        );
    }

    #[test]
    fn quantum_sits_35_bits_below_the_peak() {
        for (hs, ht) in [(3.0, 2.0), (0.7, 5.0), (1000.0, 7.0)] {
            let bw = Bandwidth::new(hs, ht);
            let m = rounding_constant(domain(), bw, &Epanechnikov);
            let q = m / (3u64 << 51) as f64;
            assert_eq!(q.to_bits() & ((1 << 52) - 1), 0, "q must be a power of two");
            let peak = Problem::new(domain(), bw, 1).norm
                * Epanechnikov.spatial(0.0, 0.0)
                * Epanechnikov.temporal(0.0);
            let ratio = peak / q;
            assert!(ratio > (1u64 << 34) as f64 && ratio <= (1u64 << 35) as f64);
        }
        assert_eq!(MAX_LIVE, 268_435_455);
    }

    #[test]
    fn normalization_tracks_live_count() {
        // Density halves (at the untouched voxel) when an unrelated far
        // point doubles n.
        let mut inc = IncrementalStkde::new(domain(), Bandwidth::new(2.0, 1.5));
        inc.insert(Point::new(5.0, 5.0, 4.0));
        let before = inc.density(5, 5, 4);
        assert!(before > 0.0);
        inc.insert(Point::new(20.0, 18.0, 14.0)); // outside the first cylinder
        let after = inc.density(5, 5, 4);
        assert!((after - before / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cube_reads_zero() {
        let inc = IncrementalStkde::new(domain(), Bandwidth::new(3.0, 2.0));
        assert!(inc.is_empty());
        assert_eq!(inc.density(0, 0, 0), 0.0);
        assert!(inc.snapshot().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "empty cube")]
    fn remove_from_empty_panics() {
        let mut inc = IncrementalStkde::new(domain(), Bandwidth::new(3.0, 2.0));
        inc.remove(&Point::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn clear_resets() {
        let mut inc = IncrementalStkde::new(domain(), Bandwidth::new(3.0, 2.0));
        inc.insert(Point::new(12.0, 10.0, 8.0));
        inc.clear();
        assert!(inc.is_empty());
        assert_eq!(inc.density(12, 10, 8), 0.0);
    }

    #[test]
    fn insert_batch_matches_one_at_a_time() {
        let points = synth::uniform(50, domain().extent(), 36).into_vec();
        let mut single = IncrementalStkde::new(domain(), Bandwidth::new(3.0, 2.0));
        for &p in &points {
            single.insert(p);
        }
        let mut batched = IncrementalStkde::new(domain(), Bandwidth::new(3.0, 2.0));
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
        let mut inc = IncrementalStkde::new(domain(), Bandwidth::new(3.0, 2.0));
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Any interleaving of inserts and removes leaves the grid of a
        /// single `insert_batch` of the survivors, bit for bit.
        #[test]
        fn interleaving_equals_a_fresh_batch_of_survivors(
            seed in 0u64..1_000_000,
            ops in proptest::collection::vec((0usize..30, proptest::bool::ANY), 1..80),
        ) {
            let pool = synth::uniform(30, domain().extent(), seed).into_vec();
            let bw = Bandwidth::new(3.0, 2.0);
            let mut inc = IncrementalStkde::new(domain(), bw);
            let mut live: Vec<Point> = Vec::new();
            for (i, add) in ops {
                let p = pool[i];
                match live.iter().position(|q| *q == p) {
                    Some(at) if !add => {
                        inc.remove(&p);
                        live.swap_remove(at);
                    }
                    _ => {
                        inc.insert(p);
                        live.push(p);
                    }
                }
            }
            let mut fresh = IncrementalStkde::new(domain(), bw);
            fresh.insert_batch(&live);
            proptest::prop_assert_eq!(inc.len(), live.len());
            proptest::prop_assert!(inc.assemble() == fresh.assemble(), "grids differ");
        }
    }
}
