//! The sliding-window cube, sharded into temporal slabs (serve path).
//!
//! A streaming STKDE over the trailing `window` time units: events
//! arrive in non-decreasing time order, each push evicts what aged out
//! of the window, and reads see exactly the in-window events — the
//! "last 30 days" surveillance view. One cube behind one lock does not
//! scale (every long read blocks ingest and vice versa), so this module
//! gives each subdomain of a 1×1×K [`Decomposition`] — a T-axis slab,
//! the partition the distmem ranks use — its own shard, and separates
//! *writer state* from *published state*:
//!
//! - [`ShardedWindowStkde`] is writer-owned: one slab grid per shard,
//!   mutated in place. The slabs are the publish and epoch unit, not the
//!   write unit: a batch is written across *space*, by `CylinderWriter`.
//!   It cuts the grid into Y-bands (a 1×k×1 [`Decomposition`], `k` the
//!   rayon pool's width), and each band walks every cylinder once,
//!   clipped to its rows, writing each plane into the slab that owns it.
//!   Bands own disjoint rows of every layer, so no locks are involved. A
//!   T-cut would evaluate a cylinder's whole disk again in every slab it
//!   reaches (the replication overhead of `PB-SYM-DD`); a Y-cut repeats
//!   only the `2Ht+1` temporal factors and the axis tables. A batch too
//!   small to pay for a fork-join runs as one band on the writer thread.
//! - [`CubeSnapshot`] is the published copy-on-write view: after each
//!   batch the writer clones only the slabs whose *epoch* changed and
//!   reuses the untouched `Arc`s ([`ShardedWindowStkde::publish`]).
//!   A reader holding a snapshot sees one immutable, consistent cube —
//!   reads never block ingest and can never observe a torn state.
//!
//! **Bit-identity.** Every voxel is an `i64` count of one quantum, as in
//! [`IncrementalStkde`](crate::IncrementalStkde) (see
//! [`crate::incremental`]), so sums are exact and order-free and an
//! eviction cancels its insert bit for bit. The slabs partition the T
//! axis, the bands the Y axis, and per-voxel contributions are
//! clip-independent (the axis tables are indexed by global coordinates),
//! so after any history of batch splits, evictions, shard counts and
//! band counts the cube equals a fresh
//! [`IncrementalStkde::insert_batch`](crate::IncrementalStkde::insert_batch)
//! of the live events: a voxel no live cylinder reaches holds exactly
//! `0`. Box reads fold integer quanta, so the voxel fold
//! ([`CubeSnapshot::density_range`]) and the pyramid walk
//! ([`CubeSnapshot::density_range_walk`]) agree bit for bit, in any slab
//! order.
//!
//! **Exactness** holds at every live count the cube accepts:
//! [`push_batch`](ShardedWindowStkde::push_batch) refuses to hold more
//! than [`MAX_LIVE`] events, and every band applies a batch's evictions
//! before its inserts, so no partial sum exceeds that many peaks.
//!
//! **Epochs.** Each shard carries an epoch: the cube generation at its
//! last content change. Epochs are drawn from the monotone generation
//! counter, and a cube's slab layout is fixed when it is built, so an
//! `(t0, t1, epoch)` triple can never repeat with different contents —
//! which makes the triple (plus the live count `n`, which scales every
//! normalized read) a sound cache key: see
//! [`CubeSnapshot::cache_epoch_key`].

use crate::incremental::{rounding_constant, unit_problem, Scale, MAX_LIVE};
use crate::kernel_apply::{write_region, Scratch};
use crate::problem::Problem;
use rayon::prelude::*;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use stkde_data::Point;
use stkde_grid::pyramid::CellStats;
use stkde_grid::{
    axpy_row_quanta, Bandwidth, Decomp, Decomposition, Domain, Grid3, GridDims, GridStats,
    MipPyramid, VoxelRange,
};
use stkde_kernels::{Epanechnikov, SpaceTimeKernel};
use stkde_obs::names;

/// What [`ShardedWindowStkde::push_batch`] did with a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchPush {
    /// Batch events rasterized into the cube.
    pub inserted: usize,
    /// Previously stored events evicted by the batch.
    pub evicted: usize,
    /// Batch events that the batch itself aged out: already older than
    /// `newest.t - window`, so they were never rasterized at all —
    /// the insert+remove pair a per-event push would have paid.
    pub skipped: usize,
}

/// Hard ceiling on the shard count, bounding per-shard metric label
/// cardinality and publish bookkeeping. Grids rarely have more than a
/// few hundred T layers; past ~64 slabs the per-shard work is too small
/// to amortize the fan-out anyway.
pub(crate) const MAX_SHARDS: usize = 64;

/// Counted work, in cylinder bounding-box voxels, below which a batch is
/// written as one band on the calling thread. The value is a cut of
/// about 260 ops on the daemon's 13 × 13 × 9 box, the one the writer
/// was first measured with: its 50-event posts run inline and its
/// coalesced 2 000-event backlog batches fan out. It is not a measured
/// break-even. On a 2-vCPU VM one fork-join cost about 150 µs and one
/// such cylinder 1.2–1.4 µs, which puts the break-even nearer 175 000
/// voxels; no other cut has been measured.
const INLINE_BOX_VOXELS: usize = 400_000;

/// The window cubes' one write path: adds the `PB-SYM` cylinders of a
/// batch, in `i64` quanta, to T-ordered slab grids that together tile
/// the domain, cut into Y-bands. [`IncrementalStkde`](crate::IncrementalStkde)
/// writes its full grid through one too, as a single band.
#[derive(Debug, Clone)]
pub(crate) struct CylinderWriter {
    /// The unit problem signed for removal.
    remove: Problem,
    /// The unit problem signed for insertion.
    insert: Problem,
    /// The rounding constant of every write.
    m: f64,
    /// One scatter scratch per band, reused across batches.
    scratch: Vec<Scratch>,
}

impl CylinderWriter {
    pub(crate) fn new<K: SpaceTimeKernel>(domain: Domain, bw: Bandwidth, kernel: &K) -> Self {
        Self {
            remove: unit_problem(domain, bw, -1.0),
            insert: unit_problem(domain, bw, 1.0),
            m: rounding_constant(domain, bw, kernel),
            scratch: Vec::new(),
        }
    }

    /// The rounding constant the cube is written with.
    pub(crate) fn m(&self) -> f64 {
        self.m
    }

    /// Voxels in one unclipped cylinder's bounding box.
    fn box_voxels(&self) -> usize {
        let vbw = self.insert.vbw;
        (2 * vbw.hs + 1) * (2 * vbw.hs + 1) * (2 * vbw.ht + 1)
    }

    /// The grid-clipped region `p`'s cylinder writes.
    fn region(&self, p: &Point) -> VoxelRange {
        write_region(&self.insert, p, VoxelRange::full(self.insert.domain.dims()))
    }

    /// Subtract the cylinders of `removals`, then add those of `inserts`,
    /// over `slabs`, cut into `bands` Y-bands of a 1×k×1
    /// [`Decomposition`] (clamped to `Gy`). Every band walks every
    /// cylinder once, clipped to its rows, and writes each plane into the
    /// slab holding it; one band runs on the calling thread, more fork
    /// and join on the rayon pool. Each voxel gets the same quanta in the
    /// same order whatever the band count, so the result is bitwise the
    /// same.
    pub(crate) fn write<'g, K: SpaceTimeKernel>(
        &mut self,
        kernel: &K,
        slabs: impl IntoIterator<Item = &'g mut Grid3<i64>>,
        bands: usize,
        removals: &[Point],
        inserts: &[Point],
    ) {
        let dims = self.insert.domain.dims();
        let cut = Decomposition::new(dims, Decomp::new(1, bands.max(1), 1));
        let ranges: Vec<VoxelRange> = cut.ids().map(|id| cut.voxel_range(id)).collect();
        // Layers are T-major, so each band's rows of a layer are one
        // contiguous run: band `b` holds, per global layer, its rows.
        let mut rows: Vec<Vec<&mut [i64]>> =
            ranges.iter().map(|_| Vec::with_capacity(dims.gt)).collect();
        for slab in slabs {
            for mut layer in slab.as_mut_slice().chunks_mut(dims.gx * dims.gy) {
                for (band, r) in rows.iter_mut().zip(&ranges) {
                    let (own, rest) =
                        std::mem::take(&mut layer).split_at_mut((r.y1 - r.y0) * dims.gx);
                    band.push(own);
                    layer = rest;
                }
            }
        }
        if self.scratch.len() < ranges.len() {
            self.scratch.resize_with(ranges.len(), Scratch::default);
        }
        let Self {
            remove,
            insert,
            m,
            scratch,
        } = self;
        let (m, ops) = (*m, [(&*remove, removals), (&*insert, inserts)]);
        // The band walker: every removal, then every insert, clipped to
        // the band's rows.
        let walk =
            |((band, mut layers), scratch): ((VoxelRange, Vec<&mut [i64]>), &mut Scratch)| {
                for (problem, points) in ops {
                    for p in points {
                        let r = write_region(problem, p, band);
                        if r.is_empty() {
                            continue;
                        }
                        scratch.sym_rows(problem, kernel, p, r, |y, x0, ks, planes| {
                            let at = (y - band.y0) * dims.gx + x0;
                            for &(t, kt) in planes {
                                let row = &mut layers[t as usize][at..at + ks.len()];
                                axpy_row_quanta(row, ks, kt, m);
                            }
                        });
                    }
                }
                scratch.flush_tally();
            };
        let jobs: Vec<_> = ranges.into_iter().zip(rows).zip(scratch).collect();
        if jobs.len() == 1 {
            jobs.into_iter().for_each(walk);
        } else {
            jobs.into_par_iter().for_each(walk);
        }
    }
}

/// One shard's writer state: an offset slab of quanta, its epoch and its
/// share of the last batch.
#[derive(Debug, Clone)]
struct WriterShard {
    /// The owned slab in global coordinates: full X/Y, own T layers.
    slab: VoxelRange,
    /// The slab accumulator: layer `l` holds global layer `slab.t0 + l`.
    grid: Grid3<i64>,
    /// Cube generation at this shard's last content change.
    epoch: u64,
    /// Cylinder applications whose T-range met the slab, in the last batch.
    last_batch_ops: u64,
}

impl WriterShard {
    fn new(slab: VoxelRange) -> Self {
        Self {
            slab,
            grid: Grid3::zeros(GridDims::new(
                slab.width_x(),
                slab.width_y(),
                slab.width_t(),
            )),
            epoch: 0,
            last_batch_ops: 0,
        }
    }
}

/// One shard's published (immutable) slab: the copy-on-write unit.
#[derive(Debug)]
pub struct ShardPlanes {
    /// First global T layer held (inclusive).
    pub t0: usize,
    /// One past the last global T layer held.
    pub t1: usize,
    /// Cube generation at this slab's last content change.
    pub epoch: u64,
    /// The slab's quanta (layer `l` = global `t0 + l`).
    pub(crate) grid: Grid3<i64>,
    /// Lazily built mip pyramid and slices over this slab (the `/region`
    /// walk's index). Living inside the copy-on-write `Arc`, a
    /// built pyramid rides along with every snapshot that shares the
    /// slab — only slabs whose epoch moved get a fresh `ShardPlanes` and
    /// re-reduce on the next read that needs them.
    pyramid: OnceLock<Arc<MipPyramid>>,
}

impl ShardPlanes {
    fn new(t0: usize, t1: usize, epoch: u64, grid: Grid3<i64>) -> Self {
        Self {
            t0,
            t1,
            epoch,
            grid,
            pyramid: OnceLock::new(),
        }
    }

    /// The slab's mip pyramid, built (rayon-parallel) on first use and
    /// cached for the lifetime of this copy-on-write slab. Each build is
    /// one sample of `stkde_approx_pyramid_build_seconds`.
    pub fn pyramid(&self) -> &Arc<MipPyramid> {
        self.pyramid.get_or_init(|| {
            let start = Instant::now();
            let p = Arc::new(MipPyramid::build(&self.grid));
            stkde_obs::histogram!(names::APPROX_PYRAMID_BUILD_SECONDS)
                .observe(start.elapsed().as_secs_f64());
            p
        })
    }

    /// The pyramid if a previous read already built it.
    pub(crate) fn pyramid_if_built(&self) -> Option<&Arc<MipPyramid>> {
        self.pyramid.get()
    }
}

/// A region answer in the shape of the retired approximate tier: the
/// exact walk of [`CubeSnapshot::density_range_walk`], `level` 0 and the
/// caller's `error_bound`.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxRange {
    /// Normalized aggregates, exact.
    pub stats: GridStats,
    /// Always `0`: every region answer is exact.
    pub level: usize,
    /// The caller-supplied base error bound, passed through.
    pub error_bound: f64,
}

/// What [`CubeSnapshot::ensure_pyramids`] did (for build metrics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PyramidBuildReport {
    /// Slab pyramids built by this call (0 = all were already resident).
    pub built: usize,
    /// Wall seconds spent building.
    pub seconds: f64,
    /// Total resident pyramid bytes across all slabs after the call.
    pub bytes: usize,
}

/// An immutable, consistent view of the whole sharded cube, published
/// atomically by the writer after each batch. Cheap to hold: untouched
/// slabs are shared `Arc`s with the previous snapshot.
///
/// Read methods mirror [`crate::IncrementalStkde`] exactly (same
/// normalization, same empty-cube conventions) and are bit-identical to
/// its reads at the same state.
///
/// `S` is a marker that only `f64` implements, as on
/// [`ShardedWindowStkde`]; it goes once `benchmark/src/layers.rs` stops
/// naming it.
#[derive(Debug)]
pub struct CubeSnapshot<S> {
    domain: Domain,
    /// Live (in-window) event count — the estimator's `1/n`.
    n: usize,
    generation: u64,
    newest: Option<f64>,
    /// The rounding constant the slabs were written with.
    m: f64,
    shards: Vec<Arc<ShardPlanes>>,
    scalar: PhantomData<S>,
}

impl CubeSnapshot<f64> {
    /// The domain this snapshot discretizes.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Events inside the window at publish time.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no events contribute.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The cube generation this snapshot was published at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Arrival time of the newest in-window event at publish time.
    pub fn newest_time(&self) -> Option<f64> {
        self.newest
    }

    /// The published shard slabs, ascending in T.
    pub fn shards(&self) -> &[Arc<ShardPlanes>] {
        &self.shards
    }

    /// The shard owning global T layer `t` (`t` must be in range).
    fn owner(&self, t: usize) -> &ShardPlanes {
        &self.shards[self.shards.partition_point(|p| p.t1 <= t)]
    }

    fn scale(&self) -> Scale {
        Scale::new(self.m, self.n)
    }

    /// Normalized density at voxel `(x, y, t)` (zero when empty); the
    /// coordinates must be inside the grid.
    pub fn density(&self, x: usize, y: usize, t: usize) -> f64 {
        let plane = self.owner(t);
        self.scale().voxel(plane.grid.get(x, y, t - plane.t0))
    }

    /// Bounds-checked [`density`](Self::density), `None` outside the grid.
    pub fn density_checked(&self, x: usize, y: usize, t: usize) -> Option<f64> {
        if self.domain.dims().contains(x, y, t) {
            Some(self.density(x, y, t))
        } else {
            None
        }
    }

    /// Summary statistics of the normalized density inside a voxel box,
    /// clipped to the grid — bit-identical to
    /// [`crate::IncrementalStkde::density_range`] at the same state.
    pub fn density_range(&self, r: VoxelRange) -> GridStats {
        self.fold_range(r, |plane, local, c| c.fold(&plane.grid, local))
    }

    /// The aggregates of [`density_range`](Self::density_range), read
    /// through the slab mip pyramids (built lazily per touched slab). Each
    /// slab's box splits into its block-aligned middle, read at the
    /// coarsest levels that cover it, its faces, read from per-axis slice
    /// cells, and its edges and corners, the only voxels folded: a wide box
    /// costs a few hundred cell reads instead of O(volume) voxels.
    /// Bit-identical to `density_range` in every field.
    pub fn density_range_walk(&self, r: VoxelRange) -> GridStats {
        self.fold_range(r, |plane, local, c| {
            plane.pyramid().range_stats_into(&plane.grid, local, c)
        })
    }

    /// Clip `r`, run `fold` over each touched slab's slab-local sub-box
    /// through one integer accumulator, and normalize.
    fn fold_range(
        &self,
        r: VoxelRange,
        fold: impl Fn(&ShardPlanes, VoxelRange, &mut CellStats),
    ) -> GridStats {
        let r = r.clipped(self.domain.dims());
        let mut c = CellStats::EMPTY;
        if !r.is_empty() {
            for plane in self.touched(r.t0, r.t1) {
                let local = VoxelRange {
                    t0: r.t0.max(plane.t0) - plane.t0,
                    t1: r.t1.min(plane.t1) - plane.t0,
                    ..r
                };
                fold(plane, local, &mut c);
            }
        }
        self.scale().stats(c, r.volume())
    }

    /// The normalized time plane at `t` as a row-major `Gy × Gx` vector,
    /// or `None` when `t` is out of range.
    pub fn density_slice(&self, t: usize) -> Option<Vec<f64>> {
        if t >= self.domain.dims().gt {
            return None;
        }
        let (scale, plane) = (self.scale(), self.owner(t));
        let quanta = plane.grid.time_slice(t - plane.t0);
        Some(quanta.iter().map(|&n| scale.voxel(n)).collect())
    }

    /// Build any missing slab pyramids now (they are otherwise built
    /// lazily by the first read that needs them) and report what
    /// happened.
    pub fn ensure_pyramids(&self) -> PyramidBuildReport {
        let mut report = PyramidBuildReport {
            built: 0,
            seconds: 0.0,
            bytes: 0,
        };
        for plane in &self.shards {
            if plane.pyramid_if_built().is_none() {
                let start = Instant::now();
                let p = plane.pyramid();
                report.seconds += start.elapsed().as_secs_f64();
                report.built += 1;
                report.bytes += p.heap_bytes();
            } else {
                report.bytes += plane.pyramid().heap_bytes();
            }
        }
        report
    }

    /// Resident pyramid bytes across slabs (counting only pyramids some
    /// read has already built).
    pub fn pyramid_bytes(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|p| p.pyramid_if_built())
            .map(|p| p.heap_bytes())
            .sum()
    }

    /// [`density_range_walk`](Self::density_range_walk) under the
    /// signature `benchmark/src/layers.rs` times; `max_err` selects nothing.
    pub fn density_range_approx(&self, r: VoxelRange, _max_err: f64, base_err: f64) -> ApproxRange {
        ApproxRange {
            stats: self.density_range_walk(r),
            level: 0,
            error_bound: base_err,
        }
    }

    /// The shards whose slabs intersect global layers `[t0, t1)`, in
    /// ascending T order.
    pub fn touched(&self, t0: usize, t1: usize) -> impl Iterator<Item = &Arc<ShardPlanes>> {
        self.shards
            .iter()
            .filter(move |p| t0.max(p.t0) < t1.min(p.t1))
    }

    /// A cache key fragment pinning everything a normalized read over
    /// global layers `[t0, t1)` depends on: the live count `n` (every
    /// normalized value scales by `1/n`) and the `(t0, t1, epoch)` of
    /// each intersecting shard. Epochs are generations, which only grow,
    /// so a stale entry can never collide with a fresh key.
    /// Writes that only touch *other* slabs (and keep `n` unchanged)
    /// leave the key intact, which is the point: per-shard epoch keying
    /// survives foreign-shard ingest where a whole-cube generation key
    /// would invalidate everything.
    pub fn cache_epoch_key(&self, t0: usize, t1: usize) -> String {
        let mut key = format!("n{}", self.n);
        for plane in self.touched(t0, t1) {
            // Writing to a String cannot fail; ignore the fmt plumbing.
            let _ = write!(key, ",{}-{}@{}", plane.t0, plane.t1, plane.epoch);
        }
        key
    }

    /// Concatenate the slabs into one full grid of unnormalized values
    /// `n·q`. The layout is T-outermost, so this is a straight pass in
    /// shard order — used by conformance tests to compare published
    /// state against the sequential full grid with `Grid3`'s bit-exact
    /// equality.
    pub fn assemble(&self) -> Grid3<f64> {
        let slabs = self.shards.iter().map(|p| &p.grid);
        self.scale().values(self.domain.dims(), slabs)
    }
}

/// What a batch did to each shard (for per-shard ingest metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBatchStats {
    /// First global T layer of the shard.
    pub t0: usize,
    /// One past the last global T layer of the shard.
    pub t1: usize,
    /// The shard's current epoch.
    pub epoch: u64,
    /// Cylinder applications (evictions + inserts) that intersected the
    /// slab in the last batch.
    pub ops: u64,
}

/// A sliding-window STKDE cube sharded into temporal slabs, with
/// copy-on-write snapshot publication.
///
/// Events must arrive in non-decreasing time order (enforced); each
/// batch evicts events older than `newest.t - window`, and reads see
/// exactly the in-window events. Ingest writes each batch across
/// Y-bands of the grid in parallel (inline when the batch is small),
/// with voxel values bit-identical to a fresh sequential build of the
/// live events (see the module docs for the argument), and reads go
/// through published [`CubeSnapshot`]s instead of locking the writer.
///
/// `S` is a marker that only `f64` implements: voxels are `i64` quanta
/// and every read is `f64`. It goes once `benchmark/src/layers.rs` stops
/// naming `ShardedWindowStkde::<f64, _>`.
#[derive(Debug)]
pub struct ShardedWindowStkde<S, K = Epanechnikov> {
    domain: Domain,
    bw: Bandwidth,
    kernel: K,
    window: f64,
    shards: Vec<WriterShard>,
    points: VecDeque<Point>,
    generation: u64,
    /// The one write path: cuts each batch into Y-bands (module docs).
    writer: CylinderWriter,
    /// Y-bands the last batch was written in (0: it wrote nothing).
    last_bands: usize,
    /// Last published copy of each slab (`Arc`s shared with snapshots).
    published: Vec<Arc<ShardPlanes>>,
    scalar: PhantomData<S>,
}

impl ShardedWindowStkde<f64, Epanechnikov> {
    /// Empty sharded window with the default Epanechnikov kernel.
    /// `shards` is clamped to `[1, min(Gt, MAX_SHARDS)]`, so `shards = 1`
    /// is the degenerate single-slab cube and a request larger than the
    /// T axis cannot create empty slabs.
    ///
    /// # Panics
    /// Panics if `window` is not positive and finite.
    pub fn new(domain: Domain, bw: Bandwidth, window: f64, shards: usize) -> Self {
        Self::with_kernel(domain, bw, window, shards, Epanechnikov)
    }
}

impl<K: SpaceTimeKernel> ShardedWindowStkde<f64, K> {
    /// Empty sharded window with an explicit kernel (see [`new`](ShardedWindowStkde::new)).
    ///
    /// # Panics
    /// Panics if `window` is not positive and finite.
    pub fn with_kernel(
        domain: Domain,
        bw: Bandwidth,
        window: f64,
        shards: usize,
        kernel: K,
    ) -> Self {
        assert!(
            window > 0.0 && window.is_finite(),
            "window must be positive and finite"
        );
        // `Decomposition::new` caps the count at one slab per T layer.
        let slabs = Decomposition::new(
            domain.dims(),
            Decomp::new(1, 1, shards.clamp(1, MAX_SHARDS)),
        );
        Self {
            domain,
            bw,
            window,
            shards: slabs
                .ids()
                .map(|id| WriterShard::new(slabs.voxel_range(id)))
                .collect(),
            points: VecDeque::new(),
            generation: 0,
            writer: CylinderWriter::new(domain, bw, &kernel),
            last_bands: 0,
            published: Vec::new(),
            scalar: PhantomData,
            kernel,
        }
    }

    /// The domain this cube discretizes.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The bandwidths in use.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bw
    }

    /// The window length in time units.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Events currently inside the window.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the window holds no events.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Arrival time of the newest event, or `None` when empty.
    pub fn newest_time(&self) -> Option<f64> {
        self.points.back().map(|p| p.t)
    }

    /// Monotone mutation counter: one step per eviction and one per
    /// non-empty insert batch — wire-visible in `/stats` and `/healthz`.
    /// Equal generations mean bit-identical cubes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shard count, fixed when the cube is built.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard stats of the most recent batch (slab bounds, epoch,
    /// applied ops), for the serve tier's per-shard metrics.
    pub fn shard_batch_stats(&self) -> Vec<ShardBatchStats> {
        self.shards
            .iter()
            .map(|s| ShardBatchStats {
                t0: s.slab.t0,
                t1: s.slab.t1,
                epoch: s.epoch,
                ops: s.last_batch_ops,
            })
            .collect()
    }

    /// Y-bands the most recent [`push_batch`](Self::push_batch) was
    /// written in: 1 when it ran inline on the calling thread, more when
    /// it forked across the rayon pool, 0 after an empty batch.
    pub fn last_batch_bands(&self) -> usize {
        self.last_bands
    }

    /// Write `removals` then `inserts` across Y-bands and count, once per
    /// op, the slabs its cylinder's T-range meets (the epoch rule). A
    /// batch whose counted work is below [`INLINE_BOX_VOXELS`] runs as
    /// one band on this thread; a larger one takes a band per pool
    /// thread. Within a band the removals apply before the inserts,
    /// which keeps every partial sum within [`MAX_LIVE`] peaks (module
    /// docs). Returns the band count.
    fn apply_ops(&mut self, removals: &[Point], inserts: &[Point]) -> usize {
        for shard in &mut self.shards {
            shard.last_batch_ops = 0;
        }
        for p in removals.iter().chain(inserts) {
            let r = self.writer.region(p);
            if r.is_empty() {
                continue;
            }
            let first = self.shards.partition_point(|s| s.slab.t1 <= r.t0);
            for shard in self.shards[first..].iter_mut() {
                if shard.slab.t0 >= r.t1 {
                    break;
                }
                shard.last_batch_ops += 1;
            }
        }
        let work = (removals.len() + inserts.len()) * self.writer.box_voxels();
        let bands = if work < INLINE_BOX_VOXELS {
            1
        } else {
            rayon::current_num_threads()
        };
        let slabs = self.shards.iter_mut().map(|s| &mut s.grid);
        self.writer
            .write(&self.kernel, slabs, bands, removals, inserts);
        bands.min(self.domain.dims().gy)
    }

    /// Push a time-ordered batch of events in one coalesced pass.
    ///
    /// Equivalent to pushing each event on its own (the window contents
    /// and voxel values are identical), but cheaper:
    /// evictions are computed once against the *last* event's cutoff,
    /// batch events that would age out within the batch are skipped
    /// instead of being rasterized and immediately un-rasterized, and the
    /// survivors are inserted in one pass and one generation step. This
    /// is the unit of work a serving ingest thread applies per lock
    /// acquisition.
    ///
    /// # Panics
    /// Panics if the batch is not internally time-ordered, starts before
    /// the newest event already pushed, or would leave more than
    /// `MAX_LIVE` events live. The serve tier does not bound its live
    /// set yet; bounding it at admission turns that case into a 429.
    pub fn push_batch(&mut self, batch: &[Point]) -> BatchPush {
        let Some((first, last)) = batch.first().zip(batch.last()) else {
            for shard in &mut self.shards {
                shard.last_batch_ops = 0;
            }
            self.last_bands = 0;
            return BatchPush::default();
        };
        if let Some(prev) = self.points.back() {
            assert!(
                first.t >= prev.t,
                "stream must be time-ordered: got t={} after t={}",
                first.t,
                prev.t
            );
        }
        assert!(
            batch.windows(2).all(|w| w[0].t <= w[1].t),
            "batch must be time-ordered"
        );
        let cutoff = last.t - self.window;
        // The live set and the batch are sorted: evictions are a prefix,
        // survivors a suffix.
        let evict = self.points.partition_point(|p| p.t < cutoff);
        let skipped = batch.partition_point(|p| p.t < cutoff);
        let survivors = &batch[skipped..];
        assert!(
            self.points.len() - evict + survivors.len() <= MAX_LIVE,
            "at most MAX_LIVE = {MAX_LIVE} events may be live"
        );
        let out = BatchPush {
            inserted: survivors.len(),
            evicted: evict,
            skipped,
        };
        let evicted: Vec<Point> = self.points.drain(..evict).collect();
        self.last_bands = self.apply_ops(&evicted, survivors);
        // One step per eviction, one per non-empty insert batch.
        self.generation += out.evicted as u64;
        if !survivors.is_empty() {
            self.generation += 1;
        }
        // Content changed ⇒ new epoch, for every shard the batch wrote.
        for shard in self.shards.iter_mut().filter(|s| s.last_batch_ops > 0) {
            shard.epoch = self.generation;
        }
        self.points.extend(survivors.iter().copied());
        out
    }

    /// Publish the current state as an immutable [`CubeSnapshot`]:
    /// slabs whose epoch changed since the last publish are cloned,
    /// untouched slabs share their previous `Arc`. One pointer swap of
    /// the returned `Arc` hands readers a consistent whole-cube view.
    pub fn publish(&mut self) -> Arc<CubeSnapshot<f64>> {
        for (i, shard) in self.shards.iter().enumerate() {
            let current = self.published.get(i).map(|p| p.epoch);
            if current != Some(shard.epoch) {
                let plane = Arc::new(ShardPlanes::new(
                    shard.slab.t0,
                    shard.slab.t1,
                    shard.epoch,
                    shard.grid.clone(),
                ));
                if i < self.published.len() {
                    self.published[i] = plane;
                } else {
                    self.published.push(plane);
                }
            }
        }
        Arc::new(CubeSnapshot {
            domain: self.domain,
            n: self.points.len(),
            generation: self.generation,
            newest: self.newest_time(),
            m: self.writer.m(),
            shards: self.published.clone(),
            scalar: PhantomData,
        })
    }

    /// Total heap bytes across the writer slabs (the live cube size).
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.grid.heap_bytes()).sum()
    }

    /// Concatenate the writer slabs into one full grid of unnormalized
    /// values `n·q` (T-outermost layout makes this a straight pass) — the
    /// conformance hook for bit-exact comparison of writer state against
    /// the sequential full grid.
    pub fn assemble(&self) -> Grid3<f64> {
        let slabs = self.shards.iter().map(|s| &s.grid);
        Scale::new(self.writer.m(), self.len()).values(self.domain.dims(), slabs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IncrementalStkde;
    use stkde_data::synth;
    use stkde_grid::GridDims;

    fn domain() -> Domain {
        Domain::from_dims(GridDims::new(24, 20, 16))
    }

    fn bw() -> Bandwidth {
        Bandwidth::new(3.0, 2.0)
    }

    fn stream(n: usize, seed: u64) -> Vec<Point> {
        let mut points = synth::uniform(n, domain().extent(), seed).into_vec();
        points.sort_by(|a, b| a.t.total_cmp(&b.t));
        points
    }

    /// The window bookkeeping `push_batch` promises, on a bare live set:
    /// evict against the last event's cutoff, skip the batch's own aged
    /// events, and count one generation step per eviction plus one per
    /// non-empty insert.
    struct LiveSet {
        live: VecDeque<Point>,
        window: f64,
        generation: u64,
    }

    impl LiveSet {
        fn new(window: f64) -> Self {
            Self {
                live: VecDeque::new(),
                window,
                generation: 0,
            }
        }

        fn push_batch(&mut self, batch: &[Point]) -> BatchPush {
            let cutoff = batch.last().expect("non-empty batch").t - self.window;
            let mut out = BatchPush::default();
            while self.live.front().is_some_and(|old| old.t < cutoff) {
                self.live.pop_front();
                out.evicted += 1;
            }
            out.skipped = batch.partition_point(|p| p.t < cutoff);
            let survivors = &batch[out.skipped..];
            out.inserted = survivors.len();
            self.live.extend(survivors);
            self.generation += out.evicted as u64 + u64::from(!survivors.is_empty());
            out
        }

        /// What the cube must hold: one `insert_batch` of the live events.
        fn fresh(&self) -> IncrementalStkde {
            let mut cube = IncrementalStkde::new(domain(), bw());
            cube.insert_batch(&self.live.iter().copied().collect::<Vec<_>>());
            cube
        }
    }

    /// Drive the sharded window and the live set with identical batches
    /// and assert the cube equals a fresh build of the live events, bit
    /// for bit, after every step.
    fn conformance(shards: usize, window: f64, chunk: usize, seed: u64) {
        let points = stream(90, seed);
        let mut sharded = ShardedWindowStkde::<f64>::new(domain(), bw(), window, shards);
        let mut live = LiveSet::new(window);
        let mut last = sharded.generation();
        assert_eq!(last, 0);
        for batch in points.chunks(chunk) {
            let a = sharded.push_batch(batch);
            let b = live.push_batch(batch);
            assert_eq!(a, b, "batch accounting must agree");
            assert_eq!(sharded.len(), live.live.len());
            assert_eq!(sharded.generation(), live.generation);
            assert!(sharded.generation() > last, "a push must advance it");
            last = sharded.generation();
            assert_eq!(
                sharded.assemble(),
                live.fresh().assemble(),
                "cube must equal a fresh build (shards={shards})"
            );
        }
    }

    #[test]
    fn bit_identical_to_sequential_grid_across_shard_counts() {
        for shards in [1, 2, 3, 4, 7] {
            conformance(shards, 4.0, 13, 41);
        }
    }

    #[test]
    fn bit_identical_with_heavy_eviction() {
        conformance(4, 1.0, 7, 42);
    }

    #[test]
    fn snapshot_reads_match_sequential_grid_reads() {
        let points = stream(60, 43);
        let mut sharded = ShardedWindowStkde::<f64>::new(domain(), bw(), 5.0, 4);
        let mut live = LiveSet::new(5.0);
        for batch in points.chunks(11) {
            sharded.push_batch(batch);
            live.push_batch(batch);
        }
        let snap = sharded.publish();
        let full = &live.fresh();
        assert_eq!(snap.len(), full.len());
        assert_eq!(snap.generation(), live.generation);
        assert_eq!(snap.assemble(), full.assemble());
        // Voxel reads.
        for (x, y, t) in [(0, 0, 0), (12, 10, 8), (23, 19, 15), (5, 17, 3)] {
            assert_eq!(snap.density_checked(x, y, t), full.density_checked(x, y, t));
        }
        assert_eq!(snap.density_checked(99, 0, 0), None);
        // Range aggregates — bit-identical, including boxes spanning
        // shard boundaries.
        for r in [
            VoxelRange::full(domain().dims()),
            VoxelRange {
                x0: 2,
                x1: 14,
                y0: 1,
                y1: 11,
                t0: 3,
                t1: 9,
            },
            VoxelRange {
                x0: 0,
                x1: 24,
                y0: 0,
                y1: 20,
                t0: 7,
                t1: 8,
            },
        ] {
            assert_eq!(snap.density_range(r), full.density_range(r));
        }
        // Inverted box: empty stats, no panic.
        let inverted = VoxelRange {
            x0: 5,
            x1: 2,
            y0: 0,
            y1: 20,
            t0: 0,
            t1: 16,
        };
        assert_eq!(snap.density_range(inverted).total, 0);
        // Time planes.
        for t in 0..domain().dims().gt {
            assert_eq!(snap.density_slice(t), full.density_slice(t));
        }
        assert!(snap.density_slice(16).is_none());
    }

    #[test]
    fn publish_reuses_untouched_slabs() {
        let mut cube = ShardedWindowStkde::<f64>::new(domain(), bw(), 1e6, 4);
        // One event early in time: only the first shard(s) change.
        cube.push_batch(&[Point::new(12.0, 10.0, 1.0)]);
        let a = cube.publish();
        cube.push_batch(&[Point::new(12.0, 10.0, 1.5)]);
        let b = cube.publish();
        assert!(
            Arc::ptr_eq(&a.shards()[3], &b.shards()[3]),
            "untouched slab must be shared, not copied"
        );
        assert!(
            !Arc::ptr_eq(&a.shards()[0], &b.shards()[0]),
            "touched slab must be copied"
        );
        // The old snapshot still reads its own state.
        assert!(a.generation() < b.generation());
    }

    #[test]
    fn epoch_key_ignores_foreign_slab_writes_only_when_n_is_stable() {
        let dims = domain().dims();
        let mut cube = ShardedWindowStkde::<f64>::new(domain(), bw(), 2.0, 4);
        cube.push_batch(&[Point::new(12.0, 10.0, 1.0)]);
        cube.push_batch(&[Point::new(12.0, 10.0, 2.0)]);
        let k0 = cube.publish().cache_epoch_key(12, dims.gt);
        // Evict one + insert one, both far from the last shard: n stays
        // 2 and the last shard's slab is untouched -> key unchanged.
        cube.push_batch(&[Point::new(12.0, 10.0, 3.3)]);
        let snap = cube.publish();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.cache_epoch_key(12, dims.gt), k0);
        // An insert without eviction changes n -> key must change even
        // though the last shard is still untouched.
        cube.push_batch(&[Point::new(12.0, 10.0, 3.4)]);
        assert_ne!(cube.publish().cache_epoch_key(12, dims.gt), k0);
    }

    #[test]
    fn shard_requests_clamp_to_one_and_to_the_t_axis() {
        let count =
            |shards| ShardedWindowStkde::<f64>::new(domain(), bw(), 6.0, shards).shard_count();
        for shards in [4, 1, 3] {
            assert_eq!(count(shards), shards);
        }
        // Requests are clamped, never zero, never past the T axis.
        assert_eq!(count(0), 1);
        assert_eq!(count(1000), domain().dims().gt.min(MAX_SHARDS));
    }

    /// Assert the region walk equals the voxel fold over `r`, every
    /// field bitwise.
    fn assert_walk_matches_fold(snap: &CubeSnapshot<f64>, r: VoxelRange) {
        let (walk, fold) = (snap.density_range_walk(r), snap.density_range(r));
        assert_eq!(walk.sum.to_bits(), fold.sum.to_bits(), "sum over {r:?}");
        assert_eq!(walk.max.to_bits(), fold.max.to_bits(), "max over {r:?}");
        assert_eq!(walk.min.to_bits(), fold.min.to_bits(), "min over {r:?}");
        assert_eq!(walk.nonzero, fold.nonzero, "nonzero over {r:?}");
        assert_eq!(walk.total, fold.total, "total over {r:?}");
    }

    #[test]
    fn region_walk_equals_fold_across_shards_empty_cube_and_eviction() {
        let boxes = [
            VoxelRange::full(domain().dims()),
            VoxelRange {
                x0: 3,
                x1: 21,
                y0: 2,
                y1: 17,
                t0: 1,
                t1: 14,
            },
            VoxelRange {
                x0: 8,
                x1: 16,
                y0: 8,
                y1: 16,
                t0: 7,
                t1: 9,
            },
            VoxelRange {
                x0: 0,
                x1: 24,
                y0: 0,
                y1: 20,
                t0: 7,
                t1: 8,
            },
            VoxelRange {
                x0: 5,
                x1: 6,
                y0: 7,
                y1: 8,
                t0: 11,
                t1: 12,
            },
        ];
        let mut snaps = Vec::new();
        for shards in [1, 3, 4, 7] {
            let mut cube = ShardedWindowStkde::<f64>::new(domain(), bw(), 8.0, shards);
            cube.push_batch(&stream(80, 45));
            snaps.push(cube.publish());
        }
        // No events: the estimator reads zero everywhere.
        snaps.push(ShardedWindowStkde::<f64>::new(domain(), bw(), 8.0, 4).publish());
        // Heavy eviction: the zeros where events aged out are exact.
        let mut cube = ShardedWindowStkde::<f64>::new(domain(), bw(), 1.0, 4);
        for batch in stream(90, 42).chunks(7) {
            cube.push_batch(batch);
        }
        snaps.push(cube.publish());
        for snap in &snaps {
            for r in boxes {
                assert_walk_matches_fold(snap, r);
            }
        }
        // The benchmark's entry point is the same walk.
        let full = VoxelRange::full(domain().dims());
        assert_eq!(
            snaps[0].density_range_approx(full, 0.1, 0.0),
            ApproxRange {
                stats: snaps[0].density_range_walk(full),
                level: 0,
                error_bound: 0.0,
            }
        );
    }

    #[test]
    fn pyramids_ride_cow_slabs_across_publishes() {
        let mut cube = ShardedWindowStkde::<f64>::new(domain(), bw(), 1e6, 4);
        cube.push_batch(&[Point::new(12.0, 10.0, 1.0)]);
        let a = cube.publish();
        let report = a.ensure_pyramids();
        assert_eq!(report.built, 4);
        assert!(report.bytes > 0);
        assert_eq!(a.pyramid_bytes(), report.bytes);
        // Re-ensuring is free.
        assert_eq!(a.ensure_pyramids().built, 0);
        // An early-time write touches only the first slab: the other
        // slabs' pyramids ride their shared Arcs into the next snapshot,
        // and only the touched slab re-reduces.
        cube.push_batch(&[Point::new(12.0, 10.0, 1.5)]);
        let b = cube.publish();
        assert!(b.shards()[3].pyramid_if_built().is_some());
        assert!(b.shards()[0].pyramid_if_built().is_none());
        assert_eq!(b.ensure_pyramids().built, 1);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order_batches() {
        let mut cube = ShardedWindowStkde::<f64>::new(domain(), bw(), 2.0, 4);
        cube.push_batch(&[Point::new(1.0, 1.0, 3.0)]);
        cube.push_batch(&[Point::new(1.0, 1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_unsorted_batch() {
        let mut cube = ShardedWindowStkde::<f64>::new(domain(), bw(), 2.0, 4);
        cube.push_batch(&[Point::new(1.0, 1.0, 3.0), Point::new(1.0, 1.0, 1.0)]);
    }

    #[test]
    fn push_reports_evictions_and_in_batch_age_outs() {
        let mut cube = ShardedWindowStkde::<f64>::new(domain(), bw(), 2.0, 3);
        assert_eq!(cube.push_batch(&[Point::new(5.0, 5.0, 0.5)]).evicted, 0);
        assert_eq!(cube.push_batch(&[Point::new(6.0, 6.0, 1.0)]).evicted, 0);
        // t=4: cutoff 2.0 evicts both earlier events.
        assert_eq!(cube.push_batch(&[Point::new(7.0, 7.0, 4.0)]).evicted, 2);
        assert_eq!(cube.len(), 1);
        // A batch spanning 6 time units over a window of 2: its early
        // events never get rasterized.
        let r = cube.push_batch(&[
            Point::new(5.0, 5.0, 4.5),
            Point::new(6.0, 6.0, 5.0),
            Point::new(7.0, 7.0, 10.0),
        ]);
        assert_eq!(
            r,
            BatchPush {
                inserted: 1,
                evicted: 1,
                skipped: 2
            }
        );
        assert_eq!(cube.len(), 1);
    }

    #[test]
    fn empty_batch_changes_nothing_and_publish_shares_every_slab() {
        // The daemon's writer pushes an empty slice for every all-stale
        // POST, then publishes.
        let mut cube = ShardedWindowStkde::<f64>::new(domain(), bw(), 4.0, 4);
        cube.push_batch(&stream(30, 47));
        let before = cube.publish();
        let epochs = |c: &ShardedWindowStkde<f64>| -> Vec<u64> {
            c.shard_batch_stats().iter().map(|s| s.epoch).collect()
        };
        let (g, e) = (cube.generation(), epochs(&cube));
        assert_eq!(cube.push_batch(&[]), BatchPush::default());
        assert_eq!(cube.generation(), g);
        assert_eq!(epochs(&cube), e);
        assert!(cube.shard_batch_stats().iter().all(|s| s.ops == 0));
        let after = cube.publish();
        assert_eq!(after.generation(), before.generation());
        for (a, b) in before.shards().iter().zip(after.shards()) {
            assert!(Arc::ptr_eq(a, b), "an empty batch must not copy a slab");
        }
    }

    #[test]
    fn push_batch_matches_per_event_pushes() {
        let points = stream(80, 37);
        let mut seq = ShardedWindowStkde::<f64>::new(domain(), bw(), 3.0, 4);
        for p in &points {
            seq.push_batch(std::slice::from_ref(p));
        }
        let mut bat = ShardedWindowStkde::<f64>::new(domain(), bw(), 3.0, 4);
        let mut inserted = 0;
        let mut skipped = 0;
        for chunk in points.chunks(17) {
            let r = bat.push_batch(chunk);
            inserted += r.inserted;
            skipped += r.skipped;
        }
        assert_eq!(inserted + skipped, points.len());
        assert_eq!(bat.len(), seq.len());
        assert_eq!(bat.points, seq.points, "window contents must agree");
        assert_eq!(bat.assemble(), seq.assemble(), "batched push diverges");
    }

    /// Past `2¹⁸` live events a float cube of the same quanta rounds its
    /// sums; the integer cube still equals a fresh build of its live
    /// events, and the `/region` walk still equals the fold.
    #[test]
    fn stays_a_fresh_build_past_a_quarter_million_live_events() {
        let domain = Domain::from_dims(GridDims::new(6, 6, 4));
        let bw = Bandwidth::new(2.0, 2.0);
        let mut cube = ShardedWindowStkde::<f64>::new(domain, bw, 0.02, 2);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut jitter = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.02
        };
        let events: Vec<Point> = (0..600_000)
            .map(|i| Point::new(3.5 + jitter(), 3.5 + jitter(), 1.5 + i as f64 * 5e-8))
            .collect();
        for batch in events.chunks(1024) {
            cube.push_batch(batch);
        }
        assert!(cube.len() > 1 << 18, "live {}", cube.len());
        let mut fresh = IncrementalStkde::new(domain, bw);
        fresh.insert_batch(&cube.points.iter().copied().collect::<Vec<_>>());
        assert_eq!(cube.assemble(), fresh.assemble());
        assert_walk_matches_fold(&cube.publish(), VoxelRange::full(domain.dims()));
    }

    /// The per-slab rule a batch's shard stats follow: a shard's ops are
    /// the batch's cylinders whose region, clipped to its slab, is not
    /// empty.
    fn slab_ops(domain: Domain, bw: Bandwidth, slab: VoxelRange, ops: &[Point]) -> u64 {
        let problem = unit_problem(domain, bw, 1.0);
        ops.iter()
            .filter(|p| !write_region(&problem, p, slab).is_empty())
            .count() as u64
    }

    /// Drive a cube, on a rayon pool whose width sets the band count of
    /// its forking batches, through batches on both sides of the inline
    /// cut, with evictions. After every step the cube must be a fresh
    /// build of its live events bit for bit, and each shard's ops and
    /// epoch must follow the per-slab rule.
    fn band_conformance(dims: GridDims, bw: Bandwidth, shards: usize, seed: u64) {
        let bands = rayon::current_num_threads();
        let domain = Domain::from_dims(dims);
        let window = dims.gt as f64 / 4.0;
        let writer = CylinderWriter::new(domain, bw, &Epanechnikov);
        let cut = INLINE_BOX_VOXELS / writer.box_voxels();
        // Event counts below, at and well above the cut, and tiny ones.
        let sizes = [cut / 3, cut + 1, 5, 2 * cut, cut / 2, 9];
        let mut points = synth::uniform(sizes.iter().sum(), domain.extent(), seed).into_vec();
        points.sort_by(|a, b| a.t.total_cmp(&b.t));
        let mut cube = ShardedWindowStkde::<f64>::new(domain, bw, window, shards);
        let mut live: VecDeque<Point> = VecDeque::new();
        let fresh = |live: &VecDeque<Point>| {
            let mut fresh = IncrementalStkde::new(domain, bw);
            fresh.insert_batch(&live.iter().copied().collect::<Vec<_>>());
            fresh.assemble()
        };
        let (mut sides, mut evicted) = ([false; 2], 0);
        let mut rest = &points[..];
        for (step, &n) in sizes.iter().enumerate() {
            let (batch, tail) = rest.split_at(n);
            rest = tail;
            let epochs: Vec<u64> = cube.shard_batch_stats().iter().map(|s| s.epoch).collect();
            let pushed = cube.push_batch(batch);
            evicted += pushed.evicted;
            let mut ops: Vec<Point> = live.drain(..pushed.evicted).collect();
            let survivors = &batch[pushed.skipped..];
            ops.extend_from_slice(survivors);
            live.extend(survivors);
            let forks = ops.len() * writer.box_voxels() >= INLINE_BOX_VOXELS;
            sides[usize::from(forks)] = true;
            let want_bands = if forks { bands.min(dims.gy) } else { 1 };
            assert_eq!(cube.last_batch_bands(), want_bands, "step {step}");
            for (s, e0) in cube.shard_batch_stats().iter().zip(epochs) {
                let slab = VoxelRange {
                    t0: s.t0,
                    t1: s.t1,
                    ..VoxelRange::full(dims)
                };
                let want = slab_ops(domain, bw, slab, &ops);
                assert_eq!(s.ops, want, "step {step}: ops of slab {}..{}", s.t0, s.t1);
                let epoch = if want > 0 { cube.generation() } else { e0 };
                assert_eq!(
                    s.epoch, epoch,
                    "step {step}: epoch of slab {}..{}",
                    s.t0, s.t1
                );
            }
            assert_eq!(cube.len(), live.len());
            assert!(
                cube.assemble() == fresh(&live),
                "step {step}: {bands} bands on {dims:?} differ from a fresh build"
            );
        }
        assert!(sides[0] && sides[1], "both sides of the cut must run");
        assert!(evicted > 0, "the stream must evict");
    }

    #[test]
    fn band_writer_equals_a_fresh_build_at_every_band_count() {
        for bands in 1..=5 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(bands)
                .build()
                .unwrap();
            pool.install(|| {
                // The daemon's cube, and an uneven grid whose bands, slabs
                // and rows do not divide evenly.
                band_conformance(GridDims::new(64, 64, 32), Bandwidth::new(6.0, 4.0), 4, 51);
                band_conformance(GridDims::new(41, 37, 23), Bandwidth::new(4.0, 3.0), 3, 52);
            });
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Exactness: whatever the stream, batch split, window and shard
        /// count, the cube equals a fresh build of its live events bit
        /// for bit after every step, and a window that has evicted
        /// everything holds only `0.0`.
        #[test]
        fn any_history_equals_a_fresh_build_of_the_live_events(
            seed in 0u64..1_000_000,
            n in 1usize..120,
            window in 0.25f64..8.0,
            shards in 1usize..8,
            cuts in proptest::collection::vec(1usize..20, 1..12),
        ) {
            let points = stream(n, seed);
            let mut cube = ShardedWindowStkde::<f64>::new(domain(), bw(), window, shards);
            let mut live = LiveSet::new(window);
            let mut rest = &points[..];
            for step in 0.. {
                if rest.is_empty() {
                    break;
                }
                let (batch, tail) = rest.split_at(cuts[step % cuts.len()].min(rest.len()));
                rest = tail;
                proptest::prop_assert_eq!(cube.push_batch(batch), live.push_batch(batch));
                proptest::prop_assert!(
                    cube.assemble() == live.fresh().assemble(),
                    "step {step}: cube differs from a fresh build"
                );
            }
            // An event past the grid's last layer reaches no voxel, and
            // its cutoff evicts every event still live.
            let t = domain().extent().max[2] + window + 2.0 * bw().ht;
            cube.push_batch(&[Point::new(12.0, 10.0, t)]);
            proptest::prop_assert_eq!(cube.len(), 1);
            proptest::prop_assert!(cube.assemble().as_slice().iter().all(|&v| v.to_bits() == 0));
        }
    }
}
