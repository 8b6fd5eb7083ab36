//! The per-point scatter engine shared by every point-based algorithm.
//!
//! Each function scatters one event's density cylinder into the grid,
//! restricted to a clip range (the full grid for undecomposed algorithms,
//! a subdomain for `PB-SYM-DD`). The four variants mirror the paper's §3:
//!
//! | function | spatial kernel evaluated | temporal kernel evaluated |
//! |---|---|---|
//! | [`apply_point_pb`]   | per voxel | per voxel |
//! | [`apply_point_disk`] | once per (X, Y) | once per T-plane |
//! | [`apply_point_bar`]  | per voxel | once per T |
//! | [`apply_point_sym`]  | once per (X, Y) | once per T |
//!
//! # The scatter engine
//!
//! The hoisted variants share one engine built from three observations:
//!
//! 1. **Separable geometry.** The normalized offsets `u`, `v`, `w` each
//!    depend on a single axis, so the engine precomputes per-axis tables
//!    `u[X]`, `v[Y]`, `w[T]` once per point ([`Scratch::fill_axes`]) —
//!    `O(W+H+T)` work instead of the `O(W·H)` per-voxel `voxel_center`/
//!    `uv` calls a naive rasterizer pays.
//! 2. **Span clipping.** The spatial support is the open unit disk, so
//!    each Y-row's nonzero X-span (its *chord*) follows analytically from
//!    `u² + v² < 1` ([`Scratch::fill_chords`]). Iterating only the chord
//!    skips the ≈21% of the bounding box that is guaranteed zero and
//!    shrinks the written region. Chords are widened by one voxel per
//!    side so float rounding can never drop an in-support voxel; the
//!    extra entries evaluate to kernel value 0 and add exact zeros.
//! 3. **Native-scalar invariants.** The disk `Ks[X][Y]` (normalization
//!    folded in) and bar `Kt[T]` are converted to the grid scalar `S`
//!    once per point, so the inner loop is a pure
//!    `row[X] += Ks[X] · Kt` over stride-1 memory
//!    ([`stkde_grid::axpy_row`]) with no `f64 → S` conversion per
//!    element — the conversion that otherwise blocks `f32`
//!    autovectorization.
//!
//! All writes go through [`SharedGrid`]; the **safety contract** is that
//! the caller holds exclusive access to the clipped cylinder region
//! (single-threaded use, disjoint subdomains, or stencil-scheduled
//! subdomains — see `stkde_grid::shared`). The safe entry points
//! ([`apply_points_seq`], [`apply_points_seq_with`]) wrap an exclusive
//! `&mut Grid3`.

use crate::problem::Problem;
use stkde_data::Point;
use stkde_grid::{axpy_row, Grid3, Scalar, SharedGrid, VoxelRange};
use stkde_kernels::SpaceTimeKernel;

/// One Y-row's nonzero X-span inside the write region: voxels
/// `x ∈ [x0, x1)` with the packed disk values starting at `off`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chord {
    /// Inclusive start (absolute grid X).
    pub(crate) x0: u32,
    /// Exclusive end (absolute grid X).
    pub(crate) x1: u32,
    /// Start of this row's values in the packed disk buffer.
    pub(crate) off: u32,
}

impl Chord {
    #[inline(always)]
    pub(crate) fn is_empty(&self) -> bool {
        self.x0 >= self.x1
    }

    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        (self.x1 - self.x0) as usize
    }
}

/// Reusable per-worker buffers holding one point's precomputed scatter
/// state: axis offset tables, per-row chords, and the kernel invariants in
/// the grid's native scalar. Reusing one `Scratch` across points (and
/// batches — see [`apply_points_seq_with`]) keeps the hot path free of
/// heap allocation.
#[derive(Debug, Default, Clone)]
pub struct Scratch<S = f64> {
    /// `u[X - r.x0] = (cx − px)/hs` — spatial offset along X.
    pub(crate) u: Vec<f64>,
    /// `v[Y - r.y0] = (cy − py)/hs` — spatial offset along Y.
    pub(crate) v: Vec<f64>,
    /// `w[T - r.t0] = (ct − pt)/ht` — temporal offset along T.
    pub(crate) w: Vec<f64>,
    /// Per-Y-row nonzero X-spans.
    pub(crate) chords: Vec<Chord>,
    /// Packed chord values `Ks · norm`, native scalar.
    pub(crate) disk: Vec<S>,
    /// Temporal invariant `Kt[T]` (f64 — used for exact zero tests).
    pub(crate) bar: Vec<f64>,
    /// The nonzero planes of the bar as `(absolute T, Kt)` pairs, `Kt`
    /// converted to the native scalar once per point. Zero planes are
    /// dropped here so the scatter loop never branches on them.
    pub(crate) planes: Vec<(u32, S)>,
}

impl<S: Scalar> Scratch<S> {
    /// Fill the per-axis offset tables for point `p` over region `r` —
    /// `O(W+H+T)` geometry replacing per-voxel `voxel_center` calls.
    ///
    /// The expressions mirror [`Problem::uv`] / [`Problem::w`] exactly, so
    /// table entries are bitwise identical to the per-voxel evaluation.
    pub(crate) fn fill_axes(&mut self, problem: &Problem, p: &Point, r: VoxelRange) {
        let domain = &problem.domain;
        let (hs, ht) = (problem.bw.hs, problem.bw.ht);
        self.u.clear();
        self.u
            .extend((r.x0..r.x1).map(|x| (domain.voxel_center(x, 0, 0)[0] - p.x) / hs));
        self.v.clear();
        self.v
            .extend((r.y0..r.y1).map(|y| (domain.voxel_center(0, y, 0)[1] - p.y) / hs));
        self.w.clear();
        self.w
            .extend((r.t0..r.t1).map(|t| (domain.voxel_center(0, 0, t)[2] - p.t) / ht));
    }

    /// Compute each Y-row's chord `[x0, x1)` from the unit-disk support:
    /// the in-support voxels of row `y` satisfy `u(x)² + v(y)² < 1`, and
    /// `u` is affine in `x`, so the bounds are two closed-form divisions.
    /// Bounds are widened by up to a voxel per side (floor/ceil) so float
    /// rounding can only add guaranteed-zero entries, never drop support.
    ///
    /// Requires [`fill_axes`](Self::fill_axes) for the `v` table.
    pub(crate) fn fill_chords(&mut self, problem: &Problem, p: &Point, r: VoxelRange) {
        // u(x) crosses ±umax at x = center ± umax·hs/sres.
        let center = problem.domain.frac_voxel_x(p.x);
        let hs_vox = problem.bw.hs / problem.domain.resolution().sres;
        self.chords.clear();
        for &v in &self.v {
            let d = 1.0 - v * v;
            if d <= 0.0 {
                // Whole row is outside the disk (u² + v² ≥ 1 for any u).
                self.chords.push(Chord::default());
                continue;
            }
            let half = d.sqrt() * hs_vox;
            let lo = (center - half).floor();
            let hi = (center + half).ceil();
            let x0 = if lo <= r.x0 as f64 { r.x0 } else { lo as usize };
            let x1 = if hi + 1.0 >= r.x1 as f64 {
                r.x1
            } else {
                hi as usize + 1
            };
            self.chords.push(Chord {
                x0: x0 as u32,
                x1: x1.max(x0) as u32,
                off: 0,
            });
        }
    }

    /// Evaluate the spatial invariant `Ks · norm` over the chords into the
    /// packed `disk` buffer (native scalar, converted once per entry here
    /// rather than once per voxel update in the T loop).
    ///
    /// Requires [`fill_axes`](Self::fill_axes) and
    /// [`fill_chords`](Self::fill_chords).
    pub(crate) fn fill_disk<K: SpaceTimeKernel>(&mut self, kernel: &K, r: VoxelRange, norm: f64) {
        let Self {
            u, v, chords, disk, ..
        } = self;
        disk.clear();
        for (c, &vv) in chords.iter_mut().zip(v.iter()) {
            c.off = disk.len() as u32;
            if c.is_empty() {
                continue;
            }
            let urow = &u[c.x0 as usize - r.x0..c.x1 as usize - r.x0];
            disk.extend(
                urow.iter()
                    .map(|&uu| S::from_f64(kernel.spatial(uu, vv) * norm)),
            );
        }
    }

    /// Evaluate the temporal invariant `Kt[T]`, keeping the `f64` values
    /// (for exact zero tests) and the packed nonzero-plane list with the
    /// native-scalar conversion.
    ///
    /// Requires [`fill_axes`](Self::fill_axes).
    pub(crate) fn fill_bar<K: SpaceTimeKernel>(&mut self, kernel: &K) {
        let Self { w, bar, .. } = self;
        bar.clear();
        bar.extend(w.iter().map(|&ww| kernel.temporal(ww)));
    }

    /// Pack the nonzero planes of the bar as `(absolute T, Kt)` pairs in
    /// the native scalar — the form [`scatter_rows`] consumes. Separate
    /// from [`fill_bar`](Self::fill_bar) because consumers that do their
    /// own T loop in `f64` (the sparse backend) only need the bar.
    pub(crate) fn fill_planes(&mut self, r: VoxelRange) {
        let Self { bar, planes, .. } = self;
        planes.clear();
        planes.extend(
            bar.iter()
                .enumerate()
                .filter(|&(_, &kt)| kt != 0.0)
                .map(|(ti, &kt)| ((r.t0 + ti) as u32, S::from_f64(kt))),
        );
    }

    /// Prepare the full `PB-SYM` state (axes, chords, disk, bar) for one
    /// point over region `r`.
    pub(crate) fn prepare_sym<K: SpaceTimeKernel>(
        &mut self,
        problem: &Problem,
        kernel: &K,
        p: &Point,
        r: VoxelRange,
    ) {
        self.fill_axes(problem, p, r);
        self.fill_chords(problem, p, r);
        self.fill_disk(kernel, r, problem.norm);
        self.fill_bar(kernel);
        self.fill_planes(r);
    }
}

/// Which §3 evaluation strategy to use for a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKernel {
    /// `PB`: evaluate both kernels at every voxel.
    Plain,
    /// `PB-DISK`: hoist the spatial invariant.
    Disk,
    /// `PB-BAR`: hoist the temporal invariant.
    Bar,
    /// `PB-SYM`: hoist both invariants.
    Sym,
}

/// The clipped cylinder region a point writes to.
#[inline]
pub(crate) fn write_region(problem: &Problem, p: &Point, clip: VoxelRange) -> VoxelRange {
    let v = problem.domain.voxel_of(p.as_array());
    problem
        .domain
        .cylinder_range(v, problem.vbw)
        .intersect(clip)
}

/// The engine's outer-product loop: for every nonempty chord row, axpy
/// the row's packed disk slice onto each nonzero `(T, Kt)` plane. The Y
/// loop is outermost so a chord's `Ks` values are loaded once and reused
/// across all `2Ht+1` planes. `t_off` re-hosts the loop onto a slab
/// buffer whose layer `l` holds global layer `t_off + l` (0 for a full
/// grid — see `distmem::apply`).
///
/// # Safety
/// The caller must hold exclusive access to the chords' voxels on the
/// given planes (shifted by `t_off`) of `grid`, and the chords/planes
/// must be in-bounds for `grid`.
pub(crate) unsafe fn scatter_rows<S: Scalar>(
    grid: &SharedGrid<'_, S>,
    t_off: usize,
    r: VoxelRange,
    chords: &[Chord],
    disk: &[S],
    planes: &[(u32, S)],
) {
    for (yi, y) in (r.y0..r.y1).enumerate() {
        let c = chords[yi];
        if c.is_empty() {
            continue;
        }
        let ks = &disk[c.off as usize..c.off as usize + c.len()];
        for &(t, kt) in planes {
            // SAFETY: forwarded from the caller contract.
            let row = unsafe { grid.row_mut(y, t as usize - t_off, c.x0 as usize, c.x1 as usize) };
            axpy_row(row, ks, kt);
        }
    }
}

/// `PB` (Algorithm 2): test and evaluate both kernel factors per voxel.
/// This is the engine's naive reference; only the axis-table geometry is
/// shared, the kernel work is deliberately per-voxel.
///
/// # Safety
/// The caller must hold exclusive access to `p`'s clipped cylinder region
/// of `grid` (see module docs).
pub unsafe fn apply_point_pb<S: Scalar, K: SpaceTimeKernel>(
    grid: &SharedGrid<'_, S>,
    problem: &Problem,
    kernel: &K,
    p: &Point,
    clip: VoxelRange,
    scratch: &mut Scratch<S>,
) {
    let r = write_region(problem, p, clip);
    if r.is_empty() {
        return;
    }
    scratch.fill_axes(problem, p, r);
    let norm = problem.norm;
    for (ti, t) in (r.t0..r.t1).enumerate() {
        let w = scratch.w[ti];
        for (yi, y) in (r.y0..r.y1).enumerate() {
            let v = scratch.v[yi];
            // SAFETY: forwarded from the caller contract.
            let row = unsafe { grid.row_mut(y, t, r.x0, r.x1) };
            for (out, &u) in row.iter_mut().zip(&scratch.u) {
                // kernel.eval is zero outside the support, which is exactly
                // the paper's `d < hs && |dt| <= ht` membership test.
                let val = kernel.eval(u, v, w);
                if val != 0.0 {
                    *out += S::from_f64(val * norm);
                }
            }
        }
    }
}

/// `PB-DISK`: spatial invariant `Ks[X][Y]` computed once; the temporal
/// factor is evaluated per T-plane (`w` is constant across a plane, so
/// per-voxel re-evaluation would repeat the same call `W·H` times).
///
/// # Safety
/// Same contract as [`apply_point_pb`].
pub unsafe fn apply_point_disk<S: Scalar, K: SpaceTimeKernel>(
    grid: &SharedGrid<'_, S>,
    problem: &Problem,
    kernel: &K,
    p: &Point,
    clip: VoxelRange,
    scratch: &mut Scratch<S>,
) {
    let r = write_region(problem, p, clip);
    if r.is_empty() {
        return;
    }
    scratch.fill_axes(problem, p, r);
    scratch.fill_chords(problem, p, r);
    scratch.fill_disk(kernel, r, problem.norm);
    let Scratch {
        w, chords, disk, ..
    } = scratch;
    for (ti, t) in (r.t0..r.t1).enumerate() {
        // Temporal factor evaluated once per plane — `w` is constant
        // across a plane, so the old per-voxel evaluation repeated the
        // same call `W·H` times. PB-SYM's bar table removes even the
        // per-plane re-evaluation.
        let kt = kernel.temporal(w[ti]);
        if kt == 0.0 {
            continue;
        }
        let kt_s = S::from_f64(kt);
        for (yi, y) in (r.y0..r.y1).enumerate() {
            let c = chords[yi];
            if c.is_empty() {
                continue;
            }
            // SAFETY: forwarded from the caller contract.
            let row = unsafe { grid.row_mut(y, t, c.x0 as usize, c.x1 as usize) };
            axpy_row(row, &disk[c.off as usize..c.off as usize + c.len()], kt_s);
        }
    }
}

/// `PB-BAR`: temporal invariant `Kt[T]` computed once, spatial factor
/// still evaluated per voxel (over the chords only — voxels outside the
/// disk contribute exactly zero).
///
/// # Safety
/// Same contract as [`apply_point_pb`].
pub unsafe fn apply_point_bar<S: Scalar, K: SpaceTimeKernel>(
    grid: &SharedGrid<'_, S>,
    problem: &Problem,
    kernel: &K,
    p: &Point,
    clip: VoxelRange,
    scratch: &mut Scratch<S>,
) {
    let r = write_region(problem, p, clip);
    if r.is_empty() {
        return;
    }
    scratch.fill_axes(problem, p, r);
    scratch.fill_chords(problem, p, r);
    scratch.fill_bar(kernel);
    let norm = problem.norm;
    for (ti, t) in (r.t0..r.t1).enumerate() {
        let kt = scratch.bar[ti];
        if kt == 0.0 {
            continue;
        }
        for (yi, y) in (r.y0..r.y1).enumerate() {
            let c = scratch.chords[yi];
            if c.is_empty() {
                continue;
            }
            let v = scratch.v[yi];
            // SAFETY: forwarded from the caller contract.
            let row = unsafe { grid.row_mut(y, t, c.x0 as usize, c.x1 as usize) };
            for (i, out) in row.iter_mut().enumerate() {
                let u = scratch.u[c.x0 as usize - r.x0 + i];
                let ks = kernel.spatial(u, v);
                if ks != 0.0 {
                    *out += S::from_f64(ks * kt * norm);
                }
            }
        }
    }
}

/// `PB-SYM` (Algorithm 3): both invariants hoisted; the triple loop is a
/// pure outer product `stkde[X][Y][T] += Ks[X][Y] · Kt[T]`, executed by
/// the engine as chord-clipped [`axpy_row`] calls in the native scalar.
///
/// # Safety
/// Same contract as [`apply_point_pb`].
pub unsafe fn apply_point_sym<S: Scalar, K: SpaceTimeKernel>(
    grid: &SharedGrid<'_, S>,
    problem: &Problem,
    kernel: &K,
    p: &Point,
    clip: VoxelRange,
    scratch: &mut Scratch<S>,
) {
    let r = write_region(problem, p, clip);
    if r.is_empty() {
        return;
    }
    scratch.prepare_sym(problem, kernel, p, r);
    tally::sym_scatter(&scratch.chords, scratch.planes.len());
    let Scratch {
        chords,
        disk,
        planes,
        ..
    } = scratch;
    // SAFETY: forwarded from the caller contract.
    unsafe {
        scatter_rows(grid, 0, r, chords, disk, planes);
    }
}

/// Dispatch one point through the chosen evaluation strategy.
///
/// # Safety
/// Same contract as [`apply_point_pb`].
pub unsafe fn apply_point<S: Scalar, K: SpaceTimeKernel>(
    which: PointKernel,
    grid: &SharedGrid<'_, S>,
    problem: &Problem,
    kernel: &K,
    p: &Point,
    clip: VoxelRange,
    scratch: &mut Scratch<S>,
) {
    tally::point(write_region(problem, p, clip));
    // SAFETY: forwarded from the caller contract.
    unsafe {
        match which {
            PointKernel::Plain => apply_point_pb(grid, problem, kernel, p, clip, scratch),
            PointKernel::Disk => apply_point_disk(grid, problem, kernel, p, clip, scratch),
            PointKernel::Bar => apply_point_bar(grid, problem, kernel, p, clip, scratch),
            PointKernel::Sym => apply_point_sym(grid, problem, kernel, p, clip, scratch),
        }
    }
}

/// Scatter-engine tallies: counters behind the paper's skipped-zero
/// argument — voxels the PB-SYM engine actually writes vs the clipped
/// bounding boxes a naive scatter would visit.
/// Handles are cached per call site, so steady state is one `Relaxed`
/// `fetch_add` per counter per point.
mod tally {
    use super::{Chord, VoxelRange};
    use stkde_obs::names;

    pub(super) fn point(r: VoxelRange) {
        stkde_obs::counter!(names::SCATTER_POINTS).inc();
        stkde_obs::counter!(names::SCATTER_BOX_VOXELS).add(r.volume() as u64);
    }

    pub(super) fn sym_scatter(chords: &[Chord], planes: usize) {
        let mut rows = 0u64;
        let mut chord_voxels = 0u64;
        for c in chords {
            if !c.is_empty() {
                rows += 1;
                chord_voxels += c.len() as u64;
            }
        }
        stkde_obs::counter!(names::SCATTER_CHORD_ROWS).add(rows);
        stkde_obs::counter!(names::SCATTER_VOXELS_WRITTEN).add(chord_voxels * planes as u64);
    }
}

/// Safe sequential driver: scatter `points` into an exclusively borrowed
/// grid using the chosen strategy, clipped to `clip`.
///
/// Allocates a fresh [`Scratch`] per call; callers that scatter
/// repeatedly can hold one and use [`apply_points_seq_with`] instead.
pub fn apply_points_seq<S: Scalar, K: SpaceTimeKernel>(
    which: PointKernel,
    grid: &mut Grid3<S>,
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    clip: VoxelRange,
) {
    apply_points_seq_with(
        which,
        grid,
        problem,
        kernel,
        points,
        clip,
        &mut Scratch::default(),
    );
}

/// [`apply_points_seq`] with caller-provided scratch buffers, so repeated
/// batches reuse one allocation instead of churning per call.
pub fn apply_points_seq_with<S: Scalar, K: SpaceTimeKernel>(
    which: PointKernel,
    grid: &mut Grid3<S>,
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    clip: VoxelRange,
    scratch: &mut Scratch<S>,
) {
    let shared = SharedGrid::new(grid);
    for p in points {
        // SAFETY: `grid` is exclusively borrowed and this loop is the only
        // writer — trivially race-free.
        unsafe {
            apply_point(which, &shared, problem, kernel, p, clip, scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    fn setup() -> (Problem, Vec<Point>) {
        let domain = Domain::from_dims(GridDims::new(24, 24, 12));
        let points = vec![
            Point::new(12.0, 12.0, 6.0),
            Point::new(2.0, 3.0, 1.0),    // near corner: tests clipping
            Point::new(23.5, 23.5, 11.5), // at far corner
        ];
        (
            Problem::new(domain, Bandwidth::new(3.0, 2.0), points.len()),
            points,
        )
    }

    fn run(which: PointKernel) -> Grid3<f64> {
        let (problem, points) = setup();
        let mut grid = Grid3::zeros(problem.domain.dims());
        let clip = VoxelRange::full(problem.domain.dims());
        apply_points_seq(which, &mut grid, &problem, &Epanechnikov, &points, clip);
        grid
    }

    #[test]
    fn all_strategies_agree() {
        let base = run(PointKernel::Plain);
        for which in [PointKernel::Disk, PointKernel::Bar, PointKernel::Sym] {
            let g = run(which);
            assert!(
                base.max_rel_diff(&g, 1e-14) < 1e-10,
                "{which:?} diverges from PB"
            );
        }
    }

    #[test]
    fn chords_cover_the_support_exactly() {
        // Every voxel with nonzero spatial kernel value must lie inside
        // its row's chord; the widened boundary entries must all be zero.
        let (problem, points) = setup();
        let r = VoxelRange::full(problem.domain.dims());
        let mut scratch: Scratch<f64> = Scratch::default();
        for p in &points {
            let r = write_region(&problem, p, r);
            scratch.fill_axes(&problem, p, r);
            scratch.fill_chords(&problem, p, r);
            for (yi, y) in (r.y0..r.y1).enumerate() {
                let c = scratch.chords[yi];
                let cy = problem.domain.voxel_center(0, y, 0)[1];
                for x in r.x0..r.x1 {
                    let cx = problem.domain.voxel_center(x, 0, 0)[0];
                    let (u, v) = problem.uv(cx, cy, p);
                    let ks = Epanechnikov.spatial(u, v);
                    let inside = (x as u32) >= c.x0 && (x as u32) < c.x1;
                    assert!(
                        inside || ks == 0.0,
                        "nonzero voxel ({x},{y}) outside chord {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_idempotent() {
        // The same scratch driven through different strategies and points
        // must not leak state between uses.
        let (problem, points) = setup();
        let clip = VoxelRange::full(problem.domain.dims());
        let mut fresh: Grid3<f64> = Grid3::zeros(problem.domain.dims());
        apply_points_seq(
            PointKernel::Sym,
            &mut fresh,
            &problem,
            &Epanechnikov,
            &points,
            clip,
        );
        let mut reused: Grid3<f64> = Grid3::zeros(problem.domain.dims());
        let mut scratch = Scratch::default();
        // Warm the scratch with other strategies first.
        let mut warmup: Grid3<f64> = Grid3::zeros(problem.domain.dims());
        for which in [PointKernel::Plain, PointKernel::Bar, PointKernel::Disk] {
            apply_points_seq_with(
                which,
                &mut warmup,
                &problem,
                &Epanechnikov,
                &points,
                clip,
                &mut scratch,
            );
        }
        apply_points_seq_with(
            PointKernel::Sym,
            &mut reused,
            &problem,
            &Epanechnikov,
            &points,
            clip,
            &mut scratch,
        );
        assert_eq!(fresh, reused);
    }

    #[test]
    fn density_positive_near_point_zero_far() {
        let g = run(PointKernel::Sym);
        assert!(g.get(12, 12, 6) > 0.0);
        assert!(g.get(12, 12, 0) == 0.0, "outside temporal bandwidth");
        assert!(g.get(0, 12, 6) == 0.0, "outside spatial bandwidth");
    }

    #[test]
    fn total_mass_close_to_one() {
        // With a normalized kernel fully inside the grid, the discrete sum
        // times the voxel volume approximates 1/n per point.
        let domain = Domain::from_dims(GridDims::new(40, 40, 20));
        let problem = Problem::new(domain, Bandwidth::new(6.0, 4.0), 1);
        let points = vec![Point::new(20.0, 20.0, 10.0)];
        let mut grid: Grid3<f64> = Grid3::zeros(domain.dims());
        apply_points_seq(
            PointKernel::Sym,
            &mut grid,
            &problem,
            &Epanechnikov,
            &points,
            VoxelRange::full(domain.dims()),
        );
        let mass: f64 = grid.as_slice().iter().sum();
        assert!(
            (mass - 1.0).abs() < 0.05,
            "discrete mass {mass} should approximate 1"
        );
    }

    #[test]
    fn clipping_restricts_writes() {
        let (problem, points) = setup();
        let mut grid: Grid3<f64> = Grid3::zeros(problem.domain.dims());
        let clip = VoxelRange {
            x0: 0,
            x1: 12,
            y0: 0,
            y1: 24,
            t0: 0,
            t1: 12,
        };
        apply_points_seq(
            PointKernel::Sym,
            &mut grid,
            &problem,
            &Epanechnikov,
            &points,
            clip,
        );
        for (x, y, t) in grid.dims().iter() {
            if !clip.contains(x, y, t) {
                assert_eq!(
                    grid.get(x, y, t),
                    0.0,
                    "write outside clip at ({x},{y},{t})"
                );
            }
        }
    }

    #[test]
    fn split_clips_sum_to_whole() {
        // Applying with two complementary clips equals one full application
        // — the core correctness fact behind PB-SYM-DD.
        let (problem, points) = setup();
        let dims = problem.domain.dims();
        let full = {
            let mut g: Grid3<f64> = Grid3::zeros(dims);
            apply_points_seq(
                PointKernel::Sym,
                &mut g,
                &problem,
                &Epanechnikov,
                &points,
                VoxelRange::full(dims),
            );
            g
        };
        let mut left: Grid3<f64> = Grid3::zeros(dims);
        let mut clip_l = VoxelRange::full(dims);
        clip_l.x1 = 13;
        let mut clip_r = VoxelRange::full(dims);
        clip_r.x0 = 13;
        apply_points_seq(
            PointKernel::Sym,
            &mut left,
            &problem,
            &Epanechnikov,
            &points,
            clip_l,
        );
        apply_points_seq(
            PointKernel::Sym,
            &mut left,
            &problem,
            &Epanechnikov,
            &points,
            clip_r,
        );
        assert!(full.max_rel_diff(&left, 1e-14) < 1e-10);
    }

    #[test]
    fn empty_clip_writes_nothing() {
        let (problem, points) = setup();
        let mut grid: Grid3<f64> = Grid3::zeros(problem.domain.dims());
        apply_points_seq(
            PointKernel::Sym,
            &mut grid,
            &problem,
            &Epanechnikov,
            &points,
            VoxelRange::empty(),
        );
        assert!(grid.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_points_is_noop() {
        let (problem, _) = setup();
        let mut grid: Grid3<f64> = Grid3::zeros(problem.domain.dims());
        apply_points_seq(
            PointKernel::Plain,
            &mut grid,
            &problem,
            &Epanechnikov,
            &[],
            VoxelRange::full(problem.domain.dims()),
        );
        assert!(grid.as_slice().iter().all(|&v| v == 0.0));
    }
}
