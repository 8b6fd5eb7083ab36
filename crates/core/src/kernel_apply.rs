//! The per-point scatter engine shared by every point-based algorithm.
//!
//! `apply_point` scatters one event's density cylinder into the grid,
//! restricted to a clip range (the full grid for undecomposed algorithms,
//! a subdomain for `PB-SYM-DD`). The four [`PointKernel`] strategies
//! mirror the paper's §3:
//!
//! | strategy | spatial kernel evaluated | temporal kernel evaluated |
//! |---|---|---|
//! | [`PointKernel::Plain`] (`PB`)     | per voxel | per voxel |
//! | [`PointKernel::Disk`] (`PB-DISK`) | once per (X, Y) | once per T-plane |
//! | [`PointKernel::Bar`] (`PB-BAR`)   | per voxel | once per T |
//! | [`PointKernel::Sym`] (`PB-SYM`)   | once per (X, Y) | once per T |
//!
//! # The scatter engine
//!
//! The hoisted variants share one engine built from three observations:
//!
//! 1. **Separable geometry.** The normalized offsets `u`, `v`, `w` each
//!    depend on a single axis, so the engine precomputes per-axis tables
//!    `u[X]`, `v[Y]`, `w[T]` once per point (`Scratch::fill_axes`) —
//!    `O(W+H+T)` work instead of the `O(W·H)` per-voxel `voxel_center`/
//!    `uv` calls a naive rasterizer pays.
//! 2. **Span clipping.** The spatial support is the open unit disk, so
//!    each Y-row's nonzero X-span (its *chord*) follows analytically from
//!    `u² + v² < 1` (`Scratch::fill_chords`). Iterating only the chord
//!    skips the ≈21% of the bounding box that is guaranteed zero and
//!    shrinks the written region. Chords are widened by one voxel per
//!    side so float rounding can never drop an in-support voxel; the
//!    extra entries evaluate to kernel value 0 and add exact zeros.
//! 3. **One disk row at a time, in the native scalar.** `PB-SYM` walks
//!    its disk row by row (`Scratch::sym_rows`): each chord row's
//!    `Ks · norm` is evaluated into one reused row buffer in the grid
//!    scalar `S` and at once added onto every nonzero plane `Kt[T]`
//!    (also converted to `S` once per point), so the inner loop is a pure
//!    `row[X] += Ks[X] · Kt` over stride-1 memory
//!    ([`stkde_grid::axpy_row`]) with no `f64 → S` conversion per
//!    element, and no disk is stored and read back. Every `PB-SYM`
//!    consumer — the dense engines, the distmem slabs, the sparse grid
//!    and the window cubes — writes through this walker. On x86-64 the
//!    walker and its consumer's row write are compiled twice, for the
//!    baseline target (SSE2) and with AVX2 enabled, and the AVX2 copy
//!    runs when the CPU has it. Rust never contracts `a·b + c` into a
//!    fused multiply-add and an AVX2 lane rounds exactly like an SSE2
//!    lane, so both copies write the same bits.
//!
//! All writes go through [`SharedGrid`]; the **safety contract** is that
//! the caller holds exclusive access to the clipped cylinder region
//! (single-threaded use, disjoint subdomains, or stencil-scheduled
//! subdomains — see `stkde_grid::shared`). The safe entry points
//! ([`apply_points_seq`], `apply_points_seq_with`) wrap an exclusive
//! `&mut Grid3`.

use crate::problem::Problem;
use stkde_data::Point;
use stkde_grid::{axpy_row, Grid3, Scalar, SharedGrid, VoxelRange};
use stkde_kernels::SpaceTimeKernel;

/// One Y-row's nonzero X-span inside the write region: voxels
/// `x ∈ [x0, x1)`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chord {
    /// Inclusive start (absolute grid X).
    pub(crate) x0: u32,
    /// Exclusive end (absolute grid X).
    pub(crate) x1: u32,
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

/// `x.floor()` as an integer, saturating past `i64`. Baseline x86-64 has
/// no rounding instruction (that is SSE4.1), so `f64::floor` there is a
/// libm call; a truncating cast corrected by one below a negative
/// fraction gives the same value.
#[inline(always)]
fn floor_i64(x: f64) -> i64 {
    let t = x as i64;
    t.saturating_sub(((t as f64) > x) as i64)
}

/// `x.ceil()` as an integer, saturating past `i64` (see [`floor_i64`]).
#[inline(always)]
fn ceil_i64(x: f64) -> i64 {
    let t = x as i64;
    t.saturating_add(((t as f64) < x) as i64)
}

/// Reusable per-worker buffers holding one point's precomputed scatter
/// state: axis offset tables, per-row chords, and the kernel invariants in
/// the grid's native scalar. Reusing one `Scratch` across points (and
/// batches — see [`apply_points_seq_with`]) keeps the hot path free of
/// heap allocation.
#[derive(Debug, Default, Clone)]
pub(crate) struct Scratch<S = f64> {
    /// `u[X - r.x0] = (cx − px)/hs` — spatial offset along X.
    u: Vec<f64>,
    /// `v[Y - r.y0] = (cy − py)/hs` — spatial offset along Y.
    v: Vec<f64>,
    /// `w[T - r.t0] = (ct − pt)/ht` — temporal offset along T.
    w: Vec<f64>,
    /// Per-Y-row nonzero X-spans.
    chords: Vec<Chord>,
    /// `PB-DISK`'s packed chord values `Ks · norm`, native scalar, row
    /// after row.
    disk: Vec<S>,
    /// One chord row of `Ks · norm`, native scalar: the `PB-SYM`
    /// walker's buffer, at least as long as the widest region seen.
    row: Vec<S>,
    /// `PB-BAR`'s temporal invariant `Kt[T]`.
    bar: Vec<f64>,
    /// The nonzero planes of the temporal invariant as `(absolute T, Kt)`
    /// pairs, `Kt` converted to the native scalar once per point. Zero
    /// planes are dropped here so the scatter loop never branches on them.
    planes: Vec<(u32, S)>,
    /// Scatter counters not yet added to the shared registry.
    tally: Tally,
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
        let (rx0, rx1) = (r.x0 as i64, r.x1 as i64);
        self.chords.clear();
        for &v in &self.v {
            let d = 1.0 - v * v;
            if d <= 0.0 {
                // Whole row is outside the disk (u² + v² ≥ 1 for any u).
                self.chords.push(Chord::default());
                continue;
            }
            let half = d.sqrt() * hs_vox;
            let lo = floor_i64(center - half);
            let hi = ceil_i64(center + half);
            let x0 = if lo <= rx0 { r.x0 } else { lo as usize };
            let x1 = if hi >= rx1 - 1 {
                r.x1
            } else {
                hi.max(0) as usize + 1
            };
            self.chords.push(Chord {
                x0: x0 as u32,
                x1: x1.max(x0) as u32,
            });
        }
    }

    /// Evaluate the spatial invariant `Ks · norm` over the chords into the
    /// packed `disk` buffer, chord after chord (native scalar, converted
    /// once per entry here rather than once per voxel update in the T
    /// loop).
    ///
    /// Requires [`fill_axes`](Self::fill_axes) and
    /// [`fill_chords`](Self::fill_chords).
    fn fill_disk<K: SpaceTimeKernel>(&mut self, kernel: &K, r: VoxelRange, norm: f64) {
        let Self {
            u, v, chords, disk, ..
        } = self;
        disk.clear();
        for (c, &vv) in chords.iter().zip(v.iter()) {
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

    /// Evaluate the temporal invariant `Kt[T]` in `f64` (`PB-BAR`).
    ///
    /// Requires [`fill_axes`](Self::fill_axes).
    fn fill_bar<K: SpaceTimeKernel>(&mut self, kernel: &K) {
        let Self { w, bar, .. } = self;
        bar.clear();
        bar.extend(w.iter().map(|&ww| kernel.temporal(ww)));
    }

    /// Pack the nonzero planes of the temporal invariant as
    /// `(absolute T, Kt)` pairs in the native scalar — the form the
    /// `PB-SYM` walker hands its consumers.
    ///
    /// Requires [`fill_axes`](Self::fill_axes).
    fn fill_planes<K: SpaceTimeKernel>(&mut self, kernel: &K, r: VoxelRange) {
        let Self { w, planes, .. } = self;
        planes.clear();
        for (t, &ww) in (r.t0..).zip(w.iter()) {
            let kt = kernel.temporal(ww);
            if kt != 0.0 {
                planes.push((t as u32, S::from_f64(kt)));
            }
        }
    }

    /// Walk `p`'s `PB-SYM` disk over the non-empty region `r`, one chord
    /// row at a time: fill the axis tables, chords and nonzero planes,
    /// then for every non-empty chord row evaluate `Ks · norm` into the
    /// reused row buffer and call `write(y, x0, ks, planes)`, which must
    /// add `ks[i] · Kt` onto voxel `(x0 + i, y, T)` for every
    /// `(T, Kt)` in `planes`. Each voxel gets exactly one add per point,
    /// from the same entry a stored disk would hold. Counts the point and
    /// its writes in this scratch's tallies.
    ///
    /// On x86-64 a CPU with AVX2 runs a copy of the walk, `write`
    /// included, compiled with AVX2 enabled (see the module docs).
    #[inline]
    pub(crate) fn sym_rows<K, F>(
        &mut self,
        problem: &Problem,
        kernel: &K,
        p: &Point,
        r: VoxelRange,
        write: F,
    ) where
        K: SpaceTimeKernel,
        F: FnMut(usize, usize, &[S], &[(u32, S)]),
    {
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: `avx2()` found AVX2 on the running CPU, the only
            // feature the clone enables.
            return unsafe { self.sym_rows_avx2(problem, kernel, p, r, write) };
        }
        self.sym_rows_body(problem, kernel, p, r, write)
    }

    /// [`sym_rows`](Self::sym_rows) compiled with AVX2 enabled.
    ///
    /// # Safety
    /// The running CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn sym_rows_avx2<K, F>(
        &mut self,
        problem: &Problem,
        kernel: &K,
        p: &Point,
        r: VoxelRange,
        write: F,
    ) where
        K: SpaceTimeKernel,
        F: FnMut(usize, usize, &[S], &[(u32, S)]),
    {
        self.sym_rows_body(problem, kernel, p, r, write)
    }

    /// The one body behind both copies of [`sym_rows`](Self::sym_rows).
    #[inline(always)]
    fn sym_rows_body<K, F>(
        &mut self,
        problem: &Problem,
        kernel: &K,
        p: &Point,
        r: VoxelRange,
        mut write: F,
    ) where
        K: SpaceTimeKernel,
        F: FnMut(usize, usize, &[S], &[(u32, S)]),
    {
        self.fill_axes(problem, p, r);
        self.fill_chords(problem, p, r);
        self.fill_planes(kernel, r);
        let Self {
            u,
            v,
            chords,
            row,
            planes,
            tally,
            ..
        } = self;
        if row.len() < u.len() {
            row.resize(u.len(), S::ZERO);
        }
        let norm = problem.norm;
        let (mut rows, mut chord_voxels) = (0u64, 0u64);
        for ((y, c), &vv) in (r.y0..).zip(chords.iter()).zip(v.iter()) {
            if c.is_empty() {
                continue;
            }
            rows += 1;
            chord_voxels += c.len() as u64;
            if planes.is_empty() {
                continue;
            }
            let us = &u[c.x0 as usize - r.x0..c.x1 as usize - r.x0];
            let ks = &mut row[..us.len()];
            for (k, &uu) in ks.iter_mut().zip(us) {
                *k = S::from_f64(kernel.spatial(uu, vv) * norm);
            }
            write(y, c.x0 as usize, ks, planes);
        }
        tally.point(r);
        tally.chord_rows += rows;
        tally.voxels_written += chord_voxels * planes.len() as u64;
    }

    /// Add this scratch's tallies to the shared scatter counters. Batch
    /// loops call it once per call or task; dropping the scratch does it
    /// too.
    pub(crate) fn flush_tally(&mut self) {
        self.tally.flush();
    }
}

/// Whether [`Scratch::sym_rows`] runs its AVX2 copy: the CPU has AVX2
/// (std caches the CPUID probe after the first call), unless a test
/// pinned one copy on its thread.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2() -> bool {
    #[cfg(test)]
    if let Some(pinned) = tests::PIN_AVX2.get() {
        tests::PINNED_WALKS.set(tests::PINNED_WALKS.get() + 1);
        return pinned;
    }
    std::arch::is_x86_feature_detected!("avx2")
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

/// The dense `PB-SYM` engine (Algorithm 3): walk `p`'s disk over the
/// non-empty region `r` ([`Scratch::sym_rows`]) and add each chord row
/// onto every nonzero `(T, Kt)` plane with [`axpy_row`] — the pure outer
/// product `stkde[X][Y][T] += Ks[X][Y] · Kt[T]` in the native scalar.
/// `t_off` re-hosts the write onto a slab buffer whose layer `l` holds
/// global layer `t_off + l` (0 for a full grid — see `distmem::apply`).
///
/// # Safety
/// The caller must hold exclusive access to the voxels of `r` (its T
/// layers shifted by `t_off`) in `grid`, and they must be in-bounds for
/// `grid`.
pub(crate) unsafe fn scatter_rows<S: Scalar, K: SpaceTimeKernel>(
    grid: &SharedGrid<'_, S>,
    t_off: usize,
    problem: &Problem,
    kernel: &K,
    p: &Point,
    r: VoxelRange,
    scratch: &mut Scratch<S>,
) {
    scratch.sym_rows(problem, kernel, p, r, |y, x0, ks, planes| {
        for &(t, kt) in planes {
            // SAFETY: forwarded from the caller contract; the walker's
            // rows and planes lie inside `r`.
            let row = unsafe { grid.row_mut(y, t as usize - t_off, x0, x0 + ks.len()) };
            axpy_row(row, ks, kt);
        }
    });
}

/// `PB` (Algorithm 2): test and evaluate both kernel factors per voxel.
/// This is the engine's naive reference; only the axis-table geometry is
/// shared, the kernel work is deliberately per-voxel.
///
/// # Safety
/// Same contract as [`apply_point`], over the non-empty region `r`.
unsafe fn apply_pb<S: Scalar, K: SpaceTimeKernel>(
    grid: &SharedGrid<'_, S>,
    problem: &Problem,
    kernel: &K,
    p: &Point,
    r: VoxelRange,
    scratch: &mut Scratch<S>,
) {
    scratch.tally.point(r);
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

/// `PB-DISK`: spatial invariant `Ks[X][Y]` computed once over the whole
/// disk; the temporal factor is evaluated per T-plane (`w` is constant
/// across a plane, so per-voxel re-evaluation would repeat the same call
/// `W·H` times). The T-outer loop over a stored disk is what defines
/// this variant.
///
/// # Safety
/// Same contract as [`apply_point`], over the non-empty region `r`.
unsafe fn apply_disk<S: Scalar, K: SpaceTimeKernel>(
    grid: &SharedGrid<'_, S>,
    problem: &Problem,
    kernel: &K,
    p: &Point,
    r: VoxelRange,
    scratch: &mut Scratch<S>,
) {
    scratch.tally.point(r);
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
        let mut ks = disk.as_slice();
        for (y, c) in (r.y0..r.y1).zip(chords.iter()) {
            let (row_ks, rest) = ks.split_at(c.len());
            ks = rest;
            if c.is_empty() {
                continue;
            }
            // SAFETY: forwarded from the caller contract.
            let row = unsafe { grid.row_mut(y, t, c.x0 as usize, c.x1 as usize) };
            axpy_row(row, row_ks, kt_s);
        }
    }
}

/// `PB-BAR`: temporal invariant `Kt[T]` computed once, spatial factor
/// still evaluated per voxel (over the chords only — voxels outside the
/// disk contribute exactly zero).
///
/// # Safety
/// Same contract as [`apply_point`], over the non-empty region `r`.
unsafe fn apply_bar<S: Scalar, K: SpaceTimeKernel>(
    grid: &SharedGrid<'_, S>,
    problem: &Problem,
    kernel: &K,
    p: &Point,
    r: VoxelRange,
    scratch: &mut Scratch<S>,
) {
    scratch.tally.point(r);
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

/// Scatter one point's cylinder, clipped to `clip`, through the chosen
/// evaluation strategy.
///
/// # Safety
/// The caller must hold exclusive access to `p`'s clipped cylinder region
/// of `grid` (see module docs).
pub(crate) unsafe fn apply_point<S: Scalar, K: SpaceTimeKernel>(
    which: PointKernel,
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
    // SAFETY: forwarded from the caller contract; `r` is the clipped
    // cylinder region.
    unsafe {
        match which {
            PointKernel::Plain => apply_pb(grid, problem, kernel, p, r, scratch),
            PointKernel::Disk => apply_disk(grid, problem, kernel, p, r, scratch),
            PointKernel::Bar => apply_bar(grid, problem, kernel, p, r, scratch),
            PointKernel::Sym => scatter_rows(grid, 0, problem, kernel, p, r, scratch),
        }
    }
}

/// Scatter-engine tallies: the counters behind the paper's skipped-zero
/// argument — voxels the `PB-SYM` engine actually writes vs the clipped
/// bounding boxes a naive scatter would visit. They accumulate in the
/// worker's [`Scratch`] and reach the shared counters in one flush per
/// batch call or task (and on drop), so the scatter loop itself touches
/// no shared cache line.
#[derive(Debug, Default)]
struct Tally {
    points: u64,
    box_voxels: u64,
    chord_rows: u64,
    voxels_written: u64,
}

impl Clone for Tally {
    /// A clone starts empty: the counts belong to the original.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Tally {
    #[inline]
    fn point(&mut self, r: VoxelRange) {
        self.points += 1;
        self.box_voxels += r.volume() as u64;
    }

    fn flush(&mut self) {
        use stkde_obs::names;
        // Every counted write belongs to a counted point.
        if self.points == 0 {
            return;
        }
        stkde_obs::counter!(names::SCATTER_POINTS).add(self.points);
        stkde_obs::counter!(names::SCATTER_BOX_VOXELS).add(self.box_voxels);
        stkde_obs::counter!(names::SCATTER_CHORD_ROWS).add(self.chord_rows);
        stkde_obs::counter!(names::SCATTER_VOXELS_WRITTEN).add(self.voxels_written);
        // Zeroed field by field: assigning a fresh `Tally` would drop
        // this one, and dropping flushes.
        self.points = 0;
        self.box_voxels = 0;
        self.chord_rows = 0;
        self.voxels_written = 0;
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Safe sequential driver: scatter `points` into an exclusively borrowed
/// grid using the chosen strategy, clipped to `clip`.
///
/// Allocates a fresh `Scratch` per call; callers that scatter
/// repeatedly can hold one and use `apply_points_seq_with` instead.
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
/// batches reuse one allocation instead of churning per call. The
/// scratch's tallies are flushed before it returns.
pub(crate) fn apply_points_seq_with<S: Scalar, K: SpaceTimeKernel>(
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
    scratch.flush_tally();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::{Epanechnikov, Tabulated, TruncatedGaussian};

    thread_local! {
        /// Pins the walker copy [`avx2`](super::avx2) picks on this
        /// thread: `Some(false)` the baseline, `Some(true)` the AVX2 clone.
        pub(super) static PIN_AVX2: Cell<Option<bool>> = const { Cell::new(None) };
        /// Walks that ran the pinned copy on this thread.
        pub(super) static PINNED_WALKS: Cell<usize> = const { Cell::new(0) };
    }

    /// `f` run once on each copy of the walker, baseline first; `None`,
    /// after a note, where the CPU has no AVX2 clone to compare. The pin
    /// holds only on this thread, so each run must walk here: a walk on
    /// a pool worker would take the CPU probe's copy.
    fn on_both_copies<T>(f: impl Fn() -> T) -> Option<(T, T)> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let on = |copy| {
                PIN_AVX2.set(Some(copy));
                PINNED_WALKS.set(0);
                let out = f();
                PIN_AVX2.set(None);
                assert!(PINNED_WALKS.get() > 0, "no walk ran the pinned copy");
                out
            };
            return Some((on(false), on(true)));
        }
        eprintln!("note: this CPU has no AVX2, so only the baseline walker runs");
        None
    }

    /// Every voxel's bits, `f32` widened exactly.
    fn bits<S: Scalar>(g: &Grid3<S>) -> Vec<u64> {
        g.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// Bitwise equality of two copies' grids, naming the first voxel
    /// that differs.
    fn assert_same_bits<T: PartialEq + std::fmt::Debug>(base: &[T], avx2: &[T], what: &str) {
        assert_eq!(base.len(), avx2.len(), "{what}");
        if let Some(i) = (0..base.len()).find(|&i| base[i] != avx2[i]) {
            panic!(
                "{what}: voxel {i} is {:?} on the baseline, {:?} on AVX2",
                base[i], avx2[i]
            );
        }
    }

    /// The dense grid of `points` through `which`, clipped to `clip`.
    fn dense<S: Scalar, K: SpaceTimeKernel>(
        which: PointKernel,
        problem: &Problem,
        kernel: &K,
        points: &[Point],
        clip: VoxelRange,
    ) -> Grid3<S> {
        let mut g = Grid3::zeros(problem.domain.dims());
        apply_points_seq(which, &mut g, problem, kernel, points, clip);
        g
    }

    /// Layers `[t0, t1)` of `points` through distmem's slab writer.
    fn slab<S: Scalar, K: SpaceTimeKernel>(
        problem: &Problem,
        kernel: &K,
        points: &[Point],
        (t0, t1): (usize, usize),
    ) -> Grid3<S> {
        let dims = problem.domain.dims();
        let mut g = Grid3::zeros(GridDims::new(dims.gx, dims.gy, t1 - t0));
        let clip = VoxelRange {
            t0,
            t1,
            ..VoxelRange::full(dims)
        };
        let mut scratch = Scratch::default();
        for p in points {
            crate::distmem::apply::apply_point_slab(
                &mut g,
                t0,
                problem,
                kernel,
                p,
                clip,
                &mut scratch,
            );
        }
        g
    }

    /// Every `PB-SYM` consumer, in one scalar, on both walker copies.
    fn clone_matches_baseline<S: Scalar, K: SpaceTimeKernel>(
        name: &str,
        kernel: &K,
        problem: &Problem,
        points: &[Point],
    ) {
        let dims = problem.domain.dims();
        let partial = VoxelRange {
            x0: 5,
            x1: 30,
            y0: 3,
            y1: 21,
            t0: 4,
            t1: 15,
        };
        for clip in [VoxelRange::full(dims), partial] {
            let Some((base, avx2)) = on_both_copies(|| {
                bits(&dense::<S, K>(
                    PointKernel::Sym,
                    problem,
                    kernel,
                    points,
                    clip,
                ))
            }) else {
                return;
            };
            assert_same_bits(&base, &avx2, &format!("{name}: dense, clip {clip:?}"));
        }
        let Some((base, avx2)) =
            on_both_copies(|| bits(&slab::<S, K>(problem, kernel, points, (6, 14))))
        else {
            return;
        };
        assert_same_bits(&base, &avx2, &format!("{name}: slab at t_off 6"));
        let Some((base, avx2)) = on_both_copies(|| {
            bits(
                &crate::sparse::run::<S, K>(problem, kernel, points)
                    .0
                    .to_dense(),
            )
        }) else {
            return;
        };
        assert_same_bits(&base, &avx2, &format!("{name}: sparse"));
    }

    #[test]
    fn avx2_walker_writes_the_baseline_bits() {
        let domain = Domain::from_dims(GridDims::new(37, 29, 20));
        let points = stkde_data::synth::uniform(40, domain.extent(), 11).into_vec();
        let problem = Problem::new(domain, Bandwidth::new(4.3, 2.5), points.len());
        let gauss = TruncatedGaussian::default();
        let table = Tabulated::new(Epanechnikov);
        clone_matches_baseline::<f32, _>("epanechnikov f32", &Epanechnikov, &problem, &points);
        clone_matches_baseline::<f64, _>("epanechnikov f64", &Epanechnikov, &problem, &points);
        clone_matches_baseline::<f32, _>("gaussian f32", &gauss, &problem, &points);
        clone_matches_baseline::<f64, _>("gaussian f64", &gauss, &problem, &points);
        clone_matches_baseline::<f32, _>("tabulated f32", &table, &problem, &points);
        clone_matches_baseline::<f64, _>("tabulated f64", &table, &problem, &points);

        // The window cubes' `i64` quanta writer, on two T-slabs, with
        // removals and inserts. One band walks on this thread, where the
        // pin holds; band counts are compared in `sharded`'s tests.
        use crate::sharded::CylinderWriter;
        let bw = Bandwidth::new(4.3, 2.5);
        let dims = domain.dims();
        let Some((base, avx2)) = on_both_copies(|| {
            let mut slabs = [
                Grid3::<i64>::zeros(GridDims::new(dims.gx, dims.gy, 7)),
                Grid3::<i64>::zeros(GridDims::new(dims.gx, dims.gy, dims.gt - 7)),
            ];
            let mut w = CylinderWriter::new(domain, bw, &Epanechnikov);
            w.write(&Epanechnikov, &mut slabs, 1, &[], &points);
            w.write(&Epanechnikov, &mut slabs, 1, &points[..15], &[]);
            slabs.map(Grid3::into_vec).concat()
        }) else {
            return;
        };
        assert_same_bits(&base, &avx2, "window quanta");
    }

    #[test]
    fn cast_chords_match_floor_and_ceil() {
        for x in [
            -3.5,
            -3.0,
            -0.5,
            -0.0,
            0.0,
            1e-300,
            0.5,
            2.0,
            2.25,
            1e15 + 0.5,
        ] {
            assert_eq!(floor_i64(x), x.floor() as i64, "floor {x}");
            assert_eq!(ceil_i64(x), x.ceil() as i64, "ceil {x}");
        }
        assert_eq!(floor_i64(-1e300), i64::MIN);
        assert_eq!(ceil_i64(1e300), i64::MAX);
    }

    #[test]
    fn every_sym_consumer_counts_its_points() {
        use stkde_obs::names;
        let points_total = || stkde_obs::counter!(names::SCATTER_POINTS).get();
        let domain = Domain::from_dims(GridDims::new(24, 24, 12));
        let points = stkde_data::synth::uniform(12, domain.extent(), 5).into_vec();
        let k = points.len() as u64;
        let bw = Bandwidth::new(3.0, 2.0);
        let problem = Problem::new(domain, bw, points.len());
        // The registry is shared with tests running in parallel, so each
        // consumer must raise the total by at least its own points.
        let raised = |consumer: &str, run: &dyn Fn()| {
            let before = points_total();
            run();
            let after = points_total();
            assert!(
                after - before >= k,
                "{consumer}: {before} -> {after}, k = {k}"
            );
        };
        raised("dense", &|| {
            dense::<f32, _>(
                PointKernel::Sym,
                &problem,
                &Epanechnikov,
                &points,
                VoxelRange::full(domain.dims()),
            );
        });
        raised("window writer", &|| {
            crate::testkit::IncrementalStkde::new(domain, bw).insert_batch(&points);
        });
        raised("distmem slab", &|| {
            slab::<f64, _>(&problem, &Epanechnikov, &points, (0, 12));
        });
        raised("sparse", &|| {
            crate::sparse::run::<f32, _>(&problem, &Epanechnikov, &points);
        });
    }

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
