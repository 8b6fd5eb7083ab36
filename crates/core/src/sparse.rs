//! Sparse-grid STKDE — an extension that removes the `Θ(G)`
//! initialization term.
//!
//! Figure 7 of the paper shows that on sparse instances (Flu: 31K events
//! over a world-spanning 20 GB grid) the runtime of `PB-SYM` is dominated
//! by *initializing* the voxel grid, and §6.3 shows that this phase caps
//! every parallel algorithm's speedup at ≈3 because zeroing memory does
//! not parallelize. The paper attacks the symptom (parallel first-touch);
//! this module removes the cause: density is accumulated into a
//! Morton-brick [`SparseGrid3`] that materializes 8³ bricks only where
//! cylinders actually land, so both memory and initialization cost scale
//! with the *touched* volume `O(n·Hs²·Ht)` instead of the domain volume
//! `Θ(Gx·Gy·Gt)`.
//!
//! Two algorithms are provided:
//!
//! * [`run`] — sequential sparse `PB-SYM`. It rides the shared scatter
//!   engine's row walker (`Scratch::sym_rows`), trimming each
//!   chord row to its non-zero span so brick allocation tracks the
//!   cylinder, not its bounding box. Because every surviving voxel goes
//!   through the same elementwise `axpy_row` arithmetic as the dense
//!   path, the sparse result is **bit-identical** to dense `PB-SYM` for
//!   both `f32` and `f64`.
//! * [`run_par`] — parallel sparse `PB-SYM` over **one shared grid**:
//!   a 1×1×K [`Decomposition`] whose T cuts balance per-layer chord area
//!   gives each worker a slab, [`bin_points_replicated`] lists for each
//!   slab the points whose cylinder touches it (in point order), and
//!   each worker scatters with its slab as the clip. Voxel ownership is
//!   exclusive by construction, so no merge step exists; bricks
//!   straddling a slab boundary are materialized exactly once by the
//!   grid's lock-free CAS-on-slot protocol (`stkde_grid::brick`). The
//!   X/Y invariants do not depend on the T-clip and the temporal planes
//!   use absolute `T`, so every written value — and the per-voxel
//!   accumulation order — is identical to the sequential path: `run_par`
//!   is **bit-identical** to [`run`], at any thread or slab count.
//!
//! The trade-off is one table indirection per ≤8-voxel row segment,
//! which loses on dense instances (eBird-style, where every brick would
//! be allocated anyway); the `ablation_sparse` harness and the
//! benchmark's `core.sparse.*` per-layer metrics quantify the crossover.

use crate::kernel_apply::{write_region, Scratch};
use crate::parallel::make_pool;
use crate::problem::Problem;
use crate::timing::{PhaseTimings, Stopwatch};
use crate::StkdeError;
use rayon::prelude::*;
use stkde_data::binning::bin_points_replicated;
use stkde_data::Point;
use stkde_grid::{Decomposition, Scalar, SharedSparseGrid, SparseGrid3, SubdomainId, VoxelRange};
use stkde_kernels::SpaceTimeKernel;

/// Result of a sparse STKDE computation.
#[derive(Debug, Clone)]
pub struct SparseResult<S: Scalar> {
    /// The brick-sparse density grid.
    pub grid: SparseGrid3<S>,
    /// Phase timing breakdown (`init` is the brick-table setup, `bin`
    /// the slab planning and point binning of the parallel path).
    pub timings: PhaseTimings,
    /// Worker threads used.
    pub threads: usize,
}

impl<S: Scalar> SparseResult<S> {
    /// Fraction of the domain's bricks that were actually allocated —
    /// the instance's *sparsity* as seen by this backend.
    pub fn occupancy(&self) -> f64 {
        self.grid.occupancy()
    }
}

/// Scatter one point's cylinder into the shared sparse grid through the
/// `PB-SYM` row walker, clipped to `clip`, writing only the non-zero span
/// of each disk row so brick allocation tracks the cylinder (not its
/// bounding box).
///
/// The engine's chords carry a guard voxel of exact zeros per side;
/// skipping those (and any all-zero row) removes only `+= 0` writes on
/// non-negative values, so the surviving writes are bit-identical to the
/// dense engine's [`scatter_rows`](crate::kernel_apply) over the same
/// clip.
///
/// # Safety
/// The caller must hold exclusive access to `p`'s cylinder voxels
/// clipped to `clip` (see [`SharedSparseGrid::axpy_row`]).
unsafe fn apply_point_sparse<S: Scalar, K: SpaceTimeKernel>(
    grid: &SharedSparseGrid<'_, S>,
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
    let mut segments = 0u64;
    scratch.sym_rows(problem, kernel, p, r, |y, x0, ks, planes| {
        // Trim the row's zero fringe once (reused across all T planes) so
        // bricks are only allocated for voxels the cylinder touches.
        let (Some(s), Some(e)) = (
            ks.iter().position(|&v| v != S::ZERO),
            ks.iter().rposition(|&v| v != S::ZERO),
        ) else {
            return;
        };
        let (ks, x0) = (&ks[s..=e], x0 + s);
        for &(t, kt) in planes {
            // SAFETY: forwarded from the caller contract.
            unsafe { grid.axpy_row(y, t as usize, x0, ks, kt) };
            // Brick-row segments this write touched (brick edge = 8).
            segments += (((x0 + ks.len() - 1) >> 3) - (x0 >> 3) + 1) as u64;
        }
    });
    tally::segments(segments);
}

/// Sequential sparse `PB-SYM`. Bit-identical to the dense `PB-SYM`
/// reference for both scalar types (see the module docs).
pub fn run<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
) -> (SparseGrid3<S>, PhaseTimings) {
    let mut sw = Stopwatch::start();
    let mut grid = SparseGrid3::new(problem.domain.dims());
    let init = sw.lap();
    let clip = VoxelRange::full(problem.domain.dims());
    {
        let shared = SharedSparseGrid::new(&mut grid);
        let mut scratch = Scratch::default();
        for p in points {
            // SAFETY: `shared` is the only handle to the grid and this
            // loop is single-threaded — access is exclusive.
            unsafe { apply_point_sparse(&shared, problem, kernel, p, clip, &mut scratch) };
        }
    }
    let compute = sw.lap();
    tally::totals(grid.allocated_bricks() as u64, grid.alloc_cas_races());
    (
        grid,
        PhaseTimings {
            init,
            compute,
            ..Default::default()
        },
    )
}

/// Parallel sparse `PB-SYM` over one shared grid, partitioned into
/// worker-owned time slabs. Bit-identical to [`run`] (see module docs).
///
/// The slab count adapts to `min(threads, available cores, Gt)`: slabs
/// beyond the physical core count add duplicated per-point invariant
/// setup without adding parallelism, so a single-core host degenerates
/// to the sequential path.
pub fn run_par<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    threads: usize,
) -> Result<(SparseGrid3<S>, PhaseTimings), StkdeError> {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let nslabs = threads.min(cores).max(1);
    run_par_slabs(problem, kernel, points, threads, nslabs)
}

/// [`run_par`] with an explicit slab count — exposed so correctness
/// tests can force multi-slab execution (and boundary-straddling brick
/// races) on hosts where the adaptive count would collapse to one slab.
pub fn run_par_slabs<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    threads: usize,
    nslabs: usize,
) -> Result<(SparseGrid3<S>, PhaseTimings), StkdeError> {
    if threads == 0 {
        return Err(StkdeError::InvalidConfig("threads must be > 0".into()));
    }
    let dims = problem.domain.dims();
    let mut sw = Stopwatch::start();
    let slabs = plan_slabs(problem, points, nslabs.clamp(1, dims.gt));
    if slabs.count() <= 1 {
        // One slab ⇒ the parallel path is the sequential loop; skip the
        // binning pass and the pool dispatch entirely.
        return Ok(run(problem, kernel, points));
    }
    let plan = sw.lap();
    let mut grid = SparseGrid3::new(dims);
    let init = sw.lap();

    // The pool is only materialized once a multi-slab plan exists: the
    // one-slab degenerate case above must not pay worker-set costs.
    let pool = make_pool(threads)?;
    // Ascending point indices inside each bin: every voxel then
    // accumulates in the order the sequential loop visits the points.
    let bins = pool.install(|| bin_points_replicated(&problem.domain, &slabs, points, problem.vbw));
    let bin = plan + sw.lap();

    {
        let shared = SharedSparseGrid::new(&mut grid);
        let shared = &shared;
        pool.install(|| {
            (0..slabs.count()).into_par_iter().for_each(|si| {
                let id = SubdomainId(si);
                let clip = slabs.voxel_range(id);
                let mut scratch = Scratch::default();
                for &pi in bins.points_of(id) {
                    // SAFETY: the slabs partition the T axis, so every
                    // voxel is written by exactly one worker; brick-slot
                    // races at slab boundaries are resolved by the
                    // grid's CAS allocation protocol.
                    unsafe {
                        apply_point_sparse(
                            shared,
                            problem,
                            kernel,
                            &points[pi as usize],
                            clip,
                            &mut scratch,
                        )
                    };
                }
            });
        });
    }
    let compute = sw.lap();
    tally::totals(grid.allocated_bricks() as u64, grid.alloc_cas_races());
    Ok((
        grid,
        PhaseTimings {
            init,
            bin,
            compute,
            ..Default::default()
        },
    ))
}

/// Cut the time axis into at most `nslabs` slabs with approximately
/// equal *scatter work*, where each layer's weight is the summed clipped
/// `X·Y` bounding area of the cylinders covering it (a difference array
/// + prefix sum, `O(n + Gt)`).
fn plan_slabs(problem: &Problem, points: &[Point], nslabs: usize) -> Decomposition {
    let dims = problem.domain.dims();
    let gt = dims.gt;
    let one_slab = || Decomposition::from_t_cuts(dims, vec![0, gt]);
    if nslabs <= 1 || gt <= 1 || points.is_empty() {
        return one_slab();
    }
    let full = VoxelRange::full(dims);
    let mut diff = vec![0.0f64; gt + 1];
    for p in points {
        let r = write_region(problem, p, full);
        if r.is_empty() {
            continue;
        }
        let w = ((r.x1 - r.x0) * (r.y1 - r.y0)) as f64;
        diff[r.t0] += w;
        diff[r.t1] -= w;
    }
    // cum[t] = total work in layers [0, t).
    let mut cum = vec![0.0f64; gt + 1];
    let mut layer = 0.0;
    for t in 0..gt {
        layer += diff[t];
        cum[t + 1] = cum[t] + layer;
    }
    let total = cum[gt];
    if total <= 0.0 {
        return one_slab();
    }
    let mut bounds = vec![0usize];
    for k in 1..nslabs {
        let target = total * k as f64 / nslabs as f64;
        let lo = bounds[bounds.len() - 1] + 1;
        let mut t = lo;
        while t < gt && cum[t] < target {
            t += 1;
        }
        if t < gt {
            bounds.push(t);
        } else {
            break;
        }
    }
    bounds.push(gt);
    Decomposition::from_t_cuts(dims, bounds)
}

/// Sparse-backend tallies: brick allocation and write-side locality
/// counters, cataloged in OBSERVABILITY.md.
mod tally {
    use stkde_obs::names;

    /// Brick-row segments written by the scatter loop.
    #[inline]
    pub(super) fn segments(n: u64) {
        if n > 0 {
            stkde_obs::counter!(names::SPARSE_BRICKS_TOUCHED).add(n);
        }
    }

    /// End-of-run allocation totals.
    pub(super) fn totals(allocated: u64, races: u64) {
        stkde_obs::counter!(names::SPARSE_BRICKS_ALLOCATED).add(allocated);
        stkde_obs::counter!(names::SPARSE_ALLOC_CAS_RACES).add(races);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pb_sym;
    use stkde_data::synth;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::{Epanechnikov, Quartic};

    fn setup(n: usize, seed: u64) -> (Problem, Vec<Point>) {
        let domain = Domain::from_dims(GridDims::new(48, 40, 24));
        let points = synth::uniform(n, domain.extent(), seed).into_vec();
        (Problem::new(domain, Bandwidth::new(4.0, 3.0), n), points)
    }

    #[test]
    fn sparse_is_bit_identical_to_dense_pb_sym_f64() {
        let (problem, points) = setup(50, 11);
        let (dense, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);
        let (sparse, _) = run::<f64, _>(&problem, &Epanechnikov, &points);
        assert_eq!(sparse.to_dense(), dense, "sparse must match dense bitwise");
        assert_eq!(sparse.alloc_cas_races(), 0, "sequential path cannot race");
    }

    #[test]
    fn sparse_is_bit_identical_to_dense_pb_sym_f32() {
        let (problem, points) = setup(50, 11);
        let (dense, _) = pb_sym::run::<f32, _>(&problem, &Epanechnikov, &points);
        let (sparse, _) = run::<f32, _>(&problem, &Epanechnikov, &points);
        assert_eq!(sparse.to_dense(), dense, "native-scalar path, no staging");
    }

    #[test]
    fn sparse_matches_dense_for_other_kernels() {
        let (problem, points) = setup(25, 12);
        let (dense, _) = pb_sym::run::<f64, _>(&problem, &Quartic, &points);
        let (sparse, _) = run::<f64, _>(&problem, &Quartic, &points);
        assert_eq!(sparse.to_dense(), dense);
    }

    #[test]
    fn single_point_touches_few_bricks() {
        let domain = Domain::from_dims(GridDims::new(256, 256, 128));
        let problem = Problem::new(domain, Bandwidth::new(3.0, 2.0), 1);
        let points = [Point::new(128.0, 128.0, 64.0)];
        let (sparse, _) = run::<f32, _>(&problem, &Epanechnikov, &points);
        // Cylinder bounding box is 7×7×5 voxels; at 8³ bricks it can touch
        // at most 2×2×2 brick corners.
        assert!(
            sparse.allocated_bricks() <= 8,
            "{}",
            sparse.allocated_bricks()
        );
        assert!(sparse.occupancy() < 0.001);
    }

    #[test]
    fn allocation_tracks_cylinder_not_bounding_box() {
        // Radius-32 disk: the corner bricks of its bounding box lie
        // entirely outside the disk (nearest corner distance ≈ 33.9 > 32)
        // and must not be allocated, because the chord trim drops rows'
        // zero fringes before any brick is touched.
        let domain = Domain::from_dims(GridDims::new(128, 128, 16));
        let problem = Problem::new(domain, Bandwidth::new(32.0, 2.0), 1);
        let points = [Point::new(64.0, 64.0, 8.0)];
        let (sparse, _) = run::<f64, _>(&problem, &Epanechnikov, &points);
        // Bounding box spans 9×9 brick columns × 2 brick layers.
        let bounding_bricks = 9 * 9 * 2;
        assert!(
            sparse.allocated_bricks() < bounding_bricks,
            "corners of the bounding box should be skipped: {} vs {}",
            sparse.allocated_bricks(),
            bounding_bricks
        );
    }

    #[test]
    fn run_par_is_bit_identical_to_run_for_forced_slab_counts() {
        let (problem, points) = setup(60, 13);
        let (seq, _) = run::<f64, _>(&problem, &Epanechnikov, &points);
        let seq_dense = seq.to_dense();
        for (threads, nslabs) in [(1, 1), (2, 2), (4, 3), (8, 8), (4, 24)] {
            let (par, _) =
                run_par_slabs::<f64, _>(&problem, &Epanechnikov, &points, threads, nslabs).unwrap();
            assert_eq!(
                par.to_dense(),
                seq_dense,
                "threads={threads} nslabs={nslabs}"
            );
            assert_eq!(par.allocated_bricks(), seq.allocated_bricks());
        }
    }

    #[test]
    fn run_par_is_bit_identical_to_run_f32() {
        let (problem, points) = setup(40, 19);
        let (seq, _) = run::<f32, _>(&problem, &Epanechnikov, &points);
        for nslabs in [2, 5, 8] {
            let (par, _) =
                run_par_slabs::<f32, _>(&problem, &Epanechnikov, &points, 4, nslabs).unwrap();
            assert_eq!(par.to_dense(), seq.to_dense(), "nslabs={nslabs}");
        }
    }

    #[test]
    fn run_par_adaptive_matches_run() {
        let (problem, points) = setup(35, 21);
        let (seq, _) = run::<f64, _>(&problem, &Epanechnikov, &points);
        let (par, _) = run_par::<f64, _>(&problem, &Epanechnikov, &points, 8).unwrap();
        assert_eq!(par.to_dense(), seq.to_dense());
    }

    #[test]
    fn slab_plan_partitions_the_time_axis() {
        let (problem, points) = setup(80, 23);
        for nslabs in [1, 2, 3, 8, 100] {
            // `from_t_cuts` already insists the cuts tile `[0, Gt)` with
            // non-empty slabs; what is left to check is the count.
            let slabs = plan_slabs(&problem, &points, nslabs);
            assert!(slabs.count() >= 1 && slabs.count() <= nslabs.max(1));
        }
    }

    #[test]
    fn empty_points_allocate_nothing() {
        let (problem, _) = setup(0, 15);
        let (g, _) = run::<f64, _>(&problem, &Epanechnikov, &[]);
        assert_eq!(g.allocated_bricks(), 0);
        assert_eq!(g.sum(), 0.0);
        let (g, _) = run_par::<f64, _>(&problem, &Epanechnikov, &[], 4).unwrap();
        assert_eq!(g.allocated_bricks(), 0);
    }

    #[test]
    fn zero_threads_rejected() {
        let (problem, points) = setup(4, 16);
        assert!(run_par::<f64, _>(&problem, &Epanechnikov, &points, 0).is_err());
    }

    #[test]
    fn mass_conservation_matches_dense() {
        let (problem, points) = setup(30, 17);
        let (dense, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);
        let (sparse, _) = run::<f64, _>(&problem, &Epanechnikov, &points);
        let dense_sum: f64 = dense.as_slice().iter().sum();
        assert!((sparse.sum() - dense_sum).abs() < 1e-9);
    }
}
