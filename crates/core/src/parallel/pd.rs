//! `PB-SYM-PD` — phased point decomposition (paper Algorithm 6, §5.1).
//!
//! Points are partitioned (not replicated) over an A×B×C lattice whose
//! subdomains are at least `2Hs`/`2Ht` voxels wide; the eight parity
//! classes of the lattice are processed one after another, each class fully
//! in parallel. Work-efficient — no cylinder is cut, no grid replicated —
//! but the phase barriers over-constrain execution (paper: subdomains
//! `(1,0,0)` and `(64,64,64)` could safely run together yet sit in
//! different phases), motivating `PD-SCHED`.

use crate::error::StkdeError;
use crate::kernel_apply::{apply_point, PointKernel, Scratch};
use crate::parallel::make_pool;
use crate::problem::Problem;
use crate::timing::{PhaseTimings, Stopwatch};
use rayon::prelude::*;
use stkde_data::{binning, Point};
use stkde_grid::{Decomp, Decomposition, Grid3, Scalar, SharedGrid, VoxelRange};
use stkde_kernels::SpaceTimeKernel;

/// Run `PB-SYM-PD` with the given (auto-adjusted) decomposition.
///
/// The decomposition is adjusted so every subdomain is at least twice the
/// bandwidth wide, as required for the parity classes to be safe (§5.1).
pub(crate) fn run<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    decomp: Decomp,
    threads: usize,
) -> Result<(Grid3<S>, PhaseTimings), StkdeError> {
    let pool = make_pool(threads)?;
    let dims = problem.domain.dims();
    let decomposition = Decomposition::adjusted(dims, decomp, problem.vbw);
    let full = VoxelRange::full(dims);

    pool.install(|| {
        let mut sw = Stopwatch::start();
        let bins = binning::bin_points(&problem.domain, &decomposition, points);
        let bin = sw.lap();

        let mut grid = Grid3::zeros_parallel(dims);
        let init = sw.lap();

        {
            let shared = SharedGrid::new(&mut grid);
            let shared = &shared;
            let decomposition = &decomposition;
            let bins = &bins;
            // Group subdomains by parity class once.
            let mut classes: Vec<Vec<usize>> = vec![Vec::new(); 8];
            for id in decomposition.ids() {
                classes[decomposition.parity_class(id)].push(id.0);
            }
            // Heaviest subdomain first within each class (LPT order): the
            // work-stealing pool splits each class list adaptively, and
            // starting the big clustered subdomains early keeps the phase
            // tail short. Writes stay disjoint, so the density field is
            // unchanged by the reordering.
            for class in &mut classes {
                class.sort_by_key(|&sd| {
                    std::cmp::Reverse(bins.points_of(stkde_grid::SubdomainId(sd)).len())
                });
            }
            // Eight phases, each a parallel-for (the paper's eight OpenMP
            // `parallel for` constructs).
            for class in &classes {
                class
                    .par_iter()
                    .for_each_init(Scratch::default, |scratch, &sd| {
                        let id = stkde_grid::SubdomainId(sd);
                        for &pi in bins.points_of(id) {
                            let p = &points[pi as usize];
                            // SAFETY: subdomains in one parity class are
                            // pairwise non-adjacent, and the adjusted
                            // decomposition guarantees ≥ 2·bandwidth widths, so
                            // their cylinder halos are disjoint (validated by
                            // `prop_nonadjacent_halos_disjoint_under_adjustment`
                            // and the WriteAudit integration tests).
                            unsafe {
                                apply_point(
                                    PointKernel::Sym,
                                    shared,
                                    problem,
                                    kernel,
                                    p,
                                    full,
                                    scratch,
                                );
                            }
                        }
                    });
            }
        }
        let compute = sw.lap();

        Ok((
            grid,
            PhaseTimings {
                init,
                bin,
                compute,
                ..Default::default()
            },
        ))
    })
}

/// The decomposition `PB-SYM-PD` will actually use for a requested shape
/// (after the ≥ 2·bandwidth adjustment) — exposed for harnesses that report
/// the adjusted lattice like the paper's Figure 11 caption.
pub fn effective_decomposition(problem: &Problem, decomp: Decomp) -> Decomposition {
    Decomposition::adjusted(problem.domain.dims(), decomp, problem.vbw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pb_sym;
    use stkde_data::synth;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    fn setup(n: usize, seed: u64) -> (Problem, Vec<Point>) {
        let domain = Domain::from_dims(GridDims::new(40, 32, 24));
        let points = synth::uniform(n, domain.extent(), seed).into_vec();
        (Problem::new(domain, Bandwidth::new(2.0, 2.0), n), points)
    }

    #[test]
    fn matches_sequential() {
        let (problem, points) = setup(100, 21);
        let (seq, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);
        for k in [1usize, 2, 4, 16] {
            for threads in [1usize, 2, 4] {
                let (par, _) =
                    run::<f64, _>(&problem, &Epanechnikov, &points, Decomp::cubic(k), threads)
                        .unwrap();
                assert!(
                    seq.max_rel_diff(&par, 1e-13) < 1e-9,
                    "k={k} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn decomposition_is_adjusted_to_bandwidth() {
        let (problem, _) = setup(1, 3);
        // Grid 40x32x24, Hs=2, Ht=2 → min widths 4 → at most 10x8x6.
        let d = effective_decomposition(&problem, Decomp::cubic(64));
        assert_eq!(d.decomp(), Decomp::new(10, 8, 6));
        let (wx, wy, wt) = d.min_widths();
        assert!(wx >= 4 && wy >= 4 && wt >= 4);
    }

    #[test]
    fn clustered_points_still_correct() {
        // All points in one subdomain — exercises empty parity classes.
        let domain = Domain::from_dims(GridDims::new(40, 40, 20));
        let points: Vec<Point> = (0..50)
            .map(|i| Point::new(5.0 + (i % 5) as f64 * 0.1, 5.0, 5.0))
            .collect();
        let problem = Problem::new(domain, Bandwidth::new(2.0, 2.0), points.len());
        let (seq, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);
        let (par, _) =
            run::<f64, _>(&problem, &Epanechnikov, &points, Decomp::cubic(8), 4).unwrap();
        assert!(seq.max_rel_diff(&par, 1e-13) < 1e-9);
    }
}
