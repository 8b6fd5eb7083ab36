//! `PB-SYM-DD` — domain decomposition (paper Algorithm 5, §4.2).
//!
//! The grid is split into an A×B×C lattice; every point is assigned to
//! *each* subdomain its cylinder touches, and subdomains are processed
//! independently with all writes clipped to the owning subdomain. No two
//! tasks ever write the same voxel, so the computation is pleasingly
//! parallel — at the price of recomputing kernel invariants for every cut
//! cylinder (the work overhead swept in Figure 9) and of load imbalance
//! when points cluster (Figure 10).

use crate::error::StkdeError;
use crate::kernel_apply::{apply_point, PointKernel, Scratch};
use crate::parallel::make_pool;
use crate::problem::Problem;
use crate::timing::{PhaseTimings, Stopwatch};
use rayon::prelude::*;
use stkde_data::{binning, Point};
use stkde_grid::{Decomp, Decomposition, Grid3, Scalar, SharedGrid, SubdomainId};
use stkde_kernels::SpaceTimeKernel;

/// Run `PB-SYM-DD` with the given decomposition and thread count.
pub(crate) fn run<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    decomp: Decomp,
    threads: usize,
) -> Result<(Grid3<S>, PhaseTimings), StkdeError> {
    let pool = make_pool(threads)?;
    let dims = problem.domain.dims();
    let decomposition = Decomposition::new(dims, decomp);

    pool.install(|| {
        let mut sw = Stopwatch::start();
        // Replicated binning: a point goes to every subdomain its cylinder
        // intersects (Algorithm 5's intersection test).
        let bins =
            binning::bin_points_replicated(&problem.domain, &decomposition, points, problem.vbw);
        let bin = sw.lap();

        let mut grid = Grid3::zeros_parallel(dims);
        let init = sw.lap();

        {
            let shared = SharedGrid::new(&mut grid);
            let shared = &shared;
            let decomposition = &decomposition;
            let bins = &bins;
            // Heaviest subdomain first (LPT order): with replicated
            // binning the per-subdomain point counts are exactly the task
            // costs, and the work-stealing pool balances whatever the
            // descending order leaves over. Subdomain writes are disjoint,
            // so the reordering cannot change the result.
            let mut order: Vec<usize> = (0..decomposition.count()).collect();
            order.sort_by_key(|&sd| std::cmp::Reverse(bins.points_of(SubdomainId(sd)).len()));
            order
                .into_par_iter()
                .for_each_init(Scratch::default, |scratch, sd| {
                    let id = SubdomainId(sd);
                    // Writes are clipped to the subdomain's own voxel range,
                    // which is disjoint from every other subdomain's.
                    let clip = decomposition.voxel_range(id);
                    for &pi in bins.points_of(id) {
                        let p = &points[pi as usize];
                        // SAFETY: `clip` ranges of distinct subdomains are
                        // disjoint (Decomposition partitions the grid), so
                        // concurrent tasks never touch the same voxel.
                        unsafe {
                            apply_point(
                                PointKernel::Sym,
                                shared,
                                problem,
                                kernel,
                                p,
                                clip,
                                scratch,
                            );
                        }
                    }
                });
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

/// The single-thread work-overhead measurement of Figure 9: the
/// replication factor of the binning (average subdomains per point), which
/// is the extra invariant/cylinder work DD performs relative to `PB-SYM`.
pub fn replication_factor(problem: &Problem, points: &[Point], decomp: Decomp) -> f64 {
    let decomposition = Decomposition::new(problem.domain.dims(), decomp);
    binning::bin_points_replicated(&problem.domain, &decomposition, points, problem.vbw)
        .replication_factor()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pb_sym;
    use stkde_data::synth;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    fn setup(n: usize, seed: u64) -> (Problem, Vec<Point>) {
        let domain = Domain::from_dims(GridDims::new(32, 24, 16));
        let points = synth::uniform(n, domain.extent(), seed).into_vec();
        (Problem::new(domain, Bandwidth::new(3.0, 2.0), n), points)
    }

    /// Subdomains own disjoint voxels and scatter their points in input
    /// order, so every voxel sums the same terms in the same order as
    /// sequential `PB-SYM`: the grids are equal bit for bit, in either
    /// precision, on cubic lattices, time slabs and an uneven lattice.
    #[test]
    fn matches_sequential_across_decomps_and_threads() {
        fn check<S: Scalar + std::fmt::Debug>(problem: &Problem, points: &[Point]) {
            let (seq, _) = pb_sym::run::<S, _>(problem, &Epanechnikov, points);
            let lattices = [1usize, 2, 4, 8]
                .map(Decomp::cubic)
                .into_iter()
                .chain([2, 4, 7].map(|k| Decomp::new(1, 1, k)))
                .chain([Decomp::new(4, 1, 2)]);
            for decomp in lattices {
                for threads in [1usize, 2, 4] {
                    let (par, _) =
                        run::<S, _>(problem, &Epanechnikov, points, decomp, threads).unwrap();
                    assert_eq!(
                        seq.as_slice(),
                        par.as_slice(),
                        "decomp {decomp}, threads {threads} diverges"
                    );
                }
            }
        }
        let (problem, points) = setup(80, 7);
        check::<f32>(&problem, &points);
        check::<f64>(&problem, &points);
    }

    #[test]
    fn replication_factor_grows_with_decomposition() {
        let (problem, points) = setup(100, 9);
        let r1 = replication_factor(&problem, &points, Decomp::cubic(1));
        let r4 = replication_factor(&problem, &points, Decomp::cubic(4));
        let r8 = replication_factor(&problem, &points, Decomp::cubic(8));
        assert_eq!(r1, 1.0);
        assert!(r4 > 1.0);
        assert!(r8 >= r4, "finer decomposition must not reduce replication");
    }

    #[test]
    fn timings_include_bin_phase() {
        let (problem, points) = setup(20, 10);
        let (_, t) = run::<f64, _>(&problem, &Epanechnikov, &points, Decomp::cubic(4), 2).unwrap();
        // bin phase executed (may be fast but is measured).
        assert!(t.bin.as_nanos() > 0);
    }
}
