//! `PB-SYM-DR` — domain replication (paper Algorithm 4, §4.1).
//!
//! Each of the `P` workers accumulates its share of the points into a
//! *private* copy of the grid; the copies are then summed in a pleasingly
//! parallel reduction. Three phases, all embarrassingly parallel — but the
//! memory requirement is `Θ(P·Gx·Gy·Gt)` and the added init/reduce work is
//! `Θ(P·Gx·Gy·Gt)`, so DR only wins when kernel computation dominates
//! (PollenUS-style instances, Figure 8) and *runs out of memory* on the
//! large sparse grids (Flu Hr, eBird Hr), which this implementation
//! surfaces as a typed error.

use crate::error::StkdeError;
use crate::kernel_apply::{apply_points_seq, PointKernel};
use crate::parallel::{chunk_bounds, make_pool};
use crate::problem::Problem;
use crate::timing::{PhaseTimings, Stopwatch};
use rayon::prelude::*;
use stkde_data::Point;
use stkde_grid::{reduce, Grid3, Scalar, VoxelRange};
use stkde_kernels::SpaceTimeKernel;

/// Run `PB-SYM-DR` with `threads` workers under a memory budget.
pub(crate) fn run<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    threads: usize,
    memory_limit: usize,
) -> Result<(Grid3<S>, PhaseTimings), StkdeError> {
    let dims = problem.domain.dims();
    let required = threads * dims.bytes::<S>();
    if required > memory_limit {
        return Err(StkdeError::MemoryLimit {
            required,
            limit: memory_limit,
            what: "domain replicas (PB-SYM-DR)",
        });
    }
    let pool = make_pool(threads)?;
    let full = VoxelRange::full(dims);

    pool.install(|| {
        let mut sw = Stopwatch::start();
        // Phase 1: each worker first-touches its own replica.
        let mut replicas: Vec<Grid3<S>> = (0..threads)
            .into_par_iter()
            .map(|_| Grid3::zeros_touched(dims))
            .collect();
        let init = sw.lap();

        // Phase 2: points are split evenly; each replica gets one chunk.
        replicas.par_iter_mut().enumerate().for_each(|(i, g)| {
            let (s, e) = chunk_bounds(points.len(), threads, i);
            apply_points_seq(PointKernel::Sym, g, problem, kernel, &points[s..e], full);
        });
        let compute = sw.lap();

        // Phase 3: parallel reduction of the replicas.
        let grid = reduce::reduce(replicas);
        let reduce_t = sw.lap();

        Ok((
            grid,
            PhaseTimings {
                init,
                compute,
                reduce: reduce_t,
                ..Default::default()
            },
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pb_sym;
    use stkde_data::synth;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    fn setup(n: usize, seed: u64) -> (Problem, Vec<Point>) {
        let domain = Domain::from_dims(GridDims::new(24, 20, 12));
        let points = synth::uniform(n, domain.extent(), seed).into_vec();
        (Problem::new(domain, Bandwidth::new(3.0, 2.0), n), points)
    }

    #[test]
    fn matches_sequential_for_various_thread_counts() {
        let (problem, points) = setup(60, 1);
        let (seq, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);
        for threads in [1, 2, 3, 4] {
            let (par, t) =
                run::<f64, _>(&problem, &Epanechnikov, &points, threads, usize::MAX).unwrap();
            assert!(
                seq.max_rel_diff(&par, 1e-13) < 1e-9,
                "threads={threads} diverges"
            );
            assert!(t.reduce.as_nanos() > 0);
        }
    }

    #[test]
    fn memory_guard_matches_paper_oom_behaviour() {
        let (problem, points) = setup(5, 2);
        let grid_bytes = problem.domain.dims().bytes::<f64>();
        let err = run::<f64, _>(
            &problem,
            &Epanechnikov,
            &points,
            8,
            4 * grid_bytes, // budget fits 4 replicas, we ask for 8
        )
        .unwrap_err();
        match err {
            StkdeError::MemoryLimit {
                required, limit, ..
            } => {
                assert_eq!(required, 8 * grid_bytes);
                assert_eq!(limit, 4 * grid_bytes);
            }
            other => panic!("expected MemoryLimit, got {other}"),
        }
    }

    #[test]
    fn more_threads_than_points_is_fine() {
        let (problem, points) = setup(2, 3);
        let (par, _) = run::<f64, _>(&problem, &Epanechnikov, &points, 4, usize::MAX).unwrap();
        let (seq, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);
        assert!(seq.max_rel_diff(&par, 1e-13) < 1e-9);
    }

    #[test]
    fn empty_points_zero_grid() {
        let (problem, _) = setup(0, 4);
        let (g, _) = run::<f64, _>(&problem, &Epanechnikov, &[], 2, usize::MAX).unwrap();
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }
}
