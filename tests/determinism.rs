//! Determinism and repeatability: synthetic data is seed-stable, the
//! sequential algorithms are bit-reproducible, and the parallel algorithms
//! remain within floating-point reassociation tolerance of the sequential
//! result across repeated racy executions.

use stkde::prelude::*;

fn instance() -> (Domain, Bandwidth, PointSet) {
    let domain = Domain::from_dims(GridDims::new(36, 30, 18));
    let points = DatasetKind::EBird.generate(400, domain.extent(), 77);
    (domain, Bandwidth::new(3.0, 2.0), points)
}

#[test]
fn generation_is_seed_stable() {
    let domain = Domain::from_dims(GridDims::new(16, 16, 8));
    for kind in DatasetKind::ALL {
        let a = kind.generate(200, domain.extent(), 5);
        let b = kind.generate(200, domain.extent(), 5);
        assert_eq!(a, b, "{kind} generation not deterministic");
    }
}

#[test]
fn sequential_runs_are_bit_identical() {
    let (domain, bw, points) = instance();
    let r1 = Stkde::new(domain, bw)
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&points)
        .unwrap();
    let r2 = Stkde::new(domain, bw)
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&points)
        .unwrap();
    assert_eq!(r1.grid.as_slice(), r2.grid.as_slice());
}

#[test]
fn parallel_stress_stays_within_tolerance() {
    // Run the raciest algorithms repeatedly; all executions must agree
    // with the sequential result (any scheduling-dependent *error* would
    // show up as a large deviation, not reassociation noise).
    let (domain, bw, points) = instance();
    let reference = Stkde::new(domain, bw)
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&points)
        .unwrap();
    for round in 0..6 {
        for alg in [
            Algorithm::PbSymPdSched {
                decomp: Decomp::cubic(6),
            },
            Algorithm::PbSymPdSchedRep {
                decomp: Decomp::cubic(6),
            },
            Algorithm::PbSymDd {
                decomp: Decomp::cubic(6),
            },
        ] {
            let r = Stkde::new(domain, bw)
                .algorithm(alg)
                .threads(4)
                .compute::<f64>(&points)
                .unwrap();
            assert!(
                reference.grid.max_rel_diff(&r.grid, 1e-14) <= 1e-9,
                "round {round}: {alg} deviates"
            );
        }
    }
}

/// Distributed determinism: for a fixed seed and rank count, the density
/// and the accounted traffic must be bit-identical across rayon pool
/// sizes and across repeated racy executions. Halo application is
/// ordered by sender rank precisely so this holds — arrival races must
/// never reach the float summation order.
mod distmem_threads {
    use stkde::core::distmem::{self, DistResult, DistStrategy};
    use stkde::core::Problem;
    use stkde_data::{synth, Point};
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    fn instance() -> (Problem, Vec<Point>) {
        let domain = Domain::from_dims(GridDims::new(18, 16, 16));
        let points = synth::ClusterSpec {
            clusters: 4,
            spatial_sigma: 0.08,
            temporal_sigma: 0.15,
            ..Default::default()
        }
        .generate(50, domain.extent(), 77)
        .into_vec();
        let problem = Problem::new(domain, Bandwidth::new(2.5, 2.0), points.len());
        (problem, points)
    }

    fn run(ranks: usize, strategy: DistStrategy) -> DistResult<f64> {
        let (problem, points) = instance();
        distmem::run::<f64, _>(&problem, &Epanechnikov, &points, ranks, strategy).unwrap()
    }

    #[test]
    fn identical_across_pool_sizes_at_every_rank_count() {
        for strategy in [DistStrategy::HaloExchange, DistStrategy::PointExchange] {
            for ranks in [1usize, 2, 4] {
                let reference = run(ranks, strategy);
                for threads in [1, 2, 8] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let r = pool.install(|| run(ranks, strategy));
                    assert_eq!(
                        r.grid.as_slice(),
                        reference.grid.as_slice(),
                        "{strategy} ranks={ranks} threads={threads}: not bit-identical"
                    );
                    assert_eq!(r.stats, reference.stats, "{strategy} ranks={ranks}");
                }
            }
        }
    }

    #[test]
    fn repeated_racy_executions_are_bit_identical() {
        // recv_any arrival order differs run to run; the result must not.
        for strategy in [DistStrategy::PointExchange, DistStrategy::HaloExchange] {
            let runs: Vec<DistResult<f64>> = (0..3).map(|_| run(4, strategy)).collect();
            for r in &runs[1..] {
                assert_eq!(r.grid.as_slice(), runs[0].grid.as_slice(), "{strategy}");
                assert_eq!(r.stats, runs[0].stats, "{strategy}");
                assert_eq!(r.processed, runs[0].processed, "{strategy}");
            }
        }
    }
}

#[test]
fn dr_reduction_order_is_deterministic() {
    // DR reduces replicas in index order: repeated runs with the same
    // thread count must agree bit-for-bit (the point->replica assignment
    // is a fixed chunking, and f64 addition per voxel is a fixed order).
    let (domain, bw, points) = instance();
    let run = || {
        Stkde::new(domain, bw)
            .algorithm(Algorithm::PbSymDr)
            .threads(3)
            .compute::<f64>(&points)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.grid.as_slice(), b.grid.as_slice());
}

/// The PD family orders every pair of overlapping writes through its task
/// DAG (adjacent subdomains never run concurrently, and the DAG fixes which
/// goes first), so each voxel sums its contributions in one fixed order.
/// PD-SCHED is therefore bitwise the same on every pool size; the
/// replicating variants size their replicas from `threads`, so they are
/// pinned across repeated runs at one thread count.
mod pd_family {
    use stkde::core::parallel::pd_rep;
    use stkde::prelude::*;
    use stkde::Problem;

    fn decomp() -> Decomp {
        Decomp::cubic(6)
    }

    fn compute(alg: Algorithm, threads: usize) -> Vec<f32> {
        let (domain, bw, points) = super::instance();
        Stkde::new(domain, bw)
            .algorithm(alg)
            .threads(threads)
            .compute::<f32>(&points)
            .unwrap()
            .grid
            .as_slice()
            .to_vec()
    }

    #[test]
    fn pd_sched_is_bit_identical_across_pool_sizes_and_runs() {
        let alg = Algorithm::PbSymPdSched { decomp: decomp() };
        let reference = compute(alg, 1);
        for threads in [1, 2, 8] {
            for round in 0..3 {
                assert!(
                    compute(alg, threads) == reference,
                    "threads={threads} round={round}: PD-SCHED not bit-identical"
                );
            }
        }
    }

    #[test]
    fn pd_rep_variants_are_bit_identical_across_runs() {
        const THREADS: usize = 4;
        // The instance is clustered enough that the planner replicates,
        // so the merge order of private buffers is exercised too.
        let (domain, bw, points) = super::instance();
        let problem = Problem::new(domain, bw, points.len());
        for ordering in [pd_rep::Ordering::Lexicographic, pd_rep::Ordering::LoadAware] {
            let plan = pd_rep::plan(&problem, points.as_slice(), decomp(), THREADS, ordering);
            assert!(
                plan.replicas.iter().any(|&r| r > 1),
                "{ordering:?}: nothing replicated"
            );
        }
        for alg in [
            Algorithm::PbSymPdRep { decomp: decomp() },
            Algorithm::PbSymPdSchedRep { decomp: decomp() },
        ] {
            let reference = compute(alg, THREADS);
            for round in 0..4 {
                assert!(
                    compute(alg, THREADS) == reference,
                    "round {round}: {alg} not bit-identical"
                );
            }
        }
    }
}
