//! Determinism and repeatability: synthetic data is seed-stable, the
//! sequential algorithms are bit-reproducible, and the parallel algorithms
//! remain within floating-point reassociation tolerance of the sequential
//! result across repeated racy executions.

use stkde::prelude::*;
use stkde::ResultExt;
use stkde_core::validate::grids_agree;

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
    assert_eq!(r1.grid().as_slice(), r2.grid().as_slice());
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
                grids_agree(reference.grid(), r.grid(), 1e-9, 1e-14),
                "round {round}: {alg} deviates"
            );
        }
    }
}

/// Distributed determinism: for a fixed seed and rank count, the density
/// must be bit-identical across worker thread counts, across repeated
/// racy executions, and across the thread-backed and process-backed
/// worlds. Halo application is ordered by sender rank precisely so this
/// holds — arrival races must never reach the float summation order.
#[cfg(unix)]
mod distmem_process {
    use std::path::Path;
    use std::time::Duration;
    use stkde::core::distmem::spec::{DistSpec, KernelChoice};
    use stkde::core::distmem::{self, DistStrategy};
    use stkde::rank::run_distmem_process;
    use stkde_kernels::Epanechnikov;

    const RANK_EXE: &str = env!("CARGO_BIN_EXE_stkde-rank");

    fn spec() -> DistSpec {
        DistSpec {
            gx: 18,
            gy: 16,
            gt: 16,
            hs: 2.5,
            ht: 2.0,
            n: 50,
            seed: 77,
            kernel: KernelChoice::Epanechnikov,
            strategy: DistStrategy::HaloExchange,
        }
    }

    #[test]
    fn identical_across_thread_counts_and_backends() {
        let spec = spec();
        for ranks in [1usize, 2, 4] {
            let simulated = distmem::run::<f64, _>(
                &spec.problem(),
                &Epanechnikov,
                &spec.points(),
                ranks,
                spec.strategy,
            )
            .unwrap();
            for threads in ["1", "2", "8"] {
                let r = run_distmem_process(Path::new(RANK_EXE), &spec, ranks, |w| {
                    w.env("RAYON_NUM_THREADS", threads)
                        .timeout(Duration::from_secs(20))
                        .run_timeout(Duration::from_secs(90))
                })
                .unwrap();
                assert_eq!(
                    r.grid.as_slice(),
                    simulated.grid.as_slice(),
                    "ranks={ranks} threads={threads}: not bit-identical to the thread world"
                );
            }
        }
    }

    #[test]
    fn repeated_racy_executions_are_bit_identical() {
        // recv_any arrival order differs run to run; the result must not.
        let spec = DistSpec {
            strategy: DistStrategy::PointExchange,
            ..spec()
        };
        let runs: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                run_distmem_process(Path::new(RANK_EXE), &spec, 4, |w| {
                    w.timeout(Duration::from_secs(20))
                        .run_timeout(Duration::from_secs(90))
                })
                .unwrap()
                .grid
                .into_vec()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
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
    assert_eq!(a.grid().as_slice(), b.grid().as_slice());
}
