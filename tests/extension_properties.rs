//! Property-based integration: the extension execution paths agree with
//! batch `PB-SYM` on *randomized* instances — dims, bandwidths, point
//! clouds, rank counts, and update interleavings all drawn by proptest.

use proptest::prelude::*;
use stkde::core::distmem::{self, DistStrategy};
use stkde::core::sparse;
use stkde::kernels::Epanechnikov;
use stkde::prelude::*;
use stkde::Problem;
use stkde_core::testkit::{self, IncrementalStkde};

/// A random instance: grid dims, bandwidths, and points inside the extent.
fn arb_instance() -> impl Strategy<Value = (Domain, Bandwidth, Vec<Point>)> {
    (2usize..24, 2usize..20, 2usize..16, 1.0f64..6.0, 1.0f64..4.0).prop_flat_map(
        |(gx, gy, gt, hs, ht)| {
            let domain = Domain::from_dims(GridDims::new(gx, gy, gt));
            let points = proptest::collection::vec(
                (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(move |(fx, fy, ft)| {
                    Point::new(
                        fx * (gx as f64 - 1e-9),
                        fy * (gy as f64 - 1e-9),
                        ft * (gt as f64 - 1e-9),
                    )
                }),
                0..40,
            );
            (Just(domain), Just(Bandwidth::new(hs, ht)), points)
        },
    )
}

fn batch(domain: Domain, bw: Bandwidth, points: &[Point]) -> Grid3<f64> {
    let problem = Problem::new(domain, bw, points.len());
    testkit::pb_sym::<f64, _>(&problem, &Epanechnikov, points).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_equals_dense_on_random_instances(
        (domain, bw, points) in arb_instance(),
        nslabs in 1usize..8, threads in 1usize..5,
    ) {
        let dense = batch(domain, bw, &points);
        let problem = Problem::new(domain, bw, points.len());
        let (grid, _) = sparse::run::<f64, _>(&problem, &Epanechnikov, &points);
        // Bit-identical, not merely close: same engine, same write order.
        prop_assert_eq!(&grid.to_dense(), &dense);
        let (par, _) = testkit::sparse_run_par_slabs::<f64, _>(
            &problem, &Epanechnikov, &points, threads, nslabs)
            .expect("threads >= 1 by strategy");
        prop_assert_eq!(&par.to_dense(), &dense);
    }

    #[test]
    fn distmem_equals_batch_on_random_instances(
        (domain, bw, points) in arb_instance(),
        ranks in 1usize..6,
        halo in proptest::bool::ANY,
    ) {
        prop_assume!(ranks <= domain.dims().gt);
        let strategy = if halo { DistStrategy::HaloExchange } else { DistStrategy::PointExchange };
        let dense = batch(domain, bw, &points);
        let problem = Problem::new(domain, bw, points.len());
        let r = distmem::run::<f64, _>(&problem, &Epanechnikov, &points, ranks, strategy)
            .expect("rank count validated by assume");
        prop_assert!(dense.max_rel_diff(&r.grid, 1e-12) < 1e-8,
            "{strategy} ranks={ranks}");
        // Work accounting invariants.
        let total: usize = r.processed.iter().sum();
        match strategy {
            DistStrategy::HaloExchange => prop_assert_eq!(total, points.len()),
            DistStrategy::PointExchange => prop_assert!(total >= points.len()),
        }
    }

    #[test]
    fn incremental_agrees_after_random_interleaving(
        (domain, bw, points) in arb_instance(),
        removals in proptest::collection::vec(proptest::bool::ANY, 40),
    ) {
        // Insert everything; remove a random subset; compare to a batch
        // over the survivors.
        let mut inc = IncrementalStkde::new(domain, bw);
        for &p in &points {
            inc.insert(p);
        }
        let mut survivors = Vec::new();
        for (i, &p) in points.iter().enumerate() {
            if removals.get(i).copied().unwrap_or(false) {
                inc.remove(&p);
            } else {
                survivors.push(p);
            }
        }
        prop_assert_eq!(inc.len(), survivors.len());
        // Removals cancel exactly: the cube is a fresh build of the survivors.
        let mut fresh = IncrementalStkde::new(domain, bw);
        fresh.insert_batch(&survivors);
        prop_assert!(inc.assemble() == fresh.assemble());
        let dense = batch(domain, bw, &survivors);
        let snap = inc.snapshot();
        // Every write is rounded onto a quantum 2⁻³⁵ of the cylinder peak;
        // allow a tight absolute band scaled by the unnormalized peak.
        let scale = dense.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs())).max(1e-30);
        prop_assert!(dense.max_abs_diff(&snap) < 1e-9 * scale.max(1.0));
    }

    #[test]
    fn sparse_occupancy_and_bytes_are_consistent(
        (domain, bw, points) in arb_instance(),
    ) {
        let problem = Problem::new(domain, bw, points.len());
        let (grid, _) = sparse::run::<f32, _>(&problem, &Epanechnikov, &points);
        prop_assert!(grid.allocated_bricks() <= grid.table_len());
        let occ = grid.occupancy();
        prop_assert!((0.0..=1.0).contains(&occ));
        if points.is_empty() {
            prop_assert_eq!(grid.allocated_bricks(), 0);
        }
        // Mass agreement with the dense path.
        let dense = batch(domain, bw, &points);
        let dense_sum: f64 = dense.as_slice().iter().sum();
        prop_assert!((grid.sum() - dense_sum).abs() < 1e-4 * dense_sum.abs().max(1.0));
    }
}
