//! Edge-case tests for the distributed exchange strategies, with the
//! adversarial point placements where distributed KDE implementations
//! classically diverge: empty ranks, degenerate point distributions,
//! events exactly on slab boundaries, and bandwidths wider than a slab.

use stkde_core::distmem::{self, DistStrategy};
use stkde_core::testkit;
use stkde_core::Problem;
use stkde_data::Point;
use stkde_grid::{Bandwidth, Domain, GridDims};
use stkde_kernels::Epanechnikov;

const STRATEGIES: [DistStrategy; 2] = [DistStrategy::PointExchange, DistStrategy::HaloExchange];

fn check_against_sequential(
    problem: &Problem,
    points: &[Point],
    ranks: usize,
    strategy: DistStrategy,
    what: &str,
) -> distmem::DistResult<f64> {
    let (seq, _) = testkit::pb_sym::<f64, _>(problem, &Epanechnikov, points);
    let r = distmem::run::<f64, _>(problem, &Epanechnikov, points, ranks, strategy)
        .unwrap_or_else(|e| panic!("{what} ({strategy}, {ranks} ranks): {e}"));
    let diff = seq.max_rel_diff(&r.grid, 1e-15);
    assert!(
        diff < 1e-12,
        "{what} ({strategy}, {ranks} ranks): deviates by {diff:e}"
    );
    r
}

#[test]
fn empty_pointset_on_every_rank_count() {
    let problem = Problem::new(
        Domain::from_dims(GridDims::new(12, 10, 18)),
        Bandwidth::new(2.0, 2.0),
        0,
    );
    for strategy in STRATEGIES {
        for ranks in [1, 3, 6] {
            let r = check_against_sequential(&problem, &[], ranks, strategy, "empty pointset");
            assert!(r.grid.as_slice().iter().all(|&v| v == 0.0));
            assert_eq!(r.total_bytes(), {
                // Only the gather phase moves data: every non-root rank
                // ships its (empty-density) slab, plus the empty routing
                // batches which carry no point bytes.
                r.stats.iter().map(|s| s.bytes_sent).sum()
            });
        }
    }
}

#[test]
fn fewer_points_than_ranks_leaves_ranks_idle() {
    // 3 points over 6 ranks: at least three ranks start with no local
    // points, and (for halo) several own slabs no cylinder reaches.
    let domain = Domain::from_dims(GridDims::new(16, 16, 18));
    let problem = Problem::new(domain, Bandwidth::new(2.0, 1.0), 3);
    let points = vec![
        Point::new(3.2, 4.1, 2.5),
        Point::new(8.9, 9.3, 2.9),
        Point::new(12.4, 2.2, 3.1),
    ];
    for strategy in STRATEGIES {
        let r = check_against_sequential(&problem, &points, 6, strategy, "sparse ranks");
        // Idle ranks must report zero work, not garbage.
        assert!(r.processed.iter().filter(|&&p| p == 0).count() >= 3);
        assert_eq!(r.compute_secs.len(), 6);
    }
}

#[test]
fn all_points_on_one_slab() {
    // Every event inside rank 0's slab (layers [0, 5) at 4 ranks over
    // gt=20): point exchange must route everything to the slab interval
    // its halos touch, halo exchange must send ghosts only upward.
    let domain = Domain::from_dims(GridDims::new(14, 14, 20));
    let problem = Problem::new(domain, Bandwidth::new(2.5, 2.0), 12);
    let points: Vec<Point> = (0..12)
        .map(|i| {
            Point::new(
                1.0 + (i as f64) * 0.9,
                12.0 - (i as f64) * 0.7,
                0.3 + (i as f64) * 0.35, // t in [0.3, 4.2) — all layer < 5
            )
        })
        .collect();
    for strategy in STRATEGIES {
        let r = check_against_sequential(&problem, &points, 4, strategy, "one-slab hotspot");
        match strategy {
            DistStrategy::HaloExchange => {
                // All work lands on rank 0 (plus whatever straddle copies
                // the strategy makes); ranks 2..4 rasterize nothing.
                assert_eq!(r.processed[2], 0);
                assert_eq!(r.processed[3], 0);
                assert_eq!(r.processed.iter().sum::<usize>(), points.len());
            }
            DistStrategy::PointExchange => {
                // Replicas may spill into rank 1 (Ht=2 from layer 4) but
                // never beyond the halo reach.
                assert_eq!(r.processed[2] + r.processed[3], 0);
            }
        }
    }
}

#[test]
fn points_exactly_on_slab_boundaries() {
    // gt=20 at 4 ranks ⇒ boundaries at layers 5, 10, 15. World t == the
    // boundary coordinate floors into the *upper* slab; both strategies
    // must agree with sequential regardless of that convention, and with
    // each other bit-for-bit wherever summation order coincides.
    let domain = Domain::from_dims(GridDims::new(12, 12, 20));
    let problem = Problem::new(domain, Bandwidth::new(2.0, 2.0), 8);
    let points: Vec<Point> = [5.0, 10.0, 15.0]
        .iter()
        .flat_map(|&t| {
            [
                Point::new(4.2, 6.6, t),         // exactly on the boundary
                Point::new(7.8, 3.1, t - 1e-12), // a hair below
            ]
        })
        .chain([
            Point::new(6.0, 6.0, 0.0),  // domain floor
            Point::new(6.0, 6.0, 20.0), // domain ceiling (clamps to last layer)
        ])
        .collect();
    assert_eq!(points.len(), 8);
    for strategy in STRATEGIES {
        for ranks in [2, 4] {
            check_against_sequential(&problem, &points, ranks, strategy, "boundary points");
        }
    }
}

#[test]
fn bandwidth_wider_than_a_slab() {
    // 8 ranks over gt=24 ⇒ slab width 3, but Ht=7: a halo spans two full
    // neighbor slabs plus change, and a single cylinder can touch five
    // ranks. The expected-sender sets and multi-slab ghost shipping must
    // still be exact.
    let domain = Domain::from_dims(GridDims::new(10, 10, 24));
    let problem = Problem::new(domain, Bandwidth::new(2.0, 7.0), 30);
    let points: Vec<Point> = (0..30)
        .map(|i| {
            Point::new(
                (i % 9) as f64 + 0.7,
                ((i * 3) % 9) as f64 + 0.4,
                (i as f64) * 0.8 + 0.1,
            )
        })
        .collect();
    for strategy in STRATEGIES {
        let r = check_against_sequential(&problem, &points, 8, strategy, "wide bandwidth");
        if strategy == DistStrategy::PointExchange {
            // Ht(7) > slab width(3): nearly every point must be
            // replicated to several ranks.
            assert!(
                r.replication_factor(points.len()) > 3.0,
                "replication {} should reflect halo >> slab",
                r.replication_factor(points.len())
            );
        }
    }
}

#[test]
fn single_layer_slabs() {
    // ranks == gt: every slab is one layer thick — the extreme
    // decomposition where every cylinder straddles.
    let domain = Domain::from_dims(GridDims::new(8, 8, 6));
    let problem = Problem::new(domain, Bandwidth::new(2.0, 2.0), 10);
    let points: Vec<Point> = (0..10)
        .map(|i| {
            Point::new(
                (i % 7) as f64 + 0.5,
                (i % 5) as f64 + 0.5,
                (i % 6) as f64 + 0.5,
            )
        })
        .collect();
    for strategy in STRATEGIES {
        check_against_sequential(&problem, &points, 6, strategy, "single-layer slabs");
    }
}

#[test]
fn every_point_a_boundary_point_matches_sequential() {
    // The nastiest decomposition for the boundary-first split: one layer
    // per rank, so *every* point is a boundary point and the interior
    // set is empty.
    let domain = Domain::from_dims(GridDims::new(8, 8, 6));
    let problem = Problem::new(domain, Bandwidth::new(2.0, 3.0), 9);
    let points: Vec<Point> = (0..9)
        .map(|i| {
            Point::new(
                (i % 7) as f64 + 0.4,
                (i % 5) as f64 + 0.6,
                (i % 6) as f64 + 0.5,
            )
        })
        .collect();
    let (seq, _) = testkit::pb_sym::<f64, _>(&problem, &Epanechnikov, &points);
    let r = distmem::run::<f64, _>(
        &problem,
        &Epanechnikov,
        &points,
        6,
        DistStrategy::HaloExchange,
    )
    .unwrap();
    assert!(seq.max_rel_diff(&r.grid, 1e-15) < 1e-12);
}

#[test]
fn rank_counts_that_do_not_divide_the_time_axis() {
    // gt = 20 over 3 and 7 ranks (5 divides, as the control): the slab
    // boundaries are the decomposition's ⌊i·Gt/P⌋ — widths 6,7,7 and
    // 2,3,3,3,3,3,3 — where an extras-first split would cut at 7,7,6 and
    // 3,…,3,2. One event per layer makes each rank's home share its slab
    // width, so the routing, the ghost shipping and the gather must all
    // follow the same boundaries to reproduce the sequential field.
    let gt = 20;
    let domain = Domain::from_dims(GridDims::new(12, 10, gt));
    let points: Vec<Point> = (0..gt)
        .map(|l| Point::new((l % 11) as f64 + 0.6, (l % 9) as f64 + 0.3, l as f64 + 0.5))
        .collect();
    let problem = Problem::new(domain, Bandwidth::new(2.0, 3.0), points.len());
    let (seq, _) = testkit::pb_sym::<f64, _>(&problem, &Epanechnikov, &points);
    for ranks in [3, 5, 7] {
        let widths: Vec<usize> = (0..ranks)
            .map(|i| (i + 1) * gt / ranks - i * gt / ranks)
            .collect();
        for strategy in STRATEGIES {
            let r =
                distmem::run::<f64, _>(&problem, &Epanechnikov, &points, ranks, strategy).unwrap();
            let diff = seq.max_rel_diff(&r.grid, 1e-15);
            assert!(
                diff < 1e-12,
                "{strategy} at {ranks} ranks deviates by {diff:e}"
            );
            if strategy == DistStrategy::HaloExchange {
                assert_eq!(r.processed, widths, "home shares are the slab widths");
            }
        }
    }
}
