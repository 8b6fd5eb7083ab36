//! Property tests for the Morton-brick sparse backend: on random
//! domains, bandwidths, and kernels, the sparse scatter must be
//! **bit-identical** — `assert_eq!` on the raw scalar vectors, not
//! within-epsilon — to the dense `PB-SYM` reference, for `f32` and
//! `f64`, sequentially and across forced slab counts of the parallel
//! path.
//!
//! Domain dimensions are drawn *around* the brick (8) and chunk (64)
//! edges so cylinders routinely straddle brick columns, brick layers,
//! and chunk boundaries, and get clipped by domain edges — the cases
//! where the per-brick segmentation of `axpy_row` and the trimmed chord
//! spans could plausibly diverge from the dense write path.

use proptest::prelude::*;
use stkde_core::testkit;
use stkde_core::{sparse, Problem};
use stkde_data::Point;
use stkde_grid::{Bandwidth, Domain, GridDims};
use stkde_kernels::{Epanechnikov, Quartic, SpaceTimeKernel};

#[derive(Debug, Clone)]
struct Case {
    domain: Domain,
    bw: Bandwidth,
    points: Vec<Point>,
}

/// Dimension biased toward brick/chunk boundaries: mostly values within
/// ±2 of a multiple of 8 (including 64 itself), occasionally arbitrary.
fn boundary_dim() -> impl Strategy<Value = usize> {
    (1usize..9, -2isize..3, 0usize..5, 2usize..70).prop_map(|(k, d, pick, free)| {
        if pick == 0 {
            free
        } else {
            (k * 8).saturating_add_signed(d).max(2)
        }
    })
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        boundary_dim(),
        boundary_dim(),
        boundary_dim(),
        (0.6f64..7.0, 0.6f64..4.0),
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 0..24),
    )
        .prop_map(|(gx, gy, gt, (hs, ht), pts)| {
            let domain = Domain::from_dims(GridDims::new(gx, gy, gt));
            // Points across the whole extent, so cylinders get clipped at
            // every face of the domain as well as straddling bricks.
            let points: Vec<Point> = pts
                .into_iter()
                .map(|(fx, fy, ft)| {
                    Point::new(
                        fx * (gx as f64 - 1e-9),
                        fy * (gy as f64 - 1e-9),
                        ft * (gt as f64 - 1e-9),
                    )
                })
                .collect();
            Case {
                domain,
                bw: Bandwidth::new(hs, ht),
                points,
            }
        })
}

fn check_bitwise<K: SpaceTimeKernel>(case: &Case, kernel: &K) -> Result<(), TestCaseError> {
    let problem = Problem::new(case.domain, case.bw, case.points.len());

    let (dense64, _) = testkit::pb_sym::<f64, _>(&problem, kernel, &case.points);
    let (sparse64, _) = sparse::run::<f64, _>(&problem, kernel, &case.points);
    prop_assert_eq!(&sparse64.to_dense(), &dense64, "f64 sequential sparse");

    let (dense32, _) = testkit::pb_sym::<f32, _>(&problem, kernel, &case.points);
    let (sparse32, _) = sparse::run::<f32, _>(&problem, kernel, &case.points);
    prop_assert_eq!(&sparse32.to_dense(), &dense32, "f32 sequential sparse");

    // Parallel path at forced slab counts (the container may be
    // single-core; run_par's adaptive count would then never exercise
    // multi-slab bucketing or boundary-straddling bricks).
    for nslabs in [2usize, 5] {
        let (par, _) =
            testkit::sparse_run_par_slabs::<f64, _>(&problem, kernel, &case.points, 2, nslabs)
                .expect("threads >= 1");
        prop_assert_eq!(&par.to_dense(), &dense64, "f64 par nslabs={}", nslabs);
        let (par32, _) =
            testkit::sparse_run_par_slabs::<f32, _>(&problem, kernel, &case.points, 2, nslabs)
                .expect("threads >= 1");
        prop_assert_eq!(&par32.to_dense(), &dense32, "f32 par nslabs={}", nslabs);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn sparse_bitwise_matches_dense_epanechnikov(case in case_strategy()) {
        check_bitwise(&case, &Epanechnikov)?;
    }

    #[test]
    fn sparse_bitwise_matches_dense_quartic(case in case_strategy()) {
        check_bitwise(&case, &Quartic)?;
    }

    #[test]
    fn allocation_never_exceeds_touched_bricks(case in case_strategy()) {
        let problem = Problem::new(case.domain, case.bw, case.points.len());
        let (grid, _) = sparse::run::<f64, _>(&problem, &Epanechnikov, &case.points);
        // Union bound: every point's cylinder bounding box, in bricks.
        let vbw = problem.domain.voxel_bandwidth(case.bw);
        let per_point = (2 * vbw.hs / 8 + 2).pow(2) * (2 * vbw.ht / 8 + 2);
        prop_assert!(
            grid.allocated_bricks() <= (case.points.len() * per_point).min(grid.table_len()),
            "{} bricks for {} points",
            grid.allocated_bricks(),
            case.points.len()
        );
        if case.points.is_empty() {
            prop_assert_eq!(grid.allocated_bricks(), 0);
        }
    }
}
