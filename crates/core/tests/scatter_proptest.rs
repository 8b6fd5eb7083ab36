//! Property tests for the span-clipped, vectorized scatter engine: every
//! strategy must match an independent naive per-voxel reference on random
//! domains (non-unit resolutions, shifted origins), random bandwidths,
//! off-center points, and partial clips — including chords clipped by a
//! subdomain boundary, the `PB-SYM-DD` case.

use proptest::prelude::*;
use stkde_core::kernel_apply::{apply_points_seq, PointKernel};
use stkde_core::Problem;
use stkde_data::Point;
use stkde_grid::{Bandwidth, Domain, Extent, Grid3, Resolution, VoxelRange};
use stkde_kernels::{Epanechnikov, SpaceTimeKernel, Tabulated, TruncatedGaussian};

/// Ground truth by definition: evaluate the estimator at every voxel of
/// the clip region, with no cylinder boxes, invariants, chords, or axis
/// tables — `Θ(G·n)` and trivially correct.
fn naive_reference<K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    clip: VoxelRange,
) -> Grid3<f64> {
    let mut g: Grid3<f64> = Grid3::zeros(problem.domain.dims());
    for p in points {
        for t in clip.t0..clip.t1 {
            for y in clip.y0..clip.y1 {
                for x in clip.x0..clip.x1 {
                    let c = problem.domain.voxel_center(x, y, t);
                    let (hs, ht) = (problem.bw.hs, problem.bw.ht);
                    let (u, v) = ((c[0] - p.x) / hs, (c[1] - p.y) / hs);
                    let w = (c[2] - p.t) / ht;
                    let val = kernel.eval(u, v, w);
                    if val != 0.0 {
                        g.add(x, y, t, val * problem.norm);
                    }
                }
            }
        }
    }
    g
}

#[derive(Debug, Clone)]
struct Case {
    domain: Domain,
    bw: Bandwidth,
    points: Vec<Point>,
    clip: VoxelRange,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (6usize..20, 6usize..20, 4usize..10),
        (0.5f64..2.5, 0.5f64..2.0),
        (-7.0f64..7.0, -3.0f64..3.0, -11.0f64..11.0),
        (0.6f64..5.0, 0.6f64..3.0),
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..8),
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.2f64..1.0),
    )
        .prop_map(
            |((gx, gy, gt), (sres, tres), (ox, oy, ot), (hs, ht), pts, clip_frac)| {
                let min = [ox, oy, ot];
                let max = [
                    ox + gx as f64 * sres,
                    oy + gy as f64 * sres,
                    ot + gt as f64 * tres,
                ];
                let domain =
                    Domain::from_extent(Extent::new(min, max), Resolution::new(sres, tres));
                let dims = domain.dims();
                // Points anywhere inside the extent, including corners
                // whose cylinders are clipped by the grid boundary.
                let points = pts
                    .into_iter()
                    .map(|(fx, fy, ft)| {
                        Point::new(
                            min[0] + fx * (max[0] - min[0]),
                            min[1] + fy * (max[1] - min[1]),
                            min[2] + ft * (max[2] - min[2]),
                        )
                    })
                    .collect();
                // A random sub-box clip (the PB-SYM-DD case): chords of
                // boundary-straddling cylinders are cut mid-disk.
                let (cx, cy, ct, cw) = clip_frac;
                let sub = |f: f64, n: usize| -> (usize, usize) {
                    let lo = (f * n as f64) as usize;
                    let hi = (lo + 1 + (cw * n as f64) as usize).min(n);
                    (lo.min(n - 1), hi.max(lo.min(n - 1) + 1))
                };
                let (x0, x1) = sub(cx, dims.gx);
                let (y0, y1) = sub(cy, dims.gy);
                let (t0, t1) = sub(ct, dims.gt);
                Case {
                    domain,
                    bw: Bandwidth::new(hs, ht),
                    points,
                    clip: VoxelRange {
                        x0,
                        x1,
                        y0,
                        y1,
                        t0,
                        t1,
                    },
                }
            },
        )
}

fn run_engine<S: stkde_grid::Scalar, K: SpaceTimeKernel>(
    case: &Case,
    kernel: &K,
    which: PointKernel,
    clip: VoxelRange,
) -> Grid3<S> {
    let problem = Problem::new(case.domain, case.bw, case.points.len());
    let mut g: Grid3<S> = Grid3::zeros(case.domain.dims());
    apply_points_seq(which, &mut g, &problem, kernel, &case.points, clip);
    g
}

fn to_f64(g: &Grid3<f32>) -> Grid3<f64> {
    Grid3::from_vec(g.dims(), g.as_slice().iter().map(|&v| v as f64).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every strategy, full grid, f64: ≤ 1e-10 relative against the
    /// per-voxel reference.
    #[test]
    fn f64_strategies_match_naive_full_grid(case in case_strategy()) {
        let problem = Problem::new(case.domain, case.bw, case.points.len());
        let full = VoxelRange::full(case.domain.dims());
        let naive = naive_reference(&problem, &Epanechnikov, &case.points, full);
        for which in [
            PointKernel::Plain,
            PointKernel::Disk,
            PointKernel::Bar,
            PointKernel::Sym,
        ] {
            let g = run_engine::<f64, _>(&case, &Epanechnikov, which, full);
            let diff = naive.max_rel_diff(&g, 1e-14);
            prop_assert!(diff < 1e-10, "{which:?} diverges from naive by {diff}");
        }
    }

    /// Partial clips (PB-SYM-DD): chords cut by the subdomain boundary
    /// still match the reference restricted to the same clip.
    #[test]
    fn f64_sym_matches_naive_under_partial_clip(case in case_strategy()) {
        let problem = Problem::new(case.domain, case.bw, case.points.len());
        let naive = naive_reference(&problem, &Epanechnikov, &case.points, case.clip);
        let g = run_engine::<f64, _>(&case, &Epanechnikov, PointKernel::Sym, case.clip);
        let diff = naive.max_rel_diff(&g, 1e-14);
        prop_assert!(diff < 1e-10, "clipped sym diverges by {diff} (clip {})", case.clip);
    }

    /// f32 grids: the native-scalar inner loop stays within f32 rounding
    /// of the f64 reference (per-add relative error ~1e-7, a few adds).
    #[test]
    fn f32_sym_matches_naive(case in case_strategy()) {
        let problem = Problem::new(case.domain, case.bw, case.points.len());
        let naive = naive_reference(&problem, &Epanechnikov, &case.points, case.clip);
        let g = run_engine::<f32, _>(&case, &Epanechnikov, PointKernel::Sym, case.clip);
        let diff = naive.max_rel_diff(&to_f64(&g), 1e-6);
        prop_assert!(diff < 1e-3, "f32 sym diverges by {diff}");
    }

    /// Transcendental and LUT kernels ride the same engine: the Gaussian
    /// must match its own naive evaluation tightly, and the tabulated
    /// wrapper must match *its* naive evaluation (the LUT error is a
    /// kernel property, not an engine property).
    #[test]
    fn f64_sym_matches_naive_for_gaussian_and_lut(case in case_strategy()) {
        let problem = Problem::new(case.domain, case.bw, case.points.len());
        let full = VoxelRange::full(case.domain.dims());

        let gauss = TruncatedGaussian::default();
        let naive = naive_reference(&problem, &gauss, &case.points, full);
        let g = run_engine::<f64, _>(&case, &gauss, PointKernel::Sym, full);
        let diff = naive.max_rel_diff(&g, 1e-14);
        prop_assert!(diff < 1e-10, "gaussian sym diverges by {diff}");

        let lut = Tabulated::new(TruncatedGaussian::default());
        let naive = naive_reference(&problem, &lut, &case.points, full);
        let g = run_engine::<f64, _>(&case, &lut, PointKernel::Sym, full);
        let diff = naive.max_rel_diff(&g, 1e-14);
        prop_assert!(diff < 1e-10, "tabulated sym diverges by {diff}");
    }
}
