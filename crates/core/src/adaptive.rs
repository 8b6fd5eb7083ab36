//! Adaptive-bandwidth STKDE — the extension named in the paper's
//! conclusion (*"a bandwidth that adapts to the density of population of
//! the area is also of interest"*).
//!
//! Instead of one global `(hs, ht)`, every event `i` carries its own
//! bandwidth pair, and the estimate becomes
//!
//! ```text
//! f̂(x,y,t) = 1/n · Σᵢ 1/(hsᵢ²·htᵢ) · ks((x−xi)/hsᵢ, (y−yi)/hsᵢ) · kt((t−ti)/htᵢ)
//! ```
//!
//! Bandwidths are chosen by Silverman's two-stage adaptive rule (Silverman
//! 1986 §5.3, the paper's KDE reference): a *pilot* fixed-bandwidth
//! estimate `f̃` is evaluated at every event, and each event's bandwidth is
//! scaled by `λᵢ = (f̃(xᵢ)/g)^(−α)` with `g` the geometric mean of the
//! pilot densities — dense clusters get sharper kernels, sparse regions
//! get wider ones.
//!
//! Algorithmically everything survives: each point still rasterizes a
//! cylinder (now of its own size), `PB-SYM`'s invariant hoisting still
//! applies per point, and the point-decomposed parallel schedule is safe
//! as long as subdomains are at least twice the **maximum** bandwidth.

use crate::error::StkdeError;
use crate::kernel_apply::{apply_point, PointKernel, Scratch};
use crate::problem::Problem;
use crate::timing::{PhaseTimings, Stopwatch};
use stkde_data::{binning, Point};
use stkde_grid::{
    Bandwidth, Decomp, Decomposition, Domain, Grid3, Scalar, SharedGrid, SubdomainId, VoxelRange,
};
use stkde_kernels::SpaceTimeKernel;
use stkde_sched::{greedy_coloring, order_by_weight_desc, run_dag, StencilGraph, TaskDag};

/// Parameters of Silverman's adaptive rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveParams {
    /// Sensitivity exponent `α ∈ [0, 1]` (0 = fixed bandwidth, ½ = the
    /// classic choice).
    pub alpha: f64,
    /// Clamp on the scale factor `λᵢ` (and its reciprocal), keeping
    /// bandwidths within `[h/λmax, h·λmax]`.
    pub lambda_max: f64,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            lambda_max: 4.0,
        }
    }
}

/// Compute per-point bandwidths with Silverman's two-stage rule: a pilot
/// `PB-SYM` pass at the base bandwidth, sampled at each event's voxel.
///
/// Returns one [`Bandwidth`] per point (same order).
pub fn silverman_bandwidths<K: SpaceTimeKernel>(
    domain: &Domain,
    base: Bandwidth,
    kernel: &K,
    points: &[Point],
    params: AdaptiveParams,
) -> Vec<Bandwidth> {
    assert!(
        (0.0..=1.0).contains(&params.alpha),
        "alpha must be in [0, 1]"
    );
    assert!(params.lambda_max >= 1.0, "lambda_max must be >= 1");
    if points.is_empty() {
        return Vec::new();
    }
    // Pilot estimate (fixed bandwidth).
    let problem = Problem::new(*domain, base, points.len());
    let (pilot, _) = crate::algorithms::pb_sym::run::<f64, _>(&problem, kernel, points);

    // Pilot density at each event (floored to avoid log(0) for isolated
    // points sitting in zero voxels of their own making — cannot happen
    // since each point contributes to its own voxel, but stay defensive).
    let f: Vec<f64> = points
        .iter()
        .map(|p| {
            let (x, y, t) = domain.voxel_of(p.as_array());
            pilot.get(x, y, t).max(1e-300)
        })
        .collect();
    let log_gmean = f.iter().map(|v| v.ln()).sum::<f64>() / f.len() as f64;
    let gmean = log_gmean.exp();

    f.iter()
        .map(|&fi| {
            let lambda = (fi / gmean)
                .powf(-params.alpha)
                .clamp(1.0 / params.lambda_max, params.lambda_max);
            Bandwidth::new(base.hs * lambda, base.ht * lambda)
        })
        .collect()
}

/// The largest voxel bandwidth over all points — the safety radius for the
/// adaptive point-decomposed schedule.
fn max_voxel_bandwidth(domain: &Domain, bws: &[Bandwidth]) -> stkde_grid::VoxelBandwidth {
    let mut hs = 1;
    let mut ht = 1;
    for bw in bws {
        let v = domain.voxel_bandwidth(*bw);
        hs = hs.max(v.hs);
        ht = ht.max(v.ht);
    }
    stkde_grid::VoxelBandwidth::new(hs, ht)
}

/// Per-point problem description under a per-point bandwidth: the
/// normalization becomes `1/(n·hsᵢ²·htᵢ)`.
#[inline]
fn point_problem(domain: &Domain, bw: Bandwidth, n: usize) -> Problem {
    Problem::new(*domain, bw, n)
}

/// Sequential adaptive STKDE (`PB-SYM` applied with per-point bandwidths).
///
/// # Panics
/// Panics if `bandwidths.len() != points.len()`.
pub fn run<S: Scalar, K: SpaceTimeKernel>(
    domain: &Domain,
    kernel: &K,
    points: &[Point],
    bandwidths: &[Bandwidth],
) -> (Grid3<S>, PhaseTimings) {
    assert_eq!(
        bandwidths.len(),
        points.len(),
        "one bandwidth per point required"
    );
    let mut sw = Stopwatch::start();
    let dims = domain.dims();
    let mut grid = Grid3::zeros_touched(dims);
    let init = sw.lap();
    {
        let shared = SharedGrid::new(&mut grid);
        let mut scratch = Scratch::default();
        let full = VoxelRange::full(dims);
        let n = points.len();
        for (p, bw) in points.iter().zip(bandwidths) {
            let problem = point_problem(domain, *bw, n);
            // SAFETY: exclusive single-threaded access to `grid`.
            unsafe {
                apply_point(
                    PointKernel::Sym,
                    &shared,
                    &problem,
                    kernel,
                    p,
                    full,
                    &mut scratch,
                );
            }
        }
    }
    let compute = sw.lap();
    (
        grid,
        PhaseTimings {
            init,
            compute,
            ..Default::default()
        },
    )
}

/// Parallel adaptive STKDE: the `PD-SCHED` strategy with the subdomain
/// size rule driven by the **maximum** per-point bandwidth.
///
/// # Panics
/// Panics if `bandwidths.len() != points.len()`.
pub fn run_parallel<S: Scalar, K: SpaceTimeKernel>(
    domain: &Domain,
    kernel: &K,
    points: &[Point],
    bandwidths: &[Bandwidth],
    decomp: Decomp,
    threads: usize,
) -> Result<(Grid3<S>, PhaseTimings), StkdeError> {
    assert_eq!(
        bandwidths.len(),
        points.len(),
        "one bandwidth per point required"
    );
    if threads == 0 {
        return Err(StkdeError::InvalidConfig("threads must be > 0".into()));
    }
    let dims = domain.dims();
    let mut sw = Stopwatch::start();

    // Safety radius: subdomains at least twice the *largest* bandwidth.
    let max_vbw = max_voxel_bandwidth(domain, bandwidths);
    let decomposition = Decomposition::adjusted(dims, decomp, max_vbw);
    let bins = binning::bin_points(domain, &decomposition, points);

    // Weights: per-subdomain sum of each point's own cylinder box volume.
    let n = points.len();
    let box_vols: Vec<f64> = bandwidths
        .iter()
        .map(|bw| domain.voxel_bandwidth(*bw).cylinder_box_volume() as f64)
        .collect();
    let weights: Vec<f64> = (0..decomposition.count())
        .map(|sd| {
            bins.points_of(SubdomainId(sd))
                .iter()
                .map(|&pi| box_vols[pi as usize])
                .sum::<f64>()
                + 1.0
        })
        .collect();
    let graph = StencilGraph::from_decomposition(&decomposition);
    let coloring = greedy_coloring(&graph, &order_by_weight_desc(&weights));
    let dag = TaskDag::from_coloring(&graph, &coloring, weights.clone());
    let bin = sw.lap();

    let mut grid = Grid3::zeros_parallel(dims);
    let init = sw.lap();
    {
        let shared = SharedGrid::new(&mut grid);
        let shared = &shared;
        let full = VoxelRange::full(dims);
        run_dag(&dag, threads, &weights, |task| {
            let mut scratch = Scratch::default();
            for &pi in bins.points_of(SubdomainId(task)) {
                let p = &points[pi as usize];
                let problem = point_problem(domain, bandwidths[pi as usize], n);
                // SAFETY: the DAG orders adjacent subdomains, and the
                // decomposition is adjusted to twice the *maximum*
                // bandwidth, so concurrent tasks write disjoint halos even
                // under per-point bandwidths.
                unsafe {
                    apply_point(
                        PointKernel::Sym,
                        shared,
                        &problem,
                        kernel,
                        p,
                        full,
                        &mut scratch,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pb_sym;
    use stkde_data::synth;
    use stkde_grid::GridDims;
    use stkde_kernels::Epanechnikov;

    fn setup(n: usize) -> (Domain, Vec<Point>) {
        let domain = Domain::from_dims(GridDims::new(40, 40, 20));
        let points = synth::uniform(n, domain.extent(), 3).into_vec();
        (domain, points)
    }

    #[test]
    fn equal_bandwidths_reduce_to_fixed_pb_sym() {
        let (domain, points) = setup(50);
        let bw = Bandwidth::new(3.0, 2.0);
        let bws = vec![bw; points.len()];
        let (adaptive, _) = run::<f64, _>(&domain, &Epanechnikov, &points, &bws);
        let problem = Problem::new(domain, bw, points.len());
        let (fixed, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);
        assert!(fixed.max_rel_diff(&adaptive, 1e-14) < 1e-10);
    }

    #[test]
    fn alpha_zero_gives_base_bandwidth() {
        let (domain, points) = setup(30);
        let base = Bandwidth::new(3.0, 2.0);
        let bws = silverman_bandwidths(
            &domain,
            base,
            &Epanechnikov,
            &points,
            AdaptiveParams {
                alpha: 0.0,
                lambda_max: 4.0,
            },
        );
        for bw in bws {
            assert!((bw.hs - base.hs).abs() < 1e-12);
            assert!((bw.ht - base.ht).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_points_get_wider_bandwidths_than_clustered() {
        // 30 points in a tight cluster + 3 isolated points far away.
        let domain = Domain::from_dims(GridDims::new(60, 60, 20));
        let mut pts: Vec<Point> = (0..30)
            .map(|i| {
                Point::new(
                    10.0 + (i % 6) as f64 * 0.3,
                    10.0 + (i / 6) as f64 * 0.3,
                    10.0,
                )
            })
            .collect();
        pts.push(Point::new(50.0, 50.0, 5.0));
        pts.push(Point::new(45.0, 8.0, 15.0));
        pts.push(Point::new(8.0, 50.0, 3.0));
        let base = Bandwidth::new(4.0, 3.0);
        let bws = silverman_bandwidths(
            &domain,
            base,
            &Epanechnikov,
            &pts,
            AdaptiveParams::default(),
        );
        let cluster_mean: f64 = bws[..30].iter().map(|b| b.hs).sum::<f64>() / 30.0;
        let isolated_mean: f64 = bws[30..].iter().map(|b| b.hs).sum::<f64>() / 3.0;
        assert!(
            isolated_mean > 1.5 * cluster_mean,
            "isolated {isolated_mean:.2} should be much wider than clustered {cluster_mean:.2}"
        );
        // Clamps respected.
        for bw in &bws {
            assert!(bw.hs <= base.hs * 4.0 + 1e-9 && bw.hs >= base.hs / 4.0 - 1e-9);
        }
    }

    #[test]
    fn parallel_matches_sequential_adaptive() {
        let (domain, points) = setup(80);
        let base = Bandwidth::new(2.0, 2.0);
        let bws = silverman_bandwidths(
            &domain,
            base,
            &Epanechnikov,
            &points,
            AdaptiveParams::default(),
        );
        let (seq, _) = run::<f64, _>(&domain, &Epanechnikov, &points, &bws);
        for threads in [1, 2, 4] {
            let (par, _) = run_parallel::<f64, _>(
                &domain,
                &Epanechnikov,
                &points,
                &bws,
                Decomp::cubic(6),
                threads,
            )
            .unwrap();
            assert!(
                seq.max_rel_diff(&par, 1e-13) < 1e-9,
                "threads {threads} diverges"
            );
        }
    }

    #[test]
    fn adaptive_mass_is_conserved() {
        // Interior points with normalized kernels: discrete mass ≈ 1.
        let domain = Domain::from_dims(GridDims::new(64, 64, 32));
        let points: Vec<Point> = (0..20)
            .map(|i| {
                Point::new(
                    24.0 + (i % 5) as f64 * 2.0,
                    24.0 + (i / 5) as f64 * 2.0,
                    16.0,
                )
            })
            .collect();
        let bws: Vec<Bandwidth> = (0..20)
            .map(|i| Bandwidth::new(3.0 + (i % 4) as f64, 3.0 + (i % 3) as f64))
            .collect();
        let (g, _) = run::<f64, _>(&domain, &Epanechnikov, &points, &bws);
        let mass: f64 = g.as_slice().iter().sum();
        assert!((mass - 1.0).abs() < 0.05, "mass {mass}");
    }

    #[test]
    fn empty_points_ok() {
        let (domain, _) = setup(0);
        let bws = silverman_bandwidths(
            &domain,
            Bandwidth::new(2.0, 2.0),
            &Epanechnikov,
            &[],
            AdaptiveParams::default(),
        );
        assert!(bws.is_empty());
        let (g, _) = run::<f64, _>(&domain, &Epanechnikov, &[], &bws);
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "one bandwidth per point")]
    fn mismatched_lengths_panic() {
        let (domain, points) = setup(5);
        let _ = run::<f64, _>(&domain, &Epanechnikov, &points, &[]);
    }
}
