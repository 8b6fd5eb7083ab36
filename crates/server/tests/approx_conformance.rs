//! Conformance proof for the error-bounded approximate read path.
//!
//! Four properties, each load-bearing for the mip-pyramid fast path:
//!
//! 1. **The bound holds.** For random instances, query boxes, error
//!    budgets, and reshard interleavings, every approximate answer
//!    satisfies `|approx − exact| ≤ error_bound` (per-voxel for
//!    `max`/`min` and slice cells, `× voxels` for `sum`), with the
//!    exact side computed by the full-resolution path on the same
//!    snapshot. Never "usually" — on every single query.
//! 2. **`max_err = 0` is the exact path.** Not "close": the same bits
//!    as [`CubeSnapshot::density_range`] / `density_slice`.
//! 3. **The budget is respected.** An answer served from a pyramid
//!    level (`level > 0`) certifies a bound within
//!    `max_err × peak_density`.
//! 4. **There is no kernel term.** The daemon rasterizes with the
//!    analytic Epanechnikov, so served densities equal batch `PB-SYM`
//!    over the same stream up to summation order and the folds' base
//!    term is 0.

use std::collections::BTreeSet;
use stkde_core::{Algorithm, CubeSnapshot, Stkde};
use stkde_data::{synth, PointSet};
use stkde_grid::{Bandwidth, Domain, GridDims, VoxelRange};
use stkde_server::{DensityService, ServiceConfig};

/// Splitmix64 — deterministic, dependency-free test randomness.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn domain() -> Domain {
    Domain::from_dims(GridDims::new(40, 36, 24))
}

fn service(shards: usize, n_events: usize, seed: u64) -> std::sync::Arc<DensityService> {
    let mut cfg = ServiceConfig::new(domain(), Bandwidth::new(5.0, 3.0), 12.0);
    cfg.shards = shards;
    let svc = DensityService::start(cfg);
    let mut points = synth::uniform(n_events, domain().extent(), seed).into_vec();
    points.sort_by(|a, b| a.t.total_cmp(&b.t));
    svc.enqueue(points).unwrap();
    svc.wait_drained();
    svc
}

/// A non-empty random voxel box inside the grid.
fn random_range(rng: &mut u64) -> VoxelRange {
    let dims = domain().dims();
    let mut axis = |hi: usize| {
        let a = (next(rng) as usize) % hi;
        let b = (next(rng) as usize) % hi;
        (a.min(b), a.max(b) + 1)
    };
    let (x0, x1) = axis(dims.gx);
    let (y0, y1) = axis(dims.gy);
    let (t0, t1) = axis(dims.gt);
    VoxelRange {
        x0,
        x1,
        y0,
        y1,
        t0,
        t1,
    }
}

/// Assert every certified claim one approximate region answer makes.
fn check_region(snap: &CubeSnapshot<f64>, r: VoxelRange, max_err: f64) -> usize {
    let a = snap.density_range_approx(r, max_err, 0.0);
    let exact = snap.density_range(r);
    let b = a.error_bound;
    assert!(b.is_finite() && b >= 0.0, "bad bound {b}");
    let d_sum = (a.stats.sum - exact.sum).abs();
    assert!(
        d_sum <= b * exact.total as f64,
        "sum off by {d_sum} > {b} × {} voxels (level {}, box {r:?})",
        exact.total,
        a.level
    );
    let d_max = (a.stats.max - exact.max).abs();
    assert!(
        d_max <= b,
        "max off by {d_max} > {b} (level {}, box {r:?})",
        a.level
    );
    let d_min = (a.stats.min - exact.min).abs();
    assert!(
        d_min <= b,
        "min off by {d_min} > {b} (level {}, box {r:?})",
        a.level
    );
    assert!(
        a.stats.nonzero >= exact.nonzero,
        "certified nonzero {} under-counts the true {}",
        a.stats.nonzero,
        exact.nonzero
    );
    assert_eq!(a.stats.total, exact.total, "voxel count must be exact");
    if a.level > 0 {
        let budget = max_err * snap.peak_density();
        assert!(
            b <= budget,
            "level {} served a bound {b} above the budget {budget}",
            a.level
        );
    }
    a.level
}

#[test]
fn region_bound_holds_across_random_queries_budgets_and_resharding() {
    let svc = service(3, 400, 91);
    let mut rng = 0xA076_1D64_78BD_642Fu64;
    let budgets = [0.02, 0.1, 0.3, 0.75, 2.0];
    let mut served = BTreeSet::new();
    for &shards in &[3usize, 1, 5] {
        svc.reshard(shards);
        let snap = svc.snapshot();
        for _ in 0..60 {
            let r = random_range(&mut rng);
            let max_err = budgets[(next(&mut rng) as usize) % budgets.len()];
            served.insert(check_region(&snap, r, max_err));
        }
        // The full grid at a generous budget must leave the exact path.
        let full = VoxelRange {
            x0: 0,
            x1: domain().dims().gx,
            y0: 0,
            y1: domain().dims().gy,
            t0: 0,
            t1: domain().dims().gt,
        };
        served.insert(check_region(&snap, full, 2.0));
    }
    assert!(
        served.iter().any(|&l| l > 0),
        "no approximate answer was ever served — the walk never left level 0"
    );
    svc.shutdown();
}

#[test]
fn slice_bound_holds_for_every_covered_voxel() {
    let svc = service(4, 300, 17);
    let snap = svc.snapshot();
    let dims = domain().dims();
    let mut rng = 0x5851_F42D_4C95_7F2Du64;
    let mut served = BTreeSet::new();
    for _ in 0..24 {
        let t = (next(&mut rng) as usize) % dims.gt;
        let max_err = [0.05, 0.25, 1.0][(next(&mut rng) as usize) % 3];
        let a = snap.density_slice_approx(t, max_err, 0.0).unwrap();
        served.insert(a.level);
        assert_eq!(a.cell, 1 << a.level);
        assert_eq!(a.values.len(), a.width * a.height);
        let exact = snap.density_slice(t).unwrap();
        for (i, &v) in exact.iter().enumerate() {
            let (x, y) = (i % dims.gx, i / dims.gx);
            let c = a.values[(y >> a.level) * a.width + (x >> a.level)];
            let d = (c - v).abs();
            assert!(
                d <= a.error_bound,
                "t={t} voxel ({x},{y}): off by {d} > {} at level {}",
                a.error_bound,
                a.level
            );
        }
    }
    assert!(
        served.iter().any(|&l| l > 0),
        "no approximate slice was ever served"
    );
    svc.shutdown();
}

#[test]
fn zero_budget_is_bit_exact() {
    let svc = service(3, 250, 23);
    let snap = svc.snapshot();
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..20 {
        let r = random_range(&mut rng);
        let a = snap.density_range_approx(r, 0.0, 0.0);
        assert_eq!(a.level, 0);
        // Bitwise, not approximately: the exact path is untouched.
        let exact = snap.density_range(r);
        assert_eq!(a.stats.sum.to_bits(), exact.sum.to_bits());
        assert_eq!(a.stats.max.to_bits(), exact.max.to_bits());
        assert_eq!(a.stats.min.to_bits(), exact.min.to_bits());
        assert_eq!(a.stats.nonzero, exact.nonzero);
    }
    for t in 0..domain().dims().gt {
        let a = snap.density_slice_approx(t, 0.0, 0.0).unwrap();
        assert_eq!(a.level, 0);
        let exact = snap.density_slice(t).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.values), bits(&exact));
    }
    svc.shutdown();
}

#[test]
fn served_densities_match_analytic_batch_pb_sym() {
    // Insert-only stream, so nothing can hide in cancelled evict pairs:
    // every served voxel is batch PB-SYM's up to summation order.
    let dom = Domain::from_dims(GridDims::new(20, 18, 10));
    let bw = Bandwidth::new(4.0, 2.5);
    let mut cfg = ServiceConfig::new(dom, bw, 1e6);
    cfg.shards = 2;
    let svc = DensityService::start(cfg);
    let mut points = synth::uniform(120, dom.extent(), 7).into_vec();
    points.sort_by(|a, b| a.t.total_cmp(&b.t));
    svc.enqueue(points.clone()).unwrap();
    svc.wait_drained();
    let analytic = Stkde::new(dom, bw)
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&PointSet::from_vec(points))
        .unwrap()
        .grid;

    let snap = svc.snapshot();
    let dims = dom.dims();
    // Float-summation allowance only: n=120 additions add ulps.
    let slack = 1e-12;
    for t in 0..dims.gt {
        let served = snap.density_slice(t).unwrap();
        for (i, (&s, &a)) in served.iter().zip(analytic.time_slice(t)).enumerate() {
            let d = (s - a).abs();
            assert!(
                d <= slack,
                "voxel {i} of t={t}: served-vs-batch gap {d} exceeds the summation slack"
            );
        }
    }
    // The two `/stats` fields the benchmark's oracle tolerance reads.
    let stats = svc.stats_json();
    assert_eq!(
        stats.get("kernel").and_then(|k| k.as_str()),
        Some("epanechnikov")
    );
    assert_eq!(
        stats.get("kernel_error_bound").and_then(|b| b.as_f64()),
        Some(0.0)
    );
    svc.shutdown();
}
