//! Conformance proof for the served reads: the mip-pyramid `/region`
//! walk and the rasterized densities behind every read.
//!
//! Two properties, each load-bearing:
//!
//! 1. **The region walk is exact.** For random instances, query boxes,
//!    and slab layouts — one-layer slabs and grids that do not divide
//!    into the walk's 4-voxel blocks included — the split walk
//!    behind `/region` returns `sum`, `max`, `min`,
//!    `nonzero` and `total` bit-identical to the voxel fold
//!    [`CubeSnapshot::density_range`]: both sum integer quanta. Never
//!    "usually" — on every single box.
//! 2. **There is no kernel term.** The daemon rasterizes with the
//!    analytic Epanechnikov, so served densities equal batch `PB-SYM`
//!    over the same stream up to summation order and the folds' base
//!    term is 0.

use stkde_core::{Algorithm, CubeSnapshot, Stkde};
use stkde_data::{synth, Point, PointSet};
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

/// A drained service on `dom` with `shards` slabs, holding
/// `n_events` uniform events drawn from `seed`.
fn service(
    dom: Domain,
    shards: usize,
    n_events: usize,
    seed: u64,
) -> std::sync::Arc<DensityService> {
    let mut cfg = ServiceConfig::new(dom, Bandwidth::new(5.0, 3.0), 12.0);
    cfg.shards = shards;
    let svc = DensityService::start(cfg);
    let mut points = synth::uniform(n_events, dom.extent(), seed).into_vec();
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

/// Assert the region walk equals the voxel fold over `r`, every field
/// bitwise.
fn check_region(snap: &CubeSnapshot<f64>, r: VoxelRange) {
    let walk = snap.density_range_walk(r);
    let fold = snap.density_range(r);
    assert_eq!(walk.sum.to_bits(), fold.sum.to_bits(), "sum over {r:?}");
    assert_eq!(walk.max.to_bits(), fold.max.to_bits(), "max over {r:?}");
    assert_eq!(walk.min.to_bits(), fold.min.to_bits(), "min over {r:?}");
    assert_eq!(walk.nonzero, fold.nonzero, "nonzero over {r:?}");
    assert_eq!(walk.total, fold.total, "total over {r:?}");
}

#[test]
fn region_walk_equals_fold_across_random_boxes_and_shard_counts() {
    let mut rng = 0xA076_1D64_78BD_642Fu64;
    let dims = domain().dims();
    // One service per layout, fed the same events. One-layer slabs
    // last: every cut then runs along a slab boundary.
    for shards in [3, 1, 5, dims.gt] {
        let svc = service(domain(), shards, 400, 91);
        let snap = svc.snapshot();
        assert_eq!(snap.shards().len(), shards);
        for _ in 0..60 {
            check_region(&snap, random_range(&mut rng));
        }
        check_region(&snap, VoxelRange::full(dims));
        svc.shutdown();
    }
}

/// A ragged domain: no axis divides into the pyramid's 4-voxel blocks.
fn ragged_domain() -> Domain {
    Domain::from_dims(GridDims::new(41, 37, 23))
}

/// Random `[a, b)` inside `0..g` of one of the shapes the walk splits
/// differently: thinner than a block, ending on the ragged far edge, a
/// single voxel, or any.
fn ragged_axis(rng: &mut u64, g: usize) -> (usize, usize) {
    let a = (next(rng) as usize) % g;
    match next(rng) % 4 {
        0 => (a, (a + 1 + (next(rng) as usize) % 3).min(g)),
        1 => (a, g),
        2 => (a, a + 1),
        _ => {
            let b = (next(rng) as usize) % g;
            (a.min(b), a.max(b) + 1)
        }
    }
}

#[test]
fn region_walk_equals_fold_on_a_ragged_grid() {
    let dom = ragged_domain();
    let dims = dom.dims();
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    // One service per layout, fed the same events: 23 one-layer slabs,
    // mostly three-layer ones, then five-layer ones.
    for (shards, layers) in [(dims.gt, 1), (8, 3), (5, 5)] {
        let svc = service(dom, shards, 400, 17);
        let snap = svc.snapshot();
        assert_eq!(snap.shards().len(), shards);
        assert!(
            snap.shards().iter().any(|s| s.t1 - s.t0 == layers),
            "{shards} shards give a {layers}-layer slab"
        );
        for _ in 0..200 {
            let (x0, x1) = ragged_axis(&mut rng, dims.gx);
            let (y0, y1) = ragged_axis(&mut rng, dims.gy);
            let (t0, t1) = ragged_axis(&mut rng, dims.gt);
            check_region(
                &snap,
                VoxelRange {
                    x0,
                    x1,
                    y0,
                    y1,
                    t0,
                    t1,
                },
            );
        }
        check_region(&snap, VoxelRange::full(dims));
        svc.shutdown();
    }
}

#[test]
fn served_densities_match_analytic_batch_pb_sym() {
    // An evicting stream: drained batches under a window shorter than
    // the stream, so every served voxel is batch PB-SYM's over the
    // survivors, with evicted cylinders cancelled exactly.
    let dom = Domain::from_dims(GridDims::new(20, 18, 10));
    let bw = Bandwidth::new(4.0, 2.5);
    let window = 4.0;
    let mut cfg = ServiceConfig::new(dom, bw, window);
    cfg.shards = 2;
    let svc = DensityService::start(cfg);
    let mut points = synth::uniform(120, dom.extent(), 7).into_vec();
    points.sort_by(|a, b| a.t.total_cmp(&b.t));
    for chunk in points.chunks(15) {
        svc.enqueue(chunk.to_vec()).unwrap();
        svc.wait_drained();
    }
    let newest = points.last().unwrap().t;
    let survivors: Vec<Point> = points
        .iter()
        .filter(|p| p.t >= newest - window)
        .copied()
        .collect();
    assert!(survivors.len() < points.len() / 2, "the stream must evict");
    assert_eq!(svc.snapshot().len(), survivors.len());
    let analytic = Stkde::new(dom, bw)
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&PointSet::from_vec(survivors))
        .unwrap()
        .grid;

    let snap = svc.snapshot();
    let dims = dom.dims();
    // Float-summation and quantum allowance only: each contribution is
    // within 2⁻³⁶ of the cylinder peak of its unrounded value.
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
