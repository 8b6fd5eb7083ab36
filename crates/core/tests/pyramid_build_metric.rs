//! `stkde_approx_pyramid_build_seconds` takes one sample per slab pyramid
//! built, wherever the build happens: a region walk, `ensure_pyramids`, or
//! a read after a write re-reduced a slab.
//!
//! The obs registry is process-global, so this check lives in its own
//! test binary, where nothing else builds a pyramid while it counts.

use stkde_core::ShardedWindowStkde;
use stkde_data::Point;
use stkde_grid::{Bandwidth, Domain, GridDims, VoxelRange};
use stkde_obs::names;

fn builds() -> u64 {
    stkde_obs::global()
        .histogram(names::APPROX_PYRAMID_BUILD_SECONDS, &[])
        .count()
}

/// The full 24×20 plane over time layers `[t0, t1)`.
fn layers(t0: usize, t1: usize) -> VoxelRange {
    VoxelRange {
        x0: 0,
        x1: 24,
        y0: 0,
        y1: 20,
        t0,
        t1,
    }
}

#[test]
fn one_build_sample_per_slab_built() {
    let domain = Domain::from_dims(GridDims::new(24, 20, 16));
    // Four slabs of four layers each; the event touches slab 0 only.
    let mut cube = ShardedWindowStkde::<f64>::new(domain, Bandwidth::new(3.0, 2.0), 1e6, 4);
    cube.push_batch(&[Point::new(12.0, 10.0, 1.0)]);
    let snap = cube.publish();
    let before = builds();

    snap.density_range_walk(layers(1, 3));
    assert_eq!(
        builds() - before,
        1,
        "a box inside slab 0 builds one pyramid"
    );
    snap.density_range_walk(layers(5, 11));
    snap.density_range_walk(layers(5, 11));
    assert_eq!(builds() - before, 3, "slabs 1 and 2, once each");
    let report = snap.ensure_pyramids();
    assert_eq!(report.built, 1);
    assert_eq!(builds() - before, 4, "ensure_pyramids builds the last slab");

    // A write near t = 1 copies slab 0 only; the next read re-reduces it
    // and reuses the three pyramids that rode along.
    cube.push_batch(&[Point::new(12.0, 10.0, 1.5)]);
    let next = cube.publish();
    next.density_range_walk(VoxelRange::full(domain.dims()));
    assert_eq!(builds() - before, 5);
}
