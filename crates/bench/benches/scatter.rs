//! Scatter-engine benchmark: the vectorized, span-clipped per-point
//! `PB-SYM` scatter (per-axis offset tables, analytic chord clipping,
//! native-scalar `axpy_row` rows).
//!
//! The sweep covers the paper-Table-2-shaped bandwidth regime (`Hs = 8`,
//! `Ht = 4` voxels) for `f32` (paper parity) and `f64` (validation
//! scalar), and three kernels: Epanechnikov (polynomial), truncated
//! Gaussian (`exp` per evaluation), and the `Tabulated` LUT wrapper over
//! the Gaussian — quantifying LUT × vectorization for the
//! `exp`-in-inner-loop case the LUT module docs call out.
//!
//! `bench_guard` holds every id to the calibration-normalised per-id
//! budget against the committed baseline, and CI's observability-overhead
//! gates take their geomean over this family. Correctness of the engine
//! is `crates/core/tests/scatter_proptest.rs`' job, not this file's.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use stkde_core::kernel_apply::{apply_points_seq_with, PointKernel, Scratch};
use stkde_core::Problem;
use stkde_data::{synth, Point};
use stkde_grid::{Bandwidth, Domain, Grid3, GridDims, Scalar, VoxelRange};
use stkde_kernels::{Epanechnikov, SpaceTimeKernel, Tabulated, TruncatedGaussian};

fn instance() -> (Problem, Vec<Point>) {
    let domain = Domain::from_dims(GridDims::new(64, 64, 32));
    let points = synth::uniform(512, domain.extent(), 42).into_vec();
    (
        Problem::new(domain, Bandwidth::new(8.0, 4.0), points.len()),
        points,
    )
}

fn bench_engine<S: Scalar, K: SpaceTimeKernel>(
    group: &mut criterion::BenchmarkGroup<'_>,
    scalar: &str,
    kname: &str,
    problem: &Problem,
    kernel: &K,
    points: &[Point],
) {
    let dims = problem.domain.dims();
    let mut scratch = Scratch::default();
    let mut grid: Grid3<S> = Grid3::zeros(dims);
    group.bench_function(format!("sym_{scalar}_{kname}_engine"), |bch| {
        bch.iter(|| {
            grid.as_mut_slice().fill(S::ZERO);
            apply_points_seq_with(
                PointKernel::Sym,
                &mut grid,
                problem,
                kernel,
                black_box(points),
                VoxelRange::full(dims),
                &mut scratch,
            );
            black_box(grid.get(0, 0, 0))
        })
    });
}

fn bench_scatter(c: &mut Criterion) {
    let (problem, points) = instance();
    let gauss = TruncatedGaussian::default();
    let lut = Tabulated::new(TruncatedGaussian::default());

    let mut group = c.benchmark_group("scatter");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));

    bench_engine::<f32, _>(
        &mut group,
        "f32",
        "epanechnikov",
        &problem,
        &Epanechnikov,
        &points,
    );
    bench_engine::<f64, _>(
        &mut group,
        "f64",
        "epanechnikov",
        &problem,
        &Epanechnikov,
        &points,
    );
    bench_engine::<f32, _>(&mut group, "f32", "gaussian", &problem, &gauss, &points);
    bench_engine::<f64, _>(&mut group, "f64", "gaussian", &problem, &gauss, &points);
    bench_engine::<f32, _>(&mut group, "f32", "tabulated", &problem, &lut, &points);
    bench_engine::<f64, _>(&mut group, "f64", "tabulated", &problem, &lut, &points);

    println!(
        "  (instance: {} points, Hs={} Ht={} voxels, box {} voxels/point)",
        points.len(),
        problem.vbw.hs,
        problem.vbw.ht,
        problem.vbw.cylinder_box_volume()
    );
    group.finish();
}

criterion_group!(benches, bench_scatter);
criterion_main!(benches);
