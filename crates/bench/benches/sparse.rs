//! Criterion micro-benchmarks for the Morton-brick sparse grid:
//!
//! * **Scatter** — dense vs sequential-sparse vs parallel-sparse `PB-SYM`
//!   on a clustered, ~10%-occupancy (Flu-like) and a fully occupied
//!   (Dengue-like) miniature. `sparse/flu_scatter_par_t8` vs
//!   `sparse/flu_scatter_seq` feeds `bench_guard`'s in-run invariant:
//!   the shared-grid parallel path must never lose to the sequential
//!   path it wraps.
//! * **Reads** — the read side of a densely-populated grid through the
//!   Morton-brick table: `to_dense` assembly and a per-voxel `get`
//!   sweep (which pays the bit-interleave per call).
//! * **Assemble** — `to_dense` of a sparse result (the export path).
//! * **Row writes** — the `add_row_f64` primitive vs a dense row.
//!
//! The whole `sparse/` family is gated by geomean against the committed
//! baseline.
//!
//! Allocation-fraction context (occupancy, bricks touched) is printed
//! once outside the timed sections so harness logs carry the sparsity
//! alongside the times.

use criterion::{criterion_group, criterion_main, Criterion};
use stkde_core::algorithms::pb_sym;
use stkde_core::{sparse, Problem};
use stkde_data::{synth, Point};
use stkde_grid::{Bandwidth, Domain, Grid3, GridDims, SparseGrid3};
use stkde_kernels::Epanechnikov;

/// Flu-like: events packed into a few tight outbreaks on a large grid,
/// so nine bricks in ten stay unallocated. Sized so the sequential
/// scatter runs for more than 2 ms: the par/seq invariant then compares
/// scatter work, not the ~0.1 ms it costs to wake and dispatch to an
/// 8-thread pool (which is all a 64-event instance measured).
fn sparse_instance() -> (Problem, Vec<Point>) {
    let domain = Domain::from_dims(GridDims::new(192, 192, 96));
    let outbreaks = synth::ClusterSpec {
        clusters: 16,
        spatial_sigma: 0.01,
        temporal_sigma: 0.02,
        background: 0.02,
        ..Default::default()
    };
    let points = outbreaks.generate(2048, domain.extent(), 3).into_vec();
    let problem = Problem::new(domain, Bandwidth::new(4.0, 7.0), points.len());
    (problem, points)
}

/// Dengue-like: many clustered points on a small grid — compute dominates.
fn dense_instance() -> (Problem, Vec<Point>) {
    let domain = Domain::from_dims(GridDims::new(48, 48, 32));
    let points = synth::uniform(2000, domain.extent(), 4).into_vec();
    (Problem::new(domain, Bandwidth::new(6.0, 4.0), 2000), points)
}

fn bench_scatter(c: &mut Criterion) {
    let k = Epanechnikov;
    let mut group = c.benchmark_group("sparse");
    group.sample_size(10);

    let (problem, points) = sparse_instance();
    // Allocation-fraction context for the logs (untimed).
    {
        let (g, _) = sparse::run::<f32, _>(&problem, &k, &points);
        println!(
            "flu-like sparsity: {} of {} bricks allocated ({:.2}% occupancy, \
             {:.1} MiB sparse vs {:.1} MiB dense)",
            g.allocated_bricks(),
            g.table_len(),
            100.0 * g.occupancy(),
            g.allocated_bytes() as f64 / (1024.0 * 1024.0),
            problem.domain.dims().bytes::<f32>() as f64 / (1024.0 * 1024.0),
        );
    }
    group.bench_function("flu_dense_pb_sym", |b| {
        b.iter(|| pb_sym::run::<f32, _>(&problem, &k, &points))
    });
    group.bench_function("flu_scatter_seq", |b| {
        b.iter(|| sparse::run::<f32, _>(&problem, &k, &points))
    });
    group.bench_function("flu_scatter_par_t8", |b| {
        b.iter(|| sparse::run_par::<f32, _>(&problem, &k, &points, 8).unwrap())
    });
    group.bench_function("flu_assemble_to_dense", |b| {
        let (g, _) = sparse::run::<f32, _>(&problem, &k, &points);
        b.iter(|| g.to_dense())
    });

    let (problem, points) = dense_instance();
    group.bench_function("dengue_dense_pb_sym", |b| {
        b.iter(|| pb_sym::run::<f32, _>(&problem, &k, &points))
    });
    group.bench_function("dengue_scatter_seq", |b| {
        b.iter(|| sparse::run::<f32, _>(&problem, &k, &points))
    });
    group.finish();
}

/// Read side of a densely-populated 64³ volume (every brick allocated):
/// `read_assemble_morton` is `to_dense()`, the assemble path the engine
/// actually reads results through; `read_voxels_morton` is a per-voxel
/// `get` sweep, which pays the bit-interleave on every call.
fn bench_reads(c: &mut Criterion) {
    let dims = GridDims::new(64, 64, 64);
    let row: Vec<f64> = (0..dims.gx).map(|i| 0.25 + (i % 7) as f64).collect();
    let mut morton: SparseGrid3<f32> = SparseGrid3::new(dims);
    for t in 0..dims.gt {
        for y in 0..dims.gy {
            morton.add_row_f64(y, t, 0, &row);
        }
    }

    let mut group = c.benchmark_group("sparse");
    group.sample_size(10);
    group.bench_function("read_assemble_morton", |b| b.iter(|| morton.to_dense()));
    group.bench_function("read_voxels_morton", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for t in 0..dims.gt {
                for y in 0..dims.gy {
                    for x in 0..dims.gx {
                        acc += morton.get(x, y, t);
                    }
                }
            }
            acc
        })
    });
    group.finish();
}

fn bench_write_primitives(c: &mut Criterion) {
    let dims = GridDims::new(256, 64, 64);
    let vals = vec![0.5f64; 64];
    let mut group = c.benchmark_group("sparse");
    group.sample_size(10);

    group.bench_function("rowwrite_dense", |b| {
        let mut g: Grid3<f32> = Grid3::zeros(dims);
        b.iter(|| {
            for t in 0..64 {
                let row = g.row_mut(32, t, 64, 128);
                for (o, &v) in row.iter_mut().zip(&vals) {
                    *o += v as f32;
                }
            }
        })
    });
    group.bench_function("rowwrite_morton", |b| {
        let mut g: SparseGrid3<f32> = SparseGrid3::new(dims);
        b.iter(|| {
            for t in 0..64 {
                g.add_row_f64(32, t, 64, &vals);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scatter, bench_reads, bench_write_primitives);
criterion_main!(benches);
