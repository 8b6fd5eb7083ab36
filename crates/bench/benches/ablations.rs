//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * **Row-wise outer-product writes** (PB-SYM's stride-1 inner loop via
//!   `SharedGrid::row_mut`) vs naive per-voxel indexed adds — the
//!   vectorization claim behind the `Grid3` X-fastest layout;
//! * **LPT priorities** in the list scheduler vs FIFO-ish (uniform)
//!   priorities — the `PD-SCHED` "heaviest first" heuristic;
//! * **Invariant hoisting** at different bandwidths — the PB→PB-SYM gap
//!   that grows with `Hs·Ht` (Table 3's speedup column);
//! * **Tabulated kernels** — lookup-table interpolation vs closed-form
//!   evaluation, for a cheap polynomial kernel (no win expected) and a
//!   transcendental one (removes `exp` from the inner loop);
//! * **Sparse table layout** — the same simulated cylinder fill pushed
//!   through a dense grid and the Morton-brick table, isolating what the
//!   chunked-Morton layout costs on the write path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stkde_core::algorithms::{pb, pb_sym};
use stkde_core::Problem;
use stkde_data::{synth, Point};
use stkde_grid::{Bandwidth, Domain, Grid3, GridDims, SharedGrid, SparseGrid3};
use stkde_kernels::{Epanechnikov, Tabulated, TruncatedGaussian};
use stkde_sched::{list_schedule, TaskDag};

fn bench_row_vs_voxel_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_write_path");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(1));
    let dims = GridDims::new(64, 64, 32);
    // A synthetic PB-SYM cylinder fill: disk 21x21, bar 9 → outer product.
    let disk: Vec<f64> = (0..21 * 21).map(|i| (i % 7) as f64 * 0.1).collect();
    let bar: Vec<f64> = (0..9).map(|i| 0.5 + i as f64 * 0.05).collect();

    group.bench_function("row_wise_fma", |b| {
        let mut grid: Grid3<f32> = Grid3::zeros_touched(dims);
        b.iter(|| {
            let shared = SharedGrid::new(&mut grid);
            for (ti, kt) in bar.iter().enumerate() {
                for y in 0..21 {
                    // SAFETY: single thread, exclusive borrow.
                    let row = unsafe { shared.row_mut(10 + y, 10 + ti, 20, 41) };
                    let dr = &disk[y * 21..(y + 1) * 21];
                    for (o, &ks) in row.iter_mut().zip(dr) {
                        *o += (ks * kt) as f32;
                    }
                }
            }
        })
    });

    group.bench_function("voxel_wise_indexed", |b| {
        let mut grid: Grid3<f32> = Grid3::zeros_touched(dims);
        b.iter(|| {
            for (ti, kt) in bar.iter().enumerate() {
                for y in 0..21 {
                    for x in 0..21 {
                        let v = (disk[y * 21 + x] * kt) as f32;
                        grid.add(20 + x, 10 + y, 10 + ti, v);
                    }
                }
            }
        })
    });
    group.finish();
}

fn bench_priority_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_schedule_priority");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(1));
    // Heavy-tailed independent tasks: the regime where LPT matters.
    let n = 512;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            if i % 61 == 0 {
                120.0
            } else {
                1.0 + (i % 5) as f64
            }
        })
        .collect();
    let dag = TaskDag::from_edges(n, weights.clone(), &[]);
    let uniform = vec![1.0; n];

    group.bench_function("lpt_priority_p16", |b| {
        b.iter(|| list_schedule(&dag, 16, &weights))
    });
    group.bench_function("fifo_priority_p16", |b| {
        b.iter(|| list_schedule(&dag, 16, &uniform))
    });
    group.finish();

    // Report-by-assertion: LPT must not lose (checked here so the ablation
    // is self-documenting when run).
    let lpt = list_schedule(&dag, 16, &weights).makespan;
    let fifo = list_schedule(&dag, 16, &uniform).makespan;
    assert!(lpt <= fifo + 1e-9, "LPT {lpt} vs FIFO {fifo}");
}

fn bench_invariant_hoisting_by_bandwidth(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pb_vs_pbsym");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(1));
    let domain = Domain::from_dims(GridDims::new(48, 48, 24));
    let points: Vec<Point> = synth::uniform(100, domain.extent(), 5).into_vec();
    for (hs, ht) in [(2.0, 1.0), (6.0, 4.0)] {
        let problem = Problem::new(domain, Bandwidth::new(hs, ht), points.len());
        group.bench_with_input(
            BenchmarkId::new("pb", format!("hs{hs}_ht{ht}")),
            &problem,
            |b, p| b.iter(|| pb::run::<f32, _>(p, &Epanechnikov, &points)),
        );
        group.bench_with_input(
            BenchmarkId::new("pb_sym", format!("hs{hs}_ht{ht}")),
            &problem,
            |b, p| b.iter(|| pb_sym::run::<f32, _>(p, &Epanechnikov, &points)),
        );
    }
    group.finish();
}

fn bench_tabulated_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_kernel_lut");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(1));
    let domain = Domain::from_dims(GridDims::new(48, 48, 24));
    let points: Vec<Point> = synth::uniform(200, domain.extent(), 9).into_vec();
    let problem = Problem::new(domain, Bandwidth::new(6.0, 4.0), points.len());

    // PB is the fair host for this ablation: it evaluates the kernel at
    // every voxel of every cylinder, so evaluation cost dominates. (Under
    // PB-SYM the invariants already amortize evaluations per point and the
    // LUT effect shrinks — which is itself part of the finding.)
    group.bench_function("pb/epanechnikov_exact", |b| {
        b.iter(|| pb::run::<f32, _>(&problem, &Epanechnikov, &points))
    });
    group.bench_function("pb/epanechnikov_lut", |b| {
        let k = Tabulated::new(Epanechnikov);
        b.iter(|| pb::run::<f32, _>(&problem, &k, &points))
    });
    group.bench_function("pb/gaussian_exact", |b| {
        let k = TruncatedGaussian::default();
        b.iter(|| pb::run::<f32, _>(&problem, &k, &points))
    });
    group.bench_function("pb/gaussian_lut", |b| {
        let k = Tabulated::new(TruncatedGaussian::default());
        b.iter(|| pb::run::<f32, _>(&problem, &k, &points))
    });
    group.bench_function("pb_sym/gaussian_exact", |b| {
        let k = TruncatedGaussian::default();
        b.iter(|| pb_sym::run::<f32, _>(&problem, &k, &points))
    });
    group.bench_function("pb_sym/gaussian_lut", |b| {
        let k = Tabulated::new(TruncatedGaussian::default());
        b.iter(|| pb_sym::run::<f32, _>(&problem, &k, &points))
    });
    group.finish();
}

fn bench_sparse_table_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sparse_layout");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(1));
    let dims = GridDims::new(64, 64, 32);
    // The same synthetic cylinder fill as `ablation_write_path`, but
    // routed through each backend's row-write primitive so the only
    // variable is the grid data structure.
    let disk: Vec<Vec<f64>> = (0..21)
        .map(|y| (0..21).map(|x| ((x + y * 21) % 7) as f64 * 0.1).collect())
        .collect();
    let bar: Vec<f64> = (0..9).map(|i| 0.5 + i as f64 * 0.05).collect();

    group.bench_function("dense_rows", |b| {
        let mut grid: Grid3<f32> = Grid3::zeros_touched(dims);
        b.iter(|| {
            for (ti, kt) in bar.iter().enumerate() {
                for (y, dr) in disk.iter().enumerate() {
                    let row = grid.row_mut(10 + y, 10 + ti, 20, 41);
                    for (o, &ks) in row.iter_mut().zip(dr) {
                        *o += (ks * kt) as f32;
                    }
                }
            }
        })
    });
    group.bench_function("morton_brick_rows", |b| {
        let mut grid: SparseGrid3<f32> = SparseGrid3::new(dims);
        let mut scaled = vec![0.0f64; 21];
        b.iter(|| {
            for (ti, &kt) in bar.iter().enumerate() {
                for (y, dr) in disk.iter().enumerate() {
                    for (s, &ks) in scaled.iter_mut().zip(dr) {
                        *s = ks * kt;
                    }
                    grid.add_row_f64(10 + y, 10 + ti, 20, &scaled);
                }
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_row_vs_voxel_writes,
    bench_priority_ablation,
    bench_invariant_hoisting_by_bandwidth,
    bench_tabulated_kernels,
    bench_sparse_table_layout
);
criterion_main!(benches);
