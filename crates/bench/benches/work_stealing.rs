//! Scheduler benchmark: the imbalanced `PB-SYM-PD` parity-class workload
//! under the shim's work-stealing pool.
//!
//! The instance is deliberately clustered, so after bandwidth adjustment
//! the per-parity-class task lists have a heavy-tailed cost distribution —
//! the regime where an even item split loses wall-clock time. Task
//! costs are the real `PD-SCHED` load model (points per subdomain ×
//! cylinder box volume), executed as a deterministic arithmetic burn so
//! the benchmark isolates *scheduling*, not kernel math; the end-to-end
//! `pd::run` is measured alongside for the record.
//!
//! `calib` is a fixed single-thread burn used by `bench_guard` to
//! normalize machine speed when comparing against the committed baseline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rayon::prelude::*;
use stkde_core::parallel::{pd, pd_sched};
use stkde_core::Problem;
use stkde_data::{synth, Point};
use stkde_grid::{Bandwidth, Decomp, Domain, GridDims};
use stkde_kernels::Epanechnikov;

const THREADS: usize = 8;

fn instance() -> (Problem, Vec<Point>) {
    let domain = Domain::from_dims(GridDims::new(64, 64, 32));
    let spec = synth::ClusterSpec {
        clusters: 3,
        spatial_sigma: 0.03,
        background: 0.05,
        ..Default::default()
    };
    let points = spec.generate(4_000, domain.extent(), 7).into_vec();
    (
        Problem::new(domain, Bandwidth::new(4.0, 3.0), points.len()),
        points,
    )
}

/// Deterministic floating-point busy-work proportional to `cost`.
fn burn(cost: f64) -> f64 {
    let iters = cost as u64;
    let mut x = 1.000_000_1_f64;
    for _ in 0..iters {
        x = x * 1.000_000_3 + 1e-9;
    }
    x
}

/// Burn iterations per unit of `PD-SCHED` load-model weight. Scaled so
/// the whole 8-phase pass costs on the order of a millisecond — the
/// small-instance / serve-path regime where per-phase scheduling overhead
/// actually competes with compute (`pd_e2e_steal` below confirms the real
/// path sits in exactly this range).
const WEIGHT_SCALE: f64 = 0.15;

/// The parity-class task lists of the adjusted decomposition, with the
/// `PD-SCHED` load-model weight of every subdomain.
fn parity_workload(problem: &Problem, points: &[Point]) -> (Vec<Vec<usize>>, Vec<f64>) {
    let plan = pd_sched::plan(
        problem,
        points,
        Decomp::cubic(8),
        pd_sched::Ordering::Lexicographic,
    );
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); 8];
    for id in plan.decomposition.ids() {
        classes[plan.decomposition.parity_class(id)].push(id.0);
    }
    let weights = plan.weights.iter().map(|w| w * WEIGHT_SCALE).collect();
    (classes, weights)
}

fn bench_work_stealing(c: &mut Criterion) {
    let (problem, points) = instance();
    let (classes, weights) = parity_workload(&problem, &points);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("pool");

    let mut group = c.benchmark_group(format!("work_stealing_t{THREADS}"));
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("calib", |b| b.iter(|| burn(black_box(2_000_000.0))));
    // The eight parity phases on the persistent work-stealing pool.
    group.bench_function("parity_classes_steal", |b| {
        b.iter(|| {
            pool.install(|| {
                classes
                    .iter()
                    .map(|class| class.par_iter().map(|&sd| burn(weights[sd])).sum::<f64>())
                    .sum::<f64>()
            })
        })
    });
    group.bench_function("pd_e2e_steal", |b| {
        b.iter(|| {
            pd::run::<f32, _>(&problem, &Epanechnikov, &points, Decomp::cubic(8), THREADS).unwrap()
        })
    });

    // Subdomain count + heavy tail, for the record in bench logs.
    let n_tasks: usize = classes.iter().map(Vec::len).sum();
    let max_w = weights.iter().cloned().fold(0.0f64, f64::max);
    let mean_w: f64 = weights.iter().sum::<f64>() / weights.len() as f64;
    println!(
        "  (workload: {n_tasks} subdomains across 8 parity classes, \
         max/mean task cost = {:.1})",
        max_w / mean_w
    );
    group.finish();
}

criterion_group!(benches, bench_work_stealing);
criterion_main!(benches);
