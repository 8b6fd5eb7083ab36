//! Streaming-ingest micro-benchmarks: quantify the write-coalescing win
//! the serve path relies on.
//!
//! The `stkde-server` writer thread drains its channel and applies the
//! whole drained batch per cube-lock acquisition via
//! `ShardedWindowStkde::push_batch`. These benches compare that coalesced
//! path against one event per call on the same stream and the same cube:
//! the batch path amortizes per-call setup and the shard fan-out, and
//! skips rasterizing events that age out within their own batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stkde_core::{IncrementalStkde, ShardedWindowStkde};
use stkde_data::{synth, Point};
use stkde_grid::{Bandwidth, Domain, GridDims};

fn domain() -> Domain {
    Domain::from_dims(GridDims::new(64, 64, 32))
}

fn bandwidth() -> Bandwidth {
    Bandwidth::new(6.0, 4.0)
}

/// The daemon's default shard count.
const SHARDS: usize = 4;

fn sorted_stream(n: usize, seed: u64) -> Vec<Point> {
    let mut points = synth::uniform(n, domain().extent(), seed).into_vec();
    points.sort_by(|a, b| a.t.total_cmp(&b.t));
    points
}

/// Sliding-window ingest: one `push_batch` per event vs. `push_batch` over
/// chunks of increasing size. The window is short relative to the stream,
/// so eviction churn is part of the measured work — as in serving.
fn bench_window_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_sharded_ingest");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    let points = sorted_stream(2_000, 51);
    let window = 4.0;
    group.bench_function("push_per_event", |b| {
        b.iter(|| {
            let mut win = ShardedWindowStkde::<f32>::new(domain(), bandwidth(), window, SHARDS);
            for p in &points {
                win.push_batch(std::slice::from_ref(p));
            }
            win.len()
        })
    });
    for batch in [64usize, 256, 1024] {
        group.bench_with_input(
            BenchmarkId::new("push_batch", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let mut win =
                        ShardedWindowStkde::<f32>::new(domain(), bandwidth(), window, SHARDS);
                    for chunk in points.chunks(batch) {
                        win.push_batch(chunk);
                    }
                    win.len()
                })
            },
        );
    }
    group.finish();
}

/// Raw cube updates without eviction: `insert` per event vs. one
/// `insert_batch` — isolates the per-call setup amortization.
fn bench_cube_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_cube_insert");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    let points = sorted_stream(1_000, 52);
    group.bench_function("insert_one_at_a_time", |b| {
        b.iter(|| {
            let mut cube = IncrementalStkde::<f32>::new(domain(), bandwidth());
            for &p in &points {
                cube.insert(p);
            }
            cube.len()
        })
    });
    group.bench_function("insert_batch", |b| {
        b.iter(|| {
            let mut cube = IncrementalStkde::<f32>::new(domain(), bandwidth());
            cube.insert_batch(&points);
            cube.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_window_ingest, bench_cube_insert);
criterion_main!(benches);
