//! Serve-path saturation benchmark: does ingest stay fast while readers
//! hammer the cube?
//!
//! The arrangement is the one the daemon runs: a `Mutex` around
//! [`ShardedWindowStkde`] for the writer, an `RwLock<Arc<CubeSnapshot>>`
//! slot for readers. Readers clone the `Arc` (a pointer copy) and fold
//! over the immutable snapshot; the writer ingests across temporal-slab
//! shards in parallel and publishes copy-on-write snapshots. The same
//! time-ordered stream is ingested in the same chunk sizes with and
//! without 8 concurrent reader threads.
//!
//! The measured unit is ingesting the full stream, with the writer
//! paced by a small inter-batch gap as a real channel-fed writer is.
//! Alongside the two wall-clock ids this bench records two quantities
//! criterion cannot: the writer's **lock-stall** (seconds spent blocked
//! acquiring its locks — the direct measure of read/write isolation: a
//! writer sharing a lock with its readers waits out multi-millisecond
//! read folds, this one only ever waits for an `Arc` swap) and the
//! readers' **p99 latency**. `bench_guard` holds the reader penalty, the
//! stall and the p99 to absolute bounds (see its module docs); the extra
//! ids are appended to `$STKDE_BENCH_JSON` by this bench itself (they
//! are in-run absolutes, not best-of-batches means).

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use stkde_core::{CubeSnapshot, ShardedWindowStkde};
use stkde_data::{synth, Point};
use stkde_grid::{Bandwidth, Domain, GridDims, VoxelRange};

const SHARDS: usize = 4;
const CHUNK: usize = 64;
const READERS: usize = 8;
/// Gap between ingested chunks, modeling the writer thread blocking on
/// its channel between coalesced batches. Without it a small host lets
/// the bench's writer loop outrun the readers entirely — it re-acquires
/// the lock before any reader is ever scheduled to contend for it — and
/// the measured contention understates what a paced server sees.
const BATCH_GAP: Duration = Duration::from_micros(100);

fn domain() -> Domain {
    Domain::from_dims(GridDims::new(64, 64, 32))
}

fn bandwidth() -> Bandwidth {
    Bandwidth::new(6.0, 4.0)
}

fn sorted_stream(n: usize, seed: u64) -> Vec<Point> {
    let mut points = synth::uniform(n, domain().extent(), seed).into_vec();
    points.sort_by(|a, b| a.t.total_cmp(&b.t));
    points
}

/// The read the saturating readers issue: a fold over most of the cube,
/// spanning several slab boundaries — long enough that a writer sharing
/// a lock with it would visibly stall.
fn read_box() -> VoxelRange {
    VoxelRange {
        x0: 2,
        x1: 62,
        y0: 2,
        y1: 62,
        t0: 2,
        t1: 30,
    }
}

/// Reader threads looping `read()` until stopped, each recording
/// per-read wall-clock latencies.
struct ReaderPool {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<Vec<f64>>>,
}

fn spawn_readers<F>(read: F) -> ReaderPool
where
    F: Fn() + Send + Clone + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let handles = (0..READERS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let read = read.clone();
            std::thread::spawn(move || {
                let mut latencies = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let start = Instant::now();
                    read();
                    latencies.push(start.elapsed().as_secs_f64());
                }
                latencies
            })
        })
        .collect();
    ReaderPool { stop, handles }
}

impl ReaderPool {
    fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread"))
            .collect()
    }
}

/// Running mean of per-ingest stall seconds, floored away from zero so
/// the JSONL record stays parseable by `bench_guard` (which rejects
/// non-positive times).
#[derive(Default)]
struct MeanCell {
    sum: std::cell::Cell<f64>,
    count: std::cell::Cell<u64>,
}

impl MeanCell {
    fn push(&self, v: f64) -> f64 {
        self.sum.set(self.sum.get() + v);
        self.count.set(self.count.get() + 1);
        v
    }

    fn mean(&self) -> f64 {
        (self.sum.get() / self.count.get().max(1) as f64).max(1e-9)
    }
}

fn p99(mut latencies: Vec<f64>) -> f64 {
    assert!(!latencies.is_empty(), "readers never completed a read");
    latencies.sort_by(f64::total_cmp);
    let idx = (latencies.len() as f64 * 0.99) as usize;
    latencies[idx.min(latencies.len() - 1)]
}

/// Append a record in the criterion shim's JSONL format; used for the
/// reader-side p99 quantiles the shim cannot measure itself.
fn record_json(id: &str, best_s: f64) {
    let Ok(path) = std::env::var("STKDE_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = format!("{{\"id\":\"{id}\",\"best_s\":{best_s:e}}}");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .unwrap_or_else(|e| eprintln!("warning: could not record {id} to {path}: {e}"));
}

fn bench_saturation(c: &mut Criterion) {
    let mut group = c.benchmark_group("saturation");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    let points = sorted_stream(1_200, 53);
    let window = 8.0;

    // Writer behind a Mutex, readers on copy-on-write snapshots.
    let sharded = Arc::new(Mutex::new(ShardedWindowStkde::<f64>::new(
        domain(),
        bandwidth(),
        window,
        SHARDS,
    )));
    let slot = Arc::new(RwLock::new(sharded.lock().unwrap().publish()));
    // Ingest the stream; returns the seconds the writer spent *blocked*
    // acquiring its locks (its stall under reader pressure).
    let ingest_sharded = |cube: &Mutex<ShardedWindowStkde<f64>>,
                          slot: &RwLock<Arc<CubeSnapshot<f64>>>| {
        let stall = std::cell::Cell::new(0.0f64);
        let locked = || {
            let wait = Instant::now();
            let guard = cube.lock().unwrap();
            stall.set(stall.get() + wait.elapsed().as_secs_f64());
            guard
        };
        let swap = |snap| {
            let wait = Instant::now();
            let mut guard = slot.write().unwrap();
            stall.set(stall.get() + wait.elapsed().as_secs_f64());
            *guard = snap;
        };
        {
            let mut w = locked();
            *w = ShardedWindowStkde::new(domain(), bandwidth(), window, SHARDS);
            swap(w.publish());
        }
        for chunk in points.chunks(CHUNK) {
            let mut w = locked();
            w.push_batch(chunk);
            // Publish before unlocking, as the serve path does: the swap
            // is the only moment readers are (briefly) excluded.
            let snap = w.publish();
            swap(snap);
            drop(w);
            std::thread::sleep(BATCH_GAP);
        }
        black_box(cube.lock().unwrap().len());
        stall.get()
    };
    group.bench_function("sharded_ingest_noreaders", |b| {
        b.iter(|| black_box(ingest_sharded(&sharded, &slot)))
    });
    let pool = {
        let slot = Arc::clone(&slot);
        spawn_readers(move || {
            let snap = slot.read().unwrap().clone();
            black_box(snap.density_range(read_box()));
        })
    };
    // Mean stall across every measured ingest: blocking is a tail
    // event (it needs a reader to hold the slot at acquisition time), so
    // a best-of floor would just pick the luckiest run.
    let stall = MeanCell::default();
    group.bench_function("sharded_ingest_readers8", |b| {
        b.iter(|| black_box(stall.push(ingest_sharded(&sharded, &slot))))
    });
    record_json("saturation/sharded_stall_readers8", stall.mean());
    record_json("saturation/sharded_read_p99_readers8", p99(pool.finish()));

    group.finish();
}

criterion_group!(benches, bench_saturation);
criterion_main!(benches);
