//! Conformance proof for the sharded serve path.
//!
//! Three properties, each load-bearing for the PR that sharded the
//! server:
//!
//! 1. **Bit-identity.** A service running any shard count, evicting as
//!    it goes, serves values bit-identical to a fresh sequential build
//!    of its live events ([`IncrementalStkde::insert_batch`]) — not
//!    "close", *equal*.
//! 2. **No torn reads.** Readers hammering snapshots while the stream
//!    advances only ever observe `(generation, content)` pairs that the
//!    deterministic reference also produces — a half-applied batch or a
//!    half-published snapshot would hash to a pair outside that set.
//! 3. **Stale cache rejection.** Epoch-keyed cache entries minted
//!    before a write to their slab are never served afterwards; entries
//!    for untouched slabs survive foreign-shard writes only when the
//!    live count is unchanged.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use stkde_core::{CubeSnapshot, IncrementalStkde};
use stkde_data::{synth, Point};
use stkde_grid::{Bandwidth, Domain, Grid3, GridDims, VoxelRange};
use stkde_server::json::Json;
use stkde_server::{DensityService, ServiceConfig};

/// Serialize against the other server tests in this binary: the obs
/// registry is process-global and the torture test is timing-sensitive.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn domain() -> Domain {
    Domain::from_dims(GridDims::new(24, 20, 16))
}

fn bandwidth() -> Bandwidth {
    Bandwidth::new(3.0, 2.0)
}

fn stream(n: usize, seed: u64) -> Vec<Point> {
    let mut points = synth::uniform(n, domain().extent(), seed).into_vec();
    points.sort_by(|a, b| a.t.total_cmp(&b.t));
    points
}

fn config(window: f64, shards: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(domain(), bandwidth(), window);
    cfg.shards = shards;
    cfg
}

/// The deterministic reference: the live events the cube promises per
/// batch (evict against the last event's cutoff, skip what ages out
/// within the batch) with the generation steps counted by hand (+1 per
/// eviction, +1 per non-empty insert). The grid it expects is a fresh
/// `insert_batch` of the live events.
struct LiveSet {
    live: VecDeque<Point>,
    window: f64,
    generation: u64,
}

impl LiveSet {
    fn new(window: f64) -> Self {
        Self {
            live: VecDeque::new(),
            window,
            generation: 0,
        }
    }

    fn push_batch(&mut self, batch: &[Point]) {
        let cutoff = batch.last().expect("non-empty batch").t - self.window;
        while self.live.front().is_some_and(|old| old.t < cutoff) {
            self.live.pop_front();
            self.generation += 1;
        }
        let survivors = &batch[batch.partition_point(|p| p.t < cutoff)..];
        self.live.extend(survivors);
        self.generation += u64::from(!survivors.is_empty());
    }

    fn fresh(&self) -> IncrementalStkde {
        let mut cube = IncrementalStkde::new(domain(), bandwidth());
        cube.insert_batch(&self.live.iter().copied().collect::<Vec<_>>());
        cube
    }
}

/// FNV-1a over the exact bit patterns of a full unnormalized grid plus
/// the live count — collisions aside, equal hashes mean bit-identical
/// served state.
fn content_hash(live: usize, grid: &Grid3<f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(live as u64).to_le_bytes());
    for &v in grid.as_slice() {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

fn snapshot_hash(snap: &CubeSnapshot<f64>) -> u64 {
    content_hash(snap.len(), &snap.assemble())
}

/// Push `chunk` and wait until the writer applied it. Draining between
/// enqueues pins batch boundaries, making the generation sequence (and
/// therefore every published state) deterministic.
fn push_and_drain(svc: &DensityService, chunk: &[Point]) {
    svc.enqueue(chunk.to_vec()).unwrap();
    svc.wait_drained();
}

#[test]
fn sharded_service_is_bit_identical_to_sequential_grid() {
    let _serial = serial();
    // Short window: the sequence exercises insert and evict, not just
    // the append-only happy path.
    let window = 4.0;
    let points = stream(90, 81);
    for shards in [1, 4, 7] {
        let svc = DensityService::start(config(window, shards));
        let mut reference = LiveSet::new(window);
        for chunk in points.chunks(11) {
            push_and_drain(&svc, chunk);
            reference.push_batch(chunk);
            let snap = svc.snapshot();
            assert_eq!(snap.generation(), reference.generation);
            assert_eq!(snap.len(), reference.live.len());
            assert_eq!(
                snap.assemble(),
                reference.fresh().assemble(),
                "serving cube diverged from a fresh build (shards={shards})"
            );
        }
        assert!(reference.live.len() < points.len(), "the stream must evict");
        // Served read surfaces agree exactly too, across slab boundaries.
        let snap = svc.snapshot();
        let fresh = reference.fresh();
        let r = VoxelRange {
            x0: 3,
            x1: 20,
            y0: 2,
            y1: 18,
            t0: 5,
            t1: 13,
        };
        assert_eq!(snap.density_range(r), fresh.density_range(r));
        for t in 0..domain().dims().gt {
            assert_eq!(snap.density_slice(t), fresh.density_slice(t));
        }
        svc.shutdown();
    }
}

#[test]
fn readers_during_ingest_never_observe_torn_state() {
    let _serial = serial();
    let window = 6.0;
    let points = stream(120, 82);
    let svc = DensityService::start(config(window, 4));

    // The deterministic reference: same chunks, same boundaries.
    // `expected` maps generation → the one content hash a reader may
    // observe at that generation, computed from the reference alone.
    let mut reference = LiveSet::new(window);
    let mut expected: HashMap<u64, u64> = HashMap::new();
    let record = |expected: &mut HashMap<u64, u64>, reference: &LiveSet| {
        let hash = content_hash(reference.live.len(), &reference.fresh().assemble());
        expected.insert(reference.generation, hash);
    };
    record(&mut expected, &reference);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let observed: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                let mut last_generation = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = svc.snapshot();
                    let generation = snap.generation();
                    assert!(
                        generation >= last_generation,
                        "published generation went backwards"
                    );
                    last_generation = generation;
                    // Hash the full cube through the snapshot: any torn
                    // (half-applied or half-published) state hashes to a
                    // value the deterministic reference never produced.
                    observed
                        .lock()
                        .unwrap()
                        .push((generation, snapshot_hash(&snap)));
                }
            })
        })
        .collect();

    for chunk in points.chunks(7) {
        push_and_drain(&svc, chunk);
        reference.push_batch(chunk);
        record(&mut expected, &reference);
        // The writer must be exactly where the reference says it is.
        let snap = svc.snapshot();
        assert_eq!(snap.generation(), reference.generation);
        assert_eq!(expected[&snap.generation()], snapshot_hash(&snap));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader panicked");
    }

    let observed = observed.lock().unwrap();
    assert!(!observed.is_empty(), "readers never completed a read");
    for &(generation, hash) in observed.iter() {
        let want = expected
            .get(&generation)
            .unwrap_or_else(|| panic!("reader saw unpublished generation {generation}"));
        assert_eq!(
            *want, hash,
            "torn read: generation {generation} served content the writer never published"
        );
    }
    svc.shutdown();
}

#[test]
fn stale_epoch_cache_entries_are_rejected_after_a_write() {
    let _serial = serial();
    let svc = DensityService::start(config(2.0, 4));
    let gt = domain().dims().gt;
    push_and_drain(&svc, &[Point::new(12.0, 10.0, 1.0)]);
    push_and_drain(&svc, &[Point::new(12.0, 10.0, 2.0)]);

    let computed = std::cell::Cell::new(0);
    // A box over the last slab only (t layers 12..16) — far from every
    // event above, so foreign-shard writes can leave it untouched.
    let read = || {
        svc.cached_read("conformance:last-slab", 12, gt, |snap| {
            computed.set(computed.get() + 1);
            Json::from(snap.generation())
        })
    };
    read();
    assert_eq!(computed.get(), 1);

    // Balanced write far from the queried slab: one eviction + one
    // insert keeps the live count at 2 and never touches layers 12..16,
    // so the entry legitimately survives.
    push_and_drain(&svc, &[Point::new(12.0, 10.0, 3.3)]);
    assert_eq!(svc.snapshot().len(), 2);
    read();
    assert_eq!(
        computed.get(),
        1,
        "foreign-shard write must not evict the entry"
    );

    // An unbalanced write changes the live count, which scales every
    // normalized value: the entry must be rejected even though the
    // queried slab's grid is still untouched.
    push_and_drain(&svc, &[Point::new(12.0, 10.0, 3.4)]);
    assert_eq!(svc.snapshot().len(), 3);
    read();
    assert_eq!(computed.get(), 2, "n-change must invalidate the entry");

    // A balanced write into the queried slab: three inserts at t = 13
    // evict the three live events, so the live count stays 3 and only
    // the slab's epoch can reject the entry.
    push_and_drain(&svc, &[13.0, 13.1, 13.2].map(|t| Point::new(12.0, 10.0, t)));
    assert_eq!(svc.snapshot().len(), 3);
    read();
    assert_eq!(computed.get(), 3, "stale-epoch entry served after a write");
    svc.shutdown();
}
