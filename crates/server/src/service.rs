//! The density service: a temporal-slab-sharded cube with one writer,
//! band-parallel ingest, and lock-free snapshot reads.
//!
//! The ingest-then-query split mirrors the serving architecture of
//! temporal KDE systems: estimation cost is paid once per event on a
//! dedicated writer thread, then amortized across arbitrarily many
//! queries. Concretely:
//!
//! - **Writers** call [`DensityService::enqueue`], which only pushes onto
//!   an unbounded channel — ingestion never waits for a cube write.
//! - **The writer thread** owns the cube outright: it is built at start,
//!   its slab layout is fixed for the service's lifetime, and no other
//!   thread can reach it, so it sits behind no lock. The thread drains
//!   the channel, sorts the drained batch by time, drops events that
//!   arrive behind the window head (stale), and applies the rest with
//!   [`ShardedWindowStkde::push_batch`]: the batch is cut across space
//!   into Y-bands, one per rayon pool thread, and each band walks every
//!   cylinder once over its own rows of every temporal slab — disjoint
//!   rows, no intra-batch locking. A batch too small to pay for the
//!   fork-join runs as one band on the writer thread. Voxel values are
//!   bit-identical to a fresh sequential build of the live events
//!   whatever the shard count, band count and eviction history
//!   (argument in [`stkde_core::ShardedWindowStkde`]).
//! - **Readers** never touch the writer's cube. After every batch the
//!   writer publishes a copy-on-write [`CubeSnapshot`] (only slabs whose
//!   epoch changed are copied) and swaps one `Arc` pointer; a read
//!   clones that `Arc` and serves from an immutable, consistent cube —
//!   a long `/region` scan cannot block ingest and can never observe a
//!   torn (half-applied) state. The writer is the only publisher, so
//!   published generations are monotone by construction.
//! - Region and slice results are memoized with one cache entry per
//!   query string, stamped with the per-shard epoch vector of the slabs
//!   the query touches ([`CubeSnapshot::cache_epoch_key`]): a hit needs
//!   the stamp to match, so any write the result could see forces a
//!   recompute (which overwrites the entry in place), while a write to a
//!   foreign slab that leaves the live count unchanged does not. A full
//!   cache admits a new query only on its second miss, so one-shot
//!   boxes cannot evict repeated planes ([`crate::cache`]).
//!
//! Every counter lives in the `stkde-obs` global registry (see
//! `crate::metrics`), so `/stats` and `/metrics` read the same cells.
//! Those cells are shared by every service in the process, so the drain
//! check keeps its own ledger per service: `received` and `settled`
//! atomics, Release increments paired with Acquire loads, written after
//! the registry counters so a drained service's `/stats` is complete.
//! Everything else is Relaxed — monotone statistics where readers
//! tolerate lag and no other memory depends on their order.

use crate::cache::LruCache;
use crate::json::Json;
use crate::metrics::{shard_metrics, ServerMetrics, ShardMetrics};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use stkde_core::{CubeSnapshot, ShardedWindowStkde};
use stkde_data::Point;
use stkde_grid::{Bandwidth, Domain};
use stkde_kernels::Epanechnikov;

/// The kernel the serving cube rasterizes with: the closed-form
/// Epanechnikov, so served densities equal batch PB-SYM up to summation
/// order. An alias only because `benchmark/src/layers.rs` names it.
pub type ServeKernel = Epanechnikov;

/// Cached region/slice responses, in entries. Once the cache is full, a
/// new query enters on its second miss ([`crate::cache`]).
const CACHE_ENTRIES: usize = 64;

/// Largest coalesced batch the writer applies at once, in events.
const INGEST_BATCH_CAP: usize = 1024;

/// Configuration of a [`DensityService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The discretized space-time domain of the cube.
    pub domain: Domain,
    /// Kernel bandwidths (world units).
    pub bandwidth: Bandwidth,
    /// Sliding-window length (time units).
    pub window: f64,
    /// Temporal-slab shard count, fixed for the service's lifetime and
    /// clamped to `[1, min(Gt, 64)]`. The daemon always runs the default, 4;
    /// tests vary it for shard-count coverage.
    pub shards: usize,
}

impl ServiceConfig {
    /// A config with the serving default of 4 temporal-slab shards.
    pub fn new(domain: Domain, bandwidth: Bandwidth, window: f64) -> Self {
        Self {
            domain,
            bandwidth,
            window,
            shards: 4,
        }
    }
}

/// The reader-facing snapshot slot and the drain ledger, shared between
/// the service handle and the ingest thread. The cube itself is not
/// here: the ingest thread owns it.
#[derive(Debug)]
struct CubeState {
    snapshot: RwLock<Arc<CubeSnapshot<f64>>>,
    /// Events this service's `enqueue` accepted (Release increments,
    /// counted before the send).
    received: AtomicU64,
    /// Events this service's writer settled: applied, stale or aged in
    /// their batch (Release increments).
    settled: AtomicU64,
    /// Fault hook: the writer panics at the start of its next batch.
    #[cfg(test)]
    fault: AtomicBool,
}

/// Query cache: query string → (epoch-vector key it was computed at,
/// encoded response bytes) — see [`CubeSnapshot::cache_epoch_key`].
type QueryCache = LruCache<String, (Arc<str>, Arc<[u8]>)>;

/// The long-running density service. Cheap to share: wrap in an [`Arc`]
/// (as [`DensityService::start`] does) and clone handles freely.
#[derive(Debug)]
pub struct DensityService {
    state: Arc<CubeState>,
    tx: Mutex<Option<Sender<Vec<Point>>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
    cache: Mutex<QueryCache>,
    metrics: ServerMetrics,
    shutdown_requested: AtomicBool,
    domain: Domain,
    window: f64,
    started: Instant,
}

impl DensityService {
    /// Build the sharded cube, publish its empty snapshot, and move the
    /// cube into a new writer thread, its only owner.
    pub fn start(config: ServiceConfig) -> Arc<Self> {
        let mut cube = ShardedWindowStkde::<f64>::new(
            config.domain,
            config.bandwidth,
            config.window,
            config.shards,
        );
        let metrics = ServerMetrics::new();
        metrics.cube_bytes.set(cube.heap_bytes() as f64);
        metrics.shard_count.set(cube.shard_count() as f64);
        // The layout never changes, so each shard's handles are resolved
        // here, once.
        let shards: Vec<ShardMetrics> = cube
            .shard_batch_stats()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let m = shard_metrics(i);
                m.epoch.set(s.epoch as f64);
                m.layers.set((s.t1 - s.t0) as f64);
                m
            })
            .collect();
        let state = Arc::new(CubeState {
            snapshot: RwLock::new(cube.publish()),
            received: AtomicU64::new(0),
            settled: AtomicU64::new(0),
            #[cfg(test)]
            fault: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::channel::<Vec<Point>>();

        let writer = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("stkde-ingest".into())
                .spawn(move || writer_loop(&rx, &state, cube, metrics, &shards))
                .expect("spawn ingest writer")
        };

        Arc::new(Self {
            state,
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
            cache: Mutex::new(LruCache::new(CACHE_ENTRIES)),
            metrics,
            shutdown_requested: AtomicBool::new(false),
            domain: config.domain,
            window: config.window,
            started: Instant::now(),
        })
    }

    /// Always 0: the serve kernel is analytic. Kept because
    /// `benchmark/src/layers.rs` calls it.
    pub fn kernel_error_bound(&self) -> f64 {
        0.0
    }

    /// Point the resident-pyramid-bytes gauge at `snap` after a read that
    /// may have built slab pyramids. (Build seconds are observed where
    /// each slab's pyramid is built, in `stkde_core::sharded`.)
    pub(crate) fn note_pyramid_bytes(&self, snap: &CubeSnapshot<f64>) {
        self.metrics.pyramid_bytes.set(snap.pyramid_bytes() as f64);
    }

    /// The cube's domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Queue events for ingestion. Never waits for the writer; returns the
    /// number of events accepted after dropping non-finite coordinates.
    ///
    /// # Errors
    /// Fails once shutdown has begun.
    pub fn enqueue(&self, mut events: Vec<Point>) -> Result<usize, ShutdownError> {
        events.retain(Point::is_finite);
        let n = events.len();
        if n == 0 {
            return Ok(0);
        }
        let tx = self.tx.lock();
        let Some(tx) = tx.as_ref() else {
            return Err(ShutdownError);
        };
        // Count before sending so `is_drained` can never report quiescence
        // while this batch is still in flight.
        let received = &self.state.received;
        received.fetch_add(n as u64, Ordering::Release);
        if tx.send(events).is_err() {
            received.fetch_sub(n as u64, Ordering::Release);
            return Err(ShutdownError);
        }
        self.metrics.received.add(n as u64);
        Ok(n)
    }

    /// The most recently published snapshot — one `Arc` clone; the
    /// writer's cube is never touched. Hold it as long as you like; it
    /// stays internally consistent while ingest proceeds.
    pub fn snapshot(&self) -> Arc<CubeSnapshot<f64>> {
        Arc::clone(&self.state.snapshot.read())
    }

    /// The published cube generation (see
    /// [`ShardedWindowStkde::generation`]).
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }

    /// Bounds-checked voxel density read, plus the generation it was
    /// read at.
    pub fn density(&self, x: usize, y: usize, t: usize) -> (Option<f64>, u64) {
        let snap = self.snapshot();
        (snap.density_checked(x, y, t), snap.generation())
    }

    /// Serve `key` from the cache if the epoch vector of the shards under
    /// global time layers `[t0, t1)` (plus the live count) still
    /// matches the one its entry was computed at, else compute against
    /// the current snapshot and memoize, overwriting the stale entry.
    /// The cache holds the *encoded* response body, so a hit is one
    /// `Arc` clone — no Json tree clone and no re-serialization — and a
    /// write that only touched foreign slabs (without changing the live
    /// count) does not invalidate the entry. `compute` returns either a
    /// [`Json`] tree, encoded here, or bytes it already encoded itself.
    pub fn cached_read<B: Into<Arc<[u8]>>>(
        &self,
        key: &str,
        t0: usize,
        t1: usize,
        compute: impl FnOnce(&CubeSnapshot<f64>) -> B,
    ) -> Arc<[u8]> {
        let snap = self.snapshot();
        let epoch = snap.cache_epoch_key(t0, t1);
        let cached = self.cache.lock().get(key);
        match cached {
            Some((at, body)) if *at == *epoch => {
                self.metrics.cache_hits.inc();
                return body;
            }
            _ => self.metrics.cache_misses.inc(),
        }
        let encoded: Arc<[u8]> = compute(&snap).into();
        let mut cache = self.cache.lock();
        if !cache.insert(key.to_string(), (epoch.into(), Arc::clone(&encoded))) {
            self.metrics.cache_refused.inc();
        }
        self.metrics.cache_entries.set(cache.len() as f64);
        encoded
    }

    /// Events this service accepted that its writer has not settled.
    fn queued(&self) -> u64 {
        let settled = self.state.settled.load(Ordering::Acquire);
        let received = self.state.received.load(Ordering::Acquire);
        received.saturating_sub(settled)
    }

    /// Push point-in-time values (queue depth, uptime, cache size) into
    /// their gauges. Called on every `/stats` and `/metrics` render so
    /// scrapes see current values, not writer-thread leftovers.
    pub(crate) fn refresh_gauges(&self) {
        let m = &self.metrics;
        m.queue_depth.set(self.queued() as f64);
        m.uptime.set(self.started.elapsed().as_secs_f64());
        m.cache_entries.set(self.cache.lock().len() as f64);
    }

    /// Service counters as a JSON object (the `/stats` payload).
    ///
    /// Every count is read from the same `stkde-obs` registry cells that
    /// `/metrics` renders, so the two endpoints cannot drift.
    pub fn stats_json(&self) -> Json {
        self.refresh_gauges();
        let snap = self.snapshot();
        let dims = self.domain.dims();
        let m = &self.metrics;
        Json::obj([
            ("events_received", Json::from(m.received.get())),
            ("events_applied", Json::from(m.applied.get())),
            ("events_stale", Json::from(m.stale.get())),
            ("events_aged_in_batch", Json::from(m.aged_in_batch.get())),
            ("events_evicted", Json::from(m.evicted.get())),
            ("ingest_batches", Json::from(m.batches.get())),
            ("ingest_queue_depth", Json::from(m.queue_depth.get())),
            (
                "last_batch_coalesce_ratio",
                Json::from(m.last_coalesce_ratio.get()),
            ),
            ("live_events", Json::from(snap.len())),
            ("generation", Json::from(snap.generation())),
            ("shards", Json::from(snap.shards().len())),
            ("window", Json::from(self.window)),
            (
                "dims",
                Json::obj([
                    ("gx", Json::from(dims.gx)),
                    ("gy", Json::from(dims.gy)),
                    ("gt", Json::from(dims.gt)),
                ]),
            ),
            // Constants, kept because `benchmark/src/serve.rs` parses them.
            ("kernel", Json::from("epanechnikov")),
            ("kernel_error_bound", Json::from(0.0)),
            ("pyramid_bytes", Json::from(snap.pyramid_bytes())),
            ("cache_entries", Json::from(self.cache.lock().len())),
            ("cache_hits", Json::from(m.cache_hits.get())),
            ("cache_misses", Json::from(m.cache_misses.get())),
            ("cache_refused", Json::from(m.cache_refused.get())),
            (
                "uptime_seconds",
                Json::from(self.started.elapsed().as_secs_f64()),
            ),
        ])
    }

    /// `true` once every event queued at this service has been applied
    /// (or dropped as stale or aged). Lets callers await ingest
    /// quiescence without sleeping on a magic number.
    pub(crate) fn is_drained(&self) -> bool {
        self.queued() == 0
    }

    /// Block (politely) until this service's ingest is quiescent, or
    /// until its writer has stopped: a writer that died (see
    /// `writer_stopped`) will never settle what is still queued, so
    /// waiting longer could only hang. Intended for tests, examples, and
    /// probes that want read-your-writes; a serving client would instead
    /// poll `/stats` until `events_applied` catches up.
    pub fn wait_drained(&self) {
        while !self.is_drained() && !self.writer_exited() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Ask the hosting process to stop (`POST /shutdown` sets this; the
    /// daemon's main loop polls it).
    pub(crate) fn request_shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::SeqCst);
    }

    /// `true` once `request_shutdown` ran.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// `true` when the ingest writer has exited although nobody asked the
    /// service to stop: it panicked, queued events will never apply, and
    /// readers are left on its last snapshot.
    pub(crate) fn writer_stopped(&self) -> bool {
        !self.shutdown_requested() && self.writer_exited()
    }

    /// `true` once the writer thread has exited, or `shutdown` joined it.
    fn writer_exited(&self) -> bool {
        self.writer
            .lock()
            .as_ref()
            .is_none_or(JoinHandle::is_finished)
    }

    /// Make the writer panic, and wake it with an empty batch.
    #[cfg(test)]
    pub(crate) fn inject_writer_fault(&self) {
        self.state.fault.store(true, Ordering::SeqCst);
        if let Some(tx) = self.tx.lock().as_ref() {
            let _ = tx.send(Vec::new());
        }
    }

    /// Graceful shutdown: stop accepting events, let the writer drain
    /// everything already queued, and join it. Idempotent.
    pub fn shutdown(&self) {
        // Dropping the sender ends the writer's `recv` loop *after* the
        // queued batches: `mpsc` delivers everything sent before the
        // disconnect.
        drop(self.tx.lock().take());
        if let Some(writer) = self.writer.lock().take() {
            let _ = writer.join();
        }
    }
}

impl Drop for DensityService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Error returned by [`DensityService::enqueue`] after shutdown began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownError;

impl std::fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service is shutting down")
    }
}

impl std::error::Error for ShutdownError {}

/// The ingest thread: coalesce, apply, publish, until every sender is
/// gone. `cube` is owned here and nowhere else; `shards` holds each
/// slab's metric handles, in slab order.
fn writer_loop(
    rx: &Receiver<Vec<Point>>,
    state: &CubeState,
    mut cube: ShardedWindowStkde<f64>,
    m: ServerMetrics,
    shards: &[ShardMetrics],
) {
    while let Ok(first) = rx.recv() {
        #[cfg(test)]
        if state.fault.swap(false, Ordering::SeqCst) {
            panic!("injected writer fault");
        }
        let _span = stkde_obs::span("ingest_batch");
        let mut batch = first;
        let mut sends = 1u64;
        // Coalesce: drain whatever else is already queued, up to the cap,
        // so the cube is written and published once per burst instead of
        // once per send.
        while batch.len() < INGEST_BATCH_CAP {
            match rx.try_recv() {
                Ok(mut more) => {
                    sends += 1;
                    batch.append(&mut more);
                }
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        batch.sort_by(|a, b| a.t.total_cmp(&b.t));

        let apply_start = Instant::now();
        // Events behind the window head would trip the time-ordering
        // contract; a serving system drops them as stale instead.
        let stale = match cube.newest_time() {
            Some(newest) => batch.partition_point(|p| p.t < newest),
            None => 0,
        };
        let result = cube.push_batch(&batch[stale..]);
        let banded = cube.last_batch_bands() > 1;
        m.generation.set(cube.generation() as f64);
        m.live_events.set(cube.len() as f64);
        let snap = cube.publish();
        let prev = std::mem::replace(&mut *state.snapshot.write(), Arc::clone(&snap));
        // The layout is fixed, so the two snapshots pair slab by slab.
        let slabs = snap.shards().iter().zip(prev.shards());
        for ((s, (plane, old)), sm) in cube.shard_batch_stats().iter().zip(slabs).zip(shards) {
            sm.ingest_events.add(s.ops);
            sm.epoch.set(s.epoch as f64);
            if !Arc::ptr_eq(plane, old) {
                sm.publishes.inc();
            }
        }
        m.apply_seconds.observe(apply_start.elapsed().as_secs_f64());
        m.batch_size.observe(batch.len() as f64);
        m.last_coalesce_ratio.set(batch.len() as f64 / sends as f64);
        m.batches.inc();
        if banded {
            m.banded_batches.inc();
        }
        m.coalesced_sends.add(sends);
        m.stale.add(stale as u64);
        m.evicted.add(result.evicted as u64);
        m.aged_in_batch.add(result.skipped as u64);
        m.applied.add(result.inserted as u64);
        // Every event of the batch settled. Counted last, so a service
        // seen drained has every count above in place.
        state
            .settled
            .fetch_add(batch.len() as u64, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_grid::GridDims;

    fn config() -> ServiceConfig {
        let mut cfg = ServiceConfig::new(
            Domain::from_dims(GridDims::new(16, 16, 12)),
            Bandwidth::new(3.0, 2.0),
            6.0,
        );
        cfg.shards = 3;
        cfg
    }

    fn drain(svc: &DensityService) {
        for _ in 0..2000 {
            if svc.is_drained() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("ingest did not drain");
    }

    // NOTE: the obs registry is process-global, so counter values in
    // these tests are cumulative across services in the same test
    // binary. Tests assert on per-service quantities (drain, deltas,
    // stats keys whose gauges are service-scoped), never on absolute
    // global counter values.

    #[test]
    fn enqueue_applies_and_generation_advances() {
        let svc = DensityService::start(config());
        let g0 = svc.generation();
        svc.enqueue(vec![Point::new(8.0, 8.0, 2.0)]).unwrap();
        drain(&svc);
        assert!(svc.generation() > g0);
        let (d, _) = svc.density(8, 8, 2);
        assert!(d.unwrap() > 0.0);
        assert_eq!(svc.density(99, 0, 0).0, None);
    }

    #[test]
    fn non_finite_and_stale_events_are_dropped_not_fatal() {
        let _serial = crate::test_support::serial();
        let svc = DensityService::start(config());
        let before = svc.stats_json();
        let stale0 = before.get("events_stale").unwrap().as_u64().unwrap();
        let applied0 = before.get("events_applied").unwrap().as_u64().unwrap();
        let accepted = svc
            .enqueue(vec![
                Point::new(f64::NAN, 1.0, 1.0),
                Point::new(4.0, 4.0, 5.0),
            ])
            .unwrap();
        assert_eq!(accepted, 1);
        drain(&svc);
        // Arrives behind the window head: dropped as stale, service lives on.
        svc.enqueue(vec![Point::new(4.0, 4.0, 1.0)]).unwrap();
        drain(&svc);
        let stats = svc.stats_json();
        assert_eq!(
            stats.get("events_stale").unwrap().as_u64(),
            Some(stale0 + 1)
        );
        assert_eq!(
            stats.get("events_applied").unwrap().as_u64(),
            Some(applied0 + 1)
        );
        assert_eq!(stats.get("live_events").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn cached_read_hits_within_epochs_and_misses_across() {
        let svc = DensityService::start(config());
        svc.enqueue(vec![Point::new(8.0, 8.0, 2.0)]).unwrap();
        drain(&svc);
        let gt = svc.domain().dims().gt;
        let computed = std::cell::Cell::new(0);
        let read = || {
            svc.cached_read("k", 0, gt, |snap| {
                computed.set(computed.get() + 1);
                Json::from(snap.generation())
            })
        };
        let a = read();
        let b = read();
        assert_eq!(a, b);
        assert_eq!(computed.get(), 1, "second read must be a cache hit");
        svc.enqueue(vec![Point::new(8.0, 8.0, 3.0)]).unwrap();
        drain(&svc);
        let c = read();
        assert_ne!(a, c, "write must invalidate via the epoch key");
        assert_eq!(computed.get(), 2);
    }

    #[test]
    fn one_query_recomputed_across_epochs_holds_one_entry() {
        let svc = DensityService::start(config());
        let gt = svc.domain().dims().gt;
        let computed = std::cell::Cell::new(0);
        for k in 0..5 {
            // Each drained event changes the live count, so the epoch key.
            svc.enqueue(vec![Point::new(8.0, 8.0, 2.0 + 0.5 * f64::from(k))])
                .unwrap();
            drain(&svc);
            svc.cached_read("region:all", 0, gt, |snap| {
                computed.set(computed.get() + 1);
                Json::from(snap.generation())
            });
        }
        assert_eq!(computed.get(), 5, "every epoch must recompute");
        assert_eq!(
            svc.stats_json().get("cache_entries").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn one_shot_regions_cannot_evict_a_repeated_slice() {
        let svc = DensityService::start(config());
        svc.enqueue(vec![Point::new(8.0, 8.0, 2.0)]).unwrap();
        drain(&svc);
        let gt = svc.domain().dims().gt;
        let computed = std::cell::Cell::new(0);
        let read = |key: &str, t0: usize, t1: usize| {
            svc.cached_read(key, t0, t1, |snap| {
                computed.set(computed.get() + 1);
                Json::from(snap.generation())
            })
        };
        read("slice:1", 1, 2);
        for i in 0..10 * CACHE_ENTRIES {
            read(&format!("region:0-{i},0-16,0-{gt}"), 0, gt);
        }
        let before = computed.get();
        read("slice:1", 1, 2);
        assert_eq!(computed.get(), before, "the plane must still be a hit");
    }

    #[test]
    fn snapshot_isolates_readers_from_later_writes() {
        let svc = DensityService::start(config());
        svc.enqueue(vec![Point::new(8.0, 8.0, 2.0)]).unwrap();
        drain(&svc);
        let old = svc.snapshot();
        let g = old.generation();
        let d = old.density_checked(8, 8, 2);
        svc.enqueue(vec![Point::new(8.0, 8.0, 3.5)]).unwrap();
        drain(&svc);
        // The held snapshot is frozen; the service has moved on.
        assert_eq!(old.generation(), g);
        assert_eq!(old.density_checked(8, 8, 2), d);
        assert!(svc.generation() > g);
        assert_ne!(svc.snapshot().density_checked(8, 8, 2), d);
    }

    #[test]
    fn each_service_drains_on_its_own_ledger() {
        let dead = DensityService::start(config());
        let live = DensityService::start(config());
        // Arm the fault without the wake-up batch, so the batch that
        // trips it is this event's: counted received, never settled.
        dead.state.fault.store(true, Ordering::SeqCst);
        dead.enqueue(vec![Point::new(8.0, 8.0, 2.0)]).unwrap();
        live.enqueue(vec![Point::new(8.0, 8.0, 2.0)]).unwrap();
        let (done, waited) = mpsc::channel();
        let (a, b) = (Arc::clone(&dead), Arc::clone(&live));
        std::thread::spawn(move || {
            b.wait_drained();
            a.wait_drained();
            let _ = done.send(());
        });
        waited
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("wait_drained must return on both services");
        assert!(live.is_drained(), "the live service applied its event");
        assert!(!dead.is_drained(), "the dead writer's event stays queued");
        assert!(dead.writer_stopped());
        assert_eq!(live.snapshot().len(), 1);
    }

    #[test]
    fn shutdown_drains_queued_events_then_rejects() {
        let _serial = crate::test_support::serial();
        let svc = DensityService::start(config());
        let batches0 = {
            let stats = svc.stats_json();
            stats.get("ingest_batches").unwrap().as_u64().unwrap()
        };
        for k in 0..50 {
            svc.enqueue(vec![Point::new(8.0, 8.0, 0.1 * k as f64)])
                .unwrap();
        }
        svc.shutdown();
        assert!(
            svc.is_drained(),
            "queued events must be applied before join"
        );
        assert_eq!(
            svc.enqueue(vec![Point::new(1.0, 1.0, 9.0)]),
            Err(ShutdownError)
        );
        let stats = svc.stats_json();
        // Coalescing: 50 sends must need far fewer lock acquisitions.
        let batches = stats.get("ingest_batches").unwrap().as_u64().unwrap();
        assert!(batches - batches0 <= 50);
        // The drained queue reports zero depth, and the writer recorded a
        // coalesce ratio for its final batch.
        assert_eq!(stats.get("ingest_queue_depth").unwrap().as_f64(), Some(0.0));
        assert!(
            stats
                .get("last_batch_coalesce_ratio")
                .unwrap()
                .as_f64()
                .unwrap()
                >= 1.0
        );
    }
}
