//! In-tree metrics + tracing core (`stkde-obs`).
//!
//! The serve tier, the scatter engine, the work-stealing pool, and the
//! comm ranks all report through this crate: a process-global registry
//! of named **counters**, **gauges**, and log-bucketed **histograms**
//! on lock-free atomics, plus lightweight **spans** feeding a bounded
//! ring-buffer trace store. The registry renders in the Prometheus text
//! exposition format (version 0.0.4) for `GET /metrics`, and
//! [`scrape`] parses that same format back for `stkde-serve top`.
//!
//! crates.io is unreachable here, so this is in-tree by the same
//! discipline as the HTTP layer. Instrumentation is always compiled
//! in; its steady-state cost is one `Relaxed` `fetch_add` per counter
//! bump, and that cost is inside every number the repo benchmark
//! reports.
//!
//! # Handles, not lookups
//!
//! Registry lookups take a `Mutex`; hot sites must not. The
//! [`counter!`]/[`gauge!`]/[`histogram!`] macros cache the handle in a
//! per-call-site `OnceLock`, so the steady-state cost of a counter
//! bump is one `Relaxed` `fetch_add`:
//!
//! ```
//! let c = stkde_obs::counter!("stkde_example_total");
//! c.inc();
//! ```
//!
//! Handles are `Copy` references into leaked cells, so they can be
//! stashed in structs (the pool caches per-worker handles at spawn).
//!
//! # Memory-ordering policy
//!
//! All metric loads and stores are `Ordering::Relaxed`: these are
//! monotone tallies and last-write-wins gauges read by monitoring
//! code that tolerates slight staleness; no reader derives an
//! inter-thread happens-before edge from them. The server's ingest
//! quiescence check, which needs one, keeps its own per-service
//! Release/Acquire atomics beside these counters.

#![warn(missing_docs)]

pub mod scrape;

mod registry;
mod trace;

pub use registry::{global, Counter, Gauge, Histogram, Registry};
pub use trace::{span, trace_json, SpanGuard};

/// What a metric family is — determines its `# TYPE` line and how
/// instances render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing `u64` tally.
    Counter,
    /// Last-write-wins `f64` level.
    Gauge,
    /// Log₂-bucketed `f64` distribution with count and sum.
    Histogram,
}

impl Kind {
    /// The Prometheus `# TYPE` keyword.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One finished span, as stored in the trace ring buffer.
#[derive(Debug, Clone)]
pub(crate) struct SpanRecord {
    /// Static span name (the argument to [`span`]).
    pub name: &'static str,
    /// Nanoseconds since the process obs epoch when the span opened.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on the opening thread (0 = top-level).
    pub depth: u16,
    /// Name of the thread the span ran on.
    pub thread: String,
    /// Global completion sequence number (monotone).
    pub seq: u64,
}

/// Every metric name emitted by the workspace, in one place.
///
/// Instrumentation sites reference these constants so a rename cannot
/// silently fork the names the server describes, the CI smoke test
/// greps, and OBSERVABILITY.md documents.
pub mod names {
    /// Points pushed through `apply_point` (scatter engine).
    pub const SCATTER_POINTS: &str = "stkde_scatter_points_total";
    /// Non-empty chord rows written by the PB-SYM engine.
    pub const SCATTER_CHORD_ROWS: &str = "stkde_scatter_chord_rows_total";
    /// Voxels actually written by the PB-SYM engine (chord × plane).
    pub const SCATTER_VOXELS_WRITTEN: &str = "stkde_scatter_voxels_written_total";
    /// Voxels in the clipped bounding boxes of scattered points.
    pub const SCATTER_BOX_VOXELS: &str = "stkde_scatter_box_voxels_total";

    /// 8³ bricks materialized by the sparse backend (per run).
    pub const SPARSE_BRICKS_ALLOCATED: &str = "stkde_sparse_bricks_allocated_total";
    /// Brick-row segments written by the sparse scatter loop.
    pub const SPARSE_BRICKS_TOUCHED: &str = "stkde_sparse_bricks_touched_total";
    /// Brick allocations lost to a concurrent CAS winner (duplicate
    /// zero-fill discarded; counts contended slot materializations).
    pub const SPARSE_ALLOC_CAS_RACES: &str = "stkde_sparse_alloc_cas_races_total";

    /// Bytes of dense-grid storage advised `MADV_HUGEPAGE` before their
    /// first touch.
    pub const GRID_HUGEPAGE_ADVISED_BYTES: &str = "stkde_grid_hugepage_advised_bytes_total";
    /// `MADV_HUGEPAGE` calls the host refused, or accepts and ignores
    /// (transparent huge pages set to `never`).
    pub const GRID_HUGEPAGE_REFUSED: &str = "stkde_grid_hugepage_refused_total";

    /// Successful steals, labeled by stealing worker.
    pub const POOL_STEALS: &str = "stkde_pool_steals_total";
    /// Full sweeps that found no work, labeled by worker.
    pub const POOL_STEAL_FAILURES: &str = "stkde_pool_steal_failures_total";
    /// Jobs executed, labeled by worker.
    pub const POOL_TASKS: &str = "stkde_pool_tasks_total";
    /// Times a worker parked on the sleep gate.
    pub const POOL_PARKS: &str = "stkde_pool_parks_total";
    /// Wake broadcasts issued while at least one worker slept.
    pub const POOL_WAKES: &str = "stkde_pool_wakes_total";

    /// Events accepted into the ingest queue.
    pub const INGEST_RECEIVED: &str = "stkde_ingest_events_received_total";
    /// Settled events by `outcome` label: applied / stale / aged_in_batch.
    pub const INGEST_EVENTS: &str = "stkde_ingest_events_total";
    /// Events evicted by window slides.
    pub const INGEST_EVICTIONS: &str = "stkde_ingest_evictions_total";
    /// Write batches applied by the ingest writer.
    pub const INGEST_BATCHES: &str = "stkde_ingest_batches_total";
    /// Those batches written across Y-bands on the rayon pool (the rest
    /// ran inline on the writer thread).
    pub const INGEST_BANDED_BATCHES: &str = "stkde_ingest_banded_batches_total";
    /// Channel sends coalesced into those batches.
    pub const INGEST_COALESCED_SENDS: &str = "stkde_ingest_coalesced_sends_total";
    /// Batch size distribution (events per applied batch).
    pub const INGEST_BATCH_SIZE: &str = "stkde_ingest_batch_size";
    /// Wall time per applied batch.
    pub const INGEST_APPLY_SECONDS: &str = "stkde_ingest_apply_seconds";
    /// Events received but not yet settled (the generation lag).
    pub const INGEST_QUEUE_DEPTH: &str = "stkde_ingest_queue_depth";
    /// Events per channel send in the most recent batch.
    pub const INGEST_LAST_COALESCE_RATIO: &str = "stkde_ingest_last_coalesce_ratio";

    /// Cylinder applications (inserts + evictions) that intersected a
    /// shard's slab, labeled by `shard`.
    pub const SHARD_INGEST_EVENTS: &str = "stkde_shard_ingest_events_total";
    /// Copy-on-write slab publications, labeled by `shard`.
    pub const SHARD_PUBLISHES: &str = "stkde_shard_publishes_total";
    /// A shard's content epoch (generation at last change), by `shard`.
    pub const SHARD_EPOCH: &str = "stkde_shard_epoch";
    /// Time layers owned by a shard's slab, by `shard`.
    pub const SHARD_LAYERS: &str = "stkde_shard_layers";
    /// Live temporal-slab shards in the serve path.
    pub const SHARD_COUNT: &str = "stkde_shard_count";

    /// Cube write generation (one step per evicted event, one per batch that inserts).
    pub const CUBE_GENERATION: &str = "stkde_cube_generation";
    /// Events currently inside the sliding window.
    pub const CUBE_LIVE_EVENTS: &str = "stkde_cube_live_events";
    /// Heap bytes held by the density cube.
    pub const CUBE_BYTES: &str = "stkde_cube_bytes";

    /// HTTP requests by `endpoint`, `method`, `status`.
    pub const HTTP_REQUESTS: &str = "stkde_http_requests_total";
    /// HTTP request latency by `endpoint`.
    pub const HTTP_REQUEST_SECONDS: &str = "stkde_http_request_seconds";

    /// Query-cache hits.
    pub const CACHE_HITS: &str = "stkde_cache_hits_total";
    /// Query-cache misses.
    pub const CACHE_MISSES: &str = "stkde_cache_misses_total";
    /// Query results the cache declined to store.
    pub const CACHE_REFUSED: &str = "stkde_cache_refused_total";
    /// Entries currently cached.
    pub const CACHE_ENTRIES: &str = "stkde_cache_entries";

    /// Wall seconds per slab mip-pyramid build, one sample per slab. (The
    /// `approx` prefix outlived the approximate tiers; the pyramid is the
    /// exact `/region` index, and the names stay for dashboards.)
    pub const APPROX_PYRAMID_BUILD_SECONDS: &str = "stkde_approx_pyramid_build_seconds";
    /// Resident bytes of slab mip pyramids (levels plus slices) in the
    /// published snapshot.
    pub const APPROX_PYRAMID_BYTES: &str = "stkde_approx_pyramid_bytes";

    /// Messages sent, labeled by `rank`.
    pub const COMM_MSGS_SENT: &str = "stkde_comm_msgs_sent_total";
    /// Payload bytes sent, labeled by `rank`.
    pub const COMM_BYTES_SENT: &str = "stkde_comm_bytes_sent_total";
    /// Messages received, labeled by `rank`.
    pub const COMM_MSGS_RECV: &str = "stkde_comm_msgs_recv_total";
    /// Payload bytes received, labeled by `rank`.
    pub const COMM_BYTES_RECV: &str = "stkde_comm_bytes_recv_total";
    /// Barriers participated in, labeled by `rank`.
    pub const COMM_BARRIERS: &str = "stkde_comm_barriers_total";

    /// Rank-local scatter time in the halo exchange.
    pub const HALO_COMPUTE_SECONDS: &str = "stkde_halo_compute_seconds";
    /// Time blocked waiting for neighbor halos.
    pub const HALO_WAIT_SECONDS: &str = "stkde_halo_wait_seconds";

    /// Span durations from the tracing layer, by `span`.
    pub const SPAN_SECONDS: &str = "stkde_span_seconds";
    /// Seconds since the process obs epoch.
    pub const UPTIME_SECONDS: &str = "stkde_uptime_seconds";
}

/// A [`Counter`](crate::Counter) handle for `$name`, cached per call
/// site so the registry lock is paid once.
///
/// Labels, when given, must be constant for the call site — the first
/// resolution is cached. For dynamic labels call
/// [`Registry::counter`](crate::Registry::counter) directly.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, &[])
    };
    ($name:expr, $labels:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().counter($name, $labels))
    }};
}

/// A [`Gauge`](crate::Gauge) handle for `$name`, cached per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {
        $crate::gauge!($name, &[])
    };
    ($name:expr, $labels:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().gauge($name, $labels))
    }};
}

/// A [`Histogram`](crate::Histogram) handle for `$name`, cached per
/// call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {
        $crate::histogram!($name, &[])
    };
    ($name:expr, $labels:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().histogram($name, $labels))
    }};
}
