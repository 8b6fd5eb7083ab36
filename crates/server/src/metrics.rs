//! The serve tier's metric handles and family catalog.
//!
//! [`describe_catalog`] pre-registers every family the workspace
//! emits — including the scatter, steal-pool, and comm families whose
//! instrumentation lives in other crates — so a `/metrics` scrape shows
//! the full catalog with `# HELP`/`# TYPE` lines from the first
//! request, zero-valued until the corresponding path runs.
//!
//! `/stats` and `/metrics` are two renderings of the *same* registry
//! cells (see [`ServerMetrics`]); they cannot drift.

use std::sync::OnceLock;
use stkde_obs::{global, names, Counter, Gauge, Histogram, Kind};

/// Every handle the service records through, resolved once at startup.
/// All handles are `Copy` references into the global registry, so the
/// struct is freely copied into the writer thread.
#[derive(Clone, Copy)]
pub(crate) struct ServerMetrics {
    /// Events accepted by `enqueue`, in every service of the process
    /// (the drain check reads each service's own ledger instead).
    pub received: Counter,
    /// Events rasterized into the cube (`outcome="applied"`).
    pub applied: Counter,
    /// Events dropped behind the window head (`outcome="stale"`).
    pub stale: Counter,
    /// Events that aged out within their own batch
    /// (`outcome="aged_in_batch"`).
    pub aged_in_batch: Counter,
    /// Stored events evicted by window advance.
    pub evicted: Counter,
    /// Coalesced batches applied (one cube write and publish each).
    pub batches: Counter,
    /// Those batches the cube wrote across Y-bands on the rayon pool.
    pub banded_batches: Counter,
    /// Channel sends those batches coalesced.
    pub coalesced_sends: Counter,
    /// Events per applied batch.
    pub batch_size: Histogram,
    /// Wall seconds per applied batch (scatter + publish).
    pub apply_seconds: Histogram,
    /// Events received but not yet settled.
    pub queue_depth: Gauge,
    /// Events per channel send in the most recent batch.
    pub last_coalesce_ratio: Gauge,
    /// Temporal-slab shards in the serve path (fixed at start).
    pub shard_count: Gauge,
    /// Cube write generation.
    pub generation: Gauge,
    /// Events inside the sliding window.
    pub live_events: Gauge,
    /// Heap bytes of the density grid.
    pub cube_bytes: Gauge,
    /// `cached_read` hits.
    pub cache_hits: Counter,
    /// `cached_read` misses.
    pub cache_misses: Counter,
    /// `cached_read` results the cache declined to store.
    pub cache_refused: Counter,
    /// Entries currently in the response cache.
    pub cache_entries: Gauge,
    /// Resident pyramid bytes in the published snapshot.
    pub pyramid_bytes: Gauge,
    /// Seconds since service start.
    pub uptime: Gauge,
}

impl std::fmt::Debug for ServerMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ServerMetrics")
    }
}

impl ServerMetrics {
    /// Resolve all handles (registering the catalog first, so families
    /// carry help text however the service is embedded).
    pub fn new() -> Self {
        describe_catalog();
        let g = global();
        ServerMetrics {
            received: g.counter(names::INGEST_RECEIVED, &[]),
            applied: g.counter(names::INGEST_EVENTS, &[("outcome", "applied")]),
            stale: g.counter(names::INGEST_EVENTS, &[("outcome", "stale")]),
            aged_in_batch: g.counter(names::INGEST_EVENTS, &[("outcome", "aged_in_batch")]),
            evicted: g.counter(names::INGEST_EVICTIONS, &[]),
            batches: g.counter(names::INGEST_BATCHES, &[]),
            banded_batches: g.counter(names::INGEST_BANDED_BATCHES, &[]),
            coalesced_sends: g.counter(names::INGEST_COALESCED_SENDS, &[]),
            batch_size: g.histogram(names::INGEST_BATCH_SIZE, &[]),
            apply_seconds: g.histogram(names::INGEST_APPLY_SECONDS, &[]),
            queue_depth: g.gauge(names::INGEST_QUEUE_DEPTH, &[]),
            last_coalesce_ratio: g.gauge(names::INGEST_LAST_COALESCE_RATIO, &[]),
            shard_count: g.gauge(names::SHARD_COUNT, &[]),
            generation: g.gauge(names::CUBE_GENERATION, &[]),
            live_events: g.gauge(names::CUBE_LIVE_EVENTS, &[]),
            cube_bytes: g.gauge(names::CUBE_BYTES, &[]),
            cache_hits: g.counter(names::CACHE_HITS, &[]),
            cache_misses: g.counter(names::CACHE_MISSES, &[]),
            cache_refused: g.counter(names::CACHE_REFUSED, &[]),
            cache_entries: g.gauge(names::CACHE_ENTRIES, &[]),
            pyramid_bytes: g.gauge(names::APPROX_PYRAMID_BYTES, &[]),
            uptime: g.gauge(names::UPTIME_SECONDS, &[]),
        }
    }
}

/// The per-shard metric handles for one shard index. The slab layout is
/// fixed for a service's lifetime, so the writer resolves one set per
/// shard at start and records through them without the registry lock.
pub(crate) struct ShardMetrics {
    /// Cylinder applications that intersected this shard's slab.
    pub ingest_events: Counter,
    /// Copy-on-write publications of this shard's slab.
    pub publishes: Counter,
    /// Generation at the shard's last content change.
    pub epoch: Gauge,
    /// Time layers the shard owns.
    pub layers: Gauge,
}

/// Resolve the handles for shard `idx`.
pub(crate) fn shard_metrics(idx: usize) -> ShardMetrics {
    let g = global();
    let shard = idx.to_string();
    let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
    ShardMetrics {
        ingest_events: g.counter(names::SHARD_INGEST_EVENTS, labels),
        publishes: g.counter(names::SHARD_PUBLISHES, labels),
        epoch: g.gauge(names::SHARD_EPOCH, labels),
        layers: g.gauge(names::SHARD_LAYERS, labels),
    }
}

/// The served endpoint set, as `/metrics` label values; every other
/// path folds onto the last, `"other"`.
const ENDPOINTS: [&str; 10] = [
    "/healthz",
    "/stats",
    "/metrics",
    "/trace",
    "/density",
    "/region",
    "/slice",
    "/events",
    "/shutdown",
    "other",
];
/// `method` label values; anything but `GET`/`POST` is `"other"`.
const METHODS: [&str; 3] = ["GET", "POST", "other"];
/// `status` label values: the class of the status code.
const STATUS_CLASSES: [&str; 4] = ["2xx", "4xx", "5xx", "other"];

/// Record one HTTP request into the global registry. `path` is folded
/// onto the known endpoint set (unknown → `"other"`) and `status` onto
/// its class, keeping label cardinality bounded no matter what clients
/// send.
///
/// The bound also lets every handle be resolved once: each endpoint's
/// histogram and each (endpoint, method, status) counter is looked up in
/// the registry on its first request and cached, so a series appears in
/// `/metrics` on first use, as before, and every later request records
/// without the registry mutex or an allocation.
pub(crate) fn record_http(method: &str, path: &str, status: u16, seconds: f64) {
    static SECONDS: [OnceLock<Histogram>; ENDPOINTS.len()] =
        [const { OnceLock::new() }; ENDPOINTS.len()];
    const COUNTERS: usize = ENDPOINTS.len() * METHODS.len() * STATUS_CLASSES.len();
    static REQUESTS: [OnceLock<Counter>; COUNTERS] = [const { OnceLock::new() }; COUNTERS];

    let e = ENDPOINTS[..ENDPOINTS.len() - 1]
        .iter()
        .position(|&known| known == path)
        .unwrap_or(ENDPOINTS.len() - 1);
    let m = match method {
        "GET" => 0,
        "POST" => 1,
        _ => 2,
    };
    let s = match status {
        200..=299 => 0,
        400..=499 => 1,
        500..=599 => 2,
        _ => 3,
    };
    let endpoint = ENDPOINTS[e];
    SECONDS[e]
        .get_or_init(|| global().histogram(names::HTTP_REQUEST_SECONDS, &[("endpoint", endpoint)]))
        .observe(seconds);
    REQUESTS[(e * METHODS.len() + m) * STATUS_CLASSES.len() + s]
        .get_or_init(|| {
            global().counter(
                names::HTTP_REQUESTS,
                &[
                    ("endpoint", endpoint),
                    ("method", METHODS[m]),
                    ("status", STATUS_CLASSES[s]),
                ],
            )
        })
        .inc();
}

/// Pre-register every metric family the workspace emits (idempotent).
pub(crate) fn describe_catalog() {
    let g = global();
    let c = Kind::Counter;
    let ga = Kind::Gauge;
    let h = Kind::Histogram;
    for (name, kind, help) in [
        (
            names::SCATTER_POINTS,
            c,
            "Points pushed through the kernel_apply scatter engine.",
        ),
        (
            names::SCATTER_CHORD_ROWS,
            c,
            "Non-empty chord rows written by the PB-SYM engine.",
        ),
        (
            names::SCATTER_VOXELS_WRITTEN,
            c,
            "Voxels written by the PB-SYM engine (chord length x nonzero planes).",
        ),
        (
            names::SCATTER_BOX_VOXELS,
            c,
            "Voxels in the clipped bounding boxes of scattered points; 1 - written/box is the skipped-zero fraction.",
        ),
        (
            names::SPARSE_BRICKS_ALLOCATED,
            c,
            "8^3 bricks materialized by the sparse scatter backend.",
        ),
        (
            names::SPARSE_BRICKS_TOUCHED,
            c,
            "Brick-row segments written by the sparse scatter loop.",
        ),
        (
            names::SPARSE_ALLOC_CAS_RACES,
            c,
            "Brick allocations lost to a concurrent CAS winner (duplicate zero-fill discarded).",
        ),
        (
            names::GRID_HUGEPAGE_ADVISED_BYTES,
            c,
            "Bytes of dense-grid storage advised MADV_HUGEPAGE before first touch.",
        ),
        (
            names::GRID_HUGEPAGE_REFUSED,
            c,
            "MADV_HUGEPAGE calls the host refused or ignores (THP mode never): first touch then faults per 4 KiB.",
        ),
        (names::POOL_STEALS, c, "Successful deque steals by worker."),
        (
            names::POOL_STEAL_FAILURES,
            c,
            "Full steal sweeps that found no work, by worker.",
        ),
        (names::POOL_TASKS, c, "Jobs executed by worker."),
        (names::POOL_PARKS, c, "Workers parked on the sleep gate."),
        (
            names::POOL_WAKES,
            c,
            "Wake broadcasts issued while at least one worker slept.",
        ),
        (
            names::INGEST_RECEIVED,
            c,
            "Events accepted into the ingest queue.",
        ),
        (
            names::INGEST_EVENTS,
            c,
            "Settled ingest events by outcome (applied / stale / aged_in_batch).",
        ),
        (
            names::INGEST_EVICTIONS,
            c,
            "Stored events evicted by window advance.",
        ),
        (
            names::INGEST_BATCHES,
            c,
            "Coalesced write batches applied (one cube write and publish each).",
        ),
        (
            names::INGEST_BANDED_BATCHES,
            c,
            "Applied batches written across Y-bands on the rayon pool; the rest ran inline on the writer thread.",
        ),
        (
            names::INGEST_COALESCED_SENDS,
            c,
            "Channel sends coalesced into applied batches.",
        ),
        (names::INGEST_BATCH_SIZE, h, "Events per applied batch."),
        (
            names::INGEST_APPLY_SECONDS,
            h,
            "Wall seconds per applied batch (scatter + publish).",
        ),
        (
            names::INGEST_QUEUE_DEPTH,
            ga,
            "Events received but not yet settled (ingest generation lag).",
        ),
        (
            names::INGEST_LAST_COALESCE_RATIO,
            ga,
            "Events per channel send in the most recent batch.",
        ),
        (
            names::SHARD_INGEST_EVENTS,
            c,
            "Cylinder applications (inserts + evictions) intersecting a shard's slab, by shard.",
        ),
        (
            names::SHARD_PUBLISHES,
            c,
            "Copy-on-write slab publications, by shard.",
        ),
        (
            names::SHARD_EPOCH,
            ga,
            "Shard content epoch (cube generation at last change), by shard.",
        ),
        (
            names::SHARD_LAYERS,
            ga,
            "Time layers owned by a shard's slab, by shard.",
        ),
        (
            names::SHARD_COUNT,
            ga,
            "Temporal-slab shards in the serve path, fixed at start.",
        ),
        (names::CUBE_GENERATION, ga, "Cube write generation."),
        (
            names::CUBE_LIVE_EVENTS,
            ga,
            "Events inside the sliding window.",
        ),
        (names::CUBE_BYTES, ga, "Heap bytes of the density grid."),
        (
            names::HTTP_REQUESTS,
            c,
            "HTTP requests by endpoint, method, and status class.",
        ),
        (
            names::HTTP_REQUEST_SECONDS,
            h,
            "HTTP request latency by endpoint.",
        ),
        (names::CACHE_HITS, c, "Query-cache hits."),
        (names::CACHE_MISSES, c, "Query-cache misses."),
        (
            names::CACHE_REFUSED,
            c,
            "Query results not stored: a new query's first miss in a full cache.",
        ),
        (names::CACHE_ENTRIES, ga, "Entries in the query cache."),
        (
            names::APPROX_PYRAMID_BUILD_SECONDS,
            h,
            "Wall seconds per slab mip-pyramid (re)build, one sample per slab; pyramids index the exact /region walk.",
        ),
        (
            names::APPROX_PYRAMID_BYTES,
            ga,
            "Resident mip-pyramid bytes (levels plus slices) in the published snapshot, updated by /region reads.",
        ),
        (names::COMM_MSGS_SENT, c, "Messages sent by rank."),
        (names::COMM_BYTES_SENT, c, "Payload bytes sent by rank."),
        (names::COMM_MSGS_RECV, c, "Messages received by rank."),
        (names::COMM_BYTES_RECV, c, "Payload bytes received by rank."),
        (names::COMM_BARRIERS, c, "Barriers participated in, by rank."),
        (
            names::HALO_COMPUTE_SECONDS,
            h,
            "Rank-local scatter seconds in the halo exchange.",
        ),
        (
            names::HALO_WAIT_SECONDS,
            h,
            "Seconds blocked waiting for neighbor halos.",
        ),
        (names::SPAN_SECONDS, h, "Span durations by span name."),
        (names::UPTIME_SECONDS, ga, "Seconds since service start."),
    ] {
        g.describe(name, kind, help);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_renders_every_family_with_type_lines() {
        describe_catalog();
        let text = global().render();
        for name in [
            names::SCATTER_POINTS,
            names::SPARSE_BRICKS_ALLOCATED,
            names::SPARSE_ALLOC_CAS_RACES,
            names::GRID_HUGEPAGE_REFUSED,
            names::POOL_STEALS,
            names::INGEST_EVENTS,
            names::INGEST_BANDED_BATCHES,
            names::HTTP_REQUEST_SECONDS,
            names::CACHE_HITS,
            names::COMM_BYTES_SENT,
        ] {
            assert!(text.contains(&format!("# TYPE {name} ")), "{name} missing");
        }
    }

    /// The value of the sample `series` (name and label set) in `text`.
    fn sample(text: &str, series: &str) -> Option<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
    }

    #[test]
    fn http_recording_bounds_label_cardinality() {
        // Nothing else in this test binary records HTTP requests, so every
        // series below starts from zero.
        record_http("DELETE", "/nope/../../etc", 999, 0.001);
        record_http("PUT", "/healthz/", 101, 0.001);
        record_http("GET", "/healthz", 204, 0.001);
        // A retired endpoint is just another unknown path.
        record_http("POST", "/reshard", 404, 0.001);
        // N requests from four threads, racing each handle's first
        // resolution: the cached handles must lose none of them.
        const N: usize = 100;
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..N / 4 {
                        record_http("POST", "/events", [200, 202, 204][(i + t) % 3], 0.001);
                    }
                });
            }
        });
        // One more on the same endpoint and method, another status class:
        // its own series, the same histogram.
        record_http("POST", "/events", 404, 0.001);
        let text = global().render();
        let requests =
            |labels: &str| sample(&text, &format!("{}{{{labels}}}", names::HTTP_REQUESTS));
        assert_eq!(
            requests(r#"endpoint="/events",method="POST",status="2xx""#),
            Some(N as u64)
        );
        assert_eq!(
            requests(r#"endpoint="/events",method="POST",status="4xx""#),
            Some(1)
        );
        assert_eq!(
            sample(
                &text,
                &format!(
                    "{}_count{{endpoint=\"/events\"}}",
                    names::HTTP_REQUEST_SECONDS
                )
            ),
            Some(N as u64 + 1)
        );
        // Unknown paths, methods and statuses fold onto `other`.
        assert_eq!(
            requests(r#"endpoint="other",method="other",status="other""#),
            Some(2)
        );
        assert_eq!(
            requests(r#"endpoint="other",method="POST",status="4xx""#),
            Some(1)
        );
        assert_eq!(
            requests(r#"endpoint="/healthz",method="GET",status="2xx""#),
            Some(1)
        );
        // A combination never recorded has no series at all.
        for absent in [
            r#"endpoint="/events",method="GET""#,
            r#"endpoint="/events",method="POST",status="5xx""#,
            r#"endpoint="/reshard""#,
            r#"endpoint="/trace""#,
        ] {
            assert!(!text.contains(absent), "{absent} rendered");
        }
        // Every rendered label set lies inside the bounded cross product.
        let prefix = format!("{}{{", names::HTTP_REQUESTS);
        for line in text.lines().filter_map(|l| l.strip_prefix(&prefix)) {
            let labels = line.split_once('}').unwrap().0;
            let values: Vec<&str> = labels
                .split(',')
                .map(|kv| kv.split_once('=').unwrap().1.trim_matches('"'))
                .collect();
            assert!(ENDPOINTS.contains(&values[0]), "{line}");
            assert!(METHODS.contains(&values[1]), "{line}");
            assert!(STATUS_CLASSES.contains(&values[2]), "{line}");
        }
    }
}
