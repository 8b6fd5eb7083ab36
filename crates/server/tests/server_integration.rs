//! End-to-end tests of the serve path: every endpoint's JSON must agree
//! with direct `Grid3` reads of a batch recomputation over the same
//! points, and the service must stay consistent under concurrent
//! readers while ingest is running.

use std::sync::{Arc, Mutex, MutexGuard};
use stkde_core::testkit;
use stkde_core::Problem;
use stkde_data::{synth, Point};
use stkde_grid::{stats, Bandwidth, Domain, Grid3, GridDims, VoxelRange};
use stkde_kernels::Epanechnikov;
use stkde_server::json::Json;
use stkde_server::{Client, ServiceConfig, StkdeServer};

/// The obs registry is process-global, so ingest counters accumulate
/// across every server this binary starts. Tests serialize here and
/// assert on deltas, so concurrent ingest can't skew the numbers.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats.get(key).unwrap().as_u64().unwrap()
}

fn domain() -> Domain {
    Domain::from_dims(GridDims::new(24, 20, 16))
}

fn bandwidth() -> Bandwidth {
    Bandwidth::new(3.0, 2.0)
}

/// A time-sorted synthetic stream inside the domain.
fn stream(n: usize, seed: u64) -> Vec<Point> {
    let mut points = synth::uniform(n, domain().extent(), seed).into_vec();
    points.sort_by(|a, b| a.t.total_cmp(&b.t));
    points
}

/// Batch `PB-SYM` over `points` — the gold standard the server must match.
fn batch_reference(points: &[Point]) -> Grid3<f64> {
    let problem = Problem::new(domain(), bandwidth(), points.len());
    testkit::pb_sym::<f64, _>(&problem, &Epanechnikov, points).0
}

fn start_server(window: f64) -> StkdeServer {
    let config = ServiceConfig::new(domain(), bandwidth(), window);
    StkdeServer::start("127.0.0.1:0", 4, config).expect("bind ephemeral port")
}

fn post_events(client: &Client, chunk: &[Point]) {
    let events = Json::Arr(
        chunk
            .iter()
            .map(|p| {
                Json::obj([
                    ("x", Json::from(p.x)),
                    ("y", Json::from(p.y)),
                    ("t", Json::from(p.t)),
                ])
            })
            .collect(),
    );
    let (status, body) = client
        .post_json("/events", &Json::obj([("events", events)]))
        .expect("POST /events");
    assert_eq!(status, 202, "body: {}", body.encode());
    assert_eq!(
        body.get("accepted").unwrap().as_u64(),
        Some(chunk.len() as u64)
    );
}

#[test]
fn every_endpoint_agrees_with_direct_grid_reads() {
    let _serial = serial();
    // Window longer than the stream: every event survives, so the batch
    // recomputation over all points is the exact reference.
    let server = start_server(1e6);
    let client = Client::new(server.addr());
    let before = client.get("/stats").unwrap().1;
    let points = stream(60, 71);
    for chunk in points.chunks(17) {
        post_events(&client, chunk);
    }
    server.service().wait_drained();
    let reference = batch_reference(&points);

    // /healthz
    let (status, health) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    // /stats: everything applied, nothing dropped.
    let (status, s) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        stat_u64(&s, "events_applied") - stat_u64(&before, "events_applied"),
        60
    );
    assert_eq!(
        stat_u64(&s, "events_stale"),
        stat_u64(&before, "events_stale")
    );
    assert_eq!(s.get("live_events").unwrap().as_u64(), Some(60));
    assert_eq!(s.get("ingest_queue_depth").unwrap().as_f64(), Some(0.0));
    assert!(
        s.get("last_batch_coalesce_ratio")
            .unwrap()
            .as_f64()
            .unwrap()
            >= 1.0
    );

    // /density at every voxel of a probe set: the hottest voxels plus
    // corners.
    let mut probes: Vec<(usize, usize, usize)> = stats::top_k(&reference, 5)
        .into_iter()
        .map(|(c, _)| c)
        .collect();
    probes.extend([(0, 0, 0), (23, 19, 15), (12, 10, 8)]);
    for (x, y, t) in probes {
        let (status, d) = client.get(&format!("/density?x={x}&y={y}&t={t}")).unwrap();
        assert_eq!(status, 200);
        let got = d.get("density").unwrap().as_f64().unwrap();
        let want = reference.get(x, y, t);
        assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "voxel ({x},{y},{t}): server {got} vs batch {want}"
        );
    }

    // /region: sub-boxes and the default full grid must match
    // `range_stats` on the reference cube.
    let boxes = [
        ("", VoxelRange::full(domain().dims())),
        (
            "?x0=2&x1=14&y0=1&y1=11&t0=3&t1=9",
            VoxelRange {
                x0: 2,
                x1: 14,
                y0: 1,
                y1: 11,
                t0: 3,
                t1: 9,
            },
        ),
        (
            "?x0=20&t1=4",
            VoxelRange {
                x0: 20,
                x1: 24,
                y0: 0,
                y1: 20,
                t0: 0,
                t1: 4,
            },
        ),
    ];
    for (query, r) in boxes {
        let (status, body) = client.get(&format!("/region{query}")).unwrap();
        assert_eq!(status, 200);
        let want = stats::range_stats(&reference, r);
        let got_sum = body.get("sum").unwrap().as_f64().unwrap();
        let got_max = body.get("max").unwrap().as_f64().unwrap();
        assert!(
            (got_sum - want.sum).abs() <= 1e-9 * want.sum.abs().max(1.0),
            "region {query}: sum {got_sum} vs {}",
            want.sum
        );
        assert!((got_max - want.max).abs() <= 1e-9 * want.max.abs().max(1.0));
        assert_eq!(
            body.get("nonzero").unwrap().as_u64(),
            Some(want.nonzero as u64)
        );
        assert_eq!(
            body.get("voxels").unwrap().as_u64(),
            Some(want.total as u64)
        );
    }

    // /slice: a full time plane equals the reference's plane.
    let t = 8;
    let (status, body) = client.get(&format!("/slice?t={t}")).unwrap();
    assert_eq!(status, 200);
    let values = body.get("values").unwrap().as_array().unwrap();
    let plane = reference.time_slice(t);
    assert_eq!(values.len(), plane.len());
    for (i, (got, &want)) in values.iter().zip(plane).enumerate() {
        let got = got.as_f64().unwrap();
        assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "slice voxel {i}: {got} vs {want}"
        );
    }

    // A second identical region read must be served from the cache.
    let before = client.get("/stats").unwrap().1;
    let _ = client
        .get("/region?x0=2&x1=14&y0=1&y1=11&t0=3&t1=9")
        .unwrap();
    let after = client.get("/stats").unwrap().1;
    assert!(
        after.get("cache_hits").unwrap().as_u64() > before.get("cache_hits").unwrap().as_u64(),
        "repeated region query should hit the LRU"
    );

    server.shutdown();
}

#[test]
fn windowed_serving_matches_batch_over_survivors() {
    let _serial = serial();
    // Short window: the server evicts; the reference is a batch over the
    // surviving suffix only.
    let window = 4.0;
    let server = start_server(window);
    let client = Client::new(server.addr());
    let points = stream(80, 72);
    for chunk in points.chunks(13) {
        post_events(&client, chunk);
    }
    server.service().wait_drained();

    let newest = points.last().unwrap().t;
    let survivors: Vec<Point> = points
        .iter()
        .filter(|p| p.t >= newest - window)
        .copied()
        .collect();
    let reference = batch_reference(&survivors);

    let (_, s) = client.get("/stats").unwrap();
    assert_eq!(
        s.get("live_events").unwrap().as_u64(),
        Some(survivors.len() as u64)
    );

    for ((x, y, t), want) in stats::top_k(&reference, 4) {
        let (status, d) = client.get(&format!("/density?x={x}&y={y}&t={t}")).unwrap();
        assert_eq!(status, 200);
        let got = d.get("density").unwrap().as_f64().unwrap();
        assert!(
            (got - want).abs() <= 1e-8 * want.abs().max(1.0),
            "voxel ({x},{y},{t}): server {got} vs batch-over-survivors {want}"
        );
    }
    server.shutdown();
}

/// A response body with the digits of its `"generation":N` field masked:
/// the one field two services holding the same events may disagree on.
fn mask_generation(body: &str) -> String {
    let at = body
        .find("\"generation\":")
        .expect("body carries a generation")
        + 13;
    let digits = body[at..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("generation is followed by more JSON");
    format!("{}_{}", &body[..at], &body[at + digits..])
}

#[test]
fn an_evicting_daemon_serves_what_a_fresh_one_would() {
    let _serial = serial();
    let window = 3.0;
    let start = || {
        let config = ServiceConfig::new(domain(), bandwidth(), window);
        StkdeServer::start("127.0.0.1:0", 2, config).expect("bind ephemeral port")
    };
    // Several drained, time-ordered batches: events are evicted between
    // batches, not skipped inside one.
    let churned = start();
    let points = stream(150, 76);
    for chunk in points.chunks(10) {
        churned.service().enqueue(chunk.to_vec()).unwrap();
        churned.service().wait_drained();
    }
    // The survivors of a drained, time-ordered feed: every event within
    // the window of the newest one.
    let newest = points.last().unwrap().t;
    let live: Vec<Point> = points
        .iter()
        .filter(|p| p.t >= newest - window)
        .copied()
        .collect();
    assert!(live.len() < points.len() / 2, "the stream must evict");
    assert_eq!(churned.service().snapshot().len(), live.len());
    let fresh = start();
    fresh.service().enqueue(live.clone()).unwrap();
    fresh.service().wait_drained();
    assert_eq!(fresh.service().snapshot().len(), live.len());

    let (a, b) = (Client::new(churned.addr()), Client::new(fresh.addr()));
    let body = |c: &Client, path: &str| {
        let (status, text) = c.get_text(path).unwrap();
        assert_eq!(status, 200, "{path}: {text}");
        mask_generation(&text)
    };
    // sum, max, min and nonzero over the full grid, and every plane.
    assert_eq!(body(&a, "/region"), body(&b, "/region"));
    for t in 0..domain().dims().gt {
        let path = format!("/slice?t={t}");
        assert_eq!(body(&a, &path), body(&b, &path), "{path}");
    }
    let (_, s) = a.get("/stats").unwrap();
    // Exactness is not a state: /stats has no flag for it.
    assert!(s.get("exact").is_none());

    // Layer k is reached by an event at t only if |k + 0.5 − t| < ht, so
    // the layers below `oldest − ht − 0.5` hold no live cylinder.
    let oldest = live.first().unwrap().t;
    let t1 = (oldest - bandwidth().ht - 0.5).floor() as usize;
    assert!(t1 >= 4, "the evicted layers must be a real box");
    let (status, r) = a.get(&format!("/region?t0=0&t1={t1}")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(r.get("nonzero").unwrap().as_u64(), Some(0));
    assert_eq!(r.get("max").unwrap().as_f64(), Some(0.0));
    assert_eq!(r.get("min").unwrap().as_f64(), Some(0.0));
    churned.shutdown();
    fresh.shutdown();
}

#[test]
fn concurrent_readers_during_ingest_see_monotone_generations() {
    let _serial = serial();
    let server = start_server(1e6);
    let addr = server.addr();
    let points = stream(120, 73);
    let total = points.len();
    let before = Client::new(addr).get("/stats").unwrap().1;

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let client = Client::new(addr);
                let mut last_generation = 0u64;
                let mut reads = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let path = match reads % 3 {
                        0 => "/density?x=12&y=10&t=8".to_string(),
                        1 => format!("/region?x0={}&x1=20", r % 4),
                        _ => "/stats".to_string(),
                    };
                    let (status, body) = client.get(&path).expect("read during ingest");
                    assert_eq!(status, 200, "reader {r} got {}", body.encode());
                    let generation = body.get("generation").unwrap().as_u64().unwrap();
                    assert!(
                        generation >= last_generation,
                        "reader {r}: generation went backwards ({generation} < {last_generation})"
                    );
                    last_generation = generation;
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    let ingest_client = Client::new(addr);
    for chunk in points.chunks(5) {
        post_events(&ingest_client, chunk);
    }
    server.service().wait_drained();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for (r, handle) in readers.into_iter().enumerate() {
        let reads = handle.join().expect("reader panicked");
        assert!(reads > 0, "reader {r} never completed a read");
    }

    let (_, s) = ingest_client.get("/stats").unwrap();
    assert_eq!(
        stat_u64(&s, "events_applied") - stat_u64(&before, "events_applied"),
        total as u64
    );
    // Shutdown with no readers left must not deadlock.
    server.shutdown();
}

#[test]
fn per_shard_counters_advance_by_delta_and_reads_match_batch_pb_sym() {
    let _serial = serial();
    let server = start_server(1e6);
    let client = Client::new(server.addr());

    // Per-shard ingest ops as a map keyed by shard label. Absolute
    // values are meaningless (the registry is process-global and shared
    // with every other server this binary started), so all assertions
    // below are on deltas.
    let shard_ops = || -> Vec<(String, f64)> {
        let (_, text) = client.get_text("/metrics").unwrap();
        stkde_obs::scrape::parse_text(&text)
            .into_iter()
            .filter(|s| s.name == "stkde_shard_ingest_events_total")
            .map(|s| (s.label("shard").unwrap_or("").to_string(), s.value))
            .collect()
    };
    let before = shard_ops();
    let points = stream(50, 75);
    post_events(&client, &points);
    server.service().wait_drained();
    let after = shard_ops();

    let delta: f64 = after
        .iter()
        .map(|(label, v)| {
            let prev = before
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            v - prev
        })
        .sum();
    // Every event intersects its owner shard at least; with ht=2 most
    // straddle a slab boundary too, so the fan-out total exceeds the
    // event count.
    assert!(
        delta >= 50.0,
        "per-shard ingest ops rose by {delta}, want >= 50"
    );

    // The hottest voxel reads what batch PB-SYM computes for it.
    let reference = batch_reference(&points);
    let ((x, y, t), want) = stats::top_k(&reference, 1)[0];
    let (status, d) = client.get(&format!("/density?x={x}&y={y}&t={t}")).unwrap();
    assert_eq!(status, 200);
    let got = d.get("density").unwrap().as_f64().unwrap();
    assert!(
        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
        "density {got} vs reference {want}"
    );
    server.shutdown();
}

#[test]
fn metrics_endpoint_covers_every_family_on_the_live_daemon() {
    let _serial = serial();
    let server = start_server(1e6);
    let client = Client::new(server.addr());
    let points = stream(40, 74);
    post_events(&client, &points);
    server.service().wait_drained();
    // A cached read so the cache family has traffic.
    let _ = client.get("/region").unwrap();
    let _ = client.get("/region").unwrap();

    let (status, text) = client.get_text("/metrics").unwrap();
    assert_eq!(status, 200);
    let samples = stkde_obs::scrape::parse_text(&text);
    let value_of = |name: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };

    // Ingest, query-latency, cache, scatter, steal-pool, and comm
    // families must all be present; the ones this test drove must be
    // nonzero. (Counters are process-global, so "nonzero" is the
    // strongest safe assertion; exact values belong to /stats deltas.)
    assert!(value_of("stkde_ingest_events_received_total") >= 40.0);
    assert!(value_of("stkde_ingest_events_total") >= 40.0);
    assert!(value_of("stkde_ingest_batches_total") >= 1.0);
    assert!(value_of("stkde_http_request_seconds_count") >= 1.0);
    assert!(value_of("stkde_cache_hits_total") >= 1.0);
    assert!(value_of("stkde_cache_misses_total") >= 1.0);
    assert!(value_of("stkde_cube_bytes") > 0.0);
    // The serve path is sharded: the shard families must be live, with
    // one series per shard label and the configured shard count.
    let shards = ServiceConfig::new(domain(), bandwidth(), 1e6).shards;
    assert_eq!(value_of("stkde_shard_count"), shards as f64);
    assert!(value_of("stkde_shard_ingest_events_total") >= 40.0);
    assert!(value_of("stkde_shard_publishes_total") >= shards as f64);
    // Only this service's shard labels: leftover gauges from other
    // servers in the same (registry-sharing) binary don't count.
    let layer_sum: f64 = samples
        .iter()
        .filter(|s| {
            s.name == "stkde_shard_layers"
                && s.label("shard")
                    .and_then(|l| l.parse::<usize>().ok())
                    .is_some_and(|i| i < shards)
        })
        .map(|s| s.value)
        .sum();
    assert_eq!(layer_sum, domain().dims().gt as f64, "slabs partition T");
    for shard in 0..shards {
        let label = shard.to_string();
        assert!(
            samples
                .iter()
                .any(|s| s.name == "stkde_shard_epoch" && s.label("shard") == Some(&label)),
            "missing epoch gauge for shard {shard}"
        );
    }
    // The ingest path scatters through kernel_apply, so the scatter
    // family has real traffic too.
    assert!(value_of("stkde_scatter_points_total") >= 40.0);
    assert!(value_of("stkde_scatter_voxels_written_total") > 0.0);
    // Families whose code paths this test does not drive still render
    // (zero-valued) thanks to the described catalog.
    for family in [
        "stkde_pool_steals_total",
        "stkde_comm_bytes_sent_total",
        "stkde_halo_wait_seconds",
        "stkde_ingest_apply_seconds",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "family {family} missing from /metrics"
        );
    }

    // The trace ring saw the ingest batches.
    let (status, trace) = client.get_text("/trace").unwrap();
    assert_eq!(status, 200);
    assert!(trace.contains("ingest_batch"), "trace: {trace}");

    // /stats and /metrics read the same cells: received must agree when
    // the system is quiescent and this test holds the serial lock.
    let (_, s) = client.get("/stats").unwrap();
    let (_, text2) = client.get_text("/metrics").unwrap();
    let received = stkde_obs::scrape::parse_text(&text2)
        .into_iter()
        .find(|smp| smp.name == "stkde_ingest_events_received_total")
        .unwrap()
        .value;
    assert_eq!(stat_u64(&s, "events_received"), received as u64);

    server.shutdown();
}
