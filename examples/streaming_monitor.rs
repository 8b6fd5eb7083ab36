//! Streaming surveillance over the wire: run the density *server*
//! in-process, replay a year of synthetic dengue reports through
//! `POST /events`, and watch the live "last 30 days" cube through the
//! query endpoints — the same ingest-then-query split a deployed
//! `stkde-serve` daemon exposes.
//!
//! The paper's motivation is near real-time monitoring of infectious
//! disease; a surveillance system does not recompute the cube from
//! scratch per case report — the server folds each report in
//! (`Θ(Hs²·Ht)` per event, batches coalesced into one cube write) and
//! evicts reports that age out of the window, while
//! dashboards poll `/slice` and `/density` concurrently.
//!
//! ```sh
//! cargo run --release --example streaming_monitor
//! ```

use stkde::prelude::*;
use stkde_server::json::Json;
use stkde_server::{Client, ServiceConfig, StkdeServer};

/// JSON for one `POST /events` batch.
fn events_body(chunk: &[Point]) -> Json {
    Json::obj([(
        "events",
        Json::Arr(
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
        ),
    )])
}

fn main() {
    // A 8 km × 8 km city over 365 days, 200 m / 1 day resolution.
    let extent = Extent::new([0.0, 0.0, 0.0], [8_000.0, 8_000.0, 365.0]);
    let domain = Domain::from_extent(extent, Resolution::new(200.0, 1.0));
    let bw = Bandwidth::new(800.0, 7.0);
    let window_days = 30.0;

    // The server owns the sliding-window cube; this process is only a
    // client from here on.
    let config = ServiceConfig::new(domain, bw, window_days);
    let server = StkdeServer::start("127.0.0.1:0", 4, config).expect("bind ephemeral port");
    let client = Client::new(server.addr());
    println!("density server listening on {}", server.addr());

    // A year of synthetic dengue reports, replayed in time order.
    let mut feed = DatasetKind::Dengue.generate(20_000, extent, 11).into_vec();
    feed.sort_by(|a, b| a.t.total_cmp(&b.t));
    println!(
        "feed: {} events over {:.0} days; window: {window_days} days\n",
        feed.len(),
        extent.size(2)
    );

    let start = std::time::Instant::now();
    let mut sent = 0usize;
    let mut next_report = 60.0; // print a status line every 60 days
    for chunk in feed.chunks(512) {
        let (status, _) = client
            .post_json("/events", &events_body(chunk))
            .expect("POST /events");
        assert_eq!(status, 202);
        sent += chunk.len();

        let day = chunk.last().expect("non-empty chunk").t;
        if day >= next_report {
            next_report += 60.0;
            // Wait for the writer to drain (the wire way: poll /stats).
            let stats = loop {
                let (_, stats) = client.get("/stats").expect("GET /stats");
                let settled = stats.get("events_applied").unwrap().as_u64().unwrap()
                    + stats.get("events_stale").unwrap().as_u64().unwrap()
                    + stats.get("events_aged_in_batch").unwrap().as_u64().unwrap();
                if settled == sent as u64 {
                    break stats;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            };
            // Hotspot of the freshest time plane, via GET /slice.
            let t = (day as usize).min(domain.dims().gt - 1);
            let (_, slice) = client.get(&format!("/slice?t={t}")).expect("GET /slice");
            let values = slice.get("values").unwrap().as_array().unwrap();
            let gx = domain.dims().gx;
            let (i, peak) = values
                .iter()
                .enumerate()
                .map(|(i, v)| (i, v.as_f64().unwrap()))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty slice");
            println!(
                "day {day:>5.0}: {:>5} live events, hotspot at ({:>4.0} m, {:>4.0} m) (f̂ = {peak:.3e})",
                stats.get("live_events").unwrap().as_u64().unwrap(),
                (i % gx) as f64 * 200.0,
                (i / gx) as f64 * 200.0,
            );
        }
    }
    let elapsed = start.elapsed();
    println!(
        "\nstreamed {sent} events over HTTP in {elapsed:.2?} — {:.0} events/s sustained",
        sent as f64 / elapsed.as_secs_f64()
    );

    // Verify the wire path end to end: server voxel reads must match a
    // batch PB-SYM recomputation over the surviving events. The feed is
    // time-ordered, so those are the reports within the window of the
    // newest one.
    server.service().wait_drained();
    let newest = feed.last().expect("non-empty feed").t;
    let survivors: Vec<Point> = feed
        .iter()
        .filter(|p| p.t >= newest - window_days)
        .copied()
        .collect();
    let (_, stats) = client.get("/stats").expect("GET /stats");
    let live = stats.get("live_events").unwrap().as_u64().unwrap();
    assert_eq!(
        live,
        survivors.len() as u64,
        "the window holds the survivors"
    );
    println!("window now holds {live} events");
    let reference = Stkde::new(domain, bw)
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&PointSet::from_vec(survivors))
        .expect("batch recomputation")
        .grid;
    let mut worst: f64 = 0.0;
    for &((x, y, t), want) in stkde::grid::stats::top_k(&reference, 8).iter() {
        let (_, d) = client
            .get(&format!("/density?x={x}&y={y}&t={t}"))
            .expect("GET /density");
        let got = d.get("density").unwrap().as_f64().unwrap();
        worst = worst.max((got - want).abs() / want.abs().max(1e-300));
    }
    println!("server vs batch recomputation, top-8 hotspots: max rel diff = {worst:.2e}");
    assert!(worst < 1e-6, "serve path diverges from batch recomputation");

    let (_, stats) = client.get("/stats").expect("GET /stats");
    println!(
        "ingest batches: {} (coalesced from {} POSTs), cache hits: {}, generation: {}",
        stats.get("ingest_batches").unwrap().as_u64().unwrap(),
        feed.len().div_ceil(512),
        stats.get("cache_hits").unwrap().as_u64().unwrap(),
        stats.get("generation").unwrap().as_u64().unwrap(),
    );

    // Graceful stop, over the wire like any operator would.
    let (status, _) = client
        .post_json("/shutdown", &Json::Null)
        .expect("POST /shutdown");
    assert_eq!(status, 200);
    server.shutdown();
    println!("server drained and stopped");
}
