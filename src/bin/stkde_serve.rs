//! `stkde-serve` — the long-running STKDE density daemon.
//!
//! ```sh
//! # Serve a 64×64×32 cube with a 32-time-unit sliding window:
//! stkde-serve --dims 64x64x32 --hs 6 --ht 4 --window 32 --port 7171
//!
//! # Ingest and query over HTTP:
//! curl -X POST localhost:7171/events -d '{"x":31.5,"y":30.2,"t":4.0}'
//! curl 'localhost:7171/density?x=31&y=30&t=4'
//!
//! # Probe a running daemon (used by CI), then stop it:
//! stkde-serve check 127.0.0.1:7171 --shutdown
//!
//! # Watch ingest/query rates of a running daemon (scrapes /metrics):
//! stkde-serve top 127.0.0.1:7171 --interval 2
//! ```

use std::process::ExitCode;
use std::time::Duration;
use stkde_obs::scrape::{self, Sample};
use stkde_server::json::Json;
use stkde_server::{Client, ServerConfig, StkdeServer, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(())
        }
        Some("check") => cmd_check(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        _ => cmd_serve(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let config = ServerConfig::parse(args)?;
    let dims = config.dims;
    let server = StkdeServer::start(
        config.bind_addr().as_str(),
        config.threads,
        config.service_config(),
    )
    .map_err(|e| format!("cannot bind {}: {e}", config.bind_addr()))?;

    // CI and scripts parse this line to find an ephemeral port.
    println!("stkde-serve listening on {}", server.addr());
    println!(
        "cube {dims} · hs {} · ht {} · window {} · {} http threads",
        config.hs, config.ht, config.window, config.threads
    );

    // Daemon loop: serve until a client POSTs /shutdown.
    while !server.service().shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("shutdown requested, draining");
    server.shutdown();
    println!("bye");
    Ok(())
}

/// Probe every read endpoint of a running daemon with the in-tree
/// client; any non-2xx answer (or transport failure) is an error.
fn cmd_check(args: &[String]) -> Result<(), String> {
    let addr = args
        .first()
        .ok_or_else(|| format!("check needs an ADDR (host:port)\n\n{USAGE}"))?;
    let shutdown = args.iter().any(|a| a == "--shutdown");
    let client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;

    let expect_2xx = |what: &str, r: Result<(u16, Json), stkde_server::ClientError>| {
        let (status, body) = r.map_err(|e| format!("{what}: {e}"))?;
        if (200..300).contains(&status) {
            println!("ok  {what} -> {status}");
            Ok(body)
        } else {
            Err(format!("{what} answered {status}: {}", body.encode()))
        }
    };

    let counter = |stats: &Json, key: &str| -> Result<u64, String> {
        stats
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/stats lacks a numeric `{key}`"))
    };

    // Everything the writer does with an event lands in exactly one of
    // these counters; their sum is the settled total.
    let settled_of = |stats: &Json| -> Result<u64, String> {
        Ok(counter(stats, "events_applied")?
            + counter(stats, "events_stale")?
            + counter(stats, "events_aged_in_batch")?)
    };
    let dropped_of = |stats: &Json| -> Result<u64, String> {
        Ok(counter(stats, "events_stale")? + counter(stats, "events_aged_in_batch")?)
    };

    expect_2xx("GET /healthz", client.get("/healthz"))?;
    let before = expect_2xx("GET /stats", client.get("/stats"))?;
    expect_2xx(
        "POST /events",
        client.post_json(
            "/events",
            &Json::parse(r#"{"x":1.0,"y":1.0,"t":1.0}"#).expect("static JSON"),
        ),
    )?;
    // Wait for the writer to settle the probe event (applied, or — on a
    // daemon that already holds newer events — dropped as stale).
    let mut dropped_delta = 0;
    let mut settled_delta = 0;
    for _ in 0..100 {
        let stats = expect_2xx("GET /stats", client.get("/stats"))?;
        settled_delta = settled_of(&stats)?.saturating_sub(settled_of(&before)?);
        dropped_delta = dropped_of(&stats)?.saturating_sub(dropped_of(&before)?);
        if settled_delta > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if settled_delta == 0 {
        return Err("ingested event was never applied nor dropped".into());
    }
    let density = expect_2xx("GET /density", client.get("/density?x=1&y=1&t=1"))?;
    let d = density
        .get("density")
        .and_then(Json::as_f64)
        .ok_or("density response lacks a numeric `density`")?;
    // Only demand a positive read-back when nothing was dropped while the
    // probe settled: with zero drops, the probe itself must have been
    // applied. Under concurrent traffic (or a live window head ahead of
    // the probe's t=1.0) the drop may have been ours, so the read-back is
    // inconclusive — the 200s above already prove the serve path.
    if dropped_delta == 0 {
        if d <= 0.0 {
            return Err(format!(
                "density at the ingested event is {d}, expected > 0"
            ));
        }
    } else {
        println!("note: events were dropped while the probe settled (stale or aged); skipping the read-back assertion");
    }
    let region = expect_2xx("GET /region", client.get("/region"))?;
    if region.get("error_bound").and_then(Json::as_f64).is_none() {
        return Err("region response lacks a numeric `error_bound`".into());
    }
    expect_2xx("GET /slice", client.get("/slice?t=0"))?;
    // A budget selects nothing: the plane is exact and full-resolution.
    // (Not compared byte for byte with the plain read: live ingest may
    // move the cube between the two.)
    let budgeted = expect_2xx(
        "GET /slice?max_err=0.5",
        client.get("/slice?t=0&max_err=0.5"),
    )?;
    if budgeted.get("approx").is_some() || budgeted.get("level").is_some() {
        return Err("a max_err slice carries approximate-tier fields".into());
    }
    let dim = |k: &str| budgeted.get(k).and_then(Json::as_u64);
    let values = budgeted
        .get("values")
        .and_then(Json::as_array)
        .map(<[Json]>::len);
    match (dim("gx"), dim("gy"), values) {
        (Some(gx), Some(gy), Some(n)) if n as u64 == gx * gy => {}
        _ => return Err("a max_err slice is not one value per voxel of the plane".into()),
    }

    if shutdown {
        expect_2xx("POST /shutdown", client.post_json("/shutdown", &Json::Null))?;
    }
    println!("all probes passed");
    Ok(())
}

/// Poll `/metrics` on a running daemon and print a compact dashboard:
/// per-interval rates for the counter families, gauge snapshots, and
/// latency quantiles estimated from the cumulative histogram buckets.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let addr = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| format!("top needs an ADDR (host:port)\n\n{USAGE}"))?;
    let mut interval = 2.0f64;
    let mut count = 0usize; // 0 = until interrupted
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval" => {
                let v = it.next().ok_or("missing value for --interval")?;
                interval = v.parse().map_err(|e| format!("bad --interval: {e}"))?;
            }
            "--count" => {
                let v = it.next().ok_or("missing value for --count")?;
                count = v.parse().map_err(|e| format!("bad --count: {e}"))?;
            }
            other => return Err(format!("unknown top flag `{other}`\n\n{USAGE}")),
        }
    }
    if !(interval > 0.0 && interval.is_finite()) {
        return Err("--interval must be positive".into());
    }

    let client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
    let mut prev: Option<(std::time::Instant, Vec<Sample>)> = None;
    let mut polls = 0usize;
    loop {
        let (status, text) = client
            .get_text("/metrics")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        let now = std::time::Instant::now();
        let samples = scrape::parse_text(&text);
        print_top_frame(
            addr,
            prev.as_ref().map(|(t, s)| (*t, s.as_slice(), now)),
            &samples,
        );
        prev = Some((now, samples));
        polls += 1;
        if count > 0 && polls >= count {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

/// Sum of every sample of a family (collapses labels, e.g. per-worker).
fn total(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// Cumulative `(le, count)` buckets of a histogram, labels collapsed.
fn buckets(samples: &[Sample], name: &str) -> Vec<(f64, u64)> {
    let bucket_name = format!("{name}_bucket");
    let mut by_le: Vec<(f64, f64)> = Vec::new();
    for s in samples.iter().filter(|s| s.name == bucket_name) {
        let Some(le) = s.label("le").and_then(scrape::parse_le) else {
            continue;
        };
        match by_le.iter_mut().find(|(b, _)| b.total_cmp(&le).is_eq()) {
            Some((_, c)) => *c += s.value,
            None => by_le.push((le, s.value)),
        }
    }
    by_le.sort_by(|a, b| a.0.total_cmp(&b.0));
    by_le.into_iter().map(|(le, c)| (le, c as u64)).collect()
}

fn fmt_rate(delta: f64, dt: f64) -> String {
    if dt > 0.0 {
        format!("{:.1}/s", delta / dt)
    } else {
        "-".into()
    }
}

fn fmt_secs(s: Option<f64>) -> String {
    match s {
        Some(v) if v < 1e-3 => format!("{:.0}µs", v * 1e6),
        Some(v) if v < 1.0 => format!("{:.2}ms", v * 1e3),
        Some(v) => format!("{v:.2}s"),
        None => "-".into(),
    }
}

/// How a frame turns a metric name into the number it displays:
/// cumulative total on the first poll, inter-poll delta afterwards.
type DeltaFn<'a> = Box<dyn Fn(&str) -> f64 + 'a>;

fn print_top_frame(
    addr: &str,
    prev: Option<(std::time::Instant, &[Sample], std::time::Instant)>,
    cur: &[Sample],
) {
    let (dt, delta): (f64, DeltaFn) = match prev {
        Some((t0, old, t1)) => {
            let dt = (t1 - t0).as_secs_f64();
            let old: Vec<Sample> = old.to_vec();
            (
                dt,
                Box::new(move |name| total(cur, name) - total(&old, name)),
            )
        }
        // First poll: report cumulative totals over the daemon's uptime.
        None => (
            total(cur, "stkde_uptime_seconds").max(1e-9),
            Box::new(|name| total(cur, name)),
        ),
    };
    let kind = if prev.is_some() {
        "interval"
    } else {
        "since start"
    };
    let http_p =
        |q: f64| scrape::quantile_from_buckets(&buckets(cur, "stkde_http_request_seconds"), q);
    let hits = total(cur, "stkde_cache_hits_total");
    let misses = total(cur, "stkde_cache_misses_total");
    let hit_pct = if hits + misses > 0.0 {
        format!("{:.1}%", 100.0 * hits / (hits + misses))
    } else {
        "-".into()
    };
    let written = total(cur, "stkde_scatter_voxels_written_total");
    let boxed = total(cur, "stkde_scatter_box_voxels_total");
    let skip_pct = if boxed > 0.0 {
        format!("{:.0}%", 100.0 * (1.0 - written / boxed))
    } else {
        "-".into()
    };

    println!("stkde-serve top — {addr} ({kind}, dt {dt:.1}s)");
    println!(
        "  ingest   recv {:>10}  applied {:>10}  queue {:>6.0}  coalesce {:>5.1}",
        fmt_rate(delta("stkde_ingest_events_received_total"), dt),
        fmt_rate(delta("stkde_ingest_events_total"), dt),
        total(cur, "stkde_ingest_queue_depth"),
        total(cur, "stkde_ingest_last_coalesce_ratio"),
    );
    println!(
        "  cube     gen {:>9.0}  live {:>11.0}  bytes {:>9.1} MiB",
        total(cur, "stkde_cube_generation"),
        total(cur, "stkde_cube_live_events"),
        total(cur, "stkde_cube_bytes") / (1024.0 * 1024.0),
    );
    println!(
        "  http     req {:>10}  p50 {:>8}  p90 {:>8}  p99 {:>8}  (cumulative quantiles)",
        fmt_rate(delta("stkde_http_requests_total"), dt),
        fmt_secs(http_p(0.50)),
        fmt_secs(http_p(0.90)),
        fmt_secs(http_p(0.99)),
    );
    println!(
        "  cache    hit {hit_pct:>10}  entries {:>8.0}  refused {:>10}",
        total(cur, "stkde_cache_entries"),
        fmt_rate(delta("stkde_cache_refused_total"), dt),
    );
    println!(
        "  pyramid  resident {:>7.1} MiB  build p50 {:>8}",
        total(cur, "stkde_approx_pyramid_bytes") / (1024.0 * 1024.0),
        fmt_secs(scrape::quantile_from_buckets(
            &buckets(cur, "stkde_approx_pyramid_build_seconds"),
            0.50,
        )),
    );
    println!(
        "  scatter  pts {:>10}  voxels {:>9}  skipped-zero {skip_pct}",
        fmt_rate(delta("stkde_scatter_points_total"), dt),
        fmt_rate(delta("stkde_scatter_voxels_written_total"), dt),
    );
    println!(
        "  pool     steals {:>7}  failed {:>9}  parks {:>8}  wakes {:>8}",
        fmt_rate(delta("stkde_pool_steals_total"), dt),
        fmt_rate(delta("stkde_pool_steal_failures_total"), dt),
        fmt_rate(delta("stkde_pool_parks_total"), dt),
        fmt_rate(delta("stkde_pool_wakes_total"), dt),
    );
    print_shard_columns(cur);
    println!();
}

/// One `shards` line per shard: slab width, content epoch, ingest ops,
/// and publishes — the at-a-glance view of shard balance. The daemon
/// labels its shards `0..stkde_shard_count`.
fn print_shard_columns(cur: &[Sample]) {
    let live = total(cur, "stkde_shard_count") as usize;
    if live == 0 {
        return;
    }
    let of = |name: &str, shard: &str| -> f64 {
        cur.iter()
            .filter(|s| s.name == name && s.label("shard") == Some(shard))
            .map(|s| s.value)
            .sum()
    };
    for shard in 0..live {
        let label = shard.to_string();
        println!(
            "  shard {shard:>2}  layers {:>5.0}  epoch {:>9.0}  ops {:>12.0}  publishes {:>9.0}",
            of("stkde_shard_layers", &label),
            of("stkde_shard_epoch", &label),
            of("stkde_shard_ingest_events_total", &label),
            of("stkde_shard_publishes_total", &label),
        );
    }
}
