//! What the two serve workloads share: the cube the daemon serves, the
//! seeded event stream, a session with a booted and preloaded daemon, and
//! the exact-answer check of `/density`.

use crate::daemon::Daemon;
use crate::httpc::Conn;
use crate::oracle::AnswerKey;
use crate::rng::Rng;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};
use stkde_data::Point;
use stkde_grid::{Bandwidth, Domain, GridDims};
use stkde_server::json::Json;

/// The served cube: the daemon's default 64×64×32 grid and bandwidths
/// (Hs 6, Ht 4 voxels — 1521 voxels in a cylinder's box).
pub const DIMS: (usize, usize, usize) = (64, 64, 32);
pub const HS: f64 = 6.0;
pub const HT: f64 = 4.0;
/// Event timestamps start here and stay below `DIMS.2 − HT`, so no
/// cylinder is clipped in time and every event costs the same.
pub const T_FIRST: f64 = HT;
/// Events per `POST /events` of the steady write load and the trickle.
pub const POST_EVENTS: usize = 50;
/// Events per `POST /events` when preloading and when pushing a backlog.
pub const BULK_EVENTS: usize = 2000;
/// `/density` answers compared with the exact kernel sum per run.
pub const CHECKED_DENSITIES: usize = 200;

pub fn domain() -> Domain {
    Domain::from_dims(GridDims::new(DIMS.0, DIMS.1, DIMS.2))
}

pub fn bandwidth() -> Bandwidth {
    Bandwidth::new(HS, HT)
}

/// HTTP workers of the daemon and connections of the load generator:
/// `nproc`, but at least the two connections `serve_write` needs (a
/// worker serves one keep-alive connection at a time).
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
}

/// A stream of `n` events with evenly advancing timestamps from
/// [`T_FIRST`] in steps of `dt`, clustered in space: four in five around
/// one of 24 seeded centres (σ ≈ 2.5 voxels), the rest anywhere.
pub fn event_stream(seed: u64, n: usize, dt: f64) -> Vec<Point> {
    let mut rng = Rng::new(seed ^ 0x5e72_7665);
    let (gx, gy) = (DIMS.0 as f64, DIMS.1 as f64);
    let centres: Vec<(f64, f64)> = (0..24)
        .map(|_| (rng.range(8.0, gx - 8.0), rng.range(8.0, gy - 8.0)))
        .collect();
    (0..n)
        .map(|i| {
            let t = T_FIRST + i as f64 * dt;
            if rng.below(5) == 4 {
                return Point::new(rng.range(0.0, gx), rng.range(0.0, gy), t);
            }
            let (cx, cy) = centres[rng.below(centres.len())];
            // Sum of four uniforms: a bell of standard deviation 2.5.
            let mut bell = || (0..4).map(|_| rng.range(-1.0, 1.0)).sum::<f64>() * 2.165;
            let (x, y) = (cx + bell(), cy + bell());
            Point::new(x.clamp(0.0, gx - 1e-9), y.clamp(0.0, gy - 1e-9), t)
        })
        .collect()
}

/// The window length that keeps exactly `live` events of a stream with
/// step `dt` in the cube: the daemon evicts events older than the newest
/// minus the window, and the half step keeps rounding off the boundary.
pub fn window_for(live: usize, dt: f64) -> f64 {
    (live as f64 - 0.5) * dt
}

/// A `POST /events` body for `events`. Coordinates are printed with
/// Rust's shortest round-trip formatting, so the daemon parses exactly
/// the values the answer key is computed from.
pub fn events_body(events: &[Point]) -> Vec<u8> {
    let mut body = String::with_capacity(events.len() * 64 + 16);
    body.push_str("{\"events\":[");
    for (i, p) in events.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"x\":{:?},\"y\":{:?},\"t\":{:?}}}",
            p.x, p.y, p.t
        ));
    }
    body.push_str("]}");
    body.into_bytes()
}

/// The ingest counters of one `/stats` answer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestStats {
    pub applied: u64,
    /// Events the daemon dropped instead of applying (stale or aged out
    /// within their batch). The workloads are built so this stays zero.
    pub dropped: u64,
    pub queue_depth: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub kernel_error_bound: f64,
}

impl IngestStats {
    pub fn settled(&self) -> u64 {
        self.applied + self.dropped
    }

    pub fn parse(stats: &Json) -> io::Result<Self> {
        let num = |key: &str| {
            stats
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| io::Error::other(format!("/stats lacks a numeric `{key}`")))
        };
        Ok(Self {
            applied: num("events_applied")? as u64,
            dropped: (num("events_stale")? + num("events_aged_in_batch")?) as u64,
            queue_depth: num("ingest_queue_depth")? as u64,
            cache_hits: num("cache_hits")? as u64,
            cache_misses: num("cache_misses")? as u64,
            kernel_error_bound: num("kernel_error_bound")?,
        })
    }

    pub fn fetch(conn: &mut Conn) -> io::Result<Self> {
        let reply = conn.get("/stats")?;
        if !reply.ok() {
            return Err(io::Error::other(format!(
                "/stats answered {}",
                reply.status
            )));
        }
        Self::parse(&reply.json()?)
    }
}

/// A booted daemon and the load generator's connections to it.
#[derive(Debug)]
pub struct Session {
    pub daemon: Daemon,
    pub conns: Vec<Conn>,
    /// Events posted so far; the daemon has settled as many.
    pub posted: u64,
}

impl Session {
    /// Boot the daemon, connect, and preload `events`.
    pub fn start(bin: &Path, window: f64, events: &[Point]) -> io::Result<Self> {
        let daemon = Daemon::start(bin, DIMS, HS, HT, window, clients())?;
        let conns = (0..clients())
            .map(|_| Conn::open(daemon.addr))
            .collect::<io::Result<Vec<_>>>()?;
        let mut this = Self {
            daemon,
            conns,
            posted: 0,
        };
        for chunk in events.chunks(BULK_EVENTS) {
            this.post_events(0, chunk)?;
        }
        this.wait_settled()?;
        Ok(this)
    }

    /// Post `events` on connection `conn`, expecting the daemon to accept
    /// all of them.
    pub fn post_events(&mut self, conn: usize, events: &[Point]) -> io::Result<()> {
        let reply = self.conns[conn].post("/events", &events_body(events))?;
        let accepted = reply.json()?.get("accepted").and_then(Json::as_u64);
        if reply.status != 202 || accepted != Some(events.len() as u64) {
            return Err(io::Error::other(format!(
                "POST /events of {} events answered {} accepted {accepted:?}",
                events.len(),
                reply.status
            )));
        }
        self.posted += events.len() as u64;
        Ok(())
    }

    /// Poll `/stats` until every posted event is settled.
    pub fn wait_settled(&mut self) -> io::Result<IngestStats> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = IngestStats::fetch(&mut self.conns[0])?;
            if stats.settled() >= self.posted {
                return Ok(stats);
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "ingest stuck: {} of {} events settled",
                    stats.settled(),
                    self.posted
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Ask `/density` at `count` seeded voxels and compare
    /// with the exact kernel sum over `live`, the events the window holds
    /// now. Returns `(asked, wrong)`. The daemon rasterizes with a
    /// tabulated kernel and reports its certified error in `/stats`; that
    /// bound is the tolerance.
    pub fn check_densities(
        &mut self,
        seed: u64,
        live: &[Point],
        count: usize,
    ) -> io::Result<(u64, u64)> {
        let stats = self.wait_settled()?;
        let mut rng = Rng::new(seed ^ 0x6465_6e73);
        let key = AnswerKey::build(&mut rng, &domain(), bandwidth(), live, count);
        let mut got = Vec::with_capacity(key.voxels.len());
        for &(x, y, t) in &key.voxels {
            let reply = self.conns[0].get(&format!("/density?x={x}&y={y}&t={t}"))?;
            let density = reply.json()?.get("density").and_then(Json::as_f64);
            // A non-2xx or malformed answer compares as NaN: wrong.
            got.push(density.filter(|_| reply.ok()).unwrap_or(f64::NAN));
        }
        let tolerance = stats.kernel_error_bound * 1.001;
        let wrong = key.mismatches(got.into_iter(), tolerance, 1e-9);
        Ok((key.voxels.len() as u64, wrong as u64))
    }

    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        crate::procfs::peak_rss_mib(&self.daemon.pid)
    }

    /// The daemon's `/metrics`, parsed.
    pub fn scrape(&mut self) -> io::Result<Vec<stkde_obs::scrape::Sample>> {
        let reply = self.conns[0].get("/metrics")?;
        if !reply.ok() {
            return Err(io::Error::other(format!(
                "/metrics answered {}",
                reply.status
            )));
        }
        let text = std::str::from_utf8(&reply.body)
            .map_err(|_| io::Error::other("/metrics is not UTF-8"))?;
        Ok(stkde_obs::scrape::parse_text(text))
    }

    pub fn shutdown(self) -> io::Result<()> {
        self.daemon.shutdown(self.conns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_ordered_and_inside_the_cube() {
        let a = event_stream(5, 2000, 0.01);
        assert_eq!(a, event_stream(5, 2000, 0.01));
        assert_ne!(a, event_stream(6, 2000, 0.01));
        assert!(a.windows(2).all(|w| w[0].t < w[1].t));
        assert_eq!(a[0].t, T_FIRST);
        let ext = domain().extent();
        assert!(a.iter().all(|p| ext.contains(p.as_array())));
    }

    #[test]
    fn body_round_trips_through_the_daemons_parser() {
        let events = event_stream(1, 3, 1.0 / 3.0);
        let text = String::from_utf8(events_body(&events)).unwrap();
        let doc = Json::parse(&text).unwrap();
        let parsed = doc.get("events").unwrap().as_array().unwrap();
        assert_eq!(parsed.len(), 3);
        for (p, j) in events.iter().zip(parsed) {
            assert_eq!(j.get("x").unwrap().as_f64(), Some(p.x));
            assert_eq!(j.get("t").unwrap().as_f64(), Some(p.t));
        }
    }

    #[test]
    fn window_keeps_exactly_the_live_count() {
        let dt = 24.0 / 1_234_567.0;
        let live = 20_000;
        let window = window_for(live, dt);
        let t = |i: usize| T_FIRST + i as f64 * dt;
        for newest in [live, 3 * live + 17, 1_234_566] {
            let cutoff = t(newest) - window;
            // The daemon evicts events with `t < cutoff`.
            assert!(t(newest + 1 - live) >= cutoff);
            assert!(t(newest - live) < cutoff);
        }
    }
}
