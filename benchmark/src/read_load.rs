//! The read load: a closed loop of queries over a fixed mix, one client
//! per daemon worker, against a preloaded cube, while one client also
//! trickles in events so cache invalidation, snapshot publication and
//! the lazy pyramid rebuild run beside the reads.

use crate::phase::Part;
use crate::rng::Rng;
use crate::serve::{self, Session, DIMS, POST_EVENTS};
use crate::trace::Tracer;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use stkde_data::Point;
use stkde_grid::VoxelRange;
use stkde_server::json::Json;

/// Events preloaded before the first query; the window holds exactly
/// these many from then on.
pub const PRELOAD_EVENTS: usize = 200_000;
/// One trickle POST of [`POST_EVENTS`] events per interval.
const TRICKLE_EVERY: Duration = Duration::from_millis(500);
/// The preload spans time layers 4–24: the trickle then lands in layers
/// 20–28 and evicts from layers 0–8, and slab 8–16 — where the hot
/// regions sit — is never written, so its cache entries stay valid.
const PRELOAD_SPAN: f64 = 20.0;
const HOT_T: Range<usize> = 9..15;
const HOT_REGIONS: usize = 8;
/// Relative error budget of the approximate class.
pub const MAX_ERR: f64 = 0.1;
/// Every n-th approximate answer is asked again exactly and the
/// certified `error_bound` is checked against the difference.
const RECHECK_EVERY: u64 = 40;

/// The query classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `/density`: one voxel (40 %).
    Density,
    /// `/region` over one of a few small fixed boxes: cache hits (20 %).
    RegionHot,
    /// `/slice`: one time plane (20 %).
    Slice,
    /// `/region` over a wide box no one asked before: an exact fold (10 %).
    RegionWide,
    /// The same kind of box with `max_err`: served from the pyramid (10 %).
    RegionApprox,
}

impl Class {
    fn draw(rng: &mut Rng) -> Class {
        match rng.below(10) {
            0..=3 => Class::Density,
            4..=5 => Class::RegionHot,
            6..=7 => Class::Slice,
            8 => Class::RegionWide,
            _ => Class::RegionApprox,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Query {
    pub class: Class,
    pub path: String,
}

/// A wide box: at least 32×32×16 voxels, corners drawn from the seed, so
/// nearly every one is a new cache key.
pub fn wide_box(rng: &mut Rng) -> VoxelRange {
    VoxelRange {
        x0: rng.below(16),
        x1: DIMS.0 - rng.below(16),
        y0: rng.below(16),
        y1: DIMS.1 - rng.below(16),
        t0: rng.below(8),
        t1: DIMS.2 - rng.below(8),
    }
}

fn region_path(r: VoxelRange) -> String {
    format!(
        "/region?x0={}&x1={}&y0={}&y1={}&t0={}&t1={}",
        r.x0, r.x1, r.y0, r.y1, r.t0, r.t1
    )
}

fn query(rng: &mut Rng, class: Class) -> Query {
    let path = match class {
        Class::Density => format!(
            "/density?x={}&y={}&t={}",
            rng.below(DIMS.0),
            rng.below(DIMS.1),
            4 + rng.below(20)
        ),
        Class::RegionHot => {
            let k = rng.below(HOT_REGIONS);
            let (x0, y0) = (8 * (k % 4) + 8, 24 * (k / 4) + 8);
            region_path(VoxelRange {
                x0,
                x1: x0 + 16,
                y0,
                y1: y0 + 16,
                t0: HOT_T.start,
                t1: HOT_T.end,
            })
        }
        Class::Slice => format!("/slice?t={}", rng.below(DIMS.2)),
        Class::RegionWide => region_path(wide_box(rng)),
        Class::RegionApprox => format!("{}&max_err={MAX_ERR}", region_path(wide_box(rng))),
    };
    Query { class, path }
}

/// An endless seeded stream of queries over the mix. Drawn as the client
/// goes, so a wide box is never asked twice however long the phase runs.
#[derive(Debug, Clone)]
pub struct Queries(Rng);

impl Iterator for Queries {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let class = Class::draw(&mut self.0);
        Some(query(&mut self.0, class))
    }
}

/// The preload, the trickle and every client's query stream, from the
/// seed.
#[derive(Debug)]
pub struct ReadPlan {
    pub events: Vec<Point>,
    pub window: f64,
    pub preload: Range<usize>,
    seed: u64,
}

impl ReadPlan {
    pub fn new(seed: u64, seconds: f64) -> Self {
        // Enough trickle for warm-up, the timed phase and a slow machine.
        let trickle_posts = (4.0 * (seconds + 10.0) / TRICKLE_EVERY.as_secs_f64()) as usize;
        let dt = PRELOAD_SPAN / PRELOAD_EVENTS as f64;
        let events = serve::event_stream(seed, PRELOAD_EVENTS + trickle_posts * POST_EVENTS, dt);
        Self {
            events,
            window: serve::window_for(PRELOAD_EVENTS, dt),
            preload: 0..PRELOAD_EVENTS,
            seed,
        }
    }

    /// The queries of client `c` in phase `phase` of the run (warm-up,
    /// timed, traced …): every phase asks fresh wide boxes.
    pub fn queries(&self, c: usize, phase: u64) -> Queries {
        Queries(Rng::new(
            self.seed ^ 0x7175_6572 ^ ((c as u64 + 1) << 32) ^ (phase << 48),
        ))
    }

    /// The events the window holds after `posted` events went in.
    pub fn live_after(&self, posted: u64) -> &[Point] {
        let end = posted as usize;
        &self.events[end - PRELOAD_EVENTS..end]
    }
}

pub fn boot(bin: &std::path::Path, plan: &ReadPlan) -> io::Result<Session> {
    Session::start(bin, plan.window, &plan.events[plan.preload.clone()])
}

/// One completed query.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub class: Class,
    pub latency_ms: f64,
    /// Whether the query recorded spans.
    pub traced: bool,
}

#[derive(Debug, Default)]
pub struct ReadOutcome {
    pub done: Vec<Done>,
    /// Requests completed, wall and daemon CPU over the phase.
    pub part: Part,
    pub attempted: u64,
    pub failed: u64,
    /// Approximate answers re-asked exactly, and how many could not be
    /// compared because the cube changed between the two answers.
    pub rechecked: u64,
    pub recheck_skipped: u64,
    /// Pyramid level of every approximate answer.
    pub approx_levels: Vec<f64>,
    pub trickle_posts: u64,
}

impl ReadOutcome {
    pub fn latencies_ms(&self, class: Class) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.class == class)
            .map(|d| d.latency_ms)
            .collect()
    }
}

/// What one client did.
#[derive(Debug, Default)]
struct ClientLog {
    done: Vec<Done>,
    failed: u64,
    rechecked: u64,
    recheck_skipped: u64,
    approx_levels: Vec<f64>,
    trickle_posts: u64,
    posted_events: u64,
}

fn num(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key).and_then(Json::as_f64)
}

/// `true` unless the approximate answer breaks its own certificate
/// against the exact answer of the same cube generation; `None` when the
/// generations differ and nothing can be said.
fn certificate_holds(approx: &Json, exact: &Json) -> Option<bool> {
    if num(approx, "generation")? != num(exact, "generation")? {
        return None;
    }
    let bound = num(approx, "error_bound")?;
    let voxels = num(exact, "voxels")?;
    let within = |key: &str, scale: f64| {
        Some((num(approx, key)? - num(exact, key)?).abs() <= bound * scale * (1.0 + 1e-9))
    };
    Some(within("max", 1.0)? && within("min", 1.0)? && within("sum", voxels)?)
}

/// Run the mix for `seconds` on every connection of the session. With a
/// tracer, every second query records a span with the client's write as
/// its child; the wait for the daemon's answer is the part no span recorded
/// from outside the daemon can attribute.
pub fn run(
    session: &mut Session,
    plan: &ReadPlan,
    phase: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> io::Result<ReadOutcome> {
    let pid = session.daemon.pid.clone();
    let first_trickle = session.posted as usize;
    let stop = AtomicBool::new(false);
    let begin = Instant::now();

    let (logs, part) = std::thread::scope(|scope| -> io::Result<_> {
        let handles: Vec<_> = session
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let stop = &stop;
                let queries = plan.queries(c, phase);
                scope.spawn(move || -> io::Result<ClientLog> {
                    let mut log = ClientLog::default();
                    let mut next_trickle = begin + TRICKLE_EVERY;
                    let mut approx_seen = 0u64;
                    for (i, q) in queries.enumerate() {
                        // SeqCst: the flag is all the threads share.
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if c == 0 && Instant::now() >= next_trickle {
                            let at = first_trickle + log.posted_events as usize;
                            let body = serve::events_body(&plan.events[at..at + POST_EVENTS]);
                            if conn.post("/events", &body)?.status != 202 {
                                log.failed += 1;
                            }
                            log.trickle_posts += 1;
                            log.posted_events += POST_EVENTS as u64;
                            next_trickle += TRICKLE_EVERY;
                        }
                        let start = Instant::now();
                        let reply = conn.get(&q.path)?;
                        let latency = reply.done - start;
                        let traced = tracer.filter(|_| i % 2 == 1);
                        log.done.push(Done {
                            class: q.class,
                            latency_ms: latency.as_secs_f64() * 1e3,
                            traced: traced.is_some(),
                        });
                        if let Some(t) = traced {
                            let op = ((c as u64) << 32) + i as u64 + 1;
                            let id = t.record(None, op, "op", t.at_us(start), t.at_us(reply.done));
                            t.record(
                                Some(id),
                                op,
                                "client.write",
                                t.at_us(start),
                                t.at_us(reply.sent),
                            );
                        }
                        if !reply.ok() {
                            log.failed += 1;
                            continue;
                        }
                        if q.class == Class::RegionApprox {
                            let approx = reply.json()?;
                            log.approx_levels
                                .push(num(&approx, "level").unwrap_or(f64::NAN));
                            approx_seen += 1;
                            if approx_seen.is_multiple_of(RECHECK_EVERY) {
                                let exact_path = q.path.split("&max_err").next().unwrap_or(&q.path);
                                let exact = conn.get(exact_path)?;
                                log.rechecked += 1;
                                match certificate_holds(&approx, &exact.json()?) {
                                    Some(true) => {}
                                    Some(false) => log.failed += 1,
                                    None => log.recheck_skipped += 1,
                                }
                            }
                        }
                    }
                    Ok(log)
                })
            })
            .collect();

        // The main thread is the clock.
        let cpu_begin = crate::procfs::cpu_seconds(&pid);
        std::thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::SeqCst);
        let logs: io::Result<Vec<ClientLog>> = handles
            .into_iter()
            .map(|h| h.join().expect("a client does not panic"))
            .collect();
        let logs = logs?;
        let part = Part {
            seconds: begin.elapsed().as_secs_f64(),
            items: logs.iter().map(|l| l.done.len()).sum::<usize>() as f64,
            cpu_s: crate::procfs::cpu_seconds(&pid)? - cpu_begin?,
        };
        Ok((logs, part))
    })?;

    let mut out = ReadOutcome {
        part,
        ..Default::default()
    };
    for log in logs {
        out.attempted += log.done.len() as u64 + log.trickle_posts + log.rechecked;
        out.failed += log.failed;
        out.rechecked += log.rechecked;
        out.recheck_skipped += log.recheck_skipped;
        out.trickle_posts += log.trickle_posts;
        out.approx_levels.extend(log.approx_levels);
        out.done.extend(log.done);
        session.posted += log.posted_events;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_has_the_stated_shares() {
        let plan = ReadPlan::new(9, 1.0);
        let all: Vec<Query> = (0..2)
            .flat_map(|c| plan.queries(c, 1).take(20_000))
            .collect();
        let share = |class: Class| {
            all.iter().filter(|q| q.class == class).count() as f64 / all.len() as f64
        };
        for (class, want) in [
            (Class::Density, 0.4),
            (Class::RegionHot, 0.2),
            (Class::Slice, 0.2),
            (Class::RegionWide, 0.1),
            (Class::RegionApprox, 0.1),
        ] {
            assert!(
                (share(class) - want).abs() < 0.02,
                "{class:?}: {}",
                share(class)
            );
        }
        // Hot regions sit inside the slab the trickle never writes.
        let hot: std::collections::BTreeSet<&str> = all
            .iter()
            .filter(|q| q.class == Class::RegionHot)
            .map(|q| q.path.as_str())
            .collect();
        assert_eq!(hot.len(), HOT_REGIONS);
        assert!(hot.iter().all(|p| p.ends_with("t0=9&t1=15")));
        assert!(all
            .iter()
            .filter(|q| q.class == Class::RegionApprox)
            .all(|q| q.path.ends_with("max_err=0.1")));
    }

    #[test]
    fn certificate_check_compares_equal_generations_only() {
        let doc = |g: f64, sum: f64, max: f64, bound: f64| {
            Json::obj([
                ("generation", Json::from(g)),
                ("sum", Json::from(sum)),
                ("max", Json::from(max)),
                ("min", Json::from(0.0)),
                ("voxels", Json::from(100.0)),
                ("error_bound", Json::from(bound)),
            ])
        };
        let exact = doc(7.0, 10.0, 1.0, 0.0);
        assert_eq!(
            certificate_holds(&doc(7.0, 10.5, 1.01, 0.01), &exact),
            Some(true)
        );
        assert_eq!(
            certificate_holds(&doc(7.0, 12.0, 1.0, 0.01), &exact),
            Some(false)
        );
        assert_eq!(
            certificate_holds(&doc(7.0, 10.0, 1.2, 0.01), &exact),
            Some(false)
        );
        assert_eq!(certificate_holds(&doc(8.0, 10.0, 1.0, 0.01), &exact), None);
    }
}
