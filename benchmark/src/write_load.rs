//! The write load: an open-loop stream of `POST /events` at a fixed rate
//! (each timed from its due time to the first `/stats` answer that
//! counts it applied), then a backlog pushed as fast as the daemon takes
//! it and timed until it is drained.
//!
//! One sender and one prober, each on its own connection. The window
//! slides with the stream at constant occupancy, so from the first timed
//! POST on every insertion evicts one event.

use crate::phase::Part;
use crate::serve::{self, IngestStats, Session, BULK_EVENTS, POST_EVENTS};
use crate::trace::Tracer;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use stkde_data::Point;

/// Steady POSTs per second: 20 k events/s, a tenth of what the daemon
/// sustains here, so the queue stays short and the latency is the
/// pipeline's, not a backlog's.
pub const POST_RATE: f64 = 400.0;
/// Events the window holds throughout.
pub const LIVE_EVENTS: usize = 20_000;
/// Share of `--seconds` spent in the steady part; the backlog is sized so
/// draining it takes about the rest on the reference machine.
const STEADY_SHARE: f64 = 0.6;
/// Backlog events per second of `--seconds` (a fixed count per run
/// length, whatever the machine's speed).
const BACKLOG_PER_SECOND: usize = 72_000;
/// Steady POSTs sent during set-up to warm the whole write path.
const WARM_POSTS: usize = 200;
/// The prober sleeps this long between two `/stats` requests, so it
/// leaves the core to the daemon most of the time.
const PROBE_PAUSE: Duration = Duration::from_micros(250);
/// The daemon's CPU time is re-read at most this often.
const CPU_REFRESH: Duration = Duration::from_millis(20);

/// The whole event stream of one run and how it is cut up.
#[derive(Debug)]
pub struct WritePlan {
    pub events: Vec<Point>,
    pub window: f64,
    /// Event index ranges of the stream, in posting order.
    pub preload: Range<usize>,
    pub warm: Range<usize>,
    pub steady: Range<usize>,
    pub backlog: Range<usize>,
    /// Encoded `POST /events` bodies of the steady part and the backlog.
    pub steady_bodies: Vec<Vec<u8>>,
    pub backlog_bodies: Vec<Vec<u8>>,
}

impl WritePlan {
    pub fn new(seed: u64, seconds: f64) -> Self {
        let steady_posts = (POST_RATE * STEADY_SHARE * seconds).ceil() as usize;
        let backlog_events =
            ((BACKLOG_PER_SECOND as f64 * seconds) as usize).div_ceil(BULK_EVENTS) * BULK_EVENTS;
        let preload = 0..LIVE_EVENTS;
        let warm = preload.end..preload.end + WARM_POSTS * POST_EVENTS;
        let steady = warm.end..warm.end + steady_posts * POST_EVENTS;
        let backlog = steady.end..steady.end + backlog_events;
        // The stream crosses the cube's time axis once, clear of both ends.
        let dt = (serve::DIMS.2 as f64 - 2.0 * serve::HT) / backlog.end as f64;
        let events = serve::event_stream(seed, backlog.end, dt);
        let bodies = |range: &Range<usize>, per_post: usize| {
            events[range.clone()]
                .chunks(per_post)
                .map(serve::events_body)
                .collect()
        };
        Self {
            window: serve::window_for(LIVE_EVENTS, dt),
            steady_bodies: bodies(&steady, POST_EVENTS),
            backlog_bodies: bodies(&backlog, BULK_EVENTS),
            events,
            preload,
            warm,
            steady,
            backlog,
        }
    }

    /// The events the window holds once everything is applied.
    pub fn live_at_end(&self) -> &[Point] {
        &self.events[self.backlog.end - LIVE_EVENTS..]
    }
}

/// Boot a daemon, preload the window, and warm the write path with a
/// short burst of steady-sized POSTs.
pub fn boot(bin: &std::path::Path, plan: &WritePlan) -> io::Result<Session> {
    let mut session = Session::start(bin, plan.window, &plan.events[plan.preload.clone()])?;
    for chunk in plan.events[plan.warm.clone()].chunks(POST_EVENTS) {
        session.post_events(0, chunk)?;
    }
    session.wait_settled()?;
    Ok(session)
}

/// What the sender saw of one steady POST.
#[derive(Debug, Clone, Copy)]
struct Sent {
    due: Instant,
    sent: Instant,
    answered: Instant,
    accepted: bool,
}

/// One `/stats` answer.
#[derive(Debug, Clone, Copy)]
struct Probe {
    at: Instant,
    stats: IngestStats,
    cpu_s: f64,
}

#[derive(Debug, Default)]
pub struct WriteOutcome {
    /// Latency of each steady op in ms, from the POST's due time to the
    /// probe that saw it applied.
    pub ops_ms: Vec<f64>,
    /// Whether each op recorded spans.
    pub traced: Vec<bool>,
    /// Events settled, wall and daemon CPU over the whole timed phase.
    pub whole: Part,
    /// The same from the first backlog POST until the backlog is drained.
    pub drain: Part,
    /// How late the generator sent each steady POST, ms.
    pub late_ms: Vec<f64>,
    /// Client-side round trip of each steady POST, µs.
    pub post_rtt_us: Vec<f64>,
    /// Time between consecutive `/stats` answers in the steady part, ms.
    pub probe_period_ms: Vec<f64>,
    /// Events queued in the daemon at each `/stats` answer of the steady
    /// part.
    pub queue_depth: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Run the steady part and the backlog against a booted session. With a
/// tracer, every second steady op records a span (due → visible) with
/// the generator's lateness and the POST round trip as children; the
/// spans are built from the records after the phase, so recording them
/// cannot disturb it.
pub fn run(
    session: &mut Session,
    plan: &WritePlan,
    tracer: Option<&Tracer>,
) -> io::Result<WriteOutcome> {
    let base = session.posted;
    let steady_events = plan.steady.len() as u64;
    let total = base + steady_events + plan.backlog.len() as u64;
    let pid = session.daemon.pid.clone();
    let (sender_conn, rest) = session.conns.split_at_mut(1);
    let (sender_conn, prober_conn) = (&mut sender_conn[0], &mut rest[0]);
    let abort = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);

    let (sent, backlog_start, backlog_refused, probes) = std::thread::scope(|scope| {
        let prober = scope.spawn(|| -> io::Result<Vec<Probe>> {
            let deadline = start + Duration::from_secs(150);
            let mut probes: Vec<Probe> = Vec::new();
            let (mut cpu_s, mut cpu_at) = (crate::procfs::cpu_seconds(&pid)?, Instant::now());
            loop {
                let stats = IngestStats::fetch(prober_conn)?;
                let at = Instant::now();
                // SeqCst: the flag is the only thing the threads share.
                let last =
                    stats.settled() >= total || abort.load(Ordering::SeqCst) || at > deadline;
                if last || at.duration_since(cpu_at) >= CPU_REFRESH {
                    (cpu_s, cpu_at) = (crate::procfs::cpu_seconds(&pid)?, at);
                }
                probes.push(Probe { at, stats, cpu_s });
                if last {
                    return Ok(probes);
                }
                std::thread::sleep(PROBE_PAUSE);
            }
        });

        let sender = (|| -> io::Result<(Vec<Sent>, Instant, u64)> {
            let mut sent = Vec::with_capacity(plan.steady_bodies.len());
            for (k, body) in plan.steady_bodies.iter().enumerate() {
                let due = start + Duration::from_secs_f64(k as f64 / POST_RATE);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let began = Instant::now();
                let reply = sender_conn.post("/events", body)?;
                sent.push(Sent {
                    due,
                    sent: began,
                    answered: reply.done,
                    accepted: reply.status == 202,
                });
            }
            let backlog_start = Instant::now();
            let mut refused = 0;
            for body in &plan.backlog_bodies {
                if sender_conn.post("/events", body)?.status != 202 {
                    refused += 1;
                }
            }
            Ok((sent, backlog_start, refused))
        })();
        if sender.is_err() {
            abort.store(true, Ordering::SeqCst);
        }
        let probes = prober.join().expect("the prober does not panic");
        sender.and_then(|(s, b, r)| probes.map(|p| (s, b, r, p)))
    })?;
    session.posted = total;

    let mut out = WriteOutcome {
        attempted: (sent.len() + plan.backlog_bodies.len()) as u64,
        failed: backlog_refused,
        ..Default::default()
    };
    // A steady POST is visible at the first probe that counts its events.
    let mut next_probe = 0;
    for (k, s) in sent.iter().enumerate() {
        let needed = base + (k as u64 + 1) * POST_EVENTS as u64;
        while next_probe < probes.len() && probes[next_probe].stats.settled() < needed {
            next_probe += 1;
        }
        out.late_ms.push((s.sent - s.due).as_secs_f64() * 1e3);
        out.post_rtt_us
            .push((s.answered - s.sent).as_secs_f64() * 1e6);
        let Some(seen) = probes.get(next_probe).filter(|_| s.accepted) else {
            out.failed += 1;
            continue;
        };
        // A probe can overtake the 202 on the other connection.
        let visible = seen.at.max(s.answered);
        out.ops_ms.push((visible - s.due).as_secs_f64() * 1e3);
        out.traced.push(tracer.is_some() && k % 2 == 1);
        if let Some(t) = tracer.filter(|_| k % 2 == 1) {
            let op = k as u64 + 1;
            let id = t.record(None, op, "op", t.at_us(s.due), t.at_us(visible));
            t.record(
                Some(id),
                op,
                "loadgen.late",
                t.at_us(s.due),
                t.at_us(s.sent),
            );
            t.record(
                Some(id),
                op,
                "server.http.post",
                t.at_us(s.sent),
                t.at_us(s.answered),
            );
        }
    }

    // What happened between two probes, in events settled.
    let between = |from: &Probe, to: &Probe| Part {
        seconds: (to.at - from.at).as_secs_f64(),
        items: (to.stats.settled() - from.stats.settled()) as f64,
        cpu_s: to.cpu_s - from.cpu_s,
    };
    let (first, last) = (&probes[0], &probes[probes.len() - 1]);
    out.whole = between(first, last);
    // The drain runs from the first probe after the first backlog POST;
    // what is left of the steady part by then is noise against the backlog.
    let drain_from = probes
        .iter()
        .find(|p| p.at >= backlog_start)
        .unwrap_or(last);
    out.drain = between(drain_from, last);
    out.queue_depth = probes
        .iter()
        .take_while(|p| p.at < backlog_start)
        .map(|p| p.stats.queue_depth as f64)
        .collect();
    out.probe_period_ms = probes
        .windows(2)
        .take_while(|w| w[1].at < backlog_start)
        .map(|w| (w[1].at - w[0].at).as_secs_f64() * 1e3)
        .collect();

    let last = last.stats;
    if last.settled() < total {
        out.failed += 1;
        out.notes.push(format!(
            "ingest did not drain: {} of {total} events settled",
            last.settled()
        ));
    }
    if last.dropped > 0 {
        out.failed += 1;
        out.notes
            .push(format!("the daemon dropped {} events", last.dropped));
    }
    Ok(out)
}
