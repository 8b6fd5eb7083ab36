//! The end-to-end runs of the two serve workloads: [`PARTS`] parts, each
//! against a daemon of its own, freshly booted and preloaded with a stream
//! of its own drawn from the seed.

use crate::phase::{self, Part};
use crate::read_load::{self, ReadPlan};
use crate::report::{EndToEnd, Measured, Report};
use crate::serve::{Session, CHECKED_DENSITIES};
use crate::stats::{self, part_seed, PARTS};
use crate::write_load::{self, WritePlan};
use crate::{daemon, Opts};
use std::io;
use std::time::{Duration, Instant};

/// `serve_write` reports p75 of the event→visible latency (its sample
/// supports p95, but on a two-core box p90 and up catch the scheduler's
/// hiccups and do not repeat from run to run), `serve_read` p95 of the
/// query round trip.
pub const WRITE_TAIL_PCT: f64 = 75.0;
pub const READ_TAIL_PCT: f64 = 95.0;
/// The read mix runs this long before the timed phase, so the cache is
/// filled and the pyramids are built when timing starts.
pub const READ_WARM_UP: Duration = Duration::from_millis(500);

/// What the parts of a serve run add up to.
#[derive(Debug, Default)]
struct Parts {
    setups: Vec<f64>,
    ops_ms: Vec<Vec<f64>>,
    /// The stretch `throughput_per_s` is measured over.
    saturated: Vec<Part>,
    /// The stretch `cpu_us_per_item` is measured over.
    whole: Vec<Part>,
    peaks_mib: Vec<f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Parts {
    /// Check this part's share of the `/density` answers, note the
    /// daemon's peak memory, and stop it.
    fn finish_part(
        &mut self,
        mut session: Session,
        seed: u64,
        live: &[stkde_data::Point],
    ) -> io::Result<()> {
        let (asked, wrong) = session.check_densities(seed, live, CHECKED_DENSITIES / PARTS)?;
        self.attempted += asked;
        self.failed += wrong;
        self.peaks_mib.push(session.peak_rss_mib()?);
        session.shutdown()
    }

    fn report(mut self, workload: &'static str, tail_pct: f64, what: &str) -> Report {
        let counts: Vec<usize> = self.ops_ms.iter().map(Vec::len).collect();
        let e2e = EndToEnd {
            setup_s: Measured::median(&self.setups),
            op_p50_ms: Measured::median_of_parts(&self.ops_ms, 50.0),
            op_tail_ms: Measured::median_of_parts(&self.ops_ms, tail_pct),
            throughput_per_s: phase::throughput(&self.saturated),
            cpu_us_per_item: phase::cpu_us_per_item(&self.whole),
            peak_rss_mib: Measured::median(&self.peaks_mib),
        };
        self.notes.push(format!(
            "{what} per part {counts:?}; tail p{tail_pct} (highest supported: {})",
            stats::highest_supported_tail(&counts).map_or("none".to_string(), |p| format!("p{p}"))
        ));
        Report {
            workload,
            attempted: self.attempted,
            failed: self.failed,
            metrics: e2e.metrics(),
            notes: self.notes,
        }
    }
}

pub fn run_write(opts: &Opts) -> io::Result<Report> {
    let bin = daemon::binary(opts).map_err(io::Error::other)?;
    let mut parts = Parts::default();
    let (mut late_ms, mut probe_ms) = (Vec::new(), Vec::new());
    for part in 0..PARTS {
        let seed = part_seed(opts.seed, part);
        let start = Instant::now();
        let plan = WritePlan::new(seed, opts.seconds / PARTS as f64);
        let mut session = write_load::boot(&bin, &plan)?;
        parts.setups.push(start.elapsed().as_secs_f64());
        let outcome = write_load::run(&mut session, &plan, None)?;
        parts.finish_part(session, seed, plan.live_at_end())?;
        if part == 0 {
            parts.notes.push(format!(
                "per part: {} POSTs of {} events at {}/s, then a backlog of {} events; \
                 the window holds {} events",
                plan.steady_bodies.len(),
                crate::serve::POST_EVENTS,
                write_load::POST_RATE,
                plan.backlog.len(),
                write_load::LIVE_EVENTS
            ));
        }
        parts.attempted += outcome.attempted;
        parts.failed += outcome.failed;
        parts.ops_ms.push(outcome.ops_ms);
        parts.saturated.push(outcome.drain);
        parts.whole.push(outcome.whole);
        parts.notes.extend(outcome.notes);
        late_ms.extend(outcome.late_ms);
        probe_ms.extend(outcome.probe_period_ms);
    }
    parts.notes.push(format!(
        "generator lateness p99 {:.3} ms, probe period p50 {:.3} ms; {CHECKED_DENSITIES} /density \
         answers checked against the f64 kernel sum",
        stats::percentile(&late_ms, 99.0),
        stats::median(&probe_ms)
    ));
    Ok(parts.report("serve_write", WRITE_TAIL_PCT, "visible POSTs"))
}

pub fn run_read(opts: &Opts) -> io::Result<Report> {
    let bin = daemon::binary(opts).map_err(io::Error::other)?;
    let mut parts = Parts::default();
    let (mut rechecked, mut skipped, mut trickle) = (0, 0, 0);
    for part in 0..PARTS {
        let seed = part_seed(opts.seed, part);
        let seconds = opts.seconds / PARTS as f64;
        let start = Instant::now();
        let plan = ReadPlan::new(seed, seconds);
        let mut session = read_load::boot(&bin, &plan)?;
        read_load::run(&mut session, &plan, 0, READ_WARM_UP.as_secs_f64(), None)?;
        parts.setups.push(start.elapsed().as_secs_f64());
        let outcome = read_load::run(&mut session, &plan, 1, seconds, None)?;
        let posted = session.posted;
        parts.finish_part(session, seed, plan.live_after(posted))?;
        parts.attempted += outcome.attempted;
        parts.failed += outcome.failed;
        parts
            .ops_ms
            .push(outcome.done.iter().map(|d| d.latency_ms).collect());
        parts.saturated.push(outcome.part);
        parts.whole.push(outcome.part);
        rechecked += outcome.rechecked;
        skipped += outcome.recheck_skipped;
        trickle += outcome.trickle_posts;
    }
    parts.notes.push(format!(
        "{} clients, {} events preloaded per part, {trickle} trickle POSTs of {} events beside \
         the reads",
        crate::serve::clients(),
        read_load::PRELOAD_EVENTS,
        crate::serve::POST_EVENTS
    ));
    parts.notes.push(format!(
        "{rechecked} approximate answers re-asked exactly ({skipped} across a cube change, not \
         comparable); {CHECKED_DENSITIES} /density answers checked against the f64 kernel sum"
    ));
    Ok(parts.report("serve_read", READ_TAIL_PCT, "queries"))
}
