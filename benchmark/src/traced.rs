//! The traced run (`--trace 1`): the workload's own op phase with span
//! recording on for every second op (the gap between the traced and the
//! untraced ops' medians is the tracing overhead), then the per-layer
//! probes of `layers`, and the daemon-side layer metrics read from
//! `/metrics` and `/stats`.
//!
//! Every traced run reports every per-layer metric. The layers a workload
//! drives are probed on that workload's own inputs;
//! the others on a short reference replay of the same seed (see the
//! interaction table in `README.md` for which is which): a batch workload
//! probes the serve layers on [`REFERENCE_SECONDS`] of serve traffic, and
//! a serve workload probes the batch layers on the cube it serves — the
//! window's events as one STKDE problem, what a full rebuild would cost.

use crate::batch;
use crate::layers::{self, family_total};
use crate::read_load::{self, Class, ReadOutcome, ReadPlan};
use crate::report::{Layers, Measured, Report};
use crate::serve::{self, IngestStats};
use crate::serve_e2e::READ_WARM_UP;
use crate::stats;
use crate::trace::Tracer;
use crate::write_load::{self, WriteOutcome, WritePlan, LIVE_EVENTS};
use crate::{daemon, Opts};
use std::io;
use std::path::Path;
use stkde_data::PointSet;
use stkde_grid::{Bandwidth, Domain};
use stkde_obs::names;
use stkde_obs::scrape::{self, Sample};

/// Length of the serve phases a batch workload's traced run replays, and
/// of the other serve workload's phase in a serve workload's traced run.
const REFERENCE_SECONDS: f64 = 2.0;
/// Events of the served window handed to the batch probes of a serve
/// workload's traced run.
const WINDOW_PROBLEM_EVENTS: usize = 50_000;
/// Queries per class replayed in-process for the HTTP overhead figures.
const REPLAYED_QUERIES: usize = 200;

/// One write phase against a fresh daemon, with `/metrics` either side.
struct WriteSample {
    plan: WritePlan,
    outcome: WriteOutcome,
    before: Vec<Sample>,
    after: Vec<Sample>,
    checked: (u64, u64),
}

fn write_sample(
    bin: &Path,
    opts: &Opts,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> io::Result<WriteSample> {
    let plan = WritePlan::new(opts.seed, seconds);
    let mut session = write_load::boot(bin, &plan)?;
    let before = session.scrape()?;
    let outcome = write_load::run(&mut session, &plan, tracer)?;
    let after = session.scrape()?;
    let checked =
        session.check_densities(opts.seed, plan.live_at_end(), serve::CHECKED_DENSITIES)?;
    session.shutdown()?;
    Ok(WriteSample {
        plan,
        outcome,
        before,
        after,
        checked,
    })
}

/// One read phase against a fresh, warmed daemon.
struct ReadSample {
    plan: ReadPlan,
    outcome: ReadOutcome,
    before: Vec<Sample>,
    after: Vec<Sample>,
    cache: (IngestStats, IngestStats),
    checked: (u64, u64),
}

fn read_sample(
    bin: &Path,
    opts: &Opts,
    seconds: f64,
    phase: u64,
    tracer: Option<&Tracer>,
) -> io::Result<ReadSample> {
    let plan = ReadPlan::new(opts.seed, seconds);
    let mut session = read_load::boot(bin, &plan)?;
    read_load::run(&mut session, &plan, 0, READ_WARM_UP.as_secs_f64(), None)?;
    let before = session.scrape()?;
    let stats_before = IngestStats::fetch(&mut session.conns[0])?;
    let outcome = read_load::run(&mut session, &plan, phase, seconds, tracer)?;
    let stats_after = IngestStats::fetch(&mut session.conns[0])?;
    let after = session.scrape()?;
    let checked = session.check_densities(
        opts.seed,
        plan.live_after(session.posted),
        serve::CHECKED_DENSITIES,
    )?;
    session.shutdown()?;
    Ok(ReadSample {
        plan,
        outcome,
        before,
        after,
        cache: (stats_before, stats_after),
        checked,
    })
}

/// Cumulative `(le, count)` buckets of histogram `name` between scrapes.
fn bucket_delta(before: &[Sample], after: &[Sample], name: &str) -> Vec<(f64, u64)> {
    let bucket = format!("{name}_bucket");
    let at = |samples: &[Sample], le: &str| {
        samples
            .iter()
            .find(|s| s.name == bucket && s.label("le") == Some(le))
            .map_or(0.0, |s| s.value)
    };
    after
        .iter()
        .filter(|s| s.name == bucket)
        .filter_map(|s| {
            let le = s.label("le")?;
            Some((
                scrape::parse_le(le)?,
                (s.value - at(before, le)).max(0.0) as u64,
            ))
        })
        .collect()
}

/// The daemon-side write layers: what `/metrics` says the ingest loop did
/// during the phase, and what the load generator saw of itself.
fn put_write_daemon_layers(layers: &mut Layers, s: &WriteSample) {
    let o = &s.outcome;
    let delta = |name: &str| family_total(&s.after, name) - family_total(&s.before, name);
    layers.put(
        "server.http.roundtrip_p50_us",
        Measured::median(&o.post_rtt_us),
    );
    let batches = delta(names::INGEST_BATCHES);
    layers.put("server.service.batches", Measured::new(batches, 1));
    layers.put(
        "server.service.events_per_batch",
        Measured::new(
            delta(&format!("{}_sum", names::INGEST_BATCH_SIZE)) / batches.max(1.0),
            batches.max(1.0) as usize,
        ),
    );
    let apply = bucket_delta(&s.before, &s.after, names::INGEST_APPLY_SECONDS);
    layers.put(
        "server.service.apply_p50_ms",
        Measured::new(
            scrape::quantile_from_buckets(&apply, 0.5).unwrap_or(0.0) * 1e3,
            batches.max(1.0) as usize,
        ),
    );
    layers.put(
        "server.service.queue_depth_p95",
        Measured::new(stats::percentile(&o.queue_depth, 95.0), o.queue_depth.len()),
    );
    layers.put(
        "loadgen.late_p99_ms",
        Measured::new(stats::percentile(&o.late_ms, 99.0), o.late_ms.len()),
    );
    layers.put(
        "loadgen.probe_period_ms",
        Measured::median(&o.probe_period_ms),
    );
}

/// The daemon-side read layers: per-class round trips, and what of them
/// the in-process handler accounts for.
fn put_read_daemon_layers(layers: &mut Layers, tracer: &Tracer, s: &ReadSample) {
    let p50_us = |class: Class| {
        let us: Vec<f64> = s
            .outcome
            .latencies_ms(class)
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        Measured::median(&us)
    };
    let by_class = [
        ("server.routes.density_us", Class::Density),
        ("server.routes.region_hot_us", Class::RegionHot),
        ("server.routes.slice_us", Class::Slice),
        ("server.routes.region_wide_us", Class::RegionWide),
        ("server.routes.region_approx_us", Class::RegionApprox),
    ];
    for (name, class) in by_class {
        layers.put(name, p50_us(class));
    }
    let (before, after) = s.cache;
    let (hits, misses) = (
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    );
    layers.put(
        "server.cache.hit_ratio",
        Measured::new(
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses).max(1) as usize,
        ),
    );

    // The in-process read layers, on the cube the daemon held.
    let mut rng = crate::rng::Rng::new(0x7769_6465);
    let wide: Vec<_> = (0..REPLAYED_QUERIES)
        .map(|_| read_load::wide_box(&mut rng))
        .collect();
    let live = &s.plan.events[s.plan.preload.clone()];
    let svc = layers::read_layers(layers, tracer, live, s.plan.window, &wide);
    let paths = |class: Class| -> Vec<String> {
        s.plan
            .queries(0, 9)
            .filter(|q| q.class == class)
            .take(REPLAYED_QUERIES)
            .map(|q| q.path)
            .collect()
    };
    for (name, class) in [
        ("server.http.overhead_density_us", Class::Density),
        ("server.http.overhead_slice_us", Class::Slice),
    ] {
        let handled = tracer.time("server.routes.handle", || {
            layers::handle_us(&svc, &paths(class))
        });
        layers.put(
            name,
            Measured::new(p50_us(class).value() - handled.value(), REPLAYED_QUERIES),
        );
    }
    svc.shutdown();
}

/// `trace.*` from one phase's `(latency, traced)` ops: how much slower
/// the median traced op was than the median untraced op beside it, and
/// how much of the median op no child span covers.
fn put_trace_shares(layers: &mut Layers, tracer: &Tracer, ops: impl Iterator<Item = (f64, bool)>) {
    let (traced, plain): (Vec<_>, Vec<_>) = ops.partition(|&(_, traced)| traced);
    let p50 = |ops: &[(f64, bool)]| stats::median(&ops.iter().map(|o| o.0).collect::<Vec<_>>());
    layers.put(
        "trace.overhead_share",
        Measured::new((p50(&traced) - p50(&plain)) / p50(&plain), traced.len()),
    );
    let shares = tracer.unattributed_shares("op");
    layers.put("trace.unattributed_share", Measured::median(&shares));
}

/// The served window as one batch problem for the batch-layer probes.
fn window_problem(events: &[stkde_data::Point]) -> (Domain, Bandwidth, PointSet) {
    let events = &events[..events.len().min(WINDOW_PROBLEM_EVENTS)];
    (
        serve::domain(),
        serve::bandwidth(),
        PointSet::from_vec(events.to_vec()),
    )
}

/// The traced run of `workload`.
pub fn run(workload: &'static str, opts: &Opts) -> io::Result<Report> {
    let bin = daemon::binary(opts).map_err(io::Error::other)?;
    let tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    // A workload's own phase runs traced at full length, the others as a
    // short untraced reference.
    let phase_of = |name: &str| {
        if workload == name {
            (opts.seconds, Some(&tracer))
        } else {
            (REFERENCE_SECONDS, None)
        }
    };

    let spec = match workload {
        "batch_dense" => Some(&batch::DENSE),
        "batch_sparse" => Some(&batch::SPARSE),
        _ => None,
    };
    let batch_input = spec.map(|spec| {
        let input = batch::setup(spec, opts.seed);
        let pool_before = layers::local_registry();
        let phase = batch::timed_phase(&input, opts.seconds, Some(&tracer));
        layers::put_pool_activity(&mut layers, &pool_before, &layers::local_registry());
        let ops = phase.ops_ms.iter().copied().zip(phase.traced);
        put_trace_shares(&mut layers, &tracer, ops);
        attempted += phase.ops_ms.len() as u64;
        failed += phase.failed;
        notes.push(input.describe());
        input
    });

    let (seconds, traced) = phase_of("serve_write");
    let write = write_sample(&bin, opts, seconds, traced)?;
    if traced.is_some() {
        let ops = write.outcome.ops_ms.iter().copied();
        put_trace_shares(
            &mut layers,
            &tracer,
            ops.zip(write.outcome.traced.iter().copied()),
        );
        layers::put_pool_activity(&mut layers, &write.before, &write.after);
    }
    put_write_daemon_layers(&mut layers, &write);
    let plan = &write.plan;
    layers::write_layers(&mut layers, &tracer, &plan.events, LIVE_EVENTS, plan.window);

    let (seconds, traced) = phase_of("serve_read");
    let read = read_sample(&bin, opts, seconds, 1, traced)?;
    if traced.is_some() {
        let ops = read.outcome.done.iter().map(|d| (d.latency_ms, d.traced));
        put_trace_shares(&mut layers, &tracer, ops);
        layers::put_pool_activity(&mut layers, &read.before, &read.after);
    }
    put_read_daemon_layers(&mut layers, &tracer, &read);

    // The batch layers: on the batch workload's instance, or on the cube
    // the serve workload serves.
    let (domain, bw, points) = match (&batch_input, workload) {
        (Some(input), _) => (
            input.instance.domain(),
            input.instance.bandwidth(),
            input.points.clone(),
        ),
        (None, "serve_write") => window_problem(&plan.events[plan.preload.clone()]),
        (None, _) => window_problem(&read.plan.events[read.plan.preload.clone()]),
    };
    layers::kernel_layers(&mut layers, &tracer, opts.seed);
    layers::batch_layers(&mut layers, &tracer, domain, bw, &points, batch::threads());

    for (outcome_attempted, outcome_failed, checked) in [
        (write.outcome.attempted, write.outcome.failed, write.checked),
        (read.outcome.attempted, read.outcome.failed, read.checked),
    ] {
        attempted += outcome_attempted + checked.0;
        failed += outcome_failed + checked.1;
    }
    let path = opts.out_dir.join(format!("trace_{workload}.json"));
    tracer.write_json(&path, workload, opts.seed, &opts.commit)?;
    notes.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(Report {
        workload,
        attempted,
        failed,
        metrics: layers.into_metrics(),
        notes,
    })
}
