//! The two batch workloads: `Stkde::compute::<f32>` with `Algorithm::Auto`
//! on all cores, back to back from one caller.
//!
//! `batch_dense` and `batch_sparse` are the same call used two ways
//! round. On the dense instance (few events, fat cylinders) nearly all of
//! the time is the scatter; on the sparse one (a large grid, thin
//! cylinders) about half of it is allocating and zeroing the grid. A
//! change that speeds one phase at the other's cost gains on one workload
//! and loses on the other.

use crate::oracle::AnswerKey;
use crate::phase::{self, Part};
use crate::report::{EndToEnd, Measured, Report};
use crate::rng::Rng;
use crate::stats::{self, PARTS};
use crate::trace::Tracer;
use crate::{procfs, Opts};
use std::time::Instant;
use stkde_core::{Algorithm, PhaseTimings, Stkde, StkdeResult};
use stkde_data::synth::{ClusterSpec, Seasonality};
use stkde_data::{catalog, Instance, PointSet};

/// How a batch workload derives its instance from the Table 2 catalog.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub name: &'static str,
    /// The catalog row whose grid shape, bandwidths and clustering the
    /// instance keeps.
    pub catalog: &'static str,
    /// Voxel budget handed to `Instance::scaled_to_budgets`. Both grids
    /// stay above 32 MiB of `f32`, glibc's largest mmap threshold, so
    /// every op gets fresh zero pages from the kernel, as a full-size
    /// instance does, instead of recycled heap.
    pub max_voxels: usize,
    /// Events of the instance, sized so one op takes about 50 ms here and
    /// every part of a run collects the 40 ops the tail percentile needs.
    pub events: usize,
    /// The fixed tail percentile of `op_tail_ms`.
    pub tail_pct: f64,
}

/// Dengue Hr-Hb: Hs 50 / Ht 1 voxels, ~24 k voxel updates per event, twelve
/// updates per voxel of the grid.
pub const DENSE: BatchSpec = BatchSpec {
    name: "batch_dense",
    catalog: "Dengue_Hr-Hb",
    max_voxels: 10 << 20,
    events: 5000,
    tail_pct: 75.0,
};

/// Flu Mr-Hb: Hs 4 / Ht 7 voxels on a grid more than twice the dense one,
/// a fifth of an update per voxel.
pub const SPARSE: BatchSpec = BatchSpec {
    name: "batch_sparse",
    catalog: "Flu_Mr-Hb",
    max_voxels: 24 << 20,
    events: 4000,
    tail_pct: 75.0,
};

/// Voxels of each result compared with the exact `f64` answer.
const CHECKED_VOXELS: usize = 10_000;
/// An `f32` cube may miss the exact density by this share of the peak.
const F32_TOLERANCE: f64 = 1e-4;

/// Everything a batch op needs, generated from the seed.
#[derive(Debug)]
pub struct BatchInput {
    pub instance: Instance,
    pub points: PointSet,
    pub key: AnswerKey,
    pub engine: Stkde,
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Generate the instance, its events and the answer key.
pub fn prepare(spec: &BatchSpec, seed: u64) -> BatchInput {
    let instance = catalog::by_name(spec.catalog)
        .expect("the spec names a Table 2 row")
        .scaled_to_budgets(spec.max_voxels, usize::MAX, f64::INFINITY);
    // The instance keeps the row's grid shape and bandwidths; its events
    // are draws from the dataset's cluster process (count, spread,
    // anisotropy, background) with equal cluster weights and no season. The
    // catalog profiles are heavy-tailed, which makes the load balance
    // between two threads — and with it op time and PD-REP's buffers — a
    // property of the seed; with equal clusters every seed has the same
    // large-scale load.
    let process = ClusterSpec {
        weight_tail: 0.0,
        seasonality: Seasonality::None,
        ..instance.dataset.profile()
    };
    let points = process.generate(spec.events, instance.domain().extent(), seed);
    let mut rng = Rng::new(seed ^ 0x6b65_7973);
    let key = AnswerKey::build(
        &mut rng,
        &instance.domain(),
        instance.bandwidth(),
        points.as_slice(),
        CHECKED_VOXELS,
    );
    let engine = Stkde::new(instance.domain(), instance.bandwidth())
        .algorithm(Algorithm::Auto)
        .threads(threads());
    BatchInput {
        instance,
        points,
        key,
        engine,
    }
}

impl BatchInput {
    /// One op: the call a user waits for.
    pub fn compute(&self) -> StkdeResult<f32> {
        self.engine
            .compute::<f32>(&self.points)
            .expect("Auto on a catalog instance is a valid configuration")
    }

    /// `true` when the cube matches the answer key.
    pub fn check(&self, result: &StkdeResult<f32>) -> bool {
        let got = self
            .key
            .voxels
            .iter()
            .map(|&(x, y, t)| f64::from(result.grid.get(x, y, t)));
        self.key.mismatches(got, 0.0, F32_TOLERANCE) == 0
    }

    pub fn describe(&self) -> String {
        let d = self.instance.params.dims;
        format!(
            "{} scaled: grid {}x{}x{} ({:.0} MiB f32), Hs {} Ht {}, {} events, {} threads",
            self.instance.name(),
            d.gx,
            d.gy,
            d.gt,
            self.instance.grid_mib(),
            self.instance.params.hs,
            self.instance.params.ht,
            self.points.len(),
            threads()
        )
    }
}

/// Set up one part: generate its inputs and run one warm op, which spins
/// up the pool, faults in the code and is checked like every other.
pub fn setup(spec: &BatchSpec, seed: u64) -> BatchInput {
    let input = prepare(spec, seed);
    assert!(
        input.check(&input.compute()),
        "warm-up op gave a wrong cube"
    );
    input
}

/// The ops of one timed phase.
#[derive(Debug, Default)]
pub struct BatchPhase {
    /// Op latencies in ms.
    pub ops_ms: Vec<f64>,
    /// Whether each op recorded spans.
    pub traced: Vec<bool>,
    /// Events computed, wall and CPU of the whole phase, including what a
    /// caller pays between two ops (here: the check and the drop).
    pub part: Part,
    pub failed: u64,
    pub algorithm: Option<Algorithm>,
}

/// Run ops back to back for `seconds`. With a tracer, every second op
/// records a span and one child per phase the program reports in
/// `PhaseTimings`; the ops in between run untraced beside them, so the
/// two populations see the same machine.
pub fn timed_phase(input: &BatchInput, seconds: f64, tracer: Option<&Tracer>) -> BatchPhase {
    let mut out = BatchPhase::default();
    let cpu = || procfs::cpu_seconds("self").expect("/proc/self/stat is readable");
    let (begin, cpu_begin) = (Instant::now(), cpu());
    while begin.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let result = input.compute();
        let end = Instant::now();
        let traced = out.ops_ms.len() % 2 == 1;
        if let Some(t) = tracer.filter(|_| traced) {
            record_op(t, out.ops_ms.len() as u64 + 1, start, end, &result.timings);
        }
        out.traced.push(traced && tracer.is_some());
        out.ops_ms.push((end - start).as_secs_f64() * 1e3);
        if !input.check(&result) {
            out.failed += 1;
        }
        out.algorithm = Some(result.algorithm);
    }
    out.part = Part {
        seconds: begin.elapsed().as_secs_f64(),
        items: (out.ops_ms.len() * input.points.len()) as f64,
        cpu_s: cpu() - cpu_begin,
    };
    out
}

fn record_op(t: &Tracer, op: u64, start: Instant, end: Instant, timings: &PhaseTimings) {
    let (start_us, end_us) = (t.at_us(start), t.at_us(end));
    let id = t.record(None, op, "op", start_us, end_us);
    // The program reports phase durations, not instants; they run in this
    // order from the start of the call.
    let mut cursor = start_us;
    for (name, d) in [
        ("core.init", timings.init),
        ("core.bin", timings.bin),
        ("core.compute", timings.compute),
        ("core.reduce", timings.reduce),
    ] {
        let len = d.as_secs_f64() * 1e6;
        if len > 0.0 {
            t.record(Some(id), op, name, cursor, cursor + len);
            cursor += len;
        }
    }
}

/// The end-to-end run of a batch workload: [`PARTS`] parts, each with
/// inputs of its own drawn from the seed.
pub fn run(spec: &BatchSpec, opts: &Opts) -> Report {
    let (mut setups, mut phases, mut notes) = (Vec::new(), Vec::new(), Vec::new());
    for part in 0..PARTS {
        let start = Instant::now();
        let input = setup(spec, stats::part_seed(opts.seed, part));
        setups.push(start.elapsed().as_secs_f64());
        phases.push(timed_phase(&input, opts.seconds / PARTS as f64, None));
        if part == 0 {
            notes.push(input.describe());
            notes.push(format!(
                "every op checked at {CHECKED_VOXELS} voxels against the f64 kernel sum, \
                 tolerance {F32_TOLERANCE} of the peak {:.3e}",
                input.key.peak
            ));
        }
    }
    let ops: Vec<Vec<f64>> = phases.iter().map(|p| p.ops_ms.clone()).collect();
    let parts: Vec<Part> = phases.iter().map(|p| p.part).collect();
    let peak = procfs::peak_rss_mib("self").expect("/proc/self/status is readable");
    let e2e = EndToEnd {
        setup_s: Measured::median(&setups),
        op_p50_ms: Measured::median_of_parts(&ops, 50.0),
        op_tail_ms: Measured::median_of_parts(&ops, spec.tail_pct),
        throughput_per_s: phase::throughput(&parts),
        cpu_us_per_item: phase::cpu_us_per_item(&parts),
        peak_rss_mib: Measured::new(peak, 1),
    };
    let counts: Vec<usize> = ops.iter().map(Vec::len).collect();
    notes.push(format!(
        "Auto -> {}; ops per part {counts:?}; tail p{} (highest supported: {})",
        phases[0].algorithm.map_or("?", |a| a.name()),
        spec.tail_pct,
        stats::highest_supported_tail(&counts).map_or("none".to_string(), |p| format!("p{p}")),
    ));
    Report {
        workload: spec.name,
        attempted: counts.iter().sum::<usize>() as u64,
        failed: phases.iter().map(|p| p.failed).sum(),
        metrics: e2e.metrics(),
        notes,
    }
}
