//! CI bench regression guard.
//!
//! Usage: `bench_guard [--only PREFIX] <current.jsonl> <baseline.jsonl> [max_ratio]`
//!
//! Both files hold one JSON object per line, as emitted by the criterion
//! shim under `STKDE_BENCH_JSON`: `{"id":"group/name","best_s":1.2e-3}`.
//! For every benchmark id present in *both* files the guard computes
//!
//! ```text
//! ratio = (current / current_calib) / (baseline / baseline_calib)
//! ```
//!
//! where `*_calib` is the fixed single-thread arithmetic burn recorded as
//! `work_stealing_t8/calib` — normalizing by it makes the committed
//! baseline portable across machines of different *single-thread* speed.
//! If calibration is missing on either side the raw time ratio is used.
//! Any benchmark slower than `max_ratio` (default 2.0) fails the run with
//! exit code 1 — the calibrated absolute budget that holds the scatter
//! engine (`scatter/*_engine`) and the scheduler
//! (`work_stealing_t8/parity_classes_steal`).
//!
//! Calibration cannot correct for a different *core count* (the baseline
//! is recorded wherever it was recorded; what a concurrency bench
//! measures moves with the cores while the calib burn does not), so the
//! per-id ratio judges only the compute families. The ids under
//! [`PER_ID_EXEMPT`] — the saturation family, the parallel sparse
//! scatter, and records that are counts rather than times — are held by
//! their family's `--geomean` gate and by in-run bounds, both sides of
//! which come from the same process. The sharded serve path is held to
//! three absolute bounds over the saturation bench's records, each with
//! at least 2x headroom over the committed baseline: under 8 saturating
//! readers, (1) the readers may slow ingest only by a bounded factor
//! (both sides of the ratio come from the same process), (2) the
//! writer's lock-stall must stay in the sub-millisecond range — snapshot
//! readers exclude the writer only for an `Arc` swap, never for a full
//! read fold — and (3) the snapshot-read p99 must stay under a
//! compute-bound budget.
//!
//! Ids only present on one side are reported but never fail the run, so
//! adding or retiring benchmarks does not require touching the baseline
//! in the same change.
//!
//! `--only PREFIX` restricts the comparison (and the in-run invariants)
//! to ids starting with `PREFIX`. CI's observability-overhead gate uses
//! this to compare a scatter-only obs-enabled run against the obs-off
//! run from the same job at a tight threshold, without demanding that
//! the obs run re-execute every other bench. Calibration still comes
//! from `work_stealing_t8/calib` when both sides carry it.
//!
//! `--geomean` changes the pass criterion from per-benchmark to the
//! *geometric mean* ratio over the compared set. Per-id wall-clock on
//! this container jitters by several percent run to run, so a 1%
//! per-id gate would flake on noise; a systematic overhead (which is
//! what instrumentation adds) moves every id together and survives in
//! the geomean, while idiosyncratic jitter averages out. The overhead
//! gates use `--geomean`; the 2x regression guard stays per-id.

use std::collections::BTreeMap;
use std::process::ExitCode;

const CALIB_ID: &str = "work_stealing_t8/calib";
/// Id prefixes the per-id ratio does not judge (see the module docs);
/// their ratios still print, and still count in a `--geomean`.
const PER_ID_EXEMPT: [&str; 3] = [
    "saturation/",
    "sparse/flu_scatter_par_",
    "approx/bound_violations",
];
const SAT_SHARDED_NOREADERS_ID: &str = "saturation/sharded_ingest_noreaders";
const SAT_SHARDED_READERS_ID: &str = "saturation/sharded_ingest_readers8";
const SAT_SHARDED_STALL_ID: &str = "saturation/sharded_stall_readers8";
const SAT_SHARDED_P99_ID: &str = "saturation/sharded_read_p99_readers8";
const APPROX_EXACT_ID: &str = "approx/region_exact_full";
const APPROX_COARSE_ID: &str = "approx/region_approx_coarsest";
const APPROX_VIOLATIONS_ID: &str = "approx/bound_violations";
const SPARSE_SEQ_ID: &str = "sparse/flu_scatter_seq";
const SPARSE_PAR_ID: &str = "sparse/flu_scatter_par_t8";
/// The shared-grid parallel sparse scatter at 8 threads must not lose to
/// the sequential path it wraps. On a 1-core host the adaptive slab
/// count collapses to one slab and the parallel path is the sequential
/// loop, so the slack is that noise floor, not a performance budget; on
/// multicore hosts the instance's milliseconds of scatter dwarf the pool
/// dispatch and the ratio is well below 1.
const SPARSE_PAR_SLACK: f64 = 1.10;
/// How much 8 saturating readers may slow ingest (`readers8 /
/// noreaders`, same process). On a small host most of this is plain CPU
/// sharing — 10 threads on a couple of cores, and quick runs jitter by
/// several x there — so the bound is not a parity claim: the committed
/// baseline shows 4.6x, a writer that shares a lock with its readers
/// shows ~70x.
const SAT_READER_PENALTY_BOUND: f64 = 20.0;
/// Absolute bound on the writer's mean lock-stall per ingested stream
/// under 8 readers. Readers only exclude the writer for an `Arc` clone,
/// so the baseline stall is 2.7 us; a writer that waits out even one
/// read fold per stream lands in the milliseconds.
const SAT_STALL_BOUND_S: f64 = 5e-4;
/// Absolute bound on the reader-side p99 with snapshot reads: a snapshot
/// fold never waits on the writer, so its tail is compute-bound.
const SAT_P99_BOUND_S: f64 = 0.25;
/// The coarsest-level full-grid region must beat the exact fold by at
/// least this factor: the pyramid exists to make wide queries cheap, and
/// the coarsest walk touches a few hundred cells where the exact fold
/// touches the full 64x64x32 volume. Measured headroom is far larger;
/// 8x is the floor below which the fast path has stopped being one.
const APPROX_SPEEDUP_MIN: f64 = 8.0;
/// `approx/bound_violations` records the number of random queries whose
/// answer escaped its certified bound, offset by 1e-9 to satisfy the
/// positive-time parser. Any value >= 1 means a real violation — the
/// bound is a proof obligation, not a quality target, so the budget is
/// exactly zero.
const APPROX_VIOLATIONS_BOUND: f64 = 1.0;
const DEFAULT_MAX_RATIO: f64 = 2.0;

/// Extract `"key":<string>` and `"key":<number>` from one flat JSON line.
fn parse_line(line: &str) -> Option<(String, f64)> {
    let id_key = "\"id\":\"";
    let start = line.find(id_key)? + id_key.len();
    let end = start + line[start..].find('"')?;
    let id = line[start..end].to_string();

    let best_key = "\"best_s\":";
    let vstart = line.find(best_key)? + best_key.len();
    let rest = &line[vstart..];
    let vend = rest.find([',', '}']).unwrap_or(rest.len());
    let best_s = rest[..vend].trim().parse::<f64>().ok()?;
    (best_s.is_finite() && best_s > 0.0).then_some((id, best_s))
}

/// Map of benchmark id -> best seconds. Duplicate ids keep the *minimum*:
/// `best_s` is already a best-of-batches floor, so appending repeated runs
/// to one file (as CI's overhead gates do) tightens the estimate instead
/// of overwriting it.
fn load(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut map: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            Some((id, s)) => {
                map.entry(id)
                    .and_modify(|cur| *cur = cur.min(s))
                    .or_insert(s);
            }
            None => return Err(format!("{path}: unparsable bench record: {line}")),
        }
    }
    if map.is_empty() {
        return Err(format!("{path}: no benchmark records"));
    }
    Ok(map)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut only: Option<String> = None;
    let mut geomean = false;
    let mut args = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--only" {
            match it.next() {
                Some(p) => only = Some(p),
                None => {
                    eprintln!("bench_guard: --only needs a PREFIX");
                    return ExitCode::from(2);
                }
            }
        } else if a == "--geomean" {
            geomean = true;
        } else {
            args.push(a);
        }
    }
    let (current_path, baseline_path) = match args.as_slice() {
        [c, b] | [c, b, _] => (c.as_str(), b.as_str()),
        _ => {
            eprintln!(
                "usage: bench_guard [--only PREFIX] [--geomean] \
                 <current.jsonl> <baseline.jsonl> [max_ratio]"
            );
            return ExitCode::from(2);
        }
    };
    let max_ratio = args
        .get(2)
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(DEFAULT_MAX_RATIO);
    let selected = |id: &str| only.as_deref().is_none_or(|p| id.starts_with(p));

    let (current, baseline) = match (load(current_path), load(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for err in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("bench_guard: {err}");
            }
            return ExitCode::from(2);
        }
    };

    // Machine-speed normalization via the fixed arithmetic burn.
    let speed = match (current.get(CALIB_ID), baseline.get(CALIB_ID)) {
        (Some(&c), Some(&b)) => {
            println!("calibration {CALIB_ID}: current {c:.3e}s, baseline {b:.3e}s");
            c / b
        }
        _ => {
            println!("calibration {CALIB_ID} missing on one side; using raw ratios");
            1.0
        }
    };

    let mut failures = Vec::new();
    let mut log_ratio_sum = 0.0;
    let mut compared = 0usize;
    println!(
        "{:<45} {:>12} {:>12} {:>8}",
        "benchmark", "current", "baseline", "ratio"
    );
    for (id, &cur) in &current {
        if id == CALIB_ID || !selected(id) {
            continue;
        }
        let Some(&base) = baseline.get(id) else {
            println!("{id:<45} {cur:>12.3e} {:>12} {:>8}", "(new)", "-");
            continue;
        };
        let ratio = (cur / base) / speed;
        log_ratio_sum += ratio.ln();
        compared += 1;
        let exempt = PER_ID_EXEMPT.iter().any(|p| id.starts_with(p));
        let per_id_fail = !geomean && !exempt && ratio > max_ratio;
        let flag = if per_id_fail { " REGRESSION" } else { "" };
        println!("{id:<45} {cur:>12.3e} {base:>12.3e} {ratio:>8.2}{flag}");
        if per_id_fail {
            failures.push((id.clone(), ratio));
        }
    }
    if geomean {
        if compared == 0 {
            eprintln!("bench_guard: --geomean with no common benchmarks to compare");
            return ExitCode::from(2);
        }
        let gm = (log_ratio_sum / compared as f64).exp();
        println!("geometric mean over {compared} benchmark(s): {gm:.4} (limit {max_ratio})");
        if gm > max_ratio {
            failures.push((format!("geomean over {compared} benchmarks"), gm));
        }
    }
    for id in baseline.keys() {
        if id != CALIB_ID && selected(id) && !current.contains_key(id) {
            println!("{id:<45} {:>12} (baseline only)", "-");
        }
    }

    // Saturation bounds. The sharded serve path exists to decouple reads
    // from ingest; the direct measure of that isolation is the writer's
    // lock-stall under saturating readers — wall-clock ingest comparisons
    // conflate it with plain CPU sharing on small hosts (see the
    // saturation bench docs), so the reader penalty gets the looser
    // bound. If the writer starts waiting out read folds, or the
    // snapshot-read tail blows past its compute-bound budget, the
    // isolation has regressed.
    if selected(SAT_SHARDED_STALL_ID) {
        if let (Some(&readers), Some(&alone)) = (
            current.get(SAT_SHARDED_READERS_ID),
            current.get(SAT_SHARDED_NOREADERS_ID),
        ) {
            let penalty = readers / alone;
            println!(
                "saturation invariant: reader penalty on ingest = {penalty:.1}x \
                 (must be < {SAT_READER_PENALTY_BOUND}x)"
            );
            if penalty >= SAT_READER_PENALTY_BOUND {
                failures.push((
                    "saturation reader-penalty invariant".to_string(),
                    penalty / SAT_READER_PENALTY_BOUND,
                ));
            }
        }
        if let Some(&stall) = current.get(SAT_SHARDED_STALL_ID) {
            println!(
                "saturation invariant: writer stall = {stall:.3e}s \
                 (must be < {SAT_STALL_BOUND_S}s)"
            );
            if stall >= SAT_STALL_BOUND_S {
                failures.push((
                    "saturation writer-stall invariant".to_string(),
                    stall / SAT_STALL_BOUND_S,
                ));
            }
        }
        if let Some(&p99) = current.get(SAT_SHARDED_P99_ID) {
            println!(
                "saturation invariant: snapshot read p99 = {p99:.3e}s \
                 (must be < {SAT_P99_BOUND_S}s)"
            );
            if p99 >= SAT_P99_BOUND_S {
                failures.push((
                    "saturation read-p99 invariant".to_string(),
                    p99 / SAT_P99_BOUND_S,
                ));
            }
        }
    }

    // In-run approximate-serving invariants (same machine-independence
    // argument: both records come from the same process). The pyramid
    // fast path must actually be fast — a coarsest-level full-grid
    // answer that only marginally beats the exact fold means the level
    // walk or the per-cell fold has regressed — and the certified bound
    // must hold on every random query the bench replayed.
    if selected(APPROX_COARSE_ID) {
        if let (Some(&exact), Some(&coarse)) =
            (current.get(APPROX_EXACT_ID), current.get(APPROX_COARSE_ID))
        {
            let speedup = exact / coarse;
            println!(
                "approx invariant: exact/coarsest region speedup = {speedup:.1}x \
                 (must be >= {APPROX_SPEEDUP_MIN}x)"
            );
            if speedup < APPROX_SPEEDUP_MIN {
                failures.push((
                    "approx coarsest-speedup in-run invariant".to_string(),
                    APPROX_SPEEDUP_MIN / speedup,
                ));
            }
        }
        if let Some(&violations) = current.get(APPROX_VIOLATIONS_ID) {
            println!(
                "approx invariant: certified-bound violations = {:.0} \
                 (must be 0)",
                violations.floor()
            );
            if violations >= APPROX_VIOLATIONS_BOUND {
                failures.push((
                    "approx certified-bound in-run invariant".to_string(),
                    violations,
                ));
            }
        }
    }

    // In-run sparse-grid invariant (same machine-independence argument:
    // both sides of the ratio come from the same process). The parallel
    // sparse scatter shares one grid through lock-free brick allocation —
    // if it loses to the sequential loop, the sharing has regressed.
    if selected(SPARSE_PAR_ID) {
        if let (Some(&par), Some(&seq)) = (current.get(SPARSE_PAR_ID), current.get(SPARSE_SEQ_ID)) {
            let ratio = par / seq;
            println!("sparse invariant: par_t8/seq = {ratio:.2} (must be < {SPARSE_PAR_SLACK})");
            if ratio >= SPARSE_PAR_SLACK {
                failures.push(("sparse par/seq in-run invariant".to_string(), ratio));
            }
        }
    }

    if failures.is_empty() {
        println!("bench_guard: OK (threshold {max_ratio}x, speed factor {speed:.2})");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_guard: {} benchmark(s) regressed beyond {max_ratio}x:",
            failures.len()
        );
        for (id, ratio) in &failures {
            eprintln!("  {id}: {ratio:.2}x");
        }
        ExitCode::FAILURE
    }
}
