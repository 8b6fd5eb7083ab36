//! Live metric registry: atomic cells behind `Copy` handles, rendered
//! in the Prometheus text exposition format.
//!
//! The registry is a `Mutex<BTreeMap>` of families; the mutex is taken
//! on handle *creation* and on *render* only. Handles are references
//! into `Box::leak`ed cells, so recording never locks — metric cells
//! live for the process lifetime by design (bounded by the number of
//! distinct (name, labels) pairs, which is small and static here).

use crate::Kind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Finite histogram bucket upper bounds are `2^k` for
/// `k ∈ [MIN_EXP, MAX_EXP]` — ~1 ns to ~2·10⁹ when observing seconds,
/// and 1 to ~2·10⁹ when observing sizes. One more bucket catches
/// everything above (`+Inf`).
const MIN_EXP: i32 = -30;
const MAX_EXP: i32 = 31;
const FINITE_BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize;
const NBUCKETS: usize = FINITE_BUCKETS + 1;

/// Bucket index for an observation: the smallest `2^k ≥ v` (so bounds
/// are inclusive upper bounds, as Prometheus `le` requires), clamped
/// into range. Non-positive and NaN observations land in the first
/// bucket.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let e = v.log2().ceil() as i32;
    if e < MIN_EXP {
        0
    } else if e > MAX_EXP {
        NBUCKETS - 1
    } else {
        (e - MIN_EXP) as usize
    }
}

/// `(lower, upper]` bounds of bucket `i`; the last bucket's upper
/// bound is `+Inf`.
fn bucket_bounds(i: usize) -> (f64, f64) {
    let lo = if i == 0 {
        0.0
    } else {
        2f64.powi(MIN_EXP + i as i32 - 1)
    };
    let hi = if i >= FINITE_BUCKETS {
        f64::INFINITY
    } else {
        2f64.powi(MIN_EXP + i as i32)
    };
    (lo, hi)
}

/// Monotone `u64` tally. `Copy`; cheap to stash in structs.
#[derive(Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (Relaxed; may lag concurrent writers).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins `f64` level (stored as bits in an `AtomicU64`).
#[derive(Clone, Copy)]
pub struct Gauge(&'static AtomicU64);

impl Gauge {
    /// Set the level.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The cell behind a [`Histogram`] handle.
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; NBUCKETS],
    count: AtomicU64,
    /// `f64` bits, updated by CAS — observe() is batch/request-scale,
    /// not per-voxel, so the loop never contends meaningfully.
    sum_bits: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }
}

/// Log₂-bucketed `f64` distribution.
#[derive(Clone, Copy)]
pub struct Histogram(&'static HistogramCell);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let cell = self.0;
        cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = cell.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match cell.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`q ∈ [0, 1]`) by linear
    /// interpolation inside the covering bucket — the same estimate
    /// Prometheus's `histogram_quantile` would compute from the
    /// exported buckets. Returns 0 for an empty histogram; for mass in
    /// the `+Inf` bucket, returns that bucket's lower bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let (lo, hi) = bucket_bounds(i);
                if !hi.is_finite() {
                    return lo;
                }
                let frac = (target - cum) as f64 / c as f64;
                return lo + (hi - lo) * frac;
            }
            cum += c;
        }
        0.0
    }
}

enum CellRef {
    Counter(&'static AtomicU64),
    Gauge(&'static AtomicU64),
    Histogram(&'static HistogramCell),
}

struct Family {
    kind: Kind,
    help: String,
    /// Instances keyed by their rendered (escaped, comma-joined) label
    /// pairs; `""` is the unlabeled instance. Cells are leaked once at
    /// creation so handles can be `Copy + 'static`.
    instances: BTreeMap<String, &'static CellRef>,
}

/// A metric registry. [`global()`] is the process-wide one every
/// instrumentation site records into; fresh registries are for tests
/// and for one-shot renders of external data (the per-rank comm dump).
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            families: Mutex::new(BTreeMap::new()),
        }
    }

    /// Declare a family's help text (and kind) up front, so it renders
    /// with `# HELP`/`# TYPE` — and a zero-valued sample, if no
    /// instance exists yet. Idempotent; later calls overwrite help.
    pub fn describe(&self, name: &str, kind: Kind, help: &str) {
        let mut fams = self.families.lock().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: String::new(),
            instances: BTreeMap::new(),
        });
        assert_kind(name, fam.kind, kind);
        fam.help = help.to_string();
    }

    /// The counter for `(name, labels)`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind — two call
    /// sites disagreeing about a metric's type is a programming error
    /// worth failing loudly on.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let cell = self.cell(name, labels, Kind::Counter, || {
            CellRef::Counter(Box::leak(Box::new(AtomicU64::new(0))))
        });
        match cell {
            &CellRef::Counter(c) => Counter(c),
            // `cell` guarantees the kind matches the constructor.
            _ => unreachable!(),
        }
    }

    /// The gauge for `(name, labels)`, created on first use.
    ///
    /// # Panics
    /// On kind mismatch, as for [`Registry::counter`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let cell = self.cell(name, labels, Kind::Gauge, || {
            CellRef::Gauge(Box::leak(Box::new(AtomicU64::new(0f64.to_bits()))))
        });
        match cell {
            &CellRef::Gauge(g) => Gauge(g),
            _ => unreachable!(),
        }
    }

    /// The histogram for `(name, labels)`, created on first use.
    ///
    /// # Panics
    /// On kind mismatch, as for [`Registry::counter`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let cell = self.cell(name, labels, Kind::Histogram, || {
            CellRef::Histogram(Box::leak(Box::new(HistogramCell::new())))
        });
        match cell {
            &CellRef::Histogram(h) => Histogram(h),
            _ => unreachable!(),
        }
    }

    fn cell(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> CellRef,
    ) -> &'static CellRef {
        let key = render_labels(labels);
        let mut fams = self.families.lock().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: String::new(),
            instances: BTreeMap::new(),
        });
        assert_kind(name, fam.kind, kind);
        fam.instances
            .entry(key)
            .or_insert_with(|| &*Box::leak(Box::new(make())))
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format (families sorted by name, instances by label set).
    ///
    /// Values are read without a snapshot: a scrape racing writers may
    /// see a sum slightly behind its count, which monitoring
    /// consumers tolerate by design.
    pub fn render(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::with_capacity(4096);
        for (name, fam) in fams.iter() {
            if !fam.help.is_empty() {
                out.push_str("# HELP ");
                out.push_str(name);
                out.push(' ');
                out.push_str(&escape_help(&fam.help));
                out.push('\n');
            }
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(fam.kind.as_str());
            out.push('\n');
            if fam.instances.is_empty() {
                render_zero(&mut out, name, fam.kind);
            }
            for (labels, cell) in &fam.instances {
                match cell {
                    CellRef::Counter(c) => {
                        push_sample(
                            &mut out,
                            name,
                            labels,
                            &c.load(Ordering::Relaxed).to_string(),
                        );
                    }
                    CellRef::Gauge(g) => {
                        let v = f64::from_bits(g.load(Ordering::Relaxed));
                        push_sample(&mut out, name, labels, &fmt_value(v));
                    }
                    CellRef::Histogram(h) => render_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

fn assert_kind(name: &str, have: Kind, want: Kind) {
    assert!(
        have == want,
        "metric `{name}` registered as {} but used as {}",
        have.as_str(),
        want.as_str()
    );
}

/// `name{labels} value\n`, eliding the braces for the unlabeled
/// instance.
fn push_sample(out: &mut String, name: &str, labels: &str, value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn render_zero(out: &mut String, name: &str, kind: Kind) {
    match kind {
        Kind::Counter | Kind::Gauge => push_sample(out, name, "", "0"),
        Kind::Histogram => {
            push_sample(out, &format!("{name}_bucket"), "le=\"+Inf\"", "0");
            push_sample(out, &format!("{name}_sum"), "", "0");
            push_sample(out, &format!("{name}_count"), "", "0");
        }
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &str, h: &HistogramCell) {
    let bucket_name = format!("{name}_bucket");
    let mut cum = 0u64;
    for i in 0..FINITE_BUCKETS {
        let c = h.buckets[i].load(Ordering::Relaxed);
        if c == 0 {
            continue;
        }
        cum += c;
        let le = fmt_value(bucket_bounds(i).1);
        let ls = join_labels(labels, &format!("le=\"{le}\""));
        push_sample(out, &bucket_name, &ls, &cum.to_string());
    }
    cum += h.buckets[NBUCKETS - 1].load(Ordering::Relaxed);
    let ls = join_labels(labels, "le=\"+Inf\"");
    push_sample(out, &bucket_name, &ls, &cum.to_string());
    push_sample(
        out,
        &format!("{name}_sum"),
        labels,
        &fmt_value(f64::from_bits(h.sum_bits.load(Ordering::Relaxed))),
    );
    push_sample(
        out,
        &format!("{name}_count"),
        labels,
        &h.count.load(Ordering::Relaxed).to_string(),
    );
}

fn join_labels(base: &str, extra: &str) -> String {
    if base.is_empty() {
        extra.to_string()
    } else {
        format!("{base},{extra}")
    }
}

/// Sort label pairs by key and render them escaped: a handle's
/// identity must not depend on argument order at the call site.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut pairs: Vec<_> = labels.to_vec();
    pairs.sort_by_key(|(k, _)| *k);
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out
}

/// Label-value escaping per the exposition format: backslash, double
/// quote, and line feed.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// HELP text escaping: backslash and line feed only (quotes are legal).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` sample value: integers plainly, small magnitudes in
/// scientific notation (keeps the 2⁻³⁰-second bucket bound readable),
/// everything else via shortest-roundtrip decimal.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        return "NaN".to_string();
    }
    if v == f64::INFINITY {
        return "+Inf".to_string();
    }
    if v == f64::NEG_INFINITY {
        return "-Inf".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1e-3 {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_powers_of_two() {
        // Exact powers of two land in the bucket whose upper bound they
        // equal (`le` is inclusive), one ulp more spills into the next.
        let h = Registry::new().histogram("b", &[]);
        h.observe(8.0);
        h.observe(8.0 + f64::EPSILON * 8.0);
        h.observe(9.0);
        assert_eq!(bucket_index(8.0), (3 - MIN_EXP) as usize);
        assert_eq!(
            bucket_index(8.0 + 8.0 * f64::EPSILON),
            (4 - MIN_EXP) as usize
        );
        assert_eq!(bucket_index(9.0), (4 - MIN_EXP) as usize);
        assert_eq!(bucket_bounds((3 - MIN_EXP) as usize).1, 8.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_index_clamps_and_tolerates_junk() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e-300), 0);
        assert_eq!(bucket_index(1e300), NBUCKETS - 1);
        assert_eq!(bucket_bounds(NBUCKETS - 1).1, f64::INFINITY);
    }

    #[test]
    fn quantile_estimates_bracket_the_data() {
        let r = Registry::new();
        let h = r.histogram("q", &[]);
        for i in 1..=1000 {
            h.observe(i as f64 / 1000.0); // uniform on (0, 1]
        }
        // Log buckets bound each estimate within a factor of 2.
        let p50 = h.quantile(0.5);
        assert!((0.25..=1.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((0.5..=1.0).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(1.0) <= 1.0 + 1e-12);
        assert_eq!(Registry::new().histogram("e", &[]).quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_uses_inf_bucket_lower_bound() {
        let r = Registry::new();
        let h = r.histogram("q", &[]);
        h.observe(1e300);
        let top = bucket_bounds(NBUCKETS - 1).0;
        assert_eq!(h.quantile(0.5), top);
    }

    #[test]
    fn exposition_text_is_exact() {
        let r = Registry::new();
        r.describe("stkde_x_total", Kind::Counter, "Things counted.");
        r.counter("stkde_x_total", &[("endpoint", "/density")])
            .add(3);
        r.describe("stkde_g", Kind::Gauge, "A level.");
        r.gauge("stkde_g", &[]).set(2.5);
        r.describe("stkde_h_seconds", Kind::Histogram, "A latency.");
        let h = r.histogram("stkde_h_seconds", &[]);
        h.observe(0.5);
        h.observe(0.5);
        h.observe(2.0);
        let text = r.render();
        let expected = "\
# HELP stkde_g A level.
# TYPE stkde_g gauge
stkde_g 2.5
# HELP stkde_h_seconds A latency.
# TYPE stkde_h_seconds histogram
stkde_h_seconds_bucket{le=\"0.5\"} 2
stkde_h_seconds_bucket{le=\"2\"} 3
stkde_h_seconds_bucket{le=\"+Inf\"} 3
stkde_h_seconds_sum 3
stkde_h_seconds_count 3
# HELP stkde_x_total Things counted.
# TYPE stkde_x_total counter
stkde_x_total{endpoint=\"/density\"} 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn described_but_unused_families_render_zero_samples() {
        let r = Registry::new();
        r.describe("stkde_c_total", Kind::Counter, "c");
        r.describe("stkde_h_seconds", Kind::Histogram, "h");
        let text = r.render();
        assert!(text.contains("stkde_c_total 0\n"), "{text}");
        assert!(text.contains("stkde_h_seconds_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("stkde_h_seconds_sum 0\n"));
        assert!(text.contains("stkde_h_seconds_count 0\n"));
    }

    #[test]
    fn label_values_are_escaped_and_keys_sorted() {
        let r = Registry::new();
        r.counter("m", &[("b", "x\"y\\z\nw"), ("a", "1")]).inc();
        let text = r.render();
        assert!(
            text.contains("m{a=\"1\",b=\"x\\\"y\\\\z\\nw\"} 1\n"),
            "{text}"
        );
        // Same labels in the other order resolve to the same cell.
        r.counter("m", &[("a", "1"), ("b", "x\"y\\z\nw")]).inc();
        assert!(r.render().contains("} 2\n"));
    }

    #[test]
    fn help_text_is_escaped() {
        let r = Registry::new();
        r.describe("m", Kind::Gauge, "line\nbreak\\slash");
        assert!(r.render().contains("# HELP m line\\nbreak\\\\slash\n"));
    }

    #[test]
    #[should_panic(expected = "registered as counter but used as gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m", &[]).inc();
        r.gauge("m", &[]);
    }

    #[test]
    fn concurrent_increments_lose_nothing() {
        // 8 threads × 100k increments on one counter plus a histogram:
        // the whole point of the atomic cells.
        let r = Box::leak(Box::new(Registry::new()));
        let c = r.counter("stkde_conc_total", &[]);
        let h = r.histogram("stkde_conc_seconds", &[]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || {
                    for i in 0..100_000u64 {
                        c.inc();
                        if i % 100 == 0 {
                            h.observe(0.001);
                        }
                    }
                });
            }
        });
        assert_eq!(c.get(), 800_000);
        assert_eq!(h.count(), 8_000);
        assert!((h.sum() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn fmt_value_covers_the_interesting_shapes() {
        assert_eq!(fmt_value(8.0), "8");
        assert_eq!(fmt_value(0.25), "0.25");
        assert_eq!(fmt_value(2f64.powi(-30)), "9.313225746154785e-10");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(-1.0), "-1");
    }
}
