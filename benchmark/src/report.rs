//! The metric matrix and the result a run prints.
//!
//! The names here are the contract with `BENCHMARK.json` (a test holds
//! the two together). An end-to-end result is a struct with one field per
//! metric, so a workload cannot omit one, and a field is a [`Measured`],
//! which can only be built from samples — there is no way to put a
//! constant or a stand-in value under a metric's name.

use crate::stats;
use stkde_server::json::Json;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["batch_dense", "batch_sparse", "serve_write", "serve_read"];

/// `(name, unit)` of the end-to-end metrics, measured on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_us_per_item", "us"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of the per-layer metrics of a traced run.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("grid.grid3.zeros_s", "s"),
    ("grid.grid3.zeros_parallel_s", "s"),
    ("grid.grid3.init_gbps", "GB/s"),
    ("core.kernel_apply.scatter_s", "s"),
    ("core.kernel_apply.updates_per_s", "1/s"),
    ("core.kernel_apply.useful_ratio", "ratio"),
    ("kernels.lut.eval_ns", "ns"),
    ("kernels.exact.eval_ns", "ns"),
    ("data.binning.bin_points_s", "s"),
    ("data.binning.replication_factor", "ratio"),
    ("sched.plan_s", "s"),
    ("sched.critical_path_share", "ratio"),
    ("core.pd_sched.execute_s", "s"),
    ("rayon.tasks", "count"),
    ("rayon.steals", "count"),
    ("rayon.steal_fail_ratio", "ratio"),
    ("grid.reduce.reduce_s", "s"),
    ("core.pb_sym.wall_s", "s"),
    ("core.pb_sym.init_s", "s"),
    ("core.pb_sym.compute_s", "s"),
    ("core.dr.wall_s", "s"),
    ("core.dr.reduce_s", "s"),
    ("core.dd.wall_s", "s"),
    ("core.dd.bin_s", "s"),
    ("core.pd_sched.wall_s", "s"),
    ("core.model.regret", "ratio"),
    ("core.sparse.run_s", "s"),
    ("core.sparse.run_par_s", "s"),
    ("core.sparse.occupancy", "ratio"),
    ("grid.sparse.to_dense_s", "s"),
    ("server.http.roundtrip_p50_us", "us"),
    ("server.json.parse_events_us", "us"),
    ("server.routes.events_us", "us"),
    ("server.service.enqueue_us", "us"),
    ("server.service.batches", "count"),
    ("server.service.events_per_batch", "count"),
    ("server.service.apply_p50_ms", "ms"),
    ("server.service.queue_depth_p95", "count"),
    ("core.sharded.push_batch_us_per_event", "us"),
    ("core.sharded.publish_ms", "ms"),
    ("core.sharded.publish_bytes", "B"),
    ("core.sharded.publish_share", "ratio"),
    ("core.sharded.slabs_copied_per_batch", "count"),
    ("core.sharded.evict_share", "ratio"),
    ("server.routes.density_us", "us"),
    ("server.routes.region_hot_us", "us"),
    ("server.routes.slice_us", "us"),
    ("server.routes.region_wide_us", "us"),
    ("server.routes.region_approx_us", "us"),
    ("server.http.overhead_density_us", "us"),
    ("server.http.overhead_slice_us", "us"),
    ("core.sharded.density_range_ms", "ms"),
    ("core.sharded.density_range_voxels_per_s", "1/s"),
    ("core.sharded.density_range_approx_ms", "ms"),
    ("core.sharded.approx_level_mean", "level"),
    ("core.sharded.density_slice_us", "us"),
    ("core.sharded.cache_epoch_key_ns", "ns"),
    ("grid.pyramid.build_ms", "ms"),
    ("grid.pyramid.bytes", "B"),
    ("server.json.encode_slice_us", "us"),
    ("server.json.encode_mb_per_s", "MB/s"),
    ("server.cache.lookup_ns", "ns"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.service.cached_read_hit_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.probe_period_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// A value together with the number of samples it was computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    value: f64,
    samples: usize,
}

impl Measured {
    /// A statistic over `samples` measurements.
    ///
    /// # Panics
    /// Panics when there were no samples or the value is not finite: a
    /// metric nobody measured must stop the run, not print a number.
    pub fn new(value: f64, samples: usize) -> Self {
        assert!(samples > 0, "a metric needs at least one sample");
        assert!(value.is_finite(), "measured value {value} is not finite");
        Self { value, samples }
    }

    /// Median over the phase's parts of each part's `pct` percentile.
    pub fn median_of_parts(parts: &[Vec<f64>], pct: f64) -> Self {
        let n = parts.iter().map(Vec::len).sum();
        let value = stats::median_of_parts(parts, pct).expect("a timed phase with no samples");
        Self::new(value, n)
    }

    /// Nearest-rank median of the samples.
    pub fn median(samples: &[f64]) -> Self {
        Self::new(stats::median(samples), samples.len())
    }

    pub fn value(&self) -> f64 {
        self.value
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The six end-to-end measurements of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: Measured,
    pub op_p50_ms: Measured,
    pub op_tail_ms: Measured,
    pub throughput_per_s: Measured,
    pub cpu_us_per_item: Measured,
    pub peak_rss_mib: Measured,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let fields = [
            self.setup_s,
            self.op_p50_ms,
            self.op_tail_ms,
            self.throughput_per_s,
            self.cpu_us_per_item,
            self.peak_rss_mib,
        ];
        END_TO_END
            .iter()
            .zip(fields)
            .map(|(&(name, unit), m)| Metric {
                name,
                unit,
                value: m.value,
                samples: m.samples,
            })
            .collect()
    }
}

/// Per-layer measurements, collected by name and checked against
/// [`PER_LAYER`] when the run ends.
#[derive(Debug, Default)]
pub struct Layers(Vec<Metric>);

impl Layers {
    /// Record `name`.
    ///
    /// # Panics
    /// Panics on a name outside [`PER_LAYER`] or recorded twice.
    pub fn put(&mut self, name: &str, m: Measured) {
        let &(name, unit) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        assert!(
            self.0.iter().all(|x| x.name != name),
            "per-layer metric `{name}` recorded twice"
        );
        self.0.push(Metric {
            name,
            unit,
            value: m.value,
            samples: m.samples,
        });
    }

    /// The metrics in [`PER_LAYER`] order.
    ///
    /// # Panics
    /// Panics if a listed metric was never recorded.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, _)| {
                self.0
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("per-layer metric `{name}` was not measured"))
                    .clone()
            })
            .collect()
    }
}

/// What one run of one workload found.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    /// Ops attempted, and how many of them failed (non-2xx, timeout or a
    /// wrong answer).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed above the metrics (instance sizes, the
    /// algorithm `Auto` chose, answers checked).
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = Json::obj(self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
            )
        }));
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics),
        ])
        .encode()
    }

    /// Print the notes, every metric by name with unit and sample count,
    /// and the result object as the last line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for m in &self.metrics {
            println!(
                "{:<14} {:<42} {:>16.6} {:<6} n={}",
                self.workload, m.name, m.value, m.unit, m.samples
            );
        }
        println!("{}", self.result_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// The (workload, metric) matrix a run emits is the one
    /// `BENCHMARK.json` declares: same workloads, same end-to-end and
    /// per-layer names and units, in the same order.
    #[test]
    fn emitted_matrix_equals_benchmark_json() {
        let doc = benchmark_json();
        let workloads: Vec<String> = names_and_units(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
        // Every end-to-end metric is emitted for every workload because
        // `EndToEnd` has no optional field.
        let e2e = EndToEnd {
            setup_s: Measured::new(1.0, 3),
            op_p50_ms: Measured::new(2.0, 5),
            op_tail_ms: Measured::new(3.0, 5),
            throughput_per_s: Measured::new(4.0, 5),
            cpu_us_per_item: Measured::new(5.0, 1),
            peak_rss_mib: Measured::new(6.0, 1),
        };
        let emitted: Vec<&str> = e2e.metrics().iter().map(|m| m.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(emitted, declared);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|(n, _)| *n))
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
        for name in all {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// No constant or unmeasured value can sit under a metric's name.
    #[test]
    #[should_panic(expected = "at least one sample")]
    fn a_metric_without_samples_is_refused() {
        Measured::new(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn an_undeclared_layer_metric_is_refused() {
        Layers::default().put("made.up", Measured::new(1.0, 1));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_layer_metric_is_refused() {
        let mut layers = Layers::default();
        layers.put("grid.grid3.zeros_s", Measured::new(1.0, 1));
        layers.into_metrics();
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let report = Report {
            workload: "batch_dense",
            attempted: 7,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
                samples: 3,
            }],
            notes: Vec::new(),
        };
        assert_eq!(
            report.result_json(),
            r#"{"correct":true,"attempted":7,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}
