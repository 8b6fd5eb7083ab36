//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded from this crate's files, around each call into a
//! layer's public function and around each end-to-end op; nothing inside
//! the program is instrumented here. They stay in memory and are written
//! to `<out-dir>/trace_<workload>.json` when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Spans of one end-to-end op share `op`; a span
/// names the span that caused it in `parent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a finished interval; returns its id (for children).
    pub fn record(
        &self,
        parent: Option<u64>,
        op: u64,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        // Relaxed: the id only has to be unique, it publishes nothing.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_us,
                end_us,
            });
        id
    }

    /// Run `f` under a root span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now_us();
        let out = f();
        self.record(None, 0, name, start, self.now_us());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone()
    }

    /// For every root span called `root`, the share of its duration that
    /// none of its child spans covers (its self time over its duration).
    pub fn unattributed_shares(&self, root: &str) -> Vec<f64> {
        let spans = self.spans();
        let mut children: std::collections::HashMap<u64, Vec<(f64, f64)>> = Default::default();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root && s.end_us > s.start_us)
            .map(|s| {
                let mut kids = children.remove(&s.id).unwrap_or_default();
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut upto) = (0.0, s.start_us);
                for (a, b) in kids {
                    let (a, b) = (a.max(upto), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        upto = b;
                    }
                }
                1.0 - covered / (s.end_us - s.start_us)
            })
            .collect()
    }

    /// Write every span as one JSON document.
    pub fn write_json(
        &self,
        path: &Path,
        workload: &str,
        seed: u64,
        commit: &str,
    ) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"commit\":\"{}\",\"unit\":\"us\",\"spans\":[",
            commit.replace(['"', '\\'], "")
        )?;
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "\n{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start\":{:.3},\"end\":{:.3}}}",
                s.id, s.op, s.name, s.start_us, s.end_us
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let t = Tracer::new();
        let op = t.record(None, 1, "op", 0.0, 100.0);
        t.record(Some(op), 1, "a", 10.0, 40.0);
        // Overlaps `a` and runs past the parent: only 40..60 is new cover.
        t.record(Some(op), 1, "b", 30.0, 60.0);
        t.record(Some(op), 1, "c", 90.0, 130.0);
        t.record(None, 2, "op", 200.0, 300.0);
        let shares = t.unattributed_shares("op");
        assert_eq!(shares.len(), 2);
        assert!((shares[0] - 0.40).abs() < 1e-12, "{shares:?}");
        assert_eq!(shares[1], 1.0);
        assert!(t.unattributed_shares("nope").is_empty());
    }

    #[test]
    fn writes_parseable_json() {
        let t = Tracer::new();
        let id = t.time("probe", || 7);
        assert_eq!(id, 7);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        t.write_json(&path, "w", 3, "abc").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = stkde_server::json::Json::parse(&text).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(doc.get("commit").unwrap().as_str(), Some("abc"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
