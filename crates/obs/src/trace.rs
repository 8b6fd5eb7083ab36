//! Lightweight spans: guard-scoped timings on a thread-local depth
//! stack, recorded into a bounded ring buffer and mirrored into
//! `stkde_span_seconds{span=...}` histograms.
//!
//! Spans are for batch/request-scale work (an ingest batch, a halo
//! exchange, a cache fill) — the guard takes two monotonic-clock reads
//! and, on drop, one short mutex hold on the trace ring. Per-voxel or
//! per-steal paths use bare counters instead.

use crate::{names, SpanRecord};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Most recent spans retained for `GET /trace`.
const TRACE_CAP: usize = 1024;

static SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process obs epoch (first use of the clock).
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn ring() -> &'static Mutex<VecDeque<SpanRecord>> {
    static RING: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(TRACE_CAP)))
}

/// Open a span; it closes (and records) when the guard drops.
///
/// ```
/// {
///     let _s = stkde_obs::span("ingest_batch");
///     // ... timed work ...
/// } // recorded here
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    let depth = DEPTH.with(|d| {
        let cur = d.get();
        d.set(cur.saturating_add(1));
        cur
    });
    SpanGuard {
        name,
        start_ns: now_ns(),
        depth,
    }
}

/// Live span; closes on drop.
#[must_use = "a span measures until the guard drops; binding it to _ closes it immediately"]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    depth: u16,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        crate::global()
            .histogram(names::SPAN_SECONDS, &[("span", self.name)])
            .observe(dur_ns as f64 * 1e-9);
        let record = SpanRecord {
            name: self.name,
            start_ns: self.start_ns,
            dur_ns,
            depth: self.depth,
            thread: std::thread::current()
                .name()
                .unwrap_or("<unnamed>")
                .to_string(),
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
        };
        let mut ring = ring().lock().unwrap();
        if ring.len() == TRACE_CAP {
            ring.pop_front();
        }
        ring.push_back(record);
    }
}

/// The retained spans, oldest first.
pub(crate) fn recent_spans() -> Vec<SpanRecord> {
    ring().lock().unwrap().iter().cloned().collect()
}

/// The retained spans as a JSON array (the `GET /trace` body).
pub fn trace_json() -> String {
    let spans = recent_spans();
    let mut out = String::with_capacity(64 * spans.len() + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"depth\":{},\"thread\":\"{}\",\"seq\":{}}}",
            escape_json(s.name),
            s.start_ns,
            s.dur_ns,
            s.depth,
            escape_json(&s.thread),
            s.seq
        ));
    }
    out.push(']');
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_record_and_bound_the_ring() {
        {
            let _outer = span("obs_test_outer");
            let _inner = span("obs_test_inner");
        }
        let spans = recent_spans();
        let inner = spans
            .iter()
            .rev()
            .find(|s| s.name == "obs_test_inner")
            .expect("inner span recorded");
        let outer = spans
            .iter()
            .rev()
            .find(|s| s.name == "obs_test_outer")
            .expect("outer span recorded");
        assert_eq!(inner.depth, outer.depth + 1);
        assert!(inner.seq < outer.seq, "inner guard drops first");
        assert!(outer.dur_ns >= inner.dur_ns);

        for _ in 0..(TRACE_CAP + 10) {
            let _s = span("obs_test_fill");
        }
        assert_eq!(recent_spans().len(), TRACE_CAP);

        // The span histogram saw them too.
        let h = crate::global().histogram(names::SPAN_SECONDS, &[("span", "obs_test_fill")]);
        assert!(h.count() >= (TRACE_CAP + 10) as u64);
    }

    #[test]
    fn trace_json_is_wellformed_and_escaped() {
        {
            let _s = span("obs_test_json");
        }
        let json = trace_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"obs_test_json\""));
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
