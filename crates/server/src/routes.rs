//! HTTP endpoint routing for the density service.
//!
//! | endpoint | verb | what it answers |
//! |---|---|---|
//! | `/healthz`  | GET  | liveness + generation (503 once the writer died) |
//! | `/stats`    | GET  | ingest/serve counters |
//! | `/metrics`  | GET  | Prometheus text exposition of the obs registry |
//! | `/trace`    | GET  | recent spans from the obs trace ring |
//! | `/density`  | GET  | one voxel's density (`x`, `y`, `t`) |
//! | `/region`   | GET  | exact aggregate over a voxel box (`x0..t1`, default full grid) |
//! | `/slice`    | GET  | one exact time plane (`t`) |
//! | `/events`   | POST | ingest one event or a batch |
//! | `/shutdown` | POST | ask the daemon to stop gracefully |
//!
//! All reads serve from the published copy-on-write snapshot — they
//! never touch the writer's cube. Region and slice responses are
//! additionally memoized in the epoch-vector-keyed LRU cache; voxel
//! reads are cheap enough to always hit the snapshot.
//!
//! `/slice` streams its plane: the scalar fields encode as usual, then
//! the plane's numbers go straight into one pre-sized body through the
//! same number writer, with no `Json` node per voxel. The bytes equal
//! the tree encoding of the same plane.
//!
//! `/region` answers every box exactly from a split walk of the slab mip
//! pyramids: the box's block-aligned middle is read at the coarsest
//! levels that cover it, its faces from per-axis slice cells, and only
//! its edges and corners fold voxels, so a wide box costs a few hundred
//! cell reads. Its body carries `"error_bound": 0`.
//!
//! Every answer is exact. A `max_err` on `/region` or `/slice` is still
//! validated (a malformed one is a 400) but selects nothing: the body
//! is byte-identical with or without it.

use crate::http::{Request, Response};
use crate::json::{obj_with_numbers, Json};
use crate::service::DensityService;
use stkde_data::Point;
use stkde_grid::VoxelRange;

/// Dispatch one request against the service.
pub fn handle(svc: &DensityService, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(svc),
        ("GET", "/stats") => Response::json(200, &svc.stats_json()),
        ("GET", "/metrics") => metrics(svc),
        ("GET", "/trace") => Response::raw_json(200, stkde_obs::trace_json()),
        ("GET", "/density") => density(svc, req),
        ("GET", "/region") => region(svc, req),
        ("GET", "/slice") => slice(svc, req),
        ("POST", "/events") => events(svc, req),
        ("POST", "/shutdown") => shutdown(svc),
        (_, "/healthz" | "/stats" | "/metrics" | "/trace" | "/density" | "/region" | "/slice") => {
            Response::error(405, "use GET")
        }
        (_, "/events" | "/shutdown") => Response::error(405, "use POST"),
        _ => Response::error(404, format!("no such endpoint {}", req.path)),
    }
}

fn metrics(svc: &DensityService) -> Response {
    // Point-in-time gauges (queue depth, uptime, cache size) are pushed
    // at scrape time; counters and histograms are always current.
    svc.refresh_gauges();
    Response::prometheus(stkde_obs::global().render())
}

fn healthz(svc: &DensityService) -> Response {
    if svc.writer_stopped() {
        return Response::json(
            503,
            &Json::obj([
                ("status", Json::from("unavailable")),
                ("writer", Json::from("stopped")),
                ("generation", Json::from(svc.generation())),
            ]),
        );
    }
    Response::json(
        200,
        &Json::obj([
            ("status", Json::from("ok")),
            ("generation", Json::from(svc.generation())),
        ]),
    )
}

/// A required numeric query parameter, or the 400 explaining what's wrong.
fn param_usize(req: &Request, name: &str) -> Result<usize, Response> {
    let raw = req
        .query_param(name)
        .ok_or_else(|| Response::error(400, format!("missing query parameter `{name}`")))?;
    raw.parse()
        .map_err(|_| Response::error(400, format!("bad `{name}`: {raw:?} is not a voxel index")))
}

/// An optional numeric query parameter with a default.
fn param_usize_or(req: &Request, name: &str, default: usize) -> Result<usize, Response> {
    match req.query_param(name) {
        None => Ok(default),
        Some(_) => param_usize(req, name),
    }
}

/// Validate the optional `max_err` of clients written against the
/// retired approximate tiers; every answer is exact, so the value
/// selects nothing.
fn check_max_err(req: &Request) -> Result<(), Response> {
    let Some(raw) = req.query_param("max_err") else {
        return Ok(());
    };
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(()),
        _ => Err(Response::error(
            400,
            format!("bad `max_err`: {raw:?} is not a finite non-negative number"),
        )),
    }
}

fn density(svc: &DensityService, req: &Request) -> Response {
    let (x, y, t) = match (
        param_usize(req, "x"),
        param_usize(req, "y"),
        param_usize(req, "t"),
    ) {
        (Ok(x), Ok(y), Ok(t)) => (x, y, t),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return e,
    };
    let (value, generation) = svc.density(x, y, t);
    match value {
        Some(d) => Response::json(
            200,
            &Json::obj([
                ("x", Json::from(x)),
                ("y", Json::from(y)),
                ("t", Json::from(t)),
                ("density", Json::from(d)),
                ("generation", Json::from(generation)),
            ]),
        ),
        None => Response::error(
            400,
            format!("voxel ({x}, {y}, {t}) outside grid {}", svc.domain().dims()),
        ),
    }
}

fn region(svc: &DensityService, req: &Request) -> Response {
    let dims = svc.domain().dims();
    let parse = || -> Result<VoxelRange, Response> {
        Ok(VoxelRange {
            x0: param_usize_or(req, "x0", 0)?,
            x1: param_usize_or(req, "x1", dims.gx)?,
            y0: param_usize_or(req, "y0", 0)?,
            y1: param_usize_or(req, "y1", dims.gy)?,
            t0: param_usize_or(req, "t0", 0)?,
            t1: param_usize_or(req, "t1", dims.gt)?,
        })
    };
    let r = match parse() {
        Ok(r) => r,
        Err(e) => return e,
    };
    if let Err(e) = check_max_err(req) {
        return e;
    }
    // Clamp client voxel indices to the grid; a box that is inverted
    // (`x0 >= x1`) or lies entirely outside the grid clips to nothing —
    // that is a caller error, not a degenerate zero-voxel answer.
    let clipped = r.clipped(dims);
    if clipped.is_empty() {
        return Response::error(
            400,
            format!(
                "empty voxel box {}-{},{}-{},{}-{} after clipping to grid {dims} \
                 (bounds must satisfy lo < hi and intersect the grid)",
                r.x0, r.x1, r.y0, r.y1, r.t0, r.t1
            ),
        );
    }
    let key = format!(
        "region:{}-{},{}-{},{}-{}",
        clipped.x0, clipped.x1, clipped.y0, clipped.y1, clipped.t0, clipped.t1
    );
    let body = svc.cached_read(&key, clipped.t0, clipped.t1, |snap| {
        let s = snap.density_range_walk(clipped);
        svc.note_pyramid_bytes(snap);
        Json::obj([
            ("x0", Json::from(clipped.x0)),
            ("x1", Json::from(clipped.x1)),
            ("y0", Json::from(clipped.y0)),
            ("y1", Json::from(clipped.y1)),
            ("t0", Json::from(clipped.t0)),
            ("t1", Json::from(clipped.t1)),
            ("sum", Json::from(s.sum)),
            ("max", Json::from(s.max)),
            ("min", Json::from(s.min)),
            ("nonzero", Json::from(s.nonzero)),
            ("voxels", Json::from(s.total)),
            ("error_bound", Json::from(0.0)),
            ("generation", Json::from(snap.generation())),
        ])
    });
    Response::json_body(200, body)
}

fn slice(svc: &DensityService, req: &Request) -> Response {
    let t = match param_usize(req, "t") {
        Ok(t) => t,
        Err(e) => return e,
    };
    let dims = svc.domain().dims();
    if t >= dims.gt {
        return Response::error(400, format!("t={t} outside grid {dims}"));
    }
    if let Err(e) = check_max_err(req) {
        return e;
    }
    let body = svc.cached_read(&format!("slice:{t}"), t, t + 1, |snap| {
        let values = snap.density_slice(t).expect("t bounds checked above");
        let fields = [
            ("t", Json::from(t)),
            ("gx", Json::from(dims.gx)),
            ("gy", Json::from(dims.gy)),
            ("generation", Json::from(snap.generation())),
        ];
        obj_with_numbers(&fields, "values", &values)
    });
    Response::json_body(200, body)
}

/// Parse one event object `{"x": .., "y": .., "t": ..}`.
fn parse_event(v: &Json) -> Result<Point, String> {
    let coord = |name: &str| {
        v.get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event needs numeric `{name}`: got {}", v.encode()))
    };
    let p = Point::new(coord("x")?, coord("y")?, coord("t")?);
    if !p.is_finite() {
        return Err(format!("event has non-finite coordinates: {}", v.encode()));
    }
    Ok(p)
}

fn events(svc: &DensityService, req: &Request) -> Response {
    let text = match req.body_str() {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let parsed = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, format!("body is not JSON: {e}")),
    };
    // Accept one event object, a bare array, or {"events": [...]}.
    let list: Vec<&Json> = if parsed.get("x").is_some() {
        vec![&parsed]
    } else if let Some(arr) = parsed.as_array() {
        arr.iter().collect()
    } else if let Some(arr) = parsed.get("events").and_then(Json::as_array) {
        arr.iter().collect()
    } else {
        return Response::error(
            400,
            "expected an event object, an array of events, or {\"events\": [...]}",
        );
    };
    let mut points = Vec::with_capacity(list.len());
    for v in list {
        match parse_event(v) {
            Ok(p) => points.push(p),
            Err(msg) => return Response::error(400, msg),
        }
    }
    match svc.enqueue(points) {
        Ok(accepted) => Response::json(202, &Json::obj([("accepted", Json::from(accepted))])),
        // Shutdown in progress is an expected lifecycle state, not a fault.
        Err(e) => Response::error(503, e.to_string()),
    }
}

fn shutdown(svc: &DensityService) -> Response {
    svc.request_shutdown();
    Response::json(200, &Json::obj([("status", Json::from("shutting down"))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use stkde_grid::{Bandwidth, Domain, GridDims};

    fn request(method: &str, path: &str, query: &[(&str, &str)], body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn service() -> std::sync::Arc<DensityService> {
        DensityService::start(ServiceConfig::new(
            Domain::from_dims(GridDims::new(12, 10, 8)),
            Bandwidth::new(2.0, 1.5),
            5.0,
        ))
    }

    #[test]
    fn healthz_reports_a_dead_writer() {
        let svc = service();
        assert_eq!(
            handle(&svc, &request("GET", "/healthz", &[], "")).status,
            200
        );
        svc.inject_writer_fault();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let resp = loop {
            let resp = handle(&svc, &request("GET", "/healthz", &[], ""));
            if resp.status != 200 || std::time::Instant::now() > deadline {
                break resp;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        assert_eq!(resp.status, 503);
        let body = std::str::from_utf8(resp.body.as_bytes()).unwrap();
        assert!(body.contains(r#""writer":"stopped""#), "{body}");
    }

    #[test]
    fn routing_table() {
        let svc = service();
        assert_eq!(
            handle(&svc, &request("GET", "/healthz", &[], "")).status,
            200
        );
        assert_eq!(handle(&svc, &request("GET", "/stats", &[], "")).status, 200);
        assert_eq!(
            handle(&svc, &request("POST", "/healthz", &[], "")).status,
            405
        );
        assert_eq!(
            handle(&svc, &request("GET", "/events", &[], "")).status,
            405
        );
        assert_eq!(handle(&svc, &request("GET", "/nope", &[], "")).status, 404);
        assert_eq!(
            handle(&svc, &request("POST", "/metrics", &[], "")).status,
            405
        );
        assert_eq!(
            handle(&svc, &request("POST", "/trace", &[], "")).status,
            405
        );
    }

    #[test]
    fn the_slab_layout_cannot_be_changed_over_the_wire() {
        let svc = service();
        let shards = svc.snapshot().shards().len();
        assert_eq!(shards, 4, "the default layout");
        for method in ["POST", "GET"] {
            let resp = handle(&svc, &request(method, "/reshard", &[("shards", "2")], ""));
            assert_eq!(resp.status, 404, "{method} /reshard");
        }
        assert_eq!(svc.snapshot().shards().len(), shards);
    }

    #[test]
    fn metrics_exposes_prometheus_text_and_trace_is_json() {
        let svc = service();
        let resp = handle(&svc, &request("GET", "/metrics", &[], ""));
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain; version=0.0.4"));
        let text = std::str::from_utf8(resp.body.as_bytes()).unwrap();
        assert!(text.contains("# TYPE stkde_ingest_events_received_total counter"));
        assert!(text.contains("# TYPE stkde_http_request_seconds histogram"));
        assert!(text.contains("stkde_ingest_queue_depth 0"));

        let trace = handle(&svc, &request("GET", "/trace", &[], ""));
        assert_eq!(trace.status, 200);
        let body = std::str::from_utf8(trace.body.as_bytes()).unwrap();
        assert!(crate::json::Json::parse(body).is_ok(), "bad JSON: {body}");
    }

    #[test]
    fn density_validates_parameters() {
        let svc = service();
        let missing = handle(&svc, &request("GET", "/density", &[("x", "1")], ""));
        assert_eq!(missing.status, 400);
        let bad = handle(
            &svc,
            &request("GET", "/density", &[("x", "a"), ("y", "0"), ("t", "0")], ""),
        );
        assert_eq!(bad.status, 400);
        let oob = handle(
            &svc,
            &request(
                "GET",
                "/density",
                &[("x", "99"), ("y", "0"), ("t", "0")],
                "",
            ),
        );
        assert_eq!(oob.status, 400);
        let ok = handle(
            &svc,
            &request("GET", "/density", &[("x", "3"), ("y", "3"), ("t", "3")], ""),
        );
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn events_accepts_all_three_shapes() {
        let _serial = crate::test_support::serial();
        let svc = service();
        let single = handle(
            &svc,
            &request("POST", "/events", &[], r#"{"x":1.0,"y":2.0,"t":0.5}"#),
        );
        assert_eq!(single.status, 202);
        let bare = handle(
            &svc,
            &request("POST", "/events", &[], r#"[{"x":1,"y":2,"t":1.0}]"#),
        );
        assert_eq!(bare.status, 202);
        let wrapped = handle(
            &svc,
            &request(
                "POST",
                "/events",
                &[],
                r#"{"events":[{"x":1,"y":2,"t":1.5},{"x":3,"y":4,"t":2.0}]}"#,
            ),
        );
        assert_eq!(wrapped.status, 202);
        let garbage = handle(&svc, &request("POST", "/events", &[], "not json"));
        assert_eq!(garbage.status, 400);
        let wrong_shape = handle(&svc, &request("POST", "/events", &[], r#"{"a":1}"#));
        assert_eq!(wrong_shape.status, 400);
        let non_finite = handle(
            &svc,
            &request("POST", "/events", &[], r#"{"x":1,"y":2,"t":1e999}"#),
        );
        assert_eq!(non_finite.status, 400);
    }

    #[test]
    fn events_after_shutdown_answer_503() {
        let svc = service();
        svc.shutdown();
        let resp = handle(
            &svc,
            &request("POST", "/events", &[], r#"{"x":1.0,"y":2.0,"t":0.5}"#),
        );
        assert_eq!(resp.status, 503);
        let body = Json::parse(std::str::from_utf8(resp.body.as_bytes()).unwrap()).unwrap();
        assert_eq!(
            body.get("error").unwrap().as_str(),
            Some("service is shutting down")
        );
    }

    #[test]
    fn region_defaults_to_full_grid_and_clips() {
        let svc = service();
        let full = handle(&svc, &request("GET", "/region", &[], ""));
        assert_eq!(full.status, 200);
        let body = Json::parse(std::str::from_utf8(full.body.as_bytes()).unwrap()).unwrap();
        assert_eq!(body.get("voxels").unwrap().as_u64(), Some(12 * 10 * 8));
        // Out-of-range bounds clip rather than error.
        let clipped = handle(&svc, &request("GET", "/region", &[("x1", "999")], ""));
        assert_eq!(clipped.status, 200);
        let body = Json::parse(std::str::from_utf8(clipped.body.as_bytes()).unwrap()).unwrap();
        assert_eq!(body.get("x1").unwrap().as_u64(), Some(12));
    }

    #[test]
    fn region_rejects_inverted_and_empty_boxes() {
        // Regression: these used to be trusted verbatim and served as a
        // degenerate zero-voxel answer (sum 0, max null) with a cache
        // entry to boot. They are client errors.
        let svc = service();
        for (name, params) in [
            ("inverted x", vec![("x0", "5"), ("x1", "2")]),
            ("zero-width t", vec![("t0", "3"), ("t1", "3")]),
            ("entirely outside grid", vec![("x0", "100"), ("x1", "200")]),
            ("inverted after clip", vec![("y0", "999")]),
        ] {
            let resp = handle(&svc, &request("GET", "/region", &params, ""));
            assert_eq!(resp.status, 400, "{name} must be rejected");
            let msg = std::str::from_utf8(resp.body.as_bytes()).unwrap();
            assert!(msg.contains("empty voxel box"), "unhelpful 400: {msg}");
        }
    }

    #[test]
    fn region_max_err_validates_and_serves_certified_answers() {
        let _serial = crate::test_support::serial();
        let svc = service();
        for raw in ["-1", "abc", "NaN", "inf"] {
            let resp = handle(&svc, &request("GET", "/region", &[("max_err", raw)], ""));
            assert_eq!(resp.status, 400, "max_err={raw} must be rejected");
        }
        svc.enqueue(
            (0..40)
                .map(|k| Point::new((k % 12) as f64, (k % 10) as f64, 0.1 * k as f64))
                .collect(),
        )
        .unwrap();
        svc.wait_drained();

        // Every region answer is exact: a budget changes nothing on the
        // wire, not even the cache entry.
        let plain = handle(&svc, &request("GET", "/region", &[], ""));
        assert_eq!(plain.status, 200);
        for raw in ["0.5", "0"] {
            let budgeted = handle(&svc, &request("GET", "/region", &[("max_err", raw)], ""));
            assert_eq!(plain.body.as_bytes(), budgeted.body.as_bytes());
        }
        let body = Json::parse(std::str::from_utf8(plain.body.as_bytes()).unwrap()).unwrap();
        assert_eq!(body.get("error_bound").unwrap().as_f64(), Some(0.0));
        assert!(body.get("approx").is_none() && body.get("level").is_none());
        let stats = svc.stats_json();
        assert_eq!(stats.get("cache_entries").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn slice_max_err_validates_and_selects_nothing() {
        let _serial = crate::test_support::serial();
        let svc = service();
        for raw in ["-1", "abc", "NaN", "inf"] {
            let resp = handle(
                &svc,
                &request("GET", "/slice", &[("t", "1"), ("max_err", raw)], ""),
            );
            assert_eq!(resp.status, 400, "max_err={raw} must be rejected");
        }
        svc.enqueue(
            (0..30)
                .map(|k| Point::new((k % 12) as f64, ((k * 3) % 10) as f64, 0.05 * k as f64))
                .collect(),
        )
        .unwrap();
        svc.wait_drained();

        // Every plane is exact: a budget changes nothing on the wire, not
        // even the cache entry.
        let plain = handle(&svc, &request("GET", "/slice", &[("t", "1")], ""));
        assert_eq!(plain.status, 200);
        for raw in ["0.9", "0"] {
            let budgeted = handle(
                &svc,
                &request("GET", "/slice", &[("t", "1"), ("max_err", raw)], ""),
            );
            assert_eq!(budgeted.status, 200);
            assert_eq!(
                plain.body.as_bytes(),
                budgeted.body.as_bytes(),
                "max_err={raw}"
            );
        }
        let stats = svc.stats_json();
        assert_eq!(stats.get("cache_entries").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn slice_body_equals_the_tree_encoding_of_its_plane() {
        let _serial = crate::test_support::serial();
        let svc = service();
        svc.enqueue(
            (0..30)
                .map(|k| Point::new((k % 12) as f64, ((k * 7) % 10) as f64, 0.05 * k as f64))
                .collect(),
        )
        .unwrap();
        svc.wait_drained();
        let snap = svc.snapshot();
        let dims = svc.domain().dims();
        // The body `/slice` built before it streamed: one `Json::Num` per value.
        let values = snap.density_slice(1).unwrap();
        let tree = Json::obj([
            ("t", Json::from(1usize)),
            ("gx", Json::from(dims.gx)),
            ("gy", Json::from(dims.gy)),
            ("generation", Json::from(snap.generation())),
            (
                "values",
                Json::Arr(values.into_iter().map(Json::from).collect()),
            ),
        ])
        .encode();
        // A budget selects nothing: both queries answer the exact plane.
        for query in [vec![("t", "1")], vec![("t", "1"), ("max_err", "0.9")]] {
            let resp = handle(&svc, &request("GET", "/slice", &query, ""));
            assert_eq!(resp.status, 200);
            let body = std::str::from_utf8(resp.body.as_bytes()).unwrap();
            assert_eq!(body, tree, "{query:?}");
            let values = Json::parse(body).unwrap().get("values").unwrap().clone();
            assert!(
                values
                    .as_array()
                    .unwrap()
                    .iter()
                    .any(|v| v.as_f64().unwrap() > 0.0),
                "the plane holds densities: {body}"
            );
        }
    }

    #[test]
    fn shutdown_endpoint_raises_the_flag() {
        let svc = service();
        assert!(!svc.shutdown_requested());
        let resp = handle(&svc, &request("POST", "/shutdown", &[], ""));
        assert_eq!(resp.status, 200);
        assert!(svc.shutdown_requested());
    }
}
