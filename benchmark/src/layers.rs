//! Per-layer probes of a traced run: each times calls into one layer's
//! public functions on inputs replayed from the workload's seed, under a
//! span, and reports the median of its repetitions.
//!
//! Nothing here runs in an end-to-end (`--trace 0`) run; the per-strategy
//! line-up in particular lives here so the end-to-end batch phase spends
//! all of its ops on `Auto`.

use crate::report::{Layers, Measured};
use crate::serve;
use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use stkde_core::kernel_apply::{apply_points_seq, PointKernel};
use stkde_core::parallel::pd_sched;
use stkde_core::{sparse, Algorithm, Problem, ShardedWindowStkde, Stkde};
use stkde_data::{binning, Point, PointSet};
use stkde_grid::{reduce, Bandwidth, Decomp, Decomposition, Domain, Grid3, VoxelRange};
use stkde_kernels::{Epanechnikov, SpaceTimeKernel, Tabulated};
use stkde_obs::{names, scrape};
use stkde_server::cache::LruCache;
use stkde_server::json::Json;
use stkde_server::{routes, DensityService, Request, ServeKernel, ServiceConfig};

/// Repetitions of a probe that takes tens of milliseconds or more.
const SLOW_REPS: usize = 5;
/// Repetitions of a probe that takes microseconds.
const FAST_REPS: usize = 200;
/// Lattices the line-up and the binning probes use: the ones
/// `model::select` considers for DD and picks for PD.
const DD_DECOMP: usize = 8;
const PD_DECOMP: usize = 16;
/// Temporal-slab shards of the in-process cubes: the daemon's default.
const SHARDS: usize = 4;

/// Time `reps` calls of `f` under one span named `span`; returns the
/// per-call seconds and the last result.
fn timed<R>(
    tracer: &Tracer,
    span: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> (Vec<f64>, R) {
    tracer.time(span, || {
        let mut secs = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let start = Instant::now();
            let out = black_box(f());
            secs.push(start.elapsed().as_secs_f64());
            last = Some(out);
        }
        (secs, last.expect("reps > 0"))
    })
}

/// Sum of every sample of counter family `name` in a Prometheus text.
pub fn family_total(samples: &[scrape::Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// This process's obs registry, parsed.
pub fn local_registry() -> Vec<scrape::Sample> {
    scrape::parse_text(&stkde_obs::global().render())
}

/// The work-stealing pool's activity between two scrapes (this process's
/// registry for the batch path, the daemon's `/metrics` for serve).
pub fn put_pool_activity(layers: &mut Layers, before: &[scrape::Sample], after: &[scrape::Sample]) {
    let delta = |name| family_total(after, name) - family_total(before, name);
    let (tasks, steals, fails) = (
        delta(names::POOL_TASKS),
        delta(names::POOL_STEALS),
        delta(names::POOL_STEAL_FAILURES),
    );
    layers.put("rayon.tasks", Measured::new(tasks, 1));
    layers.put("rayon.steals", Measured::new(steals, 1));
    let attempts = steals + fails;
    layers.put(
        "rayon.steal_fail_ratio",
        Measured::new(
            if attempts > 0.0 {
                fails / attempts
            } else {
                0.0
            },
            1,
        ),
    );
}

/// The kernel tables: one spatial and one temporal evaluation per call,
/// tabulated against analytic, over a fixed seeded set of offsets.
pub fn kernel_layers(layers: &mut Layers, tracer: &Tracer, seed: u64) {
    let mut rng = crate::rng::Rng::new(seed ^ 0x6b72_6e6c);
    let offsets: Vec<(f64, f64, f64)> = (0..100_000)
        .map(|_| {
            (
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
            )
        })
        .collect();
    fn sweep<K: SpaceTimeKernel>(kernel: &K, offsets: &[(f64, f64, f64)]) -> f64 {
        offsets
            .iter()
            .map(|&(u, v, w)| kernel.spatial(u, v) * kernel.temporal(w))
            .sum()
    }
    let lut = Tabulated::new(Epanechnikov);
    let per_eval = |secs: Vec<f64>| median_in(&secs, 1e9 / offsets.len() as f64);
    let (secs, _) = timed(tracer, "kernels.lut", 20, || sweep(&lut, &offsets));
    layers.put("kernels.lut.eval_ns", per_eval(secs));
    let (secs, _) = timed(tracer, "kernels.exact", 20, || {
        sweep(&Epanechnikov, &offsets)
    });
    layers.put("kernels.exact.eval_ns", per_eval(secs));
}

/// The batch path's layers on one STKDE problem.
pub fn batch_layers(
    layers: &mut Layers,
    tracer: &Tracer,
    domain: Domain,
    bw: Bandwidth,
    points: &PointSet,
    threads: usize,
) {
    let pts = points.as_slice();
    let problem = Problem::new(domain, bw, pts.len());
    let dims = domain.dims();
    let full = VoxelRange::full(dims);
    let bytes = (dims.volume() * std::mem::size_of::<f32>()) as f64;

    // grid.grid3: allocation + zeroing, lazily and with a parallel sweep.
    let (secs, _) = timed(tracer, "grid.grid3.zeros", SLOW_REPS, || {
        Grid3::<f32>::zeros(dims)
    });
    layers.put("grid.grid3.zeros_s", Measured::median(&secs));
    let (secs, mut warm) = timed(tracer, "grid.grid3.zeros_parallel", SLOW_REPS, || {
        Grid3::<f32>::zeros_parallel(dims)
    });
    let zeros_parallel = Measured::median(&secs);
    layers.put("grid.grid3.zeros_parallel_s", zeros_parallel);
    layers.put(
        "grid.grid3.init_gbps",
        Measured::new(bytes / zeros_parallel.value() / 1e9, secs.len()),
    );

    // core.kernel_apply: the sequential scatter into the warmed grid. The
    // engine's own tallies say how much of each bounding box it wrote.
    let before = local_registry();
    let (secs, _) = timed(tracer, "core.kernel_apply", SLOW_REPS, || {
        apply_points_seq(
            PointKernel::Sym,
            &mut warm,
            &problem,
            &Epanechnikov,
            pts,
            full,
        )
    });
    let after = local_registry();
    let delta = |name| family_total(&after, name) - family_total(&before, name);
    let written = delta(names::SCATTER_VOXELS_WRITTEN) / secs.len() as f64;
    let scatter = Measured::median(&secs);
    layers.put("core.kernel_apply.scatter_s", scatter);
    layers.put(
        "core.kernel_apply.updates_per_s",
        Measured::new(written / scatter.value(), secs.len()),
    );
    layers.put(
        "core.kernel_apply.useful_ratio",
        Measured::new(
            delta(names::SCATTER_VOXELS_WRITTEN) / delta(names::SCATTER_BOX_VOXELS).max(1.0),
            secs.len(),
        ),
    );
    drop(warm);

    // data.binning and sched: the plan PD-SCHED builds before it scatters.
    let decomposition = Decomposition::adjusted(dims, Decomp::cubic(PD_DECOMP), problem.vbw);
    let (secs, _) = timed(tracer, "data.binning", SLOW_REPS, || {
        binning::bin_points(&domain, &decomposition, pts)
    });
    layers.put("data.binning.bin_points_s", Measured::median(&secs));
    let dd_lattice = Decomposition::new(dims, Decomp::cubic(DD_DECOMP));
    let replicated = tracer.time("data.binning.replicated", || {
        binning::bin_points_replicated(&domain, &dd_lattice, pts, problem.vbw)
    });
    layers.put(
        "data.binning.replication_factor",
        Measured::new(replicated.replication_factor(), 1),
    );
    let (secs, plan) = timed(tracer, "sched.plan", SLOW_REPS, || {
        pd_sched::plan(
            &problem,
            pts,
            Decomp::cubic(PD_DECOMP),
            pd_sched::Ordering::LoadAware,
        )
    });
    layers.put("sched.plan_s", Measured::median(&secs));
    let total_work: f64 = plan.weights.iter().sum();
    layers.put(
        "sched.critical_path_share",
        Measured::new(plan.critical_path().relative(total_work), 1),
    );
    let (secs, _) = timed(tracer, "core.pd_sched.execute", SLOW_REPS, || {
        pd_sched::execute::<f32, _>(&plan, &problem, &Epanechnikov, pts, threads)
            .expect("threads > 0")
    });
    layers.put("core.pd_sched.execute_s", Measured::median(&secs));

    // grid.reduce: summing one replica per thread, as DR does.
    let replicas: Vec<Grid3<f32>> = (0..threads).map(|_| Grid3::zeros_parallel(dims)).collect();
    let mut target = Grid3::<f32>::zeros_parallel(dims);
    let (secs, _) = timed(tracer, "grid.reduce", SLOW_REPS, || {
        reduce::reduce_into(&mut target, &replicas)
    });
    layers.put("grid.reduce.reduce_s", Measured::median(&secs));
    drop((replicas, target));

    // The per-strategy line-up, each through the front door.
    let engine = Stkde::new(domain, bw);
    // `timed` keeps only the last rep's result, so the line-up collects
    // its own samples: wall and phase seconds of every rep.
    let lineup = |span: &'static str, algorithm: Algorithm, threads: usize| {
        let engine = engine.clone().algorithm(algorithm).threads(threads);
        tracer.time(span, || {
            (0..SLOW_REPS)
                .map(|_| {
                    let start = Instant::now();
                    let r = engine
                        .compute::<f32>(points)
                        .expect("line-up configuration is valid");
                    (start.elapsed().as_secs_f64(), r.timings)
                })
                .collect::<Vec<_>>()
        })
    };
    let median_of = |reps: &[(f64, stkde_core::PhaseTimings)],
                     pick: fn(&(f64, stkde_core::PhaseTimings)) -> f64| {
        Measured::median(&reps.iter().map(pick).collect::<Vec<_>>())
    };
    let pb_sym = lineup("core.pb_sym", Algorithm::PbSym, 1);
    layers.put("core.pb_sym.wall_s", median_of(&pb_sym, |r| r.0));
    layers.put(
        "core.pb_sym.init_s",
        median_of(&pb_sym, |r| r.1.init.as_secs_f64()),
    );
    layers.put(
        "core.pb_sym.compute_s",
        median_of(&pb_sym, |r| r.1.compute.as_secs_f64()),
    );
    let dr = lineup("core.dr", Algorithm::PbSymDr, threads);
    layers.put("core.dr.wall_s", median_of(&dr, |r| r.0));
    layers.put(
        "core.dr.reduce_s",
        median_of(&dr, |r| r.1.reduce.as_secs_f64()),
    );
    let dd = lineup(
        "core.dd",
        Algorithm::PbSymDd {
            decomp: Decomp::cubic(DD_DECOMP),
        },
        threads,
    );
    layers.put("core.dd.wall_s", median_of(&dd, |r| r.0));
    layers.put("core.dd.bin_s", median_of(&dd, |r| r.1.bin.as_secs_f64()));
    let pd = lineup(
        "core.pd_sched",
        Algorithm::PbSymPdSched {
            decomp: Decomp::cubic(PD_DECOMP),
        },
        threads,
    );
    layers.put("core.pd_sched.wall_s", median_of(&pd, |r| r.0));
    let auto = lineup("core.auto", Algorithm::Auto, threads);
    let best = [&pb_sym, &dr, &dd, &pd]
        .iter()
        .map(|reps| median_of(reps, |r| r.0).value())
        .fold(f64::INFINITY, f64::min);
    layers.put(
        "core.model.regret",
        Measured::new(median_of(&auto, |r| r.0).value() / best, SLOW_REPS),
    );

    // core.sparse: the brick-sparse backend `Auto` does not pick yet.
    let (secs, grid) = timed(tracer, "core.sparse.run", SLOW_REPS, || {
        sparse::run::<f32, _>(&problem, &Epanechnikov, pts).0
    });
    layers.put("core.sparse.run_s", Measured::median(&secs));
    layers.put("core.sparse.occupancy", Measured::new(grid.occupancy(), 1));
    let (secs, _) = timed(tracer, "grid.sparse.to_dense", SLOW_REPS, || {
        grid.to_dense()
    });
    layers.put("grid.sparse.to_dense_s", Measured::median(&secs));
    drop(grid);
    let (secs, _) = timed(tracer, "core.sparse.run_par", SLOW_REPS, || {
        sparse::run_par::<f32, _>(&problem, &Epanechnikov, pts, threads)
            .expect("threads > 0")
            .0
    });
    layers.put("core.sparse.run_par_s", Measured::median(&secs));
}

fn request(method: &str, path: &str, query: &[(&str, String)], body: &[u8]) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        headers: Vec::new(),
        body: body.to_vec(),
    }
}

/// A `GET path?query` string as the in-process [`Request`] the daemon's
/// HTTP layer would hand to `routes::handle`.
pub fn get_request(path_and_query: &str) -> Request {
    let (path, query) = path_and_query
        .split_once('?')
        .unwrap_or((path_and_query, ""));
    let pairs: Vec<(&str, String)> = query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k, v.to_string()))
        .collect();
    request("GET", path, &pairs, b"")
}

/// The median of `secs` in units of `1 / per_second` seconds.
fn median_in(secs: &[f64], per_second: f64) -> Measured {
    Measured::median(&secs.iter().map(|s| s * per_second).collect::<Vec<_>>())
}

fn millis(secs: &[f64]) -> Measured {
    median_in(secs, 1e3)
}

fn micros(secs: &[f64]) -> Measured {
    median_in(secs, 1e6)
}

fn nanos(secs: &[f64]) -> Measured {
    median_in(secs, 1e9)
}

/// An in-process service shaped like the daemon's (its default four
/// shards), holding `live`.
fn service_holding(live: &[Point], window: f64) -> Arc<DensityService> {
    let mut config = ServiceConfig::new(serve::domain(), serve::bandwidth(), window);
    config.shards = SHARDS;
    let svc = DensityService::start(config);
    svc.enqueue(live.to_vec()).expect("service is up");
    svc.wait_drained();
    svc
}

/// In-process `routes::handle` times of one read class, µs per call, on a
/// service holding `live`: what the round trip spends outside HTTP.
pub fn handle_us(svc: &DensityService, paths: &[String]) -> Measured {
    let secs: Vec<f64> = paths
        .iter()
        .map(|p| {
            let req = get_request(p);
            let start = Instant::now();
            let resp = black_box(routes::handle(svc, &req));
            assert_eq!(resp.status, 200, "in-process {p} answered {}", resp.status);
            start.elapsed().as_secs_f64()
        })
        .collect();
    micros(&secs)
}

/// The write path's layers, replayed in-process: `stream` is a
/// time-ordered event stream whose first `live` events fill the window.
pub fn write_layers(
    layers: &mut Layers,
    tracer: &Tracer,
    stream: &[Point],
    live: usize,
    window: f64,
) {
    let posts: Vec<&[Point]> = stream[live..]
        .chunks(serve::POST_EVENTS)
        .take(FAST_REPS)
        .collect();
    let bodies: Vec<Vec<u8>> = posts.iter().map(|p| serve::events_body(p)).collect();

    // server.json / server.routes / server.service: one POST's way in.
    let secs: Vec<f64> = tracer.time("server.json.parse", || {
        bodies
            .iter()
            .map(|b| {
                let text = std::str::from_utf8(b).expect("bodies are UTF-8");
                let start = Instant::now();
                black_box(Json::parse(text).expect("bodies are JSON"));
                start.elapsed().as_secs_f64()
            })
            .collect()
    });
    layers.put("server.json.parse_events_us", micros(&secs));
    let svc = service_holding(&stream[..live], window);
    let half = bodies.len() / 2;
    let secs: Vec<f64> = tracer.time("server.routes.events", || {
        bodies[..half]
            .iter()
            .map(|b| {
                let req = request("POST", "/events", &[], b);
                let start = Instant::now();
                let resp = black_box(routes::handle(&svc, &req));
                assert_eq!(resp.status, 202);
                start.elapsed().as_secs_f64()
            })
            .collect()
    });
    layers.put("server.routes.events_us", micros(&secs));
    let secs: Vec<f64> = tracer.time("server.service.enqueue", || {
        posts[half..]
            .iter()
            .map(|p| {
                let batch = p.to_vec();
                let start = Instant::now();
                black_box(svc.enqueue(batch).expect("service is up"));
                start.elapsed().as_secs_f64()
            })
            .collect()
    });
    layers.put("server.service.enqueue_us", micros(&secs));
    svc.wait_drained();
    svc.shutdown();

    // core.sharded: the writer's push + publish per coalesced batch, at
    // the batch size the daemon coalesces to under saturation.
    let mut cube = ShardedWindowStkde::<f64, ServeKernel>::with_kernel(
        serve::domain(),
        serve::bandwidth(),
        window,
        SHARDS,
        ServeKernel::default(),
    );
    cube.push_batch(&stream[..live]);
    let mut published = cube.publish();
    let slab_bytes = |snap: &stkde_core::CubeSnapshot<f64>, i: usize| {
        let s = &snap.shards()[i];
        (s.t1 - s.t0) * serve::DIMS.0 * serve::DIMS.1 * std::mem::size_of::<f64>()
    };
    let (mut push_us, mut publish_ms, mut copied, mut bytes, mut evict) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    tracer.time("core.sharded.write", || {
        for batch in stream[live..].chunks(1024).take(100) {
            let start = Instant::now();
            let pushed = cube.push_batch(batch);
            let mid = Instant::now();
            let snap = cube.publish();
            let end = Instant::now();
            push_us.push((mid - start).as_secs_f64() * 1e6 / batch.len() as f64);
            publish_ms.push((end - mid).as_secs_f64() * 1e3);
            let fresh: Vec<usize> = (0..snap.shards().len())
                .filter(|&i| !Arc::ptr_eq(&snap.shards()[i], &published.shards()[i]))
                .collect();
            copied.push(fresh.len() as f64);
            bytes.push(fresh.iter().map(|&i| slab_bytes(&snap, i)).sum::<usize>() as f64);
            evict.push(pushed.evicted as f64 / (pushed.evicted + pushed.inserted).max(1) as f64);
            published = snap;
        }
    });
    let push = Measured::median(&push_us);
    let publish = Measured::median(&publish_ms);
    layers.put("core.sharded.push_batch_us_per_event", push);
    layers.put("core.sharded.publish_ms", publish);
    layers.put("core.sharded.publish_bytes", Measured::median(&bytes));
    layers.put(
        "core.sharded.publish_share",
        Measured::new(
            publish.value() / (publish.value() + push.value() * 1024.0 / 1e3),
            publish_ms.len(),
        ),
    );
    layers.put(
        "core.sharded.slabs_copied_per_batch",
        Measured::median(&copied),
    );
    layers.put("core.sharded.evict_share", Measured::median(&evict));
}

/// The read path's layers on a cube holding `live`, with the boxes and
/// planes the read mix asks for.
pub fn read_layers(
    layers: &mut Layers,
    tracer: &Tracer,
    live: &[Point],
    window: f64,
    wide: &[VoxelRange],
) -> Arc<DensityService> {
    let svc = service_holding(live, window);
    let snap = svc.snapshot();
    let base_err = svc.kernel_error_bound();

    // grid.pyramid: the lazy build a first approximate query pays.
    let report = tracer.time("grid.pyramid.build", || snap.ensure_pyramids());
    layers.put(
        "grid.pyramid.build_ms",
        Measured::new(report.seconds * 1e3, report.built.max(1)),
    );
    layers.put(
        "grid.pyramid.bytes",
        Measured::new(snap.pyramid_bytes() as f64, 1),
    );

    // core.sharded: the folds behind /region and /slice.
    let (mut exact_s, mut rate, mut approx_s, mut level) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    tracer.time("core.sharded.read", || {
        for &r in wide {
            let start = Instant::now();
            let stats = black_box(snap.density_range(r));
            let exact = start.elapsed().as_secs_f64();
            exact_s.push(exact);
            rate.push(stats.total as f64 / exact);
            let start = Instant::now();
            let a = black_box(snap.density_range_approx(r, 0.1, base_err));
            approx_s.push(start.elapsed().as_secs_f64());
            level.push(a.level as f64);
        }
    });
    layers.put("core.sharded.density_range_ms", millis(&exact_s));
    layers.put(
        "core.sharded.density_range_voxels_per_s",
        Measured::median(&rate),
    );
    layers.put("core.sharded.density_range_approx_ms", millis(&approx_s));
    layers.put(
        "core.sharded.approx_level_mean",
        Measured::new(level.iter().sum::<f64>() / level.len() as f64, level.len()),
    );
    let (secs, plane) = timed(tracer, "core.sharded.density_slice", FAST_REPS, || {
        snap.density_slice(serve::DIMS.2 / 2)
            .expect("t is inside the grid")
    });
    layers.put("core.sharded.density_slice_us", micros(&secs));
    let (secs, _) = timed(
        tracer,
        "core.sharded.cache_epoch_key",
        10 * FAST_REPS,
        || snap.cache_epoch_key(0, serve::DIMS.2),
    );
    layers.put("core.sharded.cache_epoch_key_ns", nanos(&secs));

    // server.json: encoding one /slice body.
    let body = Json::obj([
        ("t", Json::from(serve::DIMS.2 / 2)),
        ("gx", Json::from(serve::DIMS.0)),
        ("gy", Json::from(serve::DIMS.1)),
        ("generation", Json::from(snap.generation())),
        (
            "values",
            Json::Arr(plane.into_iter().map(Json::from).collect()),
        ),
    ]);
    let (secs, encoded) = timed(tracer, "server.json.encode", FAST_REPS, || body.encode());
    let encode = micros(&secs);
    layers.put("server.json.encode_slice_us", encode);
    layers.put(
        "server.json.encode_mb_per_s",
        Measured::new(encoded.len() as f64 / encode.value(), secs.len()),
    );

    // server.cache / server.service: a hit in a full cache, bare and
    // through `cached_read` (key build + lookup + Arc clone).
    let mut cache: LruCache<(String, String), Arc<[u8]>> = LruCache::new(64);
    let key = |i: usize| {
        (
            format!("region:{i}"),
            snap.cache_epoch_key(0, serve::DIMS.2),
        )
    };
    for i in 0..64 {
        cache.insert(key(i), Arc::from(encoded.as_bytes()));
    }
    let probe = key(31);
    let (secs, _) = timed(tracer, "server.cache.lookup", 10 * FAST_REPS, || {
        cache.get(&probe).expect("the key was inserted")
    });
    layers.put("server.cache.lookup_ns", nanos(&secs));
    let read = || svc.cached_read("probe:hit", 8, 16, |_| body.clone());
    read();
    let (secs, _) = timed(tracer, "server.service.cached_read", 10 * FAST_REPS, read);
    layers.put("server.service.cached_read_hit_us", micros(&secs));
    svc
}
