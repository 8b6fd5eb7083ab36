//! Cross-crate integration for the extension features: every alternative
//! execution path (sparse backend, distributed ranks, incremental updates,
//! tabulated kernels) must reproduce the engine's gold-standard density.

use stkde::core::distmem::{self, DistStrategy};
use stkde::core::sparse;
use stkde::core::ShardedWindowStkde;
use stkde::kernels::{Epanechnikov, Tabulated, TruncatedGaussian};
use stkde::prelude::*;
use stkde::{IncrementalStkde, Problem, ResultExt};
use stkde_data::synth::{self, ClusterSpec};

fn instance(seed: u64) -> (Domain, Bandwidth, PointSet) {
    let domain = Domain::from_dims(GridDims::new(28, 22, 18));
    let spec = ClusterSpec {
        clusters: 3,
        spatial_sigma: 0.05,
        background: 0.1,
        ..Default::default()
    };
    let points = spec.generate(70, domain.extent(), seed);
    (domain, Bandwidth::new(3.5, 2.5), points)
}

fn reference(domain: Domain, bw: Bandwidth, points: &PointSet) -> Grid3<f64> {
    Stkde::new(domain, bw)
        .algorithm(Algorithm::Vb)
        .compute::<f64>(points)
        .unwrap()
        .grid
}

#[test]
fn sparse_backend_matches_vb_end_to_end() {
    let (domain, bw, points) = instance(41);
    let vb = reference(domain, bw, &points);
    // Library-level sparse run.
    let problem = Problem::new(domain, bw, points.len());
    let (grid, _) = sparse::run::<f64, _>(&problem, &Epanechnikov, points.as_slice());
    assert!(grid.max_abs_diff_dense(&vb) < 1e-9);
    // Engine-level sparse run, sequential and replicated.
    for threads in [1, 3] {
        let r = Stkde::new(domain, bw)
            .threads(threads)
            .compute_sparse::<f64>(&points)
            .unwrap();
        assert!(
            r.grid.max_abs_diff_dense(&vb) < 1e-9,
            "threads={threads} diverges"
        );
        assert!(r.occupancy() > 0.0 && r.occupancy() <= 1.0);
    }
}

#[test]
fn distributed_strategies_match_vb_end_to_end() {
    let (domain, bw, points) = instance(42);
    let vb = reference(domain, bw, &points);
    let problem = Problem::new(domain, bw, points.len());
    for strategy in [DistStrategy::PointExchange, DistStrategy::HaloExchange] {
        for ranks in [2, 4, 7] {
            let r =
                distmem::run::<f64, _>(&problem, &Epanechnikov, points.as_slice(), ranks, strategy)
                    .unwrap();
            assert!(
                vb.max_rel_diff(&r.grid, 1e-12) < 1e-8,
                "{strategy} ranks={ranks}"
            );
        }
    }
}

#[test]
fn incremental_matches_vb_end_to_end() {
    let (domain, bw, points) = instance(43);
    let vb = reference(domain, bw, &points);
    let mut inc = IncrementalStkde::new(domain, bw);
    for &p in &points {
        inc.insert(p);
    }
    assert!(vb.max_rel_diff(&inc.snapshot(), 1e-12) < 1e-8);
}

#[test]
fn incremental_removal_tracks_engine_subset() {
    // Insert everything, remove the second half; must equal a batch run
    // over the first half.
    let (domain, bw, points) = instance(44);
    let all: Vec<Point> = points.iter().copied().collect();
    let (keep, drop) = all.split_at(all.len() / 2);
    let mut inc = IncrementalStkde::new(domain, bw);
    for &p in &all {
        inc.insert(p);
    }
    for p in drop {
        inc.remove(p);
    }
    let batch = reference(domain, bw, &PointSet::from_vec(keep.to_vec()));
    assert!(batch.max_rel_diff(&inc.snapshot(), 1e-11) < 1e-7);
}

#[test]
fn tabulated_kernel_flows_through_every_algorithm() {
    let (domain, bw, points) = instance(45);
    let lut = Tabulated::new(Epanechnikov);
    let vb = Stkde::new(domain, bw)
        .kernel(lut.clone())
        .algorithm(Algorithm::Vb)
        .compute::<f64>(&points)
        .unwrap();
    for alg in [
        Algorithm::PbSym,
        Algorithm::PbSymDr,
        Algorithm::PbSymPdSchedRep {
            decomp: Decomp::cubic(3),
        },
    ] {
        let r = Stkde::new(domain, bw)
            .kernel(lut.clone())
            .algorithm(alg)
            .threads(2)
            .compute::<f64>(&points)
            .unwrap();
        assert!(
            vb.grid().max_rel_diff(r.grid(), 1e-12) < 1e-8,
            "{alg} under tabulated kernel"
        );
    }
    // And the LUT itself tracks its base kernel through the engine.
    let exact = Stkde::new(domain, bw)
        .kernel(TruncatedGaussian::default())
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&points)
        .unwrap();
    let tab = Stkde::new(domain, bw)
        .kernel(Tabulated::new(TruncatedGaussian::default()))
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&points)
        .unwrap();
    let scale = stkde::grid_stats(exact.grid()).max;
    assert!(
        exact.grid().max_abs_diff(tab.grid()) < 1e-4 * scale,
        "LUT deviates beyond its interpolation budget"
    );
}

#[test]
fn sparse_distributed_and_dense_agree_with_each_other() {
    // Three independent execution paths; all must tell the same story.
    let (domain, bw, points) = instance(46);
    let problem = Problem::new(domain, bw, points.len());
    let dense = Stkde::new(domain, bw)
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&points)
        .unwrap();
    let (sparse_grid, _) = sparse::run::<f64, _>(&problem, &Epanechnikov, points.as_slice());
    let dist = distmem::run::<f64, _>(
        &problem,
        &Epanechnikov,
        points.as_slice(),
        3,
        DistStrategy::HaloExchange,
    )
    .unwrap();
    assert!(sparse_grid.max_abs_diff_dense(dense.grid()) < 1e-10);
    assert!(dense.grid().max_rel_diff(&dist.grid, 1e-12) < 1e-8);
}

#[test]
fn window_stream_tracks_repeated_batch_queries() {
    // Replay a stream; at several checkpoints the window must equal a
    // batch run over exactly the in-window events.
    let (domain, bw, points) = instance(47);
    let mut feed: Vec<Point> = points.iter().copied().collect();
    feed.sort_by(|a, b| a.t.total_cmp(&b.t));
    let window = 5.0;
    let mut live = ShardedWindowStkde::<f64>::new(domain, bw, window, 1);
    for (i, &p) in feed.iter().enumerate() {
        live.push_batch(&[p]);
        if i % 25 == 24 || i + 1 == feed.len() {
            let survivors: Vec<Point> = feed[..=i]
                .iter()
                .filter(|q| q.t >= p.t - window)
                .copied()
                .collect();
            let batch = reference(domain, bw, &PointSet::from_vec(survivors.clone()));
            assert_eq!(live.len(), survivors.len(), "checkpoint {i}");
            // Eviction is exact: the window is a fresh cube of its survivors.
            let mut fresh = IncrementalStkde::new(domain, bw);
            fresh.insert_batch(&survivors);
            assert_eq!(live.assemble(), fresh.assemble(), "checkpoint {i}");
            // The normalized cube as readers see it, plane by plane.
            let snap = live.publish();
            let planes = (0..domain.dims().gt).flat_map(|t| snap.density_slice(t).unwrap());
            let served = Grid3::from_vec(domain.dims(), planes.collect());
            assert!(
                batch.max_rel_diff(&served, 1e-11) < 1e-7,
                "checkpoint {i} diverges"
            );
        }
    }
}

#[test]
fn sparse_dr_uses_less_memory_than_dense_dr_would() {
    // A Flu-shaped instance: dense DR at 4 threads needs 4 full grids;
    // sparse DR must come in far below even one.
    let domain = Domain::from_dims(GridDims::new(160, 160, 80));
    let bw = Bandwidth::new(2.0, 2.0);
    let points = synth::uniform(40, domain.extent(), 48);
    let r = Stkde::new(domain, bw)
        .threads(4)
        .compute_sparse::<f32>(&points)
        .unwrap();
    let one_dense = domain.dims().bytes::<f32>();
    assert!(
        r.grid.allocated_bytes() < one_dense / 4,
        "sparse {} vs one dense grid {}",
        r.grid.allocated_bytes(),
        one_dense
    );
}
