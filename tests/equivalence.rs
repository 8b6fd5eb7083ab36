//! Cross-crate integration: every algorithm in the engine computes the
//! same density field as the gold-standard `VB`, across kernels, scalar
//! types, decompositions, thread counts, and point distributions.

use stkde::prelude::*;
use stkde_data::synth::{self, ClusterSpec};

fn all_parallel(d: Decomp) -> Vec<Algorithm> {
    vec![
        Algorithm::PbSymDr,
        Algorithm::PbSymDd { decomp: d },
        Algorithm::PbSymPd { decomp: d },
        Algorithm::PbSymPdSched { decomp: d },
        Algorithm::PbSymPdRep { decomp: d },
        Algorithm::PbSymPdSchedRep { decomp: d },
    ]
}

fn check_instance(domain: Domain, bw: Bandwidth, points: &PointSet, label: &str) {
    let engine = Stkde::new(domain, bw);
    let reference = engine
        .clone()
        .algorithm(Algorithm::Vb)
        .compute::<f64>(points)
        .unwrap();
    let sequential = [
        Algorithm::VbDec,
        Algorithm::Pb,
        Algorithm::PbDisk,
        Algorithm::PbBar,
        Algorithm::PbSym,
    ];
    for alg in sequential {
        let r = engine
            .clone()
            .algorithm(alg)
            .compute::<f64>(points)
            .unwrap();
        assert!(
            reference.grid.max_rel_diff(&r.grid, 1e-14) <= 1e-9,
            "{label}: {alg} diverges from VB"
        );
    }
    for decomp in [
        Decomp::cubic(2),
        Decomp::cubic(5),
        Decomp::new(4, 2, 3),
        Decomp::new(1, 1, 3),
    ] {
        for alg in all_parallel(decomp) {
            for threads in [1, 2, 4] {
                let r = engine
                    .clone()
                    .algorithm(alg)
                    .threads(threads)
                    .compute::<f64>(points)
                    .unwrap();
                assert!(
                    reference.grid.max_rel_diff(&r.grid, 1e-14) <= 1e-9,
                    "{label}: {alg} (decomp {decomp}, {threads} threads) diverges from VB"
                );
            }
        }
    }
}

#[test]
fn uniform_points_agree() {
    let domain = Domain::from_dims(GridDims::new(20, 18, 10));
    let points = synth::uniform(60, domain.extent(), 1);
    check_instance(domain, Bandwidth::new(3.0, 2.0), &points, "uniform");
}

#[test]
fn clustered_points_agree() {
    let domain = Domain::from_dims(GridDims::new(24, 24, 12));
    let spec = ClusterSpec {
        clusters: 2,
        spatial_sigma: 0.03,
        background: 0.05,
        ..Default::default()
    };
    let points = spec.generate(80, domain.extent(), 2);
    check_instance(domain, Bandwidth::new(2.0, 2.0), &points, "clustered");
}

#[test]
fn boundary_hugging_points_agree() {
    // Every point on the domain boundary: maximal cylinder clipping.
    let domain = Domain::from_dims(GridDims::new(16, 16, 8));
    let e = domain.extent();
    let mut pts = Vec::new();
    for i in 0..40 {
        let f = i as f64 / 40.0;
        pts.push(Point::new(e.min[0] + f * 16.0, e.min[1], e.min[2]));
        pts.push(Point::new(
            e.max[0] - 1e-9,
            e.min[1] + f * 16.0,
            e.max[2] - 1e-9,
        ));
    }
    let points = PointSet::from_vec(pts);
    check_instance(domain, Bandwidth::new(4.0, 3.0), &points, "boundary");
}

#[test]
fn large_bandwidth_agrees() {
    // Bandwidth comparable to the grid: PD collapses to few subdomains.
    let domain = Domain::from_dims(GridDims::new(20, 20, 10));
    let points = synth::uniform(25, domain.extent(), 3);
    check_instance(domain, Bandwidth::new(8.0, 4.0), &points, "large-bw");
}

#[test]
fn f32_parallel_matches_f64_reference() {
    let domain = Domain::from_dims(GridDims::new(32, 32, 16));
    let points = synth::uniform(100, domain.extent(), 4);
    let bw = Bandwidth::new(3.0, 2.0);
    let reference = Stkde::new(domain, bw)
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&points)
        .unwrap();
    for alg in all_parallel(Decomp::cubic(4)) {
        let r = Stkde::new(domain, bw)
            .algorithm(alg)
            .threads(2)
            .compute::<f32>(&points)
            .unwrap();
        let max_diff = reference
            .grid
            .as_slice()
            .iter()
            .zip(r.grid.as_slice())
            .map(|(&a, &b)| (a - b as f64).abs())
            .fold(0.0f64, f64::max);
        let scale = stkde::grid::stats::stats(&reference.grid).max;
        assert!(
            max_diff < 1e-5 * scale.max(1e-30),
            "{alg}: f32 deviates by {max_diff} (scale {scale})"
        );
    }
}

#[test]
fn nonseparable_literal_kernel_consistency() {
    // The paper-literal kernel through the whole engine.
    let domain = Domain::from_dims(GridDims::new(18, 18, 9));
    let points = synth::uniform(40, domain.extent(), 8);
    let bw = Bandwidth::new(3.0, 2.0);
    let vb = Stkde::new(domain, bw)
        .kernel(stkde::kernels::PaperLiteral)
        .algorithm(Algorithm::Vb)
        .compute::<f64>(&points)
        .unwrap();
    let pd = Stkde::new(domain, bw)
        .kernel(stkde::kernels::PaperLiteral)
        .algorithm(Algorithm::PbSymPdSchedRep {
            decomp: Decomp::cubic(3),
        })
        .threads(3)
        .compute::<f64>(&points)
        .unwrap();
    assert!(vb.grid.max_rel_diff(&pd.grid, 1e-14) <= 1e-9);
}

#[test]
fn single_voxel_time_axis() {
    // Degenerate Gt = 1 (purely spatial KDE as a special case).
    let domain = Domain::from_dims(GridDims::new(16, 16, 1));
    let points = synth::uniform(30, domain.extent(), 9);
    check_instance(domain, Bandwidth::new(3.0, 1.0), &points, "flat-time");
}
