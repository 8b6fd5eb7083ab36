//! Failure injection and resource-limit behaviour: the paper's
//! out-of-memory cells (Figures 8 and 14) must surface as typed errors,
//! and bad configurations must be rejected without panics.

use stkde::prelude::*;
use stkde_data::synth;

fn small_instance() -> (Domain, Bandwidth, PointSet) {
    let domain = Domain::from_dims(GridDims::new(32, 32, 16));
    let points = synth::uniform(100, domain.extent(), 5);
    (domain, Bandwidth::new(3.0, 2.0), points)
}

#[test]
fn dr_oom_is_an_error_not_a_crash() {
    let (domain, bw, points) = small_instance();
    let grid_bytes = domain.dims().bytes::<f64>();
    let err = Stkde::new(domain, bw)
        .algorithm(Algorithm::PbSymDr)
        .threads(16)
        .memory_limit(3 * grid_bytes)
        .compute::<f64>(&points)
        .unwrap_err();
    match err {
        StkdeError::MemoryLimit {
            required,
            limit,
            what,
        } => {
            assert_eq!(required, 16 * grid_bytes);
            assert_eq!(limit, 3 * grid_bytes);
            assert!(what.contains("DR"));
        }
        other => panic!("expected MemoryLimit, got {other}"),
    }
}

#[test]
fn rep_oom_under_tight_budget_or_trivial_plan() {
    // Clustered points force replication; a coarse decomposition makes the
    // replica buffers grid-sized (the paper's Figure 14 OOM regime).
    let domain = Domain::from_dims(GridDims::new(40, 40, 20));
    let spec = synth::ClusterSpec {
        clusters: 1,
        spatial_sigma: 0.02,
        background: 0.0,
        weight_tail: 0.0,
        ..Default::default()
    };
    let points = spec.generate(500, domain.extent(), 6);
    let grid_bytes = domain.dims().bytes::<f64>();
    let result = Stkde::new(domain, Bandwidth::new(2.0, 2.0))
        .algorithm(Algorithm::PbSymPdRep {
            decomp: Decomp::cubic(2),
        })
        .threads(4)
        .memory_limit(grid_bytes + (grid_bytes / 4))
        .compute::<f64>(&points);
    match result {
        Err(StkdeError::MemoryLimit { what, .. }) => assert!(what.contains("replica")),
        Ok(_) => { /* planner may decline to replicate; that's valid */ }
        Err(other) => panic!("unexpected error: {other}"),
    }
}

#[test]
fn zero_threads_rejected_everywhere() {
    let (domain, bw, points) = small_instance();
    for alg in [
        Algorithm::PbSym,
        Algorithm::PbSymDr,
        Algorithm::PbSymDd {
            decomp: Decomp::cubic(2),
        },
        Algorithm::PbSymPdSched {
            decomp: Decomp::cubic(2),
        },
    ] {
        let err = Stkde::new(domain, bw)
            .algorithm(alg)
            .threads(0)
            .compute::<f32>(&points)
            .unwrap_err();
        assert!(
            matches!(err, StkdeError::InvalidConfig(_)),
            "{alg} accepted zero threads"
        );
    }
}

#[test]
fn oversubscription_is_allowed_and_correct() {
    // More threads than cores (and than points): legal, just not faster.
    let (domain, bw, points) = small_instance();
    let reference = Stkde::new(domain, bw)
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&points)
        .unwrap();
    let r = Stkde::new(domain, bw)
        .algorithm(Algorithm::PbSymPd {
            decomp: Decomp::cubic(4),
        })
        .threads(32)
        .compute::<f64>(&points)
        .unwrap();
    assert!(reference.grid.max_rel_diff(&r.grid, 1e-14) <= 1e-9);
}

#[test]
fn nan_points_can_be_sanitized_before_compute() {
    let (domain, bw, _) = small_instance();
    let mut points = PointSet::from_vec(vec![
        Point::new(16.0, 16.0, 8.0),
        Point::new(f64::NAN, 1.0, 1.0),
        Point::new(1.0, f64::INFINITY, 1.0),
    ]);
    let dropped = points.retain_finite();
    assert_eq!(dropped, 2);
    let r = Stkde::new(domain, bw)
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&points)
        .unwrap();
    assert!(r.grid.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn degenerate_one_voxel_domain() {
    let domain = Domain::from_dims(GridDims::new(1, 1, 1));
    let points = PointSet::from_vec(vec![Point::new(0.5, 0.5, 0.5)]);
    for alg in [Algorithm::Vb, Algorithm::PbSym, Algorithm::PbSymDr] {
        let r = Stkde::new(domain, Bandwidth::new(1.0, 1.0))
            .algorithm(alg)
            .threads(2)
            .compute::<f64>(&points)
            .unwrap();
        assert!(r.grid.get(0, 0, 0) > 0.0, "{alg}");
    }
}

#[test]
fn memory_limit_large_enough_succeeds() {
    let (domain, bw, points) = small_instance();
    let grid_bytes = domain.dims().bytes::<f32>();
    let r = Stkde::new(domain, bw)
        .algorithm(Algorithm::PbSymDr)
        .threads(2)
        .memory_limit(4 * grid_bytes)
        .compute::<f32>(&points);
    assert!(r.is_ok());
}
