//! Shared measurement helpers for the figure harnesses.

use crate::prep::PreparedInstance;
use stkde_core::{Algorithm, PhaseTimings, Stkde, StkdeError};
use stkde_data::PointSet;
use stkde_grid::Grid3;

/// The cubic decomposition sweep of the paper's Figures 9–14.
pub const DECOMP_SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// A measured sequential `PB-SYM` reference run.
#[derive(Debug, Clone, Copy)]
pub struct SeqReference {
    /// Total wall-clock seconds.
    pub total: f64,
    /// Phase breakdown reported by the engine.
    pub timings: PhaseTimings,
}

impl SeqReference {
    /// Initialization seconds.
    pub fn init_secs(&self) -> f64 {
        self.timings.init.as_secs_f64()
    }

    /// Compute seconds.
    pub fn compute_secs(&self) -> f64 {
        self.timings.compute.as_secs_f64()
    }
}

/// Build an engine for a prepared instance.
pub(crate) fn engine(p: &PreparedInstance) -> Stkde {
    Stkde::new(p.instance.domain(), p.instance.bandwidth())
}

/// The instance's points as a `PointSet` (the engine's input type).
pub fn pointset(p: &PreparedInstance) -> PointSet {
    PointSet::from_vec(p.points.clone())
}

/// Measure the sequential `PB-SYM` reference (f32 grids, paper parity).
pub fn measure_pb_sym(p: &PreparedInstance) -> SeqReference {
    let points = pointset(p);
    let start = std::time::Instant::now();
    let r = engine(p)
        .algorithm(Algorithm::PbSym)
        .compute::<f32>(&points)
        .expect("PB-SYM cannot fail");
    SeqReference {
        total: start.elapsed().as_secs_f64(),
        timings: r.timings,
    }
}

/// Run `alg` with `threads` workers; returns total wall seconds and the
/// engine timings, or the error (e.g. the paper's OOM cells).
pub fn measure(
    p: &PreparedInstance,
    points: &PointSet,
    alg: Algorithm,
    threads: usize,
) -> Result<(f64, PhaseTimings, Grid3<f32>), StkdeError> {
    let start = std::time::Instant::now();
    let r = engine(p)
        .algorithm(alg)
        .threads(threads)
        .compute::<f32>(points)?;
    Ok((start.elapsed().as_secs_f64(), r.timings, r.grid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::HarnessOpts;
    use crate::prep::prepare_instances;
    use stkde_grid::Decomp;

    fn tiny() -> PreparedInstance {
        let opts = HarnessOpts {
            filter: Some("Dengue_Lr-Lb".into()),
            max_voxels: 30_000,
            max_points: 500,
            ..Default::default()
        };
        prepare_instances(&opts).remove(0)
    }

    #[test]
    fn reference_measures_positive_time() {
        let p = tiny();
        let r = measure_pb_sym(&p);
        assert!(r.total > 0.0);
        assert!(r.init_secs() >= 0.0 && r.compute_secs() >= 0.0);
    }

    #[test]
    fn measure_runs_parallel_algorithm() {
        let p = tiny();
        let points = pointset(&p);
        let (t, _, grid) = measure(
            &p,
            &points,
            Algorithm::PbSymDd {
                decomp: Decomp::cubic(4),
            },
            2,
        )
        .unwrap();
        assert!(t > 0.0);
        assert_eq!(grid.dims(), p.problem.domain.dims());
    }
}
