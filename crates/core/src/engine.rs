//! The unified STKDE engine: algorithm selection, configuration, execution.

use crate::algorithms::{pb, pb_bar, pb_disk, pb_sym, vb, vb_dec};
use crate::error::{default_memory_budget, StkdeError};
use crate::model;
use crate::parallel::{dd, dr, pd, pd_rep, pd_sched};
use crate::problem::Problem;
use crate::timing::PhaseTimings;
use stkde_data::PointSet;
use stkde_grid::{Bandwidth, Decomp, Domain, Grid3, Scalar};
use stkde_kernels::{Epanechnikov, SpaceTimeKernel};

/// Which STKDE algorithm to run (the paper's full lineup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Voxel-based gold standard (Algorithm 1).
    Vb,
    /// Voxel-based with point blocking (§6.2).
    VbDec,
    /// Point-based (Algorithm 2).
    Pb,
    /// Point-based, spatial invariant hoisted (§3.2).
    PbDisk,
    /// Point-based, temporal invariant hoisted (§3.2).
    PbBar,
    /// Point-based, both invariants hoisted (Algorithm 3).
    PbSym,
    /// Parallel: domain replication (Algorithm 4).
    PbSymDr,
    /// Parallel: domain decomposition (Algorithm 5).
    PbSymDd {
        /// Subdomain lattice shape.
        decomp: Decomp,
    },
    /// Parallel: phased point decomposition (Algorithm 6).
    PbSymPd {
        /// Requested lattice shape (auto-adjusted to ≥ 2·bandwidth).
        decomp: Decomp,
    },
    /// Parallel: point decomposition with load-aware coloring + DAG
    /// scheduling (§5.2).
    PbSymPdSched {
        /// Requested lattice shape (auto-adjusted).
        decomp: Decomp,
    },
    /// Parallel: point decomposition with critical-path replication
    /// (lexicographic coloring) (§5.2).
    PbSymPdRep {
        /// Requested lattice shape (auto-adjusted).
        decomp: Decomp,
    },
    /// Parallel: replication on top of load-aware scheduling — the
    /// `PB-SYM-PD-SCHED-REP` of Figure 15.
    PbSymPdSchedRep {
        /// Requested lattice shape (auto-adjusted).
        decomp: Decomp,
    },
    /// Pick an algorithm from the cost model (the parametric model the
    /// paper's conclusion calls for).
    Auto,
}

impl Algorithm {
    /// The paper's name for this algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Vb => "VB",
            Algorithm::VbDec => "VB-DEC",
            Algorithm::Pb => "PB",
            Algorithm::PbDisk => "PB-DISK",
            Algorithm::PbBar => "PB-BAR",
            Algorithm::PbSym => "PB-SYM",
            Algorithm::PbSymDr => "PB-SYM-DR",
            Algorithm::PbSymDd { .. } => "PB-SYM-DD",
            Algorithm::PbSymPd { .. } => "PB-SYM-PD",
            Algorithm::PbSymPdSched { .. } => "PB-SYM-PD-SCHED",
            Algorithm::PbSymPdRep { .. } => "PB-SYM-PD-REP",
            Algorithm::PbSymPdSchedRep { .. } => "PB-SYM-PD-SCHED-REP",
            Algorithm::Auto => "AUTO",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of one STKDE computation.
#[derive(Debug, Clone)]
pub struct StkdeResult<S> {
    /// The density grid.
    pub grid: Grid3<S>,
    /// Phase timing breakdown.
    pub timings: PhaseTimings,
    /// The algorithm that actually ran (resolved from `Auto` if needed).
    pub algorithm: Algorithm,
    /// Worker threads used.
    pub threads: usize,
}

/// Builder-style front door to the STKDE engine.
///
/// ```
/// use stkde_core::{Stkde, Algorithm};
/// use stkde_grid::{Domain, GridDims, Bandwidth, Decomp};
/// use stkde_data::{Point, PointSet};
///
/// let domain = Domain::from_dims(GridDims::new(24, 24, 12));
/// let points = PointSet::from_vec(vec![Point::new(12.0, 12.0, 6.0)]);
/// let result = Stkde::new(domain, Bandwidth::new(3.0, 2.0))
///     .algorithm(Algorithm::PbSymDd { decomp: Decomp::cubic(4) })
///     .threads(2)
///     .compute::<f32>(&points)
///     .unwrap();
/// assert_eq!(result.algorithm.name(), "PB-SYM-DD");
/// ```
#[derive(Debug, Clone)]
pub struct Stkde<K = Epanechnikov> {
    domain: Domain,
    bw: Bandwidth,
    algorithm: Algorithm,
    threads: usize,
    memory_limit: usize,
    kernel: K,
}

impl Stkde<Epanechnikov> {
    /// New engine over a domain and bandwidth, with the default
    /// Epanechnikov kernel, `PB-SYM`, and one thread.
    pub fn new(domain: Domain, bw: Bandwidth) -> Self {
        Self {
            domain,
            bw,
            algorithm: Algorithm::PbSym,
            threads: 1,
            memory_limit: default_memory_budget(),
            kernel: Epanechnikov,
        }
    }
}

impl<K: SpaceTimeKernel> Stkde<K> {
    /// Use a different separable space-time kernel.
    pub fn kernel<K2: SpaceTimeKernel>(self, kernel: K2) -> Stkde<K2> {
        Stkde {
            domain: self.domain,
            bw: self.bw,
            algorithm: self.algorithm,
            threads: self.threads,
            memory_limit: self.memory_limit,
            kernel,
        }
    }

    /// Select the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Set the number of worker threads (parallel algorithms only).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Cap the memory the computation may use (DR replicas, REP buffers).
    pub fn memory_limit(mut self, bytes: usize) -> Self {
        self.memory_limit = bytes;
        self
    }

    /// The problem description this engine solves for `n` points.
    pub(crate) fn problem(&self, n: usize) -> Problem {
        Problem::new(self.domain, self.bw, n)
    }

    /// Run a *sparse-grid* computation (extension, see [`crate::sparse`]):
    /// sequential sparse `PB-SYM` for one thread, shared-grid parallel
    /// sparse scatter (time slabs + lock-free brick allocation) otherwise.
    /// The configured `algorithm` is ignored — sparseness is a grid-backend
    /// choice, not one of the paper's algorithm variants.
    pub fn compute_sparse<S: Scalar>(
        &self,
        points: &PointSet,
    ) -> Result<crate::sparse::SparseResult<S>, StkdeError> {
        let problem = self.problem(points.len());
        let pts = points.as_slice();
        let (grid, timings) = if self.threads <= 1 {
            crate::sparse::run(&problem, &self.kernel, pts)
        } else {
            crate::sparse::run_par(&problem, &self.kernel, pts, self.threads)?
        };
        Ok(crate::sparse::SparseResult {
            grid,
            timings,
            threads: self.threads,
        })
    }

    /// Run the computation.
    pub fn compute<S: Scalar>(&self, points: &PointSet) -> Result<StkdeResult<S>, StkdeError> {
        let problem = self.problem(points.len());
        let pts = points.as_slice();
        let threads = self.threads;
        if threads == 0 {
            return Err(StkdeError::InvalidConfig("threads must be > 0".into()));
        }
        let algorithm = match self.algorithm {
            Algorithm::Auto => model::select(&problem, threads, self.memory_limit),
            other => other,
        };
        let (grid, timings) = match algorithm {
            Algorithm::Vb => Ok(vb::run(&problem, &self.kernel, pts)),
            Algorithm::VbDec => Ok(vb_dec::run(&problem, &self.kernel, pts)),
            Algorithm::Pb => Ok(pb::run(&problem, &self.kernel, pts)),
            Algorithm::PbDisk => Ok(pb_disk::run(&problem, &self.kernel, pts)),
            Algorithm::PbBar => Ok(pb_bar::run(&problem, &self.kernel, pts)),
            Algorithm::PbSym => Ok(pb_sym::run(&problem, &self.kernel, pts)),
            Algorithm::PbSymDr => dr::run(&problem, &self.kernel, pts, threads, self.memory_limit),
            Algorithm::PbSymDd { decomp } => dd::run(&problem, &self.kernel, pts, decomp, threads),
            Algorithm::PbSymPd { decomp } => pd::run(&problem, &self.kernel, pts, decomp, threads),
            Algorithm::PbSymPdSched { decomp } => pd_sched::run(
                &problem,
                &self.kernel,
                pts,
                decomp,
                threads,
                pd_sched::Ordering::LoadAware,
            ),
            Algorithm::PbSymPdRep { decomp } => pd_rep::run(
                &problem,
                &self.kernel,
                pts,
                decomp,
                threads,
                pd_sched::Ordering::Lexicographic,
                self.memory_limit,
            ),
            Algorithm::PbSymPdSchedRep { decomp } => pd_rep::run(
                &problem,
                &self.kernel,
                pts,
                decomp,
                threads,
                pd_sched::Ordering::LoadAware,
                self.memory_limit,
            ),
            Algorithm::Auto => unreachable!("Auto resolved above"),
        }?;
        tally::huge_pages();
        Ok(StkdeResult {
            grid,
            timings,
            algorithm,
            threads,
        })
    }
}

/// Dense-grid tallies: `stkde-grid` counts its huge-page advice in
/// atomics of its own (it carries no obs dependency); every run drains
/// them into the catalog, including what grids built outside the engine
/// (`SparseGrid3::to_dense`, rank slabs) added since the last run.
mod tally {
    use stkde_obs::names;

    pub(super) fn huge_pages() {
        let (advised_bytes, refused) = stkde_grid::take_hugepage_tally();
        stkde_obs::counter!(names::GRID_HUGEPAGE_ADVISED_BYTES).add(advised_bytes);
        stkde_obs::counter!(names::GRID_HUGEPAGE_REFUSED).add(refused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_data::{synth, Point};
    use stkde_grid::GridDims;

    fn engine() -> (Stkde, PointSet) {
        let domain = Domain::from_dims(GridDims::new(24, 24, 12));
        let points = synth::uniform(40, domain.extent(), 17);
        (Stkde::new(domain, Bandwidth::new(3.0, 2.0)), points)
    }

    #[test]
    fn every_algorithm_agrees_with_vb() {
        let (engine, points) = engine();
        let vb = engine
            .clone()
            .algorithm(Algorithm::Vb)
            .compute::<f64>(&points)
            .unwrap();
        let d = Decomp::cubic(4);
        for alg in [
            Algorithm::VbDec,
            Algorithm::Pb,
            Algorithm::PbDisk,
            Algorithm::PbBar,
            Algorithm::PbSym,
            Algorithm::PbSymDr,
            Algorithm::PbSymDd { decomp: d },
            Algorithm::PbSymPd { decomp: d },
            Algorithm::PbSymPdSched { decomp: d },
            Algorithm::PbSymPdRep { decomp: d },
            Algorithm::PbSymPdSchedRep { decomp: d },
        ] {
            let r = engine
                .clone()
                .algorithm(alg)
                .threads(2)
                .compute::<f64>(&points)
                .unwrap();
            let diff = vb.grid.max_rel_diff(&r.grid, 1e-13);
            assert!(diff < 1e-9, "{alg} differs from VB by {diff}");
            assert_eq!(r.algorithm.name(), alg.name());
            assert_eq!(r.threads, 2);
        }
    }

    #[test]
    fn auto_resolves_to_concrete_algorithm() {
        let (engine, points) = engine();
        let r = engine
            .algorithm(Algorithm::Auto)
            .threads(2)
            .compute::<f32>(&points)
            .unwrap();
        assert_ne!(r.algorithm.name(), "AUTO");
    }

    /// A grid past the advice threshold shows up in the catalog after the
    /// run that built it — as advised bytes, or as a refusal on a host
    /// without huge pages.
    #[cfg(target_os = "linux")]
    #[test]
    fn huge_page_advice_is_published_after_a_run() {
        use stkde_obs::names;
        let seen = || {
            stkde_obs::counter!(names::GRID_HUGEPAGE_ADVISED_BYTES).get()
                + stkde_obs::counter!(names::GRID_HUGEPAGE_REFUSED).get()
        };
        let before = seen();
        let domain = Domain::from_dims(GridDims::new(128, 128, 80));
        let points = PointSet::from_vec(vec![Point::new(64.0, 64.0, 40.0)]);
        Stkde::new(domain, Bandwidth::new(3.0, 2.0))
            .compute::<f32>(&points)
            .unwrap();
        assert!(seen() > before);
    }

    #[test]
    fn zero_threads_rejected() {
        let (engine, points) = engine();
        assert!(matches!(
            engine.threads(0).compute::<f32>(&points),
            Err(StkdeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn custom_kernel_flows_through() {
        let domain = Domain::from_dims(GridDims::new(16, 16, 8));
        let points = PointSet::from_vec(vec![Point::new(8.0, 8.0, 4.0)]);
        let r = Stkde::new(domain, Bandwidth::new(3.0, 2.0))
            .kernel(stkde_kernels::Uniform)
            .algorithm(Algorithm::PbSym)
            .compute::<f64>(&points)
            .unwrap();
        // Uniform kernel: flat density inside the cylinder.
        let a = r.grid.get(8, 8, 4);
        let b = r.grid.get(9, 8, 4);
        assert!(a > 0.0 && (a - b).abs() < 1e-12);
    }

    #[test]
    fn empty_points_supported_everywhere() {
        let (engine, _) = engine();
        let empty = PointSet::new();
        for alg in [
            Algorithm::Vb,
            Algorithm::PbSym,
            Algorithm::PbSymDr,
            Algorithm::PbSymPdSchedRep {
                decomp: Decomp::cubic(2),
            },
        ] {
            let r = engine
                .clone()
                .algorithm(alg)
                .threads(2)
                .compute::<f64>(&empty)
                .unwrap();
            assert!(r.grid.as_slice().iter().all(|&v| v == 0.0), "{alg}");
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Algorithm::PbSymDr.to_string(), "PB-SYM-DR");
        assert_eq!(
            Algorithm::PbSymPdSchedRep {
                decomp: Decomp::cubic(2)
            }
            .to_string(),
            "PB-SYM-PD-SCHED-REP"
        );
    }
}
