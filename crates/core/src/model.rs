//! A parametric cost model and automatic algorithm selection.
//!
//! The paper's conclusion: *"What we need to do is to develop a parametric
//! model for the problem that will take into account memory availability,
//! cost of memory initialization, expected cost of computing the kernel
//! density. Using that model finding the best execution strategy becomes a
//! combinatorial problem."* This module implements that future-work item.
//!
//! The model prices the three cost classes the paper identifies:
//!
//! * **initialization** — `Θ(G)` memory writes, with sub-linear parallel
//!   scaling (the paper measures ≈3× at 16 threads because page faults
//!   serialize in the OS; we expose that as [`CostModel::mem_parallelism`]);
//! * **kernel computation** — `Θ(n·(2Hs+1)²(2Ht+1))` voxel updates, scaling
//!   with threads up to load imbalance;
//! * **replication overhead** — extra init/reduce (`DR`, `REP`) or cut
//!   cylinders (`DD`).

use crate::engine::Algorithm;
use crate::problem::Problem;
use stkde_grid::Decomp;

/// Machine/cost coefficients (in arbitrary consistent units; only ratios
/// matter for selection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of initializing one voxel.
    pub init_per_voxel: f64,
    /// Cost of one kernel voxel update.
    pub update_per_voxel: f64,
    /// Cost of reducing one voxel (read + add + write).
    pub reduce_per_voxel: f64,
    /// Effective parallelism ceiling of memory-bound phases (the paper
    /// observes ≈3 on its 16-core node).
    pub mem_parallelism: f64,
    /// Load-imbalance headroom assumed for decomposed compute phases
    /// (1.0 = perfectly balanced).
    pub imbalance: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            // A kernel update (one fused multiply-add on a hot row) is
            // cheaper than a cold-memory init write.
            init_per_voxel: 1.0,
            update_per_voxel: 0.6,
            reduce_per_voxel: 1.2,
            mem_parallelism: 3.0,
            imbalance: 1.3,
        }
    }
}

impl CostModel {
    fn mem_scale(&self, threads: usize) -> f64 {
        (threads as f64).min(self.mem_parallelism).max(1.0)
    }

    /// Predicted cost of the sequential `PB-SYM`.
    pub fn predict_pb_sym(&self, problem: &Problem) -> f64 {
        problem.init_cost() * self.init_per_voxel + problem.compute_cost() * self.update_per_voxel
    }

    /// Predicted cost of `PB-SYM-DR` on `threads` workers.
    pub fn predict_dr(&self, problem: &Problem, threads: usize) -> f64 {
        let g = problem.init_cost();
        let p = threads as f64;
        let init = p * g * self.init_per_voxel / self.mem_scale(threads);
        let compute = problem.compute_cost() * self.update_per_voxel / p;
        let reduce = p * g * self.reduce_per_voxel / self.mem_scale(threads);
        init + compute + reduce
    }

    /// Estimated DD point-replication factor for a cubic `k³` lattice:
    /// per axis, a cylinder of extent `2H+1` voxels overlaps
    /// `≈ 1 + 2H/(G/k)` subdomains on average.
    pub fn dd_replication(&self, problem: &Problem, decomp: Decomp) -> f64 {
        let dims = problem.domain.dims();
        let per_axis = |g: usize, k: usize, h: usize| -> f64 {
            let width = (g as f64 / k as f64).max(1.0);
            1.0 + (2 * h) as f64 / width
        };
        per_axis(dims.gx, decomp.a, problem.vbw.hs)
            * per_axis(dims.gy, decomp.b, problem.vbw.hs)
            * per_axis(dims.gt, decomp.c, problem.vbw.ht)
    }

    /// Predicted cost of `PB-SYM-DD` with lattice `decomp`.
    pub fn predict_dd(&self, problem: &Problem, decomp: Decomp, threads: usize) -> f64 {
        let init = problem.init_cost() * self.init_per_voxel / self.mem_scale(threads);
        let rep = self.dd_replication(problem, decomp);
        let compute =
            rep * problem.compute_cost() * self.update_per_voxel * self.imbalance / threads as f64;
        init + compute
    }

    /// Predicted cost of `PB-SYM-PD-SCHED` (work-efficient; imbalance only).
    pub fn predict_pd_sched(&self, problem: &Problem, threads: usize) -> f64 {
        let init = problem.init_cost() * self.init_per_voxel / self.mem_scale(threads);
        let compute =
            problem.compute_cost() * self.update_per_voxel * self.imbalance / threads as f64;
        init + compute
    }
}

/// Pick an algorithm (and decomposition) for the instance using the default
/// cost model, honoring the memory budget.
pub fn select(problem: &Problem, threads: usize, memory_limit: usize) -> Algorithm {
    let model = CostModel::default();
    if threads <= 1 {
        return Algorithm::PbSym;
    }
    let mut best = (model.predict_pb_sym(problem), Algorithm::PbSym);
    // DR, if it fits in memory (4-byte voxels assumed for the estimate).
    let dr_bytes = threads * problem.domain.dims().volume() * 4;
    if dr_bytes <= memory_limit {
        let c = model.predict_dr(problem, threads);
        if c < best.0 {
            best = (c, Algorithm::PbSymDr);
        }
    }
    // DD and PD-SCHED over candidate cubic lattices.
    for k in [4usize, 8, 16, 32] {
        let d = Decomp::cubic(k);
        let c = model.predict_dd(problem, d, threads);
        if c < best.0 {
            best = (c, Algorithm::PbSymDd { decomp: d });
        }
    }
    let pd = model.predict_pd_sched(problem, threads);
    if pd < best.0 {
        best = (
            pd,
            Algorithm::PbSymPdSchedRep {
                decomp: Decomp::cubic(16),
            },
        );
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_grid::{Bandwidth, Domain, GridDims};

    /// Sparse, init-dominated instance (Flu-like): huge grid, few points.
    fn sparse() -> Problem {
        Problem::new(
            Domain::from_dims(GridDims::new(300, 300, 300)),
            Bandwidth::new(2.0, 2.0),
            1000,
        )
    }

    /// Compute-dominated instance (PollenUS-Hb-like): small grid, many
    /// points, fat cylinders.
    fn dense() -> Problem {
        Problem::new(
            Domain::from_dims(GridDims::new(64, 64, 16)),
            Bandwidth::new(12.0, 6.0),
            200_000,
        )
    }

    #[test]
    fn dr_never_selected_for_sparse_instances() {
        let alg = select(&sparse(), 16, usize::MAX);
        assert_ne!(
            alg,
            Algorithm::PbSymDr,
            "replicating a huge sparse grid is the paper's worst case"
        );
    }

    #[test]
    fn parallel_algorithm_selected_for_dense_instances() {
        let alg = select(&dense(), 16, usize::MAX);
        assert_ne!(alg, Algorithm::PbSym, "dense instance should parallelize");
    }

    #[test]
    fn memory_limit_disqualifies_dr() {
        let p = dense();
        let unlimited = CostModel::default().predict_dr(&p, 16);
        assert!(unlimited.is_finite());
        // With a tiny budget, DR cannot be chosen even if cheap.
        let alg = select(&p, 16, 1024);
        assert_ne!(alg, Algorithm::PbSymDr);
    }

    #[test]
    fn single_thread_always_pb_sym() {
        assert_eq!(select(&dense(), 1, usize::MAX), Algorithm::PbSym);
        assert_eq!(select(&sparse(), 1, usize::MAX), Algorithm::PbSym);
    }

    /// Ledger finding (d): on the served window DD replicates each
    /// point ≈ 18× on an 8³ lattice and measured 0.10 s against
    /// sequential PB-SYM's 0.018 s (`core.dd.wall_s` vs
    /// `core.pb_sym.wall_s`) — the paper's Fig. 9 overhead, so `Auto`
    /// must never pick it there. The daemon's rebuild path has nothing
    /// to assert: it does not go through `Auto`, `WriterShard::apply`
    /// scatters each slab with sequential PB-SYM.
    #[test]
    fn dd_never_selected_on_the_served_window() {
        for n in [2_000, 20_000, 200_000] {
            let p = Problem::new(
                Domain::from_dims(GridDims::new(64, 64, 32)),
                Bandwidth::new(6.0, 4.0),
                n,
            );
            for threads in [2, 4, 8, 16] {
                let alg = select(&p, threads, usize::MAX);
                assert!(
                    !matches!(alg, Algorithm::PbSymDd { .. }),
                    "n={n} threads={threads}: Auto picked {alg:?}"
                );
            }
        }
    }

    #[test]
    fn dd_replication_monotone_in_k() {
        let p = dense();
        let m = CostModel::default();
        let r4 = m.dd_replication(&p, Decomp::cubic(4));
        let r16 = m.dd_replication(&p, Decomp::cubic(16));
        assert!(r4 >= 1.0);
        assert!(r16 > r4, "finer lattice must replicate more");
    }

    #[test]
    fn predictions_positive_and_ordered() {
        let m = CostModel::default();
        for p in [sparse(), dense()] {
            let seq = m.predict_pb_sym(&p);
            assert!(seq > 0.0);
            // 16-thread PD-SCHED should beat sequential on compute-heavy
            // instances.
            if p.compute_cost() > 10.0 * p.init_cost() {
                assert!(m.predict_pd_sched(&p, 16) < seq);
            }
        }
    }
}
