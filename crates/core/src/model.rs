//! A parametric cost model and automatic algorithm selection.
//!
//! The paper's conclusion: *"What we need to do is to develop a parametric
//! model for the problem that will take into account memory availability,
//! cost of memory initialization, expected cost of computing the kernel
//! density. Using that model finding the best execution strategy becomes a
//! combinatorial problem."* This module implements that future-work item.
//!
//! The model prices four cost classes, in nanoseconds on the 2-vCPU
//! benchmark host (only ratios matter for selection):
//!
//! * **initialization** — `Θ(G)` first-touch writes on huge pages
//!   ([`stkde_grid::Grid3::zeros_touched`]). What is left after one fault
//!   per 2 MiB is the kernel zeroing the page, which is bandwidth-bound and
//!   scales sub-linearly (`CostModel::mem_parallelism`; the paper
//!   measured ≈3× at 16 threads on 4-KiB pages);
//! * **kernel computation** — per scattered cylinder a fixed set-up (axis
//!   tables, chords, the first cache miss of each row) plus one update per
//!   voxel of its `(2Hs+1)²(2Ht+1)` box; the set-up is what makes
//!   thin-cylinder instances cost 1.8 ns per box voxel where fat ones
//!   cost 0.3;
//! * **replication overhead** — extra init + reduce (`DR`), or cut
//!   cylinders (`DD`): a cut cylinder is set up once per subdomain it
//!   touches, but its voxel writes are clipped, so they are *not*
//!   replicated;
//! * **task overhead** — `PD` plans, colors and schedules one task per
//!   subdomain of its lattice whether or not any point falls in it.

use crate::engine::Algorithm;
use crate::problem::Problem;
use stkde_grid::{Decomp, Decomposition};

/// The lattice `Auto` requests for the `PD` family.
const PD_LATTICE: usize = 16;

/// Machine/cost coefficients, in nanoseconds (only ratios matter for
/// selection). Fitted to the per-strategy line-up of the 21 catalog
/// instances and the two batch workloads of the repo benchmark on 2
/// threads; EXPERIMENTS.md (`ablation_model`) scores the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CostModel {
    /// Cost of initializing one voxel: 88 MiB of `f32` first-touched in
    /// ≈ 14.5 ms on huge pages.
    pub init_per_voxel: f64,
    /// Cost of one kernel voxel update, per voxel of the cylinder's
    /// bounding box (a vectorized multiply-add on a row that is mostly in
    /// cache).
    pub update_per_voxel: f64,
    /// Cost of reducing one voxel of one replica (read + add + write).
    pub reduce_per_voxel: f64,
    /// Effective parallelism ceiling of memory-bound phases: on two
    /// threads the first touch of an 88-MiB grid goes from ≈ 14 ms to
    /// 9–10 ms, and never below.
    pub mem_parallelism: f64,
    /// Set-up cost of scattering one cylinder into one clip range.
    point_setup: f64,
    /// Cost of one `PD` subdomain task: its share of the plan (binning,
    /// coloring, DAG) and of the scheduler's bookkeeping.
    task: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            init_per_voxel: 0.63,
            update_per_voxel: 0.45,
            reduce_per_voxel: 0.33,
            mem_parallelism: 1.5,
            point_setup: 450.0,
            task: 2200.0,
        }
    }
}

impl CostModel {
    fn mem_scale(&self, threads: usize) -> f64 {
        (threads as f64).min(self.mem_parallelism).max(1.0)
    }

    /// Kernel work of the whole instance when every cylinder is set up
    /// `setups` times on average.
    fn compute(&self, problem: &Problem, setups: f64) -> f64 {
        problem.n as f64 * setups * self.point_setup
            + problem.compute_cost() * self.update_per_voxel
    }

    /// Predicted cost of the sequential `PB-SYM`.
    pub(crate) fn predict_pb_sym(&self, problem: &Problem) -> f64 {
        problem.init_cost() * self.init_per_voxel + self.compute(problem, 1.0)
    }

    /// Predicted cost of `PB-SYM-DR` on `threads` workers.
    pub(crate) fn predict_dr(&self, problem: &Problem, threads: usize) -> f64 {
        let g = problem.init_cost();
        let p = threads as f64;
        let init = p * g * self.init_per_voxel / self.mem_scale(threads);
        let reduce = p * g * self.reduce_per_voxel / self.mem_scale(threads);
        init + self.compute(problem, 1.0) / p + reduce
    }

    /// Estimated DD point-replication factor for a cubic `k³` lattice:
    /// per axis, a cylinder of extent `2H+1` voxels overlaps
    /// `≈ 1 + 2H/(G/k)` subdomains on average.
    pub(crate) fn dd_replication(&self, problem: &Problem, decomp: Decomp) -> f64 {
        let dims = problem.domain.dims();
        let per_axis = |g: usize, k: usize, h: usize| -> f64 {
            let width = (g as f64 / k as f64).max(1.0);
            1.0 + (2 * h) as f64 / width
        };
        per_axis(dims.gx, decomp.a, problem.vbw.hs)
            * per_axis(dims.gy, decomp.b, problem.vbw.hs)
            * per_axis(dims.gt, decomp.c, problem.vbw.ht)
    }

    /// Predicted cost of `PB-SYM-DD` with lattice `decomp`: every piece of
    /// a cut cylinder pays the set-up, the clipped writes add up to one
    /// box. Heaviest-first order over the lattice leaves no imbalance
    /// worth pricing on the thread counts measured.
    pub(crate) fn predict_dd(&self, problem: &Problem, decomp: Decomp, threads: usize) -> f64 {
        let init = problem.init_cost() * self.init_per_voxel / self.mem_scale(threads);
        let rep = self.dd_replication(problem, decomp);
        init + self.compute(problem, rep) / threads as f64
    }

    /// Predicted cost of `PB-SYM-PD-SCHED` on the lattice `Auto` requests:
    /// work-efficient, but one task per subdomain of the adjusted lattice.
    pub(crate) fn predict_pd_sched(&self, problem: &Problem, threads: usize) -> f64 {
        let init = problem.init_cost() * self.init_per_voxel / self.mem_scale(threads);
        let lattice = Decomposition::adjusted(
            problem.domain.dims(),
            Decomp::cubic(PD_LATTICE),
            problem.vbw,
        );
        init + self.compute(problem, 1.0) / threads as f64 + lattice.count() as f64 * self.task
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
                decomp: Decomp::cubic(PD_LATTICE),
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
    /// must never pick it there. The daemon's write path has nothing to
    /// assert: it does not go through `Auto`; its band writer
    /// (`CylinderWriter` in `sharded.rs`) walks each cylinder once per
    /// Y-band with sequential PB-SYM, which repeats no disk.
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

    /// The `batch_sparse` shape (Flu Mr-Hb on an 88-MiB grid): 4 k thin
    /// cylinders leave a PD lattice of 3 072 subdomains, whose plan and
    /// DAG cost more than the scatter they schedule (measured 15 ms for
    /// 9 ms of sequential work) — any PD variant loses to DD and PB-SYM.
    #[test]
    fn pd_never_selected_on_a_flu_shaped_instance() {
        let p = Problem::new(
            Domain::from_dims(GridDims::new(101, 266, 858)),
            Bandwidth::new(4.0, 7.0),
            4_000,
        );
        let alg = select(&p, 2, usize::MAX);
        assert!(
            matches!(alg, Algorithm::PbSymDd { .. } | Algorithm::PbSym),
            "Auto picked {alg:?}"
        );
        let m = CostModel::default();
        assert!(m.predict_dd(&p, Decomp::cubic(8), 2) < m.predict_pd_sched(&p, 2));
    }

    /// The `batch_dense` shape (Dengue Hr-Hb): 101×101×3 cylinders cap
    /// the PD lattice at 16 slabs, so tasks are free and replication is
    /// not — DD sets each cylinder up tens of times — and the measured
    /// best is a PD variant (26 ms against 47 / 54 / 76 for DR / PB-SYM /
    /// DD).
    #[test]
    fn pd_selected_on_a_dengue_shaped_instance() {
        let p = Problem::new(
            Domain::from_dims(GridDims::new(144, 189, 355)),
            Bandwidth::new(50.0, 1.0),
            5_000,
        );
        let alg = select(&p, 2, usize::MAX);
        assert!(
            matches!(
                alg,
                Algorithm::PbSymPdSched { .. } | Algorithm::PbSymPdSchedRep { .. }
            ),
            "Auto picked {alg:?}"
        );
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
