//! `PB-SYM-PD-SCHED` — point decomposition with coloring + DAG scheduling
//! (paper §5.2).
//!
//! Instead of eight phase barriers, the real constraint is expressed
//! directly: a subdomain may run whenever no lattice *neighbor* is running.
//! A greedy coloring of the 27-point stencil graph orients every edge from
//! lower to higher color; `stkde-sched`'s `run_dag` (the OpenMP `task
//! depend` stand-in) executes the resulting task DAG, each ready task one
//! job on the run's own pool, which also first-touches the grid. Coloring
//! the subdomains in non-increasing load order
//! starts the heaviest subdomains first and shrinks the implied critical
//! path (Figure 12), which is what rescues the clustered PollenUS instances
//! (Figure 13).

use crate::error::StkdeError;
use crate::kernel_apply::{apply_point, PointKernel, Scratch};
use crate::parallel::make_pool;
use crate::problem::Problem;
use crate::timing::{PhaseTimings, Stopwatch};
use stkde_data::{binning::Bins, Point};
use stkde_grid::{Decomp, Decomposition, Grid3, Scalar, SharedGrid, SubdomainId, VoxelRange};
use stkde_kernels::SpaceTimeKernel;
use stkde_sched::{
    coloring, critical_path, greedy_coloring, run_dag, CriticalPath, StencilGraph, TaskDag,
};

/// How the greedy coloring visits the subdomains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Lexicographic order — a baseline equivalent in spirit to the phased
    /// `PB-SYM-PD` (but executed through the DAG, without barriers).
    Lexicographic,
    /// Non-increasing load order — the `PB-SYM-PD-SCHED` heuristic.
    LoadAware,
}

/// The prepared execution plan: decomposition, point bins, task weights,
/// and the colored dependency DAG. Exposed so harnesses can analyze the
/// critical path (Figure 12) without running the kernel computation.
#[derive(Debug, Clone)]
pub struct PdPlan {
    /// The (bandwidth-adjusted) subdomain lattice.
    pub decomposition: Decomposition,
    /// Per-subdomain point lists.
    pub bins: Bins,
    /// Estimated processing time per subdomain (points × cylinder box).
    pub weights: Vec<f64>,
    /// The oriented task DAG.
    pub dag: TaskDag,
}

impl PdPlan {
    /// Critical path of the plan's DAG.
    pub fn critical_path(&self) -> CriticalPath {
        critical_path(&self.dag)
    }

    /// Simulated makespan on `p` virtual processors (greedy list
    /// scheduling with the plan's priorities) — the model used to
    /// reproduce the paper's 16-thread speedups on smaller hosts.
    #[cfg(test)]
    pub(crate) fn simulate(&self, p: usize) -> f64 {
        stkde_sched::list_schedule(&self.dag, p, &self.weights).makespan
    }
}

/// Build the `PD-SCHED` plan: adjusted decomposition, binning, load
/// weights, greedy coloring in the chosen order, DAG orientation.
pub fn plan(problem: &Problem, points: &[Point], decomp: Decomp, ordering: Ordering) -> PdPlan {
    let decomposition = Decomposition::adjusted(problem.domain.dims(), decomp, problem.vbw);
    let bins = binning_for(problem, &decomposition, points);
    let box_vol = problem.vbw.cylinder_box_volume() as f64;
    // Processing time ∝ points in the subdomain × cylinder volume; +1 keeps
    // empty subdomains schedulable with nonzero cost (task overhead).
    let weights: Vec<f64> = bins
        .counts()
        .iter()
        .map(|&c| c as f64 * box_vol + 1.0)
        .collect();
    let graph = StencilGraph::from_decomposition(&decomposition);
    let order = match ordering {
        Ordering::Lexicographic => coloring::order_lexicographic(graph.n()),
        Ordering::LoadAware => coloring::order_by_weight_desc(&weights),
    };
    let coloring = greedy_coloring(&graph, &order);
    let dag = TaskDag::from_coloring(&graph, &coloring, weights.clone());
    PdPlan {
        decomposition,
        bins,
        weights,
        dag,
    }
}

fn binning_for(problem: &Problem, decomposition: &Decomposition, points: &[Point]) -> Bins {
    stkde_data::binning::bin_points(&problem.domain, decomposition, points)
}

/// Execute a prepared plan with `threads` workers.
pub fn execute<S: Scalar, K: SpaceTimeKernel>(
    plan: &PdPlan,
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    threads: usize,
) -> Result<(Grid3<S>, PhaseTimings), StkdeError> {
    let pool = make_pool(threads)?;
    let dims = problem.domain.dims();
    let full = VoxelRange::full(dims);
    pool.install(|| {
        let mut sw = Stopwatch::start();
        let mut grid = Grid3::zeros_parallel(dims);
        let init = sw.lap();
        {
            let shared = SharedGrid::new(&mut grid);
            let shared = &shared;
            run_dag(&plan.dag, &plan.weights, |task| {
                let id = SubdomainId(task);
                let mut scratch = Scratch::default();
                for &pi in plan.bins.points_of(id) {
                    let p = &points[pi as usize];
                    // SAFETY: the DAG orders all adjacent subdomains, so any
                    // two concurrently running tasks are non-adjacent; the
                    // adjusted decomposition makes their halos disjoint.
                    unsafe {
                        apply_point(
                            PointKernel::Sym,
                            shared,
                            problem,
                            kernel,
                            p,
                            full,
                            &mut scratch,
                        );
                    }
                }
            });
        }
        let compute = sw.lap();
        Ok((
            grid,
            PhaseTimings {
                init,
                compute,
                ..Default::default()
            },
        ))
    })
}

/// Convenience wrapper: plan + execute, folding the binning time into the
/// returned timings.
pub(crate) fn run<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    decomp: Decomp,
    threads: usize,
    ordering: Ordering,
) -> Result<(Grid3<S>, PhaseTimings), StkdeError> {
    let mut sw = Stopwatch::start();
    let plan = plan(problem, points, decomp, ordering);
    let bin = sw.lap();
    let (grid, mut timings) = execute(&plan, problem, kernel, points, threads)?;
    timings.bin = bin;
    Ok((grid, timings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pb_sym;
    use stkde_data::synth;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    fn setup(n: usize, seed: u64) -> (Problem, Vec<Point>) {
        let domain = Domain::from_dims(GridDims::new(36, 30, 24));
        let points = synth::uniform(n, domain.extent(), seed).into_vec();
        (Problem::new(domain, Bandwidth::new(2.0, 2.0), n), points)
    }

    #[test]
    fn matches_sequential_both_orderings() {
        let (problem, points) = setup(90, 31);
        let (seq, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);
        for ordering in [Ordering::Lexicographic, Ordering::LoadAware] {
            for threads in [1usize, 2, 4] {
                let (par, _) = run::<f64, _>(
                    &problem,
                    &Epanechnikov,
                    &points,
                    Decomp::cubic(8),
                    threads,
                    ordering,
                )
                .unwrap();
                assert!(
                    seq.max_rel_diff(&par, 1e-13) < 1e-9,
                    "{ordering:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn load_aware_critical_path_mostly_not_worse() {
        // The load-aware ordering is a heuristic; the paper (Figure 12)
        // finds it "marginally decreases the critical path in all but one
        // case". Check the same statistically: over several clustered
        // instances it should win or tie in the majority of cases and
        // never be catastrophically worse.
        let domain = Domain::from_dims(GridDims::new(48, 48, 24));
        let spec = synth::ClusterSpec {
            clusters: 3,
            spatial_sigma: 0.05,
            background: 0.1,
            ..Default::default()
        };
        let seeds = 8u64;
        let (mut sum_lex, mut sum_sched) = (0.0f64, 0.0f64);
        let (mut mk_lex, mut mk_sched) = (0.0f64, 0.0f64);
        for seed in 0..seeds {
            let points = spec.generate(400, domain.extent(), seed).into_vec();
            let problem = Problem::new(domain, Bandwidth::new(2.0, 2.0), points.len());
            let lex = plan(&problem, &points, Decomp::cubic(8), Ordering::Lexicographic);
            let sched = plan(&problem, &points, Decomp::cubic(8), Ordering::LoadAware);
            let cp_lex = lex.critical_path().relative(lex.dag.total_work());
            let cp_sched = sched.critical_path().relative(sched.dag.total_work());
            assert!(
                cp_sched <= cp_lex * 1.25,
                "seed {seed}: load-aware path {cp_sched} much worse than {cp_lex}"
            );
            sum_lex += cp_lex;
            sum_sched += cp_sched;
            mk_lex += lex.simulate(16);
            mk_sched += sched.simulate(16);
        }
        // In aggregate the load-aware ordering must not be worse — the
        // paper finds only marginal critical-path differences, with the
        // real gain showing up in execution (simulated makespan here).
        assert!(
            sum_sched <= sum_lex * 1.05,
            "mean load-aware path {sum_sched} vs lexicographic {sum_lex}"
        );
        assert!(
            mk_sched <= mk_lex * 1.05,
            "mean simulated makespan {mk_sched} vs {mk_lex}"
        );
    }

    #[test]
    fn simulate_gives_sane_speedups() {
        let (problem, points) = setup(200, 6);
        let p = plan(&problem, &points, Decomp::cubic(6), Ordering::LoadAware);
        let t1 = p.dag.total_work();
        let m1 = p.simulate(1);
        let m16 = p.simulate(16);
        assert!((m1 - t1).abs() / t1 < 1e-9, "P=1 must equal T1");
        assert!(m16 <= m1 && m16 >= t1 / 16.0 - 1e-9);
    }

    #[test]
    fn plan_weights_reflect_points() {
        let (problem, points) = setup(50, 7);
        let p = plan(&problem, &points, Decomp::cubic(4), Ordering::LoadAware);
        let total_points: usize = p.bins.counts().iter().sum();
        assert_eq!(total_points, 50);
        assert_eq!(p.weights.len(), p.decomposition.count());
    }
}
