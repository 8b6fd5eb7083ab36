//! `PB-SYM-PD-REP` — point decomposition with critical-path replication
//! (paper §5.2).
//!
//! When one clustered subdomain dominates the critical path, coloring alone
//! cannot help: the subdomain's points are inherently serial. `PD-REP`
//! makes the offending tasks *moldable*: their points are split into `r`
//! replicas that accumulate into **private halo-sized buffers** — free of
//! every stencil constraint — followed by a cheap merge task that adds the
//! buffers into the shared grid under the original constraints. This is a
//! localized `PB-SYM-DR`: extra memory and init/reduce work, but only for
//! the few subdomains that actually throttle parallelism.
//!
//! With lexicographic coloring this is the paper's `PB-SYM-PD-REP`; with
//! load-aware coloring it is the `PB-SYM-PD-SCHED-REP` of Figure 15.

use crate::error::StkdeError;
use crate::kernel_apply::{apply_point, PointKernel, Scratch};
use crate::parallel::chunk_bounds;
use crate::problem::Problem;
use crate::timing::{PhaseTimings, Stopwatch};
use parking_lot::Mutex;
use stkde_data::Point;
use stkde_grid::{Decomp, Grid3, Scalar, SharedGrid, SubdomainId, VoxelRange};
use stkde_kernels::SpaceTimeKernel;
use stkde_sched::replication::{expand_dag, ExpandedDag, RepNode};
use stkde_sched::{plan_replication, run_dag, RepParams};

pub use super::pd_sched::Ordering;
use super::pd_sched::{plan as pd_plan, PdPlan};

/// The fully prepared `PD-REP` plan: the base `PD-SCHED` plan plus the
/// replication transformation.
#[derive(Debug, Clone)]
pub struct RepExecutionPlan {
    /// The underlying point-decomposition plan.
    pub base: PdPlan,
    /// Replica counts chosen by the planner.
    pub replicas: Vec<usize>,
    /// The expanded DAG (process / replica / merge nodes).
    pub expanded: ExpandedDag,
    /// Estimated merge cost per subdomain (halo voxels).
    pub merge_weights: Vec<f64>,
}

impl RepExecutionPlan {
    /// Simulated makespan of the expanded DAG on `p` virtual processors.
    #[cfg(test)]
    pub(crate) fn simulate(&self, p: usize) -> f64 {
        stkde_sched::list_schedule(&self.expanded.dag, p, self.expanded.dag.weights()).makespan
    }

    /// Extra buffer memory the replicas need, in bytes, for scalar `S`.
    pub(crate) fn buffer_bytes<S: Scalar>(&self, problem: &Problem) -> usize {
        self.replicas
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r > 1)
            .map(|(v, &r)| {
                let halo = self.base.decomposition.halo(SubdomainId(v), problem.vbw);
                r * halo.volume() * std::mem::size_of::<S>()
            })
            .sum()
    }
}

/// Build the `PD-REP` plan for `threads` processors.
pub fn plan(
    problem: &Problem,
    points: &[Point],
    decomp: Decomp,
    threads: usize,
    ordering: Ordering,
) -> RepExecutionPlan {
    let base = pd_plan(problem, points, decomp, ordering);
    // Merge cost ≈ one add per halo voxel, in the same "voxel update" units
    // as the processing weights.
    let merge_weights: Vec<f64> = (0..base.decomposition.count())
        .map(|v| {
            base.decomposition
                .halo(SubdomainId(v), problem.vbw)
                .volume() as f64
        })
        .collect();
    let rep_plan = plan_replication(&base.dag, &RepParams::new(threads, merge_weights.clone()));
    let expanded = expand_dag(&base.dag, &rep_plan, &merge_weights);
    RepExecutionPlan {
        base,
        replicas: rep_plan.replicas,
        expanded,
        merge_weights,
    }
}

/// Execute a prepared `PD-REP` plan.
pub(crate) fn execute<S: Scalar, K: SpaceTimeKernel>(
    plan: &RepExecutionPlan,
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    threads: usize,
    memory_limit: usize,
) -> Result<(Grid3<S>, PhaseTimings), StkdeError> {
    if threads == 0 {
        return Err(StkdeError::InvalidConfig("threads must be > 0".into()));
    }
    let dims = problem.domain.dims();
    let required = dims.bytes::<S>() + plan.buffer_bytes::<S>(problem);
    if required > memory_limit {
        return Err(StkdeError::MemoryLimit {
            required,
            limit: memory_limit,
            what: "replica buffers (PB-SYM-PD-REP)",
        });
    }

    let full = VoxelRange::full(dims);
    let mut sw = Stopwatch::start();
    let mut grid = Grid3::zeros_parallel(dims);
    let init = sw.lap();

    // One slot per expanded node; replicas fill their slot, merges drain
    // their predecessors' slots.
    let buffers: Vec<Mutex<Option<Grid3<S>>>> = (0..plan.expanded.dag.n())
        .map(|_| Mutex::new(None))
        .collect();

    {
        let shared = SharedGrid::new(&mut grid);
        let shared = &shared;
        let nodes = &plan.expanded.nodes;
        let dag = &plan.expanded.dag;
        let base = &plan.base;
        let buffers = &buffers;

        run_dag(dag, threads, dag.weights(), |node| {
            let mut scratch = Scratch::default();
            match nodes[node] {
                RepNode::Process(v) => {
                    let id = SubdomainId(v);
                    for &pi in base.bins.points_of(id) {
                        // SAFETY: anchor nodes (process/merge) of adjacent
                        // subdomains are ordered by the DAG; non-adjacent
                        // subdomains have disjoint halos under the adjusted
                        // decomposition.
                        unsafe {
                            apply_point(
                                PointKernel::Sym,
                                shared,
                                problem,
                                kernel,
                                &points[pi as usize],
                                full,
                                &mut scratch,
                            );
                        }
                    }
                }
                RepNode::Replica {
                    task: v,
                    part,
                    parts,
                } => {
                    let id = SubdomainId(v);
                    let halo = base.decomposition.halo(id, problem.vbw);
                    let sub_domain = problem.domain.subdomain(halo);
                    let sub_problem = Problem::new(sub_domain, problem.bw, problem.n);
                    let mut buf: Grid3<S> = Grid3::zeros(sub_domain.dims());
                    {
                        let buf_shared = SharedGrid::new(&mut buf);
                        let list = base.bins.points_of(id);
                        let (s, e) = chunk_bounds(list.len(), parts, part);
                        let sub_full = VoxelRange::full(sub_domain.dims());
                        for &pi in &list[s..e] {
                            // SAFETY: `buf` is private to this task.
                            unsafe {
                                apply_point(
                                    PointKernel::Sym,
                                    &buf_shared,
                                    &sub_problem,
                                    kernel,
                                    &points[pi as usize],
                                    sub_full,
                                    &mut scratch,
                                );
                            }
                        }
                    }
                    *buffers[node].lock() = Some(buf);
                }
                RepNode::Merge(v) => {
                    let id = SubdomainId(v);
                    let halo = base.decomposition.halo(id, problem.vbw);
                    for &pred in dag.preds(node) {
                        if let RepNode::Replica { .. } = nodes[pred as usize] {
                            let buf = buffers[pred as usize]
                                .lock()
                                .take()
                                .expect("replica buffer missing at merge");
                            // SAFETY: the merge node carries the original
                            // stencil constraints, so no task that could
                            // write inside this halo runs concurrently.
                            unsafe {
                                merge_buffer(shared, halo, &buf);
                            }
                        }
                    }
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
}

/// Add a halo-shaped private buffer into the shared grid.
///
/// # Safety
/// The caller must guarantee no concurrent access to `region` of `shared`
/// (here: by the merge node's stencil dependencies).
unsafe fn merge_buffer<S: Scalar>(shared: &SharedGrid<'_, S>, region: VoxelRange, buf: &Grid3<S>) {
    debug_assert_eq!(buf.dims().gx, region.width_x());
    debug_assert_eq!(buf.dims().gy, region.width_y());
    debug_assert_eq!(buf.dims().gt, region.width_t());
    for (st, t) in (region.t0..region.t1).enumerate() {
        for (sy, y) in (region.y0..region.y1).enumerate() {
            // SAFETY: forwarded from the caller contract.
            let dst = unsafe { shared.row_mut(y, t, region.x0, region.x1) };
            let src = buf.row(sy, st, 0, region.width_x());
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        }
    }
}

/// Plan + execute in one call.
pub(crate) fn run<S: Scalar, K: SpaceTimeKernel>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    decomp: Decomp,
    threads: usize,
    ordering: Ordering,
    memory_limit: usize,
) -> Result<(Grid3<S>, PhaseTimings), StkdeError> {
    let mut sw = Stopwatch::start();
    let plan = plan(problem, points, decomp, threads, ordering);
    let bin = sw.lap();
    let (grid, mut timings) = execute(&plan, problem, kernel, points, threads, memory_limit)?;
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

    /// Clustered setup that forces a dominant subdomain.
    fn clustered(n: usize, seed: u64) -> (Problem, Vec<Point>) {
        let domain = Domain::from_dims(GridDims::new(40, 40, 20));
        let spec = synth::ClusterSpec {
            clusters: 1,
            spatial_sigma: 0.02,
            temporal_sigma: 0.05,
            background: 0.1,
            weight_tail: 0.0,
            ..Default::default()
        };
        let points = spec.generate(n, domain.extent(), seed).into_vec();
        (Problem::new(domain, Bandwidth::new(2.0, 2.0), n), points)
    }

    #[test]
    fn matches_sequential_with_replication_active() {
        let (problem, points) = clustered(150, 3);
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
                    usize::MAX,
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
    fn clustered_instance_triggers_replication() {
        let (problem, points) = clustered(300, 4);
        let p = plan(&problem, &points, Decomp::cubic(8), 4, Ordering::LoadAware);
        assert!(
            p.replicas.iter().any(|&r| r > 1),
            "hot subdomain should be replicated: {:?}",
            p.replicas
        );
        // Replication shortens the simulated makespan on 4 processors.
        let before = p.base.simulate(4);
        let after = p.simulate(4);
        assert!(
            after <= before + 1e-9,
            "replication should not hurt the simulated makespan ({before} -> {after})"
        );
    }

    #[test]
    fn uniform_instance_plans_trivially() {
        let domain = Domain::from_dims(GridDims::new(40, 40, 20));
        let points = synth::uniform(200, domain.extent(), 5).into_vec();
        let problem = Problem::new(domain, Bandwidth::new(2.0, 2.0), points.len());
        let p = plan(&problem, &points, Decomp::cubic(4), 2, Ordering::LoadAware);
        // Balanced loads: few (often zero) replications, tiny buffer needs.
        let bytes = p.buffer_bytes::<f32>(&problem);
        assert!(bytes <= 2 * problem.domain.dims().bytes::<f32>());
    }

    #[test]
    fn memory_guard_trips_like_the_paper() {
        // Small decomposition → halo ≈ whole grid → replication ≈ DR:
        // the paper's Figure 14 notes Flu Hr runs out of memory there.
        let (problem, points) = clustered(400, 6);
        let result = run::<f64, _>(
            &problem,
            &Epanechnikov,
            &points,
            Decomp::cubic(1),
            4,
            Ordering::Lexicographic,
            problem.domain.dims().bytes::<f64>() + 1024, // barely one grid
        );
        match result {
            Err(StkdeError::MemoryLimit { what, .. }) => {
                assert!(what.contains("replica"));
            }
            Ok(_) => {
                // A 1³ decomposition may also legitimately skip replication
                // (single task ⇒ path == total work ⇒ planner gives up when
                // merge cost dominates); accept but require trivial plan.
                let p = plan(
                    &problem,
                    &points,
                    Decomp::cubic(1),
                    4,
                    Ordering::Lexicographic,
                );
                assert!(p.replicas.iter().all(|&r| r <= 4));
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn single_thread_execution_works() {
        let (problem, points) = clustered(80, 7);
        let (seq, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);
        let (par, _) = run::<f64, _>(
            &problem,
            &Epanechnikov,
            &points,
            Decomp::cubic(4),
            1,
            Ordering::LoadAware,
            usize::MAX,
        )
        .unwrap();
        assert!(seq.max_rel_diff(&par, 1e-13) < 1e-9);
    }
}
