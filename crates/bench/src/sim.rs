//! Simulated P-processor speedup models.
//!
//! The paper's figures report 16-thread speedups on a 16-core Xeon node.
//! On hosts with fewer cores this harness reports, next to the measured
//! real-thread speedups, a *simulated* speedup built from measured
//! quantities (per-phase times and per-subdomain task weights) replayed
//! through the exact execution model of each algorithm:
//!
//! * **DR** — three pleasingly parallel phases; compute scales by `P`,
//!   memory-bound phases by the measured memory-parallelism ceiling;
//! * **DD** — LPT list scheduling of the per-subdomain task weights on `P`
//!   machines (no dependencies) + memory-scaled init;
//! * **PD (phased)** — per parity class, list scheduling with a barrier
//!   between classes;
//! * **PD-SCHED / PD-REP** — greedy list scheduling of the (expanded)
//!   dependency DAG — Graham's model, which the paper itself uses to bound
//!   these algorithms.

use stkde_core::PhaseTimings;
use stkde_sched::{list_schedule, TaskDag};

/// Memory-bound phases stop scaling beyond this many threads — the paper
/// measures ≈3× at 16 threads for first-touch initialization (§6.3).
pub(crate) const MEM_PARALLELISM: f64 = 3.0;

fn mem_scale(p: usize) -> f64 {
    (p as f64).min(MEM_PARALLELISM)
}

/// Simulated speedup of `PB-SYM-DR` on `p` processors from the measured
/// sequential phase breakdown: replica init and reduction grow with `p`
/// but parallelize only up to the memory ceiling; compute scales ideally.
pub fn dr_speedup(seq: &PhaseTimings, p: usize) -> f64 {
    let init1 = seq.init.as_secs_f64();
    let comp1 = seq.compute.as_secs_f64();
    let total1 = init1 + comp1;
    let init_p = p as f64 * init1 / mem_scale(p);
    // Reduction touches the same P·G voxels as init; model it at the init
    // voxel rate.
    let reduce_p = init_p;
    let comp_p = comp1 / p as f64;
    total1 / (init_p + comp_p + reduce_p)
}

/// Simulated speedup of a decomposed algorithm whose compute phase is a
/// set of independent tasks (DD): LPT list schedule of `task_secs` on `p`
/// machines, plus memory-ceiling-scaled init. `task_secs` include the DD
/// replication overhead; the speedup is taken against the *un-decomposed*
/// sequential reference `ref_secs` (PB-SYM), matching the paper's figures.
pub fn dd_speedup(init_secs: f64, ref_secs: f64, task_secs: &[f64], p: usize) -> f64 {
    let dag = TaskDag::from_edges(task_secs.len(), task_secs.to_vec(), &[]);
    let makespan = if task_secs.is_empty() {
        0.0
    } else {
        list_schedule(&dag, p, task_secs).makespan
    };
    ref_secs / (init_secs / mem_scale(p) + makespan)
}

/// Simulated speedup of the phased `PB-SYM-PD`: classes are separated by
/// barriers; within a class, tasks schedule freely on `p` machines.
pub fn pd_phased_speedup(init_secs: f64, classes: &[Vec<f64>], p: usize) -> f64 {
    let compute1: f64 = classes.iter().flatten().sum();
    let total1 = init_secs + compute1;
    let mut makespan = 0.0;
    for class in classes {
        if class.is_empty() {
            continue;
        }
        let dag = TaskDag::from_edges(class.len(), class.clone(), &[]);
        makespan += list_schedule(&dag, p, class).makespan;
    }
    total1 / (init_secs / mem_scale(p) + makespan)
}

/// Simulated speedup of a DAG-scheduled algorithm (PD-SCHED, PD-REP):
/// greedy list scheduling of the weighted DAG on `p` machines. `weights`
/// are in seconds; `serial_compute_secs` is the 1-thread compute time the
/// speedup is taken against.
pub fn dag_speedup(init_secs: f64, serial_compute_secs: f64, dag: &TaskDag, p: usize) -> f64 {
    let makespan = if dag.n() == 0 {
        0.0
    } else {
        list_schedule(dag, p, dag.weights()).makespan
    };
    (init_secs + serial_compute_secs) / (init_secs / mem_scale(p) + makespan)
}

/// Rescale task weights (arbitrary units) so they sum to the measured
/// 1-thread compute seconds — converting model weights into wall-clock.
pub fn weights_to_seconds(weights: &[f64], compute_secs: f64) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    if total == 0.0 {
        return vec![0.0; weights.len()];
    }
    weights.iter().map(|w| w * compute_secs / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn timings(init_ms: u64, comp_ms: u64) -> PhaseTimings {
        PhaseTimings {
            init: Duration::from_millis(init_ms),
            compute: Duration::from_millis(comp_ms),
            ..Default::default()
        }
    }

    #[test]
    fn dr_compute_bound_scales_well() {
        // 0.1% init, 99.9% compute: close to linear. (Even 1% init costs
        // DR dearly at P=16 because init and reduce are amplified P-fold —
        // exactly the paper's observation.)
        let s = dr_speedup(&timings(1, 999), 16);
        assert!(s > 8.0, "compute-bound DR speedup {s}");
        let s_1pct = dr_speedup(&timings(10, 990), 16);
        assert!(s_1pct < s, "more init must hurt DR");
    }

    #[test]
    fn dr_init_bound_slows_down() {
        // Paper Figure 8: init-heavy instances get speedup < 1 under DR.
        let s = dr_speedup(&timings(900, 100), 16);
        assert!(s < 1.0, "init-bound DR speedup should collapse, got {s}");
    }

    #[test]
    fn dd_balanced_tasks_scale() {
        let tasks = vec![0.1; 64];
        // Reference = same work without decomposition overhead.
        let s = dd_speedup(0.01, 0.01 + 6.4, &tasks, 16);
        assert!(s > 8.0, "balanced DD speedup {s}");
    }

    #[test]
    fn dd_single_hot_task_limits() {
        let mut tasks = vec![0.001; 63];
        tasks.push(1.0); // one dominant subdomain
        let ref_secs = tasks.iter().sum::<f64>();
        let s = dd_speedup(0.0, ref_secs, &tasks, 16);
        assert!(s < 1.2, "imbalanced DD cannot scale: {s}");
    }

    #[test]
    fn phased_barriers_hurt() {
        // Same tasks, split into 8 classes of one task each: barriers
        // serialize everything.
        let classes: Vec<Vec<f64>> = (0..8).map(|_| vec![0.1]).collect();
        let s_phased = pd_phased_speedup(0.0, &classes, 16);
        assert!((s_phased - 1.0).abs() < 1e-9);
        // One class with all 8 tasks: perfect parallelism.
        let one_class = vec![vec![0.1; 8]];
        let s_free = pd_phased_speedup(0.0, &one_class, 16);
        assert!(s_free > 7.9);
    }

    #[test]
    fn dag_speedup_matches_graham_world() {
        let dag = TaskDag::from_edges(4, vec![0.25; 4], &[]);
        let s = dag_speedup(0.0, 1.0, &dag, 4);
        assert!((s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn weights_rescale_preserves_ratios() {
        let w = weights_to_seconds(&[1.0, 3.0], 8.0);
        assert!((w[0] - 2.0).abs() < 1e-12);
        assert!((w[1] - 6.0).abs() < 1e-12);
        assert_eq!(weights_to_seconds(&[0.0, 0.0], 1.0), vec![0.0, 0.0]);
    }
}
