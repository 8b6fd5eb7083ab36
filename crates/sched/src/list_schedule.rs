//! Event-driven P-processor list-scheduling simulation.
//!
//! This is the machine-independent execution model behind the paper's
//! analysis (§5.2): greedy workers pick the highest-priority ready task the
//! moment a processor frees up. The OpenMP runtime does this, and so does
//! [`crate::executor`]: each of its jobs pops the best ready task when a
//! pool worker picks the job up. Simulating it with measured task
//! weights predicts the makespan — and hence speedup — on *any* processor
//! count, which is how the repository reproduces the paper's 16-thread
//! figures on hosts with fewer cores (the `sim-16` columns recorded in
//! EXPERIMENTS.md).

use crate::dag::TaskDag;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Totally ordered f64 for use in heaps (NaN-free inputs assumed).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The outcome of a simulated schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Simulated completion time of the last task.
    pub makespan: f64,
    /// Simulated start time of each task.
    pub start: Vec<f64>,
    /// Processor each task ran on.
    pub processor: Vec<usize>,
}

/// Simulate greedy list scheduling of `dag` on `p` identical processors.
///
/// When several tasks are ready, the one with the highest `priority` value
/// starts first (ties by lower index). Passing the task weights as
/// priorities yields longest-processing-time-first — the order
/// `PB-SYM-PD-SCHED` induces by coloring heavy subdomains first.
///
/// # Panics
/// Panics if `p == 0` or `priority.len() != dag.n()`.
pub fn list_schedule(dag: &TaskDag, p: usize, priority: &[f64]) -> ScheduleResult {
    assert!(p > 0, "need at least one processor");
    assert_eq!(priority.len(), dag.n(), "priority length mismatch");
    let n = dag.n();
    let mut in_deg: Vec<usize> = (0..n).map(|v| dag.preds(v).len()).collect();
    // Ready heap: max-priority first, then min index.
    let mut ready: BinaryHeap<(OrdF64, Reverse<usize>)> = (0..n)
        .filter(|&v| in_deg[v] == 0)
        .map(|v| (OrdF64(priority[v]), Reverse(v)))
        .collect();
    // Running tasks: min-heap on finish time.
    let mut running: BinaryHeap<Reverse<(OrdF64, usize)>> = BinaryHeap::new();
    let mut start = vec![0.0f64; n];
    let mut processor = vec![0usize; n];
    // Idle processor pool (ids only matter for reporting).
    let mut idle: Vec<usize> = (0..p).rev().collect();
    let mut time = 0.0f64;
    let mut makespan = 0.0f64;
    let mut done = 0usize;

    while done < n {
        // Start as many ready tasks as we have idle processors.
        while !idle.is_empty() {
            match ready.pop() {
                Some((_, Reverse(v))) => {
                    let proc = idle.pop().unwrap();
                    start[v] = time;
                    processor[v] = proc;
                    running.push(Reverse((OrdF64(time + dag.weights()[v]), v)));
                }
                None => break,
            }
        }
        // Advance to the next completion.
        let Reverse((OrdF64(finish), v)) = running
            .pop()
            .expect("deadlock: tasks pending but none running (cycle?)");
        time = finish;
        makespan = makespan.max(finish);
        idle.push(processor[v]);
        done += 1;
        for &s in dag.succs(v) {
            in_deg[s as usize] -= 1;
            if in_deg[s as usize] == 0 {
                ready.push((OrdF64(priority[s as usize]), Reverse(s as usize)));
            }
        }
    }
    ScheduleResult {
        makespan,
        start,
        processor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::critical_path;
    use proptest::prelude::*;

    #[test]
    fn single_processor_serializes() {
        let dag = TaskDag::from_edges(3, vec![2.0, 3.0, 4.0], &[]);
        let r = list_schedule(&dag, 1, dag.weights());
        assert_eq!(r.makespan, 9.0);
    }

    #[test]
    fn independent_tasks_scale() {
        let dag = TaskDag::from_edges(4, vec![1.0; 4], &[]);
        let r = list_schedule(&dag, 4, dag.weights());
        assert_eq!(r.makespan, 1.0);
    }

    #[test]
    fn chain_cannot_scale() {
        let dag = TaskDag::from_edges(3, vec![1.0; 3], &[(0, 1), (1, 2)]);
        let r = list_schedule(&dag, 8, dag.weights());
        assert_eq!(r.makespan, 3.0);
    }

    #[test]
    fn lpt_priority_beats_spt_here() {
        // Two processors, tasks 5,1,1,1,1,1: starting the long task first
        // (LPT) gives makespan 5; shortest-first strands it at the end (7).
        let w = vec![5.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let dag = TaskDag::from_edges(6, w.clone(), &[]);
        let lpt = list_schedule(&dag, 2, &w);
        let spt_prio: Vec<f64> = w.iter().map(|x| -x).collect();
        let spt = list_schedule(&dag, 2, &spt_prio);
        assert_eq!(lpt.makespan, 5.0);
        assert_eq!(spt.makespan, 7.0);
    }

    #[test]
    fn respects_dependencies() {
        let dag = TaskDag::from_edges(
            4,
            vec![1.0, 2.0, 2.0, 1.0],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        );
        let r = list_schedule(&dag, 2, dag.weights());
        for v in 0..4 {
            for &p in dag.preds(v) {
                let pfinish = r.start[p as usize] + dag.weights()[p as usize];
                assert!(r.start[v] >= pfinish - 1e-12);
            }
        }
        assert_eq!(r.makespan, 4.0); // 0; then 1 & 2 in parallel; then 3
    }

    #[test]
    fn processors_never_oversubscribed() {
        let dag = TaskDag::from_edges(6, vec![2.0; 6], &[]);
        let r = list_schedule(&dag, 2, dag.weights());
        // With 6 equal tasks on 2 processors: makespan 6, and at any time
        // at most 2 tasks overlap.
        assert_eq!(r.makespan, 6.0);
        for i in 0..6 {
            let overlap = (0..6)
                .filter(|&j| {
                    r.start[j] < r.start[i] + 2.0 - 1e-12 && r.start[i] < r.start[j] + 2.0 - 1e-12
                })
                .count();
            assert!(overlap <= 2);
        }
    }

    proptest! {
        /// Simulated makespan always lies in [max(T1/p, T∞), Graham bound].
        #[test]
        fn prop_makespan_within_graham(
            layers in 1usize..5, width in 1usize..5,
            p in 1usize..9, seed in 0u64..60
        ) {
            let n = layers * width;
            let weights: Vec<f64> = (0..n)
                .map(|i| 1.0 + (((i as u64 + 3) * (seed + 11)) % 13) as f64)
                .collect();
            let mut edges = Vec::new();
            for l in 0..layers.saturating_sub(1) {
                for a in 0..width {
                    for b in 0..width {
                        if (a * 2 + b + l + seed as usize).is_multiple_of(4) {
                            edges.push((l * width + a, (l + 1) * width + b));
                        }
                    }
                }
            }
            let dag = TaskDag::from_edges(n, weights, &edges);
            let r = list_schedule(&dag, p, dag.weights());
            let t1 = dag.total_work();
            let tinf = critical_path(&dag).length;
            prop_assert!(r.makespan >= t1 / p as f64 - 1e-9, "below T1/p");
            prop_assert!(r.makespan >= tinf - 1e-9, "below T-inf");
            // Graham: any greedy schedule finishes within (T1 - T-inf)/p + T-inf.
            let graham = (t1 - tinf) / p as f64 + tinf;
            prop_assert!(
                r.makespan <= graham + 1e-9,
                "above Graham bound: {} > {}", r.makespan, graham
            );
        }
    }
}
