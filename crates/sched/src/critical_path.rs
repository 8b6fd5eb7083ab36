//! Critical-path (T∞) analysis and Graham bounds.

use crate::dag::TaskDag;

/// The longest weighted chain of a task DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Length of the longest chain, `T∞` (sum of task weights on it).
    pub length: f64,
    /// The tasks on one longest chain, in execution order.
    pub tasks: Vec<usize>,
}

impl CriticalPath {
    /// The critical path relative to the total work, `T∞ / T₁` — the
    /// quantity plotted in Figure 12 of the paper. By Graham's bound the
    /// attainable speedup is at most `1 / (T∞/T₁)` for large `P`.
    pub fn relative(&self, total_work: f64) -> f64 {
        if total_work == 0.0 {
            0.0
        } else {
            self.length / total_work
        }
    }
}

/// Compute the critical path via longest-path dynamic programming over a
/// topological order.
///
/// # Panics
/// Panics if the DAG contains a cycle (cannot happen for DAGs constructed
/// through [`TaskDag`] constructors, which validate acyclicity).
pub fn critical_path(dag: &TaskDag) -> CriticalPath {
    let n = dag.n();
    if n == 0 {
        return CriticalPath {
            length: 0.0,
            tasks: Vec::new(),
        };
    }
    let order = dag.topo_order().expect("DAG must be acyclic");
    // finish[v] = weight(v) + max over preds finish[p]
    let mut finish = vec![0.0f64; n];
    let mut best_pred: Vec<Option<usize>> = vec![None; n];
    for &v in &order {
        let mut base = 0.0;
        for &p in dag.preds(v) {
            if finish[p as usize] > base {
                base = finish[p as usize];
                best_pred[v] = Some(p as usize);
            }
        }
        finish[v] = base + dag.weights()[v];
    }
    let (mut v, _) = finish
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    let length = finish[v];
    let mut tasks = vec![v];
    while let Some(p) = best_pred[v] {
        tasks.push(p);
        v = p;
    }
    tasks.reverse();
    CriticalPath { length, tasks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn chain_critical_path_is_total() {
        let dag = TaskDag::from_edges(3, vec![1.0, 2.0, 3.0], &[(0, 1), (1, 2)]);
        let cp = critical_path(&dag);
        assert_eq!(cp.length, 6.0);
        assert_eq!(cp.tasks, vec![0, 1, 2]);
        assert_eq!(cp.relative(dag.total_work()), 1.0);
    }

    #[test]
    fn independent_tasks_path_is_heaviest_task() {
        let dag = TaskDag::from_edges(4, vec![1.0, 9.0, 2.0, 3.0], &[]);
        let cp = critical_path(&dag);
        assert_eq!(cp.length, 9.0);
        assert_eq!(cp.tasks, vec![1]);
        assert!((cp.relative(15.0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn diamond_takes_heavier_branch() {
        //    0
        //   / \
        //  1   2    w1 = 5, w2 = 1
        //   \ /
        //    3
        let dag = TaskDag::from_edges(
            4,
            vec![1.0, 5.0, 1.0, 1.0],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        );
        let cp = critical_path(&dag);
        assert_eq!(cp.length, 7.0);
        assert_eq!(cp.tasks, vec![0, 1, 3]);
    }

    #[test]
    fn empty_dag() {
        let dag = TaskDag::from_edges(0, vec![], &[]);
        let cp = critical_path(&dag);
        assert_eq!(cp.length, 0.0);
        assert!(cp.tasks.is_empty());
        assert_eq!(cp.relative(0.0), 0.0);
    }

    proptest! {
        /// On random layered DAGs: T∞ ≤ T₁, the extracted chain is a real
        /// chain whose weights sum to the reported length, and the Graham
        /// bound lies between T₁/p and T₁.
        #[test]
        fn prop_path_invariants(
            layers in 1usize..5,
            width in 1usize..5,
            seed in 0u64..100
        ) {
            let n = layers * width;
            let weights: Vec<f64> = (0..n)
                .map(|i| 1.0 + (((i as u64 + seed) * 2654435761) % 17) as f64)
                .collect();
            // Edges between consecutive layers, pseudo-randomly.
            let mut edges = Vec::new();
            for l in 0..layers.saturating_sub(1) {
                for a in 0..width {
                    for b in 0..width {
                        if (a + b + l + seed as usize).is_multiple_of(3) {
                            edges.push((l * width + a, (l + 1) * width + b));
                        }
                    }
                }
            }
            let dag = TaskDag::from_edges(n, weights.clone(), &edges);
            let cp = critical_path(&dag);
            let t1 = dag.total_work();
            prop_assert!(cp.length <= t1 + 1e-9);
            // Chain property + length consistency.
            let sum: f64 = cp.tasks.iter().map(|&v| weights[v]).sum();
            prop_assert!((sum - cp.length).abs() < 1e-9);
            for w in cp.tasks.windows(2) {
                prop_assert!(dag.succs(w[0]).contains(&(w[1] as u32)));
            }
        }
    }
}
