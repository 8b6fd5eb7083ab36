//! Weighted task DAGs derived from stencil colorings.

use crate::coloring::Coloring;
use crate::stencil::StencilGraph;

/// A weighted directed acyclic task graph.
///
/// For the point-decomposed STKDE algorithms the DAG is obtained by
/// orienting every stencil edge from the endpoint with the *lower* color to
/// the endpoint with the *higher* color (paper §5.2, Figure 6): a proper
/// coloring guarantees the orientation is acyclic, and executing tasks in
/// dependency order guarantees no two adjacent subdomains run concurrently.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDag {
    preds: Vec<Vec<u32>>,
    succs: Vec<Vec<u32>>,
    weights: Vec<f64>,
}

impl TaskDag {
    /// Orient `graph` by `coloring` and attach task `weights`.
    ///
    /// # Panics
    /// Panics if the coloring is not proper for `graph`, or if lengths
    /// mismatch.
    pub fn from_coloring(graph: &StencilGraph, coloring: &Coloring, weights: Vec<f64>) -> Self {
        let n = graph.n();
        assert_eq!(coloring.colors().len(), n, "coloring length mismatch");
        assert_eq!(weights.len(), n, "weights length mismatch");
        assert!(coloring.is_valid(graph), "coloring must be proper");
        let mut preds = vec![Vec::new(); n];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, sv) in succs.iter_mut().enumerate() {
            let cv = coloring.color(v);
            for &u in graph.neighbors(v) {
                let cu = coloring.color(u as usize);
                if cv < cu {
                    sv.push(u);
                    preds[u as usize].push(v as u32);
                }
            }
        }
        Self {
            preds,
            succs,
            weights,
        }
    }

    /// Build a DAG from explicit edges `(from, to)`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or if the result contains a cycle.
    pub fn from_edges(n: usize, weights: Vec<f64>, edges: &[(usize, usize)]) -> Self {
        assert_eq!(weights.len(), n, "weights length mismatch");
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range");
            succs[u].push(v as u32);
            preds[v].push(u as u32);
        }
        let dag = Self {
            preds,
            succs,
            weights,
        };
        assert!(dag.topo_order().is_some(), "edge list contains a cycle");
        dag
    }

    /// Number of tasks.
    #[inline]
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Predecessors of task `v`.
    #[inline]
    pub fn preds(&self, v: usize) -> &[u32] {
        &self.preds[v]
    }

    /// Successors of task `v`.
    #[inline]
    pub(crate) fn succs(&self, v: usize) -> &[u32] {
        &self.succs[v]
    }

    /// Task weights (processing-time estimates).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Replace the task weights (same shape).
    ///
    /// # Panics
    /// Panics if the length changes.
    pub fn set_weights(&mut self, weights: Vec<f64>) {
        assert_eq!(weights.len(), self.weights.len(), "weights length mismatch");
        self.weights = weights;
    }

    /// Total work `T₁` (sum of weights).
    pub fn total_work(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Number of directed edges.
    #[cfg(test)]
    pub(crate) fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// A topological order (Kahn), or `None` if the graph has a cycle.
    pub(crate) fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.n();
        let mut in_deg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&v| in_deg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v);
            for &s in &self.succs[v] {
                in_deg[s as usize] -= 1;
                if in_deg[s as usize] == 0 {
                    queue.push(s as usize);
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{greedy_coloring, order_lexicographic};
    use stkde_grid::{Decomp, Decomposition, GridDims};

    fn lattice_dag(a: usize, b: usize, c: usize) -> TaskDag {
        let d = Decomposition::new(GridDims::new(a * 4, b * 4, c * 4), Decomp::new(a, b, c));
        let g = StencilGraph::from_decomposition(&d);
        let coloring = greedy_coloring(&g, &order_lexicographic(g.n()));
        TaskDag::from_coloring(&g, &coloring, vec![1.0; g.n()])
    }

    #[test]
    fn oriented_dag_has_all_stencil_edges() {
        let d = Decomposition::new(GridDims::new(12, 12, 12), Decomp::new(3, 3, 3));
        let g = StencilGraph::from_decomposition(&d);
        let dag = lattice_dag(3, 3, 3);
        assert_eq!(dag.edge_count(), g.edge_count());
    }

    #[test]
    fn oriented_dag_is_acyclic() {
        let dag = lattice_dag(4, 4, 4);
        let order = dag.topo_order().expect("must be acyclic");
        assert_eq!(order.len(), dag.n());
        // Verify order respects edges.
        let mut pos = vec![0usize; dag.n()];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        for v in 0..dag.n() {
            for &s in dag.succs(v) {
                assert!(pos[v] < pos[s as usize]);
            }
        }
    }

    #[test]
    fn preds_succs_consistent() {
        let dag = lattice_dag(3, 2, 2);
        for v in 0..dag.n() {
            for &s in dag.succs(v) {
                assert!(dag.preds(s as usize).contains(&(v as u32)));
            }
            for &p in dag.preds(v) {
                assert!(dag.succs(p as usize).contains(&(v as u32)));
            }
        }
    }

    #[test]
    fn from_edges_builds_chain() {
        let dag = TaskDag::from_edges(3, vec![1.0, 2.0, 3.0], &[(0, 1), (1, 2)]);
        assert_eq!(dag.total_work(), 6.0);
        assert_eq!(dag.topo_order().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn from_edges_rejects_cycle() {
        let _ = TaskDag::from_edges(2, vec![1.0, 1.0], &[(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "coloring must be proper")]
    fn from_coloring_rejects_improper() {
        let g = StencilGraph::from_adjacency(vec![vec![1], vec![0]]);
        let c = Coloring::from_colors(vec![0, 0]);
        let _ = TaskDag::from_coloring(&g, &c, vec![1.0, 1.0]);
    }

    #[test]
    fn set_weights_replaces() {
        let mut dag = TaskDag::from_edges(2, vec![1.0, 1.0], &[(0, 1)]);
        dag.set_weights(vec![5.0, 7.0]);
        assert_eq!(dag.total_work(), 12.0);
    }
}
