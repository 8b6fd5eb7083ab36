//! The 27-point stencil adjacency graph over a subdomain lattice.

use stkde_grid::Decomposition;

/// An undirected graph whose vertices are subdomains and whose edges link
/// lattice neighbors (Chebyshev distance 1 — the 27-point stencil of
/// paper §5.2).
///
/// Kept as a plain adjacency structure so the coloring and scheduling code
/// is testable on arbitrary graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StencilGraph {
    adj: Vec<Vec<u32>>,
}

impl StencilGraph {
    /// Build the 27-point stencil graph of a decomposition.
    pub fn from_decomposition(d: &Decomposition) -> Self {
        let adj = d
            .ids()
            .map(|id| d.neighbors(id).into_iter().map(|n| n.0 as u32).collect())
            .collect();
        Self { adj }
    }

    /// Build from an explicit adjacency list (test helper / generic use).
    ///
    /// # Panics
    /// Panics if the adjacency is not symmetric or contains self-loops or
    /// out-of-range vertices.
    #[cfg(test)]
    pub(crate) fn from_adjacency(adj: Vec<Vec<u32>>) -> Self {
        let n = adj.len() as u32;
        for (u, nbrs) in adj.iter().enumerate() {
            for &v in nbrs {
                assert!(v < n, "neighbor {v} out of range");
                assert_ne!(v as usize, u, "self-loop at {u}");
                assert!(
                    adj[v as usize].contains(&(u as u32)),
                    "asymmetric edge {u} -> {v}"
                );
            }
        }
        Self { adj }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Neighbors of vertex `v`.
    #[inline]
    pub(crate) fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Number of undirected edges.
    #[cfg(test)]
    pub(crate) fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Maximum vertex degree.
    #[cfg(test)]
    pub(crate) fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_grid::{Decomp, Decomposition, GridDims};

    fn lattice(a: usize, b: usize, c: usize) -> StencilGraph {
        let d = Decomposition::new(GridDims::new(a * 4, b * 4, c * 4), Decomp::new(a, b, c));
        StencilGraph::from_decomposition(&d)
    }

    #[test]
    fn lattice_3cube_degrees() {
        let g = lattice(3, 3, 3);
        assert_eq!(g.n(), 27);
        assert_eq!(g.max_degree(), 26); // the center vertex
        let min_deg = (0..g.n()).map(|v| g.neighbors(v).len()).min().unwrap();
        assert_eq!(min_deg, 7); // corner vertices
    }

    #[test]
    fn single_subdomain_has_no_edges() {
        let g = lattice(1, 1, 1);
        assert_eq!(g.n(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn line_lattice_is_path_with_diagonals_absent() {
        let g = lattice(4, 1, 1);
        assert_eq!(g.n(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn edges_are_symmetric() {
        let g = lattice(3, 2, 4);
        for u in 0..g.n() {
            for &v in g.neighbors(u) {
                assert!(g.neighbors(v as usize).contains(&(u as u32)));
            }
        }
    }

    #[test]
    fn from_adjacency_accepts_valid() {
        let g = StencilGraph::from_adjacency(vec![vec![1], vec![0, 2], vec![1]]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn from_adjacency_rejects_asymmetric() {
        let _ = StencilGraph::from_adjacency(vec![vec![1], vec![]]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_adjacency_rejects_self_loop() {
        let _ = StencilGraph::from_adjacency(vec![vec![0]]);
    }
}
