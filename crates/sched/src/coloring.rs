//! Vertex colorings of the stencil graph.
//!
//! A proper coloring partitions the subdomains into sets that can safely
//! run concurrently (no two adjacent subdomains share a color). The paper
//! uses two colorings:
//!
//! * the structural **8-color parity** coloring (§5.1): color = parity bits
//!   of the lattice cell — this is what the phased `PB-SYM-PD`
//!   implementation's eight `parallel for` constructs realize;
//! * a **greedy coloring in non-increasing load order** (§5.2,
//!   `PB-SYM-PD-SCHED`): heavier subdomains get smaller colors, so the
//!   schedule starts them early and the implied critical path shrinks.

use crate::stencil::StencilGraph;

/// A proper vertex coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<u32>,
    num_colors: u32,
}

impl Coloring {
    /// Wrap an explicit color assignment.
    pub(crate) fn from_colors(colors: Vec<u32>) -> Self {
        let num_colors = colors.iter().max().map_or(0, |&m| m + 1);
        Self { colors, num_colors }
    }

    /// Color of vertex `v`.
    #[inline]
    pub(crate) fn color(&self, v: usize) -> u32 {
        self.colors[v]
    }

    /// All colors, indexed by vertex.
    #[inline]
    pub(crate) fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Number of distinct colors (max color + 1).
    #[inline]
    #[cfg(test)]
    pub(crate) fn num_colors(&self) -> u32 {
        self.num_colors
    }

    /// `true` if no edge of `graph` joins two vertices of the same color.
    pub(crate) fn is_valid(&self, graph: &StencilGraph) -> bool {
        (0..graph.n()).all(|v| {
            graph
                .neighbors(v)
                .iter()
                .all(|&u| self.colors[u as usize] != self.colors[v])
        })
    }
}

/// The identity vertex order `0, 1, …, n-1`.
pub fn order_lexicographic(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Vertices sorted by non-increasing weight (ties broken by index). This is
/// the load-aware order of `PB-SYM-PD-SCHED`: the heaviest subdomains are
/// colored first, land on the smallest colors, and therefore start first in
/// the implied schedule.
pub fn order_by_weight_desc(weights: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// Greedy coloring: visit vertices in `order`, assigning each the smallest
/// color not used by an already-colored neighbor.
///
/// # Panics
/// Panics if `order` is not a permutation of the vertices.
pub fn greedy_coloring(graph: &StencilGraph, order: &[usize]) -> Coloring {
    let n = graph.n();
    assert_eq!(order.len(), n, "order must cover all vertices");
    const UNSET: u32 = u32::MAX;
    let mut colors = vec![UNSET; n];
    // Scratch "forbidden" marks, reset lazily via a stamp counter.
    let mut mark = vec![usize::MAX; 64];
    for (stamp, &v) in order.iter().enumerate() {
        assert!(colors[v] == UNSET, "vertex {v} visited twice");
        for &u in graph.neighbors(v) {
            let c = colors[u as usize];
            if c != UNSET {
                if c as usize >= mark.len() {
                    mark.resize(c as usize + 1, usize::MAX);
                }
                mark[c as usize] = stamp;
            }
        }
        let mut c = 0u32;
        while (c as usize) < mark.len() && mark[c as usize] == stamp {
            c += 1;
        }
        colors[v] = c;
    }
    Coloring::from_colors(colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stkde_grid::{Decomp, Decomposition, GridDims};

    fn lattice(a: usize, b: usize, c: usize) -> (Decomposition, StencilGraph) {
        let d = Decomposition::new(GridDims::new(a * 4, b * 4, c * 4), Decomp::new(a, b, c));
        let g = StencilGraph::from_decomposition(&d);
        (d, g)
    }

    #[test]
    fn greedy_lexicographic_is_valid() {
        let (_, g) = lattice(4, 3, 5);
        let c = greedy_coloring(&g, &order_lexicographic(g.n()));
        assert!(c.is_valid(&g));
        // Greedy on a 27-stencil needs at most max_degree + 1 colors;
        // in practice 8 for a parity-colorable lattice.
        assert!(c.num_colors() <= 27);
    }

    #[test]
    fn greedy_weighted_is_valid_and_heaviest_gets_color_zero() {
        let (_, g) = lattice(3, 3, 3);
        let mut weights = vec![1.0; g.n()];
        weights[13] = 100.0; // center vertex heaviest
        let order = order_by_weight_desc(&weights);
        assert_eq!(order[0], 13);
        let c = greedy_coloring(&g, &order);
        assert!(c.is_valid(&g));
        assert_eq!(c.color(13), 0);
    }

    #[test]
    fn order_by_weight_desc_breaks_ties_by_index() {
        let order = order_by_weight_desc(&[1.0, 3.0, 3.0, 0.5]);
        assert_eq!(order, vec![1, 2, 0, 3]);
    }

    #[test]
    fn invalid_coloring_detected() {
        let g = StencilGraph::from_adjacency(vec![vec![1], vec![0]]);
        let c = Coloring::from_colors(vec![0, 0]);
        assert!(!c.is_valid(&g));
    }

    #[test]
    #[should_panic(expected = "visited twice")]
    fn greedy_rejects_duplicate_order() {
        let g = StencilGraph::from_adjacency(vec![vec![1], vec![0]]);
        let _ = greedy_coloring(&g, &[0, 0]);
    }

    proptest! {
        #[test]
        fn prop_greedy_valid_on_random_lattices(
            a in 1usize..6, b in 1usize..6, c in 1usize..6,
            seed in 0u64..100
        ) {
            let (_, g) = lattice(a, b, c);
            // Pseudo-random weight order.
            let weights: Vec<f64> = (0..g.n())
                .map(|i| (((i as u64 + 1) * (seed + 7)) % 101) as f64)
                .collect();
            let coloring = greedy_coloring(&g, &order_by_weight_desc(&weights));
            prop_assert!(coloring.is_valid(&g));
            prop_assert!(coloring.num_colors() <= g.max_degree() as u32 + 1);
        }
    }
}
