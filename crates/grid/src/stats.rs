//! Summary statistics over density grids (used for validation and by the
//! example applications to locate hotspots).

use crate::grid3::Grid3;
#[cfg(any(test, feature = "model"))]
use crate::range::VoxelRange;
use crate::scalar::Scalar;
use rayon::prelude::*;

/// Summary statistics of a grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridStats {
    /// Sum of all voxel values.
    pub sum: f64,
    /// Maximum voxel value.
    pub max: f64,
    /// Minimum voxel value.
    pub min: f64,
    /// Number of non-zero voxels.
    pub nonzero: usize,
    /// Total number of voxels.
    pub total: usize,
}

impl GridStats {
    /// Fraction of voxels that are non-zero (the *density sparsity* that
    /// drives the init-vs-compute balance of Figure 7).
    pub fn occupancy(&self) -> f64 {
        self.nonzero as f64 / self.total as f64
    }

    /// Mean voxel value.
    pub fn mean(&self) -> f64 {
        self.sum / self.total as f64
    }
}

/// Compute summary statistics in parallel.
pub fn stats<S: Scalar>(grid: &Grid3<S>) -> GridStats {
    let id = (0.0f64, f64::NEG_INFINITY, f64::INFINITY, 0usize);
    let (sum, max, min, nonzero) = grid
        .as_slice()
        .par_chunks(1 << 16)
        .map(|chunk| {
            let mut acc = id;
            for &v in chunk {
                let v = v.to_f64();
                acc.0 += v;
                acc.1 = acc.1.max(v);
                acc.2 = acc.2.min(v);
                acc.3 += (v != 0.0) as usize;
            }
            acc
        })
        .reduce(
            || id,
            |a, b| (a.0 + b.0, a.1.max(b.1), a.2.min(b.2), a.3 + b.3),
        );
    GridStats {
        sum,
        max,
        min,
        nonzero,
        total: grid.as_slice().len(),
    }
}

/// Compute summary statistics over a voxel sub-box only (clipped to the
/// grid). This is the aggregate behind region queries: a density server
/// answers "how much mass / what peak inside this space-time box" without
/// materializing a copy of the region.
///
/// An empty (or fully clipped-away) range yields the statistics of zero
/// voxels: `sum = 0`, `max = -∞`, `min = +∞`, `total = 0`.
#[cfg(any(test, feature = "model"))]
pub fn range_stats<S: Scalar>(grid: &Grid3<S>, r: VoxelRange) -> GridStats {
    let r = r.clipped(grid.dims());
    let mut acc = GridStats {
        sum: 0.0,
        max: f64::NEG_INFINITY,
        min: f64::INFINITY,
        nonzero: 0,
        total: r.volume(),
    };
    // An inverted axis (x0 > x1) survives clipping; without this guard the
    // row slicing below would panic on `x0..x1`.
    if r.is_empty() {
        acc.total = 0;
        return acc;
    }
    for t in r.t0..r.t1 {
        for y in r.y0..r.y1 {
            for &v in grid.row(y, t, r.x0, r.x1) {
                let v = v.to_f64();
                acc.sum += v;
                acc.max = acc.max.max(v);
                acc.min = acc.min.min(v);
                acc.nonzero += (v != 0.0) as usize;
            }
        }
    }
    acc
}

/// The voxel coordinates and value of the `k` largest voxels,
/// sorted descending by value (ties broken by flat index).
pub fn top_k<S: Scalar>(grid: &Grid3<S>, k: usize) -> Vec<((usize, usize, usize), f64)> {
    let mut indexed: Vec<(usize, f64)> = grid
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &v)| (i, v.to_f64()))
        .collect();
    let k = k.min(indexed.len());
    if k == 0 {
        return Vec::new();
    }
    let pivot = k - 1;
    // total_cmp, not partial_cmp().unwrap(): a NaN voxel (conceivable from
    // corrupted ingest) must not panic the stats path — IEEE total order
    // ranks NaNs deterministically instead.
    indexed.select_nth_unstable_by(pivot, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    indexed.truncate(k);
    indexed.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    indexed
        .into_iter()
        .map(|(i, v)| (grid.dims().coords(i), v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::GridDims;

    #[test]
    fn range_stats_counts_box_only() {
        let mut g: Grid3<f64> = Grid3::zeros(GridDims::new(4, 4, 4));
        g.add(0, 0, 0, 1.0);
        g.add(1, 1, 1, 2.0);
        g.add(3, 3, 3, 10.0);
        let r = VoxelRange {
            x0: 0,
            x1: 2,
            y0: 0,
            y1: 2,
            t0: 0,
            t1: 2,
        };
        let s = range_stats(&g, r);
        assert_eq!(s.sum, 3.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.nonzero, 2);
        assert_eq!(s.total, 8);
        // The full grid agrees with the global statistics.
        let full = range_stats(&g, VoxelRange::full(g.dims()));
        let global = stats(&g);
        assert_eq!(full, global);
    }

    #[test]
    fn range_stats_of_empty_range() {
        let g: Grid3<f32> = Grid3::zeros(GridDims::new(3, 3, 3));
        let s = range_stats(&g, VoxelRange::empty());
        assert_eq!(s.total, 0);
        assert_eq!(s.sum, 0.0);
        assert!(s.max.is_infinite() && s.max < 0.0);
        assert!(s.min.is_infinite() && s.min > 0.0);
    }

    #[test]
    fn range_stats_tolerates_inverted_axes() {
        // x0 > x1 survives clipping; must report an empty box, not panic.
        let g: Grid3<f64> = Grid3::zeros(GridDims::new(4, 4, 4));
        let r = VoxelRange {
            x0: 3,
            x1: 1,
            y0: 0,
            y1: 4,
            t0: 0,
            t1: 4,
        };
        let s = range_stats(&g, r);
        assert_eq!(s.total, 0);
        assert_eq!(s.nonzero, 0);
    }

    #[test]
    fn stats_of_zero_grid() {
        let g: Grid3<f64> = Grid3::zeros(GridDims::new(4, 4, 4));
        let s = stats(&g);
        assert_eq!(s.sum, 0.0);
        assert_eq!(s.nonzero, 0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.occupancy(), 0.0);
    }

    #[test]
    fn stats_counts_values() {
        let mut g: Grid3<f64> = Grid3::zeros(GridDims::new(4, 4, 4));
        g.add(0, 0, 0, 3.0);
        g.add(1, 1, 1, -1.0);
        let s = stats(&g);
        assert_eq!(s.sum, 2.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.nonzero, 2);
        assert_eq!(s.total, 64);
        assert!((s.mean() - 2.0 / 64.0).abs() < 1e-15);
    }

    #[test]
    fn top_k_orders_descending() {
        let mut g: Grid3<f64> = Grid3::zeros(GridDims::new(3, 3, 3));
        g.add(0, 0, 0, 1.0);
        g.add(1, 1, 1, 5.0);
        g.add(2, 2, 2, 3.0);
        let top = top_k(&g, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], ((1, 1, 1), 5.0));
        assert_eq!(top[1], ((2, 2, 2), 3.0));
    }

    #[test]
    fn top_k_handles_k_larger_than_grid() {
        let g: Grid3<f32> = Grid3::zeros(GridDims::new(2, 1, 1));
        let top = top_k(&g, 100);
        assert_eq!(top.len(), 2);
    }
}
