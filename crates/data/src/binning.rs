//! Point binning into subdomain lattices.
//!
//! Two binning disciplines back the two parallel families of the paper:
//!
//! * [`bin_points`] — each point goes to the single subdomain containing
//!   its voxel (Algorithm 6, `PB-SYM-PD`: `localpoints[⌊AX/Gx⌋]…`);
//! * [`bin_points_replicated`] — each point goes to *every* subdomain its
//!   cylinder's bounding box intersects (Algorithm 5, `PB-SYM-DD`). The
//!   replication factor this produces is exactly the work overhead the
//!   paper measures in Figure 9.

use crate::point::Point;
#[cfg(test)]
use crate::pointset::PointSet;
use rayon::prelude::*;
use stkde_grid::{Decomposition, Domain, SubdomainId, VoxelBandwidth, VoxelRange};

/// Per-subdomain point index lists produced by a binning pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bins {
    lists: Vec<Vec<u32>>,
    n_points: usize,
}

impl Bins {
    /// Point indices assigned to subdomain `id`.
    #[inline]
    pub fn points_of(&self, id: SubdomainId) -> &[u32] {
        &self.lists[id.0]
    }

    /// Number of points in each subdomain.
    pub fn counts(&self) -> Vec<usize> {
        self.lists.iter().map(Vec::len).collect()
    }

    /// Total number of (point, subdomain) assignments.
    pub(crate) fn total_assignments(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Average number of subdomains per point (1.0 for [`bin_points`];
    /// ≥ 1.0 for [`bin_points_replicated`] — the DD replication overhead).
    pub fn replication_factor(&self) -> f64 {
        if self.n_points == 0 {
            1.0
        } else {
            self.total_assignments() as f64 / self.n_points as f64
        }
    }
}

/// Assign each point to the unique subdomain containing its voxel
/// (the `PB-SYM-PD` discipline). Runs the point→subdomain map in parallel,
/// then fills the lists with a counting sort.
pub fn bin_points(domain: &Domain, decomp: &Decomposition, points: &[Point]) -> Bins {
    assert_eq!(
        domain.dims(),
        decomp.dims(),
        "domain/decomposition mismatch"
    );
    let ids: Vec<u32> = points
        .par_iter()
        .map(|p| {
            let (x, y, t) = domain.voxel_of(p.as_array());
            decomp.subdomain_of(x, y, t).0 as u32
        })
        .collect();
    let mut counts = vec![0usize; decomp.count()];
    for &id in &ids {
        counts[id as usize] += 1;
    }
    let mut lists: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (i, &id) in ids.iter().enumerate() {
        lists[id as usize].push(i as u32);
    }
    Bins {
        lists,
        n_points: points.len(),
    }
}

/// Assign each point to every subdomain its cylinder bounding box
/// intersects (the `PB-SYM-DD` discipline). The paper's Algorithm 5 tests
/// `(X, Y, T) ± (Hs, Hs, Ht)` against each subdomain box.
pub fn bin_points_replicated(
    domain: &Domain,
    decomp: &Decomposition,
    points: &[Point],
    vbw: VoxelBandwidth,
) -> Bins {
    assert_eq!(
        domain.dims(),
        decomp.dims(),
        "domain/decomposition mismatch"
    );
    // Two passes: compute target lists per point in parallel, then scatter.
    let targets: Vec<Vec<SubdomainId>> = points
        .par_iter()
        .map(|p| {
            let (x, y, t) = domain.voxel_of(p.as_array());
            let range = VoxelRange::centered(x, y, t, vbw.hs, vbw.ht).clipped(domain.dims());
            decomp.intersecting(range)
        })
        .collect();
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); decomp.count()];
    for (i, tgt) in targets.iter().enumerate() {
        for id in tgt {
            lists[id.0].push(i as u32);
        }
    }
    Bins {
        lists,
        n_points: points.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use proptest::prelude::*;
    use stkde_grid::{Decomp, GridDims};

    fn setup(gx: usize, gy: usize, gt: usize, k: usize) -> (Domain, Decomposition) {
        let domain = Domain::from_dims(GridDims::new(gx, gy, gt));
        let decomp = Decomposition::new(domain.dims(), Decomp::cubic(k));
        (domain, decomp)
    }

    #[test]
    fn bin_points_every_point_exactly_once() {
        let (domain, decomp) = setup(16, 16, 16, 4);
        let points = PointSet::from_vec(vec![
            Point::new(0.5, 0.5, 0.5),
            Point::new(15.5, 15.5, 15.5),
            Point::new(8.0, 8.0, 8.0),
        ]);
        let bins = bin_points(&domain, &decomp, points.as_slice());
        assert_eq!(bins.total_assignments(), 3);
        assert_eq!(bins.replication_factor(), 1.0);
    }

    #[test]
    fn bin_points_respects_subdomain_ranges() {
        let (domain, decomp) = setup(12, 12, 12, 3);
        let points = PointSet::from_vec(
            (0..50)
                .map(|i| {
                    let v = (i as f64 * 0.23) % 12.0;
                    Point::new(v, (v * 1.7) % 12.0, (v * 2.3) % 12.0)
                })
                .collect(),
        );
        let bins = bin_points(&domain, &decomp, points.as_slice());
        for id in decomp.ids() {
            let range = decomp.voxel_range(id);
            for &pi in bins.points_of(id) {
                let p = points.as_slice()[pi as usize];
                let (x, y, t) = domain.voxel_of(p.as_array());
                assert!(range.contains(x, y, t));
            }
        }
    }

    #[test]
    fn replicated_includes_own_subdomain() {
        let (domain, decomp) = setup(16, 16, 16, 4);
        let points = PointSet::from_vec(vec![Point::new(7.5, 7.5, 7.5)]);
        let vbw = VoxelBandwidth::new(2, 2);
        let plain = bin_points(&domain, &decomp, points.as_slice());
        let repl = bin_points_replicated(&domain, &decomp, points.as_slice(), vbw);
        for id in decomp.ids() {
            if !plain.points_of(id).is_empty() {
                assert!(!repl.points_of(id).is_empty());
            }
        }
        assert!(repl.replication_factor() >= 1.0);
    }

    #[test]
    fn interior_point_with_small_bandwidth_not_replicated() {
        let (domain, decomp) = setup(16, 16, 16, 2); // subdomains 8 wide
                                                     // Center of subdomain (0,0,0): voxel (3..4); cylinder ±1 stays inside.
        let points = PointSet::from_vec(vec![Point::new(3.5, 3.5, 3.5)]);
        let bins = bin_points_replicated(
            &domain,
            &decomp,
            points.as_slice(),
            VoxelBandwidth::new(1, 1),
        );
        assert_eq!(bins.total_assignments(), 1);
    }

    #[test]
    fn boundary_point_replicates_to_neighbors() {
        let (domain, decomp) = setup(16, 16, 16, 2); // boundary at 8
        let points = PointSet::from_vec(vec![Point::new(8.2, 3.0, 3.0)]); // voxel x=8
        let bins = bin_points_replicated(
            &domain,
            &decomp,
            points.as_slice(),
            VoxelBandwidth::new(2, 1),
        );
        // Cylinder spans x ∈ [6, 10], crossing the x-boundary: 2 subdomains.
        assert_eq!(bins.total_assignments(), 2);
        assert!(bins.replication_factor() > 1.0);
    }

    #[test]
    fn empty_points_ok() {
        let (domain, decomp) = setup(8, 8, 8, 2);
        let bins = bin_points(&domain, &decomp, PointSet::new().as_slice());
        assert_eq!(bins.total_assignments(), 0);
        assert_eq!(bins.replication_factor(), 1.0);
    }

    #[test]
    fn counts_sum_to_assignments() {
        let (domain, decomp) = setup(10, 10, 10, 3);
        let points = PointSet::from_vec(
            (0..40)
                .map(|i| {
                    Point::new(
                        (i % 10) as f64,
                        ((i * 3) % 10) as f64,
                        ((i * 7) % 10) as f64,
                    )
                })
                .collect(),
        );
        let bins = bin_points_replicated(
            &domain,
            &decomp,
            points.as_slice(),
            VoxelBandwidth::new(1, 1),
        );
        assert_eq!(
            bins.counts().iter().sum::<usize>(),
            bins.total_assignments()
        );
    }

    proptest! {
        /// Replicated binning covers exactly the subdomains whose voxel
        /// range intersects the cylinder box (brute-force cross-check).
        #[test]
        fn prop_replicated_matches_bruteforce(
            px in 0.0..20.0f64, py in 0.0..20.0f64, pt in 0.0..20.0f64,
            k in 1usize..5, hs in 1usize..4, ht in 1usize..4
        ) {
            let (domain, decomp) = setup(20, 20, 20, k);
            let points = PointSet::from_vec(vec![Point::new(px, py, pt)]);
            let vbw = VoxelBandwidth::new(hs, ht);
            let bins = bin_points_replicated(&domain, &decomp, points.as_slice(), vbw);
            let (x, y, t) = domain.voxel_of([px, py, pt]);
            let cyl = VoxelRange::centered(x, y, t, hs, ht).clipped(domain.dims());
            for id in decomp.ids() {
                let expect = decomp.voxel_range(id).intersects(cyl);
                let got = !bins.points_of(id).is_empty();
                prop_assert_eq!(expect, got, "subdomain {:?}", id);
            }
        }

        /// Plain binning is a partition: every point appears exactly once
        /// across all lists.
        #[test]
        fn prop_plain_binning_is_partition(
            n in 0usize..120, k in 1usize..6, seed in 0u64..50
        ) {
            let (domain, decomp) = setup(24, 24, 24, k);
            let points = crate::synth::uniform(
                n, domain.extent(), seed
            );
            let bins = bin_points(&domain, &decomp, points.as_slice());
            let mut seen = vec![0u8; n];
            for id in decomp.ids() {
                for &pi in bins.points_of(id) {
                    seen[pi as usize] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));
        }
    }
}
