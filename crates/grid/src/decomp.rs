//! A×B×C subdomain decomposition of the voxel grid.
//!
//! Both parallel families of the paper partition the grid into an A×B×C
//! lattice of box subdomains: `PB-SYM-DD` (§4.2) assigns *voxels* to
//! subdomains and replicates points whose cylinder crosses a boundary, while
//! `PB-SYM-PD` (§5.1) assigns *points* to subdomains and requires each
//! subdomain to be at least twice the bandwidth wide so that non-adjacent
//! subdomains can be processed concurrently.

use crate::dims::GridDims;
use crate::geometry::VoxelBandwidth;
use crate::range::VoxelRange;
use serde::{Deserialize, Serialize};

/// Requested subdomain counts along each axis (A along x, B along y,
/// C along t).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Decomp {
    /// Number of subdomains along x.
    pub a: usize,
    /// Number of subdomains along y.
    pub b: usize,
    /// Number of subdomains along t.
    pub c: usize,
}

impl Decomp {
    /// An `a × b × c` decomposition.
    ///
    /// # Panics
    /// Panics if any count is zero.
    pub fn new(a: usize, b: usize, c: usize) -> Self {
        assert!(a > 0 && b > 0 && c > 0, "decomposition counts must be >= 1");
        Self { a, b, c }
    }

    /// The cubic `k × k × k` decomposition (the paper sweeps 1³ … 64³).
    pub fn cubic(k: usize) -> Self {
        Self::new(k, k, k)
    }

    /// Total number of subdomains.
    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.a * self.b * self.c
    }
}

impl std::fmt::Display for Decomp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.a, self.b, self.c)
    }
}

/// Identifier of a subdomain inside a [`Decomposition`]: linear index
/// `id = (ic·B + ib)·A + ia`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SubdomainId(pub usize);

/// A realized decomposition: per-axis boundary arrays over a concrete grid.
///
/// Boundaries follow the paper's convention `⌊i·G/K⌋`, giving subdomain
/// widths that differ by at most one voxel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    dims: GridDims,
    decomp: Decomp,
    bx: Vec<usize>,
    by: Vec<usize>,
    bt: Vec<usize>,
}

fn boundaries(g: usize, k: usize) -> Vec<usize> {
    (0..=k).map(|i| i * g / k).collect()
}

impl Decomposition {
    /// Decompose `dims` into exactly the requested counts (clamped so no
    /// axis has more subdomains than voxels).
    pub fn new(dims: GridDims, decomp: Decomp) -> Self {
        let d = Decomp::new(
            decomp.a.min(dims.gx),
            decomp.b.min(dims.gy),
            decomp.c.min(dims.gt),
        );
        Self {
            dims,
            decomp: d,
            bx: boundaries(dims.gx, d.a),
            by: boundaries(dims.gy, d.b),
            bt: boundaries(dims.gt, d.c),
        }
    }

    /// Decompose with the `PB-SYM-PD` size constraint: every subdomain must
    /// be at least `2·Hs` voxels wide spatially and `2·Ht` temporally, so
    /// that points in non-adjacent subdomains have non-overlapping cylinders
    /// (§5.1: “decompositions of subdomain smaller than twice the bandwidths
    /// are adjusted”). Requested counts are reduced as needed.
    pub fn adjusted(dims: GridDims, decomp: Decomp, vbw: VoxelBandwidth) -> Self {
        let cap = |g: usize, k: usize, min_w: usize| -> usize {
            // Largest k' <= k with floor(g/k') >= min_w, i.e. k' <= g/min_w.
            k.min((g / min_w.max(1)).max(1))
        };
        let d = Decomp::new(
            cap(dims.gx, decomp.a, 2 * vbw.hs),
            cap(dims.gy, decomp.b, 2 * vbw.hs),
            cap(dims.gt, decomp.c, 2 * vbw.ht),
        );
        Self::new(dims, d)
    }

    /// A 1×1×K lattice of full-X/Y slabs cut along T at the given
    /// boundaries (`cuts[0] = 0 < … < cuts[K] = Gt`) — for callers that
    /// place the cuts by load instead of by the floor rule.
    ///
    /// # Panics
    /// Panics unless `cuts` starts at 0, ends at `Gt` and strictly
    /// increases.
    pub fn from_t_cuts(dims: GridDims, cuts: Vec<usize>) -> Self {
        assert!(
            cuts.first() == Some(&0)
                && cuts.last() == Some(&dims.gt)
                && cuts.windows(2).all(|w| w[0] < w[1]),
            "T cuts must run 0 < … < Gt = {}, got {cuts:?}",
            dims.gt
        );
        Self {
            dims,
            decomp: Decomp::new(1, 1, cuts.len() - 1),
            bx: vec![0, dims.gx],
            by: vec![0, dims.gy],
            bt: cuts,
        }
    }

    /// Grid dimensions.
    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Effective (possibly clamped/adjusted) subdomain counts.
    #[inline]
    pub fn decomp(&self) -> Decomp {
        self.decomp
    }

    /// Total number of subdomains.
    #[inline]
    pub fn count(&self) -> usize {
        self.decomp.count()
    }

    /// Linear id of lattice cell `(ia, ib, ic)`.
    #[inline]
    pub(crate) fn id(&self, ia: usize, ib: usize, ic: usize) -> SubdomainId {
        debug_assert!(ia < self.decomp.a && ib < self.decomp.b && ic < self.decomp.c);
        SubdomainId((ic * self.decomp.b + ib) * self.decomp.a + ia)
    }

    /// Lattice cell of a linear id.
    #[inline]
    pub(crate) fn cell(&self, id: SubdomainId) -> (usize, usize, usize) {
        let ia = id.0 % self.decomp.a;
        let rest = id.0 / self.decomp.a;
        let ib = rest % self.decomp.b;
        let ic = rest / self.decomp.b;
        debug_assert!(ic < self.decomp.c);
        (ia, ib, ic)
    }

    /// The subdomain containing voxel `(x, y, t)`.
    pub fn subdomain_of(&self, x: usize, y: usize, t: usize) -> SubdomainId {
        debug_assert!(self.dims.contains(x, y, t));
        let find = |b: &[usize], v: usize| -> usize {
            // partition_point gives the first boundary > v; the cell
            // index is that minus one.
            b.partition_point(|&e| e <= v) - 1
        };
        self.id(find(&self.bx, x), find(&self.by, y), find(&self.bt, t))
    }

    /// The voxel range `[⌊ia·Gx/A⌋, ⌊(ia+1)·Gx/A⌋) × …` of a subdomain.
    pub fn voxel_range(&self, id: SubdomainId) -> VoxelRange {
        let (ia, ib, ic) = self.cell(id);
        VoxelRange {
            x0: self.bx[ia],
            x1: self.bx[ia + 1],
            y0: self.by[ib],
            y1: self.by[ib + 1],
            t0: self.bt[ic],
            t1: self.bt[ic + 1],
        }
    }

    /// The influence halo of a subdomain: its voxel range expanded by the
    /// bandwidth and clipped to the grid. Points *in* the subdomain can only
    /// write voxels *in* the halo.
    pub fn halo(&self, id: SubdomainId, vbw: VoxelBandwidth) -> VoxelRange {
        self.voxel_range(id)
            .expanded(vbw.hs, vbw.ht)
            .clipped(self.dims)
    }

    /// Iterate over all subdomain ids.
    pub fn ids(&self) -> impl Iterator<Item = SubdomainId> + '_ {
        (0..self.count()).map(SubdomainId)
    }

    /// The ids of all subdomains whose voxel range intersects `range`
    /// (used by DD to find which subdomains a cylinder touches).
    pub fn intersecting(&self, range: VoxelRange) -> Vec<SubdomainId> {
        let range = range.clipped(self.dims);
        if range.is_empty() {
            return Vec::new();
        }
        let cells = |b: &[usize], lo: usize, hi_excl: usize| -> (usize, usize) {
            let first = b.partition_point(|&e| e <= lo) - 1;
            let last = b.partition_point(|&e| e < hi_excl) - 1;
            (first, last)
        };
        let (ax0, ax1) = cells(&self.bx, range.x0, range.x1);
        let (ay0, ay1) = cells(&self.by, range.y0, range.y1);
        let (at0, at1) = cells(&self.bt, range.t0, range.t1);
        let mut out = Vec::with_capacity((ax1 - ax0 + 1) * (ay1 - ay0 + 1) * (at1 - at0 + 1));
        for ic in at0..=at1 {
            for ib in ay0..=ay1 {
                for ia in ax0..=ax1 {
                    out.push(self.id(ia, ib, ic));
                }
            }
        }
        out
    }

    /// The (up to 26) lattice neighbors of a subdomain — the 27-point
    /// stencil of §5.2 minus the center.
    pub fn neighbors(&self, id: SubdomainId) -> Vec<SubdomainId> {
        let (ia, ib, ic) = self.cell(id);
        let mut out = Vec::with_capacity(26);
        for dc in -1i64..=1 {
            for db in -1i64..=1 {
                for da in -1i64..=1 {
                    if da == 0 && db == 0 && dc == 0 {
                        continue;
                    }
                    let (na, nb, nc) = (ia as i64 + da, ib as i64 + db, ic as i64 + dc);
                    if na >= 0
                        && nb >= 0
                        && nc >= 0
                        && (na as usize) < self.decomp.a
                        && (nb as usize) < self.decomp.b
                        && (nc as usize) < self.decomp.c
                    {
                        out.push(self.id(na as usize, nb as usize, nc as usize));
                    }
                }
            }
        }
        out
    }

    /// `true` if two subdomains are adjacent (or equal) in the lattice
    /// (Chebyshev distance ≤ 1 on every axis).
    #[cfg(test)]
    fn adjacent(&self, a: SubdomainId, b: SubdomainId) -> bool {
        let (aa, ab, ac) = self.cell(a);
        let (ba, bb, bc) = self.cell(b);
        aa.abs_diff(ba) <= 1 && ab.abs_diff(bb) <= 1 && ac.abs_diff(bc) <= 1
    }

    /// The 8-color "base" class of a subdomain used by the phased `PB-SYM-PD`
    /// implementation (§5.1): color = parity bits of the lattice cell.
    pub fn parity_class(&self, id: SubdomainId) -> usize {
        let (ia, ib, ic) = self.cell(id);
        (ia % 2) | ((ib % 2) << 1) | ((ic % 2) << 2)
    }

    /// Minimum subdomain width on each axis (x, y, t), in voxels.
    pub fn min_widths(&self) -> (usize, usize, usize) {
        let min_w = |b: &[usize]| b.windows(2).map(|w| w[1] - w[0]).min().unwrap_or(0);
        (min_w(&self.bx), min_w(&self.by), min_w(&self.bt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dec(gx: usize, gy: usize, gt: usize, a: usize, b: usize, c: usize) -> Decomposition {
        Decomposition::new(GridDims::new(gx, gy, gt), Decomp::new(a, b, c))
    }

    #[test]
    fn boundaries_follow_floor_rule() {
        let d = dec(10, 10, 10, 3, 3, 3);
        assert_eq!(d.bx, vec![0, 3, 6, 10]);
    }

    #[test]
    fn counts_clamped_to_dims() {
        let d = dec(2, 3, 4, 10, 10, 10);
        assert_eq!(d.decomp(), Decomp::new(2, 3, 4));
    }

    #[test]
    fn id_cell_roundtrip() {
        let d = dec(20, 20, 20, 2, 3, 4);
        for id in d.ids() {
            let (ia, ib, ic) = d.cell(id);
            assert_eq!(d.id(ia, ib, ic), id);
        }
        assert_eq!(d.count(), 24);
    }

    #[test]
    fn subdomain_of_matches_voxel_range() {
        let d = dec(13, 7, 5, 4, 2, 3);
        for (x, y, t) in GridDims::new(13, 7, 5).iter() {
            let id = d.subdomain_of(x, y, t);
            assert!(
                d.voxel_range(id).contains(x, y, t),
                "voxel ({x},{y},{t}) not in its own subdomain {id:?}"
            );
        }
    }

    #[test]
    fn ranges_partition_grid() {
        let d = dec(11, 9, 6, 3, 4, 2);
        let total: usize = d.ids().map(|id| d.voxel_range(id).volume()).sum();
        assert_eq!(total, d.dims().volume());
        // Pairwise disjoint.
        let ranges: Vec<_> = d.ids().map(|id| d.voxel_range(id)).collect();
        for i in 0..ranges.len() {
            for j in (i + 1)..ranges.len() {
                assert!(!ranges[i].intersects(ranges[j]));
            }
        }
    }

    #[test]
    fn adjusted_enforces_min_width() {
        let dims = GridDims::new(64, 64, 64);
        let vbw = VoxelBandwidth::new(8, 4);
        let d = Decomposition::adjusted(dims, Decomp::cubic(64), vbw);
        let (wx, wy, wt) = d.min_widths();
        assert!(wx >= 16, "x width {wx} < 2*Hs");
        assert!(wy >= 16);
        assert!(wt >= 8, "t width {wt} < 2*Ht");
        // 64 / 16 = 4 along x/y, 64 / 8 = 8 along t.
        assert_eq!(d.decomp(), Decomp::new(4, 4, 8));
    }

    #[test]
    fn adjusted_collapses_to_one_when_bandwidth_huge() {
        let d = Decomposition::adjusted(
            GridDims::new(10, 10, 10),
            Decomp::cubic(8),
            VoxelBandwidth::new(50, 50),
        );
        assert_eq!(d.decomp(), Decomp::new(1, 1, 1));
    }

    #[test]
    fn neighbors_interior_is_26() {
        let d = dec(30, 30, 30, 3, 3, 3);
        let center = d.id(1, 1, 1);
        assert_eq!(d.neighbors(center).len(), 26);
        let corner = d.id(0, 0, 0);
        assert_eq!(d.neighbors(corner).len(), 7);
    }

    #[test]
    fn adjacency_is_symmetric_and_matches_neighbors() {
        let d = dec(24, 24, 24, 3, 2, 4);
        for a in d.ids() {
            for b in d.ids() {
                assert_eq!(d.adjacent(a, b), d.adjacent(b, a));
                if a != b {
                    assert_eq!(d.adjacent(a, b), d.neighbors(a).contains(&b));
                }
            }
        }
    }

    #[test]
    fn parity_class_has_8_values_and_no_adjacent_share() {
        let d = dec(40, 40, 40, 4, 4, 4);
        for id in d.ids() {
            assert!(d.parity_class(id) < 8);
            for n in d.neighbors(id) {
                // Neighbors at lattice distance 1 on some axis differ in
                // at least one parity bit *unless* the axis wraps… it
                // doesn't wrap, so classes must differ.
                assert_ne!(
                    d.parity_class(id),
                    d.parity_class(n),
                    "adjacent {id:?} {n:?} share parity class"
                );
            }
        }
    }

    #[test]
    fn intersecting_finds_all_touched_subdomains() {
        let d = dec(12, 12, 12, 3, 3, 3);
        // A range crossing the x boundary at 4.
        let r = VoxelRange {
            x0: 3,
            x1: 6,
            y0: 0,
            y1: 2,
            t0: 0,
            t1: 2,
        };
        let got = d.intersecting(r);
        assert_eq!(got.len(), 2);
        assert!(got.contains(&d.id(0, 0, 0)));
        assert!(got.contains(&d.id(1, 0, 0)));
        // Nothing owns an empty range or one that lies outside the grid.
        let layers = |t0, t1| VoxelRange {
            t0,
            t1,
            ..VoxelRange::full(d.dims())
        };
        assert_eq!(d.intersecting(layers(7, 7)), vec![]);
        assert_eq!(d.intersecting(layers(25, 30)), vec![]);
        assert_eq!(d.intersecting(layers(3, 30)).len(), 27);
    }

    #[test]
    fn halo_is_clipped_expansion() {
        let d = dec(10, 10, 10, 2, 2, 2);
        let vbw = VoxelBandwidth::new(2, 1);
        let h = d.halo(d.id(0, 0, 0), vbw);
        assert_eq!(h.x0, 0);
        assert_eq!(h.x1, 5 + 2);
        assert_eq!(h.t1, 5 + 1);
    }

    #[test]
    fn halo_wider_than_a_slab_reaches_beyond_the_neighbors() {
        // 8 slabs of 3 layers, Ht = 7: slab 4 = [12, 15) writes [5, 22),
        // which meets slabs 1..=7 — the ±1 neighbour list names two.
        let d = dec(6, 6, 24, 1, 1, 8);
        let me = d.id(0, 0, 4);
        let halo = d.halo(me, VoxelBandwidth::new(2, 7));
        assert_eq!((halo.t0, halo.t1), (5, 22));
        assert_eq!((halo.x0, halo.x1, halo.y0, halo.y1), (0, 6, 0, 6));
        assert_eq!(
            d.intersecting(halo),
            (1..=7).map(SubdomainId).collect::<Vec<_>>()
        );
        assert_eq!(d.neighbors(me), vec![SubdomainId(3), SubdomainId(5)]);
    }

    #[test]
    fn from_t_cuts_is_a_slab_lattice_on_the_given_boundaries() {
        let dims = GridDims::new(6, 5, 20);
        let d = Decomposition::from_t_cuts(dims, vec![0, 3, 4, 15, 20]);
        let slab = VoxelRange {
            t0: 4,
            t1: 15,
            ..VoxelRange::full(dims)
        };
        assert_eq!(d.voxel_range(SubdomainId(2)), slab);
        assert_eq!(d.subdomain_of(5, 4, 3), SubdomainId(1));
        // Cuts on the floor rule are the lattice `new` builds.
        assert_eq!(
            Decomposition::from_t_cuts(dims, vec![0, 6, 13, 20]),
            Decomposition::new(dims, Decomp::new(1, 1, 3))
        );
    }

    #[test]
    #[should_panic(expected = "T cuts")]
    fn from_t_cuts_rejects_cuts_that_do_not_tile() {
        Decomposition::from_t_cuts(GridDims::new(6, 5, 20), vec![0, 7, 7, 20]);
    }

    proptest! {
        #[test]
        fn prop_subdomains_partition(
            gx in 1usize..30, gy in 1usize..30, gt in 1usize..30,
            a in 1usize..8, b in 1usize..8, c in 1usize..8
        ) {
            let d = Decomposition::new(GridDims::new(gx, gy, gt), Decomp::new(a, b, c));
            let total: usize = d.ids().map(|id| d.voxel_range(id).volume()).sum();
            prop_assert_eq!(total, gx * gy * gt);
        }

        #[test]
        fn prop_subdomain_of_consistent(
            gx in 1usize..30, gy in 1usize..30, gt in 1usize..30,
            a in 1usize..8, b in 1usize..8, c in 1usize..8,
            sx in 0usize..30, sy in 0usize..30, st in 0usize..30
        ) {
            let d = Decomposition::new(GridDims::new(gx, gy, gt), Decomp::new(a, b, c));
            let (x, y, t) = (sx % gx, sy % gy, st % gt);
            let id = d.subdomain_of(x, y, t);
            prop_assert!(d.voxel_range(id).contains(x, y, t));
        }

        #[test]
        fn prop_intersecting_equals_bruteforce(
            gx in 2usize..20, gy in 2usize..20, gt in 2usize..20,
            a in 1usize..6, b in 1usize..6, c in 1usize..6,
            x in 0usize..20, y in 0usize..20, t in 0usize..20,
            hs in 1usize..4, ht in 1usize..4
        ) {
            let dims = GridDims::new(gx, gy, gt);
            let d = Decomposition::new(dims, Decomp::new(a, b, c));
            let r = VoxelRange::centered(x % gx, y % gy, t % gt, hs, ht).clipped(dims);
            let mut expect: Vec<_> = d
                .ids()
                .filter(|&id| d.voxel_range(id).intersects(r))
                .collect();
            let mut got = d.intersecting(r);
            expect.sort();
            got.sort();
            prop_assert_eq!(got, expect);
        }

        /// Rank slabs and serve shards. A 1×1×K lattice tiles `[0, Gt)`
        /// contiguously with full-X/Y slabs whose widths differ by at
        /// most one, `subdomain_of` inverts `voxel_range`, and asking
        /// for more slabs than layers yields `Gt` one-layer slabs — the
        /// surplus owns nothing and no query names it. The halo
        /// exchange's contract holds for halos narrower than a slab and
        /// for halos spanning many: slab `s` sends ghost layers to `r`
        /// iff `r ∈ intersecting(halo(s))`, and `r` expects them iff
        /// `halo(s)` meets its slab — the same set, and a symmetric one,
        /// so per-rank send and receive counts match.
        #[test]
        fn prop_t_slabs_tile_evenly_and_agree_on_halo_traffic(
            gt in 1usize..120, k in 1usize..40, ht in 1usize..40
        ) {
            let d = Decomposition::new(GridDims::new(3, 2, gt), Decomp::new(1, 1, k));
            let vbw = VoxelBandwidth::new(1, ht);
            prop_assert_eq!(d.count(), k.min(gt));
            let (mut end, mut narrow, mut wide) = (0, usize::MAX, 0);
            for s in d.ids() {
                let slab = d.voxel_range(s);
                prop_assert_eq!((slab.x0, slab.x1, slab.y0, slab.y1), (0, 3, 0, 2));
                prop_assert_eq!(slab.t0, end, "slabs must be contiguous");
                prop_assert!(slab.t1 > slab.t0, "no empty slab");
                for t in slab.t0..slab.t1 {
                    prop_assert_eq!(d.subdomain_of(2, 1, t), s);
                }
                end = slab.t1;
                narrow = narrow.min(slab.width_t());
                wide = wide.max(slab.width_t());

                let halo = d.halo(s, vbw);
                let reached = d.intersecting(halo);
                for r in d.ids() {
                    let meets = halo.intersects(d.voxel_range(r));
                    prop_assert_eq!(reached.contains(&r), meets, "s={:?} r={:?}", s, r);
                    prop_assert_eq!(meets, d.halo(r, vbw).intersects(slab));
                }
            }
            prop_assert_eq!(end, gt);
            prop_assert!(wide - narrow <= 1, "widths {}..{}", narrow, wide);
        }

        /// The PD safety property: points in non-adjacent subdomains of an
        /// adjusted decomposition have disjoint cylinder bounding boxes.
        #[test]
        fn prop_nonadjacent_halos_disjoint_under_adjustment(
            gx in 8usize..40, gy in 8usize..40, gt in 8usize..40,
            a in 1usize..10, b in 1usize..10, c in 1usize..10,
            hs in 1usize..5, ht in 1usize..5
        ) {
            let dims = GridDims::new(gx, gy, gt);
            let vbw = VoxelBandwidth::new(hs, ht);
            let d = Decomposition::adjusted(dims, Decomp::new(a, b, c), vbw);
            for s1 in d.ids() {
                for s2 in d.ids() {
                    if s1 < s2 && !d.adjacent(s1, s2) {
                        prop_assert!(
                            !d.halo(s1, vbw).intersects(d.halo(s2, vbw)),
                            "non-adjacent {:?} {:?} have overlapping halos", s1, s2
                        );
                    }
                }
            }
        }
    }
}
