//! World-space ↔ voxel-space geometry.
//!
//! Follows the notation of Table 1 in the paper: lowercase quantities
//! (`x`, `y`, `t`, `hs`, `ht`, `gx`, …) are in *world space* (e.g. meters and
//! days); uppercase quantities (`X`, `Y`, `T`, `Hs`, `Ht`, `Gx`, …) are in
//! *voxel space*.

use crate::dims::GridDims;
use crate::range::VoxelRange;
use serde::{Deserialize, Serialize};

/// Axis-aligned world-space bounding box of the modeled region:
/// `gx × gy × gt` in the paper, anchored at `min`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Extent {
    /// Minimum corner `(x, y, t)`.
    pub min: [f64; 3],
    /// Maximum corner `(x, y, t)`.
    pub max: [f64; 3],
}

impl Extent {
    /// Create an extent from its two corners.
    ///
    /// # Panics
    /// Panics if any `max` coordinate is not strictly greater than `min`.
    pub fn new(min: [f64; 3], max: [f64; 3]) -> Self {
        for a in 0..3 {
            assert!(
                max[a] > min[a],
                "extent axis {a} is empty: min {} >= max {}",
                min[a],
                max[a]
            );
        }
        Self { min, max }
    }

    /// World-space size of axis `a` (`gx`, `gy`, `gt`).
    #[inline]
    pub fn size(&self, a: usize) -> f64 {
        self.max[a] - self.min[a]
    }

    /// Smallest extent containing all the given `(x, y, t)` positions.
    ///
    /// Degenerate axes are widened by a tiny epsilon so that the extent is
    /// always valid. Returns `None` for an empty input.
    pub fn bounding(points: impl IntoIterator<Item = [f64; 3]>) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let (mut min, mut max) = (first, first);
        for p in iter {
            for a in 0..3 {
                min[a] = min[a].min(p[a]);
                max[a] = max[a].max(p[a]);
            }
        }
        for a in 0..3 {
            if max[a] <= min[a] {
                max[a] = min[a] + 1e-9_f64.max(min[a].abs() * 1e-12);
            }
        }
        Some(Self { min, max })
    }

    /// `true` if the position lies inside the extent (inclusive boundaries).
    pub fn contains(&self, p: [f64; 3]) -> bool {
        (0..3).all(|a| p[a] >= self.min[a] && p[a] <= self.max[a])
    }
}

/// Discretization resolution: spatial `sres` (same for x and y, as in the
/// paper) and temporal `tres`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Resolution {
    /// Spatial resolution (world units per voxel along x and y).
    pub sres: f64,
    /// Temporal resolution (world units per voxel along t).
    pub tres: f64,
}

impl Resolution {
    /// Create a resolution. Both values must be positive and finite.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite values.
    pub fn new(sres: f64, tres: f64) -> Self {
        assert!(sres > 0.0 && sres.is_finite(), "sres must be positive");
        assert!(tres > 0.0 && tres.is_finite(), "tres must be positive");
        Self { sres, tres }
    }
}

/// Kernel bandwidths in world space: spatial radius `hs`, temporal
/// half-height `ht`. Together they define the cylinder of influence of a
/// point (Figure 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bandwidth {
    /// Spatial bandwidth `hs` (cylinder radius).
    pub hs: f64,
    /// Temporal bandwidth `ht` (cylinder half-height).
    pub ht: f64,
}

impl Bandwidth {
    /// Create a bandwidth pair. Both must be positive and finite.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite values.
    pub fn new(hs: f64, ht: f64) -> Self {
        assert!(hs > 0.0 && hs.is_finite(), "hs must be positive");
        assert!(ht > 0.0 && ht.is_finite(), "ht must be positive");
        Self { hs, ht }
    }

    /// The normalization constant `1 / (n · hs² · ht)` for `n` points.
    #[inline]
    pub fn normalization(&self, n: usize) -> f64 {
        1.0 / (n as f64 * self.hs * self.hs * self.ht)
    }
}

/// Kernel bandwidths in voxel space: `Hs = ⌈hs / sres⌉`, `Ht = ⌈ht / tres⌉`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VoxelBandwidth {
    /// Spatial bandwidth in voxels, `Hs`.
    pub hs: usize,
    /// Temporal bandwidth in voxels, `Ht`.
    pub ht: usize,
}

impl VoxelBandwidth {
    /// Create a voxel bandwidth pair (both must be ≥ 1).
    ///
    /// # Panics
    /// Panics if either bandwidth is zero.
    pub fn new(hs: usize, ht: usize) -> Self {
        assert!(hs > 0 && ht > 0, "voxel bandwidths must be >= 1");
        Self { hs, ht }
    }

    /// Number of voxels in the bounding box of one point's cylinder:
    /// `(2Hs+1)² · (2Ht+1)`.
    #[inline]
    pub fn cylinder_box_volume(&self) -> usize {
        let s = 2 * self.hs + 1;
        let t = 2 * self.ht + 1;
        s * s * t
    }
}

/// The discretized computation domain: world extent + resolution + derived
/// voxel dimensions (`Gx = ⌈gx/sres⌉` …), plus the world↔voxel mapping.
///
/// Voxels are sampled at their **centers**: voxel `(X, Y, T)` corresponds to
/// the world position `min + (X + ½)·sres` (and likewise for y, t). With
/// `Hs = ⌈hs/sres⌉`, a point whose containing voxel is `(Xi, Yi, Ti)` can
/// only influence voxel centers within `Xi ± Hs`, `Yi ± Hs`, `Ti ± Ht`
/// (proof: the voxel-center offset of the point is < ½ voxel on each axis),
/// which is the property the point-based algorithms rely on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Domain {
    extent: Extent,
    res: Resolution,
    dims: GridDims,
}

impl Domain {
    /// Build a domain from a world extent and a resolution; voxel dimensions
    /// are `⌈size/res⌉` per axis as in the paper.
    pub fn from_extent(extent: Extent, res: Resolution) -> Self {
        let gx = (extent.size(0) / res.sres).ceil().max(1.0) as usize;
        let gy = (extent.size(1) / res.sres).ceil().max(1.0) as usize;
        let gt = (extent.size(2) / res.tres).ceil().max(1.0) as usize;
        Self {
            extent,
            res,
            dims: GridDims::new(gx, gy, gt),
        }
    }

    /// Build a domain directly from voxel dimensions with unit resolution
    /// anchored at the origin. This is how the Table 2 instance catalog is
    /// expressed (the paper reports instances in voxel units).
    pub fn from_dims(dims: GridDims) -> Self {
        let res = Resolution::new(1.0, 1.0);
        let extent = Extent::new(
            [0.0, 0.0, 0.0],
            [dims.gx as f64, dims.gy as f64, dims.gt as f64],
        );
        Self { extent, res, dims }
    }

    /// The sub-domain covering a voxel range of this domain: same
    /// resolution, origin shifted so that the sub-domain's voxel `(0,0,0)`
    /// is this domain's voxel `(range.x0, range.y0, range.t0)`. Voxel
    /// centers of the sub-domain coincide exactly with the corresponding
    /// parent voxel centers — the property `PB-SYM-PD-REP` relies on when
    /// accumulating into private halo buffers.
    ///
    /// # Panics
    /// Panics if `range` is empty or exceeds this domain.
    pub fn subdomain(&self, range: VoxelRange) -> Domain {
        assert!(!range.is_empty(), "empty subdomain range");
        assert!(
            VoxelRange::full(self.dims).contains_range(&range),
            "range {range} exceeds domain"
        );
        let min = [
            self.extent.min[0] + range.x0 as f64 * self.res.sres,
            self.extent.min[1] + range.y0 as f64 * self.res.sres,
            self.extent.min[2] + range.t0 as f64 * self.res.tres,
        ];
        let max = [
            self.extent.min[0] + range.x1 as f64 * self.res.sres,
            self.extent.min[1] + range.y1 as f64 * self.res.sres,
            self.extent.min[2] + range.t1 as f64 * self.res.tres,
        ];
        Domain {
            extent: Extent::new(min, max),
            res: self.res,
            dims: GridDims::new(range.width_x(), range.width_y(), range.width_t()),
        }
    }

    /// The world-space extent.
    #[inline]
    pub fn extent(&self) -> Extent {
        self.extent
    }

    /// The resolution.
    #[inline]
    pub fn resolution(&self) -> Resolution {
        self.res
    }

    /// The voxel-space dimensions.
    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// World position of the center of voxel `(x, y, t)`.
    #[inline]
    pub fn voxel_center(&self, x: usize, y: usize, t: usize) -> [f64; 3] {
        [
            self.extent.min[0] + (x as f64 + 0.5) * self.res.sres,
            self.extent.min[1] + (y as f64 + 0.5) * self.res.sres,
            self.extent.min[2] + (t as f64 + 0.5) * self.res.tres,
        ]
    }

    /// The *fractional* voxel X-coordinate whose center is the world
    /// position `wx` — the inverse of [`Domain::voxel_center`] along X:
    /// `voxel_center(x, _, _)[0] == wx ⇔ x == frac_voxel_x(wx)`.
    ///
    /// Kernel-support span clipping solves for the voxel index where the
    /// normalized offset crosses the support boundary; exposing the
    /// inverse here keeps the world↔voxel mapping in one place.
    #[inline]
    pub fn frac_voxel_x(&self, wx: f64) -> f64 {
        (wx - self.extent.min[0]) / self.res.sres - 0.5
    }

    /// The voxel containing a world position, clamped into the grid.
    ///
    /// Positions outside the extent map to the nearest boundary voxel; this
    /// matches the reference implementation, which clamps rather than drops
    /// boundary events.
    #[inline]
    pub fn voxel_of(&self, p: [f64; 3]) -> (usize, usize, usize) {
        let f = |v: f64, min: f64, res: f64, n: usize| -> usize {
            let i = ((v - min) / res).floor();
            if i < 0.0 {
                0
            } else {
                (i as usize).min(n - 1)
            }
        };
        (
            f(p[0], self.extent.min[0], self.res.sres, self.dims.gx),
            f(p[1], self.extent.min[1], self.res.sres, self.dims.gy),
            f(p[2], self.extent.min[2], self.res.tres, self.dims.gt),
        )
    }

    /// Convert world bandwidths to voxel bandwidths:
    /// `Hs = ⌈hs/sres⌉`, `Ht = ⌈ht/tres⌉` (Table 1).
    pub fn voxel_bandwidth(&self, bw: Bandwidth) -> VoxelBandwidth {
        VoxelBandwidth::new(
            (bw.hs / self.res.sres).ceil().max(1.0) as usize,
            (bw.ht / self.res.tres).ceil().max(1.0) as usize,
        )
    }

    /// The voxel-space bounding box (clipped to the grid) of the cylinder of
    /// influence of a point located in voxel `(xi, yi, ti)`.
    pub fn cylinder_range(
        &self,
        (xi, yi, ti): (usize, usize, usize),
        vbw: VoxelBandwidth,
    ) -> VoxelRange {
        VoxelRange::centered(xi, yi, ti, vbw.hs, vbw.ht).clipped(self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn domain_100() -> Domain {
        Domain::from_extent(
            Extent::new([0.0, 0.0, 0.0], [100.0, 50.0, 10.0]),
            Resolution::new(1.0, 0.5),
        )
    }

    #[test]
    fn dims_are_ceil_of_size_over_res() {
        let d = domain_100();
        assert_eq!(d.dims(), GridDims::new(100, 50, 20));

        let d2 = Domain::from_extent(
            Extent::new([0.0, 0.0, 0.0], [10.5, 10.4, 3.1]),
            Resolution::new(1.0, 1.0),
        );
        assert_eq!(d2.dims(), GridDims::new(11, 11, 4));
    }

    #[test]
    fn voxel_center_of_first_voxel() {
        let d = domain_100();
        assert_eq!(d.voxel_center(0, 0, 0), [0.5, 0.5, 0.25]);
        assert_eq!(d.voxel_center(99, 49, 19), [99.5, 49.5, 9.75]);
    }

    #[test]
    fn voxel_of_clamps_out_of_range() {
        let d = domain_100();
        assert_eq!(d.voxel_of([-5.0, -5.0, -5.0]), (0, 0, 0));
        assert_eq!(d.voxel_of([1e9, 1e9, 1e9]), (99, 49, 19));
    }

    #[test]
    fn voxel_of_interior_point() {
        let d = domain_100();
        assert_eq!(d.voxel_of([10.2, 3.9, 1.2]), (10, 3, 2));
    }

    #[test]
    fn voxel_bandwidth_is_ceil() {
        let d = domain_100();
        let vbw = d.voxel_bandwidth(Bandwidth::new(2.5, 0.9));
        assert_eq!(vbw, VoxelBandwidth::new(3, 2));
    }

    #[test]
    fn normalization_matches_formula() {
        let bw = Bandwidth::new(2.0, 4.0);
        let norm = bw.normalization(10);
        assert!((norm - 1.0 / (10.0 * 4.0 * 4.0)).abs() < 1e-15);
    }

    #[test]
    fn cylinder_box_volume() {
        let vbw = VoxelBandwidth::new(2, 1);
        assert_eq!(vbw.cylinder_box_volume(), 5 * 5 * 3);
    }

    #[test]
    fn extent_bounding_handles_degenerate_axes() {
        let e = Extent::bounding(vec![[1.0, 2.0, 3.0], [4.0, 2.0, 1.0]]).unwrap();
        assert_eq!(e.min, [1.0, 2.0, 1.0]);
        assert!(e.max[1] > 2.0); // degenerate y axis widened
        assert!(Extent::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn subdomain_centers_coincide_with_parent() {
        let d = domain_100();
        let r = VoxelRange {
            x0: 10,
            x1: 20,
            y0: 5,
            y1: 15,
            t0: 2,
            t1: 8,
        };
        let sub = d.subdomain(r);
        assert_eq!(sub.dims(), GridDims::new(10, 10, 6));
        assert_eq!(sub.voxel_center(0, 0, 0), d.voxel_center(10, 5, 2));
        assert_eq!(sub.voxel_center(9, 9, 5), d.voxel_center(19, 14, 7));
        // Points map consistently.
        let p = [12.3, 7.7, 2.1];
        let (px, py, pt) = d.voxel_of(p);
        let (sx, sy, st) = sub.voxel_of(p);
        assert_eq!((sx + 10, sy + 5, st + 2), (px, py, pt));
    }

    #[test]
    #[should_panic(expected = "exceeds domain")]
    fn subdomain_out_of_bounds_panics() {
        let d = domain_100();
        let _ = d.subdomain(VoxelRange {
            x0: 0,
            x1: 1000,
            y0: 0,
            y1: 1,
            t0: 0,
            t1: 1,
        });
    }

    #[test]
    fn from_dims_matches_unit_resolution() {
        let d = Domain::from_dims(GridDims::new(7, 8, 9));
        assert_eq!(d.dims(), GridDims::new(7, 8, 9));
        assert_eq!(d.voxel_of([6.5, 7.5, 8.5]), (6, 7, 8));
        let vbw = d.voxel_bandwidth(Bandwidth::new(3.0, 2.0));
        assert_eq!(vbw, VoxelBandwidth::new(3, 2));
    }

    proptest! {
        /// A point's containing voxel center is within half a voxel of the
        /// point on each axis — the property underpinning the Xi ± Hs bound
        /// of the point-based algorithms.
        #[test]
        fn voxel_center_within_half_voxel(
            px in 0.0..100.0f64, py in 0.0..50.0f64, pt in 0.0..10.0f64
        ) {
            let d = domain_100();
            let (x, y, t) = d.voxel_of([px, py, pt]);
            let c = d.voxel_center(x, y, t);
            prop_assert!((c[0] - px).abs() <= 0.5 * d.resolution().sres + 1e-12);
            prop_assert!((c[1] - py).abs() <= 0.5 * d.resolution().sres + 1e-12);
            prop_assert!((c[2] - pt).abs() <= 0.5 * d.resolution().tres + 1e-12);
        }

        /// Every voxel center maps back to its own voxel.
        #[test]
        fn center_roundtrips_to_same_voxel(
            x in 0usize..100, y in 0usize..50, t in 0usize..20
        ) {
            let d = domain_100();
            let c = d.voxel_center(x, y, t);
            prop_assert_eq!(d.voxel_of(c), (x, y, t));
        }
    }
}
