//! Axis-aligned voxel boxes (half-open ranges on each axis).

use crate::dims::GridDims;
use serde::{Deserialize, Serialize};

/// An axis-aligned box of voxels, half-open on each axis:
/// `x ∈ [x0, x1), y ∈ [y0, y1), t ∈ [t0, t1)`.
///
/// Used for cylinder bounding boxes, subdomain extents, and clipped write
/// regions. An empty range has `x0 >= x1` (or similarly on another axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VoxelRange {
    /// Inclusive start along x.
    pub x0: usize,
    /// Exclusive end along x.
    pub x1: usize,
    /// Inclusive start along y.
    pub y0: usize,
    /// Exclusive end along y.
    pub y1: usize,
    /// Inclusive start along t.
    pub t0: usize,
    /// Exclusive end along t.
    pub t1: usize,
}

impl VoxelRange {
    /// The whole grid as a range.
    pub fn full(dims: GridDims) -> Self {
        Self {
            x0: 0,
            x1: dims.gx,
            y0: 0,
            y1: dims.gy,
            t0: 0,
            t1: dims.gt,
        }
    }

    /// An empty range.
    #[cfg(any(test, feature = "model"))]
    pub fn empty() -> Self {
        Self {
            x0: 0,
            x1: 0,
            y0: 0,
            y1: 0,
            t0: 0,
            t1: 0,
        }
    }

    /// The (unclipped, saturating at 0) bounding box of a cylinder centered
    /// on voxel `(x, y, t)` with voxel bandwidths `hs`, `ht`:
    /// `x ∈ [x-hs, x+hs]` inclusive, i.e. half-open `[x-hs, x+hs+1)`.
    pub fn centered(x: usize, y: usize, t: usize, hs: usize, ht: usize) -> Self {
        Self {
            x0: x.saturating_sub(hs),
            x1: x + hs + 1,
            y0: y.saturating_sub(hs),
            y1: y + hs + 1,
            t0: t.saturating_sub(ht),
            t1: t + ht + 1,
        }
    }

    /// Clip this range to the grid bounds.
    pub fn clipped(self, dims: GridDims) -> Self {
        Self {
            x0: self.x0.min(dims.gx),
            x1: self.x1.min(dims.gx),
            y0: self.y0.min(dims.gy),
            y1: self.y1.min(dims.gy),
            t0: self.t0.min(dims.gt),
            t1: self.t1.min(dims.gt),
        }
    }

    /// Intersection with another range (possibly empty).
    pub fn intersect(self, other: Self) -> Self {
        Self {
            x0: self.x0.max(other.x0),
            x1: self.x1.min(other.x1),
            y0: self.y0.max(other.y0),
            y1: self.y1.min(other.y1),
            t0: self.t0.max(other.t0),
            t1: self.t1.min(other.t1),
        }
    }

    /// `true` if the two ranges share at least one voxel.
    #[cfg(any(test, feature = "model"))]
    pub(crate) fn intersects(self, other: Self) -> bool {
        !self.intersect(other).is_empty()
    }

    /// `true` if no voxels are inside.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1 || self.t0 >= self.t1
    }

    /// Number of voxels inside.
    #[inline]
    pub fn volume(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            (self.x1 - self.x0) * (self.y1 - self.y0) * (self.t1 - self.t0)
        }
    }

    /// `true` if the voxel is inside the range.
    #[inline]
    pub fn contains(&self, x: usize, y: usize, t: usize) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1 && t >= self.t0 && t < self.t1
    }

    /// `true` if `other` is entirely inside `self`.
    pub(crate) fn contains_range(&self, other: &Self) -> bool {
        other.is_empty()
            || (self.x0 <= other.x0
                && self.x1 >= other.x1
                && self.y0 <= other.y0
                && self.y1 >= other.y1
                && self.t0 <= other.t0
                && self.t1 >= other.t1)
    }

    /// Grow the range by `hs` voxels on x/y and `ht` on t (saturating at 0,
    /// not clipped above). Used to compute the *influence halo* of a
    /// subdomain: the set of voxels its points may write to.
    pub(crate) fn expanded(self, hs: usize, ht: usize) -> Self {
        Self {
            x0: self.x0.saturating_sub(hs),
            x1: self.x1 + hs,
            y0: self.y0.saturating_sub(hs),
            y1: self.y1 + hs,
            t0: self.t0.saturating_sub(ht),
            t1: self.t1 + ht,
        }
    }

    /// Iterate over all voxels in the range in layout order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let r = *self;
        (r.t0..r.t1)
            .flat_map(move |t| (r.y0..r.y1).flat_map(move |y| (r.x0..r.x1).map(move |x| (x, y, t))))
    }

    /// Width along x, `x1 - x0` (0 if empty on that axis).
    #[inline]
    pub fn width_x(&self) -> usize {
        self.x1.saturating_sub(self.x0)
    }

    /// Width along y.
    #[inline]
    pub fn width_y(&self) -> usize {
        self.y1.saturating_sub(self.y0)
    }

    /// Width along t.
    #[inline]
    pub fn width_t(&self) -> usize {
        self.t1.saturating_sub(self.t0)
    }
}

impl std::fmt::Display for VoxelRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}..{})x[{}..{})x[{}..{})",
            self.x0, self.x1, self.y0, self.y1, self.t0, self.t1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn centered_saturates_at_zero() {
        let r = VoxelRange::centered(1, 0, 2, 3, 3);
        assert_eq!((r.x0, r.x1), (0, 5));
        assert_eq!((r.y0, r.y1), (0, 4));
        assert_eq!((r.t0, r.t1), (0, 6));
    }

    #[test]
    fn clip_limits_to_dims() {
        let dims = GridDims::new(10, 10, 10);
        let r = VoxelRange::centered(9, 9, 9, 4, 4).clipped(dims);
        assert_eq!((r.x0, r.x1), (5, 10));
        assert_eq!(r.volume(), 5 * 5 * 5);
    }

    #[test]
    fn intersect_and_empty() {
        let a = VoxelRange {
            x0: 0,
            x1: 5,
            y0: 0,
            y1: 5,
            t0: 0,
            t1: 5,
        };
        let b = VoxelRange {
            x0: 5,
            x1: 9,
            y0: 0,
            y1: 5,
            t0: 0,
            t1: 5,
        };
        assert!(a.intersect(b).is_empty());
        assert!(!a.intersects(b));
        let c = VoxelRange {
            x0: 4,
            x1: 9,
            y0: 4,
            y1: 9,
            t0: 4,
            t1: 9,
        };
        let i = a.intersect(c);
        assert_eq!(i.volume(), 1);
        assert!(i.contains(4, 4, 4));
    }

    #[test]
    fn expanded_is_halo() {
        let r = VoxelRange {
            x0: 4,
            x1: 8,
            y0: 4,
            y1: 8,
            t0: 2,
            t1: 4,
        };
        let h = r.expanded(2, 1);
        assert_eq!((h.x0, h.x1), (2, 10));
        assert_eq!((h.t0, h.t1), (1, 5));
        assert!(h.contains_range(&r));
    }

    #[test]
    fn iter_count_matches_volume() {
        let r = VoxelRange {
            x0: 1,
            x1: 4,
            y0: 0,
            y1: 2,
            t0: 3,
            t1: 5,
        };
        assert_eq!(r.iter().count(), r.volume());
        assert_eq!(r.volume(), 3 * 2 * 2);
        for (x, y, t) in r.iter() {
            assert!(r.contains(x, y, t));
        }
    }

    #[test]
    fn full_covers_grid() {
        let dims = GridDims::new(3, 4, 5);
        let r = VoxelRange::full(dims);
        assert_eq!(r.volume(), dims.volume());
    }

    #[test]
    fn contains_range_cases() {
        let outer = VoxelRange::full(GridDims::new(10, 10, 10));
        let inner = VoxelRange {
            x0: 2,
            x1: 5,
            y0: 2,
            y1: 5,
            t0: 2,
            t1: 5,
        };
        assert!(outer.contains_range(&inner));
        assert!(!inner.contains_range(&outer));
        assert!(inner.contains_range(&VoxelRange::empty()));
    }

    proptest! {
        #[test]
        fn intersect_is_commutative_and_bounded(
            ax0 in 0usize..20, aw in 0usize..20, ay0 in 0usize..20, ah in 0usize..20,
            at0 in 0usize..20, ad in 0usize..20,
            bx0 in 0usize..20, bw in 0usize..20, by0 in 0usize..20, bh in 0usize..20,
            bt0 in 0usize..20, bd in 0usize..20
        ) {
            let a = VoxelRange { x0: ax0, x1: ax0 + aw, y0: ay0, y1: ay0 + ah, t0: at0, t1: at0 + ad };
            let b = VoxelRange { x0: bx0, x1: bx0 + bw, y0: by0, y1: by0 + bh, t0: bt0, t1: bt0 + bd };
            let ab = a.intersect(b);
            let ba = b.intersect(a);
            prop_assert_eq!(ab.volume(), ba.volume());
            prop_assert!(ab.volume() <= a.volume().min(b.volume()));
            // Every voxel of the intersection is in both.
            for (x, y, t) in ab.iter().take(200) {
                prop_assert!(a.contains(x, y, t) && b.contains(x, y, t));
            }
        }

        #[test]
        fn clipped_centered_volume_le_box(
            x in 0usize..30, y in 0usize..30, t in 0usize..30,
            hs in 1usize..6, ht in 1usize..6
        ) {
            let dims = GridDims::new(30, 30, 30);
            let r = VoxelRange::centered(x, y, t, hs, ht).clipped(dims);
            prop_assert!(r.volume() <= (2*hs+1)*(2*hs+1)*(2*ht+1));
            prop_assert!(r.contains(x, y, t));
        }
    }
}
