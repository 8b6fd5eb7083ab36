//! Voxel-space grid dimensions and flat indexing.

use serde::{Deserialize, Serialize};

/// Size of the voxel grid: `Gx × Gy × Gt` (Table 1 of the paper).
///
/// The flat memory layout is **X-fastest**:
/// `idx = (T · Gy + Y) · Gx + X`, so that the innermost loop of the
/// point-based algorithms walks stride-1 memory, matching the C++ loop nest
/// of the reference implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GridDims {
    /// Number of voxels along the x (longitude/easting) axis, `Gx`.
    pub gx: usize,
    /// Number of voxels along the y (latitude/northing) axis, `Gy`.
    pub gy: usize,
    /// Number of voxels along the t (time) axis, `Gt`.
    pub gt: usize,
}

impl GridDims {
    /// Create grid dimensions. All axes must be non-zero.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(gx: usize, gy: usize, gt: usize) -> Self {
        assert!(
            gx > 0 && gy > 0 && gt > 0,
            "grid dimensions must be non-zero"
        );
        Self { gx, gy, gt }
    }

    /// Total number of voxels, `Gx · Gy · Gt`.
    #[inline]
    pub fn volume(&self) -> usize {
        self.gx * self.gy * self.gt
    }

    /// Size in bytes of a grid of `S` over these dimensions.
    #[inline]
    pub fn bytes<S>(&self) -> usize {
        self.volume() * std::mem::size_of::<S>()
    }

    /// Flat index of voxel `(x, y, t)`.
    ///
    /// Debug builds assert bounds; release builds rely on the caller.
    #[inline(always)]
    pub(crate) fn idx(&self, x: usize, y: usize, t: usize) -> usize {
        debug_assert!(x < self.gx && y < self.gy && t < self.gt);
        (t * self.gy + y) * self.gx + x
    }

    /// Inverse of [`GridDims::idx`]: voxel coordinates of a flat index.
    #[inline]
    pub(crate) fn coords(&self, idx: usize) -> (usize, usize, usize) {
        debug_assert!(idx < self.volume());
        let x = idx % self.gx;
        let rest = idx / self.gx;
        let y = rest % self.gy;
        let t = rest / self.gy;
        (x, y, t)
    }

    /// `true` if `(x, y, t)` is a valid voxel coordinate.
    #[inline]
    pub fn contains(&self, x: usize, y: usize, t: usize) -> bool {
        x < self.gx && y < self.gy && t < self.gt
    }

    /// Iterator over all voxel coordinates in layout order
    /// (X fastest, then Y, then T).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (gx, gy, gt) = (self.gx, self.gy, self.gt);
        (0..gt).flat_map(move |t| (0..gy).flat_map(move |y| (0..gx).map(move |x| (x, y, t))))
    }
}

impl std::fmt::Display for GridDims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.gx, self.gy, self.gt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn idx_is_x_fastest() {
        let d = GridDims::new(4, 3, 2);
        assert_eq!(d.idx(0, 0, 0), 0);
        assert_eq!(d.idx(1, 0, 0), 1);
        assert_eq!(d.idx(0, 1, 0), 4);
        assert_eq!(d.idx(0, 0, 1), 12);
        assert_eq!(d.idx(3, 2, 1), 23);
    }

    #[test]
    fn volume_and_bytes() {
        let d = GridDims::new(10, 20, 30);
        assert_eq!(d.volume(), 6000);
        assert_eq!(d.bytes::<f32>(), 24_000);
        assert_eq!(d.bytes::<f64>(), 48_000);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dim_panics() {
        let _ = GridDims::new(0, 1, 1);
    }

    #[test]
    fn iter_visits_layout_order() {
        let d = GridDims::new(2, 2, 2);
        let coords: Vec<_> = d.iter().collect();
        assert_eq!(coords.len(), 8);
        assert_eq!(coords[0], (0, 0, 0));
        assert_eq!(coords[1], (1, 0, 0));
        assert_eq!(coords[2], (0, 1, 0));
        assert_eq!(coords[4], (0, 0, 1));
        // Layout order means flat indices are consecutive.
        for (i, &(x, y, t)) in coords.iter().enumerate() {
            assert_eq!(d.idx(x, y, t), i);
        }
    }

    #[test]
    fn display_formats_like_paper() {
        assert_eq!(GridDims::new(148, 194, 728).to_string(), "148x194x728");
    }

    proptest! {
        #[test]
        fn idx_coords_roundtrip(
            gx in 1usize..40, gy in 1usize..40, gt in 1usize..40,
            seed in 0usize..1_000_000
        ) {
            let d = GridDims::new(gx, gy, gt);
            let idx = seed % d.volume();
            let (x, y, t) = d.coords(idx);
            prop_assert!(d.contains(x, y, t));
            prop_assert_eq!(d.idx(x, y, t), idx);
        }

        #[test]
        fn coords_idx_roundtrip(
            gx in 1usize..40, gy in 1usize..40, gt in 1usize..40,
            sx in 0usize..40, sy in 0usize..40, st in 0usize..40
        ) {
            let d = GridDims::new(gx, gy, gt);
            let (x, y, t) = (sx % gx, sy % gy, st % gt);
            let (rx, ry, rt) = d.coords(d.idx(x, y, t));
            prop_assert_eq!((rx, ry, rt), (x, y, t));
        }
    }
}
