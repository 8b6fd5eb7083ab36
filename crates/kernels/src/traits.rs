//! The separable space-time kernel abstraction.

/// A separable space-time kernel: a spatial factor `ks(u, v)` supported on
/// the open unit disk and a temporal factor `kt(w)` supported on the closed
/// interval `[-1, 1]`.
///
/// Implementations must:
///
/// * return `0` outside the support (`u²+v² ≥ 1`, resp. `|w| > 1`),
/// * be non-negative on the support,
/// * be finite everywhere.
///
/// The support boundaries mirror the paper's membership tests:
/// `√((xi−x)² + (yi−y)²) < hs` (strict) and `|ti − t| ≤ ht` (inclusive).
///
/// Kernels need not integrate to one individually; estimators divide by the
/// normalization `n·hs²·ht`, so a kernel whose product integrates to one
/// yields a proper density (the `integrate` unit tests check it numerically).
pub trait SpaceTimeKernel: Send + Sync {
    /// Spatial factor at normalized offsets `u = (x−xi)/hs`, `v = (y−yi)/hs`.
    ///
    /// Must return `0` whenever `u² + v² ≥ 1` (the open-unit-disk support
    /// above). This is a **correctness contract**, not just a convention:
    /// the scatter engine's span clipping derives each row's nonzero
    /// X-span from `u² + v² < 1` and never evaluates the kernel outside
    /// it, so a kernel with wider support (e.g. square) would silently
    /// lose the mass outside the disk.
    fn spatial(&self, u: f64, v: f64) -> f64;

    /// Temporal factor at normalized offset `w = (t−ti)/ht`.
    fn temporal(&self, w: f64) -> f64;

    /// Full kernel value `ks(u, v) · kt(w)`.
    #[inline]
    fn eval(&self, u: f64, v: f64, w: f64) -> f64 {
        let s = self.spatial(u, v);
        if s == 0.0 {
            // Skip the temporal evaluation off-support (hot path: most of a
            // cylinder's bounding box is outside the inscribed disk).
            0.0
        } else {
            s * self.temporal(w)
        }
    }

    /// Human-readable kernel name (for reports and experiment logs).
    fn name(&self) -> &'static str;
}

/// `true` if `(u, v)` lies in the spatial support (open unit disk).
#[cfg(any(test, feature = "testkit"))]
#[inline(always)]
pub(crate) fn in_spatial_support(u: f64, v: f64) -> bool {
    u * u + v * v < 1.0
}

/// `true` if `w` lies in the temporal support (closed unit interval).
#[cfg(any(test, feature = "testkit"))]
#[inline(always)]
pub(crate) fn in_temporal_support(w: f64) -> bool {
    w.abs() <= 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flat;
    impl SpaceTimeKernel for Flat {
        fn spatial(&self, u: f64, v: f64) -> f64 {
            if in_spatial_support(u, v) {
                1.0
            } else {
                0.0
            }
        }
        fn temporal(&self, w: f64) -> f64 {
            if in_temporal_support(w) {
                1.0
            } else {
                0.0
            }
        }
        fn name(&self) -> &'static str {
            "flat"
        }
    }

    #[test]
    fn eval_is_product() {
        let k = Flat;
        assert_eq!(k.eval(0.0, 0.0, 0.0), 1.0);
        assert_eq!(k.eval(0.8, 0.8, 0.0), 0.0); // outside disk
        assert_eq!(k.eval(0.0, 0.0, 1.5), 0.0); // outside interval
    }

    #[test]
    fn support_predicates() {
        assert!(in_spatial_support(0.0, 0.0));
        assert!(in_spatial_support(0.7, 0.7)); // 0.98 < 1
        assert!(!in_spatial_support(1.0, 0.0));
        assert!(in_temporal_support(1.0)); // inclusive
        assert!(in_temporal_support(-1.0));
        assert!(!in_temporal_support(1.0001));
    }
}
