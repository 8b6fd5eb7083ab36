//! Tabulated (lookup-table) kernel evaluation — an ablation on the cost
//! of the kernel flops.
//!
//! The paper estimates ≈40 flops per voxel update for `PB` and motivates
//! `PB-SYM` entirely by *removing redundant kernel evaluations* (§3.2).
//! A lookup table attacks the same cost from the other side: precompute
//! the kernel profile once and replace each evaluation by an indexed
//! linear interpolation. [`Tabulated`] wraps any *radially symmetric*
//! separable kernel — the spatial factor is tabulated over `s = u² + v²`
//! and the temporal factor over `q = w²`, so no square roots are taken.
//!
//! For polynomial kernels (Epanechnikov, quartic, …) the table buys
//! little — the closed form is already a handful of multiplies (and for
//! the Epanechnikov, which is *linear in `s`*, interpolation is exact).
//! For transcendental kernels ([`TruncatedGaussian`](crate::TruncatedGaussian),
//! whose every evaluation calls `exp`) the table removes the
//! transcendental from the inner loop entirely. The benchmark's
//! per-layer pair `kernels.lut.eval_ns` / `kernels.exact.eval_ns` times
//! the Epanechnikov case: 8.1–8.6 ns through the table against
//! 1.9–2.3 ns for the closed form, which is why the daemon serves the
//! closed form. Interpolation error is measurable via
//! [`Tabulated::max_spatial_error`].

use crate::traits::SpaceTimeKernel;

/// A kernel whose factors are evaluated by linear interpolation in
/// precomputed tables over the *squared* normalized offsets.
///
/// The base kernel must be radially symmetric in its spatial factor
/// (`ks(u, v)` a function of `u² + v²`) and even in its temporal factor —
/// true of every kernel this crate provides. Construction checks this on
/// a sample grid and panics otherwise.
///
/// ```
/// use stkde_kernels::{SpaceTimeKernel, Tabulated, TruncatedGaussian};
///
/// let exact = TruncatedGaussian::default();
/// let lut = Tabulated::new(TruncatedGaussian::default());
/// // No `exp` in the hot path, bounded interpolation error:
/// assert!((lut.eval(0.3, 0.2, 0.5) - exact.eval(0.3, 0.2, 0.5)).abs() < 1e-4);
/// assert!(lut.max_spatial_error(10_000) < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct Tabulated<K> {
    base: K,
    /// `spatial[i] = ks(√(i/N), 0)` for `i ∈ 0..=N`.
    spatial: Vec<f64>,
    /// `temporal[j] = kt(√(j/M))` for `j ∈ 0..=M`.
    temporal: Vec<f64>,
}

impl<K: SpaceTimeKernel> Tabulated<K> {
    /// Default resolution: 1024 spatial and 1024 temporal bins
    /// (16 KiB of tables — resident in L1 alongside the invariants).
    pub fn new(base: K) -> Self {
        Self::with_bins(base, 1024, 1024)
    }

    /// Tabulate with explicit bin counts.
    ///
    /// # Panics
    /// Panics if a bin count is zero, or if the base kernel is detectably
    /// not radially symmetric / temporally even.
    pub fn with_bins(base: K, spatial_bins: usize, temporal_bins: usize) -> Self {
        assert!(
            spatial_bins > 0 && temporal_bins > 0,
            "bin counts must be non-zero"
        );
        // Symmetry spot-check: ks must agree on same-radius probes and kt
        // must be even. A violated assumption would silently corrupt
        // densities, so fail loudly at construction.
        for i in 1..8 {
            let r = (i as f64 / 8.0) * 0.99;
            let on_axis = base.spatial(r, 0.0);
            let diag = base.spatial(r / 2f64.sqrt(), r / 2f64.sqrt());
            assert!(
                (on_axis - diag).abs() <= 1e-9 * on_axis.abs().max(1.0),
                "spatial factor is not radially symmetric at r={r}"
            );
            let w = i as f64 / 8.0;
            assert!(
                (base.temporal(w) - base.temporal(-w)).abs() <= 1e-12,
                "temporal factor is not even at w={w}"
            );
        }
        // Node i sits at the exact squared radius i/N. The spatial support
        // is *open*, so `spatial(1, 0)` is 0 even for kernels that do not
        // vanish at the edge (Uniform, TruncatedGaussian); the boundary
        // node therefore takes the *inside limit*, linearly extrapolated
        // from two half-step probes (exact for profiles linear in s,
        // O(h²) otherwise, clamped to the kernel's non-negativity).
        let h = 1.0 / spatial_bins as f64;
        let fs = |s: f64| base.spatial(s.sqrt(), 0.0);
        let spatial = (0..=spatial_bins)
            .map(|i| {
                if i == spatial_bins {
                    (2.0 * fs(1.0 - h / 2.0) - fs(1.0 - h)).max(0.0)
                } else {
                    fs(i as f64 * h)
                }
            })
            .collect();
        // The temporal support is closed, so the boundary sample is the
        // true inside value for every kernel.
        let temporal = (0..=temporal_bins)
            .map(|j| base.temporal((j as f64 / temporal_bins as f64).sqrt()))
            .collect();
        Self {
            base,
            spatial,
            temporal,
        }
    }

    /// The wrapped kernel.
    pub fn base(&self) -> &K {
        &self.base
    }

    /// Bytes held by the two tables.
    pub fn table_bytes(&self) -> usize {
        (self.spatial.len() + self.temporal.len()) * 8
    }

    /// Largest absolute spatial error versus the base kernel over a dense
    /// sample — the quantity to budget when choosing bin counts.
    ///
    /// Probes half-offset radii, node-aligned squared offsets, *and* a
    /// dense sweep of the last (boundary-extrapolated) bin. Half-offset
    /// radii alone — the original sampler — concentrate quadratically
    /// near `s = 0` and, whenever `samples` is not much larger than the
    /// bin count, skip whole bins near `s → 1`, including the
    /// extrapolation region where non-vanishing profiles err the most:
    /// the old number silently under-reported the true table error.
    pub fn max_spatial_error(&self, samples: usize) -> f64 {
        let h = 1.0 / (self.spatial.len() - 1) as f64;
        let err_at_s = |s: f64| {
            let r = s.sqrt();
            (self.spatial(r, 0.0) - self.base.spatial(r, 0.0)).abs()
        };
        let half_offsets = (0..samples).map(|i| {
            let r = (i as f64 + 0.5) / samples as f64;
            (self.spatial(r, 0.0) - self.base.spatial(r, 0.0)).abs()
        });
        // Node-aligned and mid-bin squared offsets cover every bin once
        // regardless of `samples`.
        let nodes = (0..self.spatial.len() - 1)
            .flat_map(|i| [i as f64 * h, (i as f64 + 0.5) * h])
            .map(err_at_s);
        // The boundary bin `[1−h, 1)` interpolates toward an extrapolated
        // node; sweep it densely (strictly inside the open support).
        let boundary = (1..64).map(|j| err_at_s(1.0 - h * j as f64 / 64.0));
        half_offsets
            .chain(nodes)
            .chain(boundary)
            .fold(0.0, f64::max)
    }

    /// Largest absolute temporal error versus the base kernel.
    pub fn max_temporal_error(&self, samples: usize) -> f64 {
        (0..samples)
            .map(|i| {
                let w = (i as f64 + 0.5) / samples as f64;
                (self.temporal(w) - self.base.temporal(w)).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Linear interpolation into a table indexed by a squared offset in
    /// `[0, 1]` (the index clamp makes `sq = 1` hit the last node exactly).
    #[inline(always)]
    fn interp(table: &[f64], sq: f64) -> f64 {
        let bins = table.len() - 1;
        let pos = sq * bins as f64;
        let i = (pos as usize).min(bins - 1);
        let frac = pos - i as f64;
        table[i] + (table[i + 1] - table[i]) * frac
    }
}

impl<K: SpaceTimeKernel> SpaceTimeKernel for Tabulated<K> {
    #[inline]
    fn spatial(&self, u: f64, v: f64) -> f64 {
        let s = u * u + v * v;
        if s >= 1.0 {
            0.0
        } else {
            Self::interp(&self.spatial, s)
        }
    }

    #[inline]
    fn temporal(&self, w: f64) -> f64 {
        let q = w * w;
        if q > 1.0 {
            0.0
        } else {
            // The closed temporal support includes |w| = 1 exactly.
            Self::interp(&self.temporal, q)
        }
    }

    fn name(&self) -> &'static str {
        "tabulated"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Epanechnikov, Quartic, TruncatedGaussian};

    #[test]
    fn epanechnikov_table_is_essentially_exact() {
        // ks is linear in s = u²+v², so piecewise-linear interpolation in s
        // reproduces it exactly (up to fp rounding).
        let t = Tabulated::new(Epanechnikov);
        assert!(t.max_spatial_error(10_000) < 1e-12);
        assert!(t.max_temporal_error(10_000) < 1e-12);
    }

    #[test]
    fn quartic_error_shrinks_quadratically_with_bins() {
        let coarse = Tabulated::with_bins(Quartic, 64, 64).max_spatial_error(20_000);
        let fine = Tabulated::with_bins(Quartic, 256, 256).max_spatial_error(20_000);
        assert!(coarse > 0.0);
        // 4× bins ⇒ ~16× smaller error for a C² profile; allow slack.
        assert!(
            fine < coarse / 8.0,
            "error should drop ~quadratically: {coarse} -> {fine}"
        );
    }

    #[test]
    fn gaussian_table_is_accurate_at_default_resolution() {
        // exp(−4.5·s) interpolated on 1024 bins: error ≈ f″·h²/8 ≲ 1e-5.
        let t = Tabulated::new(TruncatedGaussian::default());
        assert!(t.max_spatial_error(20_000) < 1e-5);
        assert!(t.max_temporal_error(20_000) < 1e-5);
        assert_eq!(t.table_bytes(), (1025 + 1025) * 8);
    }

    #[test]
    fn support_is_preserved_exactly() {
        let t = Tabulated::new(Epanechnikov);
        assert_eq!(t.spatial(1.0, 0.0), 0.0);
        assert_eq!(t.spatial(0.8, 0.8), 0.0);
        assert!(t.spatial(0.999, 0.0) >= 0.0);
        assert!(t.temporal(1.0) >= 0.0, "|w|=1 is inside (closed support)");
        assert_eq!(t.temporal(1.0001), 0.0);
        assert_eq!(t.temporal(-2.0), 0.0);
    }

    #[test]
    fn eval_matches_product_of_factors() {
        let t = Tabulated::new(Quartic);
        let (u, v, w) = (0.3, -0.2, 0.5);
        assert!((t.eval(u, v, w) - t.spatial(u, v) * t.temporal(w)).abs() < 1e-15);
    }

    #[test]
    fn negative_w_matches_positive() {
        let t = Tabulated::new(TruncatedGaussian::default());
        for i in 0..10 {
            let w = i as f64 / 10.0;
            assert_eq!(t.temporal(w), t.temporal(-w));
        }
    }

    /// A profile whose curvature peaks at the open boundary `s → 1` —
    /// the regime the half-offset-only sampler missed.
    struct BoundaryHeavy;
    impl SpaceTimeKernel for BoundaryHeavy {
        fn spatial(&self, u: f64, v: f64) -> f64 {
            let s = u * u + v * v;
            if s < 1.0 {
                (4.5 * (s - 1.0)).exp()
            } else {
                0.0
            }
        }
        fn temporal(&self, w: f64) -> f64 {
            let q = w * w;
            if q <= 1.0 {
                1.0 - q
            } else {
                0.0
            }
        }
        fn name(&self) -> &'static str {
            "boundary-heavy"
        }
    }

    #[test]
    fn old_half_offset_sampler_under_reported() {
        // With `samples` at or below the bin count, half-offset radius
        // probes (the pre-fix sampler) never land in the extrapolated
        // boundary bin, where this profile errs ~3× worse than interior.
        let t = Tabulated::with_bins(BoundaryHeavy, 256, 256);
        let samples = 128;
        let old = (0..samples)
            .map(|i| {
                let r = (i as f64 + 0.5) / samples as f64;
                (t.spatial(r, 0.0) - t.base().spatial(r, 0.0)).abs()
            })
            .fold(0.0, f64::max);
        let new = t.max_spatial_error(samples);
        assert!(
            new > old * 1.3,
            "fixed sampler must expose the boundary error: old {old}, new {new}"
        );
    }

    #[test]
    #[should_panic(expected = "not radially symmetric")]
    fn anisotropic_kernel_rejected() {
        struct Skewed;
        impl SpaceTimeKernel for Skewed {
            fn spatial(&self, u: f64, v: f64) -> f64 {
                if u * u + v * v < 1.0 {
                    1.0 + u.abs() // depends on direction, not just radius
                } else {
                    0.0
                }
            }
            fn temporal(&self, _w: f64) -> f64 {
                1.0
            }
            fn name(&self) -> &'static str {
                "skewed"
            }
        }
        let _ = Tabulated::new(Skewed);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bins_rejected() {
        let _ = Tabulated::with_bins(Epanechnikov, 0, 8);
    }
}
