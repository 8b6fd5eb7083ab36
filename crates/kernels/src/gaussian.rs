//! Truncated Gaussian kernel (extension beyond the paper).

use crate::traits::{in_spatial_support, in_temporal_support, SpaceTimeKernel};
use serde::{Deserialize, Serialize};

/// A Gaussian kernel truncated at the bandwidth so it keeps the same compact
/// support as the paper's kernels (and therefore the same cylinder-based
/// algorithm structure):
///
/// ```text
/// ks(u, v) ∝ exp(−(u² + v²)/(2σ²))   for u² + v² < 1
/// kt(w)    ∝ exp(−w²/(2σ²))          for |w| ≤ 1
/// ```
///
/// `σ` is expressed as a fraction of the bandwidth. This is the kind of
/// "arbitrarily shaped" kernel discussed in the related work (Lopez-Novoa);
/// note it is still *separable*, so `PB-SYM` applies — kernels that are not
/// separable would only support `PB`-level optimizations (paper §7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TruncatedGaussian {
    /// Standard deviation as a fraction of the bandwidth.
    pub sigma: f64,
}

impl Default for TruncatedGaussian {
    /// σ = 1/3: the truncation at the bandwidth is at 3σ, keeping ≈99.7% of
    /// the untruncated mass.
    fn default() -> Self {
        Self { sigma: 1.0 / 3.0 }
    }
}

impl SpaceTimeKernel for TruncatedGaussian {
    #[inline]
    fn spatial(&self, u: f64, v: f64) -> f64 {
        if in_spatial_support(u, v) {
            let s2 = 2.0 * self.sigma * self.sigma;
            (-(u * u + v * v) / s2).exp() / (std::f64::consts::PI * s2)
        } else {
            0.0
        }
    }

    #[inline]
    fn temporal(&self, w: f64) -> f64 {
        if in_temporal_support(w) {
            let s2 = 2.0 * self.sigma * self.sigma;
            (-(w * w) / s2).exp() / (std::f64::consts::PI * s2).sqrt()
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "truncated-gaussian"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sigma_is_third() {
        assert!((TruncatedGaussian::default().sigma - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn decays_with_radius() {
        let k = TruncatedGaussian::default();
        assert!(k.spatial(0.0, 0.0) > k.spatial(0.5, 0.0));
        assert!(k.spatial(0.5, 0.0) > k.spatial(0.9, 0.0));
        assert!(k.temporal(0.0) > k.temporal(0.8));
    }

    #[test]
    fn truncated_outside_support() {
        let k = TruncatedGaussian::default();
        assert_eq!(k.spatial(1.0, 0.1), 0.0);
        assert_eq!(k.temporal(-1.01), 0.0);
        assert!(k.temporal(1.0) > 0.0); // inclusive boundary
    }
}
