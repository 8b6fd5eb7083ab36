//! Numeric integration of kernels over their support.
//!
//! Used by tests to verify normalization: a kernel pair whose spatial factor
//! integrates to 1 over the unit disk and whose temporal factor integrates
//! to 1 over `[-1, 1]` makes the STKDE a proper density under the paper's
//! `1/(n·hs²·ht)` normalization.

use crate::traits::SpaceTimeKernel;

/// Midpoint-rule integral of the spatial factor over the unit disk
/// (`steps²` sample grid on the bounding square).
fn spatial_integral<K: SpaceTimeKernel>(kernel: &K, steps: usize) -> f64 {
    let h = 2.0 / steps as f64;
    let mut acc = 0.0;
    for i in 0..steps {
        let u = -1.0 + (i as f64 + 0.5) * h;
        for j in 0..steps {
            let v = -1.0 + (j as f64 + 0.5) * h;
            acc += kernel.spatial(u, v);
        }
    }
    acc * h * h
}

/// Midpoint-rule integral of the temporal factor over `[-1, 1]`.
fn temporal_integral<K: SpaceTimeKernel>(kernel: &K, steps: usize) -> f64 {
    let h = 2.0 / steps as f64;
    (0..steps)
        .map(|i| kernel.temporal(-1.0 + (i as f64 + 0.5) * h))
        .sum::<f64>()
        * h
}

/// Integral of the full space-time kernel over its support
/// (product of the two factor integrals, by separability).
fn total_integral<K: SpaceTimeKernel>(kernel: &K, steps: usize) -> f64 {
    spatial_integral(kernel, steps) * temporal_integral(kernel, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Epanechnikov, PaperLiteral, Quartic, TruncatedGaussian, Uniform};

    const STEPS: usize = 2000;
    const TOL: f64 = 2e-3;

    #[test]
    fn epanechnikov_is_normalized() {
        let k = Epanechnikov;
        assert!((spatial_integral(&k, STEPS) - 1.0).abs() < TOL);
        assert!((temporal_integral(&k, STEPS) - 1.0).abs() < TOL);
        assert!((total_integral(&k, STEPS) - 1.0).abs() < 2.0 * TOL);
    }

    #[test]
    fn quartic_is_normalized() {
        let k = Quartic;
        assert!((spatial_integral(&k, STEPS) - 1.0).abs() < TOL);
        assert!((temporal_integral(&k, STEPS) - 1.0).abs() < TOL);
    }

    #[test]
    fn uniform_is_normalized() {
        let k = Uniform;
        assert!((spatial_integral(&k, STEPS) - 1.0).abs() < TOL);
        assert!((temporal_integral(&k, STEPS) - 1.0).abs() < TOL);
    }

    #[test]
    fn paper_literal_mass_is_finite_positive() {
        // The literal printed form is *not* normalized — that only rescales
        // the density, it does not change any algorithmic behaviour.
        let k = PaperLiteral;
        let m = total_integral(&k, STEPS);
        assert!(m > 0.0 && m.is_finite());
    }

    #[test]
    fn truncated_gaussian_mass_close_to_one() {
        // Truncation at 3σ cuts ≈0.3% of the spatial mass.
        let k = TruncatedGaussian::default();
        let m = total_integral(&k, STEPS);
        assert!((m - 1.0).abs() < 0.02, "mass {m}");
    }
}
