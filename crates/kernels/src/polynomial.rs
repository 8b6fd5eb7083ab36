//! Additional polynomial kernels (quartic/biweight, uniform).
//!
//! These are the standard compact-support kernels of Silverman (1986), the
//! paper's reference for kernel density estimation. They all share the
//! paper kernels' support and separability, so every algorithm in
//! `stkde-core` works with them unchanged.

use crate::traits::{in_spatial_support, in_temporal_support, SpaceTimeKernel};
use serde::{Deserialize, Serialize};

/// Quartic (biweight) kernel:
/// `ks(u,v) = 3/π·(1−u²−v²)²`, `kt(w) = 15/16·(1−w²)²`.
///
/// Both factors integrate to one over their support.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quartic;

impl SpaceTimeKernel for Quartic {
    #[inline(always)]
    fn spatial(&self, u: f64, v: f64) -> f64 {
        let r2 = u * u + v * v;
        if r2 < 1.0 {
            let a = 1.0 - r2;
            (3.0 / std::f64::consts::PI) * a * a
        } else {
            0.0
        }
    }

    #[inline(always)]
    fn temporal(&self, w: f64) -> f64 {
        if in_temporal_support(w) {
            let a = 1.0 - w * w;
            (15.0 / 16.0) * a * a
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "quartic"
    }
}

/// Uniform (flat) kernel:
/// `ks(u,v) = 1/π` on the disk, `kt(w) = 1/2` on the interval.
///
/// Counts events in the cylinder with no distance decay — the cheapest
/// kernel, useful as a smoothing-free baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Uniform;

impl SpaceTimeKernel for Uniform {
    #[inline(always)]
    fn spatial(&self, u: f64, v: f64) -> f64 {
        if in_spatial_support(u, v) {
            std::f64::consts::FRAC_1_PI
        } else {
            0.0
        }
    }

    #[inline(always)]
    fn temporal(&self, w: f64) -> f64 {
        if in_temporal_support(w) {
            0.5
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_kernels() -> Vec<Box<dyn SpaceTimeKernel>> {
        vec![Box::new(Quartic), Box::new(Uniform)]
    }

    #[test]
    fn peaks_are_at_origin() {
        for k in all_kernels() {
            let peak = k.spatial(0.0, 0.0);
            assert!(peak > 0.0, "{} has zero peak", k.name());
            assert!(k.spatial(0.5, 0.5) <= peak);
            assert!(k.temporal(0.5) <= k.temporal(0.0));
        }
    }

    #[test]
    fn uniform_is_flat_on_support() {
        let k = Uniform;
        assert_eq!(k.spatial(0.0, 0.0), k.spatial(0.5, 0.5));
        assert_eq!(k.temporal(-0.9), k.temporal(0.3));
    }

    proptest! {
        #[test]
        fn all_nonnegative_zero_outside(
            u in -2.0..2.0f64, v in -2.0..2.0f64, w in -2.0..2.0f64
        ) {
            for k in all_kernels() {
                let val = k.eval(u, v, w);
                prop_assert!(val >= 0.0 && val.is_finite());
                if u * u + v * v >= 1.0 {
                    prop_assert_eq!(k.spatial(u, v), 0.0);
                }
                if w.abs() > 1.0 {
                    prop_assert_eq!(k.temporal(w), 0.0);
                }
            }
        }
    }
}
