//! Grid scalar abstraction.
//!
//! The paper's reference implementation stores densities as 4-byte floats
//! (the instance sizes in Table 2 are `Gx·Gy·Gt · 4` bytes). We keep the
//! algorithms generic over the scalar so benchmarks can use `f32` for paper
//! parity while validation tests use `f64` for tight tolerances. The
//! window cubes that evict count integer quanta in `i64` voxels.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A scalar usable as a voxel value.
///
/// Implemented for `f32` and `f64`, whose kernel arithmetic is performed
/// in `f64` and converted on accumulation via [`Scalar::from_f64`], and
/// for `i64`, the quanta count of the window cubes.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialOrd
    + Default
    + Debug
    + Display
    + Add<Output = Self>
    + AddAssign
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Lossy conversion from `f64`.
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;

    /// Absolute value.
    fn abs(self) -> Self;

    /// `true` if the value is finite (not NaN or ±∞).
    fn is_finite(self) -> bool;
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Scalar for i64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as i64
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn abs(self) -> Self {
        i64::abs(self)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<S: Scalar>(v: f64) -> f64 {
        S::from_f64(v).to_f64()
    }

    #[test]
    fn f64_roundtrip_is_exact() {
        for &v in &[0.0, 1.0, -3.5, 1e-300, 6.02e23] {
            assert_eq!(roundtrip::<f64>(v), v);
        }
    }

    #[test]
    fn f32_roundtrip_is_close() {
        for &v in &[0.0, 1.0, -3.5, 0.1] {
            assert!((roundtrip::<f32>(v) - v).abs() <= 1e-7 * v.abs().max(1.0));
        }
    }

    #[test]
    fn zero_and_one_constants() {
        assert_eq!(<f32 as Scalar>::ZERO, 0.0f32);
        assert_eq!(<f64 as Scalar>::ONE, 1.0f64);
    }

    #[test]
    fn abs_and_finite() {
        assert_eq!(Scalar::abs(-2.0f32), 2.0);
        assert!(Scalar::is_finite(1.0f64));
        assert!(!Scalar::is_finite(f64::NAN));
        assert!(!Scalar::is_finite(f32::INFINITY));
    }
}
