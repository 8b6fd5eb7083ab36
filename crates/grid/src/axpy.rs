//! The row-level multiply-add primitive of the point-based scatter engine.
//!
//! `PB-SYM`'s inner loop is `stkde[X][Y][T] += Ks[X][Y] · Kt[T]` over a
//! stride-1 X-row (paper Algorithm 3). When both operands already live in
//! the grid's native scalar `S`, the loop is a pure axpy and LLVM
//! autovectorizes the monomorphized body — which is why the scatter
//! engine converts its invariants to `S` *once per point* and hands rows
//! to [`axpy_row`] instead of converting `f64 → S` inside the loop (a
//! conversion per element blocks vectorization). The build targets
//! baseline x86-64, so the vectors are SSE2's 4 `f32` lanes; the 8 lanes
//! of AVX2 are used only where a caller is compiled with AVX2 enabled,
//! as the scatter engine's run-time-selected copy of its row walker is
//! (`stkde_core::kernel_apply`).

use crate::scalar::Scalar;

/// `out[i] += ks[i] * kt` over a stride-1 row.
///
/// Unrolled by 8 so the monomorphized `f32` body maps onto one AVX2
/// vector op per chunk where the caller enables AVX2 (two SSE2 ops
/// otherwise); the scalar tail handles the remainder.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy_row<S: Scalar>(out: &mut [S], ks: &[S], kt: S) {
    assert_eq!(out.len(), ks.len(), "axpy_row slice lengths must match");
    let mut o = out.chunks_exact_mut(8);
    let mut k = ks.chunks_exact(8);
    for (o8, k8) in o.by_ref().zip(k.by_ref()) {
        o8[0] += k8[0] * kt;
        o8[1] += k8[1] * kt;
        o8[2] += k8[2] * kt;
        o8[3] += k8[3] * kt;
        o8[4] += k8[4] * kt;
        o8[5] += k8[5] * kt;
        o8[6] += k8[6] * kt;
        o8[7] += k8[7] * kt;
    }
    // Disk chords are short (≈2·Hs), so the tail matters: take one more
    // 4-wide step before falling back to scalars.
    let (ro, rk) = (o.into_remainder(), k.remainder());
    let mut o4 = ro.chunks_exact_mut(4);
    let mut k4 = rk.chunks_exact(4);
    for (o, k) in o4.by_ref().zip(k4.by_ref()) {
        o[0] += k[0] * kt;
        o[1] += k[1] * kt;
        o[2] += k[2] * kt;
        o[3] += k[3] * kt;
    }
    for (o1, &k1) in o4.into_remainder().iter_mut().zip(k4.remainder()) {
        *o1 += k1 * kt;
    }
}

/// `out[i] += n` quanta, `n·q` being `ks[i] * kt` rounded to the nearest
/// multiple of a power-of-two quantum `q`, with `m = 1.5·2⁵²·q`. Adding
/// `m` rounds the product onto `q` (ties to even, so a negated product
/// rounds to the negated count; needs `|product| < 2⁵¹·q`), and the sum's
/// bits minus `m`'s bits count the quanta. Integer sums are exact in any
/// order, so subtracting a product restores the row bit for bit.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy_row_quanta(out: &mut [i64], ks: &[f64], kt: f64, m: f64) {
    assert_eq!(out.len(), ks.len(), "axpy_row slice lengths must match");
    let base = m.to_bits() as i64;
    for (o, &k) in out.iter_mut().zip(ks) {
        *o += (k * kt + m).to_bits() as i64 - base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference<S: Scalar>(out: &mut [S], ks: &[S], kt: S) {
        for (o, &k) in out.iter_mut().zip(ks) {
            *o += k * kt;
        }
    }

    #[test]
    fn matches_reference_at_all_lengths() {
        for n in 0..40usize {
            let ks: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 - 1.0).collect();
            let mut a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut b = a.clone();
            axpy_row(&mut a, &ks, 0.75);
            reference(&mut b, &ks, 0.75);
            assert_eq!(a, b, "length {n}");
        }
    }

    #[test]
    fn f32_matches_reference_bitwise() {
        let ks: Vec<f32> = (0..29).map(|i| (i as f32).sin()).collect();
        let mut a: Vec<f32> = (0..29).map(|i| (i as f32).cos()).collect();
        let mut b = a.clone();
        axpy_row(&mut a, &ks, 1.25f32);
        reference(&mut b, &ks, 1.25f32);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_kt_adds_exact_zero() {
        let ks = vec![3.0f64; 11];
        let mut out = vec![1.5f64; 11];
        axpy_row(&mut out, &ks, 0.0);
        assert!(out.iter().all(|&v| v == 1.5));
    }

    /// `q = 2⁻⁴⁰` and its rounding constant `1.5·2⁵²·q`.
    const Q: f64 = 1.0 / 1_099_511_627_776.0;
    const M: f64 = 1.5 * 4_503_599_627_370_496.0 * Q;

    /// The float form of the same rounding: `out[i] += (ks[i]·kt + m) − m`.
    fn rounded_f64(out: &mut [f64], ks: &[f64], kt: f64, m: f64) {
        for (o, &k) in out.iter_mut().zip(ks) {
            *o += (k * kt + m) - m;
        }
    }

    #[test]
    fn quanta_are_the_rounded_products() {
        let ks: Vec<f64> = (0..23).map(|i| (i as f64 * 0.37).sin() * 0.3).collect();
        for kt in [0.61, -0.61] {
            let mut n = vec![0i64; ks.len()];
            let mut f = vec![0.0f64; ks.len()];
            axpy_row_quanta(&mut n, &ks, kt, M);
            rounded_f64(&mut f, &ks, kt, M);
            for ((&n, &f), &k) in n.iter().zip(&f).zip(&ks) {
                assert_eq!((n as f64 * Q).to_bits(), f.to_bits());
                assert!((n as f64 * Q - k * kt).abs() <= Q / 2.0);
            }
        }
    }

    #[test]
    fn quanta_subtraction_cancels_bit_for_bit() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|j| (0..19).map(|i| ((i * 7 + j) as f64).cos() * 0.2).collect())
            .collect();
        let kt = |j: usize| 0.5 + j as f64 * 0.01;
        let base: Vec<i64> = (0..19).map(|i| i * (1 << 37)).collect();
        let mut out = base.clone();
        for (j, ks) in rows.iter().enumerate() {
            axpy_row_quanta(&mut out, ks, kt(j), M);
        }
        // Subtract in another order: odd rows backwards, then even rows.
        let odd = (0..rows.len()).rev().filter(|j| j % 2 == 1);
        for j in odd.chain((0..rows.len()).filter(|j| j % 2 == 0)) {
            axpy_row_quanta(&mut out, &rows[j], -kt(j), M);
        }
        assert_eq!(out, base);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn length_mismatch_panics() {
        let ks = vec![1.0f64; 4];
        let mut out = vec![0.0f64; 5];
        axpy_row(&mut out, &ks, 1.0);
    }
}
