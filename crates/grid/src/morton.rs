//! 3-D Morton (Z-order) indexing for the sparse brick hierarchy.
//!
//! A Morton code interleaves the bits of three coordinates —
//! `x` lands on bits `3i`, `y` on `3i + 1`, `t` on `3i + 2` — so that
//! coordinates close in 3-D space map to table indices close in memory.
//! [`super::brick`] uses the 3-bit-per-axis case to lay out the 8×8×8
//! bricks of a chunk: sibling bricks share cache lines, and a cylinder
//! walking `+x`/`+y` touches table slots in a Z-curve instead of striding
//! `nbx·nby` entries apart the way a row-major block table does.
//!
//! [`interleave3_3bit`] spreads its 3-bit coordinates with a handful of
//! shift/mask ALU ops, keeping the voxel read path free of table loads.
//! It is verified against a naive bit-by-bit reference in the tests below.

/// Spread the low 3 bits of `v` so bit `i` moves to bit `3i`, in five
/// ALU ops so the brick addressing hot path stays free of table loads.
#[inline(always)]
const fn spread3_3bit(v: usize) -> usize {
    (v & 1) | ((v & 2) << 2) | ((v & 4) << 4)
}

/// Interleave three 3-bit coordinates (`< 8`) into a 9-bit Morton index —
/// the within-chunk brick addressing hot path.
///
/// Coordinates are masked to their low 3 bits, so callers may pass global
/// brick coordinates directly.
#[inline(always)]
pub(crate) const fn interleave3_3bit(x: usize, y: usize, t: usize) -> usize {
    spread3_3bit(x) | (spread3_3bit(y) << 1) | (spread3_3bit(t) << 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive bit-by-bit reference encoder.
    fn encode3_naive(x: usize, y: usize, t: usize) -> usize {
        let mut m = 0;
        for i in 0..3 {
            m |= ((x >> i) & 1) << (3 * i);
            m |= ((y >> i) & 1) << (3 * i + 1);
            m |= ((t >> i) & 1) << (3 * i + 2);
        }
        m
    }

    #[test]
    fn fast_path_matches_naive_reference_on_all_512_cells() {
        for x in 0..8 {
            for y in 0..8 {
                for t in 0..8 {
                    assert_eq!(interleave3_3bit(x, y, t), encode3_naive(x, y, t));
                }
            }
        }
    }

    #[test]
    fn fast_path_masks_global_coordinates() {
        assert_eq!(
            interleave3_3bit(8 + 3, 16 + 5, 24 + 7),
            interleave3_3bit(3, 5, 7)
        );
    }

    #[test]
    fn morton_is_a_bijection_within_a_chunk() {
        let mut seen = [false; 512];
        for x in 0..8 {
            for y in 0..8 {
                for t in 0..8 {
                    let m = interleave3_3bit(x, y, t);
                    assert!(m < 512);
                    assert!(!seen[m], "collision at {m}");
                    seen[m] = true;
                }
            }
        }
    }
}
