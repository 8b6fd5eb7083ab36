//! Parallel reduction of replicated grids.
//!
//! `PB-SYM-DR` (§4.1 of the paper) gives each of the `P` threads a private
//! copy of the grid and sums the copies at the end. The summation is itself
//! pleasingly parallel: each thread reduces a disjoint chunk of the flat
//! arrays.

use crate::grid3::Grid3;
use crate::scalar::Scalar;
use rayon::prelude::*;

/// Sum `parts` element-wise into `target` (parallel over flat chunks).
///
/// # Panics
/// Panics if any part has different dimensions from `target`.
pub fn reduce_into<S: Scalar>(target: &mut Grid3<S>, parts: &[Grid3<S>]) {
    for p in parts {
        assert_eq!(p.dims(), target.dims(), "replica dims must match target");
    }
    let n = target.as_slice().len();
    let chunk = (n / (rayon::current_num_threads() * 8)).max(4096);
    let slices: Vec<&[S]> = parts.iter().map(|p| p.as_slice()).collect();
    target
        .as_mut_slice()
        .par_chunks_mut(chunk)
        .enumerate()
        .for_each(|(ci, out)| {
            let base = ci * chunk;
            for part in &slices {
                let src = &part[base..base + out.len()];
                for (o, &s) in out.iter_mut().zip(src) {
                    *o += s;
                }
            }
        });
}

/// Consume `parts` and return their element-wise sum, reusing the first
/// part's allocation.
///
/// # Panics
/// Panics if `parts` is empty or shapes differ.
pub fn reduce<S: Scalar>(mut parts: Vec<Grid3<S>>) -> Grid3<S> {
    assert!(!parts.is_empty(), "cannot reduce zero grids");
    let mut target = parts.swap_remove(0);
    reduce_into(&mut target, &parts);
    target
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::GridDims;

    #[test]
    fn reduce_sums_replicas() {
        let dims = GridDims::new(5, 5, 5);
        let mut parts: Vec<Grid3<f64>> = (0..4).map(|_| Grid3::zeros(dims)).collect();
        for (i, p) in parts.iter_mut().enumerate() {
            p.add(1, 2, 3, (i + 1) as f64);
        }
        let total = reduce(parts);
        assert_eq!(total.get(1, 2, 3), 1.0 + 2.0 + 3.0 + 4.0);
        assert_eq!(total.get(0, 0, 0), 0.0);
    }

    #[test]
    fn reduce_into_adds_on_top() {
        let dims = GridDims::new(3, 3, 3);
        let mut target: Grid3<f32> = Grid3::zeros(dims);
        target.add(0, 0, 0, 5.0);
        let mut part: Grid3<f32> = Grid3::zeros(dims);
        part.add(0, 0, 0, 2.0);
        reduce_into(&mut target, &[part]);
        assert_eq!(target.get(0, 0, 0), 7.0);
    }

    #[test]
    fn reduce_single_is_identity() {
        let dims = GridDims::new(2, 2, 2);
        let mut g: Grid3<f64> = Grid3::zeros(dims);
        g.add(1, 1, 1, 42.0);
        let r = reduce(vec![g.clone()]);
        assert_eq!(r, g);
    }

    #[test]
    #[should_panic(expected = "cannot reduce zero grids")]
    fn reduce_empty_panics() {
        let _: Grid3<f64> = reduce(vec![]);
    }

    #[test]
    fn reduce_large_parallel_path() {
        // Large enough to hit multiple parallel chunks.
        let dims = GridDims::new(64, 64, 8);
        let mut parts: Vec<Grid3<f32>> = (0..3).map(|_| Grid3::zeros(dims)).collect();
        for p in parts.iter_mut() {
            for v in p.as_mut_slice() {
                *v = 1.0;
            }
        }
        let total = reduce(parts);
        assert!(total.as_slice().iter().all(|&v| v == 3.0));
    }
}
