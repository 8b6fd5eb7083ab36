//! The sequential STKDE algorithms (paper §2–3).
//!
//! All take a [`Problem`](crate::Problem), a kernel, and a point slice, and
//! return the density grid plus a phase-timing breakdown. Each module's
//! `run` matches the pseudocode of the corresponding paper algorithm.

pub(crate) mod pb;
pub(crate) mod pb_bar;
pub(crate) mod pb_disk;
pub mod pb_sym;
pub(crate) mod vb;
pub(crate) mod vb_dec;

#[cfg(test)]
mod equivalence_tests {
    //! The central correctness invariant of the repository: every algorithm
    //! computes the same density field as the gold-standard `VB`.

    use crate::problem::Problem;
    use proptest::prelude::*;
    use stkde_data::{synth, Point};
    use stkde_grid::{Bandwidth, Domain, Grid3, GridDims};
    use stkde_kernels::{Epanechnikov, PaperLiteral, TruncatedGaussian};

    fn random_problem(seed: u64, n: usize) -> (Problem, Vec<Point>) {
        let dims = GridDims::new(
            8 + (seed % 13) as usize,
            8 + (seed % 7) as usize,
            4 + (seed % 5) as usize,
        );
        let domain = Domain::from_dims(dims);
        let bw = Bandwidth::new(1.0 + (seed % 4) as f64, 1.0 + (seed % 3) as f64);
        let points = synth::uniform(n, domain.extent(), seed).into_vec();
        (Problem::new(domain, bw, n), points)
    }

    fn all_grids(problem: &Problem, points: &[Point]) -> Vec<(&'static str, Grid3<f64>)> {
        let k = Epanechnikov;
        vec![
            ("VB", super::vb::run(problem, &k, points).0),
            ("VB-DEC", super::vb_dec::run(problem, &k, points).0),
            ("PB", super::pb::run(problem, &k, points).0),
            ("PB-DISK", super::pb_disk::run(problem, &k, points).0),
            ("PB-BAR", super::pb_bar::run(problem, &k, points).0),
            ("PB-SYM", super::pb_sym::run(problem, &k, points).0),
        ]
    }

    #[test]
    fn all_sequential_algorithms_agree_small() {
        let (problem, points) = random_problem(3, 25);
        let grids = all_grids(&problem, &points);
        let (_, vb) = &grids[0];
        for (name, g) in &grids[1..] {
            let diff = vb.max_rel_diff(g, 1e-14);
            assert!(diff < 1e-9, "{name} differs from VB by {diff}");
        }
    }

    #[test]
    fn agreement_with_other_kernels() {
        let (problem, points) = random_problem(11, 12);
        for (kname, grid_pair) in [
            ("paper-literal", {
                let k = PaperLiteral;
                (
                    super::vb::run::<f64, _>(&problem, &k, &points).0,
                    super::pb_sym::run::<f64, _>(&problem, &k, &points).0,
                )
            }),
            ("gaussian", {
                let k = TruncatedGaussian::default();
                (
                    super::vb::run::<f64, _>(&problem, &k, &points).0,
                    super::pb_sym::run::<f64, _>(&problem, &k, &points).0,
                )
            }),
        ] {
            let diff = grid_pair.0.max_rel_diff(&grid_pair.1, 1e-14);
            assert!(diff < 1e-9, "{kname}: PB-SYM differs from VB by {diff}");
        }
    }

    #[test]
    fn empty_points_all_zero() {
        let (problem, _) = random_problem(5, 0);
        for (name, g) in all_grids(&problem, &[]) {
            assert!(
                g.as_slice().iter().all(|&v| v == 0.0),
                "{name} non-zero for empty input"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_equivalence(seed in 0u64..1000, n in 1usize..40) {
            let (problem, points) = random_problem(seed, n);
            let grids = all_grids(&problem, &points);
            let (_, vb) = &grids[0];
            for (name, g) in &grids[1..] {
                let diff = vb.max_rel_diff(g, 1e-13);
                prop_assert!(diff < 1e-8, "{} differs from VB by {}", name, diff);
            }
        }
    }
}
