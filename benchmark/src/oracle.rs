//! The independent answer key: a direct `f64` evaluation of the STKDE
//! definition at single voxels.
//!
//! ```text
//! f(x, y, t) = 1/(n·hs²·ht) · Σ_i ks((x−xi)/hs, (y−yi)/hs) · kt((t−ti)/ht)
//! ks(u, v) = 2/π · (1 − u² − v²)  for u² + v² < 1
//! kt(w)    = 3/4 · (1 − w²)       for |w| ≤ 1
//! ```
//!
//! This is the voxel-based (VB) definition written out from the paper; it
//! calls no kernel, scatter or grid code of the program under test — only
//! `Domain::voxel_center`, the shared definition of where a voxel is.

use crate::rng::Rng;
use stkde_data::Point;
use stkde_grid::{Bandwidth, Domain};

pub type Voxel = (usize, usize, usize);

/// The exact density at one voxel center for the given live events.
pub fn density_at(domain: &Domain, bw: Bandwidth, points: &[Point], voxel: Voxel) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let [cx, cy, ct] = domain.voxel_center(voxel.0, voxel.1, voxel.2);
    let mut sum = 0.0;
    for p in points {
        let w = (ct - p.t) / bw.ht;
        if w.abs() > 1.0 {
            continue;
        }
        let (u, v) = ((cx - p.x) / bw.hs, (cy - p.y) / bw.hs);
        let r2 = u * u + v * v;
        if r2 < 1.0 {
            sum += std::f64::consts::FRAC_2_PI * (1.0 - r2) * 0.75 * (1.0 - w * w);
        }
    }
    sum / (points.len() as f64 * bw.hs * bw.hs * bw.ht)
}

/// `count` seeded check voxels: three in four sit inside the cylinder of
/// a random event (where the density is non-zero and every event nearby
/// matters), the rest anywhere in the grid (where it is mostly zero and a
/// stray write shows).
pub fn pick_voxels(
    rng: &mut Rng,
    domain: &Domain,
    bw: Bandwidth,
    points: &[Point],
    count: usize,
) -> Vec<Voxel> {
    let dims = domain.dims();
    (0..count)
        .map(|i| {
            if points.is_empty() || i % 4 == 3 {
                return (rng.below(dims.gx), rng.below(dims.gy), rng.below(dims.gt));
            }
            let p = points[rng.below(points.len())];
            let near = [
                p.x + rng.range(-0.7, 0.7) * bw.hs,
                p.y + rng.range(-0.7, 0.7) * bw.hs,
                p.t + rng.range(-1.0, 1.0) * bw.ht,
            ];
            domain.voxel_of(near)
        })
        .collect()
}

/// An answer key: voxels and their exact densities.
#[derive(Debug, Clone)]
pub struct AnswerKey {
    pub voxels: Vec<Voxel>,
    pub exact: Vec<f64>,
    /// Largest exact density in the key — the scale tolerances refer to.
    pub peak: f64,
}

impl AnswerKey {
    pub fn build(
        rng: &mut Rng,
        domain: &Domain,
        bw: Bandwidth,
        points: &[Point],
        count: usize,
    ) -> Self {
        let mut voxels = pick_voxels(rng, domain, bw, points, count);
        // Grid memory order (T outermost), so checking a cube walks it once.
        voxels.sort_by_key(|&(x, y, t)| (t, y, x));
        let exact: Vec<f64> = voxels
            .iter()
            .map(|&v| density_at(domain, bw, points, v))
            .collect();
        let peak = exact.iter().copied().fold(0.0, f64::max);
        Self {
            voxels,
            exact,
            peak,
        }
    }

    /// How many of `got` (one per key voxel) miss the exact value by more
    /// than `abs_tol + rel_tol · peak`.
    pub fn mismatches(&self, got: impl Iterator<Item = f64>, abs_tol: f64, rel_tol: f64) -> usize {
        let tol = abs_tol + rel_tol * self.peak;
        self.exact
            .iter()
            .zip(got)
            .filter(|(want, got)| {
                // A NaN (an answer that never came) is a mismatch too.
                let miss = (*want - got).abs();
                miss.is_nan() || miss > tol
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_core::{Algorithm, Stkde};
    use stkde_data::PointSet;
    use stkde_grid::GridDims;

    #[test]
    fn single_event_peak_matches_the_formula() {
        let domain = Domain::from_dims(GridDims::new(9, 9, 5));
        let bw = Bandwidth::new(3.0, 2.0);
        // An event exactly on a voxel center: u = v = w = 0 there.
        let p = Point::new(4.5, 4.5, 2.5);
        let d = density_at(&domain, bw, &[p], (4, 4, 2));
        let want = std::f64::consts::FRAC_2_PI * 0.75 / (1.0 * 9.0 * 2.0);
        assert!((d - want).abs() < 1e-15, "{d} vs {want}");
        // Outside the cylinder, and with no events, the density is zero.
        assert_eq!(density_at(&domain, bw, &[p], (0, 4, 2)), 0.0);
        assert_eq!(density_at(&domain, bw, &[], (4, 4, 2)), 0.0);
    }

    #[test]
    fn agrees_with_the_program_on_a_small_instance() {
        let domain = Domain::from_dims(GridDims::new(24, 20, 12));
        let bw = Bandwidth::new(4.0, 3.0);
        let mut rng = Rng::new(3);
        let points: Vec<Point> = (0..60)
            .map(|_| {
                Point::new(
                    rng.range(0.0, 24.0),
                    rng.range(0.0, 20.0),
                    rng.range(0.0, 12.0),
                )
            })
            .collect();
        let key = AnswerKey::build(&mut rng, &domain, bw, &points, 400);
        assert!(key.peak > 0.0);
        let result = Stkde::new(domain, bw)
            .algorithm(Algorithm::PbSym)
            .compute::<f64>(&PointSet::from_vec(points))
            .unwrap();
        let got = key.voxels.iter().map(|&(x, y, t)| result.grid.get(x, y, t));
        assert_eq!(key.mismatches(got, 0.0, 1e-12), 0);
        // A wrong cube is caught.
        let zeros = key.voxels.iter().map(|_| 0.0);
        assert!(key.mismatches(zeros, 0.0, 1e-12) > 100);
    }
}
