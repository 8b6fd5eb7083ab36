//! Seeded synthetic spatio-temporal point processes.
//!
//! The generators implement a Neyman–Scott (Poisson cluster) process with
//! optional background noise, heavy-tailed cluster weights, anisotropic
//! (elongated) clusters, and temporal seasonality — enough degrees of
//! freedom to imitate the clustering character of each of the paper's four
//! datasets (see `crate::datasets`). All generation is deterministic
//! given the seed.

use crate::point::Point;
use crate::pointset::PointSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use stkde_grid::Extent;

/// Temporal modulation of event intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Seasonality {
    /// Events uniform over the time extent.
    None,
    /// A single sinusoidal season: intensity `∝ 1 + amplitude·sin(2π·τ·cycles + phase)`
    /// where `τ ∈ [0, 1]` is normalized time. Sampled by rejection.
    Wave {
        /// Number of full cycles across the time extent.
        cycles: f64,
        /// Relative amplitude in `[0, 1)`.
        amplitude: f64,
        /// Phase offset in radians.
        phase: f64,
    },
}

/// Parameters of the synthetic cluster process.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of cluster centers (parents).
    pub clusters: usize,
    /// Std-dev of offspring spatial offsets, as a fraction of the smaller
    /// spatial extent axis.
    pub spatial_sigma: f64,
    /// Std-dev of offspring temporal offsets, as a fraction of the time
    /// extent.
    pub temporal_sigma: f64,
    /// Anisotropy of clusters: x-offsets are multiplied by this factor
    /// (>1 produces clusters elongated along x, imitating flyways/coasts).
    pub anisotropy: f64,
    /// Pareto-like exponent for cluster weights: weight of cluster `k` is
    /// `(k+1)^(-tail)`. `0` gives equal clusters; larger values concentrate
    /// most points in a few clusters (hotspots).
    pub weight_tail: f64,
    /// Fraction of points drawn uniformly over the extent instead of from
    /// clusters.
    pub background: f64,
    /// Temporal intensity modulation.
    pub seasonality: Seasonality,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self {
            clusters: 20,
            spatial_sigma: 0.03,
            temporal_sigma: 0.05,
            anisotropy: 1.0,
            weight_tail: 0.5,
            background: 0.1,
            seasonality: Seasonality::None,
        }
    }
}

impl ClusterSpec {
    /// Generate `n` events inside `extent` with this spec, deterministically
    /// from `seed`.
    pub fn generate(&self, n: usize, extent: Extent, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let (sx, sy, st) = (extent.size(0), extent.size(1), extent.size(2));
        let s_sigma = self.spatial_sigma * sx.min(sy);
        let t_sigma = self.temporal_sigma * st;

        // Parents: uniform positions; weights (k+1)^-tail, normalized CDF.
        let k = self.clusters.max(1);
        let parents: Vec<Point> = (0..k)
            .map(|_| {
                Point::new(
                    extent.min[0] + rng.random::<f64>() * sx,
                    extent.min[1] + rng.random::<f64>() * sy,
                    self.sample_time(&mut rng, extent),
                )
            })
            .collect();
        let weights: Vec<f64> = (0..k)
            .map(|i| ((i + 1) as f64).powf(-self.weight_tail))
            .collect();
        let total_w: f64 = weights.iter().sum();
        let cdf: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total_w;
                Some(*acc)
            })
            .collect();

        let offset_x = Normal::new(0.0, (s_sigma * self.anisotropy).max(1e-12)).unwrap();
        let offset_y = Normal::new(0.0, s_sigma.max(1e-12)).unwrap();
        let offset_t = Normal::new(0.0, t_sigma.max(1e-12)).unwrap();

        let clamp = |v: f64, lo: f64, hi: f64| v.clamp(lo, hi - (hi - lo) * 1e-9);

        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            let p = if rng.random::<f64>() < self.background {
                Point::new(
                    extent.min[0] + rng.random::<f64>() * sx,
                    extent.min[1] + rng.random::<f64>() * sy,
                    self.sample_time(&mut rng, extent),
                )
            } else {
                let u = rng.random::<f64>();
                let ci = cdf.partition_point(|&c| c < u).min(k - 1);
                let parent = parents[ci];
                Point::new(
                    parent.x + offset_x.sample(&mut rng),
                    parent.y + offset_y.sample(&mut rng),
                    parent.t + offset_t.sample(&mut rng),
                )
            };
            points.push(Point::new(
                clamp(p.x, extent.min[0], extent.max[0]),
                clamp(p.y, extent.min[1], extent.max[1]),
                clamp(p.t, extent.min[2], extent.max[2]),
            ));
        }
        PointSet::from_vec(points)
    }

    fn sample_time(&self, rng: &mut StdRng, extent: Extent) -> f64 {
        let st = extent.size(2);
        match self.seasonality {
            Seasonality::None => extent.min[2] + rng.random::<f64>() * st,
            Seasonality::Wave {
                cycles,
                amplitude,
                phase,
            } => {
                // Rejection sampling against the (bounded) intensity.
                let max_i = 1.0 + amplitude;
                loop {
                    let tau: f64 = rng.random();
                    let i =
                        1.0 + amplitude * (2.0 * std::f64::consts::PI * tau * cycles + phase).sin();
                    if rng.random::<f64>() * max_i <= i {
                        return extent.min[2] + tau * st;
                    }
                }
            }
        }
    }
}

/// Uniformly distributed events — the no-clustering baseline the tests
/// use (test support).
#[cfg(any(test, feature = "testkit"))]
pub fn uniform(n: usize, extent: Extent, seed: u64) -> PointSet {
    ClusterSpec {
        background: 1.0,
        ..Default::default()
    }
    .generate(n, extent, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extent() -> Extent {
        Extent::new([0.0, 0.0, 0.0], [100.0, 50.0, 30.0])
    }

    #[test]
    fn generates_requested_count_in_bounds() {
        let ps = ClusterSpec::default().generate(500, extent(), 42);
        assert_eq!(ps.len(), 500);
        for p in &ps {
            assert!(extent().contains(p.as_array()), "{p:?} out of extent");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = ClusterSpec::default().generate(100, extent(), 7);
        let b = ClusterSpec::default().generate(100, extent(), 7);
        let c = ClusterSpec::default().generate(100, extent(), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clustered_points_are_more_concentrated_than_uniform() {
        // Compare mean nearest-cluster-center distance proxies via variance
        // of coordinates: clustered data has lower within-cluster spread…
        // use a simpler robust proxy: count points in the densest 10x10 cell
        // of a 10x10 histogram; clustered ≫ uniform.
        let n = 2000;
        let clustered = ClusterSpec {
            clusters: 3,
            spatial_sigma: 0.01,
            background: 0.0,
            weight_tail: 0.0,
            ..Default::default()
        }
        .generate(n, extent(), 3);
        let uni = uniform(n, extent(), 3);
        let peak = |ps: &PointSet| {
            let mut h = [0usize; 100];
            for p in ps {
                let cx = ((p.x / 100.0) * 10.0) as usize;
                let cy = ((p.y / 50.0) * 10.0) as usize;
                h[cy.min(9) * 10 + cx.min(9)] += 1;
            }
            *h.iter().max().unwrap()
        };
        assert!(
            peak(&clustered) > 3 * peak(&uni),
            "clustered peak {} vs uniform peak {}",
            peak(&clustered),
            peak(&uni)
        );
    }

    #[test]
    fn seasonality_shifts_mass() {
        let spec = ClusterSpec {
            background: 1.0, // pure temporal test
            seasonality: Seasonality::Wave {
                cycles: 1.0,
                amplitude: 0.9,
                phase: 0.0,
            },
            ..Default::default()
        };
        let ps = spec.generate(4000, extent(), 11);
        // sin peaks in the first half for phase 0, cycles 1.
        let first_half = ps.iter().filter(|p| p.t < 15.0).count();
        assert!(
            first_half > ps.len() * 55 / 100,
            "first half has {first_half} of {}",
            ps.len()
        );
    }

    #[test]
    fn anisotropy_elongates_x() {
        let spec = ClusterSpec {
            clusters: 1,
            spatial_sigma: 0.02,
            anisotropy: 5.0,
            background: 0.0,
            weight_tail: 0.0,
            ..Default::default()
        };
        let ps = spec.generate(2000, extent(), 5);
        let mean_x: f64 = ps.iter().map(|p| p.x).sum::<f64>() / ps.len() as f64;
        let mean_y: f64 = ps.iter().map(|p| p.y).sum::<f64>() / ps.len() as f64;
        let var = |f: &dyn Fn(&Point) -> f64, m: f64| {
            ps.iter().map(|p| (f(p) - m).powi(2)).sum::<f64>() / ps.len() as f64
        };
        let vx = var(&|p| p.x, mean_x);
        let vy = var(&|p| p.y, mean_y);
        assert!(vx > 4.0 * vy, "vx {vx} should dwarf vy {vy}");
    }

    #[test]
    fn zero_clusters_treated_as_one() {
        let spec = ClusterSpec {
            clusters: 0,
            background: 0.0,
            ..Default::default()
        };
        let ps = spec.generate(10, extent(), 1);
        assert_eq!(ps.len(), 10);
    }
}
