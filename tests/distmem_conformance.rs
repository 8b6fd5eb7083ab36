//! Conformance of the distributed STKDE extension against sequential
//! PB-SYM.
//!
//! Every seeded config runs with both exchange strategies and three
//! kernels at 1, 2 and 4 ranks, and the assembled density must agree
//! with sequential PB-SYM within 1e-12 (f64). The distributed-KDE
//! literature's failure mode is exactly here: merge and exchange steps
//! that are *almost* right pass eyeball tests and diverge silently; this
//! suite makes the divergence structural to catch.

use stkde::core::distmem::{self, DistStrategy};
use stkde::core::testkit;
use stkde::core::Problem;
use stkde_data::{synth, Point};
use stkde_grid::{Bandwidth, Domain, GridDims};
use stkde_kernels::{Epanechnikov, Quartic, SpaceTimeKernel, TruncatedGaussian};

const TOLERANCE: f64 = 1e-12;
const STRATEGIES: [DistStrategy; 2] = [DistStrategy::PointExchange, DistStrategy::HaloExchange];

/// One seeded problem: grid, bandwidths (in voxels) and a clustered
/// point population.
struct Config {
    dims: (usize, usize, usize),
    hs: f64,
    ht: f64,
    n: usize,
    seed: u64,
}

impl Config {
    fn problem(&self) -> Problem {
        Problem::new(self.domain(), Bandwidth::new(self.hs, self.ht), self.n)
    }

    fn domain(&self) -> Domain {
        let (gx, gy, gt) = self.dims;
        Domain::from_dims(GridDims::new(gx, gy, gt))
    }

    fn points(&self) -> Vec<Point> {
        synth::ClusterSpec {
            clusters: 4,
            spatial_sigma: 0.08,
            temporal_sigma: 0.15,
            ..Default::default()
        }
        .generate(self.n, self.domain().extent(), self.seed)
        .into_vec()
    }
}

fn configs() -> [Config; 3] {
    [
        Config {
            dims: (20, 18, 24),
            hs: 3.0,
            ht: 2.0,
            n: 60,
            seed: 21,
        },
        // Wide temporal bandwidth: halos reach past immediate neighbors.
        Config {
            dims: (16, 16, 20),
            hs: 2.5,
            ht: 5.0,
            n: 40,
            seed: 7,
        },
        Config {
            dims: (24, 12, 16),
            hs: 3.5,
            ht: 1.5,
            n: 80,
            seed: 99,
        },
    ]
}

/// Run `cfg` with `kernel` on both strategies at 1, 2 and 4 ranks and
/// compare each grid with sequential PB-SYM.
fn check_kernel<K: SpaceTimeKernel + Sync>(cfg: &Config, kernel: &K, name: &str) {
    let problem = cfg.problem();
    let points = cfg.points();
    let (reference, _) = testkit::pb_sym::<f64, _>(&problem, kernel, &points);
    for strategy in STRATEGIES {
        for ranks in [1usize, 2, 4] {
            let r = distmem::run::<f64, _>(&problem, kernel, &points, ranks, strategy)
                .expect("distributed run succeeds");
            let diff = reference.max_rel_diff(&r.grid, 1e-15);
            assert!(
                diff < TOLERANCE,
                "{strategy} ranks={ranks} kernel={name} dims={:?}: deviates by {diff:e}",
                cfg.dims
            );
        }
    }
}

#[test]
fn all_backends_agree_on_every_config() {
    for cfg in configs() {
        check_kernel(&cfg, &Epanechnikov, "epanechnikov");
        check_kernel(&cfg, &TruncatedGaussian::default(), "truncated-gaussian");
        check_kernel(&cfg, &Quartic, "quartic");
    }
}

#[test]
fn single_rank_exchanges_nothing_and_matches_sequential() {
    let cfg = &configs()[0];
    let problem = cfg.problem();
    let points = cfg.points();
    let (reference, _) = testkit::pb_sym::<f64, _>(&problem, &Epanechnikov, &points);
    for strategy in STRATEGIES {
        let r = distmem::run::<f64, _>(&problem, &Epanechnikov, &points, 1, strategy).unwrap();
        let diff = reference.max_rel_diff(&r.grid, 1e-15);
        assert!(
            diff < TOLERANCE,
            "{strategy}: one-rank run deviates by {diff:e}"
        );
        // One rank exchanges nothing.
        assert_eq!(r.stats[0].msgs_sent, 0, "{strategy}");
        assert_eq!(r.stats[0].bytes_sent, 0, "{strategy}");
        assert_eq!(r.total_bytes(), 0, "{strategy}");
    }
}
