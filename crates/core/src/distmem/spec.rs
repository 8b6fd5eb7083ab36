//! Environment-serializable problem specs for spawned rank processes.
//!
//! A multi-process rank cannot receive a closure: the parent and the
//! rank executable rendezvous on a *description* of the computation
//! instead. [`DistSpec`] is that description — grid dimensions,
//! bandwidths, a deterministic synthetic point population (seeded
//! cluster process), kernel, strategy. It serializes into a
//! single environment variable ([`SPEC_ENV`]) the parent sets on every
//! rank, each rank regenerates the identical points from the seed, and
//! any party can independently compute the sequential PB-SYM reference
//! for conformance checks.

use super::{rank_main, DistMsg, DistStrategy, RankOutput};
use crate::algorithms::pb_sym;
use crate::problem::Problem;
use stkde_comm::{CommError, WorldComm};
use stkde_data::{synth, Point};
use stkde_grid::{Bandwidth, Domain, Grid3, GridDims};
use stkde_kernels::{Epanechnikov, Quartic, TruncatedGaussian};

/// The environment variable carrying a serialized [`DistSpec`].
pub const SPEC_ENV: &str = "STKDE_DIST_SPEC";

/// Kernel selection for a spawned rank (kernels are zero-config values,
/// so a name is a complete description).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// The paper's default Epanechnikov product kernel.
    Epanechnikov,
    /// Truncated Gaussian with the default σ.
    TruncatedGaussian,
    /// Quartic (biweight) kernel.
    Quartic,
}

impl KernelChoice {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelChoice::Epanechnikov => "epanechnikov",
            KernelChoice::TruncatedGaussian => "truncated-gaussian",
            KernelChoice::Quartic => "quartic",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "epanechnikov" => Ok(KernelChoice::Epanechnikov),
            "truncated-gaussian" => Ok(KernelChoice::TruncatedGaussian),
            "quartic" => Ok(KernelChoice::Quartic),
            other => Err(format!("unknown kernel {other:?}")),
        }
    }
}

/// A fully deterministic distributed STKDE problem: every rank (and the
/// conformance harness) reconstructs identical inputs from this value.
#[derive(Debug, Clone, PartialEq)]
pub struct DistSpec {
    /// Grid extent along X.
    pub gx: usize,
    /// Grid extent along Y.
    pub gy: usize,
    /// Grid extent along T.
    pub gt: usize,
    /// Spatial bandwidth in world units.
    pub hs: f64,
    /// Temporal bandwidth in world units.
    pub ht: f64,
    /// Number of synthetic events.
    pub n: usize,
    /// Seed for the synthetic cluster process.
    pub seed: u64,
    /// Kernel to apply.
    pub kernel: KernelChoice,
    /// Exchange strategy.
    pub strategy: DistStrategy,
}

impl DistSpec {
    /// The discretized domain.
    pub fn domain(&self) -> Domain {
        Domain::from_dims(GridDims::new(self.gx, self.gy, self.gt))
    }

    /// The problem description (domain + bandwidths + normalization).
    pub fn problem(&self) -> Problem {
        Problem::new(self.domain(), Bandwidth::new(self.hs, self.ht), self.n)
    }

    /// The seeded synthetic events — identical on every rank and in the
    /// harness (clustered, like the distmem test instances).
    pub fn points(&self) -> Vec<Point> {
        synth::ClusterSpec {
            clusters: 4,
            spatial_sigma: 0.08,
            temporal_sigma: 0.15,
            ..Default::default()
        }
        .generate(self.n, self.domain().extent(), self.seed)
        .into_vec()
    }

    /// The sequential PB-SYM reference density for this spec.
    pub fn sequential_reference(&self) -> Grid3<f64> {
        let problem = self.problem();
        let points = self.points();
        match self.kernel {
            KernelChoice::Epanechnikov => pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points).0,
            KernelChoice::TruncatedGaussian => {
                pb_sym::run::<f64, _>(&problem, &TruncatedGaussian::default(), &points).0
            }
            KernelChoice::Quartic => pb_sym::run::<f64, _>(&problem, &Quartic, &points).0,
        }
    }

    /// Serialize for the rank environment.
    pub fn to_env_value(&self) -> String {
        format!(
            "g={}x{}x{};hs={};ht={};n={};seed={};kernel={};strategy={}",
            self.gx,
            self.gy,
            self.gt,
            self.hs,
            self.ht,
            self.n,
            self.seed,
            self.kernel.name(),
            match self.strategy {
                DistStrategy::PointExchange => "point",
                DistStrategy::HaloExchange => "halo",
            },
        )
    }

    /// Parse the serialized form.
    ///
    /// # Errors
    /// A description of the first malformed or missing field.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut fields = std::collections::BTreeMap::new();
        for pair in s.split(';') {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("malformed spec field {pair:?}"))?;
            fields.insert(k, v);
        }
        let get = |k: &str| {
            fields
                .get(k)
                .copied()
                .ok_or_else(|| format!("spec missing field {k:?}"))
        };
        let dims: Vec<&str> = get("g")?.split('x').collect();
        let [gx, gy, gt] = dims.as_slice() else {
            return Err(format!("grid must be WxHxT, got {:?}", get("g")?));
        };
        let num = |what: &str, v: &str| -> Result<usize, String> {
            v.parse().map_err(|_| format!("bad {what}: {v:?}"))
        };
        let float = |what: &str, v: &str| -> Result<f64, String> {
            v.parse().map_err(|_| format!("bad {what}: {v:?}"))
        };
        Ok(DistSpec {
            gx: num("gx", gx)?,
            gy: num("gy", gy)?,
            gt: num("gt", gt)?,
            hs: float("hs", get("hs")?)?,
            ht: float("ht", get("ht")?)?,
            n: num("n", get("n")?)?,
            seed: {
                let raw = get("seed")?;
                raw.parse().map_err(|_| format!("bad seed: {raw:?}"))?
            },
            kernel: KernelChoice::parse(get("kernel")?)?,
            strategy: match get("strategy")? {
                "point" => DistStrategy::PointExchange,
                "halo" => DistStrategy::HaloExchange,
                other => return Err(format!("unknown strategy {other:?}")),
            },
        })
    }

    /// Read the spec a parent placed in this process's environment.
    ///
    /// # Errors
    /// Missing variable or any parse failure.
    pub fn from_env() -> Result<Self, String> {
        let raw = std::env::var(SPEC_ENV).map_err(|_| format!("{SPEC_ENV} not set"))?;
        Self::parse(&raw)
    }

    /// Run one rank of this spec's computation over any backend and
    /// return the rank's serialized [`RankReport`].
    ///
    /// Every rank regenerates the full point population and takes the
    /// round-robin share `rank, rank+P, rank+2P, …` — the same
    /// distributed-ingest model as [`super::run`].
    ///
    /// # Errors
    /// Any communication failure.
    pub fn run_rank<C: WorldComm<DistMsg<f64>>>(&self, comm: &mut C) -> Result<Vec<u8>, CommError> {
        let problem = self.problem();
        let local: Vec<Point> = self
            .points()
            .into_iter()
            .skip(comm.rank())
            .step_by(comm.size())
            .collect();
        let out = match self.kernel {
            KernelChoice::Epanechnikov => {
                rank_main::<f64, _, _>(comm, &problem, &Epanechnikov, local, self.strategy)
            }
            KernelChoice::TruncatedGaussian => rank_main::<f64, _, _>(
                comm,
                &problem,
                &TruncatedGaussian::default(),
                local,
                self.strategy,
            ),
            KernelChoice::Quartic => {
                rank_main::<f64, _, _>(comm, &problem, &Quartic, local, self.strategy)
            }
        }?;
        Ok(RankReport::from_output(&out).encode())
    }

    /// Decode a rank's serialized report ([`RankReport::encode`]),
    /// validating the grid shape against this spec.
    ///
    /// # Errors
    /// Malformed blob or a grid of the wrong volume.
    pub fn decode_report(&self, bytes: &[u8]) -> Result<RankReport, String> {
        let report = RankReport::decode(bytes)?;
        if let Some(grid) = &report.grid {
            let expect = self.gx * self.gy * self.gt;
            if grid.len() != expect {
                return Err(format!(
                    "rank grid has {} voxels, spec wants {expect}",
                    grid.len()
                ));
            }
        }
        Ok(report)
    }

    /// Assemble rank 0's reported voxels into a grid.
    ///
    /// # Errors
    /// As [`Self::decode_report`], or a report without a grid.
    pub fn grid_from_report(&self, report: &RankReport) -> Result<Grid3<f64>, String> {
        let data = report
            .grid
            .as_ref()
            .ok_or("report carries no grid (not rank 0?)")?;
        Ok(Grid3::from_vec(
            GridDims::new(self.gx, self.gy, self.gt),
            data.clone(),
        ))
    }
}

/// What one rank reports to the launcher: its share of work, its compute
/// time, and (rank 0 only) the assembled density grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RankReport {
    /// Points this rank rasterized.
    pub processed: usize,
    /// Seconds in the kernel-compute phase.
    pub compute_secs: f64,
    /// The assembled global grid (rank 0 only).
    pub grid: Option<Vec<f64>>,
}

impl RankReport {
    fn from_output(out: &RankOutput<f64>) -> Self {
        RankReport {
            processed: out.processed,
            compute_secs: out.compute_secs,
            grid: out.grid.as_ref().map(|g| g.as_slice().to_vec()),
        }
    }

    /// Serialize: `processed:u64 ‖ compute_secs:f64 ‖ has_grid:u8 ‖
    /// voxels:f64…`, all little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17 + self.grid.as_ref().map_or(0, |g| g.len() * 8));
        out.extend_from_slice(&(self.processed as u64).to_le_bytes());
        out.extend_from_slice(&self.compute_secs.to_le_bytes());
        match &self.grid {
            None => out.push(0),
            Some(g) => {
                out.push(1);
                for v in g {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Inverse of [`encode`](Self::encode).
    ///
    /// # Errors
    /// Malformed or truncated blob.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 17 {
            return Err(format!("rank report of {} bytes is truncated", bytes.len()));
        }
        let processed = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        let compute_secs = f64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let grid = match bytes[16] {
            0 if bytes.len() == 17 => None,
            1 if (bytes.len() - 17).is_multiple_of(8) => Some(
                bytes[17..]
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect(),
            ),
            _ => return Err("malformed rank report body".to_string()),
        };
        Ok(RankReport {
            processed,
            compute_secs,
            grid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkde_comm::World;

    fn spec() -> DistSpec {
        DistSpec {
            gx: 20,
            gy: 18,
            gt: 24,
            hs: 3.0,
            ht: 2.0,
            n: 50,
            seed: 21,
            kernel: KernelChoice::Epanechnikov,
            strategy: DistStrategy::HaloExchange,
        }
    }

    #[test]
    fn spec_env_roundtrip() {
        for kernel in [
            KernelChoice::Epanechnikov,
            KernelChoice::TruncatedGaussian,
            KernelChoice::Quartic,
        ] {
            for strategy in [DistStrategy::PointExchange, DistStrategy::HaloExchange] {
                let s = DistSpec {
                    kernel,
                    strategy,
                    ..spec()
                };
                assert_eq!(DistSpec::parse(&s.to_env_value()).unwrap(), s);
            }
        }
    }

    #[test]
    fn malformed_specs_error() {
        for bad in [
            "",
            "g=20x18",
            "g=20x18x24",
            "g=axbxc;hs=1;ht=1;n=1;seed=1;kernel=epanechnikov;strategy=halo",
            "g=2x2x2;hs=1;ht=1;n=1;seed=1;kernel=cosine;strategy=halo",
            "g=2x2x2;hs=1;ht=1;n=1;seed=1;kernel=epanechnikov;strategy=mesh",
        ] {
            assert!(DistSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn rank_report_roundtrip() {
        for report in [
            RankReport {
                processed: 12,
                compute_secs: 0.25,
                grid: None,
            },
            RankReport {
                processed: 0,
                compute_secs: 0.0,
                grid: Some(vec![1.0, -2.5, 0.0]),
            },
        ] {
            assert_eq!(RankReport::decode(&report.encode()).unwrap(), report);
        }
        assert!(RankReport::decode(&[0u8; 3]).is_err());
        assert!(RankReport::decode(&[0u8; 20]).is_err());
    }

    #[test]
    fn spec_rank_program_matches_run_on_thread_backend() {
        // The env-spec'd rank program over the in-process world must
        // reproduce distmem::run exactly: same problem, same routing,
        // same deterministic apply order.
        let s = spec();
        let direct = super::super::run::<f64, _>(
            &s.problem(),
            &Epanechnikov,
            &s.points(),
            3,
            DistStrategy::HaloExchange,
        )
        .unwrap();
        let out = World::new(3).run::<DistMsg<f64>, _, _>(|comm| s.run_rank(comm).unwrap());
        let report = s.decode_report(&out.outputs[0]).unwrap();
        let grid = s.grid_from_report(&report).unwrap();
        assert_eq!(grid.as_slice(), direct.grid.as_slice(), "bit-identical");
        assert_eq!(report.processed, direct.processed[0]);
        // Ranks 1+ carry no grid.
        assert!(s.decode_report(&out.outputs[1]).unwrap().grid.is_none());
    }
}
