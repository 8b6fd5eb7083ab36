//! Distributed-memory STKDE (extension — the paper's conclusion names
//! distributed machines as the next step).
//!
//! Each rank owns one subdomain of the 1×1×P
//! [`Decomposition`](stkde_grid::Decomposition) — a run of full T-layers,
//! which the T-outermost grid layout makes contiguous memory, so every
//! exchange is a `memcpy`-shaped message and the final gather a
//! concatenation — and the points start scattered round-robin across
//! ranks (a distributed ingest). Two exchange strategies transplant the
//! paper's §4 taxonomy onto message passing:
//!
//! * [`DistStrategy::PointExchange`] — the `PB-SYM-DD` idea: each point is
//!   *sent to* every rank whose slab its cylinder intersects; ranks compute
//!   clipped cylinders into their own slab only. Communication is point
//!   records; overhead is the recomputed invariants of cut cylinders.
//! * [`DistStrategy::HaloExchange`] — the `PB-SYM-DR` idea: points are
//!   routed home (one copy each), then each rank computes their *full*
//!   cylinders into a slab extended by `Ht` ghost layers and ships the
//!   ghost layers to their owning ranks, which add them in.
//!   Communication is voxel slabs; overhead is the halo memory and
//!   traffic.
//!
//! Ranks are threads under the [`stkde_comm`] substrate; accounted traffic
//! is priced by a latency/bandwidth model ([`stkde_comm::ModeledRun`]) to
//! project cluster behaviour, mirroring how the paper projects 16-thread
//! speedups from Graham's bound. Both strategies reproduce the sequential
//! `PB-SYM` density field exactly (up to float summation order), which the
//! workspace integration tests verify.

pub(crate) mod apply;
mod halo_exchange;
mod point_exchange;

use crate::error::StkdeError;
use crate::problem::Problem;
use stkde_comm::{Comm, Payload, RankStats, World};
use stkde_data::Point;
use stkde_grid::{Grid3, Scalar};
use stkde_kernels::SpaceTimeKernel;

/// Messages exchanged by the distributed STKDE ranks.
#[derive(Debug, Clone)]
enum DistMsg<S> {
    /// A batch of event records (24 wire bytes each).
    Points(Vec<Point>),
    /// A run of full T-layers starting at global layer `t0`.
    Layers {
        /// First global T-layer in `data`.
        t0: usize,
        /// `(t1-t0)·Gy·Gx` scalars in grid layout order.
        data: Vec<S>,
    },
}

impl<S: Scalar> Payload for DistMsg<S> {
    fn byte_len(&self) -> usize {
        match self {
            // x, y, t as f64 on the wire.
            DistMsg::Points(v) => v.len() * 24,
            // Layer header (u64) + payload scalars.
            DistMsg::Layers { data, .. } => 8 + std::mem::size_of_val(data.as_slice()),
        }
    }
}

/// Message tags.
const TAG_POINTS: u32 = 1;
const TAG_HALO: u32 = 2;
const TAG_GATHER: u32 = 3;

/// Which exchange strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistStrategy {
    /// Route points to slab owners; compute clipped cylinders (DD-flavor).
    PointExchange,
    /// Compute full cylinders locally; ship ghost layers (DR-flavor).
    HaloExchange,
}

impl DistStrategy {
    /// Human-readable name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            DistStrategy::PointExchange => "DIST-POINT",
            DistStrategy::HaloExchange => "DIST-HALO",
        }
    }
}

impl std::fmt::Display for DistStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one rank reports back to the driver.
struct RankOutput<S> {
    /// The assembled global grid (rank 0 only).
    grid: Option<Grid3<S>>,
    /// Seconds spent in the kernel-compute phase (excludes messaging).
    compute_secs: f64,
    /// Points this rank rasterized (≥ its fair share under PointExchange
    /// because of replication; == its scatter share under HaloExchange).
    processed: usize,
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistResult<S> {
    /// The assembled density grid (identical to sequential `PB-SYM` up to
    /// float summation order).
    pub grid: Grid3<S>,
    /// Number of ranks.
    pub ranks: usize,
    /// Strategy that ran.
    pub strategy: DistStrategy,
    /// Measured per-rank kernel-compute seconds.
    pub compute_secs: Vec<f64>,
    /// Per-rank points rasterized (shows PointExchange replication).
    pub processed: Vec<usize>,
    /// Per-rank accounted traffic.
    pub stats: Vec<RankStats>,
}

impl<S: Scalar> DistResult<S> {
    /// Total payload bytes that crossed the simulated network.
    pub fn total_bytes(&self) -> usize {
        self.stats.iter().map(|s| s.bytes_sent).sum()
    }

    /// Point replication factor: points rasterized across ranks divided by
    /// the input size (1.0 = work-efficient; PointExchange exceeds 1 when
    /// cylinders straddle slab boundaries, exactly like `PB-SYM-DD`'s
    /// replicated points in Figure 9).
    pub fn replication_factor(&self, n: usize) -> f64 {
        if n == 0 {
            1.0
        } else {
            self.processed.iter().sum::<usize>() as f64 / n as f64
        }
    }
}

/// Run distributed STKDE over `ranks` ranks.
///
/// Points are scattered round-robin (rank `r` starts with events
/// `r, r+P, r+2P, …`), modeling a distributed ingest; the assembled grid
/// is returned by rank 0.
///
/// ```
/// use stkde_core::distmem::{self, DistStrategy};
/// use stkde_core::Problem;
/// use stkde_data::{synth, Point};
/// use stkde_grid::{Bandwidth, Domain, GridDims};
/// use stkde_kernels::Epanechnikov;
///
/// let domain = Domain::from_dims(GridDims::new(16, 16, 12));
/// let points = synth::uniform(30, domain.extent(), 1).into_vec();
/// let problem = Problem::new(domain, Bandwidth::new(3.0, 2.0), points.len());
/// let r = distmem::run::<f64, _>(
///     &problem, &Epanechnikov, &points, 3, DistStrategy::HaloExchange,
/// ).unwrap();
/// assert_eq!(r.grid.dims(), domain.dims());
/// assert_eq!(r.replication_factor(points.len()), 1.0); // halo is work-efficient
/// ```
///
/// # Errors
/// * `InvalidConfig` if `ranks` is zero or exceeds the grid's T extent
///   (a rank would own no layers).
/// * [`StkdeError::Comm`] if a rank receives a message its protocol phase
///   does not expect (a protocol bug).
pub fn run<S: Scalar, K: SpaceTimeKernel + Sync>(
    problem: &Problem,
    kernel: &K,
    points: &[Point],
    ranks: usize,
    strategy: DistStrategy,
) -> Result<DistResult<S>, StkdeError> {
    if ranks == 0 {
        return Err(StkdeError::InvalidConfig("ranks must be > 0".into()));
    }
    let gt = problem.domain.dims().gt;
    if ranks > gt {
        return Err(StkdeError::InvalidConfig(format!(
            "{ranks} ranks over {gt} T-layers: every rank needs at least one layer"
        )));
    }

    let world = World::new(ranks);
    let out = world.run::<DistMsg<S>, _, _>(|comm| {
        let local: Vec<Point> = points
            .iter()
            .skip(comm.rank())
            .step_by(ranks)
            .copied()
            .collect();
        match strategy {
            DistStrategy::PointExchange => point_exchange::rank_main(comm, problem, kernel, local),
            DistStrategy::HaloExchange => halo_exchange::rank_main(comm, problem, kernel, local),
        }
    });

    let mut grid = None;
    let mut compute_secs = Vec::with_capacity(ranks);
    let mut processed = Vec::with_capacity(ranks);
    for (rank, r) in out.outputs.into_iter().enumerate() {
        let r = r?;
        if let Some(g) = r.grid {
            debug_assert_eq!(rank, 0, "only rank 0 assembles");
            grid = Some(g);
        }
        compute_secs.push(r.compute_secs);
        processed.push(r.processed);
    }
    Ok(DistResult {
        grid: grid.expect("rank 0 always assembles the grid"),
        ranks,
        strategy,
        compute_secs,
        processed,
        stats: out.stats,
    })
}

/// The typed error for a message variant a rank's protocol phase does
/// not expect.
fn unexpected(rank: usize, what: &str, from: usize, phase: &str) -> StkdeError {
    StkdeError::Comm(format!(
        "rank {rank}: unexpected {what} from rank {from} during {phase}"
    ))
}

/// Gather every rank's slab to rank 0 and assemble the global grid.
///
/// Slabs are contiguous T-layer runs, so assembly is pure concatenation.
fn gather_slabs<S: Scalar>(
    comm: &mut Comm<DistMsg<S>>,
    problem: &Problem,
    slab_t0: usize,
    slab: Grid3<S>,
) -> Result<Option<Grid3<S>>, StkdeError> {
    let dims = problem.domain.dims();
    let layer = dims.gx * dims.gy;
    if comm.rank() == 0 {
        let mut full = Grid3::zeros(dims);
        let place = |full: &mut Grid3<S>, t0: usize, data: &[S]| {
            full.as_mut_slice()[t0 * layer..t0 * layer + data.len()].copy_from_slice(data);
        };
        place(&mut full, slab_t0, slab.as_slice());
        for _ in 1..comm.size() {
            match comm.recv_any(TAG_GATHER) {
                (_, DistMsg::Layers { t0, data }) => place(&mut full, t0, &data),
                (from, DistMsg::Points(_)) => return Err(unexpected(0, "Points", from, "gather")),
            }
        }
        Ok(Some(full))
    } else {
        comm.send(
            0,
            TAG_GATHER,
            DistMsg::Layers {
                t0: slab_t0,
                data: slab.into_vec(),
            },
        );
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pb_sym;
    use stkde_comm::{CommCost, ModeledRun};
    use stkde_data::synth;
    use stkde_grid::{Bandwidth, Domain, GridDims};
    use stkde_kernels::Epanechnikov;

    fn setup(n: usize, ht: f64, seed: u64) -> (Problem, Vec<Point>) {
        let domain = Domain::from_dims(GridDims::new(20, 18, 24));
        let points = synth::ClusterSpec {
            clusters: 4,
            spatial_sigma: 0.08,
            temporal_sigma: 0.15,
            ..Default::default()
        }
        .generate(n, domain.extent(), seed)
        .into_vec();
        (
            Problem::new(domain, Bandwidth::new(3.0, ht), points.len()),
            points,
        )
    }

    #[test]
    fn both_strategies_match_pb_sym() {
        let (problem, points) = setup(50, 2.0, 21);
        let (seq, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);
        for strategy in [DistStrategy::PointExchange, DistStrategy::HaloExchange] {
            for ranks in [1, 2, 3, 5] {
                let r = run::<f64, _>(&problem, &Epanechnikov, &points, ranks, strategy).unwrap();
                let diff = seq.max_rel_diff(&r.grid, 1e-13);
                assert!(diff < 1e-9, "{strategy} ranks={ranks}: diff {diff}");
                assert_eq!(r.compute_secs.len(), ranks);
            }
        }
    }

    #[test]
    fn huge_temporal_bandwidth_spans_many_slabs() {
        // Ht covers most of the grid: halos reach far beyond neighbors and
        // nearly every point must be routed to every rank.
        let (problem, points) = setup(20, 10.0, 22);
        let (seq, _) = pb_sym::run::<f64, _>(&problem, &Epanechnikov, &points);
        for strategy in [DistStrategy::PointExchange, DistStrategy::HaloExchange] {
            let r = run::<f64, _>(&problem, &Epanechnikov, &points, 6, strategy).unwrap();
            assert!(
                seq.max_rel_diff(&r.grid, 1e-13) < 1e-9,
                "{strategy} with wide halo"
            );
        }
    }

    #[test]
    fn point_exchange_replicates_straddling_points() {
        let (problem, points) = setup(60, 3.0, 23);
        let r = run::<f64, _>(
            &problem,
            &Epanechnikov,
            &points,
            4,
            DistStrategy::PointExchange,
        )
        .unwrap();
        let rf = r.replication_factor(points.len());
        assert!(rf >= 1.0, "never below 1: {rf}");
        // Ht=3 voxels on 6-layer slabs: straddling is certain with 60
        // clustered points.
        assert!(rf > 1.0, "some cylinder must straddle a slab: {rf}");
    }

    #[test]
    fn halo_exchange_is_work_efficient() {
        let (problem, points) = setup(60, 3.0, 24);
        let r = run::<f64, _>(
            &problem,
            &Epanechnikov,
            &points,
            4,
            DistStrategy::HaloExchange,
        )
        .unwrap();
        assert_eq!(r.processed.iter().sum::<usize>(), points.len());
        assert!((r.replication_factor(points.len()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_shapes_differ_as_designed() {
        // Point exchange ships points (small); halo exchange ships voxel
        // layers (large). On a small-n/large-grid instance the halo bytes
        // must dominate.
        let (problem, points) = setup(10, 2.0, 25);
        let pe = run::<f32, _>(
            &problem,
            &Epanechnikov,
            &points,
            4,
            DistStrategy::PointExchange,
        )
        .unwrap();
        let he = run::<f32, _>(
            &problem,
            &Epanechnikov,
            &points,
            4,
            DistStrategy::HaloExchange,
        )
        .unwrap();
        // Exclude the identical gather phase by comparing non-rank-0 halo
        // traffic: every rank but 0 sends gather bytes in both runs.
        assert!(
            he.total_bytes() > pe.total_bytes(),
            "halo {} should out-ship points {}",
            he.total_bytes(),
            pe.total_bytes()
        );
    }

    #[test]
    fn model_prices_free_network_as_compute_only() {
        let (problem, points) = setup(30, 2.0, 26);
        let r = run::<f64, _>(
            &problem,
            &Epanechnikov,
            &points,
            3,
            DistStrategy::HaloExchange,
        )
        .unwrap();
        let model = |cost| ModeledRun::price(r.compute_secs.clone(), &r.stats, cost);
        let (free, eth) = (model(CommCost::FREE), model(CommCost::ETHERNET_10G));
        assert!(free.makespan() <= eth.makespan());
        assert!(free.comm.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn invalid_rank_counts_rejected() {
        let (problem, points) = setup(5, 2.0, 27);
        for (ranks, what) in [(0usize, "zero"), (25, "more than Gt=24")] {
            let err = run::<f64, _>(
                &problem,
                &Epanechnikov,
                &points,
                ranks,
                DistStrategy::PointExchange,
            )
            .unwrap_err();
            assert!(
                matches!(err, StkdeError::InvalidConfig(_)),
                "{what} ranks must be rejected"
            );
        }
    }

    #[test]
    fn empty_pointset_yields_zero_grid() {
        let (problem, _) = setup(0, 2.0, 28);
        let r = run::<f64, _>(&problem, &Epanechnikov, &[], 3, DistStrategy::HaloExchange).unwrap();
        assert!(r.grid.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(r.replication_factor(0), 1.0);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(DistStrategy::PointExchange.to_string(), "DIST-POINT");
        assert_eq!(DistStrategy::HaloExchange.to_string(), "DIST-HALO");
    }
}
