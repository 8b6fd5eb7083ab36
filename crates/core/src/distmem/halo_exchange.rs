//! `DIST-HALO`: compute full cylinders locally, ship ghost layers.
//!
//! The distributed analogue of `PB-SYM-DR` (paper §4.1): scattered points
//! are first routed *home* (one copy each, to the rank owning their center
//! layer), then every rank rasterizes its points' *entire* cylinders — no
//! cut invariants, work-efficient — into a slab extended by `Ht` ghost
//! layers on each side. The ghost layers are then sent to the ranks that
//! own them and added in. Overhead is halo memory (`2·Ht·Gx·Gy` voxels
//! per rank) and voxel-sized messages, the distributed echo of DR's
//! replica-reduction cost.
//!
//! # Overlapping exchange with compute
//!
//! Only *boundary* points — those whose cylinder's T-extent leaves the
//! owned slab — contribute to ghost layers. A rank therefore rasterizes
//! its boundary points first, posts the ghost-layer sends immediately
//! (sends never block: channels are unbounded), and only then computes
//! the interior bulk. A peer that reaches its receive loop finds the
//! ghost layers already waiting instead of idling on a rank that is
//! still computing its interior.
//!
//! Received halos are buffered and applied in sender-rank order, so the
//! float summation order — and therefore the result, bit for bit — is
//! independent of arrival order and thread count.

use super::apply::apply_point_slab;
use super::{gather_slabs, unexpected, DistMsg, RankOutput, TAG_HALO, TAG_POINTS};
use crate::error::StkdeError;
use crate::kernel_apply::Scratch;
use crate::problem::Problem;
use stkde_comm::Comm;
use stkde_data::Point;
use stkde_grid::{Decomp, Decomposition, Grid3, GridDims, Scalar, SubdomainId};
use stkde_kernels::SpaceTimeKernel;

pub(super) fn rank_main<S: Scalar, K: SpaceTimeKernel>(
    comm: &mut Comm<DistMsg<S>>,
    problem: &Problem,
    kernel: &K,
    local: Vec<Point>,
) -> Result<RankOutput<S>, StkdeError> {
    let dims = problem.domain.dims();
    let size = comm.size();
    let rank = comm.rank();
    let ht = problem.vbw.ht;
    let layer = dims.gx * dims.gy;
    let slabs = &Decomposition::new(dims, Decomp::new(1, 1, size));

    // Phase 0 — home routing: send each scattered point to the one rank
    // whose slab contains its center layer, so every cylinder fits that
    // rank's extended slab. One copy per point — work-efficient, unlike
    // the point-exchange strategy's replication.
    let mut outgoing: Vec<Vec<Point>> = vec![Vec::new(); size];
    for p in &local {
        let (xv, yv, tv) = problem.domain.voxel_of(p.as_array());
        outgoing[slabs.subdomain_of(xv, yv, tv).0].push(*p);
    }
    for (to, batch) in outgoing.into_iter().enumerate() {
        comm.send(to, TAG_POINTS, DistMsg::Points(batch));
    }
    let mut local = Vec::new();
    for from in 0..size {
        match comm.recv(from, TAG_POINTS) {
            DistMsg::Points(batch) => local.extend(batch),
            DistMsg::Layers { .. } => {
                return Err(unexpected(comm.rank(), "Layers", from, "home routing"));
            }
        }
    }

    let me = SubdomainId(rank);
    let slab = slabs.voxel_range(me);
    // The extended slab this rank's full cylinders can reach.
    let clip = slabs.halo(me, problem.vbw);
    let ext_t0 = clip.t0;
    let mut ext: Grid3<S> = Grid3::zeros_touched(GridDims::new(dims.gx, dims.gy, clip.width_t()));
    // The other ranks whose slabs rank `s`'s extended slab reaches: `s`
    // ships ghost layers to exactly these. A halo wider than a slab
    // reaches beyond the lattice neighbours, hence `intersecting`.
    let reached = |s: usize| {
        let halo = slabs.halo(SubdomainId(s), problem.vbw);
        slabs
            .intersecting(halo)
            .into_iter()
            .filter(move |r| r.0 != s)
            .map(move |r| (r.0, halo.intersect(slabs.voxel_range(r))))
    };

    // A point is a *boundary* point iff its cylinder's T-extent
    // [tv-Ht, tv+Ht] leaves the owned slab — only those touch ghost
    // layers, so once they are rasterized the halos are final.
    let touches_halo = |p: &Point| {
        let (_, _, tv) = problem.domain.voxel_of(p.as_array());
        tv < slab.t0 + ht || tv + ht >= slab.t1
    };

    let mut scratch = Scratch::default();
    let mut compute_secs = 0.0;
    let scatter = |ext: &mut Grid3<S>, pts: &[Point], scratch: &mut Scratch<S>| {
        let start = std::time::Instant::now();
        for p in pts {
            apply_point_slab(ext, ext_t0, problem, kernel, p, clip, scratch);
        }
        start.elapsed().as_secs_f64()
    };

    // Boundary first: the instant those cylinders land, every ghost
    // layer is final and its send can be posted …
    let (boundary, interior): (Vec<Point>, Vec<Point>) =
        local.iter().partition(|p| touches_halo(p));
    compute_secs += scatter(&mut ext, &boundary, &mut scratch);
    // The ghost regions this rank computed for other ranks' slabs.
    for (r, ghost) in reached(rank) {
        let data =
            ext.as_slice()[(ghost.t0 - ext_t0) * layer..(ghost.t1 - ext_t0) * layer].to_vec();
        comm.send(r, TAG_HALO, DistMsg::Layers { t0: ghost.t0, data });
    }
    // … and the interior bulk computes while the wire works.
    compute_secs += scatter(&mut ext, &interior, &mut scratch);

    stkde_obs::global()
        .histogram(stkde_obs::names::HALO_COMPUTE_SECONDS, &[])
        .observe(compute_secs);

    // Receive every ghost region other ranks computed for us: rank `s`
    // sends iff `reached(s)` names us — the query its send loop ran.
    let expected = (0..size)
        .filter(|&s| reached(s).any(|(r, _)| r == rank))
        .count();
    let wait_start = std::time::Instant::now();
    let mut halos: Vec<(usize, usize, Vec<S>)> = Vec::with_capacity(expected);
    for _ in 0..expected {
        match comm.recv_any(TAG_HALO) {
            (from, DistMsg::Layers { t0, data }) => {
                debug_assert!(t0 >= slab.t0 && t0 * layer + data.len() <= slab.t1 * layer);
                halos.push((from, t0, data));
            }
            (from, DistMsg::Points(_)) => {
                return Err(unexpected(rank, "Points", from, "halo exchange"));
            }
        }
    }
    stkde_obs::global()
        .histogram(stkde_obs::names::HALO_WAIT_SECONDS, &[])
        .observe(wait_start.elapsed().as_secs_f64());
    // Apply in sender order, not arrival order: overlapping ghost regions
    // then sum in a fixed order, keeping the result bit-reproducible
    // across thread counts and message races.
    halos.sort_unstable_by_key(|&(from, t0, _)| (from, t0));
    for (_, t0, data) in &halos {
        let dst = &mut ext.as_mut_slice()[(t0 - ext_t0) * layer..][..data.len()];
        for (d, &s) in dst.iter_mut().zip(data) {
            *d += s;
        }
    }

    // Extract the owned slab and assemble on rank 0.
    let own = ext.as_slice()[(slab.t0 - ext_t0) * layer..(slab.t1 - ext_t0) * layer].to_vec();
    let own = Grid3::from_vec(GridDims::new(dims.gx, dims.gy, slab.t1 - slab.t0), own);
    let grid = gather_slabs(comm, problem, slab.t0, own)?;
    Ok(RankOutput {
        grid,
        compute_secs,
        processed: local.len(),
    })
}
