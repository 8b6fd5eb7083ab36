//! `DIST-POINT`: route points to the slab owners their cylinders touch.
//!
//! The distributed analogue of `PB-SYM-DD` (paper §4.2): instead of
//! replicating grid memory, boundary *points* are replicated — every rank
//! whose slab a point's cylinder intersects receives a copy and computes
//! the clipped contribution locally. Work overhead is the recomputed
//! invariants of cut cylinders (the paper's Figure 4 phenomenon), surfaced
//! by [`DistResult::replication_factor`](super::DistResult::replication_factor);
//! network traffic is small (24 bytes per routed point).

use super::apply::apply_point_slab;
use super::{gather_slabs, unexpected, DistMsg, RankOutput, TAG_POINTS};
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
    let slabs = Decomposition::new(dims, Decomp::new(1, 1, size));

    // Phase 1 — route every local point to each rank whose slab its
    // cylinder intersects.
    let mut outgoing: Vec<Vec<Point>> = vec![Vec::new(); size];
    for p in &local {
        let v = problem.domain.voxel_of(p.as_array());
        for r in slabs.intersecting(problem.domain.cylinder_range(v, problem.vbw)) {
            outgoing[r.0].push(*p);
        }
    }
    for (to, batch) in outgoing.into_iter().enumerate() {
        comm.send(to, TAG_POINTS, DistMsg::Points(batch));
    }
    let mut mine = Vec::new();
    for from in 0..size {
        match comm.recv(from, TAG_POINTS) {
            DistMsg::Points(batch) => mine.extend(batch),
            DistMsg::Layers { .. } => {
                return Err(unexpected(comm.rank(), "Layers", from, "point routing"));
            }
        }
    }

    // Phase 2 — clipped PB-SYM over the owned slab.
    let slab = slabs.voxel_range(SubdomainId(comm.rank()));
    let mut grid: Grid3<S> =
        Grid3::zeros_touched(GridDims::new(dims.gx, dims.gy, slab.t1 - slab.t0));
    let mut scratch = Scratch::default();
    let start = std::time::Instant::now();
    for p in &mine {
        apply_point_slab(&mut grid, slab.t0, problem, kernel, p, slab, &mut scratch);
    }
    let compute_secs = start.elapsed().as_secs_f64();

    // Phase 3 — assemble on rank 0.
    let grid = gather_slabs(comm, problem, slab.t0, grid)?;
    Ok(RankOutput {
        grid,
        compute_secs,
        processed: mine.len(),
    })
}
