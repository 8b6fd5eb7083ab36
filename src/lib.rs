//! # stkde — Parallel Space-Time Kernel Density Estimation
//!
//! A Rust implementation of *Parallel Space-Time Kernel Density
//! Estimation* (Saule, Panchananam, Hohl, Tang, Delmelle — ICPP 2017,
//! arXiv:1705.09366): the point-based STKDE algorithms (`PB`, `PB-DISK`,
//! `PB-BAR`, `PB-SYM`), the voxel-based baselines (`VB`, `VB-DEC`), and
//! the four parallelization strategies (`PB-SYM-DR`, `-DD`, `-PD`,
//! `-PD-SCHED`, `-PD-REP`), together with the substrates they need:
//! dense voxel grids, subdomain decompositions, stencil-graph coloring,
//! critical-path analysis, list scheduling, and a dependency-driven task
//! executor.
//!
//! ## Crates
//!
//! | crate | contents |
//! |---|---|
//! | [`stkde_grid`] | domain geometry, [`Grid3`](grid::Grid3), decompositions, shared disjoint writes |
//! | [`stkde_kernels`] | separable space-time kernels (Epanechnikov default) |
//! | [`stkde_data`] | point sets, synthetic datasets, the Table 2 instance catalog, CSV I/O, binning |
//! | [`stkde_sched`] | coloring, task DAGs, critical paths, list scheduling, executor |
//! | [`stkde_comm`] | in-process SPMD message passing (ranks are threads), traffic accounting, and a postal cost model (distributed extension) |
//! | [`stkde_core`] | the twelve STKDE algorithms, the [`Stkde`](core::Stkde) engine, and the sparse / incremental / distributed extensions |
//!
//! ## Quick start
//!
//! ```
//! use stkde::prelude::*;
//!
//! // A 64×64×32-voxel space-time cube with a synthetic disease outbreak.
//! let domain = Domain::from_dims(GridDims::new(64, 64, 32));
//! let points = DatasetKind::Dengue.generate(2_000, domain.extent(), 42);
//!
//! let result = Stkde::new(domain, Bandwidth::new(6.0, 4.0))
//!     .algorithm(Algorithm::PbSymPdSched { decomp: Decomp::cubic(4) })
//!     .threads(2)
//!     .compute::<f32>(&points)
//!     .expect("computation succeeds");
//!
//! let stats = stkde::grid::stats::stats(&result.grid);
//! assert!(stats.max > 0.0);
//! println!("peak density {:.3e}, {}", stats.max, result.timings);
//! ```

pub use stkde_comm as comm;
pub use stkde_core as core;
pub use stkde_data as data;
pub use stkde_grid as grid;
pub use stkde_kernels as kernels;
pub use stkde_sched as sched;

pub use stkde_core::{IncrementalStkde, Problem};

/// Everything needed for typical use.
pub mod prelude {
    pub use stkde_core::{Algorithm, Stkde, StkdeError};
    pub use stkde_data::{DatasetKind, Point, PointSet};
    pub use stkde_grid::{Bandwidth, Decomp, Domain, Extent, Grid3, GridDims, Resolution};
    pub use stkde_kernels::{Epanechnikov, SpaceTimeKernel};
}
