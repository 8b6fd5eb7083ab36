//! The STKDE algorithms of Saule et al., *Parallel Space-Time Kernel
//! Density Estimation*, ICPP 2017.
//!
//! # The problem
//!
//! Given `n` events `(xi, yi, ti)`, a spatial bandwidth `hs` and temporal
//! bandwidth `ht`, compute on a discretized `Gx×Gy×Gt` voxel grid
//!
//! ```text
//! f̂(x,y,t) = 1/(n·hs²·ht) · Σ_{i : di<hs, |t−ti|≤ht} ks((x−xi)/hs, (y−yi)/hs) · kt((t−ti)/ht)
//! ```
//!
//! # The algorithms
//!
//! Sequential (paper §2–3): `algorithms::vb` (gold standard),
//! `algorithms::vb_dec`, `algorithms::pb`, `algorithms::pb_disk`,
//! `algorithms::pb_bar`, [`algorithms::pb_sym`].
//!
//! Parallel (paper §4–5): `parallel::dr` (domain replication),
//! [`parallel::dd`] (domain decomposition), [`parallel::pd`] (phased
//! point decomposition), [`parallel::pd_sched`] (load-aware coloring +
//! DAG execution), [`parallel::pd_rep`] (critical-path replication).
//!
//! # Quick start
//!
//! ```
//! use stkde_core::{Stkde, Algorithm};
//! use stkde_grid::{Domain, GridDims, Bandwidth};
//! use stkde_data::{Point, PointSet};
//!
//! let domain = Domain::from_dims(GridDims::new(32, 32, 16));
//! let points = PointSet::from_vec(vec![Point::new(16.0, 16.0, 8.0)]);
//! let result = Stkde::new(domain, Bandwidth::new(4.0, 2.0))
//!     .algorithm(Algorithm::PbSym)
//!     .compute::<f64>(&points)
//!     .unwrap();
//! assert!(result.grid.get(16, 16, 8) > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod algorithms;
pub mod distmem;
mod engine;
mod error;
mod incremental;
pub mod kernel_apply;
pub mod model;
pub mod parallel;
mod problem;
mod sharded;
pub mod sparse;
mod timing;

pub use engine::{Algorithm, Stkde, StkdeResult};
pub use error::StkdeError;
pub use incremental::IncrementalStkde;
pub use problem::Problem;
pub use sharded::{
    ApproxRange, BatchPush, CubeSnapshot, PyramidBuildReport, ShardBatchStats, ShardPlanes,
    ShardedWindowStkde,
};
pub use sparse::SparseResult;
pub use timing::PhaseTimings;
