//! Domain geometry and dense 3-D voxel grids for space-time kernel density
//! estimation (STKDE).
//!
//! This crate provides the spatial substrate used by the STKDE algorithms of
//! Saule et al. (ICPP 2017):
//!
//! * [`Domain`] — the mapping between *world space* (meters/days, lowercase
//!   notation in the paper) and *voxel space* (uppercase notation),
//! * [`Grid3`] — a dense 3-D scalar grid with `X`-fastest memory layout and
//!   parallel first-touch initialization,
//! * [`SharedGrid`] — the one `unsafe` construct in the workspace: racing-free
//!   concurrent writes to *provably disjoint* voxel regions,
//! * [`Decomposition`] — the A×B×C subdomain lattice used by the
//!   domain-decomposed and point-decomposed parallel algorithms,
//! * [`SparseGrid3`] — a Morton-brick sparse grid (`brick`, `morton`)
//!   that elides the `Θ(G)` initialization term dominating the paper's
//!   sparse instances and supports lock-free parallel scatter through
//!   [`SharedSparseGrid`],
//! * parallel grid [`reduce`]-tion (for domain replication), grid
//!   [`stats`], and simple [`io`] exports.
//!
//! Conventions follow Table 1 of the paper: lowercase quantities (`x`, `hs`,
//! `gx`) live in world space; uppercase quantities (`X`, `Hs`, `Gx`) live in
//! voxel space. Voxels are *sampled at their center*: the density value
//! stored at voxel `(X, Y, T)` is `f̂` evaluated at the voxel center.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod axpy;
mod brick;
mod decomp;
mod dims;
mod geometry;
mod grid3;
pub mod io;
pub mod model;
mod morton;
pub mod pyramid;
mod range;
pub mod reduce;
mod scalar;
mod shared;
mod sparse;
pub mod stats;

pub use axpy::{axpy_row, axpy_row_quanta};
pub use decomp::{Decomp, Decomposition, SubdomainId};
pub use dims::GridDims;
pub use geometry::{Bandwidth, Domain, Extent, Resolution, VoxelBandwidth};
pub use grid3::{take_hugepage_tally, Grid3};
pub use pyramid::MipPyramid;
pub use range::VoxelRange;
pub use scalar::Scalar;
pub use shared::{SharedGrid, WriteAudit};
pub use sparse::{SharedSparseGrid, SparseGrid3};
pub use stats::GridStats;
