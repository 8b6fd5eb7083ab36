//! Space-time point data for STKDE: point sets, synthetic dataset
//! generators, the ICPP'17 instance catalog (Table 2), CSV I/O, and point
//! binning into subdomain lattices.
//!
//! # Synthetic stand-ins for the paper's datasets
//!
//! The paper evaluates on four real datasets (Dengue fever cases in Cali,
//! pollen-related US tweets, avian-flu observations, eBird sightings) that
//! are proprietary or unavailable. The STKDE algorithms are sensitive only
//! to the *instance parameters* — point count `n`, grid dimensions, voxel
//! bandwidths — and to the *spatial clustering* of the points (which drives
//! load imbalance and point replication in the parallel variants). The
//! [`synth`] module therefore provides seeded Neyman–Scott cluster-process
//! generators with per-dataset shape profiles, and [`catalog`] reproduces
//! all 21 instances of Table 2 with their exact parameters (optionally
//! volumetrically scaled so the suite runs on small machines; see
//! [`catalog::Instance::scaled`]).

#![warn(missing_docs)]

pub mod binning;
pub mod catalog;
pub mod csv;
mod datasets;
mod point;
mod pointset;
pub mod synth;

pub use binning::{bin_points, bin_points_replicated, Bins};
pub use catalog::{full_catalog, Instance, InstanceParams};
pub use datasets::DatasetKind;
pub use point::Point;
pub use pointset::PointSet;
