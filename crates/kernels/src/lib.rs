//! Separable space-time kernel functions for STKDE.
//!
//! The space-time kernel density estimate (paper §2.1) weights each event by
//! a product of a *spatial* kernel `ks(u, v)` and a *temporal* kernel
//! `kt(w)`, where `u = (x-xi)/hs`, `v = (y-yi)/hs`, `w = (t-ti)/ht` are
//! bandwidth-normalized offsets:
//!
//! ```text
//! f̂(x,y,t) = 1/(n·hs²·ht) · Σᵢ ks(u, v) · kt(w)
//! ```
//!
//! This separability — `ks` independent of `T`, `kt` independent of
//! `(X, Y)` — is exactly the structure `PB-SYM` exploits (paper §3.2,
//! Figure 3), so the kernel abstraction exposes the two factors separately.
//!
//! The default kernel is [`Epanechnikov`], following Nakaya & Yano (2010),
//! the STKDE formulation the paper builds on. The formula as *printed* in
//! the paper (`π/2·(1−u)²(1−v)²`, `¾·(1−w)²`) is also provided as
//! `PaperLiteral`; see that type's docs for how the (OCR-ambiguous)
//! printed form is interpreted. All provided kernels share the same support
//! (`u²+v² < 1` spatially, `|w| ≤ 1` temporally), so the algorithmic
//! structure and costs are identical regardless of the choice.
//!
//! The product evaluates the Epanechnikov kernel, in closed form or
//! through [`Tabulated`]. `PaperLiteral`, `TruncatedGaussian`, `Quartic`
//! and `Uniform` are test support behind the `testkit` feature, which
//! only `[dev-dependencies]` turn on: the suites run every algorithm
//! under them to prove the kernel-generic code paths.

#![warn(missing_docs)]

mod epanechnikov;
#[cfg(any(test, feature = "testkit"))]
mod gaussian;
#[cfg(test)]
mod integrate;
mod lut;
#[cfg(any(test, feature = "testkit"))]
mod paper;
#[cfg(any(test, feature = "testkit"))]
mod polynomial;
mod traits;

pub use epanechnikov::Epanechnikov;
#[cfg(any(test, feature = "testkit"))]
pub use gaussian::TruncatedGaussian;
pub use lut::Tabulated;
#[cfg(any(test, feature = "testkit"))]
pub use paper::PaperLiteral;
#[cfg(any(test, feature = "testkit"))]
pub use polynomial::{Quartic, Uniform};
pub use traits::SpaceTimeKernel;
