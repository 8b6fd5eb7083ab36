//! In-process message-passing substrate for the distributed-memory STKDE
//! extension.
//!
//! The paper's conclusion names distributed-memory machines as the next
//! step after its shared-memory algorithms. This crate provides the
//! substrate for that extension without requiring a cluster: a *rank* is a
//! thread, a *network* is a set of channels, and the runtime records
//! per-rank traffic (messages and bytes) so a latency/bandwidth cost
//! model ([`CommCost`]) can translate measured single-host runs into modeled
//! cluster executions — the same measured-work + analytic-model approach
//! the paper itself uses for its 16-thread figures via Graham's bound.
//!
//! Semantics mirror the MPI subset a distributed STKDE needs:
//!
//! * [`World::run`] — SPMD launch: the same closure runs on every rank;
//! * [`Comm::send`] / [`Comm::recv`] — point-to-point, *non-blocking
//!   sends* (unbounded channels, so pairwise exchanges cannot deadlock)
//!   and *selective blocking receives* (by source and tag, out-of-order
//!   arrivals are buffered);
//! * per-rank [`RankStats`] traffic accounting.
//!
//! Payloads are moved, not serialized: [`Payload::byte_len`] reports what
//! the message *would* cost on a wire, preserving the cost model's inputs
//! while keeping the simulation allocation-cheap. The substitution is
//! sound because the algorithms under study are communication-volume
//! bound, not serialization-CPU bound, so accounted bytes (not
//! serialization time) are the behaviour-relevant quantity.
//!
//! # One backend
//!
//! [`World`] is the only backend: ranks are threads, wires are channels.
//! Ranks as OS processes over loopback sockets measured 15–30× slower
//! than shared-memory DD on the same cores (EXPERIMENTS.md,
//! `ablation_distmem`), so the crate has no serializing transport.

#![warn(missing_docs)]

mod cost;
mod payload;
#[cfg(test)]
mod stress;
mod world;

pub use cost::{CommCost, ModeledRun};
pub use payload::Payload;
pub use world::{Comm, RankStats, World, WorldOutput};
