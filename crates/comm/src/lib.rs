//! In-process message-passing substrate for the distributed-memory STKDE
//! extension.
//!
//! The paper's conclusion names distributed-memory machines as the next
//! step after its shared-memory algorithms. This crate provides the
//! substrate for that extension without requiring a cluster: a *rank* is a
//! thread, a *network* is a set of channels, and the runtime records
//! per-rank traffic (messages and bytes) so a latency/bandwidth
//! [`cost`] model can translate measured single-host runs into modeled
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
//! * [`Comm::barrier`] — full synchronization;
//! * per-rank [`RankStats`] traffic accounting.
//!
//! Payloads are moved, not serialized: [`Payload::byte_len`] reports what
//! the message *would* cost on a wire, preserving the cost model's inputs
//! while keeping the simulation allocation-cheap. The substitution is
//! sound because the algorithms under study are communication-volume
//! bound, not serialization-CPU bound, so accounted bytes (not
//! serialization time) are the behaviour-relevant quantity.

//! # Backends
//!
//! Two backends implement the per-rank [`WorldComm`] protocol:
//!
//! * [`World`] — ranks are threads, wires are channels (the original
//!   single-process simulation; exact, fast, deadlocks crash).
//! * [`process::ProcessWorld`] (Unix only) — ranks are OS processes
//!   spawned from a rank executable, wires are Unix-domain sockets
//!   carrying the chunked frame codec from [`payload`], and every
//!   blocking operation has a deadline so dead or stalled peers surface
//!   as typed [`CommError`]s. See the module docs for the env-var
//!   launch protocol.
//!
//! Rank code written against `WorldComm` runs unchanged on both, which
//! the cross-backend conformance suite (`tests/distmem_conformance.rs`
//! at the workspace root) exploits: the same seeded problems must
//! produce identical densities and identical accounted traffic on each
//! backend.

#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod payload;
#[cfg(unix)]
pub mod process;
pub mod world;

pub use cost::{CommCost, ModeledRun};
pub use error::{CodecError, CommError};
pub use payload::{FrameDecoder, Payload, WirePayload, DEFAULT_CHUNK};
#[cfg(unix)]
pub use process::{ProcessComm, ProcessWorld, RankBoot};
pub use world::{record_rank_stats, Comm, RankStats, World, WorldComm, WorldOutput};
