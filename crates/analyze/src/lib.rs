//! `stkde-analyze`: in-tree correctness tooling for the workspace's
//! hand-rolled concurrency.
//!
//! Two engines live here (see `ANALYSIS.md` at the workspace root for
//! the operator's guide):
//!
//! * **`stkde-lint`** ([`lint`], `rules`, [`allowlist`], `scan`) — a
//!   zero-dependency source auditor enforcing the repo's concurrency
//!   hygiene: SAFETY-justified `unsafe`, allowlisted `Relaxed` atomics,
//!   no panic paths in hot-crate production code, no ad-hoc thread
//!   spawns, no deadline-less blocking receives in the comm layer, and
//!   a surface census (STK006): every `pub` item of a library crate
//!   is named, by a path that reaches it, by a caller outside it.
//!   Rules are data ([`rules::RULES`]); accepted exceptions live in
//!   `stkde-lint.allow` with mandatory reasons and fail the lint when
//!   they go stale.
//! * **The concurrency model checker** ([`sched_model`]) — a loom-style
//!   deterministic scheduler that drives the *real* Chase–Lev deque and
//!   sleep-gate code (through the rayon shim's `model` feature) and the
//!   comm frame decoder under bounded-exhaustive and seeded-random
//!   interleaving exploration. The scenario suites are this crate's
//!   integration tests, so `cargo test` is the model-checking run.

pub mod allowlist;
mod census;
pub mod lint;
mod rules;
mod scan;
pub mod sched_model;

pub use census::Census;
pub use lint::{lint_tree, lint_workspace, LintOutcome};
pub use rules::{Rule, Violation, RULES};
