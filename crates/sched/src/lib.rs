//! Scheduling substrate for the point-decomposed STKDE algorithms.
//!
//! `PB-SYM-PD` and its refinements (paper §5) turn the subdomain lattice
//! into a scheduling problem:
//!
//! 1. the A×B×C lattice with 27-point adjacency becomes a [`StencilGraph`];
//! 2. a vertex [`coloring`] (8-color parity for `PD`, load-aware greedy for
//!    `PD-SCHED`) determines which subdomains may run concurrently;
//! 3. orienting every stencil edge from lower to higher color yields a
//!    [`TaskDag`] whose [`critical_path`] bounds attainable parallelism by
//!    Graham's classic list-scheduling theorem
//!    `T_P ≤ (T₁ − T∞)/P + T∞`;
//! 4. the DAG is executed either *for real* by the dependency-counting
//!    worker-pool `executor` (the OpenMP-4.0 `task depend` stand-in), or
//!    *in simulation* by [`list_schedule`] — an event-driven P-processor
//!    list-scheduling model used to reproduce the paper's 16-thread speedup
//!    figures on machines with fewer cores;
//! 5. [`replication`] implements the moldable-task transformation of
//!    `PB-SYM-PD-REP`: splitting critical-path tasks into replicas that
//!    accumulate into private buffers plus a cheap merge task.

#![warn(missing_docs)]

pub mod coloring;
mod critical_path;
mod dag;
mod executor;
mod list_schedule;
pub mod replication;
mod stencil;

pub use coloring::{greedy_coloring, order_by_weight_desc, order_lexicographic, Coloring};
pub use critical_path::{critical_path, CriticalPath};
pub use dag::TaskDag;
pub use executor::run_dag;
pub use list_schedule::{list_schedule, ScheduleResult};
pub use replication::{plan_replication, RepParams, RepPlan};
pub use stencil::StencilGraph;
