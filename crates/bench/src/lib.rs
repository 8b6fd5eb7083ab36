//! Shared machinery for the paper-reproduction harness binaries.
//!
//! Every table and figure of the paper's evaluation (§6) has a dedicated
//! binary in `src/bin/` (EXPERIMENTS.md at the repository root indexes
//! them and records their output). They share:
//!
//! * `opts` — a tiny CLI parser (`--scale`, `--threads`, `--filter`,
//!   `--seed`, `--paper`) controlling instance scaling and sweeps;
//! * `prep` — instance preparation: catalog filtering, volumetric
//!   scaling to the machine budget, deterministic point generation;
//! * [`table`] — fixed-width table printing in the paper's row format;
//! * [`sim`] — the 16-virtual-processor speedup models used to reproduce
//!   the paper's thread counts on smaller hosts (documented in
//!   EXPERIMENTS.md).

#![warn(missing_docs)]

mod opts;
mod prep;
pub mod runner;
pub mod sim;
pub mod table;

pub use opts::HarnessOpts;
pub use prep::{prepare_instances, PreparedInstance};
pub use table::Table;

/// Measure wall-clock seconds of one run of `f`.
pub(crate) fn time_once<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Best-of-`reps` wall-clock seconds (the paper reports single runs; we
/// default to best-of-1 but harnesses can ask for more).
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best, mut out) = time_once(&mut f);
    for _ in 1..reps.max(1) {
        let (t, o) = time_once(&mut f);
        if t < best {
            best = t;
            out = o;
        }
    }
    (best, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_output() {
        let (t, v) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }

    #[test]
    fn time_best_takes_minimum() {
        let mut calls = 0;
        let (t, v) = time_best(3, || {
            calls += 1;
            // First call is deliberately slow; later calls are fast.
            if calls == 1 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            calls
        });
        assert_eq!(calls, 3);
        assert_ne!(v, 1, "a fast later repetition should win");
        assert!(t < 0.030, "best time should be the fast path: {t}");
    }
}
