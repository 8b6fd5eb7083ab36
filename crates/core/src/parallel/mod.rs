//! The parallel STKDE algorithms (paper §4–5).
//!
//! Two families:
//!
//! * **Domain-based** (§4): `dr` replicates the grid per thread
//!   (pleasingly parallel, `Θ(P·G)` memory); [`dd`] decomposes the grid
//!   into subdomains and replicates boundary *points* instead (extra work
//!   from cut cylinders, Figure 9).
//! * **Point-based** (§5): [`pd`] partitions the *points* by subdomain and
//!   phases execution through the 8 parity classes; [`pd_sched`] replaces
//!   the phases with a load-aware coloring and true dependency-driven
//!   execution; [`pd_rep`] additionally replicates critical-path
//!   subdomains into private buffers (moldable tasks).
//!
//! All of them compute bit-for-bit the same density field as the
//! sequential algorithms up to floating-point summation order; the
//! integration tests in the workspace root verify this, and additionally
//! run the disjoint-write audits that justify the `unsafe` shared-grid
//! writes.

pub mod dd;
pub(crate) mod dr;
pub mod pd;
pub mod pd_rep;
pub mod pd_sched;

use crate::error::StkdeError;

/// A rayon pool handle with exactly `threads` workers.
///
/// Cheap to call per run: the rayon shim keeps one persistent named
/// worker set per thread count, so after the first request for a given
/// `threads` this is a map lookup — estimation paths no longer pay
/// thread-spawn latency on every invocation, and `install` pins the whole
/// computation (splitting, stealing, ambient `current_num_threads`) to
/// that worker set.
pub(crate) fn make_pool(threads: usize) -> Result<rayon::ThreadPool, StkdeError> {
    if threads == 0 {
        return Err(StkdeError::InvalidConfig("threads must be > 0".into()));
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| StkdeError::InvalidConfig(format!("failed to build thread pool: {e}")))
}

/// Split `len` items into `parts` contiguous chunks; returns the
/// `[start, end)` bounds of chunk `i`.
#[inline]
pub(crate) fn chunk_bounds(len: usize, parts: usize, i: usize) -> (usize, usize) {
    let chunk = len.div_ceil(parts.max(1));
    let start = (i * chunk).min(len);
    let end = ((i + 1) * chunk).min(len);
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_all() {
        for len in [0usize, 1, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let mut total = 0;
                let mut prev_end = 0;
                for i in 0..parts {
                    let (s, e) = chunk_bounds(len, parts, i);
                    assert!(s <= e);
                    assert_eq!(s, prev_end.min(s.max(prev_end)));
                    total += e - s;
                    prev_end = e;
                }
                assert_eq!(total, len, "len={len} parts={parts}");
            }
        }
    }

    #[test]
    fn pool_zero_threads_rejected() {
        assert!(matches!(make_pool(0), Err(StkdeError::InvalidConfig(_))));
    }

    #[test]
    fn pool_has_requested_threads() {
        let pool = make_pool(3).unwrap();
        assert_eq!(pool.current_num_threads(), 3);
    }
}
