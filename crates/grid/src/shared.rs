//! Concurrent writes to provably disjoint voxel regions.
//!
//! The domain-decomposed (`PB-SYM-DD`) and point-decomposed (`PB-SYM-PD*`)
//! parallel algorithms have multiple threads accumulating into one shared
//! grid. They are race-free *by construction*:
//!
//! * **DD** clips every cylinder to its own subdomain, and subdomains are
//!   disjoint;
//! * **PD** only runs subdomains concurrently when they are non-adjacent in
//!   the A×B×C lattice, and subdomains are at least `2·Hs` / `2·Ht` voxels
//!   wide, so the influence halos of concurrently processed subdomains
//!   cannot overlap (§5.1 of the paper).
//!
//! Rust cannot see either argument through the type system, so this module
//! concentrates the workspace's *only* `unsafe` code: [`SharedGrid`] hands
//! out raw mutable rows under a documented disjointness contract, and
//! [`WriteAudit`] is a test-time checker that *validates* the contract by
//! recording concurrent region claims and failing on overlap.

use crate::dims::GridDims;
use crate::grid3::Grid3;
use crate::range::VoxelRange;
use crate::scalar::Scalar;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A shared view of a [`Grid3`] allowing concurrent writes to disjoint
/// regions from multiple threads.
///
/// Created by [`SharedGrid::new`], which borrows the grid mutably for the
/// lifetime of the view, so no safe alias can exist concurrently.
pub struct SharedGrid<'a, S> {
    data: &'a UnsafeCell<[S]>,
    dims: GridDims,
}

// SAFETY: `SharedGrid` only allows mutation through `unsafe` methods whose
// contract requires callers to access disjoint voxel regions from distinct
// threads. Under that contract there are no data races, making it sound to
// share the view across threads.
unsafe impl<S: Scalar> Send for SharedGrid<'_, S> {}
// SAFETY: same argument as Send above — all mutation goes through unsafe
// methods whose contracts require disjoint regions, so shared references
// across threads cannot race.
unsafe impl<S: Scalar> Sync for SharedGrid<'_, S> {}

impl<'a, S: Scalar> SharedGrid<'a, S> {
    /// Create a shared view over `grid`.
    pub fn new(grid: &'a mut Grid3<S>) -> Self {
        let dims = grid.dims();
        let slice: &'a mut [S] = grid.as_mut_slice();
        // SAFETY: `UnsafeCell<[S]>` has the same layout as `[S]`
        // (`UnsafeCell` is `repr(transparent)`), and we hold the unique
        // mutable borrow, so re-interpreting the slice is sound.
        let data = unsafe { &*(slice as *mut [S] as *const UnsafeCell<[S]>) };
        Self { data, dims }
    }

    /// Grid dimensions.
    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Add `v` to voxel `(x, y, t)`.
    ///
    /// # Safety
    /// No other thread may concurrently access any voxel region containing
    /// `(x, y, t)`.
    #[inline(always)]
    pub unsafe fn add(&self, x: usize, y: usize, t: usize, v: S) {
        let i = self.dims.idx(x, y, t);
        // SAFETY: in-bounds per `idx`'s debug assert; exclusivity per the
        // caller contract above.
        unsafe {
            let p = (self.data.get() as *mut S).add(i);
            *p += v;
        }
    }

    /// Exclusive access to the contiguous X-row at `(y, t)`, `x ∈ [x0, x1)`.
    ///
    /// This is the fast path of the PB-SYM inner loop: the row is stride-1
    /// memory, so `row[x] += Ks[x]·Kt` vectorizes.
    ///
    /// # Safety
    /// * `x0 <= x1 <= Gx`, `y < Gy`, `t < Gt`;
    /// * no other thread may concurrently access any voxel in this row
    ///   segment, and the caller must not hold another reference to it.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, y: usize, t: usize, x0: usize, x1: usize) -> &mut [S] {
        debug_assert!(x0 <= x1 && x1 <= self.dims.gx);
        let base = self.dims.idx(0, y, t);
        // SAFETY: bounds checked above (debug) / guaranteed by the caller;
        // exclusivity of the region per the caller contract.
        unsafe {
            let p = (self.data.get() as *mut S).add(base + x0);
            std::slice::from_raw_parts_mut(p, x1 - x0)
        }
    }
}

/// Test-time validator for the disjoint-write contract of [`SharedGrid`].
///
/// Tasks [`claim`](WriteAudit::claim) the region they are about to write and
/// [`release`](WriteAudit::release) it when done; overlapping *concurrent*
/// claims are recorded as violations. Integration tests run the parallel
/// algorithms with an audit attached to prove the coloring/clipping
/// arguments actually hold (`tests/safety_audit.rs`).
#[derive(Debug)]
pub struct WriteAudit {
    active: Mutex<Vec<(usize, VoxelRange)>>,
    violations: AtomicUsize,
    claims: AtomicUsize,
}

impl WriteAudit {
    /// New empty audit.
    pub fn new() -> Self {
        Self {
            active: Mutex::new(Vec::new()),
            violations: AtomicUsize::new(0),
            claims: AtomicUsize::new(0),
        }
    }

    /// Register that `owner` (an arbitrary task id) is about to write
    /// `region`. Returns `false` (and records a violation) if the region
    /// overlaps a currently claimed region of a *different* owner.
    pub fn claim(&self, owner: usize, region: VoxelRange) -> bool {
        // Relaxed: `claims`/`violations` are diagnostic tallies with no
        // ordering relationship to the writes being audited — the Mutex
        // below is what orders the actual overlap check.
        self.claims.fetch_add(1, Ordering::Relaxed);
        let mut active = self.active.lock().unwrap();
        let overlap = active
            .iter()
            .any(|&(o, r)| o != owner && r.intersects(region));
        active.push((owner, region));
        if overlap {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
        !overlap
    }

    /// Release every region claimed by `owner`.
    pub fn release(&self, owner: usize) {
        let mut active = self.active.lock().unwrap();
        active.retain(|&(o, _)| o != owner);
    }

    /// Number of overlapping concurrent claims observed.
    pub fn violations(&self) -> usize {
        self.violations.load(Ordering::Relaxed)
    }

    /// Total number of claims made.
    pub fn claims(&self) -> usize {
        self.claims.load(Ordering::Relaxed)
    }
}

impl Default for WriteAudit {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn shared_single_thread_add() {
        let dims = GridDims::new(4, 4, 4);
        let mut g: Grid3<f64> = Grid3::zeros(dims);
        {
            let s = SharedGrid::new(&mut g);
            // SAFETY: single thread, trivially exclusive.
            unsafe {
                s.add(1, 1, 1, 2.0);
                s.add(1, 1, 1, 3.0);
            }
        }
        assert_eq!(g.get(1, 1, 1), 5.0);
    }

    #[test]
    fn shared_row_mut_writes_contiguously() {
        let dims = GridDims::new(6, 2, 2);
        let mut g: Grid3<f32> = Grid3::zeros(dims);
        {
            let s = SharedGrid::new(&mut g);
            // SAFETY: single thread.
            let row = unsafe { s.row_mut(1, 1, 2, 5) };
            for (i, v) in row.iter_mut().enumerate() {
                *v += (i + 1) as f32;
            }
        }
        assert_eq!(g.get(2, 1, 1), 1.0);
        assert_eq!(g.get(3, 1, 1), 2.0);
        assert_eq!(g.get(4, 1, 1), 3.0);
        assert_eq!(g.get(5, 1, 1), 0.0);
    }

    #[test]
    fn shared_disjoint_parallel_writes_sum_correctly() {
        let dims = GridDims::new(64, 8, 8);
        let mut g: Grid3<f64> = Grid3::zeros(dims);
        {
            let s = &SharedGrid::new(&mut g);
            std::thread::scope(|scope| {
                // Four threads, each owns a disjoint X-quarter of every row.
                for q in 0..4usize {
                    scope.spawn(move || {
                        for t in 0..8 {
                            for y in 0..8 {
                                // SAFETY: quarter ranges [16q, 16q+16) are
                                // pairwise disjoint across threads.
                                let row = unsafe { s.row_mut(y, t, q * 16, q * 16 + 16) };
                                for v in row {
                                    *v += 1.0;
                                }
                            }
                        }
                    });
                }
            });
        }
        assert!(g.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn audit_flags_concurrent_overlap() {
        let audit = WriteAudit::new();
        let r1 = VoxelRange {
            x0: 0,
            x1: 5,
            y0: 0,
            y1: 5,
            t0: 0,
            t1: 5,
        };
        let r2 = VoxelRange {
            x0: 4,
            x1: 9,
            y0: 0,
            y1: 5,
            t0: 0,
            t1: 5,
        };
        assert!(audit.claim(1, r1));
        assert!(!audit.claim(2, r2)); // overlaps owner 1
        assert_eq!(audit.violations(), 1);
        audit.release(1);
        audit.release(2);
        assert!(audit.claim(3, r1)); // nothing active anymore
        assert_eq!(audit.claims(), 3);
    }

    #[test]
    fn audit_allows_sequential_reuse() {
        let audit = WriteAudit::new();
        let r = VoxelRange {
            x0: 0,
            x1: 2,
            y0: 0,
            y1: 2,
            t0: 0,
            t1: 2,
        };
        assert!(audit.claim(1, r));
        audit.release(1);
        assert!(audit.claim(2, r));
        assert_eq!(audit.violations(), 0);
    }

    #[test]
    fn audit_same_owner_may_overlap_itself() {
        let audit = WriteAudit::new();
        let r = VoxelRange {
            x0: 0,
            x1: 4,
            y0: 0,
            y1: 4,
            t0: 0,
            t1: 4,
        };
        assert!(audit.claim(7, r));
        assert!(audit.claim(7, r));
        assert_eq!(audit.violations(), 0);
    }

    #[test]
    fn shared_grid_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let dims = GridDims::new(2, 2, 2);
        let mut g: Grid3<f32> = Grid3::zeros(dims);
        let s = SharedGrid::new(&mut g);
        assert_send_sync(&s);
        let _ = &s;
        static _FLAG: AtomicBool = AtomicBool::new(false);
    }
}
