//! Instrumentation seam for the `stkde-analyze` concurrency model
//! checker, mirroring the seam in the `rayon` shim. The module exists
//! only with the `model` feature, which only `[dev-dependencies]` turn
//! on: it is test support.
//!
//! The brick slot-allocation protocol (`crate::brick`) calls
//! `yield_point` immediately before each shared-memory access that
//! participates in the allocation race (the published-slot load and the
//! install CAS). Without the `model` feature the call compiles to
//! nothing. With it, the call consults a *thread-local* hook: threads
//! spawned by the model checker install a hook that parks the thread
//! until the checker's deterministic scheduler grants the next step,
//! turning "which writer wins the brick CAS" into an enumerable choice.
//! Threads without a hook (real workers, even in instrumented builds)
//! pay one thread-local read per yield point and continue immediately.
//!
//! The module also exposes [`TestSparse`], a thin `Arc`-shared facade
//! over a real [`SparseGrid3`] so checker scenarios can drive the
//! *actual* CAS allocation path from multiple model threads rather than
//! a port of it.

use crate::{GridDims, SparseGrid3};
use std::cell::RefCell;
use std::sync::Arc;

type Hook = Box<dyn Fn(&'static str)>;

thread_local! {
    static HOOK: RefCell<Option<Hook>> = const { RefCell::new(None) };
}

pub(crate) fn yield_point(label: &'static str) {
    HOOK.with(|h| {
        // `try_borrow`: a hook that itself trips a yield point must
        // not re-enter.
        if let Ok(guard) = h.try_borrow() {
            if let Some(hook) = guard.as_ref() {
                hook(label);
            }
        }
    });
}

/// Install this thread's scheduler hook; model-checker threads call
/// this first thing.
pub fn set_yield_hook(hook: Hook) {
    HOOK.with(|h| *h.borrow_mut() = Some(hook));
}

/// Remove this thread's hook (end of a model run).
pub fn clear_yield_hook() {
    HOOK.with(|h| *h.borrow_mut() = None);
}

/// A real [`SparseGrid3<f64>`] behind an `Arc`, with the shared-writer
/// entry points surfaced so model scenarios can race two writers
/// through the genuine CAS-on-brick-slot allocation path.
#[derive(Clone)]
pub struct TestSparse {
    inner: Arc<SparseGrid3<f64>>,
}

impl TestSparse {
    /// An empty sparse grid over `gx × gy × gt` voxels.
    pub fn new(gx: usize, gy: usize, gt: usize) -> Self {
        TestSparse {
            inner: Arc::new(SparseGrid3::new(GridDims::new(gx, gy, gt))),
        }
    }

    /// Add `v` to voxel `(x, y, t)` through the concurrent write path
    /// (slot load → CAS-install on miss → payload write).
    ///
    /// # Safety
    /// The scenario must guarantee no two threads target the same
    /// voxel concurrently (brick *slots* may race — that is the point
    /// — but payload cells must be disjoint).
    pub unsafe fn add_racing(&self, x: usize, y: usize, t: usize, v: f64) {
        // SAFETY: forwarded — the scenario keeps voxels disjoint.
        unsafe { self.inner.table().add_shared(x, y, t, v) };
    }

    /// Read voxel `(x, y, t)`.
    pub fn get(&self, x: usize, y: usize, t: usize) -> f64 {
        self.inner.get(x, y, t)
    }

    /// Bricks materialized so far.
    pub fn allocated_bricks(&self) -> usize {
        self.inner.allocated_bricks()
    }

    /// Allocations lost to a concurrent winner.
    pub fn cas_races(&self) -> u64 {
        self.inner.alloc_cas_races()
    }
}
