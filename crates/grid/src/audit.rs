//! Test-time validation of the disjoint-write contract of
//! [`SharedGrid`](crate::SharedGrid). Test support: the module exists only
//! in test builds and with the `model` feature.

use crate::range::VoxelRange;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Test-time validator for the disjoint-write contract of
/// [`SharedGrid`](crate::SharedGrid).
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
