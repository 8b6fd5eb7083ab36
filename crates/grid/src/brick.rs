//! Two-level Morton brick storage: the allocation and addressing engine
//! under [`SparseGrid3`](crate::SparseGrid3).
//!
//! # Layout
//!
//! The domain is tiled by fixed **8×8×8 bricks** ([`BRICK_EDGE`]), the
//! unit of allocation: a brick is a `Box<[S; 512]>` payload laid out
//! X-fastest (`((t&7)·8 + (y&7))·8 + (x&7)`), so one disk-chord row
//! segment is a contiguous stride-1 slice — the same access shape the
//! dense `axpy_row` kernel autovectorizes. Bricks are grouped into
//! **8×8×8-brick chunks** ([`CHUNK_EDGE`] = 64 voxels per axis); the slot
//! table is one flat, eagerly allocated `Box<[AtomicPtr<payload>]>` of
//! `nchunks · 512` pointers (8 bytes per empty brick), indexed chunk-major
//! with each chunk's 512-slot segment **Morton-ordered** by
//! [`morton::interleave3_3bit`]`(bx&7, by&7, bt&7)`. Brick addressing is
//! therefore O(1) — three shifts, one 8-entry table lookup per axis, no
//! division — and bricks that are neighbors in space are neighbors in the
//! slot table, so a cylinder's brick set walks a Z-curve instead of
//! striding `nbx·nby` slots apart like the old row-major block table.
//!
//! # Allocation protocol (lock-free, exactly-once)
//!
//! Writers share the table by `&self`; a brick materializes the first
//! time any writer touches it:
//!
//! 1. `load(Acquire)` the slot. Non-null ⇒ some writer already published
//!    this brick; the Acquire pairs with the winner's Release so the
//!    zeroed payload contents are visible.
//! 2. Null ⇒ allocate a zeroed payload and try to install it with
//!    `compare_exchange(null, ptr, AcqRel, Acquire)`.
//! 3. Success ⇒ this writer published the brick (Release makes the
//!    zeroed contents visible to every later Acquire load).
//!    Failure ⇒ another writer won the race: free the local payload,
//!    count a [`cas_races`](BrickTable::cas_races), and use the winner's
//!    pointer (re-read with Acquire by the failed CAS).
//!
//! Each slot is CAS'd from null at most once, so each brick is published
//! **exactly once**; losers never leak (their payload is dropped on the
//! spot) and never observe a half-initialized brick (payloads are zeroed
//! before the Release-publish). The `stkde-analyze` model checker drives
//! this exact path under a deterministic scheduler via the `model`
//! feature seam ([`crate::model`]); the stat counters (`allocated`,
//! `cas_races`) are Relaxed because they are monotone diagnostics with no
//! ordering relationship to payload publication.
//!
//! Payload *writes* are not synchronized here: concurrent writers must
//! target disjoint voxels (the parallel scatter guarantees this by
//! partitioning the time axis into worker-owned slabs). The safe `&mut`
//! API upholds the contract by exclusivity.

use crate::dims::GridDims;
use crate::morton;
use crate::scalar::Scalar;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Voxels per brick axis.
pub const BRICK_EDGE: usize = 8;
/// Voxels per brick (8³).
pub const BRICK_VOLUME: usize = BRICK_EDGE * BRICK_EDGE * BRICK_EDGE;
/// Bricks per chunk axis.
pub const CHUNK_EDGE_BRICKS: usize = 8;
/// Brick slots per chunk (8³), the Morton-ordered segment size.
pub const CHUNK_SLOTS: usize = CHUNK_EDGE_BRICKS * CHUNK_EDGE_BRICKS * CHUNK_EDGE_BRICKS;
/// Voxels per chunk axis (64).
pub const CHUNK_EDGE: usize = BRICK_EDGE * CHUNK_EDGE_BRICKS;

/// One brick's storage: 512 scalars, X-fastest.
pub type BrickPayload<S> = [S; BRICK_VOLUME];

/// The flat Morton-chunked slot table plus allocation state.
///
/// See the [module docs](self) for the layout and the allocation
/// protocol. All coordinate parameters are *voxel* coordinates unless a
/// name says `b*` (brick) or `c*` (chunk).
pub struct BrickTable<S> {
    dims: GridDims,
    /// Bricks per axis (ceil of dims / 8).
    nbx: usize,
    nby: usize,
    nbt: usize,
    /// Chunks per axis (ceil of bricks / 8).
    ncx: usize,
    ncy: usize,
    nct: usize,
    /// `nchunks · 512` slots; null = brick not materialized.
    slots: Box<[AtomicPtr<BrickPayload<S>>]>,
    /// Bricks published so far (Relaxed diagnostic counter).
    allocated: AtomicUsize,
    /// Allocations lost to a concurrent winner (Relaxed diagnostic counter).
    cas_races: AtomicU64,
}

#[inline(always)]
const fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

impl<S: Scalar> BrickTable<S> {
    /// An empty table covering `dims`; allocates only the pointer slots
    /// (8 bytes per brick position, rounded up to whole chunks).
    pub fn new(dims: GridDims) -> Self {
        let nbx = ceil_div(dims.gx, BRICK_EDGE);
        let nby = ceil_div(dims.gy, BRICK_EDGE);
        let nbt = ceil_div(dims.gt, BRICK_EDGE);
        let ncx = ceil_div(nbx, CHUNK_EDGE_BRICKS).max(1);
        let ncy = ceil_div(nby, CHUNK_EDGE_BRICKS).max(1);
        let nct = ceil_div(nbt, CHUNK_EDGE_BRICKS).max(1);
        let slots = (0..ncx * ncy * nct * CHUNK_SLOTS)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect();
        BrickTable {
            dims,
            nbx,
            nby,
            nbt,
            ncx,
            ncy,
            nct,
            slots,
            allocated: AtomicUsize::new(0),
            cas_races: AtomicU64::new(0),
        }
    }

    /// Voxel dimensions this table covers.
    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Brick positions inside the domain (`nbx · nby · nbt`) — the
    /// denominator for occupancy. Out-of-domain slots in partially
    /// covered chunks never allocate.
    #[inline]
    pub fn domain_bricks(&self) -> usize {
        self.nbx * self.nby * self.nbt
    }

    /// Brick grid shape `(nbx, nby, nbt)`.
    #[inline]
    pub fn brick_counts(&self) -> (usize, usize, usize) {
        (self.nbx, self.nby, self.nbt)
    }

    /// Bricks published so far.
    #[inline]
    pub fn allocated(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Brick allocations that lost the install CAS to a concurrent
    /// winner (each loss freed its payload immediately).
    #[inline]
    pub fn cas_races(&self) -> u64 {
        self.cas_races.load(Ordering::Relaxed)
    }

    /// Resident bytes: every pointer slot plus each allocated payload.
    pub fn allocated_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<AtomicPtr<BrickPayload<S>>>()
            + self.allocated() * std::mem::size_of::<BrickPayload<S>>()
    }

    /// Slot index of brick `(bx, by, bt)`: chunk-major outer index,
    /// Morton-ordered within the chunk.
    #[inline(always)]
    fn slot_index(&self, bx: usize, by: usize, bt: usize) -> usize {
        let chunk = ((bt >> 3) * self.ncy + (by >> 3)) * self.ncx + (bx >> 3);
        chunk * CHUNK_SLOTS + morton::interleave3_3bit(bx, by, bt)
    }

    /// In-payload offset of voxel `(x, y, t)` within its brick.
    #[inline(always)]
    const fn cell_offset(x: usize, y: usize, t: usize) -> usize {
        ((t & 7) * BRICK_EDGE + (y & 7)) * BRICK_EDGE + (x & 7)
    }

    /// The brick payload at `slot`, or null if not materialized.
    /// Acquire pairs with the publisher's Release.
    #[inline(always)]
    fn payload(&self, slot: usize) -> *mut BrickPayload<S> {
        self.slots[slot].load(Ordering::Acquire)
    }

    /// Quiescent (non-atomic) slot read for the hot read path.
    ///
    /// Atomic loads cannot be coalesced by the compiler, so an X-fastest
    /// sweep through [`get`](Self::get) would reload the same slot for
    /// all 8 voxels of a brick row. Reads are only reachable while no
    /// shared writer exists — the writer entry points are `unsafe` and
    /// their contract excludes concurrent readers, and any completed
    /// writer handoff (thread join, pool barrier, `&mut` reborrow)
    /// already synchronizes-with this thread — so a plain load is
    /// race-free and lets LLVM hoist it per brick row.
    ///
    /// `slot` must come from [`slot_index`](Self::slot_index) on
    /// in-bounds brick coordinates, which is always `< slots.len()` by
    /// construction; the bound is not re-checked here because LLVM
    /// cannot see through the `div_ceil` table sizing.
    #[inline(always)]
    fn payload_quiescent(&self, slot: usize) -> *mut BrickPayload<S> {
        debug_assert!(slot < self.slots.len());
        // SAFETY: `slot < slots.len()` per the invariant above, and no
        // concurrent slot writes can exist while a reader runs, so the
        // plain load through `as_ptr` cannot race.
        unsafe { *self.slots.get_unchecked(slot).as_ptr() }
    }

    /// The brick payload at `slot`, materializing it via the CAS
    /// protocol if needed (steps 1–3 of the module docs).
    #[inline]
    fn payload_or_alloc(&self, slot: usize) -> *mut BrickPayload<S> {
        let cell = &self.slots[slot];
        crate::model::yield_point("brick.slot_load");
        let cur = cell.load(Ordering::Acquire);
        if !cur.is_null() {
            return cur;
        }
        self.install_payload(cell)
    }

    /// Slow path: allocate a zeroed payload and race to install it.
    #[cold]
    fn install_payload(&self, cell: &AtomicPtr<BrickPayload<S>>) -> *mut BrickPayload<S> {
        let fresh = Box::into_raw(Box::new([S::ZERO; BRICK_VOLUME]));
        crate::model::yield_point("brick.slot_cas");
        match cell.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                self.allocated.fetch_add(1, Ordering::Relaxed);
                fresh
            }
            Err(winner) => {
                // SAFETY: `fresh` came from `Box::into_raw` above and was
                // never published (the CAS failed), so reclaiming it here
                // is unique ownership.
                drop(unsafe { Box::from_raw(fresh) });
                self.cas_races.fetch_add(1, Ordering::Relaxed);
                winner
            }
        }
    }

    /// Read voxel `(x, y, t)`; un-materialized bricks read as zero.
    ///
    /// This is a *quiescent* read: it must not run concurrently with the
    /// `unsafe` shared-write entry points (their safety contracts forbid
    /// it). The safe `&mut`-based write API can never overlap a read.
    #[inline]
    pub fn get(&self, x: usize, y: usize, t: usize) -> S {
        assert!(x < self.dims.gx && y < self.dims.gy && t < self.dims.gt);
        let p = self.payload_quiescent(self.slot_index(x >> 3, y >> 3, t >> 3));
        if p.is_null() {
            S::ZERO
        } else {
            // SAFETY: non-null slot pointers are valid payloads published
            // by `install_payload`; `cell_offset` is < BRICK_VOLUME.
            unsafe { (*p)[Self::cell_offset(x, y, t)] }
        }
    }

    /// Add `v` to voxel `(x, y, t)` through the concurrent write path.
    ///
    /// # Safety
    /// Concurrent callers must target disjoint voxels. Brick slots may
    /// race (the CAS protocol resolves that); payload cells must not.
    /// No read (e.g. [`get`](Self::get)) may run concurrently with any
    /// shared writer — reads use quiescent non-atomic slot loads.
    #[inline]
    pub unsafe fn add_shared(&self, x: usize, y: usize, t: usize, v: S) {
        assert!(
            x < self.dims.gx && y < self.dims.gy && t < self.dims.gt,
            "voxel ({x},{y},{t}) out of bounds for {:?}",
            self.dims
        );
        let p = self.payload_or_alloc(self.slot_index(x >> 3, y >> 3, t >> 3));
        // SAFETY: payload is valid (just materialized or published); the
        // caller guarantees no concurrent writer targets this voxel.
        unsafe {
            let payload = &mut *p;
            payload[Self::cell_offset(x, y, t)] += v;
        }
    }

    /// Apply `f(segment, src_offset)` to each brick-row segment of the
    /// voxel row `(y, t, x0 .. x0 + len)`, materializing bricks on the
    /// way. `segment` is a stride-1 `&mut [S]` inside one brick;
    /// `src_offset` is the segment's offset from `x0`.
    ///
    /// # Safety
    /// Concurrent callers must target disjoint voxels, and no read may
    /// overlap the writing phase (see [`add_shared`](Self::add_shared)).
    #[inline]
    pub unsafe fn row_segments_shared(
        &self,
        y: usize,
        t: usize,
        x0: usize,
        len: usize,
        mut f: impl FnMut(&mut [S], usize),
    ) {
        if len == 0 {
            return;
        }
        let end = x0 + len;
        assert!(
            end <= self.dims.gx && y < self.dims.gy && t < self.dims.gt,
            "row ({y},{t},{x0}..{end}) out of bounds for {:?}",
            self.dims
        );
        let (by, bt) = (y >> 3, t >> 3);
        let row_base = ((t & 7) * BRICK_EDGE + (y & 7)) * BRICK_EDGE;
        let mut x = x0;
        while x < end {
            let lx = x & 7;
            let seg = (BRICK_EDGE - lx).min(end - x);
            let p = self.payload_or_alloc(self.slot_index(x >> 3, by, bt));
            // SAFETY: payload is valid; `row_base + lx + seg` ≤
            // BRICK_VOLUME by construction; the caller guarantees voxel
            // disjointness across concurrent writers.
            let dst = unsafe { &mut (*p).as_mut_slice()[row_base + lx..row_base + lx + seg] };
            f(dst, x - x0);
            x += seg;
        }
    }

    /// Visit every materialized brick as `(bx, by, bt, payload)`, in
    /// row-major brick order (`bt` outer, `bx` inner). Payload cells
    /// beyond the domain boundary (partial edge bricks) are never
    /// written and read as zero.
    ///
    /// Visiting row-major rather than in slot (Morton) order keeps
    /// consumers that stream into row-major destinations — dense
    /// assembly above all — writing linearly; the extra `slot_index`
    /// per brick is amortized over its 512 cells.
    pub fn for_each_brick(&self, mut f: impl FnMut(usize, usize, usize, &[S])) {
        for bt in 0..self.nbt {
            for by in 0..self.nby {
                for bx in 0..self.nbx {
                    let p = self.payload(self.slot_index(bx, by, bt));
                    if p.is_null() {
                        continue;
                    }
                    // SAFETY: non-null slot pointers are valid payloads;
                    // the shared reference to `self` plus the writer
                    // contract keep the payload alive and un-raced for
                    // the duration of `f`.
                    let payload: &[S] = unsafe { (*p).as_slice() };
                    f(bx, by, bt, payload);
                }
            }
        }
    }
}

impl<S> Drop for BrickTable<S> {
    fn drop(&mut self) {
        for cell in self.slots.iter_mut() {
            let p = *cell.get_mut();
            if !p.is_null() {
                // SAFETY: `p` came from `Box::into_raw` in
                // `install_payload` and `&mut self` proves no other
                // reference to it exists.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

impl<S: Scalar> Clone for BrickTable<S> {
    fn clone(&self) -> Self {
        let slots = self
            .slots
            .iter()
            .map(|cell| {
                let p = cell.load(Ordering::Acquire);
                if p.is_null() {
                    AtomicPtr::new(ptr::null_mut())
                } else {
                    // SAFETY: non-null slots hold valid published
                    // payloads; the shared borrow plus the writer
                    // contract (no concurrent writers during clone)
                    // make the copy safe. `S: Scalar` is `Copy`.
                    AtomicPtr::new(Box::into_raw(Box::new(unsafe { *p })))
                }
            })
            .collect();
        BrickTable {
            dims: self.dims,
            nbx: self.nbx,
            nby: self.nby,
            nbt: self.nbt,
            ncx: self.ncx,
            ncy: self.ncy,
            nct: self.nct,
            slots,
            allocated: AtomicUsize::new(self.allocated()),
            cas_races: AtomicU64::new(self.cas_races()),
        }
    }
}

impl<S: Scalar> std::fmt::Debug for BrickTable<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrickTable")
            .field("dims", &self.dims)
            .field("bricks", &(self.nbx, self.nby, self.nbt))
            .field("chunks", &(self.ncx, self.ncy, self.nct))
            .field("allocated", &self.allocated())
            .field("cas_races", &self.cas_races())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_indices_are_unique_and_dense_within_chunks() {
        let t = BrickTable::<f32>::new(GridDims::new(100, 60, 30));
        let (nbx, nby, nbt) = t.brick_counts();
        assert_eq!((nbx, nby, nbt), (13, 8, 4));
        let mut seen = std::collections::HashSet::new();
        for bt in 0..nbt {
            for by in 0..nby {
                for bx in 0..nbx {
                    assert!(seen.insert(t.slot_index(bx, by, bt)), "collision");
                }
            }
        }
        assert!(seen.iter().all(|&s| s < t.slots.len()));
    }

    #[test]
    fn neighbors_within_a_chunk_stay_close_in_the_table() {
        // Morton property: the 8 bricks of any aligned 2×2×2 neighborhood
        // occupy 8 consecutive slots.
        let t = BrickTable::<f32>::new(GridDims::new(64, 64, 64));
        let base = t.slot_index(2, 4, 6);
        let mut idx: Vec<_> = (0..8)
            .map(|i| t.slot_index(2 + (i & 1), 4 + ((i >> 1) & 1), 6 + (i >> 2)))
            .collect();
        idx.sort_unstable();
        assert_eq!(idx, (base..base + 8).collect::<Vec<_>>());
    }

    #[test]
    fn get_add_roundtrip_and_alloc_counting() {
        let t = BrickTable::<f64>::new(GridDims::new(20, 20, 20));
        assert_eq!(t.get(19, 19, 19), 0.0);
        assert_eq!(t.allocated(), 0);
        // SAFETY: single-threaded test — voxels trivially disjoint.
        unsafe {
            t.add_shared(3, 4, 5, 1.5);
            t.add_shared(3, 4, 5, 0.25);
            t.add_shared(19, 19, 19, 2.0);
        }
        assert_eq!(t.get(3, 4, 5), 1.75);
        assert_eq!(t.get(19, 19, 19), 2.0);
        assert_eq!(t.allocated(), 2);
        assert_eq!(t.cas_races(), 0);
    }

    #[test]
    fn row_segments_split_on_brick_boundaries() {
        let t = BrickTable::<f32>::new(GridDims::new(40, 8, 8));
        let mut cuts = Vec::new();
        // Row from x=5 to x=21 crosses bricks 0, 1, 2.
        // SAFETY: single-threaded test.
        unsafe {
            t.row_segments_shared(2, 3, 5, 16, |seg, off| {
                cuts.push((off, seg.len()));
                for v in seg.iter_mut() {
                    *v += 1.0;
                }
            });
        }
        assert_eq!(cuts, vec![(0, 3), (3, 8), (11, 5)]);
        for x in 0..40 {
            let want = if (5..21).contains(&x) { 1.0 } else { 0.0 };
            assert_eq!(t.get(x, 2, 3), want, "x={x}");
        }
        assert_eq!(t.allocated(), 3);
    }

    #[test]
    fn concurrent_writers_allocate_each_brick_exactly_once() {
        // Hammer one brick column from many threads writing disjoint
        // voxels; every brick must be published exactly once and no
        // write may be lost.
        let t = BrickTable::<f64>::new(GridDims::new(8, 8, 64));
        std::thread::scope(|s| {
            for w in 0..8usize {
                let t = &t;
                s.spawn(move || {
                    for tz in 0..64 {
                        // Worker w owns row y=w of every layer.
                        // SAFETY: (x, w, tz) voxel sets are disjoint
                        // across workers.
                        unsafe {
                            for x in 0..8 {
                                t.add_shared(x, w, tz, (w * 100 + tz) as f64);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(t.allocated(), 8, "8 bricks along t, each exactly once");
        for w in 0..8 {
            for tz in 0..64 {
                for x in 0..8 {
                    assert_eq!(t.get(x, w, tz), (w * 100 + tz) as f64);
                }
            }
        }
    }

    #[test]
    fn clone_is_deep_and_drop_frees_losers() {
        let t = BrickTable::<f32>::new(GridDims::new(16, 16, 16));
        // SAFETY: single-threaded test.
        unsafe { t.add_shared(1, 1, 1, 3.0) };
        let c = t.clone();
        // SAFETY: single-threaded test.
        unsafe { t.add_shared(1, 1, 1, 4.0) };
        assert_eq!(t.get(1, 1, 1), 7.0);
        assert_eq!(c.get(1, 1, 1), 3.0, "clone must not alias");
        assert_eq!(c.allocated(), 1);
    }

    #[test]
    fn bytes_account_for_slots_and_payloads() {
        let t = BrickTable::<f32>::new(GridDims::new(64, 64, 64));
        let empty = t.allocated_bytes();
        assert_eq!(empty, 512 * 8, "one chunk of pointer slots");
        // SAFETY: single-threaded test.
        unsafe { t.add_shared(0, 0, 0, 1.0) };
        assert_eq!(t.allocated_bytes(), empty + 512 * 4);
    }
}
