//! Dense 3-D voxel grid.

use crate::dims::GridDims;
use crate::scalar::Scalar;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// A dense 3-D grid of scalars with X-fastest flat layout
/// (`idx = (T·Gy + Y)·Gx + X`).
///
/// This is the `stkde[X][Y][T]` array of the paper's pseudocode. The
/// initialization cost `Θ(Gx·Gy·Gt)` that dominates sparse instances
/// (Figure 7) is exactly the cost of [`Grid3::zeros_touched`] /
/// [`Grid3::zeros_parallel`].
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3<S> {
    dims: GridDims,
    data: Vec<S>,
}

/// The transparent-huge-page size of the hosts this runs on (x86-64, and
/// aarch64 with a 4-KiB granule). Advice is given on whole multiples of it.
const HUGE_PAGE: usize = 2 << 20;

/// Bytes [`advise_huge_pages`] handed to the kernel, and calls it saw
/// refused, since the last [`take_hugepage_tally`]. SeqCst: bumped once
/// per grid, so the strongest ordering costs nothing.
static ADVISED_BYTES: AtomicU64 = AtomicU64::new(0);
static REFUSED_CALLS: AtomicU64 = AtomicU64::new(0);

/// Drain the process-wide huge-page tallies: `(bytes advised, advice calls
/// refused)` since the previous call. `stkde-core` adds them to the
/// `stkde_grid_hugepage_*` counters after each run (this crate carries no
/// obs dependency); concurrent drains each see a disjoint share, so the
/// published totals are exact.
pub fn take_hugepage_tally() -> (u64, u64) {
    (
        ADVISED_BYTES.swap(0, Ordering::SeqCst),
        REFUSED_CALLS.swap(0, Ordering::SeqCst),
    )
}

/// `true` when the host's transparent-huge-page mode is `never`: the
/// kernel then accepts `MADV_HUGEPAGE` and ignores it, which the return
/// value cannot show.
#[cfg(target_os = "linux")]
fn thp_disabled() -> bool {
    static DISABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DISABLED.get_or_init(|| {
        std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .is_ok_and(|mode| mode.contains("[never]"))
    })
}

/// Ask the kernel to back the huge-page-aligned interior of `data` with
/// 2-MiB pages, so the sweep that follows takes one page fault per 2 MiB
/// instead of one per 4 KiB. A hint: buffers that contain no aligned huge
/// page skip it, a refusal is counted and otherwise ignored, and the
/// contents of `data` are never read or changed.
#[cfg(target_os = "linux")]
fn advise_huge_pages<S>(data: &mut [S]) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;

    let range = data.as_mut_ptr_range();
    let start = (range.start as usize).next_multiple_of(HUGE_PAGE);
    let end = range.end as usize / HUGE_PAGE * HUGE_PAGE;
    if start >= end {
        return;
    }
    // SAFETY: `[start, end)` lies inside the live allocation behind
    // `data`, which this call borrows exclusively, and MADV_HUGEPAGE only
    // sets a flag on the mapping: it neither reads, writes nor unmaps the
    // pages, so every Rust-visible property of the buffer is unchanged.
    let refused = unsafe { madvise(start as *mut c_void, end - start, MADV_HUGEPAGE) } != 0;
    if refused || thp_disabled() {
        REFUSED_CALLS.fetch_add(1, Ordering::SeqCst);
    } else {
        ADVISED_BYTES.fetch_add((end - start) as u64, Ordering::SeqCst);
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages<S>(_data: &mut [S]) {}

/// `n` scalars of uninitialized storage, advised for huge pages; the
/// caller's sweep must write every one before the buffer is observable.
///
/// The advice sits between `set_len` and the sweep on purpose: without an
/// opaque call there LLVM folds "allocate, then store zeros everywhere"
/// into a lazy `alloc_zeroed` (it does in a standalone build), which is
/// [`Grid3::zeros`] — the first touch would move back into the scatter.
fn first_touch_buffer<S: Scalar>(n: usize) -> Vec<S> {
    let mut data = Vec::with_capacity(n);
    // SAFETY: S is a plain Copy scalar (no drop, every bit pattern of its
    // integer or IEEE storage is a value), and both callers overwrite all
    // of `0..n` before the Vec leaves their function.
    #[allow(clippy::uninit_vec)]
    unsafe {
        data.set_len(n);
    }
    advise_huge_pages(&mut data);
    data
}

impl<S: Scalar> Grid3<S> {
    /// Allocate zeroed storage and leave the first touch to whoever
    /// writes a page first.
    ///
    /// Uses `vec![0; n]`, which lets the OS provide lazily zeroed 4-KiB
    /// pages. Right for small, long-lived cubes (the serve tier's 512-KiB
    /// slabs, the incremental estimator) and for tests. Wrong for a large
    /// grid that a scatter is about to fill: every page then faults in
    /// scatter order, one 4-KiB fault at a time — measured 1.4× slower than
    /// [`Grid3::zeros_touched`] sequentially and 6.5× slower on two
    /// threads on the 88-MiB `batch_sparse` grid.
    pub fn zeros(dims: GridDims) -> Self {
        Self {
            dims,
            data: vec![S::ZERO; dims.volume()],
        }
    }

    /// Allocate and zero-initialize with an explicit sequential write
    /// sweep (first touch happens here, not lazily at first use).
    ///
    /// This matches the paper's reference implementation, whose algorithms
    /// all begin with `for all voxels: stkde[X][Y][T] = 0` — the `Θ(G)`
    /// initialization term of the complexity analysis — so the measured
    /// init/compute split reflects the paper's. Before the sweep the
    /// buffer's interior is advised `MADV_HUGEPAGE` (Linux; a grid below
    /// 2 MiB skips it): the cost of first touch is the page faults, not the
    /// zero writes, and a huge page takes one fault where 4-KiB pages take
    /// 512 (88 MiB inside PB-SYM: 41 ms → 12 ms). When the host refuses
    /// huge pages the sweep is the same code at the old speed.
    pub fn zeros_touched(dims: GridDims) -> Self {
        let mut data = first_touch_buffer(dims.volume());
        for v in data.iter_mut() {
            *v = S::ZERO;
        }
        Self { dims, data }
    }

    /// Allocate and zero-initialize with a parallel first-touch sweep,
    /// on huge pages like [`Grid3::zeros_touched`].
    ///
    /// The paper (§6.3) observes that memory initialization parallelizes
    /// poorly (≈3× on 16 threads) because page faults serialize in the OS.
    /// On huge pages what is left is the kernel zeroing 2 MiB per fault,
    /// which is bandwidth-bound: on the 2-vCPU benchmark host two threads
    /// buy at most 1.5× (88 MiB: 8–10 ms inside the pool against 12–14 ms
    /// sequentially, and nothing at all in a tight allocate/free loop,
    /// where both take 8–9 ms). The parallel algorithms use it first for
    /// page *placement* — each page is first touched, and on a NUMA host
    /// allocated, from the pool that is about to scatter into it — and
    /// only second for speed.
    pub fn zeros_parallel(dims: GridDims) -> Self {
        let n = dims.volume();
        let mut data = first_touch_buffer(n);
        let chunk = (n / (rayon::current_num_threads() * 8)).max(4096);
        data.par_chunks_mut(chunk).for_each(|c| {
            for v in c {
                *v = S::ZERO;
            }
        });
        Self { dims, data }
    }

    /// Build a grid from existing data.
    ///
    /// # Panics
    /// Panics if `data.len() != dims.volume()`.
    pub fn from_vec(dims: GridDims, data: Vec<S>) -> Self {
        assert_eq!(data.len(), dims.volume(), "data length must match dims");
        Self { dims, data }
    }

    /// Grid dimensions.
    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Value at voxel `(x, y, t)`.
    #[inline(always)]
    pub fn get(&self, x: usize, y: usize, t: usize) -> S {
        self.data[self.dims.idx(x, y, t)]
    }

    /// Mutable reference to voxel `(x, y, t)`.
    #[inline(always)]
    pub fn get_mut(&mut self, x: usize, y: usize, t: usize) -> &mut S {
        let i = self.dims.idx(x, y, t);
        &mut self.data[i]
    }

    /// Add `v` to voxel `(x, y, t)`.
    #[inline(always)]
    pub fn add(&mut self, x: usize, y: usize, t: usize, v: S) {
        let i = self.dims.idx(x, y, t);
        self.data[i] += v;
    }

    /// Heap bytes held by the backing storage (capacity, not length —
    /// what the allocator actually charged). The serve tier reports
    /// this as the `stkde_cube_bytes` gauge.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<S>()
    }

    /// The full backing slice in layout order.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// The full backing slice, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Consume the grid, returning the backing vector.
    pub fn into_vec(self) -> Vec<S> {
        self.data
    }

    /// The contiguous X-row at fixed `(y, t)`, restricted to `x ∈ [x0, x1)`.
    #[inline]
    pub fn row(&self, y: usize, t: usize, x0: usize, x1: usize) -> &[S] {
        let base = self.dims.idx(0, y, t);
        &self.data[base + x0..base + x1]
    }

    /// The contiguous X-row at fixed `(y, t)`, mutable.
    #[inline]
    pub(crate) fn row_mut(&mut self, y: usize, t: usize, x0: usize, x1: usize) -> &mut [S] {
        let base = self.dims.idx(0, y, t);
        &mut self.data[base + x0..base + x1]
    }

    /// The 2-D time slice at `t` as a contiguous slice of length `Gx·Gy`.
    pub fn time_slice(&self, t: usize) -> &[S] {
        let n = self.dims.gx * self.dims.gy;
        &self.data[t * n..(t + 1) * n]
    }

    /// Maximum absolute difference against another grid of the same shape.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.dims, other.dims, "grid shapes must match");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Maximum relative difference against another grid, with `atol`
    /// absolute floor (differences below `atol` count as zero).
    pub fn max_rel_diff(&self, other: &Self, atol: f64) -> f64 {
        assert_eq!(self.dims, other.dims, "grid shapes must match");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let (a, b) = (a.to_f64(), b.to_f64());
                let d = (a - b).abs();
                if d <= atol {
                    0.0
                } else {
                    d / a.abs().max(b.abs()).max(atol)
                }
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_get() {
        let g: Grid3<f64> = Grid3::zeros(GridDims::new(3, 4, 5));
        assert_eq!(g.dims().volume(), 60);
        assert_eq!(g.get(2, 3, 4), 0.0);
    }

    #[test]
    fn zeros_parallel_equals_zeros() {
        let dims = GridDims::new(17, 13, 11);
        let a: Grid3<f32> = Grid3::zeros(dims);
        let b: Grid3<f32> = Grid3::zeros_parallel(dims);
        assert_eq!(a, b);
    }

    /// Odd dims, so neither end of the buffer is huge-page aligned, and
    /// big enough (4.2 MiB of `f32`, 8.4 MiB of `f64`) that an aligned huge
    /// page lies inside. One test owns every assertion on the
    /// process-wide tallies; no other test of this crate builds a grid
    /// that reaches the advice.
    #[test]
    fn first_touch_on_advised_pages_equals_zeros() {
        fn check<S: Scalar + std::fmt::Debug>(dims: GridDims) {
            take_hugepage_tally();
            let touched: Grid3<S> = Grid3::zeros_touched(dims);
            let mut parallel: Grid3<S> = Grid3::zeros_parallel(dims);
            assert_eq!(touched, Grid3::zeros(dims));
            assert_eq!(parallel, touched);
            let (advised, refused) = take_hugepage_tally();
            assert_eq!(advised % HUGE_PAGE as u64, 0);
            assert!(advised <= 2 * (dims.volume() * std::mem::size_of::<S>()) as u64);
            if cfg!(target_os = "linux") {
                assert!(
                    (advised > 0) != (refused > 0),
                    "two grids, one verdict: advised {advised} B, refused {refused}"
                );
            }
            // Every voxel is writable and holds what was written.
            parallel.as_mut_slice().fill(S::from_f64(1.0));
            let sum: f64 = parallel.as_slice().iter().map(|v| v.to_f64()).sum();
            assert_eq!(sum, dims.volume() as f64);
        }
        let dims = GridDims::new(127, 129, 67);
        check::<f32>(dims);
        check::<f64>(dims);

        // A start that is not even scalar-aligned to a page: the advised
        // range shrinks to whole huge pages inside the slice.
        let mut buf = vec![0.0f64; dims.volume()];
        let tail = &mut buf[3..];
        let tail_bytes = std::mem::size_of_val(tail) as u64;
        advise_huge_pages(tail);
        let (advised, _) = take_hugepage_tally();
        assert!(advised % HUGE_PAGE as u64 == 0 && advised <= tail_bytes);
        assert!(buf.iter().all(|&v| v == 0.0));

        // Below one huge page there is nothing to advise.
        let small: Grid3<f32> = Grid3::zeros_touched(GridDims::new(17, 13, 11));
        assert_eq!(small, Grid3::zeros_parallel(small.dims()));
        assert_eq!(take_hugepage_tally(), (0, 0));
    }

    #[test]
    fn add_and_get_roundtrip() {
        let mut g: Grid3<f64> = Grid3::zeros(GridDims::new(4, 4, 4));
        g.add(1, 2, 3, 2.5);
        g.add(1, 2, 3, 0.5);
        assert_eq!(g.get(1, 2, 3), 3.0);
        assert_eq!(g.get(0, 0, 0), 0.0);
    }

    #[test]
    fn row_is_contiguous_x() {
        let mut g: Grid3<f64> = Grid3::zeros(GridDims::new(5, 3, 2));
        for x in 0..5 {
            g.add(x, 1, 1, x as f64);
        }
        assert_eq!(g.row(1, 1, 1, 4), &[1.0, 2.0, 3.0]);
        g.row_mut(1, 1, 0, 5)[0] = 9.0;
        assert_eq!(g.get(0, 1, 1), 9.0);
    }

    #[test]
    fn time_slice_has_expected_len_and_content() {
        let mut g: Grid3<f32> = Grid3::zeros(GridDims::new(3, 2, 4));
        g.add(2, 1, 3, 7.0);
        let s = g.time_slice(3);
        assert_eq!(s.len(), 6);
        assert_eq!(s[3 + 2], 7.0);
        assert!(g.time_slice(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn diffs() {
        let dims = GridDims::new(2, 2, 2);
        let mut a: Grid3<f64> = Grid3::zeros(dims);
        let mut b: Grid3<f64> = Grid3::zeros(dims);
        a.add(0, 0, 0, 1.0);
        b.add(0, 0, 0, 1.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
        assert!(a.max_rel_diff(&b, 1e-12) > 0.3);
        assert_eq!(a.max_rel_diff(&a.clone(), 1e-12), 0.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_wrong_len_panics() {
        let _ = Grid3::from_vec(GridDims::new(2, 2, 2), vec![0.0f64; 7]);
    }
}
