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

/// The base page size of the hosts this runs on: one store per `PAGE`
/// bytes faults in every page of a buffer.
const PAGE: usize = 4096;

/// `n` zeros from the allocator, advised for huge pages before anything
/// touches them.
///
/// `vec![S::ZERO; n]` is `alloc_zeroed`: above glibc's mmap threshold the
/// pages come straight from the kernel, which zeroes each one on its first
/// fault, so no zero is written twice; below it `calloc` clears the
/// recycled chunk itself. Either way every voxel reads zero, and
/// [`touch_pages`] is left only the faults.
fn first_touch_buffer<S: Scalar>(n: usize) -> Vec<S> {
    let mut data = vec![S::ZERO; n];
    advise_huge_pages(&mut data);
    data
}

/// Fault in every page behind `chunk` with one zero store per [`PAGE`]
/// bytes and one on its last element, so the page faults land here and
/// not in the scatter that follows.
///
/// The stores are volatile: the buffer came zeroed from the allocator, and
/// LLVM may delete an ordinary zero store into memory it knows came from
/// `calloc`, which would move the faults back into the scatter.
fn touch_pages<S: Scalar>(chunk: &mut [S]) {
    let step = PAGE / std::mem::size_of::<S>();
    let last = chunk.len().checked_sub(1);
    for i in (0..chunk.len()).step_by(step).chain(last) {
        // SAFETY: `i < chunk.len()`, so the pointer is in bounds and
        // aligned for `S`, and `chunk` is borrowed exclusively; storing the
        // zero `S` already holds there changes no value.
        unsafe { std::ptr::write_volatile(chunk.as_mut_ptr().add(i), S::ZERO) };
    }
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

    /// Allocate zeroed storage and fault every page in with a sequential
    /// sweep (first touch happens here, not lazily at first use).
    ///
    /// This stands for the paper's reference implementation, whose
    /// algorithms all begin with `for all voxels: stkde[X][Y][T] = 0` —
    /// the `Θ(G)` initialization term of the complexity analysis — so the
    /// measured init/compute split reflects the paper's. The cost of first
    /// touch is the page faults, not the zero writes: the allocator's pages
    /// already read zero, so the sweep stores one zero per 4-KiB page, and
    /// the buffer's interior is advised `MADV_HUGEPAGE` first (Linux; a grid
    /// below 2 MiB skips it), so a huge page takes one fault where 4-KiB
    /// pages take 512. On the 2-vCPU benchmark host huge pages took 88 MiB
    /// inside PB-SYM from 41 ms to 12 ms, and a store per page instead of
    /// per voxel took a slower session's 26–27 ms to 15–19 ms. When the
    /// host refuses huge pages the sweep is the same code on 4-KiB pages.
    pub fn zeros_touched(dims: GridDims) -> Self {
        let mut data = first_touch_buffer(dims.volume());
        touch_pages(&mut data);
        Self { dims, data }
    }

    /// Allocate and zero-initialize with a parallel first-touch sweep,
    /// on huge pages like [`Grid3::zeros_touched`].
    ///
    /// The paper (§6.3) observes that memory initialization parallelizes
    /// poorly (≈3× on 16 threads) because page faults serialize in the OS.
    /// On huge pages what is left is the kernel zeroing 2 MiB per fault,
    /// which is bandwidth-bound: on the 2-vCPU benchmark host two threads
    /// buy 1.5–1.8× (88 MiB in an allocate/free loop: 9–10 ms on a pool
    /// of two against 16–17 ms sequentially). The parallel algorithms use
    /// it first for page *placement* — each page is first touched, and on
    /// a NUMA host allocated, from the pool that is about to scatter into
    /// it — and only second for speed.
    pub fn zeros_parallel(dims: GridDims) -> Self {
        let n = dims.volume();
        let mut data = first_touch_buffer(n);
        // Every task's chunk spans a whole number of pages.
        let per_page = PAGE / std::mem::size_of::<S>();
        let chunk = (n / (rayon::current_num_threads() * 8))
            .max(4096)
            .next_multiple_of(per_page);
        data.par_chunks_mut(chunk).for_each(touch_pages);
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

    /// Held by every test that builds a grid big enough to reach the
    /// huge-page advice, so the tallies one of them asserts on are its own.
    static ADVICE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Odd dims, so neither end of the buffer is huge-page aligned, and
    /// big enough (4.2 MiB of `f32`, 8.4 MiB of `f64`) that an aligned huge
    /// page lies inside. One test owns every assertion on the
    /// process-wide tallies.
    #[test]
    fn first_touch_on_advised_pages_equals_zeros() {
        let _advice = ADVICE.lock().unwrap_or_else(|e| e.into_inner());
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

    /// The first touch writes one voxel per page and trusts the allocator
    /// for the rest, so a buffer on freed memory must still read zero:
    /// 95 KiB lies below glibc's smallest mmap threshold (a recycled heap
    /// chunk, which `calloc` must clear) and 40 MiB above its largest
    /// (fresh kernel pages).
    #[test]
    fn grids_on_recycled_memory_read_zero() {
        let _advice = ADVICE.lock().unwrap_or_else(|e| e.into_inner());
        for dims in [GridDims::new(31, 29, 27), GridDims::new(211, 199, 251)] {
            let n = dims.volume();
            for parallel in [false, true] {
                drop(std::hint::black_box(vec![1.0f32; n]));
                let g: Grid3<f32> = if parallel {
                    Grid3::zeros_parallel(dims)
                } else {
                    Grid3::zeros_touched(dims)
                };
                assert!(
                    g.as_slice().iter().all(|&v| v == 0.0),
                    "{n} voxels, parallel {parallel}: a recycled voxel is not zero"
                );
            }
        }
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
