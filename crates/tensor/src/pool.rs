//! Thread-local 64-byte-aligned `f64` buffer pool — the workspace behind
//! every [`Matrix`] allocation.
//!
//! DP-SGD's per-sample loop builds a fresh autograd tape for every subgraph
//! in every batch, and each tape op used to call `vec![0.0; n]` for its
//! value (and again for its gradient on the way back). At paper shapes
//! (≤ ~80 rows × 32 cols) the allocator round-trip dominates the arithmetic.
//! This pool recycles the backing [`AlignedBuf`]s instead: [`Matrix`]'s
//! `Drop` returns buffers here, and the constructors in `matrix.rs` draw
//! from it.
//!
//! Buffers are **64-byte aligned** ([`ALIGN`]): one cache line, and wide
//! enough for every vector width the [`crate::simd`] backends use (AVX2's
//! 32-byte loads included), so the `loadu` opcodes the kernels issue never
//! actually hit a split-line access. Alignment is a property of the
//! allocation, not a correctness requirement — the kernels are
//! unaligned-tolerant by construction.
//!
//! The pool is **thread-local**, which makes it free of locks and — because
//! `privim_rt::par` keeps its workers alive for the whole process — lets
//! each worker's pool stay warm across batches.
//!
//! Determinism: a recycled buffer is either fully overwritten (clone paths
//! extend into a cleared buffer) or explicitly filled (`zeros`/`full`, which
//! `map`/`zip` then overwrite), so buffer identity can never reach results.
//!
//! [`Matrix`]: crate::Matrix

use std::alloc::{alloc, dealloc, Layout};
use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation alignment in bytes for every pooled buffer.
pub const ALIGN: usize = 64;

/// Buffers larger than this are returned to the allocator, not pooled —
/// keeps a one-off giant experiment matrix from pinning memory per thread.
const MAX_POOLED_LEN: usize = 1 << 20;

/// At most this many buffers are retained per thread. A per-sample tape
/// keeps every node value alive until the next sample resets it, so the
/// pool must hold that live set plus the gradients and temporaries of one
/// backward pass: a warmed paper-shape GRAT sample (3 layers × 32 hidden,
/// 63 tape nodes) circulates about 125 buffers. Twice that leaves
/// headroom for deeper models; `MAX_POOLED_TOTAL` still bounds the bytes.
const MAX_POOLED_BUFFERS: usize = 256;

/// Retained capacity cap per thread (in `f64`s; 4 M ≈ 32 MB).
const MAX_POOLED_TOTAL: usize = 4 << 20;

/// A growable `f64` buffer whose allocation is always [`ALIGN`]-byte
/// aligned. The subset of `Vec<f64>` the matrix layer needs, minus any
/// alignment surprises: `Vec`'s allocator contract only guarantees the
/// element alignment (8), which would leave SIMD loads straddling cache
/// lines whenever the allocator felt like it.
pub struct AlignedBuf {
    ptr: NonNull<f64>,
    len: usize,
    cap: usize,
}

// privim-lint: allow(unsafe, reason = "AlignedBuf uniquely owns its allocation (no aliasing handles exist) and f64 is Send+Sync, so moving or sharing the buffer across threads is exactly as sound as Vec<f64>")
unsafe impl Send for AlignedBuf {}
// privim-lint: allow(unsafe, reason = "AlignedBuf uniquely owns its allocation (no aliasing handles exist) and f64 is Send+Sync, so moving or sharing the buffer across threads is exactly as sound as Vec<f64>")
unsafe impl Sync for AlignedBuf {}

fn layout_for(cap: usize) -> Layout {
    Layout::from_size_align(cap * std::mem::size_of::<f64>(), ALIGN)
        // privim-lint: allow(panic, reason = "trips only on an address-space-sized request (cap*8 overflowing usize), where the global allocator would abort anyway; matrix shapes are bounded far below this")
        .expect("aligned buffer layout overflow")
}

impl AlignedBuf {
    /// Empty buffer, no allocation.
    pub fn new() -> AlignedBuf {
        AlignedBuf {
            ptr: NonNull::dangling(),
            len: 0,
            cap: 0,
        }
    }

    /// Empty buffer with at least `cap` elements of aligned capacity.
    pub fn with_capacity(cap: usize) -> AlignedBuf {
        if cap == 0 {
            return AlignedBuf::new();
        }
        let _ = FRESH.try_with(|n| n.set(n.get() + 1));
        FRESH_ALL_THREADS.fetch_add(1, Ordering::Relaxed);
        let layout = layout_for(cap);
        // privim-lint: allow(unsafe, reason = "layout has non-zero size (cap > 0 checked above) and the null return is handled, which is the entire alloc contract")
        let raw = unsafe { alloc(layout) } as *mut f64;
        let Some(ptr) = NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout)
        };
        AlignedBuf { ptr, len: 0, cap }
    }

    /// Current element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated capacity in elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Drop all elements (keeps the allocation).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Ensure room for `additional` more elements.
    pub fn reserve(&mut self, additional: usize) {
        let need = self.len + additional;
        if need <= self.cap {
            return;
        }
        let new_cap = need.max(self.cap * 2).max(4);
        let mut grown = AlignedBuf::with_capacity(new_cap);
        // privim-lint: allow(unsafe, reason = "copies exactly self.len elements between two distinct allocations each sized for at least self.len")
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), grown.ptr.as_ptr(), self.len);
        }
        grown.len = self.len;
        *self = grown;
    }

    /// Append one element.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if self.len == self.cap {
            self.reserve(1);
        }
        // privim-lint: allow(unsafe, reason = "reserve above guarantees len < cap, so the write lands inside the allocation")
        unsafe {
            self.ptr.as_ptr().add(self.len).write(x);
        }
        self.len += 1;
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, s: &[f64]) {
        self.reserve(s.len());
        // privim-lint: allow(unsafe, reason = "reserve guarantees cap ≥ len + s.len(), source and destination are distinct allocations, and f64 is Copy")
        unsafe {
            std::ptr::copy_nonoverlapping(s.as_ptr(), self.ptr.as_ptr().add(self.len), s.len());
        }
        self.len += s.len();
    }

    /// Resize to `n` elements, filling new tail slots with `value`.
    pub fn resize(&mut self, n: usize, value: f64) {
        if n <= self.len {
            self.len = n;
            return;
        }
        self.reserve(n - self.len);
        // privim-lint: allow(unsafe, reason = "reserve guarantees cap ≥ n; every slot in len..n is written before len is bumped to cover it")
        unsafe {
            for i in self.len..n {
                self.ptr.as_ptr().add(i).write(value);
            }
        }
        self.len = n;
    }

    /// Borrow the contents as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        // privim-lint: allow(unsafe, reason = "ptr is valid for len initialised elements (every len increase writes them first) and dangling-but-aligned when len == 0, which from_raw_parts permits")
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Borrow the contents mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // privim-lint: allow(unsafe, reason = "unique &mut receiver and ptr valid for len initialised elements, the from_raw_parts_mut contract")
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Raw pointer to the first element.
    #[inline]
    pub fn as_ptr(&self) -> *const f64 {
        self.ptr.as_ptr()
    }
}

impl Default for AlignedBuf {
    fn default() -> AlignedBuf {
        AlignedBuf::new()
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.cap != 0 {
            // privim-lint: allow(unsafe, reason = "ptr came from alloc with exactly this layout (cap recorded at allocation, never mutated elsewhere) and is freed exactly once: Drop owns the value")
            unsafe {
                dealloc(self.ptr.as_ptr() as *mut u8, layout_for(self.cap));
            }
        }
    }
}

impl Deref for AlignedBuf {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl DerefMut for AlignedBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &AlignedBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[derive(Default)]
struct BufferPool {
    /// Most recently released last (LIFO reuse keeps buffers cache-warm).
    buffers: Vec<AlignedBuf>,
    /// Total capacity currently retained, in elements.
    retained: usize,
}

/// Fresh allocations summed over every thread of the process.
static FRESH_ALL_THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static POOL: RefCell<BufferPool> = RefCell::new(BufferPool::default());
    /// Fresh allocations on this thread: pool misses plus buffer growth.
    static FRESH: Cell<u64> = const { Cell::new(0) };
}

/// Take a cleared buffer with `capacity >= len` (freshly allocated if the
/// pool holds nothing suitable). The returned buffer always has
/// `len() == 0` and an [`ALIGN`]-byte-aligned allocation.
///
/// Uses `try_with`: during thread teardown the pool TLS may already be
/// destroyed while other thread-locals (e.g. the scratch tape) still drop
/// matrices — those calls silently fall back to the allocator.
pub(crate) fn acquire(len: usize) -> AlignedBuf {
    POOL.try_with(|cell| {
        let mut pool = cell.borrow_mut();
        // LIFO scan for the first buffer big enough.
        for i in (0..pool.buffers.len()).rev() {
            if pool.buffers[i].capacity() >= len {
                let buf = pool.buffers.swap_remove(i);
                pool.retained -= buf.capacity();
                return buf;
            }
        }
        AlignedBuf::with_capacity(len)
    })
    .unwrap_or_else(|_destroyed| AlignedBuf::with_capacity(len))
}

/// Return a buffer to this thread's pool (or drop it if it is oversized,
/// the pool is at capacity, or the thread is tearing down its TLS).
pub(crate) fn release(mut buf: AlignedBuf) {
    let cap = buf.capacity();
    if cap == 0 || cap > MAX_POOLED_LEN {
        return;
    }
    let _ = POOL.try_with(|cell| {
        let mut pool = cell.borrow_mut();
        if pool.buffers.len() >= MAX_POOLED_BUFFERS || pool.retained + cap > MAX_POOLED_TOTAL {
            return;
        }
        buf.clear();
        pool.retained += cap;
        pool.buffers.push(buf);
    });
}

/// Number of buffers currently pooled on this thread (tests/diagnostics).
pub fn pooled_buffers() -> usize {
    POOL.try_with(|cell| cell.borrow().buffers.len())
        .unwrap_or(0)
}

/// Aligned allocations this thread has made so far: every [`acquire`]
/// the pool could not serve and every buffer growth. A deterministic cost
/// counter — the difference across a warmed loop is its allocation count.
pub fn fresh_allocations() -> u64 {
    FRESH.try_with(Cell::get).unwrap_or(0)
}

/// [`fresh_allocations`] summed over every thread of the process, pool
/// workers included: the counter for parallel work. It also counts
/// whatever else runs concurrently, so a gate on it needs a process of its
/// own.
pub fn process_fresh_allocations() -> u64 {
    FRESH_ALL_THREADS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_then_acquire_reuses_the_allocation() {
        let mut buf = acquire(100);
        buf.resize(100, 1.0);
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        release(buf);
        let again = acquire(50);
        assert_eq!(again.as_ptr(), ptr, "expected the pooled buffer back");
        assert_eq!(again.capacity(), cap);
        assert!(again.is_empty(), "acquired buffers must be cleared");
    }

    #[test]
    fn undersized_buffers_are_skipped() {
        // drain whatever other tests left behind so the assertion is local
        while pooled_buffers() > 0 {
            drop(acquire(0));
        }
        let mut small = acquire(8);
        small.resize(8, 0.0);
        release(small);
        let big = acquire(MAX_POOLED_LEN / 2);
        assert!(big.capacity() >= MAX_POOLED_LEN / 2);
        assert_eq!(pooled_buffers(), 1, "small buffer should still be pooled");
    }

    #[test]
    fn fresh_allocations_count_misses_and_growth_not_reuse() {
        while pooled_buffers() > 0 {
            drop(acquire(0));
        }
        let before = fresh_allocations();
        let buf = acquire(100);
        assert_eq!(fresh_allocations(), before + 1, "an empty pool misses");
        release(buf);
        let mut again = acquire(50);
        assert_eq!(fresh_allocations(), before + 1, "a pooled buffer is reused");
        again.resize(200, 0.0);
        assert_eq!(fresh_allocations(), before + 2, "growth reallocates");
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let before = pooled_buffers();
        release(AlignedBuf::with_capacity(MAX_POOLED_LEN + 1));
        assert_eq!(pooled_buffers(), before);
        release(AlignedBuf::new());
        assert_eq!(pooled_buffers(), before);
    }

    #[test]
    fn pool_size_is_bounded() {
        for _ in 0..(MAX_POOLED_BUFFERS * 2) {
            release(AlignedBuf::with_capacity(16));
        }
        assert!(pooled_buffers() <= MAX_POOLED_BUFFERS);
    }

    #[test]
    fn every_allocation_is_64_byte_aligned() {
        // fresh, pooled, and grown allocations all honour ALIGN
        for len in [1, 3, 7, 100, 4096] {
            let buf = acquire(len);
            assert_eq!(buf.as_ptr() as usize % ALIGN, 0, "fresh len={len}");
            release(buf);
            let again = acquire(len);
            assert_eq!(again.as_ptr() as usize % ALIGN, 0, "pooled len={len}");
        }
        let mut grown = AlignedBuf::with_capacity(2);
        for i in 0..1000 {
            grown.push(i as f64);
            assert_eq!(grown.as_ptr() as usize % ALIGN, 0, "grown at {i}");
        }
        assert_eq!(grown.len(), 1000);
        assert_eq!(grown[999], 999.0);
    }

    #[test]
    fn buf_behaves_like_a_vec() {
        let mut b = AlignedBuf::new();
        assert!(b.is_empty());
        b.extend_from_slice(&[1.0, 2.0]);
        b.push(3.0);
        b.extend_from_slice(&[4.0, 5.0]);
        assert_eq!(&b[..], &[1.0, 2.0, 3.0, 4.0, 5.0]);
        b.resize(3, 0.0);
        assert_eq!(&b[..], &[1.0, 2.0, 3.0]);
        b.resize(5, 9.0);
        assert_eq!(&b[..], &[1.0, 2.0, 3.0, 9.0, 9.0]);
        b[0] = -1.0;
        assert_eq!(b[0], -1.0);
        let c = AlignedBuf::new();
        assert!(c.is_empty());
        assert_ne!(b, c);
        b.clear();
        assert_eq!(b, c);
    }
}
