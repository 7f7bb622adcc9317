//! **`chm_counting_alloc`** — a global allocator that counts, for the
//! allocation budgets of the test suites and the `chm-bench` soak.
//!
//! [`CountingAlloc`] delegates every request to [`System`] unchanged and
//! keeps three counters:
//!
//! * **calls** — `alloc` and `realloc` calls (a `dealloc` is not one);
//! * **bytes** — bytes requested: an `alloc`'s size, a `realloc`'s new size;
//! * **live** — bytes allocated and not yet freed: a `dealloc` subtracts its
//!   size, and a `realloc` adds its size change, so a shrink counts.
//!
//! A binary declares it once, and the declaration is safe code:
//!
//! ```
//! use chm_counting_alloc::CountingAlloc;
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! let (calls, v) = ALLOC.calls_during(|| vec![0u8; 64]);
//! assert_eq!((calls, v.len()), (1, 64));
//! ```
//!
//! The counters are process-global: another thread's allocations land in
//! a measured window, so a suite that measures runs its windows one at a
//! time.
//!
//! This is the one crate in the workspace that writes `unsafe`; every
//! other member forbids it through `[workspace.lints]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A [`GlobalAlloc`] that counts calls, requested bytes and live bytes,
/// then hands the request to [`System`].
#[derive(Debug, Default)]
pub struct CountingAlloc {
    calls: AtomicU64,
    bytes: AtomicU64,
    live: AtomicI64,
}

impl CountingAlloc {
    /// All three counters at zero; `const`, so it can initialise the
    /// `#[global_allocator]` static.
    pub const fn new() -> Self {
        CountingAlloc {
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicI64::new(0),
        }
    }

    /// `alloc` and `realloc` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Bytes requested so far (a `realloc` requests its new size).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::SeqCst)
    }

    /// Bytes allocated and not yet freed.
    pub fn live(&self) -> i64 {
        self.live.load(Ordering::SeqCst)
    }

    /// Runs `f`; returns the calls it made and its result.
    pub fn calls_during<T>(&self, f: impl FnOnce() -> T) -> (u64, T) {
        let before = self.calls();
        let out = f();
        (self.calls() - before, out)
    }

    /// Runs `f`; returns the bytes it requested and its result.
    pub fn bytes_during<T>(&self, f: impl FnOnce() -> T) -> (u64, T) {
        let before = self.bytes();
        let out = f();
        (self.bytes() - before, out)
    }

    fn count(&self, requested: usize, live_change: i64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(requested as u64, Ordering::Relaxed);
        self.live.fetch_add(live_change, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so `System`'s guarantees are this
// allocator's; the counters are atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size(), layout.size() as i64);
        // SAFETY: the caller's `GlobalAlloc::alloc` contract (a non-zero
        // size) is passed on with the layout unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `alloc`/`realloc` above, that is by
        // `System`, with this `layout`, as the caller's contract states.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with `layout`, and `new_size`
        // meets `realloc`'s contract; both are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
