//! The benchmark binary's counting `#[global_allocator]`: allocation
//! count, bytes requested, live bytes and peak live bytes, process-wide
//! (the sharded replay's worker threads are counted too).
//!
//! Counts are read as deltas between two [`snapshot`]s; the peak is
//! re-armed with [`reset_peak`] at the start of each workload, so
//! `peak_heap_mb` is the workload's own high-water mark above what was
//! live when it started.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct CountingAlloc;

// Relaxed throughout: these are statistics, they publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

#[inline]
fn counted(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    grew(size);
}

// SAFETY: every method delegates to `System` with the caller's pointer and
// layout unchanged; the counters are updated only after `System` reports
// success and never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            counted(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            counted(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (i.e. by `System`)
        // for `layout`, as the caller vouched.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: arguments passed through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A realloc is one allocator call, counted as one allocation of
            // the bytes it added (the repo's other counting allocators
            // count it as one too).
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                BYTES.fetch_add((new_size - layout.size()) as u64, Relaxed);
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
    pub live: usize,
    pub peak: usize,
}

pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Allocation calls so far (the cheap read the tracer takes per span).
#[inline]
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Re-arms the peak at the current live size (per-workload reset).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Allocates and drops `n` boxed `u64`s and returns what the counters saw:
/// (allocation calls, bytes requested, live bytes left over, peak rise).
fn boxed_pattern(n: usize) -> (u64, u64, isize, usize) {
    let mut slots: Vec<Option<Box<u64>>> = Vec::with_capacity(n);
    reset_peak();
    let before = snapshot();
    for i in 0..n {
        slots.push(Some(Box::new(std::hint::black_box(i as u64))));
    }
    let high = snapshot();
    slots.fill(None);
    let after = snapshot();
    (
        after.allocs - before.allocs,
        after.bytes - before.bytes,
        after.live as isize - before.live as isize,
        high.peak.saturating_sub(before.live),
    )
}

/// Proves the instrument on a known pattern before anything is measured
/// with it: `N` boxes are `N` calls and `8N` bytes, all returned, with a
/// peak of `8N`. Run at the start of every benchmark process, while it is
/// still single-threaded.
pub fn self_test() -> Result<(), String> {
    const N: usize = 1000;
    let seen = boxed_pattern(N);
    let want = (N as u64, 8 * N as u64, 0isize, 8 * N);
    if seen == want {
        Ok(())
    } else {
        Err(format!(
            "counting allocator self-test: saw {seen:?}, expected {want:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test harness runs other tests on sibling threads, and their
    /// allocations land in the same process-wide counters. Interference
    /// only ever adds and the siblings finish within milliseconds, so the
    /// pattern must read exactly on one of many attempts (the repo's
    /// `steady_allocations_during` idiom, stretched over time).
    fn eventually(mut exact: impl FnMut() -> bool) -> bool {
        (0..20_000).any(|_| {
            std::thread::yield_now();
            exact()
        })
    }

    #[test]
    fn boxed_values_are_counted_exactly() {
        assert!(eventually(|| self_test().is_ok()), "{:?}", self_test());
    }

    #[test]
    fn growing_a_vec_counts_the_bytes_it_added() {
        let exact = eventually(|| {
            let before = snapshot();
            let mut v: Vec<u8> = Vec::with_capacity(16);
            v.extend_from_slice(&[1; 16]);
            v.reserve_exact(48); // one realloc, 16 -> 64 bytes
            std::hint::black_box(&v);
            let mid = snapshot();
            drop(v);
            let after = snapshot();
            mid.allocs - before.allocs == 2
                && mid.bytes - before.bytes == 64
                && mid.live.wrapping_sub(before.live) == 64
                && after.live == before.live
        });
        assert!(exact);
    }
}
