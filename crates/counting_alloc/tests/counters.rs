//! The counters themselves, across one `Vec`'s life: an allocation, a
//! growing and a shrinking `realloc`, and the free. Each step's change in
//! calls, requested bytes and live bytes is pinned, so a shrink that stops
//! lowering the live count, or a `realloc` that stops counting as a call,
//! fails here rather than as a drifting budget in another suite.

use chm_counting_alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The change in (calls, bytes, live) while `f` runs.
fn change(f: impl FnOnce()) -> (u64, u64, i64) {
    let (calls, bytes, live) = (ALLOC.calls(), ALLOC.bytes(), ALLOC.live());
    f();
    (
        ALLOC.calls() - calls,
        ALLOC.bytes() - bytes,
        ALLOC.live() - live,
    )
}

/// One `#[test]` on purpose: the counters are process-global.
#[test]
fn alloc_realloc_and_dealloc_move_each_counter() {
    let mut v: Vec<u8> = Vec::new();
    assert_eq!(change(|| v.reserve_exact(64)), (1, 64, 64), "alloc");
    assert_eq!(
        change(|| v.reserve_exact(256)),
        (1, 256, 192),
        "growing realloc"
    );
    assert_eq!(
        change(|| v.shrink_to(16)),
        (1, 16, -240),
        "shrinking realloc"
    );
    assert_eq!(
        change(|| drop(std::hint::black_box(v))),
        (0, 0, -16),
        "dealloc"
    );
}
