//! A counting global allocator for tests that pin what code asks of the
//! allocator: allocations (a `realloc` is one) and the bytes they asked
//! for, per thread, since the harness runs tests side by side.
//!
//! Used through `#[path]` by `crates/core/tests/journal_props.rs` and by
//! the root package's `tests/wire_allocs.rs`, which tier-1 runs. A test
//! binary that includes it counts every allocation it makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (a `realloc` is one) this thread has made, and the
    /// bytes they asked for. Per thread: the harness runs tests side by
    /// side.
    static ASKED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

impl Counting {
    fn count(size: usize) {
        // `try_with`: the allocator outlives a thread's locals.
        let _ = ASKED.try_with(|asked| {
            let (calls, bytes) = asked.get();
            asked.set((calls + 1, bytes + size));
        });
    }
}

// SAFETY: every call is passed through to `System` unchanged; the counting
// beside it touches only a `Cell` in thread-local storage, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's contract, handed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's contract, handed on.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: the caller's contract, handed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, handed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` returns, and the `(allocations, bytes)` this thread asked for
/// while it ran.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    let (calls, bytes) = ASKED.with(Cell::get);
    let out = f();
    let (calls_after, bytes_after) = ASKED.with(Cell::get);
    (out, (calls_after - calls, bytes_after - bytes))
}
