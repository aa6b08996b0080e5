//! The allocation budget of one scheduling pass of the library.
//!
//! A counting global allocator, switched on for the test's own thread
//! only, counts the heap allocations the 72 library schedules of one
//! `sched_library` pass make (level 1 and 2 in both precisions, four sgemm
//! bases, blur and unsharp, on the AVX2 and AVX-512 models). Inputs and
//! machine models are built before counting starts, as the benchmark's
//! setup builds them, and a first pass warms the process-wide caches the
//! library reads.

mod common;

use common::Library;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_library_pass_stays_within_its_allocation_budget() {
    let inputs = Library::new();
    let warm = inputs.schedule_all();
    assert_eq!(warm.len(), 72);
    drop(warm);
    let (schedules, allocs) = count_allocs(|| inputs.schedule_all());
    assert_eq!(schedules.len(), 72);
    println!("allocations per library scheduling pass: {allocs}");
    assert!(allocs <= 160_000, "{allocs} allocations per pass");
}
