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
mod counting;

use common::Library;
use counting::count_allocs;

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
