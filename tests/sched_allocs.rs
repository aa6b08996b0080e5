//! The allocation budget of one scheduling pass of the library.
//!
//! A counting global allocator, switched on for the test's own thread
//! only, counts the heap allocations the 72 library schedules of one
//! `sched_library` pass make (level 1 and 2 in both precisions, four sgemm
//! bases, blur and unsharp, on the AVX2 and AVX-512 models). Inputs and
//! machine models are built before counting starts, as the benchmark's
//! setup builds them, and a first pass warms the process-wide caches the
//! library reads.

use exo2::cursors::ProcHandle;
use exo2::ir::{Block, Proc};
use exo2::kernels::{self, Precision};
use exo2::lib::{
    halide_blur_schedule, halide_unsharp_schedule, optimize_all_level_1, optimize_all_level_2,
    optimize_sgemm,
};
use exo2::machine::MachineModel;
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

/// `exo_bench::paper::sgemm_wide`, which this package does not depend on.
fn sgemm_wide(copies: usize) -> Proc {
    let base = kernels::sgemm();
    let stmts = (0..copies).flat_map(|_| base.body().iter().cloned());
    let body: Block = stmts.collect();
    base.with_name("sgemm_wide").with_body(body)
}

/// What `benchmark/`'s `sched_library` builds once, before its passes.
struct Inputs {
    machines: Vec<MachineModel>,
    sgemm_bases: Vec<ProcHandle>,
    blur: ProcHandle,
    unsharp: ProcHandle,
}

impl Inputs {
    fn new() -> Self {
        Inputs {
            machines: vec![MachineModel::avx2(), MachineModel::avx512()],
            sgemm_bases: [
                kernels::sgemm(),
                sgemm_wide(8),
                sgemm_wide(32),
                sgemm_wide(64),
            ]
            .into_iter()
            .map(ProcHandle::new)
            .collect(),
            blur: ProcHandle::new(kernels::blur2d()),
            unsharp: ProcHandle::new(kernels::unsharp()),
        }
    }

    /// One pass's schedules, in the benchmark's order.
    fn schedule_all(&self) -> Vec<ProcHandle> {
        let mut out = Vec::new();
        for m in &self.machines {
            for prec in [Precision::Single, Precision::Double] {
                out.extend(optimize_all_level_1(m, prec).into_iter().map(|(_, p)| p));
                out.extend(optimize_all_level_2(m, prec).into_iter().map(|(_, p)| p));
            }
            for base in &self.sgemm_bases {
                out.push(optimize_sgemm(base, m).expect("sgemm schedule"));
            }
            out.push(halide_blur_schedule(&self.blur, m).expect("blur schedule"));
            out.push(halide_unsharp_schedule(&self.unsharp, m).expect("unsharp schedule"));
        }
        out
    }
}

#[test]
fn a_library_pass_stays_within_its_allocation_budget() {
    let inputs = Inputs::new();
    let warm = inputs.schedule_all();
    assert_eq!(warm.len(), 72);
    drop(warm);
    let (schedules, allocs) = count_allocs(|| inputs.schedule_all());
    assert_eq!(schedules.len(), 72);
    println!("allocations per library scheduling pass: {allocs}");
    assert!(allocs <= 160_000, "{allocs} allocations per pass");
}
