//! The interpreter's allocation budget: heap allocations of one
//! `interp_outputs` run of each AVX2 schedule of record, the run a serve
//! miss's interp tier makes. Counted by a global allocator switched on
//! for the test's own thread only, on a fresh registry, so the lowering
//! of the scheduled proc and of every instruction it calls is included.
//! The count depends on neither the host nor the build profile.

use exo2::codegen::difftest::{interp_outputs, synth_inputs};
use exo2::cursors::ProcHandle;
use exo2::interp::ProcRegistry;
use exo2::ir::DataType;
use exo2::kernels::{self, Precision};
use exo2::lib::{apply_script, schedule_of_record};
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

/// Allocations of one interpreted run of `name`'s AVX2 record.
fn record_run_allocs(name: &str) -> u64 {
    let kernel = match name {
        "sgemm" => kernels::sgemm(),
        "sgemv_n" => kernels::gemv(Precision::Single, false),
        _ => kernels::blur2d(),
    };
    let machine = MachineModel::avx2();
    let script = schedule_of_record(name, &machine).expect("a schedule of record");
    let scheduled = apply_script(&ProcHandle::new(kernel.clone()), &script, &machine)
        .expect("the record replays");
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    let inputs = synth_inputs(&kernel, 1).expect("inputs");
    let (outputs, allocs) = count_allocs(|| interp_outputs(scheduled.proc(), &registry, &inputs));
    outputs.expect("the record runs");
    allocs
}

#[test]
fn an_interpreted_record_run_stays_within_its_allocation_budget() {
    let counts: Vec<(&str, u64)> = ["sgemm", "blur2d", "sgemv_n"]
        .into_iter()
        .map(|name| (name, record_run_allocs(name)))
        .collect();
    for (name, allocs) in &counts {
        println!("allocations per interpreted {name} record run: {allocs}");
    }
    let sgemm = counts[0].1;
    assert!(sgemm <= 2_000, "{sgemm} allocations per sgemm record run");
}
