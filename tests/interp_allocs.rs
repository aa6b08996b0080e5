//! The interpreter's allocation budget: heap allocations of one
//! interpreted run of each AVX2 schedule of record, as a serve miss's
//! interp tier makes it: the synthesized inputs moved into arguments
//! (`interp_args`), then `Interpreter::run`. Counted by a global
//! allocator switched on for the test's own thread only, on a fresh
//! registry, so the lowering of the scheduled proc and of every
//! instruction it calls is included. The count depends on neither the
//! host nor the build profile.

mod counting;

use counting::count_allocs;
use exo2::codegen::difftest::{interp_args, synth_inputs};
use exo2::cursors::ProcHandle;
use exo2::interp::{Interpreter, NullMonitor, ProcRegistry};
use exo2::ir::DataType;
use exo2::kernels::{self, Precision};
use exo2::lib::{apply_script, schedule_of_record};
use exo2::machine::MachineModel;

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
    let (ran, allocs) = count_allocs(|| {
        let (_bufs, args) = interp_args(inputs);
        Interpreter::new(&registry).run(scheduled.proc(), args, &mut NullMonitor)
    });
    ran.expect("the record runs");
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
