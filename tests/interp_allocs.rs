//! The interpreter's allocation budget: heap allocations of one
//! interpreted run of each AVX2 schedule of record, counted by a global
//! allocator switched on for the test's own thread only. The count
//! depends on neither the host nor the build profile. Two counts:
//!
//! - on a fresh registry: the synthesized inputs moved into arguments
//!   (`interp_args`), then `Interpreter::run`, so the lowering of the
//!   scheduled proc and of every instruction it calls is included;
//! - on a held registry, which holds the record under its own name with
//!   it and its instructions already lowered, as a serve miss on a held
//!   plan runs it: input synthesis, `interp_args` and `run`.

mod counting;

use counting::count_allocs;
use exo2::codegen::difftest::{interp_args, synth_inputs};
use exo2::cursors::ProcHandle;
use exo2::interp::{Interpreter, NullMonitor, ProcRegistry};
use exo2::ir::{DataType, Proc};
use exo2::kernels::{self, Precision};
use exo2::lib::{apply_script, schedule_of_record};
use exo2::machine::MachineModel;

/// Allocations of one interpreted run of `name`'s AVX2 record, on a
/// fresh registry and on a held one.
fn record_run_allocs(name: &str) -> (u64, u64) {
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
    let (ran, fresh) = count_allocs(|| {
        let (_bufs, args) = interp_args(inputs);
        Interpreter::new(&registry).run(scheduled.proc(), args, &mut NullMonitor)
    });
    ran.expect("the record runs");

    let mut held = registry.clone();
    held.register(scheduled.proc().clone());
    let run = |proc: &Proc, seed| {
        let (_bufs, args) = interp_args(synth_inputs(proc, seed).expect("inputs"));
        Interpreter::new(&held).run(proc, args, &mut NullMonitor)
    };
    run(scheduled.proc(), 1).expect("the record runs");
    let (ran, warm) = count_allocs(|| run(scheduled.proc(), 2));
    ran.expect("the record runs");
    (fresh, warm)
}

#[test]
fn an_interpreted_record_run_stays_within_its_allocation_budget() {
    let counts: Vec<(&str, (u64, u64))> = ["sgemm", "blur2d", "sgemv_n"]
        .into_iter()
        .map(|name| (name, record_run_allocs(name)))
        .collect();
    for (name, (fresh, held)) in &counts {
        println!("allocations per interpreted {name} record run: {fresh} (held registry: {held})");
    }
    let (sgemm, sgemm_held) = counts[0].1;
    assert!(sgemm <= 2_000, "{sgemm} allocations per sgemm record run");
    // Lowering is most of a fresh run's allocations: 137 / 107 / 41 on
    // a held registry against 737 / 557 / 256 on a fresh one.
    assert!(
        sgemm_held <= 300,
        "{sgemm_held} allocations per sgemm record run on a held registry"
    );
}
