//! The allocation budget of one emission pass of the library.
//!
//! Counts the heap allocations of the `emit_c` calls of one
//! `sched_library` pass: the 72 library schedules, each emitted portable
//! and native against its machine's registry of both precisions, as the
//! benchmark's pass emits them. The schedules are built before counting
//! starts, and a first emission pass warms the registries' memos as the
//! benchmark's setup pass does. The root's own lowering inside `emit_c`
//! counts against the budget. The count depends on neither the host nor
//! the build profile.

mod common;
mod counting;

use common::Library;
use counting::count_allocs;
use exo2::codegen::{emit_c, CodegenOptions};
use exo2::cursors::ProcHandle;
use exo2::interp::ProcRegistry;
use exo2::ir::DataType;

/// Emits every schedule portable and native; returns the bytes written.
fn emit_pass(schedules: &[(ProcHandle, usize)], registries: &[ProcRegistry]) -> usize {
    let mut bytes = 0;
    for (handle, target) in schedules {
        for opts in [CodegenOptions::portable(), CodegenOptions::native()] {
            let unit = emit_c(handle.proc(), &registries[*target], &opts).expect("emit");
            bytes += unit.code.len();
        }
    }
    bytes
}

#[test]
fn a_library_emission_pass_stays_within_its_allocation_budget() {
    let inputs = Library::new();
    let registries: Vec<ProcRegistry> = inputs
        .machines
        .iter()
        .map(|m| {
            m.instructions(DataType::F32)
                .into_iter()
                .chain(m.instructions(DataType::F64))
                .collect()
        })
        .collect();
    let schedules: Vec<(ProcHandle, usize)> = inputs
        .machines
        .iter()
        .enumerate()
        .flat_map(|(t, m)| inputs.schedule_on(m).into_iter().map(move |h| (h, t)))
        .collect();
    assert_eq!(schedules.len(), 72);
    let warm = emit_pass(&schedules, &registries);
    let (bytes, allocs) = count_allocs(|| emit_pass(&schedules, &registries));
    // The ledger's `codegen.emitted_bytes`.
    assert_eq!((warm, bytes), (442_411, 442_411));
    println!("allocations per library emission pass: {allocs}");
    // 146 788 while every unit re-rendered its callees and built each
    // expression as nested strings; the budget is 0.3x that.
    assert!(allocs <= 44_036, "{allocs} allocations per pass");
}
