//! Debug-mode bounds checks (`CodegenOptions::debug_bounds`): legal
//! kernels still agree with the interpreter, and the out-of-window access
//! class the interpreter's views do **not** trap (reads past a window's
//! extent but inside the underlying buffer) aborts the compiled binary.

mod fixtures;

use exo_codegen::difftest::{
    build, cc_available, emit_driver, run_differential_with, synth_inputs, DiffOutcome,
};
use exo_codegen::{emit_c, CodegenOptions};
use exo_interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
use exo_ir::DataType;

#[test]
fn debug_bounds_instruments_window_and_buffer_accesses() {
    let proc = fixtures::out_of_window();
    let registry = ProcRegistry::new();
    // The interpreter does not trap this access (window extents are a
    // scheduling-time property of views) — that is exactly the hole the
    // debug-bounds mode covers.
    let (_, x) = ArgValue::from_vec(vec![7.0; 16], vec![4, 4], DataType::F32);
    let (_, y) = ArgValue::zeros(vec![4], DataType::F32);
    Interpreter::new(&registry)
        .run(&proc, vec![x, y], &mut NullMonitor)
        .expect("in-buffer out-of-window read runs in the interpreter");
    // Plain portable emission carries no check.
    let plain = emit_c(&proc, &registry, &CodegenOptions::portable()).unwrap();
    assert!(!plain.code.contains("exo_bnd"), "{}", plain.code);
    // Debug emission routes the window read through the assert helper
    // with the window's extent (2), not the underlying row length (4).
    let dbg = emit_c(&proc, &registry, &CodegenOptions::debug()).unwrap();
    assert!(dbg.code.contains("#include <assert.h>"), "{}", dbg.code);
    assert!(dbg.code.contains("exo_bnd(3, 2)"), "{}", dbg.code);
    // The destination `y[0]` is proven in-bounds by the verifier, so its
    // access skips the instrumentation even in debug mode.
    assert!(!dbg.code.contains("exo_bnd(0, 4)"), "{}", dbg.code);
}

#[test]
fn debug_bounds_elides_checks_for_fully_proven_procs() {
    // Every access of the unscheduled copy is proven in-bounds from the
    // loop ranges alone, so the debug build is check-free — identical
    // instrumentation surface to the plain build.
    let proc = fixtures::proven_copy();
    assert!(exo_analysis::check_proc(&proc).is_empty());
    let registry = ProcRegistry::new();
    let dbg = emit_c(&proc, &registry, &CodegenOptions::debug()).unwrap();
    assert!(!dbg.code.contains("exo_bnd"), "{}", dbg.code);
}

#[test]
fn debug_bounds_aborts_on_out_of_window_read() {
    if !cc_available() {
        eprintln!("skipping: no `cc` on PATH");
        return;
    }
    let proc = fixtures::out_of_window();
    let registry = ProcRegistry::new();
    let unit = emit_c(&proc, &registry, &CodegenOptions::debug()).unwrap();
    let inputs = synth_inputs(&proc, 11).unwrap();
    let driver = emit_driver(&unit, &proc, &inputs);
    let bin = build(&driver, &unit.cflags, proc.name()).unwrap();
    let output = std::process::Command::new(bin.artifact())
        .output()
        .expect("driver binary runs");
    assert!(
        !output.status.success(),
        "debug-bounds binary should abort on the out-of-window read; stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("exo_bnd") || stderr.to_lowercase().contains("assert"),
        "abort should come from the bounds assert, stderr: {stderr}"
    );
}

#[test]
fn debug_bounds_agrees_with_interpreter_on_legal_schedules() {
    // A legal windowed schedule — the vectorized sgemm the scheduling
    // library produces — must be unaffected by the checks: every access
    // is in bounds, so the instrumented C still matches the interpreter.
    let registry = fixtures::avx2_registry();
    match run_differential_with(
        &fixtures::vectorized_sgemm(),
        &registry,
        5,
        &CodegenOptions::debug(),
    ) {
        Ok(DiffOutcome::Agreed { elems, .. }) => assert!(elems > 0),
        Ok(DiffOutcome::Skipped(why)) => eprintln!("skipping: {why}"),
        Err(e) => panic!("debug-bounds differential failed: {e}"),
    }
}
