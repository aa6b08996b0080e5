//! By-reference scalar write-back (`SlotRepr::ScalarRef`): a rank-0
//! tensor passed to a scalar parameter the callee writes used to dead-end
//! in `CodegenError::Unsupported`; it now lowers the parameter to a
//! pointer and the callsite to an address, differentially checked against
//! the interpreter.

mod fixtures;

use exo_codegen::difftest::{run_differential, DiffOutcome};
use exo_codegen::{emit_c, CodegenError, CodegenOptions};
use exo_interp::ProcRegistry;

#[test]
fn writeback_emits_pointer_parameter_and_address_argument() {
    let mut registry = ProcRegistry::new();
    registry.register(fixtures::scale_acc());
    let caller = fixtures::writeback_caller();
    let unit = emit_c(&caller, &registry, &CodegenOptions::portable()).unwrap();
    let c = &unit.code;
    assert!(
        c.contains("static void scale_acc(float *dst, float s)"),
        "{c}"
    );
    assert!(c.contains("*dst = *dst * s;"), "{c}");
    assert!(c.contains("scale_acc(&acc, 0.5);"), "{c}");
}

#[test]
fn writeback_agrees_with_interpreter() {
    let mut registry = ProcRegistry::new();
    registry.register(fixtures::scale_acc());
    let caller = fixtures::writeback_caller();
    match run_differential(&caller, &registry, 3) {
        Ok(DiffOutcome::Agreed { elems, .. }) => assert!(elems > 0),
        Ok(DiffOutcome::Skipped(why)) => eprintln!("skipping: {why}"),
        Err(e) => panic!("by-ref write-back differential failed: {e}"),
    }
}

#[test]
fn transitively_forwarded_writeback_is_traced() {
    // `wrap` only forwards its scalar parameter to `scale_acc`; the
    // write must be traced through the forwarding so `wrap`'s parameter
    // is a pointer too.
    let mut registry = ProcRegistry::new();
    registry.register(fixtures::scale_acc());
    registry.register(fixtures::wrap());
    let caller = fixtures::wrap_caller();
    let unit = emit_c(&caller, &registry, &CodegenOptions::portable()).unwrap();
    let c = &unit.code;
    assert!(c.contains("static void wrap(float *v)"), "{c}");
    assert!(c.contains("scale_acc(v, 2.0);"), "{c}");
    assert!(c.contains("wrap(&t);"), "{c}");
    match run_differential(&caller, &registry, 9) {
        Ok(DiffOutcome::Agreed { .. }) => {}
        Ok(DiffOutcome::Skipped(why)) => eprintln!("skipping: {why}"),
        Err(e) => panic!("forwarded write-back differential failed: {e}"),
    }
}

#[test]
fn rank1_tensor_to_written_scalar_parameter_still_errors() {
    // Binding a rank-1 tensor by reference to a *written* scalar
    // parameter traps in the interpreter (rank-mismatched write); the
    // emitter keeps rejecting it rather than emitting a wrong shape.
    let mut registry = ProcRegistry::new();
    registry.register(fixtures::scale_acc());
    match emit_c(
        &fixtures::bad_rank(),
        &registry,
        &CodegenOptions::portable(),
    ) {
        Err(CodegenError::Unsupported(msg)) => {
            assert!(msg.contains("by reference"), "{msg}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}
