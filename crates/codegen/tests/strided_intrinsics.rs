//! Unit-stride verdict for machine-intrinsic lowering: a vector
//! instruction called on a window that is *not* unit-stride in its last
//! dimension (e.g. a matrix column) must fall back to its portable
//! scalar body in intrinsic mode — the raw `_mm256_*` body would read
//! and write the wrong elements — while unit-stride callsites keep the
//! real intrinsic.

mod fixtures;

use exo_codegen::difftest::{run_differential_with, DiffOutcome};
use exo_codegen::{emit_c, CodegenOptions};

#[test]
fn strided_callsites_demote_intrinsics_to_scalar_bodies() {
    let unit = emit_c(
        &fixtures::column_copy(),
        &fixtures::avx2_registry(),
        &CodegenOptions::native(),
    )
    .unwrap();
    let c = &unit.code;
    // Both vector ops see a strided window somewhere in the unit, so
    // both are emitted as their portable scalar bodies...
    assert!(!c.contains("_mm256_loadu_ps("), "{c}");
    assert!(!c.contains("_mm256_storeu_ps("), "{c}");
    assert!(c.contains("not unit-stride in its last dimension"), "{c}");
    // ...which index through the window's runtime strides.
    assert!(c.contains(".strides[0]") || c.contains("strides"), "{c}");
}

#[test]
fn unit_stride_callsites_keep_the_intrinsics() {
    let unit = emit_c(
        &fixtures::row_copy(),
        &fixtures::avx2_registry(),
        &CodegenOptions::native(),
    )
    .unwrap();
    let c = &unit.code;
    assert!(c.contains("_mm256_loadu_ps("), "{c}");
    assert!(c.contains("_mm256_storeu_ps("), "{c}");
    assert!(!c.contains("not unit-stride"), "{c}");
}

#[test]
fn strided_vector_calls_agree_with_interpreter_in_intrinsic_mode() {
    // The demoted unit is pure C99 (no immintrin left), so the
    // differential harness can compile it anywhere; before the verdict
    // existed, intrinsic-mode emission of this kernel produced silently
    // wrong column accesses.
    let proc = fixtures::column_copy();
    let registry = fixtures::avx2_registry();
    match run_differential_with(&proc, &registry, 21, &CodegenOptions::native()) {
        Ok(DiffOutcome::Agreed { elems, .. }) => assert!(elems > 0),
        Ok(DiffOutcome::Skipped(why)) => eprintln!("skipping: {why}"),
        Err(e) => panic!("strided intrinsic differential failed: {e}"),
    }
}
