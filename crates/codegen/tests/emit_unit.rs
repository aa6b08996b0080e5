//! Emitter unit tests: signatures, control flow, reserved-name
//! rejection, float literals, configuration registers and windows.

mod fixtures;

use exo_codegen::{emit_c, CodegenError, CodegenOptions};
use exo_interp::ProcRegistry;
use exo_ir::{ib, DataType, Mem, ProcBuilder};

fn portable() -> CodegenOptions {
    CodegenOptions::portable()
}

#[test]
fn gemv_emits_strided_accesses_with_hoisted_strides() {
    let p = fixtures::gemv();
    let unit = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap();
    let c = &unit.code;
    assert!(
        c.contains("void gemv(int64_t M, int64_t N, float *A, float *x, float *y)"),
        "{c}"
    );
    assert!(c.contains("/* assume: M % 8 == 0 */"), "{c}");
    assert!(c.contains("const int64_t A_s0 = N;"), "{c}");
    assert!(c.contains("for (int64_t i = 0; i < M; i++) {"), "{c}");
    assert!(c.contains("y[i] += A[i * A_s0 + j] * x[j];"), "{c}");
    assert!(unit.cflags.is_empty());
}

#[test]
fn reserved_proc_and_argument_names_are_rejected() {
    let p = ProcBuilder::new("while").build();
    match emit_c(&p, &ProcRegistry::new(), &portable()) {
        Err(CodegenError::ReservedName { name, what }) => {
            assert_eq!(name, "while");
            assert_eq!(what, "procedure");
        }
        other => panic!("expected ReservedName, got {other:?}"),
    }
    let p = ProcBuilder::new("k")
        .tensor_arg("double", DataType::F32, vec![ib(4)], Mem::Dram)
        .build();
    let err = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap_err();
    match &err {
        CodegenError::ReservedName { what, .. } => assert_eq!(*what, "argument"),
        other => panic!("expected ReservedName, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("double") && msg.contains("reserved"), "{msg}");
    // `main` would collide with the driver; also rejected.
    let p = ProcBuilder::new("main").build();
    assert!(matches!(
        emit_c(&p, &ProcRegistry::new(), &portable()),
        Err(CodegenError::ReservedName { .. })
    ));
}

#[test]
fn shadowed_iterators_get_distinct_c_names() {
    // Two sibling loops over `i`: lowering gives each its own slot, so
    // the emitted C declares two distinct identifiers.
    let p = fixtures::twice();
    let unit = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap();
    let c = &unit.code;
    assert!(c.contains("for (int64_t i = 0; i < 8; i++)"), "{c}");
    assert!(
        c.contains("for (int64_t i_s2 = 0; i_s2 < 8; i_s2++)"),
        "{c}"
    );
    assert!(c.contains("x[i_s2] = 2.0;"), "{c}");
}

#[test]
fn float_literals_are_legal_c() {
    let p = fixtures::lits();
    let unit = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap();
    let c = &unit.code;
    assert!(c.contains("x[0] = 1.0;"), "{c}");
    assert!(c.contains("x[1] = INFINITY;"), "{c}");
    assert!(c.contains("x[2] = -INFINITY;"), "{c}");
    assert!(c.contains("x[3] = 0.3333333333333333;"), "{c}");
    assert!(c.contains("#include <math.h>"), "{c}");
}

#[test]
fn euclidean_index_division_uses_the_helper() {
    let p = fixtures::divmod();
    let unit = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap();
    let c = &unit.code;
    assert!(c.contains("exo_div_euclid(n, 4)"), "{c}");
    assert!(c.contains("exo_mod_euclid(i, n)"), "{c}");
    assert!(c.contains("static inline int64_t exo_div_euclid"), "{c}");
}

#[test]
fn branches_and_else_bodies_emit_structured_ifs() {
    let p = fixtures::branchy();
    let unit = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap();
    let c = &unit.code;
    assert!(c.contains("if (n < 4) {"), "{c}");
    assert!(c.contains("} else {"), "{c}");
    assert!(c.contains("if (n == 8) {"), "{c}");
}

#[test]
fn config_registers_become_static_globals() {
    let p = fixtures::cfguser();
    let unit = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap();
    let c = &unit.code;
    assert!(
        c.contains("static double exo_cfg_gemm_cfg_ld1_stride = 0.0;"),
        "{c}"
    );
    assert!(c.contains("exo_cfg_gemm_cfg_ld1_stride = 16;"), "{c}");
    assert!(c.contains("x[0] = exo_cfg_gemm_cfg_ld1_stride;"), "{c}");
}

#[test]
fn calls_with_windows_emit_compound_literals() {
    let mut registry = ProcRegistry::new();
    registry.register(fixtures::vec_copy8());
    let unit = emit_c(
        &fixtures::window_caller(),
        &registry,
        &CodegenOptions::portable(),
    )
    .unwrap();
    let c = &unit.code;
    assert!(
        c.contains("struct exo_win_1f32 { float *data; int64_t strides[1]; };"),
        "{c}"
    );
    assert!(
        c.contains("static void vec_copy8(struct exo_win_1f32 dst, struct exo_win_1f32 src)"),
        "{c}"
    );
    assert!(c.contains("float t[8];"), "{c}");
    assert!(c.contains("memset(t, 0, sizeof t);"), "{c}");
    // The register window is passed whole, the matrix row with a point
    // offset on the leading dimension.
    assert!(
        c.contains("vec_copy8((struct exo_win_1f32){ t, { 1 } }"),
        "{c}"
    );
    assert!(c.contains("&x[i * x_s0]"), "{c}");
    // Callee accesses go through the window strides.
    assert!(c.contains("dst.data[l * dst.strides[0]]"), "{c}");
}

#[test]
fn multi_dim_allocations_are_declared_flat() {
    // Accesses linearize through row-major strides, so the declaration
    // must be a flat array — `float t[4][3]` would not type-check
    // against `t[i * 3 + j]`.
    let p = fixtures::alloc2d();
    let unit = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap();
    let c = &unit.code;
    assert!(c.contains("float t[4 * 3];"), "{c}");
    assert!(c.contains("t[1 * 3 + 2] = 5.0;"), "{c}");
    // And the whole thing actually compiles + agrees when cc is present.
    match exo_codegen::difftest::run_differential(&p, &ProcRegistry::new(), 7) {
        Ok(_) => {}
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn nested_negation_does_not_emit_predecrement() {
    let p = fixtures::negneg();
    let unit = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap();
    let c = &unit.code;
    assert!(c.contains("out[0] = -(-n);"), "{c}");
    assert!(c.contains("out[0] = -(-5.0);"), "{c}");
    assert!(!c.contains("--"), "{c}");
}

#[test]
fn impure_loop_bounds_are_hoisted_like_the_executor() {
    // The executor evaluates a loop's upper bound once at entry; a bound
    // reading a buffer element must not be re-evaluated per iteration
    // (the body may write it).
    let p = fixtures::impure_bound();
    let unit = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap();
    let c = &unit.code;
    assert!(c.contains("const int64_t exo_hi_"), "{c}");
    // Differential run: interpreter runs `lim[0]` (= 3 after synthesis?)
    // iterations as read at entry; the C must match. (Skipped sans cc.)
    // Note: synthesized `lim[0]` is random integer-valued data; whatever
    // it is, both backends must agree element-for-element.
    if let Err(e) = exo_codegen::difftest::run_differential(&p, &ProcRegistry::new(), 11) {
        panic!("{e}");
    }
}

#[test]
fn unknown_callees_error() {
    let p = ProcBuilder::new("caller")
        .with_body(|b| {
            b.call("missing", vec![]);
        })
        .build();
    assert!(matches!(
        emit_c(&p, &ProcRegistry::new(), &portable()),
        Err(CodegenError::UnknownCallee(_))
    ));
}

#[test]
fn re_registering_an_instruction_changes_the_emitted_unit() {
    // A callee's C comes from the registry's memoized lowering and text,
    // which live in the registry entry: re-registering the name must
    // replace both along with the definition.
    let p = fixtures::fill4_kernel();
    let mut registry = ProcRegistry::new();
    registry.register(fixtures::fill4(1.0));
    let first = emit_c(&p, &registry, &portable()).unwrap().code;
    assert_eq!(emit_c(&p, &registry, &portable()).unwrap().code, first);
    registry.register(fixtures::fill4(2.0));
    let second = emit_c(&p, &registry, &portable()).unwrap().code;
    assert_ne!(first, second);
    assert!(
        first.contains("= 1.0") && !first.contains("= 2.0"),
        "{first}"
    );
    assert!(
        second.contains("= 2.0") && !second.contains("= 1.0"),
        "{second}"
    );
}

#[test]
fn demoted_and_intrinsic_uses_of_one_instruction_emit_their_own_text() {
    // `column_copy` demotes `mm256_loadu_ps` to its scalar body (strided
    // windows), `row_copy` keeps the intrinsic: the memo is keyed by the
    // verdict, so neither unit replays the other's text.
    let shared = fixtures::avx2_registry();
    let native = CodegenOptions::native();
    let fresh = |p: &exo_ir::Proc| emit_c(p, &fixtures::avx2_registry(), &native).unwrap().code;
    for p in [
        fixtures::column_copy(),
        fixtures::row_copy(),
        fixtures::column_copy(),
        fixtures::row_copy(),
    ] {
        assert_eq!(emit_c(&p, &shared, &native).unwrap().code, fresh(&p));
    }
}

#[test]
fn portable_then_native_from_one_registry_match_fresh_registries() {
    // The memo is keyed by the emission mode: a registry that emitted a
    // unit portable emits it native as a registry that never emitted.
    let shared = fixtures::avx2_registry();
    let p = fixtures::vectorized_sgemm();
    for opts in [
        CodegenOptions::portable(),
        CodegenOptions::native(),
        CodegenOptions::portable(),
    ] {
        let unit = emit_c(&p, &shared, &opts).unwrap();
        let fresh = emit_c(&p, &fixtures::avx2_registry(), &opts).unwrap();
        assert_eq!(unit.code, fresh.code);
        assert_eq!(unit.cflags, fresh.cflags);
    }
    let native = emit_c(&p, &shared, &CodegenOptions::native()).unwrap();
    assert!(native.code.contains("_mm256_"), "{}", native.code);
    assert!(!native.cflags.is_empty());
}
