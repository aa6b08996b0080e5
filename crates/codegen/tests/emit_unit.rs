//! Emitter unit tests: signatures, control flow, reserved-name
//! rejection, float literals, configuration registers and windows.

use exo_codegen::{emit_c, CodegenError, CodegenOptions};
use exo_interp::ProcRegistry;
use exo_ir::{fb, ib, read, var, DataType, Expr, Mem, ProcBuilder, Sym, WAccess};

fn portable() -> CodegenOptions {
    CodegenOptions::portable()
}

#[test]
fn gemv_emits_strided_accesses_with_hoisted_strides() {
    let p = ProcBuilder::new("gemv")
        .size_arg("M")
        .size_arg("N")
        .tensor_arg("A", DataType::F32, vec![var("M"), var("N")], Mem::Dram)
        .tensor_arg("x", DataType::F32, vec![var("N")], Mem::Dram)
        .tensor_arg("y", DataType::F32, vec![var("M")], Mem::Dram)
        .assert_(Expr::eq_(Expr::modulo(var("M"), ib(8)), ib(0)))
        .for_("i", ib(0), var("M"), |b| {
            b.for_("j", ib(0), var("N"), |b| {
                let rhs = read("A", vec![var("i"), var("j")]) * read("x", vec![var("j")]);
                b.reduce("y", vec![var("i")], rhs);
            });
        })
        .build();
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
    let mut builder =
        ProcBuilder::new("twice").tensor_arg("x", DataType::F32, vec![ib(8)], Mem::Dram);
    builder = builder.for_("i", ib(0), ib(8), |b| {
        b.assign("x", vec![var("i")], fb(1.0));
    });
    builder = builder.for_("i", ib(0), ib(8), |b| {
        b.assign("x", vec![var("i")], fb(2.0));
    });
    let p = builder.build();
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
    let p = ProcBuilder::new("lits")
        .tensor_arg("x", DataType::F64, vec![ib(4)], Mem::Dram)
        .with_body(|b| {
            b.assign("x", vec![ib(0)], fb(1.0));
            b.assign("x", vec![ib(1)], fb(f64::INFINITY));
            b.assign("x", vec![ib(2)], fb(f64::NEG_INFINITY));
            b.assign("x", vec![ib(3)], fb(1.0 / 3.0));
        })
        .build();
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
    let p = ProcBuilder::new("divmod")
        .size_arg("n")
        .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
        .for_("i", ib(0), var("n") / ib(4), |b| {
            b.assign("x", vec![var("i") % var("n")], fb(0.0));
        })
        .build();
    let unit = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap();
    let c = &unit.code;
    assert!(c.contains("exo_div_euclid(n, 4)"), "{c}");
    assert!(c.contains("exo_mod_euclid(i, n)"), "{c}");
    assert!(c.contains("static inline int64_t exo_div_euclid"), "{c}");
}

#[test]
fn branches_and_else_bodies_emit_structured_ifs() {
    let p = ProcBuilder::new("branchy")
        .size_arg("n")
        .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
        .with_body(|b| {
            b.if_else(
                Expr::lt(var("n"), ib(4)),
                |t| {
                    t.assign("x", vec![ib(0)], fb(1.0));
                },
                |e| {
                    e.assign("x", vec![ib(0)], fb(2.0));
                },
            );
            b.if_(Expr::eq_(var("n"), ib(8)), |t| {
                t.assign("x", vec![ib(1)], fb(3.0));
            });
        })
        .build();
    let unit = emit_c(&p, &ProcRegistry::new(), &portable()).unwrap();
    let c = &unit.code;
    assert!(c.contains("if (n < 4) {"), "{c}");
    assert!(c.contains("} else {"), "{c}");
    assert!(c.contains("if (n == 8) {"), "{c}");
}

#[test]
fn config_registers_become_static_globals() {
    let p = ProcBuilder::new("cfguser")
        .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
        .with_body(|b| {
            b.write_config("gemm_cfg", "ld1_stride", ib(16));
            b.assign(
                "x",
                vec![ib(0)],
                Expr::ReadConfig {
                    config: Sym::new("gemm_cfg"),
                    field: "ld1_stride".into(),
                },
            );
        })
        .build();
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
    let callee = ProcBuilder::new("vec_copy8")
        .window_arg("dst", DataType::F32, vec![ib(8)], Mem::VecAvx2)
        .window_arg("src", DataType::F32, vec![ib(8)], Mem::Dram)
        .with_body(|b| {
            b.for_("l", ib(0), ib(8), |b| {
                b.assign("dst", vec![var("l")], b.read("src", vec![var("l")]));
            });
        })
        .build();
    let caller = ProcBuilder::new("caller")
        .size_arg("n")
        .tensor_arg("x", DataType::F32, vec![var("n"), var("n")], Mem::Dram)
        .for_("i", ib(0), var("n"), |b| {
            b.alloc("t", DataType::F32, vec![ib(8)], Mem::VecAvx2);
            b.call(
                "vec_copy8",
                vec![
                    Expr::Window {
                        buf: Sym::new("t"),
                        idx: vec![WAccess::Interval(ib(0), ib(8))],
                    },
                    Expr::Window {
                        buf: Sym::new("x"),
                        idx: vec![WAccess::Point(var("i")), WAccess::Interval(ib(0), ib(8))],
                    },
                ],
            );
        })
        .build();
    let mut registry = ProcRegistry::new();
    registry.register(callee);
    let unit = emit_c(&caller, &registry, &CodegenOptions::portable()).unwrap();
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
    let p = ProcBuilder::new("alloc2d")
        .size_arg("n")
        .tensor_arg("out", DataType::F32, vec![var("n")], Mem::Dram)
        .for_("i", ib(0), var("n"), |b| {
            b.alloc("t", DataType::F32, vec![ib(4), ib(3)], Mem::Dram);
            b.assign("t", vec![ib(1), ib(2)], fb(5.0));
            b.assign("out", vec![var("i")], b.read("t", vec![ib(1), ib(2)]));
        })
        .build();
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
    let p = ProcBuilder::new("negneg")
        .size_arg("n")
        .tensor_arg("out", DataType::F32, vec![ib(1)], Mem::Dram)
        .with_body(|b| {
            b.assign("out", vec![ib(0)], -(-var("n")));
            b.assign("out", vec![ib(0)], -(-fb(5.0)));
        })
        .build();
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
    let p = ProcBuilder::new("impure_bound")
        .tensor_arg("lim", DataType::F32, vec![ib(1)], Mem::Dram)
        .tensor_arg("out", DataType::F32, vec![ib(64)], Mem::Dram)
        .for_("i", ib(0), read("lim", vec![ib(0)]) + ib(0), |b| {
            // Shrink the bound mid-loop: iteration count must still be
            // the value read at entry.
            b.assign("lim", vec![ib(0)], fb(1.0));
            b.assign("out", vec![var("i")], fb(1.0));
        })
        .build();
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
    // A callee's C comes from the registry's memoized lowering, which
    // lives in the registry entry: re-registering the name must replace
    // it along with the definition.
    let instr = |rhs: f64| {
        ProcBuilder::new("fill4")
            .tensor_arg("dst", DataType::F32, vec![ib(4)], Mem::Dram)
            .for_("i", ib(0), ib(4), |b| {
                b.assign("dst", vec![var("i")], fb(rhs));
            })
            .build()
            .with_instr(exo_ir::InstrInfo {
                cost_class: "test".into(),
            })
    };
    let p = ProcBuilder::new("kernel")
        .tensor_arg("y", DataType::F32, vec![ib(4)], Mem::Dram)
        .with_body(|b| {
            b.call("fill4", vec![var("y")]);
        })
        .build();
    let mut registry = ProcRegistry::new();
    registry.register(instr(1.0));
    let first = emit_c(&p, &registry, &portable()).unwrap().code;
    assert_eq!(emit_c(&p, &registry, &portable()).unwrap().code, first);
    registry.register(instr(2.0));
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
