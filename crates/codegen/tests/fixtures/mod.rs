//! Procedures more than one emitter test builds: the constructs of the
//! emitter unit tests, by-reference scalars, debug bounds and strided
//! instruction calls, and the random schedules of the codegen property
//! test.

#![allow(dead_code)]

use exo_core::{divide_loop, reorder_loops, simplify, unroll_loop, TailStrategy};
use exo_cursors::ProcHandle;
use exo_interp::ProcRegistry;
use exo_ir::rng::Rng;
use exo_ir::{
    fb, ib, read, var, BinOp, DataType, Expr, Mem, Proc, ProcBuilder, Stmt, Sym, UnOp, WAccess,
};
use exo_lib::vectorize;
use exo_machine::MachineModel;

/// Every AVX2 single-precision instruction procedure.
pub fn avx2_registry() -> ProcRegistry {
    MachineModel::avx2()
        .instructions(DataType::F32)
        .into_iter()
        .collect()
}

/// `y += A x` over a 2-D dense argument, with an assertion.
pub fn gemv() -> Proc {
    ProcBuilder::new("gemv")
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
        .build()
}

/// Two sibling loops over `i`: two frame slots with one source name.
pub fn twice() -> Proc {
    let mut builder =
        ProcBuilder::new("twice").tensor_arg("x", DataType::F32, vec![ib(8)], Mem::Dram);
    builder = builder.for_("i", ib(0), ib(8), |b| {
        b.assign("x", vec![var("i")], fb(1.0));
    });
    builder = builder.for_("i", ib(0), ib(8), |b| {
        b.assign("x", vec![var("i")], fb(2.0));
    });
    builder.build()
}

/// Finite, infinite and inexact float literals.
pub fn lits() -> Proc {
    ProcBuilder::new("lits")
        .tensor_arg("x", DataType::F64, vec![ib(4)], Mem::Dram)
        .with_body(|b| {
            b.assign("x", vec![ib(0)], fb(1.0));
            b.assign("x", vec![ib(1)], fb(f64::INFINITY));
            b.assign("x", vec![ib(2)], fb(f64::NEG_INFINITY));
            b.assign("x", vec![ib(3)], fb(1.0 / 3.0));
        })
        .build()
}

/// Euclidean index `/` in a loop bound and `%` in an index.
pub fn divmod() -> Proc {
    ProcBuilder::new("divmod")
        .size_arg("n")
        .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
        .for_("i", ib(0), var("n") / ib(4), |b| {
            b.assign("x", vec![var("i") % var("n")], fb(0.0));
        })
        .build()
}

/// An `if` with an `else` body and one without.
pub fn branchy() -> Proc {
    ProcBuilder::new("branchy")
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
        .build()
}

/// A configuration-register write and read.
pub fn cfguser() -> Proc {
    ProcBuilder::new("cfguser")
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
        .build()
}

/// A window-argument copy, the callee of [`window_caller`].
pub fn vec_copy8() -> Proc {
    ProcBuilder::new("vec_copy8")
        .window_arg("dst", DataType::F32, vec![ib(8)], Mem::VecAvx2)
        .window_arg("src", DataType::F32, vec![ib(8)], Mem::Dram)
        .with_body(|b| {
            b.for_("l", ib(0), ib(8), |b| {
                b.assign("dst", vec![var("l")], b.read("src", vec![var("l")]));
            });
        })
        .build()
}

/// Calls [`vec_copy8`] on a whole allocation and on a matrix row.
pub fn window_caller() -> Proc {
    ProcBuilder::new("caller")
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
        .build()
}

/// A 2-D local allocation, written and read.
pub fn alloc2d() -> Proc {
    ProcBuilder::new("alloc2d")
        .size_arg("n")
        .tensor_arg("out", DataType::F32, vec![var("n")], Mem::Dram)
        .for_("i", ib(0), var("n"), |b| {
            b.alloc("t", DataType::F32, vec![ib(4), ib(3)], Mem::Dram);
            b.assign("t", vec![ib(1), ib(2)], fb(5.0));
            b.assign("out", vec![var("i")], b.read("t", vec![ib(1), ib(2)]));
        })
        .build()
}

/// `-(-n)` on an index and on a float.
pub fn negneg() -> Proc {
    ProcBuilder::new("negneg")
        .size_arg("n")
        .tensor_arg("out", DataType::F32, vec![ib(1)], Mem::Dram)
        .with_body(|b| {
            b.assign("out", vec![ib(0)], -(-var("n")));
            b.assign("out", vec![ib(0)], -(-fb(5.0)));
        })
        .build()
}

/// A loop bound that reads a buffer the body writes.
pub fn impure_bound() -> Proc {
    ProcBuilder::new("impure_bound")
        .tensor_arg("lim", DataType::F32, vec![ib(1)], Mem::Dram)
        .tensor_arg("out", DataType::F32, vec![ib(64)], Mem::Dram)
        .for_("i", ib(0), read("lim", vec![ib(0)]) + ib(0), |b| {
            b.assign("lim", vec![ib(0)], fb(1.0));
            b.assign("out", vec![var("i")], fb(1.0));
        })
        .build()
}

/// An instruction procedure filling four elements with `rhs`.
pub fn fill4(rhs: f64) -> Proc {
    ProcBuilder::new("fill4")
        .tensor_arg("dst", DataType::F32, vec![ib(4)], Mem::Dram)
        .for_("i", ib(0), ib(4), |b| {
            b.assign("dst", vec![var("i")], fb(rhs));
        })
        .build()
        .with_instr(exo_ir::InstrInfo {
            cost_class: "test".into(),
        })
}

/// Calls [`fill4`] once.
pub fn fill4_kernel() -> Proc {
    ProcBuilder::new("kernel")
        .tensor_arg("y", DataType::F32, vec![ib(4)], Mem::Dram)
        .with_body(|b| {
            b.call("fill4", vec![var("y")]);
        })
        .build()
}

/// `scale_acc(dst, s): dst = dst * s` — writes its scalar parameter.
pub fn scale_acc() -> Proc {
    ProcBuilder::new("scale_acc")
        .scalar_arg("dst", DataType::F32)
        .scalar_arg("s", DataType::F32)
        .with_body(|b| {
            b.assign("dst", vec![], var("dst") * var("s"));
        })
        .build()
}

/// A caller that reduces into a rank-0 allocation, scales it through the
/// by-reference call, and stores the result.
pub fn writeback_caller() -> Proc {
    ProcBuilder::new("uses_writeback")
        .size_arg("n")
        .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
        .with_body(|b| {
            b.alloc("acc", DataType::F32, vec![], Mem::Dram);
            b.assign("acc", vec![], fb(0.0));
            b.for_("i", ib(0), var("n"), |b| {
                b.reduce("acc", vec![], read("x", vec![var("i")]));
            });
            b.call("scale_acc", vec![var("acc"), fb(0.5)]);
            b.assign("x", vec![ib(0)], var("acc"));
        })
        .build()
}

/// Forwards its scalar parameter to [`scale_acc`], which writes it.
pub fn wrap() -> Proc {
    ProcBuilder::new("wrap")
        .scalar_arg("v", DataType::F32)
        .with_body(|b| {
            b.call("scale_acc", vec![var("v"), fb(2.0)]);
        })
        .build()
}

/// Passes a rank-0 allocation to [`wrap`].
pub fn wrap_caller() -> Proc {
    ProcBuilder::new("uses_wrap")
        .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
        .with_body(|b| {
            b.alloc("t", DataType::F32, vec![], Mem::Dram);
            b.assign("t", vec![], read("x", vec![ib(1)]));
            b.call("wrap", vec![var("t")]);
            b.assign("x", vec![ib(0)], var("t"));
        })
        .build()
}

/// Passes a rank-1 tensor to the written scalar parameter of
/// [`scale_acc`]: an emission error.
pub fn bad_rank() -> Proc {
    ProcBuilder::new("bad_rank")
        .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
        .with_body(|b| {
            b.call("scale_acc", vec![var("x"), fb(0.5)]);
        })
        .build()
}

/// A procedure that reads `w[3]` where `w = x[0, 0:2]`: past the window's
/// extent 2 but inside row 0 of `x`, so neither the interpreter nor plain
/// emitted C notices.
pub fn out_of_window() -> Proc {
    ProcBuilder::new("oow")
        .tensor_arg("x", DataType::F32, vec![ib(4), ib(4)], Mem::Dram)
        .tensor_arg("y", DataType::F32, vec![ib(4)], Mem::Dram)
        .with_body(|b| {
            b.push(Stmt::WindowStmt {
                name: "w".into(),
                rhs: Expr::Window {
                    buf: "x".into(),
                    idx: vec![WAccess::Point(ib(0)), WAccess::Interval(ib(0), ib(2))],
                },
            });
            b.assign("y", vec![ib(0)], read("w", vec![ib(3)]));
        })
        .build()
}

/// An unscheduled copy whose every access the verifier proves in bounds.
pub fn proven_copy() -> Proc {
    ProcBuilder::new("copy")
        .size_arg("n")
        .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
        .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
        .for_("i", ib(0), var("n"), |b| {
            b.assign("y", vec![var("i")], read("x", vec![var("i")]));
        })
        .build()
}

fn column(buf: &str) -> Expr {
    Expr::Window {
        buf: buf.into(),
        idx: vec![
            WAccess::Interval(ib(8) * var("io"), ib(8) * var("io") + ib(8)),
            WAccess::Point(var("j")),
        ],
    }
}

fn row(buf: &str) -> Expr {
    Expr::Window {
        buf: buf.into(),
        idx: vec![
            WAccess::Point(var("j")),
            WAccess::Interval(ib(8) * var("io"), ib(8) * var("io") + ib(8)),
        ],
    }
}

fn vector_copy(name: &str, window: fn(&str) -> Expr) -> Proc {
    ProcBuilder::new(name)
        .tensor_arg("C", DataType::F32, vec![ib(16), ib(16)], Mem::Dram)
        .tensor_arg("A", DataType::F32, vec![ib(16), ib(16)], Mem::Dram)
        .with_body(|b| {
            b.for_("j", ib(0), ib(16), |b| {
                b.for_("io", ib(0), ib(2), |b| {
                    b.alloc("va", DataType::F32, vec![ib(8)], Mem::VecAvx2);
                    b.call("mm256_loadu_ps", vec![var("va"), window("A")]);
                    b.call("mm256_storeu_ps", vec![window("C"), var("va")]);
                });
            });
        })
        .build()
}

/// Copies columns of `A` into `C` through 8-lane vector loads/stores on
/// **column** windows: `A[8*io : 8*io+8, j]` has stride 16 in its kept
/// dimension, violating the intrinsic ABI's unit-stride contract.
pub fn column_copy() -> Proc {
    vector_copy("column_copy", column)
}

/// The same copy over **row** windows `A[j, 8*io : 8*io+8]` — unit
/// stride in the last dimension, so the intrinsics are legal.
pub fn row_copy() -> Proc {
    vector_copy("row_copy", row)
}

/// Bool literals under `&&`, `||` and `!`, and a bool parameter.
pub fn bools() -> Proc {
    let and = |l: Expr, r: Expr| Expr::Bin {
        op: BinOp::And,
        lhs: Box::new(l),
        rhs: Box::new(r),
    };
    let or = |l: Expr, r: Expr| Expr::Bin {
        op: BinOp::Or,
        lhs: Box::new(l),
        rhs: Box::new(r),
    };
    let not = |a: Expr| Expr::Un {
        op: UnOp::Not,
        arg: Box::new(a),
    };
    ProcBuilder::new("bools")
        .size_arg("n")
        .scalar_arg("flag", DataType::Bool)
        .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
        .with_body(|b| {
            b.if_(and(Expr::Bool(true), not(Expr::lt(var("n"), ib(4)))), |t| {
                t.assign("x", vec![ib(0)], fb(1.0));
            });
            b.if_(or(not(var("flag")), Expr::Bool(false)), |t| {
                t.assign("x", vec![ib(1)], fb(2.0));
            });
        })
        .build()
}

/// A callee with a rank-0 tensor parameter and one with a rank-0 window
/// parameter.
pub fn rank0_callees() -> [Proc; 2] {
    [
        ProcBuilder::new("bump0")
            .tensor_arg("d", DataType::F32, vec![], Mem::Dram)
            .with_body(|b| {
                b.reduce("d", vec![], fb(1.0));
            })
            .build(),
        ProcBuilder::new("set0")
            .window_arg("d", DataType::F32, vec![], Mem::Dram)
            .with_body(|b| {
                b.assign("d", vec![], fb(2.0));
            })
            .build(),
    ]
}

/// Rank-0 windows — all-point windows passed to rank-0 parameters and
/// bound by a window statement — a `stride` read, and a window of `y`
/// passed to a rank-0 parameter, whose dropped stride `y_s0` is the only
/// mention of `y`'s row stride.
pub fn rank0_windows() -> Proc {
    let point = |i: Expr, j: Expr| Expr::Window {
        buf: "x".into(),
        idx: vec![WAccess::Point(i), WAccess::Point(j)],
    };
    ProcBuilder::new("rank0_windows")
        .size_arg("n")
        .tensor_arg("x", DataType::F32, vec![var("n"), ib(4)], Mem::Dram)
        .tensor_arg("s", DataType::F32, vec![ib(2)], Mem::Dram)
        .tensor_arg("y", DataType::F32, vec![var("n"), ib(4)], Mem::Dram)
        .for_("i", ib(0), var("n"), |b| {
            b.call(
                "bump0",
                vec![Expr::Window {
                    buf: "y".into(),
                    idx: vec![WAccess::Interval(ib(0), ib(1)), WAccess::Point(ib(2))],
                }],
            );
            b.call("bump0", vec![point(var("i"), ib(1))]);
            b.call("set0", vec![point(var("i"), ib(0) + var("i") % ib(4))]);
            b.push(Stmt::WindowStmt {
                name: "w".into(),
                rhs: point(var("i"), ib(3)),
            });
            b.assign("w", vec![], read("w", vec![]) + fb(1.0));
            b.assign(
                "s",
                vec![ib(0)],
                Expr::Stride {
                    buf: "x".into(),
                    dim: 0,
                },
            );
        })
        .build()
}

fn parallel_for(iter: &str, hi: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        iter: iter.into(),
        lo: ib(0),
        hi,
        body: body.into_iter().collect(),
        parallel: true,
    }
}

/// A parallel loop safe on threads and one reducing into a shared cell.
pub fn parallel_loops() -> Proc {
    ProcBuilder::new("par")
        .size_arg("n")
        .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
        .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
        .tensor_arg("acc", DataType::F32, vec![ib(1)], Mem::Dram)
        .stmt(parallel_for(
            "i",
            var("n"),
            vec![Stmt::Assign {
                buf: "y".into(),
                idx: vec![var("i")],
                rhs: read("x", vec![var("i")]) * fb(2.0),
            }],
        ))
        .stmt(parallel_for(
            "k",
            var("n"),
            vec![Stmt::Reduce {
                buf: "acc".into(),
                idx: vec![ib(0)],
                rhs: read("x", vec![var("k")]),
            }],
        ))
        .build()
}

/// sgemm with `k` outermost and `j` vectorized for AVX2: windows and
/// instruction calls as the scheduling library produces them.
pub fn vectorized_sgemm() -> Proc {
    let machine = MachineModel::avx2();
    let p = ProcHandle::new(exo_kernels::sgemm());
    let p = reorder_loops(&p, "k").expect("reorder");
    let j = p.find_loop("j").expect("j loop");
    vectorize(&p, &j, 8, DataType::F32, &machine, TailStrategy::Perfect)
        .expect("vectorize sgemm")
        .proc()
        .clone()
}

/// Applies a random sequence of safe scheduling primitives. Every
/// primitive preserves semantics by construction, so whatever this
/// returns must still agree with the interpreter (and therefore with
/// the compiled C).
pub fn random_schedule(rng: &mut Rng, p: ProcHandle, machine: &MachineModel) -> ProcHandle {
    let mut p = p;
    for _ in 0..rng.below(3) {
        let Ok(loop_) = p.find_loop("i") else { break };
        match rng.below(4) {
            0 => {
                let factor = [2i64, 4, 8][rng.below(3)];
                let io = p.fresh_name("io");
                let ii = p.fresh_name("ii");
                if let Ok(divided) = divide_loop(
                    &p,
                    &loop_,
                    factor,
                    [io.as_str(), ii.as_str()],
                    TailStrategy::Perfect,
                ) {
                    p = divided;
                    // Unrolling needs a constant-extent loop; the inner
                    // divided loop qualifies.
                    if rng.below(2) == 0 {
                        if let Ok(inner) = p.find_loop(&ii) {
                            if let Ok(unrolled) = unroll_loop(&p, &inner) {
                                p = unrolled;
                            }
                        }
                    }
                }
            }
            1 => {
                if let Ok(vectorized) =
                    vectorize(&p, &loop_, 8, DataType::F32, machine, TailStrategy::Perfect)
                {
                    p = vectorized;
                }
            }
            2 => {
                if let Ok(simplified) = simplify(&p) {
                    p = simplified;
                }
            }
            _ => {}
        }
    }
    p
}
