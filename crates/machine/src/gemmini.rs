//! Gemmini accelerator model: instruction procedures and memory sizes.
//!
//! Gemmini (Genc et al., DAC'21) is a systolic-array ML accelerator with a
//! software-managed scratchpad, an accumulator memory, and configuration
//! registers that instructions read implicitly. The paper's Appendix B
//! schedules a quantized matmul onto it; this module provides the
//! instruction procedures that schedule targets, with semantics expressed
//! as object code over 16×16 tiles (and 4-block variants), plus the
//! scalar quantization helpers (`acc_scale`, `clamp`, `relu`) the initial
//! object code calls.

use exo_ir::{ib, var, DataType, Expr, Mem, Proc, ProcBuilder, Sym};

/// Scratchpad capacity modelled for Gemmini (256 KiB, as in the paper).
pub const GEMM_SCRATCH_BYTES: u64 = 256 * 1024;
/// Accumulator capacity modelled for Gemmini (16 KiB, as in the paper).
pub const GEMM_ACCUM_BYTES: u64 = 16 * 1024;

fn tile16(name: &str, ty: DataType, mem: Mem) -> (String, DataType, Vec<Expr>, Mem) {
    (name.to_string(), ty, vec![ib(16), ib(16)], mem)
}

/// The Gemmini instruction set used by the Appendix B matmul schedule.
pub fn gemmini_instructions() -> Vec<Proc> {
    let mut out = Vec::new();

    // Configuration instructions: each writes one configuration field.
    for (name, field) in [
        ("config_ld_i8_id1", "ld1_stride"),
        ("config_ld_i8_id2", "ld2_stride"),
        ("config_st_acc_i8", "st_stride"),
        ("config_matmul", "matmul_mode"),
        ("config_zero", "zero_mode"),
    ] {
        out.push(
            ProcBuilder::new(name)
                .scalar_arg("value", DataType::I32)
                .instr("gemmini_config")
                .with_body(|b| {
                    b.write_config("gemm_cfg", field, var("value"));
                })
                .build(),
        );
    }

    // do_zero_acc_i32(rows, cols, acc[16,16]): zero an accumulator tile.
    let (n, t, d, m) = tile16("acc", DataType::I32, Mem::GemmAccum);
    out.push(
        ProcBuilder::new("do_zero_acc_i32")
            .size_arg("rows")
            .size_arg("cols")
            .window_arg(n, t, d, m)
            .instr("gemmini_zero")
            .with_body(|b| {
                b.for_("i", ib(0), var("rows"), |b| {
                    b.for_("j", ib(0), var("cols"), |b| {
                        b.assign("acc", vec![var("i"), var("j")], exo_ir::fb(0.0));
                    });
                });
            })
            .build(),
    );

    // Blocked loads: copy a 16x(16*blocks) panel from DRAM to scratchpad.
    for name in ["do_ld_i8_block_id1", "do_ld_i8_block_id2"] {
        out.push(
            ProcBuilder::new(name)
                .size_arg("rows")
                .size_arg("blocks")
                .window_arg(
                    "src",
                    DataType::I8,
                    vec![var("rows"), var("blocks") * ib(16)],
                    Mem::Dram,
                )
                .window_arg(
                    "dst",
                    DataType::I8,
                    vec![var("blocks"), var("rows"), ib(16)],
                    Mem::GemmScratch,
                )
                .instr("gemmini_ld_block")
                .with_body(|b| {
                    b.for_("bk", ib(0), var("blocks"), |b| {
                        b.for_("i", ib(0), var("rows"), |b| {
                            b.for_("j", ib(0), ib(16), |b| {
                                b.assign(
                                    "dst",
                                    vec![var("bk"), var("i"), var("j")],
                                    b.read("src", vec![var("i"), ib(16) * var("bk") + var("j")]),
                                );
                            });
                        });
                    });
                })
                .build(),
        );
    }

    // do_matmul_acc_i8(M, N, K, A[16,16]@scratch, B[16,16]@scratch, C[16,16]@accum):
    // C += A * B on one 16x16 tile.
    out.push(
        ProcBuilder::new("do_matmul_acc_i8")
            .size_arg("m")
            .size_arg("n")
            .size_arg("k")
            .window_arg(
                "a",
                DataType::I8,
                vec![var("m"), var("k")],
                Mem::GemmScratch,
            )
            .window_arg(
                "b",
                DataType::I8,
                vec![var("k"), var("n")],
                Mem::GemmScratch,
            )
            .window_arg("c", DataType::I32, vec![var("m"), var("n")], Mem::GemmAccum)
            .instr("gemmini_matmul")
            .with_body(|bb| {
                bb.for_("i", ib(0), var("m"), |b| {
                    b.for_("j", ib(0), var("n"), |b| {
                        b.for_("kk", ib(0), var("k"), |b| {
                            b.reduce(
                                "c",
                                vec![var("i"), var("j")],
                                b.read("a", vec![var("i"), var("kk")])
                                    * b.read("b", vec![var("kk"), var("j")]),
                            );
                        });
                    });
                });
            })
            .build(),
    );

    // do_st_acc_i8(rows, cols, acc[16,16]@accum, dst[rows,cols]@DRAM):
    // store (with the scale/activation applied by the configuration; the
    // functional model stores the raw accumulator value, matching the
    // scale=1.0 / act=false configuration used by the benchmarks).
    out.push(
        ProcBuilder::new("do_st_acc_i8")
            .size_arg("rows")
            .size_arg("cols")
            .window_arg(
                "acc",
                DataType::I32,
                vec![var("rows"), var("cols")],
                Mem::GemmAccum,
            )
            .window_arg(
                "dst",
                DataType::I8,
                vec![var("rows"), var("cols")],
                Mem::Dram,
            )
            .instr("gemmini_st")
            .with_body(|b| {
                b.for_("i", ib(0), var("rows"), |b| {
                    b.for_("j", ib(0), var("cols"), |b| {
                        b.assign(
                            "dst",
                            vec![var("i"), var("j")],
                            b.read("acc", vec![var("i"), var("j")]),
                        );
                    });
                });
            })
            .build(),
    );

    // Scalar helpers used by the unscheduled matmul's epilogue.
    out.push(
        ProcBuilder::new("acc_scale")
            .window_arg("src", DataType::I32, vec![], Mem::Dram)
            .window_arg("dst", DataType::F32, vec![], Mem::Dram)
            .scalar_arg("scale", DataType::F32)
            .instr("scalar_helper")
            .with_body(|b| {
                b.assign("dst", vec![], b.read("src", vec![]) * var("scale"));
            })
            .build(),
    );
    out.push(
        ProcBuilder::new("clamp")
            .window_arg("src", DataType::F32, vec![], Mem::Dram)
            .window_arg("dst", DataType::I8, vec![], Mem::Dram)
            .instr("scalar_helper")
            .with_body(|b| {
                // Functional model: saturate to [-128, 127] via two selects
                // expressed with ifs on a temporary.
                b.assign("dst", vec![], b.read("src", vec![]));
                b.if_(
                    Expr::bin(exo_ir::BinOp::Gt, b.read("dst", vec![]), exo_ir::fb(127.0)),
                    |t| {
                        t.assign("dst", vec![], exo_ir::fb(127.0));
                    },
                );
                b.if_(
                    Expr::bin(exo_ir::BinOp::Lt, b.read("dst", vec![]), exo_ir::fb(-128.0)),
                    |t| {
                        t.assign("dst", vec![], exo_ir::fb(-128.0));
                    },
                );
            })
            .build(),
    );
    out.push(
        ProcBuilder::new("relu")
            .window_arg("val", DataType::I8, vec![], Mem::Dram)
            .instr("scalar_helper")
            .with_body(|b| {
                b.if_(
                    Expr::bin(exo_ir::BinOp::Lt, b.read("val", vec![]), exo_ir::fb(0.0)),
                    |t| {
                        t.assign("val", vec![], exo_ir::fb(0.0));
                    },
                );
            })
            .build(),
    );
    let _ = Sym::new("gemm_cfg");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_set_contents() {
        let instrs = gemmini_instructions();
        let names: Vec<&str> = instrs.iter().map(|p| p.name()).collect();
        for expected in [
            "config_ld_i8_id1",
            "config_matmul",
            "do_zero_acc_i32",
            "do_ld_i8_block_id1",
            "do_matmul_acc_i8",
            "do_st_acc_i8",
            "acc_scale",
            "clamp",
            "relu",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert!(instrs.iter().all(|p| p.is_instr()));
    }

    #[test]
    fn memory_sizes_match_the_paper() {
        assert_eq!(GEMM_SCRATCH_BYTES, 256 * 1024);
        assert_eq!(GEMM_ACCUM_BYTES, 16 * 1024);
    }

    #[test]
    fn matmul_semantics_accumulate() {
        use exo_interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
        let registry: ProcRegistry = gemmini_instructions().into_iter().collect();
        let matmul = registry.get("do_matmul_acc_i8").unwrap().clone();
        let mut interp = Interpreter::new(&registry);
        let (_, a) = ArgValue::from_vec(vec![1.0; 4], vec![2, 2], DataType::I8);
        let (_, b) = ArgValue::from_vec(vec![2.0; 4], vec![2, 2], DataType::I8);
        let (cbuf, carg) = ArgValue::zeros(vec![2, 2], DataType::I32);
        interp
            .run(
                &matmul,
                vec![
                    ArgValue::Int(2),
                    ArgValue::Int(2),
                    ArgValue::Int(2),
                    a,
                    b,
                    carg,
                ],
                &mut NullMonitor,
            )
            .unwrap();
        assert_eq!(cbuf.borrow().data, vec![4.0; 4]);
    }
}
