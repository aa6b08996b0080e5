//! x86 vector instruction procedures (AVX2 and AVX512).
//!
//! Each instruction is an object-language procedure whose body defines its
//! semantics (a short loop over the register lanes) and whose `instr`
//! metadata carries the cost class used by the simulator. The vectorizer
//! in `exo-lib` lowers staged loops to calls to these procedures via the
//! `replace` / `replace_all` primitives.

use exo_ir::{ib, var, DataType, Mem, Proc, ProcBuilder};

/// Builds the instruction set for a vector ISA with `lanes` lanes of the
/// given precision. `prefix` distinguishes AVX2 (`mm256`) from AVX512
/// (`mm512`), and `suffix` distinguishes f32 (`ps`) from f64 (`pd`).
fn vector_instructions(
    prefix: &str,
    suffix: &str,
    lanes: i64,
    ty: DataType,
    mem: Mem,
) -> Vec<Proc> {
    let cost = |class: &str| format!("{prefix}_{class}");
    let name = |op: &str| format!("{prefix}_{op}_{suffix}");
    let mut out = Vec::new();

    // dst[l] = src[l]  (load from memory / store to memory / register move)
    for (op, class, src_mem) in [
        ("loadu", "load", Mem::Dram),
        ("storeu", "store", mem.clone()),
        ("mov", "mov", mem.clone()),
    ] {
        let (dst_mem, s_mem) = if op == "storeu" {
            (Mem::Dram, src_mem)
        } else {
            (mem.clone(), src_mem)
        };
        out.push(
            ProcBuilder::new(name(op))
                .window_arg("dst", ty, vec![ib(lanes)], dst_mem)
                .window_arg("src", ty, vec![ib(lanes)], s_mem)
                .instr(cost(class))
                .with_body(|b| {
                    b.for_("l", ib(0), ib(lanes), |b| {
                        b.assign("dst", vec![var("l")], b.read("src", vec![var("l")]));
                    });
                })
                .build(),
        );
    }

    // dst[l] = val (broadcast)
    out.push(
        ProcBuilder::new(name("set1"))
            .window_arg("dst", ty, vec![ib(lanes)], mem.clone())
            .scalar_arg("val", ty)
            .instr(cost("broadcast"))
            .with_body(|b| {
                b.for_("l", ib(0), ib(lanes), |b| {
                    b.assign("dst", vec![var("l")], var("val"));
                });
            })
            .build(),
    );

    // Binary lane-wise arithmetic: dst[l] = a[l] op b[l]
    for (op, expr_op) in [
        ("add", exo_ir::BinOp::Add),
        ("sub", exo_ir::BinOp::Sub),
        ("mul", exo_ir::BinOp::Mul),
        ("div", exo_ir::BinOp::Div),
    ] {
        out.push(
            ProcBuilder::new(name(op))
                .window_arg("dst", ty, vec![ib(lanes)], mem.clone())
                .window_arg("a", ty, vec![ib(lanes)], mem.clone())
                .window_arg("b", ty, vec![ib(lanes)], mem.clone())
                .instr(cost("alu"))
                .with_body(|b| {
                    b.for_("l", ib(0), ib(lanes), |b| {
                        let rhs = exo_ir::Expr::bin(
                            expr_op,
                            b.read("a", vec![var("l")]),
                            b.read("b", vec![var("l")]),
                        );
                        b.assign("dst", vec![var("l")], rhs);
                    });
                })
                .build(),
        );
    }

    // Lane-wise accumulate: acc[l] += a[l]
    out.push(
        ProcBuilder::new(name("addacc"))
            .window_arg("acc", ty, vec![ib(lanes)], mem.clone())
            .window_arg("a", ty, vec![ib(lanes)], mem.clone())
            .instr(cost("alu"))
            .with_body(|b| {
                b.for_("l", ib(0), ib(lanes), |b| {
                    b.reduce("acc", vec![var("l")], b.read("a", vec![var("l")]));
                });
            })
            .build(),
    );

    // Fused multiply-add: acc[l] += a[l] * b[l]
    out.push(
        ProcBuilder::new(name("fmadd"))
            .window_arg("a", ty, vec![ib(lanes)], mem.clone())
            .window_arg("b", ty, vec![ib(lanes)], mem.clone())
            .window_arg("acc", ty, vec![ib(lanes)], mem.clone())
            .instr(cost("fma"))
            .with_body(|b| {
                b.for_("l", ib(0), ib(lanes), |b| {
                    b.reduce(
                        "acc",
                        vec![var("l")],
                        b.read("a", vec![var("l")]) * b.read("b", vec![var("l")]),
                    );
                });
            })
            .build(),
    );

    // Lane-wise multiply-accumulate into memory-resident reduction
    // (used by the level-1 reductions after parallelizing them).
    out.push(
        ProcBuilder::new(name("reduce_add_scalar"))
            .window_arg("out", ty, vec![], Mem::Dram)
            .window_arg("a", ty, vec![ib(lanes)], mem.clone())
            .instr(cost("hreduce"))
            .with_body(|b| {
                b.for_("l", ib(0), ib(lanes), |b| {
                    b.reduce("out", vec![], b.read("a", vec![var("l")]));
                });
            })
            .build(),
    );

    out
}

/// The AVX2 instruction set (8 × f32 or 4 × f64 lanes).
pub fn avx2_instructions(ty: DataType) -> Vec<Proc> {
    match ty {
        DataType::F64 => vector_instructions("mm256", "pd", 4, DataType::F64, Mem::VecAvx2),
        _ => vector_instructions("mm256", "ps", 8, DataType::F32, Mem::VecAvx2),
    }
}

/// The AVX512 instruction set (16 × f32 or 8 × f64 lanes).
pub fn avx512_instructions(ty: DataType) -> Vec<Proc> {
    match ty {
        DataType::F64 => vector_instructions("mm512", "pd", 8, DataType::F64, Mem::VecAvx512),
        _ => vector_instructions("mm512", "ps", 16, DataType::F32, Mem::VecAvx512),
    }
}

/// Cycle cost assumed for instruction cost classes the model does not
/// know (a conservative middle-of-the-road latency).
pub const DEFAULT_INSTRUCTION_COST: u64 = 8;

/// An instruction cost class the machine model has no entry for.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnknownCostClass(pub String);

impl std::fmt::Display for UnknownCostClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsupported instruction cost class `{}` (no latency entry in the machine model)",
            self.0
        )
    }
}

impl std::error::Error for UnknownCostClass {}

/// Cycle cost of an instruction cost class, strict variant. Values are
/// loosely based on published latencies/throughputs for Skylake-class
/// cores and Gemmini's documentation; the benchmark harness only relies
/// on their *relative* magnitudes.
///
/// # Errors
/// Returns [`UnknownCostClass`] — naming the offending class — for any
/// class without a latency entry.
pub fn try_instruction_cost_class(class: &str) -> Result<u64, UnknownCostClass> {
    Ok(match class {
        // x86 vector classes.
        "mm256_load" | "mm512_load" => 3,
        "mm256_store" | "mm512_store" => 3,
        "mm256_mov" | "mm512_mov" => 1,
        "mm256_broadcast" | "mm512_broadcast" => 2,
        "mm256_alu" | "mm512_alu" => 1,
        "mm256_fma" | "mm512_fma" => 1,
        "mm256_hreduce" | "mm512_hreduce" => 6,
        // Gemmini classes.
        "gemmini_config" => 40,
        "gemmini_ld" => 32,
        "gemmini_ld_block" => 64,
        "gemmini_st" => 32,
        "gemmini_matmul" => 32,
        "gemmini_zero" => 8,
        // Scalar helper calls (quantization, activation).
        "scalar_helper" => 4,
        other => return Err(UnknownCostClass(other.to_string())),
    })
}

/// Cycle cost of an instruction cost class, lenient variant: unknown
/// classes fall back to [`DEFAULT_INSTRUCTION_COST`] so user-defined
/// instruction procedures still simulate.
pub fn instruction_cost_class(class: &str) -> u64 {
    try_instruction_cost_class(class).unwrap_or(DEFAULT_INSTRUCTION_COST)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_sets_cover_the_expected_operations() {
        let avx2 = avx2_instructions(DataType::F32);
        let names: Vec<&str> = avx2.iter().map(|p| p.name()).collect();
        for expected in [
            "mm256_loadu_ps",
            "mm256_storeu_ps",
            "mm256_set1_ps",
            "mm256_fmadd_ps",
            "mm256_mul_ps",
            "mm256_add_ps",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert!(avx2.iter().all(|p| p.is_instr()));
        let avx512d = avx512_instructions(DataType::F64);
        assert!(avx512d.iter().any(|p| p.name() == "mm512_fmadd_pd"));
    }

    #[test]
    fn avx512_f32_has_16_lanes() {
        let instrs = avx512_instructions(DataType::F32);
        let load = instrs
            .iter()
            .find(|p| p.name() == "mm512_loadu_ps")
            .expect("avx512 f32 set defines mm512_loadu_ps");
        let exo_ir::ArgKind::Tensor { dims, .. } = &load.args()[0].kind else {
            panic!(
                "mm512_loadu_ps dst should be a tensor argument, was {:?}",
                load.args()[0].kind
            )
        };
        assert_eq!(dims[0].as_int(), Some(16));
    }

    #[test]
    fn cost_classes_are_ordered_sensibly() {
        assert!(
            instruction_cost_class("gemmini_config") > instruction_cost_class("gemmini_matmul")
        );
        assert!(instruction_cost_class("mm512_hreduce") > instruction_cost_class("mm512_fma"));
        assert_eq!(instruction_cost_class("mm256_fma"), 1);
    }

    #[test]
    fn unknown_cost_classes_error_with_the_class_name() {
        let err = try_instruction_cost_class("warp_drive").expect_err("unknown class");
        assert_eq!(err, UnknownCostClass("warp_drive".to_string()));
        let msg = err.to_string();
        assert!(
            msg.contains("warp_drive"),
            "message must name the class: {msg}"
        );
        assert!(msg.contains("unsupported"), "{msg}");
        // The lenient entry point keeps simulating with the default cost.
        assert_eq!(
            instruction_cost_class("warp_drive"),
            DEFAULT_INSTRUCTION_COST
        );
        assert_eq!(try_instruction_cost_class("mm256_fma"), Ok(1));
    }
}
