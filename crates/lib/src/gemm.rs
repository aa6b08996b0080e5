//! SGEMM scheduling (§6.2.3, Appendix C) by reusing the `vectorize`
//! library function: interchange, then vectorize the rows. This is the
//! short schedule — every FMA reloads and stores its vector of `C`. The
//! register-blocked micro-kernel of the paper's case study, which holds a
//! tile of `C` in vector registers across `k`, is the sgemm
//! [`schedule_of_record`](crate::schedule_of_record), built from the same
//! operator; `optimize_sgemm` stays as it is because the library
//! benchmark and the goldens are measured on it.

use crate::vectorize::vectorize;
use exo_core::{reorder_loops, Result, TailStrategy};
use exo_cursors::ProcHandle;
use exo_ir::DataType;
use exo_machine::MachineModel;

/// Schedules the outer-product SGEMM for a vector machine:
///
/// 1. interchange the `k` and `i` loops so the reduction dimension is
///    interior to the row dimension (better output locality),
/// 2. vectorize the `j` loop with FMA staging — the same `vectorize`
///    library function used by the BLAS levels, demonstrating the paper's
///    cross-kernel schedule reuse.
pub fn optimize_sgemm(p: &ProcHandle, machine: &MachineModel) -> Result<ProcHandle> {
    // k, i, j  ->  i, k, j
    let p = reorder_loops(p, "k")?;
    let j = p.find_loop("j")?;
    let vw = machine.vec_width(DataType::F32);
    vectorize(&p, &j, vw, DataType::F32, machine, TailStrategy::Perfect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
    use exo_kernels::sgemm;
    use exo_machine::simulate;

    fn run(proc: &exo_ir::Proc, registry: &ProcRegistry, m: usize, n: usize, k: usize) -> Vec<f64> {
        let mut interp = Interpreter::new(registry);
        let a: Vec<f64> = (0..m * k).map(|v| (v % 7) as f64).collect();
        let b: Vec<f64> = (0..k * n).map(|v| (v % 3) as f64).collect();
        let (_, aa) = ArgValue::from_vec(a, vec![m, k], DataType::F32);
        let (_, bb) = ArgValue::from_vec(b, vec![k, n], DataType::F32);
        let (cb, cc) = ArgValue::zeros(vec![m, n], DataType::F32);
        interp
            .run(
                proc,
                vec![
                    ArgValue::Int(m as i64),
                    ArgValue::Int(n as i64),
                    ArgValue::Int(k as i64),
                    aa,
                    bb,
                    cc,
                ],
                &mut NullMonitor,
            )
            .unwrap();
        let out = cb.borrow().data.clone();
        out
    }

    #[test]
    fn scheduled_sgemm_is_equivalent_and_vectorized() {
        let machine = MachineModel::avx512();
        let p = ProcHandle::new(sgemm());
        let opt = optimize_sgemm(&p, &machine).unwrap();
        assert!(
            opt.to_string().contains("mm512_fmadd_ps"),
            "{}",
            opt.to_string()
        );
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        let (m, n, k) = (16, 32, 16);
        assert_eq!(
            run(p.proc(), &registry, m, n, k),
            run(opt.proc(), &registry, m, n, k)
        );
    }

    #[test]
    fn scheduled_sgemm_is_faster_on_the_cost_model() {
        let machine = MachineModel::avx512();
        let p = ProcHandle::new(sgemm());
        let opt = optimize_sgemm(&p, &machine).unwrap();
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        let (m, n, k) = (32usize, 32usize, 32usize);
        let mk = || {
            let (_, aa) = ArgValue::from_vec(vec![1.0; m * k], vec![m, k], DataType::F32);
            let (_, bb) = ArgValue::from_vec(vec![1.0; k * n], vec![k, n], DataType::F32);
            let (_, cc) = ArgValue::zeros(vec![m, n], DataType::F32);
            vec![
                ArgValue::Int(m as i64),
                ArgValue::Int(n as i64),
                ArgValue::Int(k as i64),
                aa,
                bb,
                cc,
            ]
        };
        let before = simulate(p.proc(), &registry, mk());
        let after = simulate(opt.proc(), &registry, mk());
        assert!(
            after.cycles * 2 < before.cycles,
            "{} vs {}",
            after.cycles,
            before.cycles
        );
    }
}
