//! Differential property test: random affine kernels, scheduled with
//! random safe primitives, emit C that compiles and agrees with the
//! slot-indexed interpreter on randomized inputs.
//!
//! Each case compiles a real C program, so the case count is small but
//! every case covers a full pipeline: kernel synthesis → schedule →
//! emission → `cc -O2 -Wall -Werror` → run → element comparison. When no
//! C compiler is on `PATH` the cases log a notice and pass vacuously.

use exo_codegen::difftest::{cc_available, run_differential, DiffOutcome};
use exo_core::{divide_loop, simplify, unroll_loop, TailStrategy};
use exo_cursors::ProcHandle;
use exo_interp::ProcRegistry;
use exo_ir::gen::affine_kernel;
use exo_ir::rng::Rng;
use exo_ir::DataType;
use exo_lib::vectorize;
use exo_machine::MachineModel;
use proptest::prelude::*;

/// Applies a random sequence of safe scheduling primitives. Every
/// primitive preserves semantics by construction, so whatever this
/// returns must still agree with the interpreter (and therefore with
/// the compiled C).
fn random_schedule(rng: &mut Rng, p: ProcHandle, machine: &MachineModel) -> ProcHandle {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_schedules_of_random_kernels_compile_and_agree(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let machine = MachineModel::avx2();
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        let base = ProcHandle::new(affine_kernel(&mut rng, 1));
        let scheduled = random_schedule(&mut rng, base.clone(), &machine);
        let input_seed = Rng::stream(seed, "inputs").next_u64();
        for proc in [base.proc(), scheduled.proc()] {
            match run_differential(proc, &registry, input_seed) {
                Ok(DiffOutcome::Agreed { elems, .. }) => prop_assert!(elems > 0),
                Ok(DiffOutcome::Skipped(why)) => {
                    eprintln!("SKIPPED codegen property case: {why}");
                    prop_assert!(!cc_available());
                }
                Err(e) => prop_assert!(false, "{e}\nscheduled:\n{}", scheduled.proc()),
            }
        }
    }
}
