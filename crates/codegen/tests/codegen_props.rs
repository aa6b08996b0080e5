//! Differential property test: random affine kernels, scheduled with
//! random safe primitives, emit C that compiles and agrees with the
//! slot-indexed interpreter on randomized inputs.
//!
//! Each case compiles a real C program, so the case count is small but
//! every case covers a full pipeline: kernel synthesis → schedule →
//! emission → `cc -O2 -Wall -Werror` → run → element comparison. When no
//! C compiler is on `PATH` the cases log a notice and pass vacuously.

mod fixtures;

use exo_codegen::difftest::{cc_available, run_differential, DiffOutcome};
use exo_cursors::ProcHandle;
use exo_interp::ProcRegistry;
use exo_ir::gen::affine_kernel;
use exo_ir::rng::Rng;
use exo_ir::DataType;
use exo_machine::MachineModel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_schedules_of_random_kernels_compile_and_agree(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let machine = MachineModel::avx2();
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        let base = ProcHandle::new(affine_kernel(&mut rng, 1));
        let scheduled = fixtures::random_schedule(&mut rng, base.clone(), &machine);
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
