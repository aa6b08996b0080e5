//! Property: searchable implies compilable. Any genome script the
//! candidate generator proposes that (a) replays cleanly through the
//! safety-checked primitives and (b) still runs under the interpreter
//! must also emit C — in both portable and native mode. The autotuner's
//! pruning must never be the thing hiding a codegen `Unsupported` hole;
//! that was exactly the failure mode this PR's bugfixes close.

use exo_autotune::space::generate_candidates;
use exo_codegen::difftest::{interp_outputs, synth_inputs};
use exo_codegen::{emit_c, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_interp::ProcRegistry;
use exo_ir::gen::affine_kernel;
use exo_ir::rng::Rng;
use exo_ir::DataType;
use exo_lib::apply_script;
use exo_machine::MachineModel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn legal_candidates_that_interpret_also_emit_c(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let machine = MachineModel::avx2();
        let registry: ProcRegistry =
            machine.instructions(DataType::F32).into_iter().collect();
        let base = ProcHandle::new(affine_kernel(&mut rng, 2));
        let sampler_seed = Rng::stream(seed, "candidates").next_u64();
        let input_seed = Rng::stream(seed, "inputs").next_u64();
        let candidates = generate_candidates(&base, &machine, sampler_seed, 40);
        prop_assert!(!candidates.is_empty());
        let mut survived = 0usize;
        for script in &candidates {
            // Illegal scripts are the generator's business-as-usual; the
            // property only constrains the survivors.
            let Ok(scheduled) = apply_script(&base, script, &machine) else {
                continue;
            };
            let inputs = match synth_inputs(scheduled.proc(), input_seed) {
                Ok(inputs) => inputs,
                Err(why) => {
                    eprintln!("SKIPPED input synthesis for `{script}`: {why}");
                    continue;
                }
            };
            if interp_outputs(scheduled.proc(), &registry, &inputs).is_err() {
                continue;
            }
            survived += 1;
            for opts in [CodegenOptions::portable(), CodegenOptions::native()] {
                if let Err(e) = emit_c(scheduled.proc(), &registry, &opts) {
                    prop_assert!(
                        false,
                        "searchable but not compilable: `{script}` fails emit_c: {e}\n{}",
                        scheduled.proc()
                    );
                }
            }
        }
        // The identity script always survives, so the property is never
        // vacuous.
        prop_assert!(survived > 0);
    }
}
