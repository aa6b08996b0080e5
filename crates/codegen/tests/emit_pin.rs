//! Pins the emitted C outside the scheduling library: one digest over the
//! units of the emitter's test fixtures and of 64 randomly scheduled
//! random kernels, in all four emission modes. The ledger's
//! `codegen.emitted_units_hash` covers the library's 72 schedules, which
//! never reach most of these constructs (configuration registers,
//! Euclidean `/` and `%`, `-(-n)`, bool literals, hoisted loop bounds,
//! by-reference scalars, rank-0 windows, OpenMP pragmas, demoted
//! instructions, emission errors). A change meant to keep every emitted
//! byte keeps this digest.

mod fixtures;

use exo_codegen::{emit_c, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_interp::ProcRegistry;
use exo_ir::gen::affine_kernel;
use exo_ir::rng::Rng;
use exo_ir::{ContentHasher, Proc};
use exo_machine::MachineModel;
use std::hash::{Hash, Hasher};

/// The digest of every unit (or emission error) below, at the commit
/// that introduced this test.
const PINNED: u64 = 13_081_749_385_183_875_441;

fn modes() -> [(&'static str, CodegenOptions); 4] {
    [
        ("portable", CodegenOptions::portable()),
        ("native", CodegenOptions::native()),
        ("debug", CodegenOptions::debug()),
        ("native_openmp", CodegenOptions::native_openmp()),
    ]
}

fn cases() -> Vec<(Proc, ProcRegistry)> {
    use fixtures::*;
    let none = ProcRegistry::new;
    let with = |procs: Vec<Proc>| procs.into_iter().collect::<ProcRegistry>();
    let mut cases = vec![
        (gemv(), none()),
        (twice(), none()),
        (lits(), none()),
        (divmod(), none()),
        (branchy(), none()),
        (cfguser(), none()),
        (window_caller(), with(vec![vec_copy8()])),
        (alloc2d(), none()),
        (negneg(), none()),
        (impure_bound(), none()),
        (fill4_kernel(), with(vec![fill4(1.0)])),
        (writeback_caller(), with(vec![scale_acc()])),
        (wrap_caller(), with(vec![scale_acc(), wrap()])),
        (bad_rank(), with(vec![scale_acc()])),
        (out_of_window(), none()),
        (proven_copy(), none()),
        (column_copy(), avx2_registry()),
        (row_copy(), avx2_registry()),
        (bools(), none()),
        (rank0_windows(), with(rank0_callees().into())),
        (parallel_loops(), none()),
        (vectorized_sgemm(), avx2_registry()),
    ];
    let machine = MachineModel::avx2();
    for seed in 0..64 {
        let mut rng = Rng::new(seed);
        let base = ProcHandle::new(affine_kernel(&mut rng, 1));
        let scheduled = random_schedule(&mut rng, base.clone(), &machine);
        cases.push((base.proc().clone(), avx2_registry()));
        cases.push((scheduled.proc().clone(), avx2_registry()));
    }
    cases
}

#[test]
fn emitted_units_outside_the_library_keep_their_digest() {
    let mut h = ContentHasher::new();
    let mut units = 0;
    for (proc, registry) in cases() {
        for (mode, opts) in modes() {
            mode.hash(&mut h);
            match emit_c(&proc, &registry, &opts) {
                Ok(unit) => {
                    units += 1;
                    unit.code.hash(&mut h);
                    unit.cflags.hash(&mut h);
                }
                Err(e) => e.to_string().hash(&mut h),
            }
        }
    }
    let digest = h.finish();
    println!("emission pin: {units} units, digest {digest}");
    assert_eq!(digest, PINNED, "the emitted C changed");
}
