//! The static verifier must certify the whole shipped surface — every
//! library kernel in both precisions, every library-scheduled output and
//! every replayed schedule of record — with zero diagnostics: no provable
//! out-of-bounds access, no unprovable bound, every parallel loop
//! race-free.

use exo_cursors::ProcHandle;
use exo_ir::Proc;
use exo_kernels::{
    blur2d, gemmini_matmul, gemv, sgemm, unsharp, Precision, LEVEL1_KERNELS, LEVEL2_KERNELS,
};
use exo_lib::{
    apply_script, gemmini_schedule, halide_blur_schedule, halide_unsharp_schedule,
    optimize_all_level_1, optimize_all_level_2, optimize_sgemm, schedule_of_record,
};
use exo_machine::MachineModel;

/// `(label, proc)` for everything the library ships.
fn shipped_procs(machine: &MachineModel) -> Vec<(String, Proc)> {
    let mut out: Vec<(String, Proc)> = Vec::new();
    let precisions = [Precision::Single, Precision::Double];
    for prec in precisions {
        let level1 = LEVEL1_KERNELS.iter().map(|k| (k.build)(prec));
        let level2 = LEVEL2_KERNELS.iter().map(|k| (k.build)(prec));
        for p in level1.chain(level2) {
            out.push((p.name().to_string(), p));
        }
    }
    for p in [sgemm(), gemmini_matmul(), blur2d(), unsharp()] {
        out.push((p.name().to_string(), p));
    }
    for prec in precisions {
        for (name, h) in optimize_all_level_1(machine, prec) {
            out.push((format!("{name}+l1"), h.proc().clone()));
        }
        for (name, h) in optimize_all_level_2(machine, prec) {
            out.push((format!("{name}+l2"), h.proc().clone()));
        }
    }
    let scheduled = [
        (
            "sgemm+hand",
            optimize_sgemm(&ProcHandle::new(sgemm()), machine),
        ),
        (
            "blur2d+halide",
            halide_blur_schedule(&ProcHandle::new(blur2d()), machine),
        ),
        (
            "unsharp+halide",
            halide_unsharp_schedule(&ProcHandle::new(unsharp()), machine),
        ),
        (
            "gemmini+sched",
            gemmini_schedule(&ProcHandle::new(gemmini_matmul())),
        ),
    ];
    for (label, result) in scheduled {
        let h = result.unwrap_or_else(|e| panic!("{label} fails to schedule: {e}"));
        out.push((label.to_string(), h.proc().clone()));
    }
    for kernel in [sgemm(), gemv(Precision::Single, false), blur2d()] {
        let label = format!("{}+record", kernel.name());
        let script = schedule_of_record(kernel.name(), machine)
            .unwrap_or_else(|| panic!("{} lost its schedule of record", kernel.name()));
        let h = apply_script(&ProcHandle::new(kernel), &script, machine)
            .unwrap_or_else(|e| panic!("{label} fails to replay: {e}"));
        out.push((label, h.proc().clone()));
    }
    out
}

#[test]
fn every_shipped_kernel_and_schedule_verifies_with_zero_diagnostics() {
    let procs = shipped_procs(&MachineModel::avx2());
    assert!(procs.len() >= 71, "only {} shipped procs", procs.len());
    let findings: Vec<String> = procs
        .iter()
        .flat_map(|(label, proc)| {
            exo_analysis::check_proc(proc)
                .into_iter()
                .map(move |d| format!("{label}: {d}"))
        })
        .collect();
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}
