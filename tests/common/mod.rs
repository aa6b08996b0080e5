//! What more than one root test builds the way `benchmark/` builds it.

#![allow(dead_code)]

use exo2::cursors::ProcHandle;
use exo2::ir::{Block, Proc};
use exo2::kernels::{self, Precision};
use exo2::lib::{
    halide_blur_schedule, halide_unsharp_schedule, optimize_all_level_1, optimize_all_level_2,
    optimize_sgemm,
};
use exo2::machine::MachineModel;

/// `exo_bench::paper::sgemm_wide`, which this package does not depend on.
pub fn sgemm_wide(copies: usize) -> Proc {
    let base = kernels::sgemm();
    let stmts = (0..copies).flat_map(|_| base.body().iter().cloned());
    let body: Block = stmts.collect();
    base.with_name("sgemm_wide").with_body(body)
}

/// What `benchmark/`'s `sched_library` builds once, before its passes.
pub struct Library {
    pub machines: Vec<MachineModel>,
    sgemm_bases: Vec<ProcHandle>,
    blur: ProcHandle,
    unsharp: ProcHandle,
}

impl Library {
    pub fn new() -> Self {
        Library {
            machines: vec![MachineModel::avx2(), MachineModel::avx512()],
            sgemm_bases: [
                kernels::sgemm(),
                sgemm_wide(8),
                sgemm_wide(32),
                sgemm_wide(64),
            ]
            .into_iter()
            .map(ProcHandle::new)
            .collect(),
            blur: ProcHandle::new(kernels::blur2d()),
            unsharp: ProcHandle::new(kernels::unsharp()),
        }
    }

    /// One pass's schedules on `machine`, in the benchmark's order.
    pub fn schedule_on(&self, m: &MachineModel) -> Vec<ProcHandle> {
        let mut out = Vec::new();
        for prec in [Precision::Single, Precision::Double] {
            out.extend(optimize_all_level_1(m, prec).into_iter().map(|(_, p)| p));
            out.extend(optimize_all_level_2(m, prec).into_iter().map(|(_, p)| p));
        }
        for base in &self.sgemm_bases {
            out.push(optimize_sgemm(base, m).expect("sgemm schedule"));
        }
        out.push(halide_blur_schedule(&self.blur, m).expect("blur schedule"));
        out.push(halide_unsharp_schedule(&self.unsharp, m).expect("unsharp schedule"));
        out
    }

    /// One pass's schedules on every machine, in the benchmark's order.
    pub fn schedule_all(&self) -> Vec<ProcHandle> {
        self.machines
            .iter()
            .flat_map(|m| self.schedule_on(m))
            .collect()
    }
}
