//! Comparison points for the evaluation.
//!
//! The paper compares Exo 2 against vendor BLAS libraries (MKL, OpenBLAS,
//! BLIS), expert-written Halide schedules, and schedules written in the
//! original Exo. None of those artifacts can run on this reproduction's
//! simulated machine, so (per `DESIGN.md`) they are substituted with:
//!
//! * [`naive`] — the unscheduled scalar object code (a lower bound any
//!   library beats),
//! * [`VendorBaseline`] — a "vendor-class" implementation: the best
//!   schedule expressible in the IR plus a fixed per-call dispatch
//!   overhead modelling the library-call boundary that real BLAS
//!   libraries pay and that the paper's small-N ratios expose,
//! * [`exo1_axpy_schedule`] / [`exo1_gemv_schedule`] — "Exo 1 style"
//!   schedules: the same transformations spelled out as raw primitive
//!   calls with no library reuse, used for the lines-of-code and
//!   rewrite-count comparisons (Fig. 6c, Fig. 9).

use exo_core::{
    bind_expr, divide_loop, expand_dim, fission, lift_alloc, replace_all, set_memory, simplify,
    Result, TailStrategy,
};
use exo_cursors::ProcHandle;
use exo_ir::{DataType, ExprStep, Proc};
use exo_machine::MachineModel;

/// The naive scalar reference: the kernel exactly as written.
pub fn naive(kernel: &Proc) -> ProcHandle {
    ProcHandle::new(kernel.clone())
}

/// A vendor-class baseline: an aggressively scheduled kernel plus the
/// per-call dispatch overhead (in cycles) that a pre-compiled library pays
/// at its API boundary. The paper's heatmaps divide vendor runtime by
/// Exo 2 runtime, so this overhead is what produces the >1 ratios at small
/// problem sizes (Figs. 8, 14-16).
#[derive(Clone, Debug)]
pub struct VendorBaseline {
    /// Name of the library being modelled (MKL / OpenBLAS / BLIS class).
    pub name: &'static str,
    /// Fixed per-call overhead in cycles.
    pub dispatch_overhead: u64,
}

impl VendorBaseline {
    /// The three vendor libraries the paper compares against. They share
    /// kernel quality and differ (slightly) in modelled call overhead.
    pub fn all() -> Vec<VendorBaseline> {
        vec![
            VendorBaseline {
                name: "MKL",
                dispatch_overhead: 120,
            },
            VendorBaseline {
                name: "OpenBLAS",
                dispatch_overhead: 180,
            },
            VendorBaseline {
                name: "BLIS",
                dispatch_overhead: 200,
            },
        ]
    }
}

/// An "Exo 1 style" schedule for `axpy`: the same vectorization the
/// `exo-lib` vectorizer performs, written out as raw primitive calls with
/// no reusable abstractions (what a user of plain Exo would write for each
/// kernel variant, one by one).
pub fn exo1_axpy_schedule(p: &ProcHandle, machine: &MachineModel) -> Result<ProcHandle> {
    let vw = machine.vec_width(DataType::F32);
    let p = divide_loop(p, "i", vw, ["io", "ii"], TailStrategy::Perfect)?;
    // Stage the two factors of the fused multiply-add by hand.
    let stmt = p.find("y += _")?;
    let lhs = p.cursor_at(exo_cursors::CursorPath::Node {
        stmt: stmt.path().stmt_path().unwrap().to_vec(),
        expr: vec![ExprStep::Rhs, ExprStep::BinLhs],
    });
    let p = bind_expr(&p, &lhs, "a_vec", DataType::F32)?;
    let stmt = p.find("y += _")?;
    let rhs = p.cursor_at(exo_cursors::CursorPath::Node {
        stmt: stmt.path().stmt_path().unwrap().to_vec(),
        expr: vec![ExprStep::Rhs, ExprStep::BinRhs],
    });
    let p = bind_expr(&p, &rhs, "x_vec", DataType::F32)?;
    // Expand, lift and place each temporary by hand.
    let mut p = p;
    for name in ["a_vec", "x_vec"] {
        p = expand_dim(
            &p,
            format!("{name}: _").as_str(),
            exo_ir::ib(vw),
            exo_ir::var("ii"),
        )?;
        p = lift_alloc(&p, format!("{name}: _").as_str(), 1)?;
        p = set_memory(&p, format!("{name}: _").as_str(), machine.mem_type())?;
    }
    // Fission and lower to instructions, again by hand.
    let gap = p
        .find("a_vec = _")?
        .after()
        .map_err(exo_core::SchedError::from)?;
    let p = fission(&p, &gap, 1)?;
    let gap = p
        .find("x_vec = _")?
        .after()
        .map_err(exo_core::SchedError::from)?;
    let p = fission(&p, &gap, 1)?;
    let p = replace_all(&p, &machine.instructions(DataType::F32))?;
    simplify(&p)
}

/// An "Exo 1 style" schedule for `gemv_n`: vectorize the inner loop with
/// explicit primitive calls (no `optimize_level_1` reuse).
pub fn exo1_gemv_schedule(p: &ProcHandle, machine: &MachineModel) -> Result<ProcHandle> {
    let vw = machine.vec_width(DataType::F32);
    let p = divide_loop(p, "j", vw, ["jo", "ji"], TailStrategy::Perfect)?;
    let stmt = p.find("y += _")?;
    let rhs = stmt.rhs().map_err(exo_core::SchedError::from)?;
    let p = bind_expr(&p, &rhs, "prod", DataType::F32)?;
    let mut p = expand_dim(&p, "prod: _", exo_ir::ib(vw), exo_ir::var("ji"))?;
    p = lift_alloc(&p, "prod: _", 1)?;
    p = set_memory(&p, "prod: _", machine.mem_type())?;
    let gap = p
        .find("prod = _")?
        .after()
        .map_err(exo_core::SchedError::from)?;
    let p = fission(&p, &gap, 1)?;
    let p = replace_all(&p, &machine.instructions(DataType::F32))?;
    simplify(&p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
    use exo_kernels::{axpy, gemv, Precision};

    #[test]
    fn exo1_axpy_matches_the_library_schedule_semantically() {
        let machine = MachineModel::avx2();
        let p = ProcHandle::new(axpy(Precision::Single));
        let raw = exo1_axpy_schedule(&p, &machine).unwrap();
        assert!(raw.to_string().contains("mm256_"), "{}", raw.to_string());
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        let n = 32usize;
        let run = |proc: &Proc| {
            let mut interp = Interpreter::new(&registry);
            let (_, x) =
                ArgValue::from_vec((0..n).map(|v| v as f64).collect(), vec![n], DataType::F32);
            let (yb, y) = ArgValue::from_vec(vec![1.0; n], vec![n], DataType::F32);
            let (_, out) = ArgValue::zeros(vec![1], DataType::F32);
            interp
                .run(
                    proc,
                    vec![ArgValue::Int(n as i64), ArgValue::Float(2.0), x, y, out],
                    &mut NullMonitor,
                )
                .unwrap();
            let d = yb.borrow().data.clone();
            d
        };
        assert_eq!(run(p.proc()), run(raw.proc()));
    }

    #[test]
    fn exo1_gemv_schedule_builds() {
        let machine = MachineModel::avx2();
        let p = ProcHandle::new(gemv(Precision::Single, false));
        let raw = exo1_gemv_schedule(&p, &machine).unwrap();
        assert!(raw.to_string().contains("mm256_"), "{}", raw.to_string());
    }

    #[test]
    fn vendor_baselines_have_distinct_overheads() {
        let all = VendorBaseline::all();
        assert_eq!(all.len(), 3);
        assert!(all.iter().any(|v| v.name == "MKL"));
        assert!(all[0].dispatch_overhead < all[2].dispatch_overhead);
    }
}
