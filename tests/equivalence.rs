//! Cross-crate integration tests: every library schedule preserves the
//! interpreter semantics of its kernel, and scheduling improves the
//! simulated cost. Property-based tests randomize the inputs.

use exo2::cursors::ProcHandle;
use exo2::interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
use exo2::ir::{DataType, Proc};
use exo2::kernels::{Precision, LEVEL1_KERNELS};
use exo2::lib::level1::optimize_level_1;
use exo2::machine::MachineModel;
use proptest::prelude::*;

fn run_level1(
    proc: &Proc,
    registry: &ProcRegistry,
    x: &[f64],
    y: &[f64],
    alpha: f64,
) -> (Vec<f64>, Vec<f64>, f64) {
    let n = x.len();
    let mut interp = Interpreter::new(registry);
    let (xb, xa) = ArgValue::from_vec(x.to_vec(), vec![n], DataType::F32);
    let (yb, ya) = ArgValue::from_vec(y.to_vec(), vec![n], DataType::F32);
    let (ob, oa) = ArgValue::zeros(vec![1], DataType::F32);
    interp
        .run(
            proc,
            vec![ArgValue::Int(n as i64), ArgValue::Float(alpha), xa, ya, oa],
            &mut NullMonitor,
        )
        .unwrap();
    let out = (
        xb.borrow().data.clone(),
        yb.borrow().data.clone(),
        ob.borrow().data[0],
    );
    out
}

/// The lowered, slot-indexed executor must be observationally identical
/// to the reference tree-walking interpreter: same buffers *and* the same
/// monitor event counts, across every level-1 kernel and its vectorized
/// schedule (which exercises the instruction-call path and the registry's
/// lowering cache).
#[test]
fn lowered_executor_matches_reference_interpreter() {
    use exo2::interp::CountingMonitor;
    let machine = MachineModel::avx2();
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    let n = 64usize;
    for k in LEVEL1_KERNELS {
        if matches!(k.name, "rot" | "rotm") {
            continue;
        }
        let p = ProcHandle::new((k.build)(Precision::Single));
        let loop_ = p.find_loop("i").unwrap();
        let opt = optimize_level_1(&p, &loop_, DataType::F32, &machine, 2).unwrap();
        for proc in [p.proc(), opt.proc()] {
            let run = |reference: bool| {
                let mut interp = Interpreter::new(&registry);
                let x: Vec<f64> = (0..n).map(|v| (v % 13) as f64 * 0.5).collect();
                let y: Vec<f64> = (0..n).map(|v| (v % 7) as f64 - 3.0).collect();
                let (xb, xa) = ArgValue::from_vec(x, vec![n], DataType::F32);
                let (yb, ya) = ArgValue::from_vec(y, vec![n], DataType::F32);
                let (ob, oa) = ArgValue::zeros(vec![1], DataType::F32);
                let args = vec![ArgValue::Int(n as i64), ArgValue::Float(1.5), xa, ya, oa];
                let mut mon = CountingMonitor::default();
                if reference {
                    interp.run_reference(proc, args, &mut mon).unwrap();
                } else {
                    interp.run(proc, args, &mut mon).unwrap();
                }
                let (x_out, y_out, o_out) = (
                    xb.borrow().data.clone(),
                    yb.borrow().data.clone(),
                    ob.borrow().data.clone(),
                );
                (
                    x_out,
                    y_out,
                    o_out,
                    (mon.scalar_ops, mon.reads, mon.writes, mon.loop_iters),
                    (mon.branches, mon.calls, mon.stmts),
                )
            };
            let new = run(false);
            let old = run(true);
            assert_eq!(new, old, "divergence on {} ({})", k.name, proc.name());
        }
    }
}

/// The same identity on the loop nests the level-1 sweep does not reach:
/// sgemm's triple loop and blur's two stencil passes, on the differential
/// harness's synthesized inputs.
#[test]
fn lowered_executor_matches_reference_on_sgemm_and_blur() {
    use exo2::codegen::difftest::{interp_args, synth_inputs};
    use exo2::interp::CountingMonitor;
    let registry = ProcRegistry::new();
    for proc in [exo2::kernels::sgemm(), exo2::kernels::blur2d()] {
        let inputs = synth_inputs(&proc, 2).unwrap();
        let run = |reference: bool| {
            let (bufs, args) = interp_args(inputs.clone());
            let mut interp = Interpreter::new(&registry);
            let mut mon = CountingMonitor::default();
            if reference {
                interp.run_reference(&proc, args, &mut mon).unwrap();
            } else {
                interp.run(&proc, args, &mut mon).unwrap();
            }
            let data: Vec<Vec<f64>> = bufs.iter().map(|b| b.borrow().data.clone()).collect();
            (
                data,
                (mon.scalar_ops, mon.reads, mon.writes, mon.loop_iters),
                mon.stmts,
            )
        };
        assert_eq!(run(false), run(true), "divergence on {}", proc.name());
    }
}

#[test]
fn every_level1_schedule_is_equivalent_on_fixed_inputs() {
    for machine in [MachineModel::avx2(), MachineModel::avx512()] {
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        for k in LEVEL1_KERNELS {
            if matches!(k.name, "rot" | "rotm") {
                // rot/rotm take Givens coefficients instead of the shared
                // (n, alpha, x, y, out) signature; they are covered by the
                // unit tests in exo-kernels and exo-lib.
                continue;
            }
            let p = ProcHandle::new((k.build)(Precision::Single));
            let loop_ = p.find_loop("i").unwrap();
            let opt = optimize_level_1(&p, &loop_, DataType::F32, &machine, 2).unwrap();
            let n = 64usize;
            let x: Vec<f64> = (0..n).map(|v| (v % 13) as f64).collect();
            let y: Vec<f64> = (0..n).map(|v| (v % 7) as f64 - 3.0).collect();
            let a = run_level1(p.proc(), &registry, &x, &y, 1.5);
            let b = run_level1(opt.proc(), &registry, &x, &y, 1.5);
            for (u, v) in a.0.iter().zip(b.0.iter()).chain(a.1.iter().zip(b.1.iter())) {
                assert!((u - v).abs() < 1e-6, "{} on {}", k.name, machine.name);
            }
            assert!(
                (a.2 - b.2).abs() < 1e-6,
                "{} reduction on {}",
                k.name,
                machine.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: the vectorized axpy computes the same result as the
    /// scalar loop for arbitrary inputs whose length is a multiple of 8.
    #[test]
    fn vectorized_axpy_equivalence(
        blocks in 1usize..6,
        alpha in -4.0f64..4.0,
        seed in any::<u64>(),
    ) {
        let n = blocks * 8;
        let machine = MachineModel::avx2();
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        let kernel = exo2::kernels::axpy(Precision::Single);
        let p = ProcHandle::new(kernel);
        let loop_ = p.find_loop("i").unwrap();
        let opt = optimize_level_1(&p, &loop_, DataType::F32, &machine, 2).unwrap();
        // Deterministic pseudo-random input from the seed.
        let x: Vec<f64> = (0..n).map(|i| (((seed.wrapping_mul(i as u64 + 1)) % 17) as f64) - 8.0).collect();
        let y: Vec<f64> = (0..n).map(|i| (((seed.wrapping_add(i as u64 * 7)) % 11) as f64) - 5.0).collect();
        let a = run_level1(p.proc(), &registry, &x, &y, alpha);
        let b = run_level1(opt.proc(), &registry, &x, &y, alpha);
        for (u, v) in a.1.iter().zip(b.1.iter()) {
            prop_assert!((u - v).abs() < 1e-6);
        }
    }

    /// Property: cursor forwarding across a divide_loop never dangles —
    /// either the forwarded cursor resolves or it is explicitly invalid.
    #[test]
    fn forwarding_never_dangles(factor in 2i64..6) {
        let kernel = exo2::kernels::axpy(Precision::Single);
        let p = ProcHandle::new(kernel);
        let cursors: Vec<_> = p.find_all("_").unwrap();
        let p2 = exo2::core::divide_loop(&p, "i", factor, ["io", "ii"], exo2::core::TailStrategy::Cut).unwrap();
        for c in cursors {
            let f = p2.forward(&c).unwrap();
            if !f.is_invalid() {
                prop_assert!(f.stmt().is_ok());
            }
        }
    }
}
