//! Differential property test of index-position evaluation.
//!
//! The lowered executor evaluates every index position — access indices,
//! loop bounds, window offsets, allocation sizes, `size` arguments —
//! through an integer fold that falls back to the general evaluator. The
//! reference walker evaluates the same positions with the general
//! evaluator alone. Random expressions, most of them *outside* what the
//! fold accepts (floats, booleans, unbound names, zero divisors, operands
//! near `i64::MIN`/`MAX`, an indirect `Read`), must give the same buffers
//! or the same [`exo_interp::InterpError`] through both.

use exo_interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
use exo_ir::{fb, ib, read, var, BinOp, DataType, Expr, Mem, Proc, ProcBuilder, WAccess};
use proptest::prelude::*;

/// A random index expression of depth at most `depth`, drawn from `draw`.
fn gen_expr(draw: &mut impl FnMut(u64) -> u64, depth: u32) -> Expr {
    if depth == 0 || draw(4) == 0 {
        return match draw(12) {
            // Small operands of either sign: Euclidean `/` and `%`.
            0..=3 => ib(draw(9) as i64 - 4),
            4 => ib([i64::MAX, i64::MIN, i64::MAX - 1, 1 << 62][draw(4) as usize]),
            5 | 6 => var("n"),
            7 => var("f"),
            8 => var("b"),
            9 => var("nope"),
            10 => read("at", vec![ib(draw(3) as i64)]),
            _ => fb([2.0, 2.5, -1.0, 1e30][draw(4) as usize]),
        };
    }
    if draw(8) == 0 {
        return -gen_expr(draw, depth - 1);
    }
    let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod][draw(5) as usize];
    Expr::bin(op, gen_expr(draw, depth - 1), gen_expr(draw, depth - 1))
}

/// `e` in one of the index positions, chosen by `position`.
fn proc_with_index(e: Expr, position: u64) -> Proc {
    let header = ProcBuilder::new("p")
        .size_arg("n")
        .scalar_arg("f", DataType::F32)
        .scalar_arg("b", DataType::F32)
        .tensor_arg("x", DataType::F32, vec![ib(8)], Mem::Dram)
        .tensor_arg("at", DataType::F32, vec![ib(3)], Mem::Dram)
        .tensor_arg("out", DataType::F32, vec![ib(8)], Mem::Dram);
    header
        .with_body(|body| match position {
            0 => {
                body.assign("out", vec![ib(0)], read("x", vec![e]));
            }
            1 => {
                body.reduce("out", vec![e], fb(1.0));
            }
            2 => {
                body.for_("i", e.clone(), e + ib(2), |b| {
                    b.reduce("out", vec![ib(1)], fb(1.0));
                });
            }
            3 => {
                // Keeps the extent small whatever `e` is, with `e` still
                // evaluated in the size position.
                body.alloc("t", DataType::F32, vec![e % ib(5) + ib(5)], Mem::Dram);
                body.assign("t", vec![ib(4)], fb(3.0));
                body.assign("out", vec![ib(2)], read("t", vec![ib(4)]));
            }
            4 => {
                body.call(
                    "fill2",
                    vec![Expr::Window {
                        buf: "out".into(),
                        idx: vec![WAccess::Interval(e.clone(), e + ib(2))],
                    }],
                );
            }
            5 => {
                body.call("fill2", vec![read("out", vec![e])]);
            }
            _ => {
                body.call("sized", vec![e, var("out")]);
            }
        })
        .build()
}

fn registry() -> ProcRegistry {
    let fill2 = ProcBuilder::new("fill2")
        .window_arg("dst", DataType::F32, vec![ib(2)], Mem::Dram)
        .with_body(|b| {
            b.assign("dst", vec![ib(0)], fb(7.0));
        })
        .build();
    let sized = ProcBuilder::new("sized")
        .size_arg("m")
        .tensor_arg("dst", DataType::F32, vec![ib(8)], Mem::Dram)
        .with_body(|b| {
            b.assign("dst", vec![var("m")], fb(9.0));
        })
        .build();
    [fill2, sized].into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn index_positions_agree_between_run_and_run_reference(seed in 1u64..u64::MAX) {
        let mut state = seed;
        let mut draw = |below: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % below
        };
        let position = draw(7);
        let e = gen_expr(&mut draw, 3);
        let p = proc_with_index(e.clone(), position);
        let n = draw(9) as i64 - 2;
        let f = [3.0, 0.5, -2.0][draw(3) as usize];
        let b = draw(2) == 1;
        let registry = registry();
        let run = |reference: bool| {
            let (_, x) = ArgValue::from_vec((0..8).map(f64::from).collect(), vec![8], DataType::F32);
            let (_, at) = ArgValue::from_vec(vec![1.0, 2.5, -3.0], vec![3], DataType::F32);
            let (out, out_arg) = ArgValue::zeros(vec![8], DataType::F32);
            let args = vec![ArgValue::Int(n), ArgValue::Float(f), ArgValue::Bool(b), x, at, out_arg];
            let mut interp = Interpreter::new(&registry);
            let result = if reference {
                interp.run_reference(&p, args, &mut NullMonitor)
            } else {
                interp.run(&p, args, &mut NullMonitor)
            };
            let data = out.borrow().data.clone();
            (result, data)
        };
        let lowered = run(false);
        let reference = run(true);
        prop_assert!(
            lowered == reference,
            "position {} index `{}` with n={} f={} b={}: lowered {:?}, reference {:?}",
            position, e, n, f, b, lowered, reference
        );
    }
}

/// The overflow that used to panic under `cargo test` and wrap into a
/// valid element in release: both paths now report it, identically.
#[test]
fn index_overflow_is_an_error_on_both_paths() {
    let cases = [
        Expr::bin(BinOp::Add, ib(i64::MAX), ib(1)),
        Expr::bin(BinOp::Sub, ib(i64::MIN), ib(1)),
        Expr::bin(BinOp::Mul, ib(1 << 62), ib(4)),
        Expr::bin(BinOp::Div, ib(i64::MIN), ib(-1)),
        Expr::bin(BinOp::Mod, ib(i64::MIN), ib(-1)),
        -ib(i64::MIN),
    ];
    let registry = ProcRegistry::new();
    for e in cases {
        let p = ProcBuilder::new("p")
            .tensor_arg("x", DataType::F32, vec![ib(8)], Mem::Dram)
            .with_body(|b| {
                b.assign("x", vec![e.clone()], fb(1.0));
            })
            .build();
        let run = |reference: bool| {
            let (_, x) = ArgValue::zeros(vec![8], DataType::F32);
            let mut interp = Interpreter::new(&registry);
            if reference {
                interp.run_reference(&p, vec![x], &mut NullMonitor)
            } else {
                interp.run(&p, vec![x], &mut NullMonitor)
            }
        };
        let lowered = run(false).expect_err("overflow must not pass");
        assert_eq!(
            lowered.to_string(),
            "malformed program: integer overflow in index expression",
            "`{e}`"
        );
        assert_eq!(Err(lowered), run(true), "`{e}`");
    }
}
