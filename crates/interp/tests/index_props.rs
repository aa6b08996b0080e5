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
//!
//! A second property draws random nests of `for` and `if` from the same
//! stream — empty bodies, zero-trip loops, bounds read from a buffer,
//! shadowed iterators — and holds the lowered tree's executor to the
//! reference walker event for event, and the emitted C to both.

use exo_codegen::difftest::{run_differential, DiffOutcome};
use exo_interp::{ArgValue, Interpreter, Monitor, NullMonitor, ProcRegistry};
use exo_ir::{
    fb, ib, read, var, BinOp, Block, DataType, Expr, Mem, Proc, ProcBuilder, Stmt, WAccess,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The draw stream both properties build their programs from: `draw(k)`
/// is uniform below `k`.
fn stream(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed;
    move |below: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % below
    }
}

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
        let mut draw = stream(seed);
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

/// An integer operand of a branch condition: an iterator in scope, the
/// size, a constant, or a buffer element.
fn gen_atom(draw: &mut impl FnMut(u64) -> u64, live: &[&'static str]) -> Expr {
    match draw(4) {
        0 if !live.is_empty() => var(live[draw(live.len() as u64) as usize]),
        1 => var("n"),
        2 => read("trips", vec![ib(draw(4) as i64)]),
        _ => ib(draw(5) as i64 - 1),
    }
}

/// A block of at most two statements nested at most `depth` deep.
/// `live` holds the iterators in scope, innermost last.
fn gen_block(draw: &mut impl FnMut(u64) -> u64, depth: u32, live: &mut Vec<&'static str>) -> Block {
    (0..draw(3)).map(|_| gen_stmt(draw, depth, live)).collect()
}

fn gen_stmt(draw: &mut impl FnMut(u64) -> u64, depth: u32, live: &mut Vec<&'static str>) -> Stmt {
    match if depth == 0 { 0 } else { draw(3) } {
        0 => {
            // `%` keeps the index in bounds for any iterator values.
            let sum = live.iter().fold(ib(draw(4) as i64), |e, it| e + var(*it));
            let rhs = match draw(3) {
                0 => fb(1.0),
                1 => read("trips", vec![ib(draw(4) as i64)]),
                _ => live.last().map_or(fb(2.0), |it| var(*it)),
            };
            Stmt::Reduce {
                buf: "out".into(),
                idx: vec![sum % ib(16)],
                rhs,
            }
        }
        1 => {
            // Two names for three levels: a drawn name already in scope
            // shadows the outer iterator.
            let iter = ["i", "j"][draw(2) as usize];
            let lo = ib(draw(4) as i64 - 1);
            // Constant bounds at or below `lo` give zero-trip loops; a
            // bound read from a buffer is one the emitter hoists.
            let hi = match draw(3) {
                0 => read("trips", vec![ib(draw(4) as i64)]),
                1 => var("n"),
                _ => ib(draw(4) as i64),
            };
            live.push(iter);
            let body = gen_block(draw, depth - 1, live);
            live.pop();
            Stmt::For {
                iter: iter.into(),
                lo,
                hi,
                body,
                parallel: false,
            }
        }
        _ => {
            let op = [BinOp::Lt, BinOp::Le, BinOp::Eq, BinOp::Ne][draw(4) as usize];
            let lhs = gen_atom(draw, live);
            // `cc -Werror` refuses a self-comparison.
            let rhs = match gen_atom(draw, live) {
                rhs if rhs == lhs => rhs + ib(1),
                rhs => rhs,
            };
            let cond = Expr::bin(op, lhs, rhs);
            Stmt::If {
                cond,
                then_body: gen_block(draw, depth - 1, live),
                else_body: gen_block(draw, depth - 1, live),
            }
        }
    }
}

/// `body` under the header the nests share. The assertion steers
/// `synth_inputs` to a small `n`.
fn nest_proc(body: Block) -> Proc {
    ProcBuilder::new("nest")
        .size_arg("n")
        .tensor_arg("trips", DataType::F32, vec![ib(4)], Mem::Dram)
        .tensor_arg("out", DataType::F32, vec![ib(16)], Mem::Dram)
        .assert_(Expr::le(var("n"), ib(4)))
        .with_body(|b| {
            for s in body.into_stmts() {
                b.push(s);
            }
        })
        .build()
}

/// Every event both interpreter paths emit, in order.
#[derive(Default)]
struct Recorder(Vec<String>);

impl Monitor for Recorder {
    fn on_scalar_op(&mut self, op: BinOp, dt: DataType) {
        self.0.push(format!("op {op:?} {dt:?}"));
    }
    fn on_read(&mut self, mem: &Mem, addr: u64, bytes: u64) {
        self.0.push(format!("read {mem:?} {addr:#x} {bytes}"));
    }
    fn on_write(&mut self, mem: &Mem, addr: u64, bytes: u64) {
        self.0.push(format!("write {mem:?} {addr:#x} {bytes}"));
    }
    fn on_loop_iter(&mut self, parallel: bool) {
        self.0.push(format!("iter {parallel}"));
    }
    fn on_branch(&mut self) {
        self.0.push("branch".into());
    }
    fn on_stmt(&mut self) {
        self.0.push("stmt".into());
    }
}

/// Compiling C costs tens of milliseconds, so only the first few clean
/// nests of a run with at least `C_MIN_STMTS` statements are also
/// checked against the emitted C.
const C_CHECKS: usize = 40;
const C_MIN_STMTS: usize = 6;
static C_CHECKED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn control_flow_nests_agree_across_run_run_reference_and_c(seed in 1u64..u64::MAX) {
        let mut draw = stream(seed);
        let p = nest_proc(gen_block(&mut draw, 3, &mut Vec::new()));
        let n = draw(5) as i64;
        let trips: Vec<f64> = (0..4).map(|_| draw(7) as f64 - 2.0).collect();
        let registry = ProcRegistry::new();
        let run = |reference: bool| {
            let (_, trips) = ArgValue::from_vec(trips.clone(), vec![4], DataType::F32);
            let (out, out_arg) = ArgValue::zeros(vec![16], DataType::F32);
            let args = vec![ArgValue::Int(n), trips, out_arg];
            let mut interp = Interpreter::new(&registry);
            let mut events = Recorder::default();
            let result = if reference {
                interp.run_reference(&p, args, &mut events)
            } else {
                interp.run(&p, args, &mut events)
            };
            let data = out.borrow().data.clone();
            (result, data, events.0)
        };
        let lowered = run(false);
        let reference = run(true);
        prop_assert!(
            lowered == reference,
            "n={} trips={:?}\n{}\nlowered {:?}\nreference {:?}",
            n, trips, p, lowered, reference
        );
        if lowered.0.is_ok()
            && p.body().count_recursive() >= C_MIN_STMTS
            && C_CHECKED.fetch_add(1, Ordering::Relaxed) < C_CHECKS
        {
            match run_differential(&p, &registry, seed) {
                Ok(DiffOutcome::Agreed { .. } | DiffOutcome::Skipped(_)) => {}
                Err(e) => prop_assert!(false, "{}\n{}", e, p),
            }
        }
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
