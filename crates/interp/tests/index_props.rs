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
//!
//! A third draws single-statement loops over buffers and windows, most of
//! them strips (loops the executor runs as one resolved pass), many of
//! them not quite — and holds the executor to the walker event for event,
//! error for error, across the fallback to the per-element loop.

use exo_codegen::difftest::{run_differential, DiffOutcome};
use exo_interp::{lower, ArgValue, Interpreter, LInst, Monitor, NullMonitor, ProcRegistry};
use exo_ir::rng::Rng;
use exo_ir::{
    fb, ib, read, var, BinOp, Block, DataType, Expr, Mem, Proc, ProcBuilder, Stmt, WAccess,
};
use exo_machine::MachineModel;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A random index expression of depth at most `depth`, drawn from `rng`.
fn gen_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(12) {
            // Small operands of either sign: Euclidean `/` and `%`.
            0..=3 => ib(rng.range(-4, 4)),
            4 => ib([i64::MAX, i64::MIN, i64::MAX - 1, 1 << 62][rng.below(4)]),
            5 | 6 => var("n"),
            7 => var("f"),
            8 => var("b"),
            9 => var("nope"),
            10 => read("at", vec![ib(rng.range(0, 2))]),
            _ => fb([2.0, 2.5, -1.0, 1e30][rng.below(4)]),
        };
    }
    if rng.below(8) == 0 {
        return -gen_expr(rng, depth - 1);
    }
    let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod][rng.below(5)];
    Expr::bin(op, gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))
}

/// `e` in one of the index positions, chosen by `position`.
fn proc_with_index(e: Expr, position: usize) -> Proc {
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
        let mut rng = Rng::new(seed);
        let position = rng.below(7);
        let e = gen_expr(&mut rng, 3);
        let p = proc_with_index(e.clone(), position);
        let n = rng.range(-2, 6);
        let f = [3.0, 0.5, -2.0][rng.below(3)];
        let b = rng.below(2) == 1;
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
fn gen_atom(rng: &mut Rng, live: &[&'static str]) -> Expr {
    match rng.below(4) {
        0 if !live.is_empty() => var(live[rng.below(live.len())]),
        1 => var("n"),
        2 => read("trips", vec![ib(rng.range(0, 3))]),
        _ => ib(rng.range(-1, 3)),
    }
}

/// A block of at most two statements nested at most `depth` deep.
/// `live` holds the iterators in scope, innermost last.
fn gen_block(rng: &mut Rng, depth: u32, live: &mut Vec<&'static str>) -> Block {
    (0..rng.below(3))
        .map(|_| gen_stmt(rng, depth, live))
        .collect()
}

fn gen_stmt(rng: &mut Rng, depth: u32, live: &mut Vec<&'static str>) -> Stmt {
    match if depth == 0 { 0 } else { rng.below(3) } {
        0 => {
            // `%` keeps the index in bounds for any iterator values.
            let sum = live.iter().fold(ib(rng.range(0, 3)), |e, it| e + var(*it));
            let rhs = match rng.below(3) {
                0 => fb(1.0),
                1 => read("trips", vec![ib(rng.range(0, 3))]),
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
            let iter = ["i", "j"][rng.below(2)];
            let lo = ib(rng.range(-1, 2));
            // Constant bounds at or below `lo` give zero-trip loops; a
            // bound read from a buffer is one the emitter hoists.
            let hi = match rng.below(3) {
                0 => read("trips", vec![ib(rng.range(0, 3))]),
                1 => var("n"),
                _ => ib(rng.range(0, 3)),
            };
            live.push(iter);
            let body = gen_block(rng, depth - 1, live);
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
            let op = [BinOp::Lt, BinOp::Le, BinOp::Eq, BinOp::Ne][rng.below(4)];
            let lhs = gen_atom(rng, live);
            // `cc -Werror` refuses a self-comparison.
            let rhs = match gen_atom(rng, live) {
                rhs if rhs == lhs => rhs + ib(1),
                rhs => rhs,
            };
            let cond = Expr::bin(op, lhs, rhs);
            Stmt::If {
                cond,
                then_body: gen_block(rng, depth - 1, live),
                else_body: gen_block(rng, depth - 1, live),
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
        let mut rng = Rng::new(seed);
        let p = nest_proc(gen_block(&mut rng, 3, &mut Vec::new()));
        let n = rng.range(0, 4);
        let trips: Vec<f64> = (0..4).map(|_| rng.range(-2, 4) as f64).collect();
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

/// A tensor a strip program may name, with its rank.
type Tensor = (&'static str, usize);

/// An index of a strip's access: mostly
/// affine in the iterator `i` (unit, negative and zero coefficients, the
/// invariant `j` and `n / 2`), sometimes not (`i * i`, `i % 3`, a `Read`),
/// sometimes an integer scalar.
fn gen_strip_index(rng: &mut Rng) -> Expr {
    let at = |rng: &mut Rng| ib(rng.range(0, 5));
    match rng.below(24) {
        0 => var("i") * var("i"),
        1 => read("at", vec![ib(rng.range(0, 2))]),
        2 => var("i") % ib(3),
        3 => var("n") / ib(2) + var("i"),
        4 => at(rng) - var("i"),
        5 => ib(-2) * var("i") + at(rng),
        6 => var("j") + var("i") * ib(2),
        7 => var("k"),
        8 => at(rng),
        9 => var("j"),
        // One before, at or after the iterator: out of bounds at the
        // first iteration, or only at the last one of a full sweep.
        _ => var("i") + ib(rng.range(-1, 1)),
    }
}

/// An access of one of `tensors`, mostly with its rank's worth of indices.
fn gen_strip_access(rng: &mut Rng, tensors: &[Tensor]) -> (Tensor, Vec<Expr>) {
    let t = tensors[rng.below(tensors.len())];
    let rank = match rng.below(24) {
        0 => t.1 + 1,
        1 => t.1.saturating_sub(1),
        _ => t.1,
    };
    (t, (0..rank).map(|_| gen_strip_index(rng)).collect())
}

/// A right-hand side: mostly float-only, sometimes reading an integer
/// scalar or the iterator.
fn gen_strip_rhs(rng: &mut Rng, depth: u32, tensors: &[Tensor]) -> Expr {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(16) {
            0 | 1 => fb([0.5, -3.0, 2.0][rng.below(3)]),
            2 | 3 => var("f"),
            4 => var("k"),
            5 => var("i"),
            _ => {
                let ((name, _), idx) = gen_strip_access(rng, tensors);
                read(name, idx)
            }
        };
    }
    if rng.below(6) == 0 {
        return -gen_strip_rhs(rng, depth - 1, tensors);
    }
    let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][rng.below(4)];
    Expr::bin(
        op,
        gen_strip_rhs(rng, depth - 1, tensors),
        gen_strip_rhs(rng, depth - 1, tensors),
    )
}

/// A window on `A` (rank `rank`): each dimension a point or an interval
/// at a small offset, some of them at the outer iterator `j`.
fn gen_window(rng: &mut Rng, rank: usize) -> (Expr, usize) {
    let mut kept = 0;
    let idx = (0..rank)
        .map(|_| {
            let lo = if rng.below(3) == 0 {
                var("j")
            } else {
                ib(rng.range(0, 1))
            };
            if rng.below(3) == 0 {
                WAccess::Point(lo)
            } else {
                kept += 1;
                WAccess::Interval(lo.clone(), lo + ib(3))
            }
        })
        .collect();
    let w = Expr::Window {
        buf: "A".into(),
        idx,
    };
    (w, kept)
}

/// A program around one drawn strip candidate:
///
/// ```text
/// for j in 0..2:
///     w0 = A[..]; w1 = A[..]      # two aliases of A
///     for i in lo..hi:
///         dst[..] (= | +=) rhs
/// ```
fn strip_proc(rng: &mut Rng, a_dims: &[usize], b_dims: &[usize]) -> Proc {
    let (w0, w0_rank) = gen_window(rng, a_dims.len());
    let (w1, w1_rank) = gen_window(rng, a_dims.len());
    let tensors = [
        ("A", a_dims.len()),
        ("B", b_dims.len()),
        ("w0", w0_rank),
        ("w1", w1_rank),
    ];
    let ((dst, _), dst_idx) = gen_strip_access(rng, &tensors);
    let mut rhs = gen_strip_rhs(rng, 2, &tensors);
    if rng.below(4) == 0 {
        // The destination read one element along: a carried dependence.
        let shifted = dst_idx.iter().map(|e| e.clone() + ib(1)).collect();
        rhs = rhs + read(dst, shifted);
    }
    let lo = rng.range(0, 1);
    let hi = match rng.below(4) {
        0 => var("n"),
        _ => ib(lo + rng.range(0, 5)),
    };
    let reduce = rng.below(2) == 0;
    let dims = |d: &[usize]| d.iter().map(|&e| ib(e as i64)).collect();
    ProcBuilder::new("strip")
        .size_arg("n")
        .scalar_arg("f", DataType::F32)
        .scalar_arg("k", DataType::F32)
        .tensor_arg("A", DataType::F32, dims(a_dims), Mem::Dram)
        .tensor_arg("B", DataType::F32, dims(b_dims), Mem::Dram)
        .tensor_arg("at", DataType::F32, vec![ib(3)], Mem::Dram)
        .for_("j", ib(0), ib(2), |b| {
            b.push(Stmt::WindowStmt {
                name: "w0".into(),
                rhs: w0,
            });
            b.push(Stmt::WindowStmt {
                name: "w1".into(),
                rhs: w1,
            });
            b.for_("i", ib(lo), hi, |b| {
                if reduce {
                    b.reduce(dst, dst_idx, rhs);
                } else {
                    b.assign(dst, dst_idx, rhs);
                }
            });
        })
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    #[test]
    fn strips_agree_with_the_walker_event_for_event(seed in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let shape = |rng: &mut Rng| -> Vec<usize> {
            (0..1 + rng.below(3)).map(|_| 3 + rng.below(5)).collect()
        };
        let a_dims = shape(&mut rng);
        let b_dims = shape(&mut rng);
        let p = strip_proc(&mut rng, &a_dims, &b_dims);
        let n = rng.range(-1, 5);
        let k = rng.range(-1, 3);
        let f = [1.5, -2.0, 0.25][rng.below(3)];
        let registry = ProcRegistry::new();
        let run = |reference: bool| {
            let fill = |dims: &[usize], scale: f64| {
                let len: usize = dims.iter().product();
                let data = (0..len).map(|v| v as f64 * scale).collect();
                ArgValue::from_vec(data, dims.to_vec(), DataType::F32)
            };
            let (a, a_arg) = fill(&a_dims, 0.5);
            let (b, b_arg) = fill(&b_dims, -1.0);
            let (_, at) = ArgValue::from_vec(vec![1.0, 0.0, 2.0], vec![3], DataType::F32);
            let args = vec![ArgValue::Int(n), ArgValue::Float(f), ArgValue::Int(k), a_arg, b_arg, at];
            let mut interp = Interpreter::new(&registry);
            let mut events = Recorder::default();
            let result = if reference {
                interp.run_reference(&p, args, &mut events)
            } else {
                interp.enable_profile();
                interp.run(&p, args, &mut events)
            };
            let profiled = interp.take_profile().map(|prof| prof.total());
            // Bit patterns: a division may leave a NaN.
            let bits = |buf: &exo_interp::BufRef| -> Vec<u64> {
                buf.borrow().data.iter().map(|v| v.to_bits()).collect()
            };
            let outputs = (bits(&a), bits(&b));
            (result.map_err(|e| e.to_string()), outputs, events.0, profiled)
        };
        let (result, outputs, events, profiled) = run(false);
        let reference = run(true);
        prop_assert!(
            (&result, &outputs, &events) == (&reference.0, &reference.1, &reference.2),
            "n={} k={} f={}\n{}\nlowered {:?}\nreference {:?}",
            n, k, f, p, (&result, &outputs, &events), reference
        );
        let stmts = events.iter().filter(|e| *e == "stmt").count() as u64;
        prop_assert!(profiled == Some(stmts), "{:?} instructions, {} statements\n{}", profiled, stmts, p);
    }
}

/// The strip property's shrunk failure in a release build: `w0 += -(w0 /
/// w0) + w0` on `A[0] = 0` makes a NaN, and Rust leaves the sign and
/// payload of an arithmetic NaN unspecified, so the optimiser folded the
/// strip's arithmetic to `0x7FF8…` and the walker's to `0xFFF8…`. Both
/// write paths store any NaN as `f64::NAN`.
#[test]
fn a_strip_and_the_walker_store_the_same_nan() {
    let p = ProcBuilder::new("strip")
        .tensor_arg("A", DataType::F32, vec![ib(4)], Mem::Dram)
        .for_("j", ib(0), ib(2), |b| {
            b.push(Stmt::WindowStmt {
                name: "w0".into(),
                rhs: Expr::Window {
                    buf: "A".into(),
                    idx: vec![WAccess::Point(ib(0))],
                },
            });
            b.for_("i", ib(0), ib(3), |b| {
                let w0 = || read("w0", vec![]);
                b.reduce("w0", vec![], -(w0() / w0()) + w0());
            });
        })
        .build();
    assert!(matches!(
        lower(&p).code(),
        [LInst::Loop { body, .. }] if matches!(&body[..], [_, LInst::Loop { strip: Some(_), .. }])
    ));
    let registry = ProcRegistry::new();
    let run = |reference: bool| {
        let (a, arg) = ArgValue::from_vec(vec![0.0, 0.5, 1.0, 1.5], vec![4], DataType::F32);
        let mut interp = Interpreter::new(&registry);
        let result = if reference {
            interp.run_reference(&p, vec![arg], &mut NullMonitor)
        } else {
            interp.run(&p, vec![arg], &mut NullMonitor)
        };
        result.expect("runs");
        let bits = a.borrow().data[0].to_bits();
        bits
    };
    assert_eq!(run(false), f64::NAN.to_bits(), "strip");
    assert_eq!(run(true), f64::NAN.to_bits(), "walker");
}

/// The loops the executor runs as one pass are the ones that dominate
/// simulation: every vector instruction's body, and the innermost loop of
/// an unscheduled kernel.
#[test]
fn instruction_bodies_and_scalar_sgemm_lower_to_strips() {
    for machine in [MachineModel::avx2(), MachineModel::avx512()] {
        for ty in [DataType::F32, DataType::F64] {
            for p in machine.instructions(ty) {
                assert!(
                    matches!(lower(&p).code(), [LInst::Loop { strip: Some(_), .. }]),
                    "`{}` on {} is not a strip",
                    p.name(),
                    machine.name
                );
            }
        }
    }
    let sgemm = lower(&exo_kernels::sgemm());
    let innermost: Vec<bool> = sgemm
        .insts()
        .filter_map(|inst| match inst {
            LInst::Loop { body, strip, .. }
                if !body.iter().any(|b| matches!(b, LInst::Loop { .. })) =>
            {
                Some(strip.is_some())
            }
            _ => None,
        })
        .collect();
    assert_eq!(innermost, [true]);
}

/// `stride(w, d)` of a window is the stride of the `d`-th dimension the
/// window keeps — what the emitted C computes — not of the underlying
/// buffer's `d`-th dimension; past the window's rank it is 1.
#[test]
fn stride_of_a_window_is_that_of_its_kept_dimension() {
    let stride = |buf: &str, dim| Expr::Stride {
        buf: buf.into(),
        dim,
    };
    let p = ProcBuilder::new("p")
        .tensor_arg("A", DataType::F32, vec![ib(4), ib(8)], Mem::Dram)
        .tensor_arg("out", DataType::F32, vec![ib(3)], Mem::Dram)
        .with_body(|b| {
            b.push(Stmt::WindowStmt {
                name: "w".into(),
                rhs: Expr::Window {
                    buf: "A".into(),
                    idx: vec![WAccess::Point(ib(1)), WAccess::Interval(ib(0), ib(8))],
                },
            });
            b.assign("out", vec![ib(0)], stride("w", 0));
            b.assign("out", vec![ib(1)], stride("w", 1));
            b.assign("out", vec![ib(2)], stride("A", 0));
        })
        .build();
    let registry = ProcRegistry::new();
    for reference in [false, true] {
        let (_, a) = ArgValue::zeros(vec![4, 8], DataType::F32);
        let (out, out_arg) = ArgValue::zeros(vec![3], DataType::F32);
        let mut interp = Interpreter::new(&registry);
        let args = vec![a, out_arg];
        if reference {
            interp.run_reference(&p, args, &mut NullMonitor)
        } else {
            interp.run(&p, args, &mut NullMonitor)
        }
        .expect("runs");
        assert_eq!(out.borrow().data, [1.0, 1.0, 8.0], "reference: {reference}");
    }
    match run_differential(&p, &registry, 1) {
        Ok(DiffOutcome::Agreed { .. } | DiffOutcome::Skipped(_)) => {}
        Err(e) => panic!("{e}"),
    }
}
