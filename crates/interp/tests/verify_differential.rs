//! Differential validation of the static verifier and the simplifier.
//!
//! Two properties, both cross-checking `exo-analysis` against the
//! reference interpreter:
//!
//! 1. **Verifier soundness.** Random affine procs (constant-extent
//!    allocations, nested loops — some parallel — and affine accesses) are
//!    run through `verify::check_proc`. Whenever the verifier certifies a
//!    proc (zero diagnostics), executing it under the instrumented
//!    interpreter must neither trap out-of-bounds nor trip the
//!    [`ShadowMonitor`] race detector. The verifier may reject safe procs
//!    (it is conservative) but must never certify an unsafe one.
//! 2. **Simplifier meaning preservation.** Random integer expressions
//!    ([`exo_ir::gen::int_expr`]) over size arguments — including
//!    products of subterms, euclidean `/` and `%`, and
//!    divisibility-fact-driven rewrites — evaluate to the same value
//!    before and after `simplify_expr`, under environments satisfying the
//!    facts.

use exo_analysis::{check_proc, simplify_expr, Context};
use exo_interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry, ShadowMonitor};
use exo_ir::gen::int_expr;
use exo_ir::rng::Rng;
use exo_ir::{ib, read, var, DataType, Expr, Mem, Proc, ProcBuilder, Stmt, Sym};
use proptest::prelude::*;

// ====================================================================
// Random affine proc generation
// ====================================================================

const BUF_DIM: i64 = 96;
const NBUFS: usize = 2;

/// An affine index in the enclosing iterators: `Σ coeff·iter + c` with
/// small coefficients. Biased toward in-bounds (loop extents are ≤ 8 and
/// `BUF_DIM` is generous) but able to run out of bounds via the constant.
fn gen_index(rng: &mut Rng, iters: &[Sym]) -> Expr {
    let mut e = ib(rng.range(0, 7));
    for it in iters {
        let coeff = rng.range(0, 3);
        if coeff > 0 {
            e = e + ib(coeff) * Expr::Var(it.clone());
        }
    }
    if rng.chance(10) {
        // Occasionally push past the end so the OOB side is exercised.
        e = e + ib(BUF_DIM - 4 + rng.range(0, 7));
    }
    e
}

fn buf_name(i: usize) -> String {
    format!("b{i}")
}

fn gen_stmts(rng: &mut Rng, depth: usize, iters: &mut Vec<Sym>, out: &mut Vec<Stmt>) {
    let nstmts = 1 + rng.below(2);
    for _ in 0..nstmts {
        if depth < 3 && rng.chance(55) {
            let iter = Sym::new(format!("i{}", iters.len()));
            let hi = rng.range(2, 8);
            let parallel = rng.chance(40);
            iters.push(iter.clone());
            let mut body = Vec::new();
            gen_stmts(rng, depth + 1, iters, &mut body);
            iters.pop();
            out.push(Stmt::For {
                iter,
                lo: ib(0),
                hi: ib(hi),
                body: exo_ir::Block::from_stmts(body),
                parallel,
            });
        } else {
            let dst = buf_name(rng.below(NBUFS));
            let idx = vec![gen_index(rng, iters)];
            let rhs = if rng.chance(50) {
                read(
                    buf_name(rng.below(NBUFS)).as_str(),
                    vec![gen_index(rng, iters)],
                ) + Expr::Float(1.0)
            } else {
                Expr::Float(rng.range(0, 15) as f64)
            };
            if rng.chance(40) {
                out.push(Stmt::Reduce {
                    buf: Sym::new(dst),
                    idx,
                    rhs,
                });
            } else {
                out.push(Stmt::Assign {
                    buf: Sym::new(dst),
                    idx,
                    rhs,
                });
            }
        }
    }
}

/// A random closed proc: constant-extent local buffers and a random loop
/// nest over them. No arguments, so it runs as-is.
fn gen_proc(rng: &mut Rng) -> Proc {
    let mut stmts = Vec::new();
    gen_stmts(rng, 0, &mut Vec::new(), &mut stmts);
    ProcBuilder::new("p")
        .with_body(|b| {
            for i in 0..NBUFS {
                b.alloc(buf_name(i), DataType::F32, vec![ib(BUF_DIM)], Mem::Dram);
            }
            for s in stmts.drain(..) {
                b.push(s.clone());
            }
        })
        .build()
}

/// Runs the proc under the shadow monitor; `Ok(races)` or the interpreter
/// error (out-of-bounds being the interesting one).
fn shadow_run(proc: &Proc) -> Result<usize, exo_interp::InterpError> {
    let registry = ProcRegistry::new();
    let mut interp = Interpreter::new(&registry);
    let mut shadow = ShadowMonitor::new();
    interp.run_reference(proc, vec![], &mut shadow)?;
    Ok(shadow.races().len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Whatever the static verifier certifies must execute cleanly: no
    /// out-of-bounds trap, no dynamic race on any parallel loop.
    #[test]
    fn certified_procs_never_trip_the_dynamic_detector(seed in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let proc = gen_proc(&mut rng);
        let diags = check_proc(&proc);
        if diags.is_empty() {
            match shadow_run(&proc) {
                Ok(races) => prop_assert!(
                    races == 0,
                    "verifier certified a racy proc ({races} dynamic races):\n{proc}"
                ),
                Err(e) => prop_assert!(
                    false,
                    "verifier certified a proc the interpreter rejects ({e}):\n{proc}"
                ),
            }
        }
    }
}

/// The differential property is only meaningful if the generator actually
/// produces certified procs (and unsafe ones the verifier rejects). Fixed
/// seed, deterministic counts.
#[test]
fn generator_exercises_both_sides() {
    let mut rng = Rng::new(0x5EED_CAFE);
    let (mut certified, mut rejected, mut dynamic_bad) = (0usize, 0usize, 0usize);
    for _ in 0..400 {
        let proc = gen_proc(&mut rng);
        if check_proc(&proc).is_empty() {
            certified += 1;
        } else {
            rejected += 1;
            match shadow_run(&proc) {
                Ok(races) if races > 0 => dynamic_bad += 1,
                Err(_) => dynamic_bad += 1,
                Ok(_) => {}
            }
        }
    }
    assert!(certified >= 40, "only {certified}/400 procs certified");
    assert!(rejected >= 40, "only {rejected}/400 procs rejected");
    // Some rejections are conservative, but a healthy share must be real
    // dynamic failures or the OOB/race arms of the generator are dead.
    assert!(
        dynamic_bad >= 10,
        "only {dynamic_bad} dynamically-unsafe procs"
    );
}

// ====================================================================
// Simplifier meaning preservation
// ====================================================================

/// Evaluates an integer expression through the interpreter by storing it
/// into a one-element buffer from a wrapper proc.
fn interp_eval(e: &Expr, n: i64, m: i64) -> f64 {
    let proc = ProcBuilder::new("e")
        .size_arg("n")
        .size_arg("m")
        .tensor_arg("out", DataType::F32, vec![ib(1)], Mem::Dram)
        .with_body(|b| {
            b.assign("out", vec![ib(0)], e.clone());
        })
        .build();
    let registry = ProcRegistry::new();
    let mut interp = Interpreter::new(&registry);
    let (out_buf, out_arg) = ArgValue::zeros(vec![1], DataType::F32);
    interp
        .run_reference(
            &proc,
            vec![ArgValue::Int(n), ArgValue::Int(m), out_arg],
            &mut NullMonitor,
        )
        .unwrap_or_else(|err| panic!("evaluating `{e}` with n={n}, m={m}: {err}"));
    let v = out_buf.borrow().data[0];
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `simplify_expr` is meaning-preserving: under a context that knows
    /// `n % 8 == 0`, the simplified and original expressions agree on
    /// every environment satisfying that fact.
    #[test]
    fn simplify_expr_preserves_meaning(seed in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let e = int_expr(&mut rng, &["n", "m"], 3);
        let mut ctx = Context::new();
        ctx.add_fact(&Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)));
        let simplified = simplify_expr(&e, &ctx);
        let n = 8 * rng.range(1, 8);
        let m = rng.range(1, 63);
        let got = interp_eval(&simplified, n, m);
        let want = interp_eval(&e, n, m);
        prop_assert!(
            got == want,
            "`{e}` simplifies to `{simplified}` but {want} != {got} at n={n}, m={m}"
        );
    }
}

/// Regression shape: the `(E / k) * k -> E` rewrite fires only under a
/// divisibility fact; both sides must agree with and without it.
#[test]
fn division_rewrite_agrees_with_the_interpreter() {
    let e = (var("n") / ib(8)) * ib(8) + var("m");
    let mut ctx = Context::new();
    ctx.add_fact(&Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)));
    let s = simplify_expr(&e, &ctx);
    assert_eq!(s.to_string(), "m + n");
    for n in [8, 64, street_legal(800)] {
        for m in [1, 7] {
            assert_eq!(interp_eval(&e, n, m), interp_eval(&s, n, m));
        }
    }
}

/// Keeps the constant in `i64` form (helper so the test reads clearly).
fn street_legal(n: i64) -> i64 {
    n - n % 8
}

/// Certified library procs also pass the dynamic detector end-to-end: the
/// gemv accumulator shape with its inner loop parallelized runs race-free
/// (reductions commute), while the same proc with a plain assignment into
/// `y[0]` is caught by the shadow monitor.
#[test]
fn shadow_monitor_matches_verifier_on_the_gemv_shape() {
    let build = |reduce: bool| {
        ProcBuilder::new("acc")
            .with_body(|b| {
                b.alloc("y", DataType::F32, vec![ib(4)], Mem::Dram);
                b.alloc("x", DataType::F32, vec![ib(16)], Mem::Dram);
                b.push(Stmt::For {
                    iter: Sym::new("j"),
                    lo: ib(0),
                    hi: ib(16),
                    body: exo_ir::Block::from_stmts(vec![if reduce {
                        Stmt::Reduce {
                            buf: Sym::new("y"),
                            idx: vec![ib(0)],
                            rhs: read("x", vec![var("j")]),
                        }
                    } else {
                        Stmt::Assign {
                            buf: Sym::new("y"),
                            idx: vec![ib(0)],
                            rhs: read("x", vec![var("j")]),
                        }
                    }]),
                    parallel: true,
                });
            })
            .build()
    };
    let reduction = build(true);
    assert!(check_proc(&reduction).is_empty());
    assert_eq!(shadow_run(&reduction).unwrap(), 0);
    let assignment = build(false);
    assert!(!check_proc(&assignment).is_empty());
    assert!(shadow_run(&assignment).unwrap() > 0);
}
