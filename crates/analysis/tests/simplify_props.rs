//! Property tests for `simplify_expr` / `simplify_with_binding` /
//! `simplify_predicate`: a simplified expression must evaluate to exactly
//! the same value as the original on random assignments (that respect the
//! facts in the context).

use exo_analysis::{simplify_expr, simplify_predicate, simplify_with_binding, Context};
use exo_ir::gen::int_expr;
use exo_ir::rng::Rng;
use exo_ir::{ib, BinOp, Expr, Sym};
use proptest::prelude::*;

const VARS: [&str; 3] = ["io", "ii", "j"];

/// `e` under an assignment, with the Euclidean `/` and `%` the
/// simplifier folds with. Every generated expression has a value.
fn eval(e: &Expr, env: &dyn Fn(&Sym) -> i64) -> i64 {
    e.eval_int(&|s| Some(env(s)))
        .unwrap_or_else(|| panic!("`{e}` has no value"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Without context facts, simplification is pure algebra: the
    /// simplified tree evaluates identically on arbitrary assignments.
    #[test]
    fn simplify_preserves_value_without_facts(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let e = int_expr(&mut rng, &VARS, 3);
        let ctx = Context::new();
        let s = simplify_expr(&e, &ctx);
        let mut r = Rng::stream(seed, "env");
        for _ in 0..8 {
            let vals: Vec<i64> = VARS.iter().map(|_| r.range(-8, 8)).collect();
            let env = |sym: &Sym| -> i64 {
                VARS.iter().position(|v| sym.name() == *v).map(|i| vals[i]).unwrap()
            };
            prop_assert!(
                eval(&e, &env) == eval(&s, &env),
                "{e}  !=  {s}  under {vals:?}"
            );
        }
    }

    /// With an iteration-range fact `ii in [0, 8)`, simplification may
    /// cancel `(8*io + ii) / 8`-style divisions — but only on assignments
    /// consistent with the fact, where it must still be value-preserving.
    #[test]
    fn simplify_preserves_value_under_range_facts(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let e = int_expr(&mut rng, &VARS, 3);
        let mut ctx = Context::new();
        ctx.push_iter(Sym::new("ii"), ib(0), ib(8));
        let s = simplify_expr(&e, &ctx);
        let mut r = Rng::stream(seed, "env");
        for _ in 0..8 {
            let io = r.range(-8, 8);
            let ii = r.range(0, 7); // consistent with the pushed range
            let j = r.range(-8, 8);
            let env = |sym: &Sym| -> i64 {
                match sym.name() {
                    "io" => io,
                    "ii" => ii,
                    "j" => j,
                    other => panic!("unexpected symbol {other}"),
                }
            };
            prop_assert!(
                eval(&e, &env) == eval(&s, &env),
                "{e}  !=  {s}  under io={io} ii={ii} j={j}"
            );
        }
    }

    /// `simplify_with_binding(e, sym, v)` equals evaluating with `sym = v`.
    #[test]
    fn binding_substitution_preserves_value(seed in any::<u64>(), bound in -8i64..9) {
        let mut rng = Rng::new(seed);
        let e = int_expr(&mut rng, &VARS, 3);
        let ctx = Context::new();
        let s = simplify_with_binding(&e, &Sym::new("ii"), bound, &ctx);
        let mut r = Rng::stream(seed, "env");
        for _ in 0..8 {
            let io = r.range(-8, 8);
            let j = r.range(-8, 8);
            let env = |sym: &Sym| -> i64 {
                match sym.name() {
                    "io" => io,
                    "ii" => bound,
                    "j" => j,
                    other => panic!("unexpected symbol {other}"),
                }
            };
            prop_assert!(
                eval(&e, &env) == eval(&s, &env),
                "{e}  !=  {s}  with ii := {bound}, io={io} j={j}"
            );
        }
    }

    /// When `simplify_predicate` decides a comparison, every consistent
    /// assignment agrees with the verdict.
    #[test]
    fn decided_predicates_are_sound(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let lhs = int_expr(&mut rng, &VARS, 2);
        let rhs = int_expr(&mut rng, &VARS, 2);
        let op = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne]
            [rng.below(6)];
        let pred = Expr::bin(op, lhs, rhs);
        let mut ctx = Context::new();
        ctx.push_iter(Sym::new("ii"), ib(0), ib(8));
        ctx.push_iter(Sym::new("io"), ib(0), ib(4));
        ctx.push_iter(Sym::new("j"), ib(0), ib(16));
        if let Some(verdict) = simplify_predicate(&pred, &ctx) {
            let mut r = Rng::stream(seed, "env");
            for _ in 0..8 {
                let io = r.range(0, 3);
                let ii = r.range(0, 7);
                let j = r.range(0, 15);
                let env = |sym: &Sym| match sym.name() {
                    "io" => Some(io),
                    "ii" => Some(ii),
                    "j" => Some(j),
                    _ => None,
                };
                let actual = pred.eval_bool(&env).expect("a comparison of valued expressions");
                prop_assert!(
                    actual == verdict,
                    "{pred} decided {verdict} but evaluates {actual} under io={io} ii={ii} j={j}"
                );
            }
        }
    }
}
