//! Arithmetic simplification of expressions and predicates.
//!
//! Backs the `simplify` scheduling primitive and the trivial-branch
//! elimination in `eliminate_dead_code`.

use crate::context::Context;
use crate::linear::LinExpr;
use exo_ir::{BinOp, Expr, Sym, UnOp, WAccess};

/// Conservative constant range of an expression under `ctx`, if derivable.
fn const_range(e: &Expr, ctx: &Context) -> Option<(i64, i64)> {
    match e {
        Expr::Int(v) => Some((*v, *v)),
        Expr::Var(s) => {
            let lo = ctx.lower_bound(s)?;
            let hi = ctx.upper_bound(s)?;
            Some((lo, hi))
        }
        Expr::Bin { op, lhs, rhs } => {
            let (llo, lhi) = const_range(lhs, ctx)?;
            let (rlo, rhi) = const_range(rhs, ctx)?;
            match op {
                BinOp::Add => Some((llo + rlo, lhi + rhi)),
                BinOp::Sub => Some((llo - rhi, lhi - rlo)),
                BinOp::Mul => {
                    let candidates = [llo * rlo, llo * rhi, lhi * rlo, lhi * rhi];
                    let lo = candidates.iter().copied().fold(i64::MAX, i64::min);
                    let hi = candidates.iter().copied().fold(i64::MIN, i64::max);
                    Some((lo, hi))
                }
                BinOp::Mod => {
                    if rlo == rhi && rlo > 0 {
                        Some((0, rlo - 1))
                    } else {
                        None
                    }
                }
                BinOp::Div => {
                    if rlo == rhi && rlo > 0 && llo >= 0 {
                        Some((llo / rlo, lhi / rlo))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Simplifies an expression: constant folding, arithmetic identities, and
/// floor-division / modulo cancellation justified by `ctx`'s divisibility
/// and range facts.
pub fn simplify_expr(e: &Expr, ctx: &Context) -> Expr {
    let simplified = match e {
        Expr::Bin { op, lhs, rhs } => {
            let l = simplify_expr(lhs, ctx);
            let r = simplify_expr(rhs, ctx);
            simplify_bin(*op, l, r, ctx)
        }
        Expr::Un { op, arg } => {
            let a = simplify_expr(arg, ctx);
            match (op, &a) {
                (UnOp::Neg, Expr::Int(v)) => Expr::Int(-v),
                (UnOp::Neg, Expr::Float(v)) => Expr::Float(-v),
                (UnOp::Not, Expr::Bool(b)) => Expr::Bool(!b),
                _ => Expr::Un {
                    op: *op,
                    arg: Box::new(a),
                },
            }
        }
        Expr::Read { buf, idx } => Expr::Read {
            buf: buf.clone(),
            idx: idx.iter().map(|i| simplify_expr(i, ctx)).collect(),
        },
        Expr::Window { buf, idx } => Expr::Window {
            buf: buf.clone(),
            idx: idx
                .iter()
                .map(|w| match w {
                    WAccess::Point(e) => WAccess::Point(simplify_expr(e, ctx)),
                    WAccess::Interval(lo, hi) => {
                        WAccess::Interval(simplify_expr(lo, ctx), simplify_expr(hi, ctx))
                    }
                })
                .collect(),
        },
        other => other.clone(),
    };
    simplified
}

/// The canonical expression of a form that is purely linear in variables;
/// one with other atoms is left as written.
fn linear_in_vars(lin: &LinExpr) -> Option<Expr> {
    lin.vars_only().then(|| lin.to_expr())
}

fn simplify_bin(op: BinOp, l: Expr, r: Expr, ctx: &Context) -> Expr {
    use BinOp::*;
    // Integer constant folding.
    if let (Some(a), Some(b)) = (l.as_int(), r.as_int()) {
        let v = match op {
            Add => Some(a + b),
            Sub => Some(a - b),
            Mul => Some(a * b),
            Div if b != 0 => Some(a.div_euclid(b)),
            Mod if b != 0 => Some(a.rem_euclid(b)),
            _ => None,
        };
        if let Some(v) = v {
            return Expr::Int(v);
        }
        let b_cmp = match op {
            Lt => Some(a < b),
            Le => Some(a <= b),
            Gt => Some(a > b),
            Ge => Some(a >= b),
            Eq => Some(a == b),
            Ne => Some(a != b),
            _ => None,
        };
        if let Some(v) = b_cmp {
            return Expr::Bool(v);
        }
    }
    // Float constant folding for + - *.
    if let (Expr::Float(a), Expr::Float(b)) = (&l, &r) {
        match op {
            Add => return Expr::Float(a + b),
            Sub => return Expr::Float(a - b),
            Mul => return Expr::Float(a * b),
            _ => {}
        }
    }
    match (op, &l, &r) {
        // Identities.
        (Add, Expr::Int(0), _) => return r,
        (Add, _, Expr::Int(0)) => return l,
        (Sub, _, Expr::Int(0)) => return l,
        (Mul, Expr::Int(1), _) => return r,
        (Mul, _, Expr::Int(1)) => return l,
        (Mul, Expr::Int(0), _) | (Mul, _, Expr::Int(0)) => return Expr::Int(0),
        (Div, _, Expr::Int(1)) => return l,
        (Mod, _, Expr::Int(1)) => return Expr::Int(0),
        (Add, Expr::Float(z), _) if *z == 0.0 => return r,
        (Add, _, Expr::Float(z)) if *z == 0.0 => return l,
        (Mul, Expr::Float(o), _) if *o == 1.0 => return r,
        (Mul, _, Expr::Float(o)) if *o == 1.0 => return l,
        (And, Expr::Bool(true), _) => return r,
        (And, _, Expr::Bool(true)) => return l,
        (And, Expr::Bool(false), _) | (And, _, Expr::Bool(false)) => return Expr::Bool(false),
        (Or, Expr::Bool(false), _) => return r,
        (Or, _, Expr::Bool(false)) => return l,
        _ => {}
    }
    // `(E / k) * k == E` when `E` is provably divisible by `k` (harvested
    // from `assert E % k == 0` facts). This pattern arises from perfect
    // tiling and the Halide-style compute_at bounds.
    if op == Mul {
        let try_cancel = |maybe_div: &Expr, maybe_k: &Expr| -> Option<Expr> {
            let k = maybe_k.as_int()?;
            if let Expr::Bin { op: Div, lhs, rhs } = maybe_div {
                if rhs.as_int() == Some(k) && k > 0 && ctx.divides(lhs, k) {
                    return Some((**lhs).clone());
                }
            }
            None
        };
        if let Some(e) = try_cancel(&l, &r).or_else(|| try_cancel(&r, &l)) {
            return e;
        }
    }
    // Affine normalization for + and - over integer-like expressions,
    // rebuilding a canonical form when it is purely linear in variables.
    if matches!(op, Add | Sub) {
        let mut lin = LinExpr::from_expr(&l);
        lin.add_scaled(&LinExpr::from_expr(&r), if op == Add { 1 } else { -1 });
        if let Some(c) = lin.as_constant() {
            if !matches!((&l, &r), (Expr::Float(_), _) | (_, Expr::Float(_))) {
                return Expr::Int(c);
            }
        }
        if let Some(e) = linear_in_vars(&lin) {
            return e;
        }
    }
    // Floor-division and modulo cancellation.
    if let (Div, _, Expr::Int(k)) | (Mod, _, Expr::Int(k)) = (op, &l, &r) {
        let k = *k;
        if k > 0 {
            let lin = LinExpr::from_expr(&l);
            // Split the numerator into a part divisible by k and a residue.
            let mut divisible = LinExpr::zero();
            let mut residue = LinExpr::zero();
            for (atom, coeff) in lin.terms() {
                if coeff % k == 0 {
                    divisible.add_term(atom.clone(), coeff);
                } else {
                    residue.add_term(atom.clone(), coeff);
                }
            }
            if lin.constant % k == 0 {
                divisible.constant = lin.constant;
            } else {
                residue.constant = lin.constant;
            }
            let residue_expr = linear_in_vars(&residue);
            let residue_range = residue_expr
                .as_ref()
                .and_then(|e| const_range(e, ctx))
                .or_else(|| {
                    if residue.is_zero() {
                        Some((0, 0))
                    } else {
                        None
                    }
                });
            if let Some((rlo, rhi)) = residue_range {
                if rlo >= 0 && rhi < k {
                    match op {
                        Div => {
                            if let Some(d) = linear_in_vars(&divisible.scale_div(k)) {
                                return d;
                            }
                        }
                        Mod => {
                            if let Some(r) = residue_expr {
                                return r;
                            }
                            return Expr::Int(residue.constant.rem_euclid(k));
                        }
                        _ => {}
                    }
                }
            }
            // Whole-expression divisibility from context facts.
            if ctx.divides(&l, k) && op == Mod {
                return Expr::Int(0);
            }
        }
    }
    Expr::Bin {
        op,
        lhs: Box::new(l),
        rhs: Box::new(r),
    }
}

/// Attempts to decide a predicate under the facts in `ctx`.
///
/// Returns `Some(true)` / `Some(false)` when the predicate is provably
/// true / false, `None` when undecidable. Used by `eliminate_dead_code`
/// and `specialize`.
pub fn simplify_predicate(pred: &Expr, ctx: &Context) -> Option<bool> {
    let simplified = simplify_expr(pred, ctx);
    match &simplified {
        Expr::Bool(b) => Some(*b),
        Expr::Bin { op, lhs, rhs } => {
            let (llo, lhi) = const_range(lhs, ctx)?;
            let (rlo, rhi) = const_range(rhs, ctx)?;
            match op {
                BinOp::Lt if lhi < rlo => Some(true),
                BinOp::Lt if llo >= rhi => Some(false),
                BinOp::Le if lhi <= rlo => Some(true),
                BinOp::Le if llo > rhi => Some(false),
                BinOp::Gt if llo > rhi => Some(true),
                BinOp::Gt if lhi <= rlo => Some(false),
                BinOp::Ge if llo >= rhi => Some(true),
                BinOp::Ge if lhi < rlo => Some(false),
                BinOp::Eq if llo == lhi && rlo == rhi && llo == rlo => Some(true),
                BinOp::Eq if lhi < rlo || llo > rhi => Some(false),
                BinOp::Ne if lhi < rlo || llo > rhi => Some(true),
                BinOp::Ne if llo == lhi && rlo == rhi && llo == rlo => Some(false),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Simplifies an expression with respect to an additional equality
/// assumption `sym == value` (used by `specialize` and `unroll_loop`).
pub fn simplify_with_binding(e: &Expr, sym: &Sym, value: i64, ctx: &Context) -> Expr {
    let substituted = exo_ir::substitute_expr(e.clone(), sym, &Expr::Int(value));
    simplify_expr(&substituted, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{ib, var};

    #[test]
    fn folds_constants_and_identities() {
        let ctx = Context::new();
        assert_eq!(simplify_expr(&(ib(2) + ib(3)), &ctx), ib(5));
        assert_eq!(simplify_expr(&(var("x") * ib(1)), &ctx), var("x"));
        assert_eq!(simplify_expr(&(var("x") + ib(0)), &ctx), var("x"));
        assert_eq!(simplify_expr(&(var("x") * ib(0)), &ctx), ib(0));
        assert_eq!(simplify_expr(&(ib(7) % ib(4)), &ctx), ib(3));
        assert_eq!(simplify_expr(&(ib(8) / ib(4)), &ctx), ib(2));
    }

    #[test]
    fn collects_like_terms() {
        let ctx = Context::new();
        // (i + i) - 2*i == 0
        let e = (var("i") + var("i")) - ib(2) * var("i");
        assert_eq!(simplify_expr(&e, &ctx), ib(0));
        // 8*io + ii + 8 - 8  ->  8*io + ii (canonical ordering may differ)
        let e = ib(8) * var("io") + var("ii") + ib(8) - ib(8);
        let s = simplify_expr(&e, &ctx);
        assert!(
            crate::linear::provably_equal(&s, &(ib(8) * var("io") + var("ii"))),
            "{s}"
        );
        assert!(!s.to_string().contains('8') || !s.to_string().contains("- 8"));
    }

    #[test]
    fn cancels_division_with_range_facts() {
        let mut ctx = Context::new();
        ctx.push_iter(Sym::new("ii"), ib(0), ib(8));
        // (8*io + ii) / 8 == io
        let e = (ib(8) * var("io") + var("ii")) / ib(8);
        assert_eq!(simplify_expr(&e, &ctx), var("io"));
        // (8*io + ii) % 8 == ii
        let e = (ib(8) * var("io") + var("ii")) % ib(8);
        assert_eq!(simplify_expr(&e, &ctx), var("ii"));
    }

    #[test]
    fn division_not_cancelled_without_facts() {
        let ctx = Context::new();
        let e = (ib(8) * var("io") + var("ii")) / ib(8);
        // Without the range of ii the division must be preserved.
        assert!(matches!(
            simplify_expr(&e, &ctx),
            Expr::Bin { op: BinOp::Div, .. }
        ));
    }

    #[test]
    fn divisibility_from_asserts_cancels_mod() {
        let mut ctx = Context::new();
        ctx.add_fact(&Expr::eq_(Expr::modulo(var("M"), ib(8)), ib(0)));
        assert_eq!(simplify_expr(&(var("M") % ib(8)), &ctx), ib(0));
    }

    #[test]
    fn predicates_decided_by_ranges() {
        let mut ctx = Context::new();
        ctx.push_iter(Sym::new("i"), ib(0), ib(8));
        assert_eq!(
            simplify_predicate(&Expr::lt(var("i"), ib(8)), &ctx),
            Some(true)
        );
        assert_eq!(simplify_predicate(&Expr::lt(var("i"), ib(4)), &ctx), None);
        assert_eq!(
            simplify_predicate(&Expr::lt(var("i"), ib(0)), &ctx),
            Some(false)
        );
        assert_eq!(
            simplify_predicate(&Expr::eq_(ib(0), ib(0)), &ctx),
            Some(true)
        );
    }

    #[test]
    fn binding_substitution() {
        let ctx = Context::new();
        let e = var("i") * ib(4) + ib(1);
        assert_eq!(simplify_with_binding(&e, &Sym::new("i"), 3, &ctx), ib(13));
    }
}
