//! Analysis contexts: facts about symbols in scope.
//!
//! A [`Context`] gathers the information the safety checks need:
//!
//! * divisibility facts harvested from procedure assertions
//!   (`assert M % 8 == 0`),
//! * lower bounds from assertions (`assert N >= 1`) and the `size`
//!   convention (size arguments are positive),
//! * iterator ranges `lo <= i < hi` from enclosing loops,
//! * upper-bound facts from assertions (`assert N <= 88`) used by the
//!   skinny-matrix schedules,
//! * the window aliases in scope (`w = y[0:4]` makes `w` a name for
//!   cells of `y`): the access walk starts from them, so that statements
//!   which merely *use* an alias are still seen to touch its source.

use crate::linear::LinExpr;
use exo_ir::{ArgKind, BinOp, Expr, Proc, Step, Stmt, Sym};
use std::collections::HashMap;
use std::sync::Arc;

/// A symbolic iterator range `lo <= iter < hi`.
#[derive(Clone, Debug, PartialEq)]
pub struct IterRange {
    /// Inclusive lower bound.
    pub lo: Expr,
    /// Exclusive upper bound.
    pub hi: Expr,
}

/// Facts available at a given point in a procedure.
#[derive(Clone, Debug, Default)]
pub struct Context {
    /// `expr % k == 0` facts.
    divisibility: Vec<(LinExpr, i64)>,
    /// Known constant lower bounds per symbol (inclusive).
    lower_bounds: HashMap<Sym, i64>,
    /// Known constant upper bounds per symbol (inclusive).
    upper_bounds: HashMap<Sym, i64>,
    /// Iterator ranges of enclosing loops, innermost last.
    iter_ranges: Vec<(Sym, IterRange)>,
    /// Window aliases in scope as `(alias, root buffer)`, innermost last.
    /// An allocation that takes over an alias' name is recorded as its own
    /// root.
    aliases: Vec<(Sym, Sym)>,
}

impl Context {
    /// An empty context.
    pub fn new() -> Self {
        Context::default()
    }

    /// Builds the context visible at the statement addressed by `path`
    /// inside `proc`: procedure-level assertions, the ranges of every
    /// enclosing loop, and the window aliases declared before it.
    pub fn at(proc: &Proc, path: &[Step]) -> Self {
        let mut ctx = Context::from_proc(proc);
        // Walk down the path, recording loop iterator ranges and the
        // aliases the earlier siblings at each level declare.
        let mut stmts: &[Arc<Stmt>] = proc.body().stmts();
        for step in path {
            let idx = step.index();
            let Some(stmt) = stmts.get(idx).map(|s| &**s) else {
                break;
            };
            for earlier in &stmts[..idx] {
                match &**earlier {
                    Stmt::WindowStmt {
                        name,
                        rhs: Expr::Window { buf, .. },
                    } => ctx.bind(name.clone(), ctx.root_of(buf).clone()),
                    Stmt::Alloc { name, .. } if ctx.root_of(name) != name => {
                        ctx.bind(name.clone(), name.clone())
                    }
                    _ => {}
                }
            }
            if let Stmt::For { iter, lo, hi, .. } = stmt {
                ctx.push_iter(iter.clone(), lo.clone(), hi.clone());
            }
            stmts = match (stmt, step) {
                (Stmt::For { body, .. }, Step::Body(_)) => body.stmts(),
                (Stmt::If { then_body, .. }, Step::Body(_)) => then_body.stmts(),
                (Stmt::If { else_body, .. }, Step::Else(_)) => else_body.stmts(),
                _ => &[],
            };
        }
        ctx
    }

    /// Builds a context from a procedure's signature and assertions only.
    pub fn from_proc(proc: &Proc) -> Self {
        let mut ctx = Context::new();
        for arg in proc.args() {
            if matches!(arg.kind, ArgKind::Size) {
                // `size` arguments are positive by convention.
                ctx.lower_bounds.insert(arg.name.clone(), 1);
            }
        }
        for pred in proc.preds() {
            ctx.add_fact(pred);
        }
        ctx
    }

    /// Records a single assertion.
    pub fn add_fact(&mut self, pred: &Expr) {
        match pred {
            Expr::Bin {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                self.add_fact(lhs);
                self.add_fact(rhs);
            }
            Expr::Bin {
                op: BinOp::Eq,
                lhs,
                rhs,
            } => {
                // `e % k == 0`
                if let (
                    Expr::Bin {
                        op: BinOp::Mod,
                        lhs: e,
                        rhs: k,
                    },
                    Expr::Int(0),
                ) = (lhs.as_ref(), rhs.as_ref())
                {
                    if let Expr::Int(kv) = k.as_ref() {
                        self.divisibility.push((LinExpr::from_expr(e), *kv));
                    }
                }
            }
            Expr::Bin {
                op: BinOp::Ge,
                lhs,
                rhs,
            } => {
                if let (Expr::Var(s), Expr::Int(v)) = (lhs.as_ref(), rhs.as_ref()) {
                    let entry = self.lower_bounds.entry(s.clone()).or_insert(*v);
                    *entry = (*entry).max(*v);
                }
            }
            Expr::Bin {
                op: BinOp::Gt,
                lhs,
                rhs,
            } => {
                if let (Expr::Var(s), Expr::Int(v)) = (lhs.as_ref(), rhs.as_ref()) {
                    let entry = self.lower_bounds.entry(s.clone()).or_insert(*v + 1);
                    *entry = (*entry).max(*v + 1);
                }
            }
            Expr::Bin {
                op: BinOp::Le,
                lhs,
                rhs,
            } => {
                if let (Expr::Var(s), Expr::Int(v)) = (lhs.as_ref(), rhs.as_ref()) {
                    let entry = self.upper_bounds.entry(s.clone()).or_insert(*v);
                    *entry = (*entry).min(*v);
                }
            }
            Expr::Bin {
                op: BinOp::Lt,
                lhs,
                rhs,
            } => {
                if let (Expr::Var(s), Expr::Int(v)) = (lhs.as_ref(), rhs.as_ref()) {
                    let entry = self.upper_bounds.entry(s.clone()).or_insert(*v - 1);
                    *entry = (*entry).min(*v - 1);
                }
            }
            _ => {}
        }
    }

    /// Pushes an enclosing loop's iterator range.
    pub fn push_iter(&mut self, iter: Sym, lo: Expr, hi: Expr) {
        match &lo {
            Expr::Int(v) => {
                self.lower_bounds.insert(iter.clone(), *v);
            }
            Expr::Var(s) => {
                if let Some(lb) = self.lower_bounds.get(s).copied() {
                    self.lower_bounds.insert(iter.clone(), lb);
                }
            }
            _ => {}
        }
        match &hi {
            Expr::Int(v) => {
                self.upper_bounds.insert(iter.clone(), *v - 1);
            }
            Expr::Var(s) => {
                if let Some(ub) = self.upper_bounds.get(s).copied() {
                    self.upper_bounds.insert(iter.clone(), ub - 1);
                }
            }
            _ => {}
        }
        self.iter_ranges.push((iter, IterRange { lo, hi }));
    }

    /// Records that `name` stores into the buffer `root` from here on: a
    /// window alias of `root`'s cells, or (`root == name`) an allocation
    /// taking over the name of an alias.
    pub(crate) fn bind(&mut self, name: Sym, root: Sym) {
        self.aliases.push((name, root));
    }

    /// The buffer `name` stores into: the root of the innermost alias
    /// called `name`, or `name` itself.
    pub(crate) fn root_of<'a>(&'a self, name: &'a Sym) -> &'a Sym {
        self.aliases
            .iter()
            .rev()
            .find(|(alias, _)| alias == name)
            .map_or(name, |(_, root)| root)
    }

    /// The same facts with no loop counted as enclosing: every iterator in
    /// scope becomes a free symbol (its constant bounds are kept).
    pub(crate) fn with_free_iterators(mut self) -> Self {
        self.iter_ranges.clear();
        self
    }

    /// The range of an in-scope iterator, if known.
    pub fn iter_range(&self, iter: &Sym) -> Option<&IterRange> {
        self.iter_ranges
            .iter()
            .rev()
            .find(|(s, _)| s == iter)
            .map(|(_, r)| r)
    }

    /// All in-scope iterators, outermost first.
    pub fn iterators(&self) -> Vec<Sym> {
        self.iter_ranges.iter().map(|(s, _)| s.clone()).collect()
    }

    /// Constant lower bound of a symbol (inclusive), if known.
    pub fn lower_bound(&self, sym: &Sym) -> Option<i64> {
        self.lower_bounds.get(sym).copied()
    }

    /// Constant upper bound of a symbol (inclusive), if known.
    pub fn upper_bound(&self, sym: &Sym) -> Option<i64> {
        self.upper_bounds.get(sym).copied()
    }

    /// Whether `expr` is provably divisible by `k`: either every affine
    /// coefficient is a multiple of `k`, or the residue matches a recorded
    /// divisibility fact.
    pub fn divides(&self, expr: &Expr, k: i64) -> bool {
        if k == 0 {
            return false;
        }
        let lin = LinExpr::from_expr(expr);
        if lin.divisible_by(k) {
            return true;
        }
        // Try subtracting each known `fact % k' == 0` with k' a multiple of
        // k, scaled so the remainder becomes trivially divisible.
        for (fact, fk) in &self.divisibility {
            if fk % k != 0 {
                continue;
            }
            // expr - m*fact divisible by k for some small m?
            for m in [-4i64, -3, -2, -1, 1, 2, 3, 4] {
                let mut rest = lin.clone();
                rest.add_scaled(fact, -m);
                if rest.divisible_by(k) {
                    return true;
                }
            }
        }
        false
    }

    /// Whether the loop `for iter in seq(lo, hi)` is provably non-empty:
    /// `hi - lo` is a positive constant, or a non-negative constant plus
    /// one positively-weighted symbol whose lower bound makes it positive.
    pub fn loop_nonempty(&self, lo: &Expr, hi: &Expr) -> bool {
        let diff = LinExpr::from_expr(hi).sub(&LinExpr::from_expr(lo));
        diff.constant >= 0
            && diff.terms().count() <= 1
            && diff.terms().all(|(_, coeff)| coeff > 0)
            && diff.bound(self, true).is_some_and(|least| least > 0)
    }

    /// Whether `a <= b` is provable: `b - a` is a constant, or a constant
    /// plus a single symbol with a known bound. The one-term guard is what
    /// separates this prover from [`prove_le`](crate::prove_le), which
    /// builds its forms under the context instead and has no such guard.
    pub fn proves_le(&self, a: &Expr, b: &Expr) -> bool {
        let diff = LinExpr::from_expr(b).sub(&LinExpr::from_expr(a));
        diff.terms().count() <= 1 && diff.bound(self, true).is_some_and(|least| least >= 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{ib, var, DataType, Mem, ProcBuilder};

    fn gemv() -> Proc {
        ProcBuilder::new("gemv")
            .size_arg("M")
            .size_arg("N")
            .tensor_arg("A", DataType::F32, vec![var("M"), var("N")], Mem::Dram)
            .assert_(Expr::eq_(Expr::modulo(var("M"), ib(8)), ib(0)))
            .assert_(Expr::le(var("N"), ib(88)))
            .for_("i", ib(0), var("M"), |b| {
                b.for_("j", ib(0), var("N"), |b| {
                    b.pass();
                });
            })
            .build()
    }

    #[test]
    fn harvests_divisibility_from_asserts() {
        let ctx = Context::from_proc(&gemv());
        assert!(ctx.divides(&var("M"), 8));
        assert!(ctx.divides(&var("M"), 4));
        assert!(ctx.divides(&var("M"), 2));
        assert!(!ctx.divides(&var("N"), 8));
        assert!(ctx.divides(&(var("M") + ib(16)), 8));
        assert!(!ctx.divides(&(var("M") + ib(3)), 8));
    }

    #[test]
    fn size_args_are_positive() {
        let ctx = Context::from_proc(&gemv());
        assert_eq!(ctx.lower_bound(&Sym::new("M")), Some(1));
        assert!(ctx.loop_nonempty(&ib(0), &var("M")));
        assert!(!ctx.loop_nonempty(&ib(0), &ib(0)));
        assert!(ctx.loop_nonempty(&ib(0), &ib(3)));
    }

    #[test]
    fn upper_bounds_from_asserts() {
        let ctx = Context::from_proc(&gemv());
        assert_eq!(ctx.upper_bound(&Sym::new("N")), Some(88));
        assert!(ctx.proves_le(&var("N"), &ib(88)));
        assert!(ctx.proves_le(&var("N"), &ib(100)));
        assert!(!ctx.proves_le(&var("N"), &ib(50)));
        assert!(ctx.proves_le(&ib(2), &ib(4)));
    }

    #[test]
    fn context_at_records_enclosing_loop_ranges() {
        let p = gemv();
        let ctx = Context::at(&p, &[Step::Body(0), Step::Body(0), Step::Body(0)]);
        let iters = ctx.iterators();
        assert_eq!(iters, vec![Sym::new("i"), Sym::new("j")]);
        let ri = ctx.iter_range(&Sym::new("i")).unwrap();
        assert_eq!(ri.lo, ib(0));
        assert_eq!(ri.hi, var("M"));
        assert_eq!(ctx.lower_bound(&Sym::new("i")), Some(0));
    }

    #[test]
    fn context_at_records_the_aliases_in_scope() {
        let window = |buf: &str| Expr::Window {
            buf: Sym::new(buf),
            idx: vec![exo_ir::WAccess::Interval(ib(0), ib(4))],
        };
        let alias = |name: &str, buf: &str| Stmt::WindowStmt {
            name: Sym::new(name),
            rhs: window(buf),
        };
        // w = y[0:4]; v = w[0:4]; for i: (w: f32[4]; pass; u = y[0:4])
        let p = ProcBuilder::new("p")
            .tensor_arg("y", DataType::F32, vec![ib(8)], Mem::Dram)
            .stmt(alias("w", "y"))
            .stmt(alias("v", "w"))
            .for_("i", ib(0), ib(4), |b| {
                b.push(Stmt::Alloc {
                    name: Sym::new("w"),
                    ty: DataType::F32,
                    dims: vec![ib(4)],
                    mem: Mem::Dram,
                });
                b.pass();
                b.push(alias("u", "y"));
            })
            .build();
        let (w, v, u, y) = (Sym::new("w"), Sym::new("v"), Sym::new("u"), Sym::new("y"));
        // At the loop: both aliases, the alias of an alias resolved.
        let ctx = Context::at(&p, &[Step::Body(2)]);
        assert_eq!((ctx.root_of(&w), ctx.root_of(&v)), (&y, &y));
        // After the allocation that takes over `w`: `w` is its own buffer,
        // `v` still names `y`, and `u` is not declared yet.
        let ctx = Context::at(&p, &[Step::Body(2), Step::Body(1)]);
        assert_eq!((ctx.root_of(&w), ctx.root_of(&v)), (&w, &y));
        assert_eq!(ctx.root_of(&u), &u);
    }
}
