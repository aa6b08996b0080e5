//! The one traversal of the object language, and the substitution,
//! renaming and collection utilities built on it.
//!
//! [`Visit`] (read-only) and [`VisitMut`] (rewriting) are generated from a
//! single body, so the question "which positions of a statement hold an
//! expression, and which expressions hold children?" is answered once.
//! Every hook has a default: `visit_expr` / `visit_stmt` recurse, the
//! others do nothing, so a client states only what it does *at* a node.

use crate::expr::{Expr, WAccess};
use crate::stmt::{Block, Stmt};
use crate::sym::Sym;

macro_rules! define_traversal {
    ($(#[$doc:meta])* $Trait:ident $(<$lt:lifetime>)?, $walk_expr:ident, $walk_stmt:ident, $walk_stmts:ident,
     $iter:ident $(, $m:ident)?) => {
        $(#[$doc])*
        pub trait $Trait $(<$lt>)? {
            /// Every symbol occurrence: uses (variables, buffers, stride
            /// and config targets) and binding sites alike.
            fn visit_sym(&mut self, _sym: &$($lt)? $($m)? Sym) {}

            /// Every expression position. The default recurses into the
            /// children; an override that does not call the walker prunes
            /// the subtree.
            fn visit_expr(&mut self, e: &$($lt)? $($m)? Expr) {
                $walk_expr(self, e)
            }

            /// Every statement. The default visits the statement's own
            /// symbols and expressions, then its child blocks.
            fn visit_stmt(&mut self, s: &$($lt)? $($m)? Stmt) {
                $walk_stmt(self, s)
            }

            /// Called once per binder, after the binding statement's own
            /// expressions and before the binder's scope: the body of a
            /// `for`, or the rest of the enclosing block after an `alloc`
            /// or a window alias. Returning `false` leaves that scope
            /// unvisited — how a client says the name it rewrites is
            /// shadowed there.
            fn enter(&mut self, _binder: &$($lt)? Sym) -> bool {
                true
            }

            /// Called once per binder whose scope was entered, after the
            /// last statement of that scope: the end of a `for` body, or
            /// the end of the block an `alloc` or window alias sits in
            /// (innermost binder first).
            fn exit(&mut self, _binder: &$($lt)? Sym) {}
        }

        /// Visits the symbols and child expressions of `e`.
        pub fn $walk_expr<$($lt,)? V: $Trait $(<$lt>)? + ?Sized>(v: &mut V, e: &$($lt)? $($m)? Expr) {
            match e {
                Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) => {}
                Expr::Var(s) | Expr::Stride { buf: s, .. } | Expr::ReadConfig { config: s, .. } => {
                    v.visit_sym(s)
                }
                Expr::Read { buf, idx } => {
                    v.visit_sym(buf);
                    for i in idx {
                        v.visit_expr(i);
                    }
                }
                Expr::Window { buf, idx } => {
                    v.visit_sym(buf);
                    for w in idx {
                        match w {
                            WAccess::Point(p) => v.visit_expr(p),
                            WAccess::Interval(lo, hi) => {
                                v.visit_expr(lo);
                                v.visit_expr(hi);
                            }
                        }
                    }
                }
                Expr::Bin { lhs, rhs, .. } => {
                    v.visit_expr(lhs);
                    v.visit_expr(rhs);
                }
                Expr::Un { arg, .. } => v.visit_expr(arg),
            }
        }

        /// Visits the symbols and expressions of `s`, then its child
        /// blocks (a loop body only if `enter` allows).
        pub fn $walk_stmt<$($lt,)? V: $Trait $(<$lt>)? + ?Sized>(v: &mut V, s: &$($lt)? $($m)? Stmt) {
            match s {
                Stmt::Assign { buf, idx, rhs } | Stmt::Reduce { buf, idx, rhs } => {
                    v.visit_sym(buf);
                    for i in idx {
                        v.visit_expr(i);
                    }
                    v.visit_expr(rhs);
                }
                Stmt::Alloc { name, dims, .. } => {
                    v.visit_sym(name);
                    for d in dims {
                        v.visit_expr(d);
                    }
                }
                Stmt::For { iter, lo, hi, body, .. } => {
                    v.visit_sym(iter);
                    v.visit_expr(lo);
                    v.visit_expr(hi);
                    if v.enter(iter) {
                        $walk_stmts(v, body);
                        v.exit(iter);
                    }
                }
                Stmt::If { cond, then_body, else_body } => {
                    v.visit_expr(cond);
                    $walk_stmts(v, then_body);
                    $walk_stmts(v, else_body);
                }
                Stmt::Call { args, .. } => {
                    for a in args {
                        v.visit_expr(a);
                    }
                }
                Stmt::Pass => {}
                Stmt::WriteConfig { config, value, .. } => {
                    v.visit_sym(config);
                    v.visit_expr(value);
                }
                Stmt::WindowStmt { name, rhs } => {
                    v.visit_sym(name);
                    v.visit_expr(rhs);
                }
            }
        }

        /// Visits the statements of a block in order, stopping after an
        /// `alloc` or window alias whose scope the client declines to
        /// `enter`, then `exit`s the scopes that were entered.
        pub fn $walk_stmts<$($lt,)? V: $Trait $(<$lt>)? + ?Sized>(v: &mut V, block: &$($lt)? $($m)? Block) {
            let mut visited = 0;
            for s in block.$iter() {
                v.visit_stmt(s);
                if let Stmt::Alloc { name, .. } | Stmt::WindowStmt { name, .. } = &*s {
                    if !v.enter(name) {
                        break;
                    }
                }
                visited += 1;
            }
            for s in block.iter().take(visited).rev() {
                if let Stmt::Alloc { name, .. } | Stmt::WindowStmt { name, .. } = s {
                    v.exit(name);
                }
            }
        }
    };
}

define_traversal!(
    /// A read-only pass over statements and expressions. Every node is
    /// handed over for the lifetime of the tree, so a client may keep
    /// references into it (enclosing loops, the callee of the call whose
    /// arguments it is visiting) instead of cloning.
    Visit<'ast>, walk_expr, walk_stmt, walk_stmts, iter
);
define_traversal!(
    /// An in-place rewriting pass over statements and expressions. Walking
    /// a block mutably un-shares it and each statement visited (see
    /// [`Block::iter_mut`]).
    VisitMut, walk_expr_mut, walk_stmt_mut, walk_stmts_mut, iter_mut, mut
);

struct Subst<'a> {
    sym: &'a Sym,
    val: &'a Expr,
}

impl VisitMut for Subst<'_> {
    fn visit_expr(&mut self, e: &mut Expr) {
        if e.as_var() == Some(self.sym) {
            *e = self.val.clone();
        } else {
            walk_expr_mut(self, e);
        }
    }

    fn enter(&mut self, binder: &Sym) -> bool {
        binder != self.sym
    }
}

/// Replaces every *variable* occurrence of `sym` in the expression with
/// `val`. Buffer names, stride references and config references are left
/// unchanged (those are renamed with [`rename_sym`]).
pub fn substitute_expr(mut e: Expr, sym: &Sym, val: &Expr) -> Expr {
    Subst { sym, val }.visit_expr(&mut e);
    e
}

/// Replaces every variable occurrence of `sym` with `val` throughout a
/// statement (recursively). A binder of `sym` — a loop iterator, an
/// allocation or a window alias — *shadows* it: the substitution stops at
/// the binder's scope.
pub fn substitute_var(mut stmt: Stmt, sym: &Sym, val: &Expr) -> Stmt {
    Subst { sym, val }.visit_stmt(&mut stmt);
    stmt
}

/// Substitutes within every statement of a block.
pub fn substitute_block(mut block: Block, sym: &Sym, val: &Expr) -> Block {
    walk_stmts_mut(&mut Subst { sym, val }, &mut block);
    block
}

struct Rename<'a> {
    old: &'a Sym,
    new: &'a Sym,
}

impl VisitMut for Rename<'_> {
    fn visit_sym(&mut self, sym: &mut Sym) {
        if sym == self.old {
            *sym = self.new.clone();
        }
    }
}

/// Renames a symbol everywhere it appears — as a variable, buffer name,
/// iterator, stride target or config struct.
pub fn rename_sym(mut stmt: Stmt, old: &Sym, new: &Sym) -> Stmt {
    Rename { old, new }.visit_stmt(&mut stmt);
    stmt
}

/// Renames a symbol within an expression, including buffer names.
pub fn rename_expr(mut e: Expr, old: &Sym, new: &Sym) -> Expr {
    Rename { old, new }.visit_expr(&mut e);
    e
}

struct EachExpr<F>(F);

impl<F: FnMut(&Expr)> Visit<'_> for EachExpr<F> {
    fn visit_expr(&mut self, e: &Expr) {
        (self.0)(e);
        walk_expr(self, e);
    }
}

/// Calls `f` on every expression occurring in the statement, recursively
/// (including expressions in nested statements).
pub fn for_each_expr(stmt: &Stmt, f: &mut impl FnMut(&Expr)) {
    EachExpr(f).visit_stmt(stmt);
}

struct EachStmt<F>(F);

impl<F: FnMut(&Stmt)> Visit<'_> for EachStmt<F> {
    fn visit_stmt(&mut self, s: &Stmt) {
        (self.0)(s);
        walk_stmt(self, s);
    }

    fn visit_expr(&mut self, _: &Expr) {}
}

/// Calls `f` on every statement rooted at `stmt` (pre-order, including
/// `stmt` itself).
pub fn for_each_stmt(stmt: &Stmt, f: &mut impl FnMut(&Stmt)) {
    EachStmt(f).visit_stmt(stmt);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ib, read, var};

    /// Every `(buffer, index)` pair read anywhere under `stmt`.
    fn reads(stmt: &Stmt) -> Vec<(Sym, Vec<Expr>)> {
        let mut out = Vec::new();
        for_each_expr(stmt, &mut |e| {
            if let Expr::Read { buf, idx } = e {
                out.push((buf.clone(), idx.clone()));
            }
        });
        out
    }

    fn loop_stmt() -> Stmt {
        Stmt::For {
            iter: Sym::new("i"),
            lo: ib(0),
            hi: var("n"),
            body: Block::from_stmts(vec![Stmt::Reduce {
                buf: Sym::new("y"),
                idx: vec![var("i")],
                rhs: read("A", vec![var("i"), var("j")]) * read("x", vec![var("j")]),
            }]),
            parallel: false,
        }
    }

    #[test]
    fn substitute_respects_shadowing() {
        let s = loop_stmt();
        // Substituting the iterator `i` must not touch the body (it is shadowed).
        let s2 = substitute_var(s.clone(), &Sym::new("i"), &ib(7));
        assert_eq!(s, s2);
        // Substituting `j` rewrites the body.
        let s3 = substitute_var(s, &Sym::new("j"), &ib(3));
        assert!(reads(&s3)
            .iter()
            .any(|(b, idx)| b == &Sym::new("x") && idx == &vec![ib(3)]));
    }

    #[test]
    fn substitute_loop_bound() {
        let s = loop_stmt();
        let s2 = substitute_var(s, &Sym::new("n"), &ib(16));
        match s2 {
            Stmt::For { hi, .. } => assert_eq!(hi, ib(16)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn rename_buffer_everywhere() {
        let s = loop_stmt();
        let s2 = rename_sym(s, &Sym::new("x"), &Sym::new("x_vec"));
        let reads = reads(&s2);
        assert!(reads.iter().any(|(b, _)| b == &Sym::new("x_vec")));
        assert!(!reads.iter().any(|(b, _)| b == &Sym::new("x")));
    }

    #[test]
    fn for_each_stmt_and_expr_visit_nested() {
        let s = loop_stmt();
        let mut written = Vec::new();
        let mut n = 0;
        for_each_stmt(&s, &mut |s| {
            n += 1;
            if let Stmt::Assign { buf, .. } | Stmt::Reduce { buf, .. } = s {
                written.push(buf.clone());
            }
        });
        assert_eq!(n, 2);
        assert_eq!(written, vec![Sym::new("y")]);
        let read: Vec<Sym> = reads(&s).into_iter().map(|(b, _)| b).collect();
        assert_eq!(read, vec![Sym::new("A"), Sym::new("x")]);
    }

    #[test]
    fn every_entered_scope_is_exited_innermost_first() {
        #[derive(Default)]
        struct Scopes(Vec<String>);
        impl Visit<'_> for Scopes {
            fn enter(&mut self, binder: &Sym) -> bool {
                self.0.push(format!("+{binder}"));
                binder.name() != "skipped"
            }
            fn exit(&mut self, binder: &Sym) {
                self.0.push(format!("-{binder}"));
            }
        }
        let alloc = |name: &str| Stmt::Alloc {
            name: Sym::new(name),
            ty: crate::DataType::F32,
            dims: vec![],
            mem: crate::Mem::Dram,
        };
        let block = Block::from_stmts(vec![
            alloc("a"),
            Stmt::For {
                iter: Sym::new("i"),
                lo: ib(0),
                hi: ib(4),
                body: Block::from_stmts(vec![alloc("b"), Stmt::Pass]),
                parallel: false,
            },
            alloc("skipped"),
            alloc("unreached"),
        ]);
        let mut scopes = Scopes::default();
        walk_stmts(&mut scopes, &block);
        assert_eq!(scopes.0, ["+a", "+i", "+b", "-b", "-i", "+skipped", "-a"]);
    }
}
