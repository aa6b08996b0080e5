//! Rewriting every use of one buffer name inside its scope.
//!
//! The buffer primitives, `inline_window` and `inline` all replace the
//! uses of a name — an allocation, a window alias, a callee's formal —
//! that is about to change shape or disappear. [`rewrite_uses`] is their
//! one client of [`exo_ir::VisitMut`]: it finds every use, at every
//! expression position, stops where the name is re-bound, and hands each
//! use to a closure that either rewrites it or refuses.

use crate::error::SchedError;
use crate::helpers::sibling;
use crate::Result;
use exo_cursors::Rewrite;
use exo_ir::{
    ib, resolve_container, walk_expr_mut, walk_stmt_mut, walk_stmts_mut, Block, Expr, Step, Stmt,
    Sym, Visit, VisitMut, WAccess,
};

/// One use of the buffer being rewritten.
pub(crate) enum Use<'a> {
    /// `buf[idx...]`: a read, or the destination of an assign / reduce.
    Index(&'a mut Sym, &'a mut Vec<Expr>),
    /// `buf[lo:hi, p]`: a window expression.
    Window(&'a mut Sym, &'a mut Vec<WAccess>),
    /// The bare name (a whole-buffer argument or a scalar read) or
    /// `stride(buf, d)`; the closure may replace the whole expression.
    Name(&'a mut Expr),
}

struct Uses<'a, F> {
    buf: &'a Sym,
    f: F,
    result: Result<()>,
}

impl<F: FnMut(Use<'_>) -> Result<()>> Uses<'_, F> {
    fn found(&mut self, u: Use<'_>) {
        if self.result.is_ok() {
            self.result = (self.f)(u);
        }
    }
}

impl<F: FnMut(Use<'_>) -> Result<()>> VisitMut for Uses<'_, F> {
    fn visit_expr(&mut self, e: &mut Expr) {
        walk_expr_mut(self, e);
        match e {
            Expr::Read { buf, idx } if buf == self.buf => self.found(Use::Index(buf, idx)),
            Expr::Window { buf, idx } if buf == self.buf => self.found(Use::Window(buf, idx)),
            Expr::Var(s) | Expr::Stride { buf: s, .. } if s == self.buf => self.found(Use::Name(e)),
            _ => {}
        }
    }

    fn visit_stmt(&mut self, s: &mut Stmt) {
        walk_stmt_mut(self, s);
        if let Stmt::Assign { buf, idx, .. } | Stmt::Reduce { buf, idx, .. } = s {
            if buf == self.buf {
                self.found(Use::Index(buf, idx));
            }
        }
    }

    fn enter(&mut self, binder: &Sym) -> bool {
        binder != self.buf
    }
}

/// What [`rewrite_uses`] walks: one statement, or the statements of a
/// block in order (a later sibling that re-binds the name ends the walk).
pub(crate) trait Scope {
    fn walk(&mut self, v: &mut impl VisitMut);
}

impl Scope for Stmt {
    fn walk(&mut self, v: &mut impl VisitMut) {
        v.visit_stmt(self);
    }
}

impl Scope for Block {
    fn walk(&mut self, v: &mut impl VisitMut) {
        walk_stmts_mut(v, self);
    }
}

/// Hands every use of `buf` in `scope` to `f`, innermost first, skipping
/// any nested scope that re-binds `buf`. The first refusal is returned
/// (the statements are then partly rewritten, so the caller must drop its
/// edit session).
pub(crate) fn rewrite_uses(
    scope: &mut impl Scope,
    buf: &Sym,
    f: impl FnMut(Use<'_>) -> Result<()>,
) -> Result<()> {
    let mut uses = Uses {
        buf,
        f,
        result: Ok(()),
    };
    scope.walk(&mut uses);
    uses.result
}

/// [`Rewrite::modify_stmt`] with a closure that may refuse.
pub(crate) fn try_modify_stmt(
    rw: &mut Rewrite,
    at: &[Step],
    f: impl FnOnce(&mut Stmt) -> Result<()>,
) -> Result<()> {
    let mut outcome = Ok(());
    rw.modify_stmt(at, |s| outcome = f(s))?;
    outcome
}

/// Applies `f`, via statement-local edits, to every statement in the scope
/// of the `name` bound by the `width` statements at `binder` that mentions
/// `name`: the later statements of that block, up to one that binds `name`
/// again. `f` must leave a statement that does not mention `name`
/// unchanged; such a statement is not visited, so it stays shared with the
/// version the edit started from.
pub(crate) fn for_scope_after(
    rw: &mut Rewrite,
    binder: &[Step],
    width: usize,
    name: &Sym,
    mut f: impl FnMut(&mut Stmt) -> Result<()>,
) -> Result<()> {
    let (block, at) = resolve_container(rw.proc(), binder)
        .ok_or_else(|| SchedError::scheduling(format!("scope of `{name}` no longer resolves")))?;
    let users: Vec<usize> = (at + width..block.len())
        .filter(|&i| mentions(&block[i], name))
        .collect();
    let mut path = sibling(binder, at)?;
    let last = path.len() - 1;
    for i in users {
        path[last] = path[last].with_index(i);
        let mut rebound = false;
        try_modify_stmt(rw, &path, |s| {
            rebound = matches!(
                s,
                Stmt::Alloc { name: n, .. } | Stmt::WindowStmt { name: n, .. } if n == name
            );
            f(s)
        })?;
        if rebound {
            break;
        }
    }
    Ok(())
}

/// Whether `name` occurs anywhere in `stmt`, binding sites included.
fn mentions(stmt: &Stmt, name: &Sym) -> bool {
    struct Mentions<'a>(&'a Sym, bool);
    impl Visit<'_> for Mentions<'_> {
        fn visit_sym(&mut self, sym: &Sym) {
            self.1 |= sym == self.0;
        }
    }
    let mut m = Mentions(name, false);
    m.visit_stmt(stmt);
    m.1
}

/// Replaces every use of the window `alias = buf[spec]` in `scope` by the
/// equivalent use of `buf`: point dimensions of `spec` are re-inserted and
/// interval dimensions offset. Shared by `inline_window` (a window
/// statement) and `inline` (a window argument bound to a tensor formal).
pub(crate) fn inline_window_uses(
    scope: &mut impl Scope,
    alias: &Sym,
    buf: &Sym,
    spec: &[WAccess],
) -> Result<()> {
    // The dimensions of `buf` the alias keeps, with their positions in `buf`.
    let intervals = || {
        spec.iter()
            .enumerate()
            .filter(|(_, w)| matches!(w, WAccess::Interval(..)))
    };
    rewrite_uses(scope, alias, |u| {
        match u {
            Use::Index(name, idx) => {
                *name = buf.clone();
                let mut local = std::mem::take(idx).into_iter();
                *idx = spec
                    .iter()
                    .map(|w| match w {
                        WAccess::Point(e) => e.clone(),
                        WAccess::Interval(lo, _) => lo.clone() + local.next().unwrap_or(ib(0)),
                    })
                    .collect();
            }
            Use::Window(name, widx) => {
                *name = buf.clone();
                let mut local = std::mem::take(widx).into_iter();
                *widx = spec
                    .iter()
                    .map(|w| match w {
                        WAccess::Point(e) => WAccess::Point(e.clone()),
                        WAccess::Interval(lo, hi) => match local.next() {
                            Some(WAccess::Point(p)) => WAccess::Point(lo.clone() + p),
                            Some(WAccess::Interval(a, b)) => {
                                WAccess::Interval(lo.clone() + a, lo.clone() + b)
                            }
                            None => WAccess::Interval(lo.clone(), hi.clone()),
                        },
                    })
                    .collect();
            }
            Use::Name(e) => {
                *e = match e {
                    Expr::Stride { dim, .. } => match intervals().nth(*dim) {
                        Some((dim, _)) => Expr::Stride {
                            buf: buf.clone(),
                            dim,
                        },
                        None => {
                            return Err(SchedError::scheduling(format!(
                                "`{e}` names a dimension the window `{alias}` does not have"
                            )))
                        }
                    },
                    // A window with no interval left is a single element.
                    _ if intervals().next().is_none() => Expr::Read {
                        buf: buf.clone(),
                        idx: spec
                            .iter()
                            .map(|w| match w {
                                WAccess::Point(e) | WAccess::Interval(e, _) => e.clone(),
                            })
                            .collect(),
                    },
                    _ => Expr::Window {
                        buf: buf.clone(),
                        idx: spec.to_vec(),
                    },
                };
            }
        }
        Ok(())
    })
}
