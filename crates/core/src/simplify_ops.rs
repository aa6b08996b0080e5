//! Simplification primitives (paper Appendix A.6).

use crate::error::SchedError;
use crate::helpers::{index_in_block, stmt_path_of, IntoCursor};
use crate::uses::{for_scope_after, inline_window_uses};
use crate::{stats, Result};
use exo_analysis::{provably_equal, simplify_expr, simplify_predicate, Context};
use exo_cursors::{Cursor, CursorPath, ProcHandle, Rewrite};
use exo_ir::{resolve_container, walk_expr_mut, Block, Expr, Step, Stmt, Sym, Visit, VisitMut};
use std::sync::Arc;

/// Simplifies every expression position under the facts in force there:
/// the context it starts with plus the range of each enclosing loop. It
/// builds a new statement only where simplification changes something, so
/// every statement it leaves as it was stays shared with the version it
/// came from.
struct Simplifier {
    ctx: Context,
}

impl Simplifier {
    /// `s` simplified, or `None` when simplification leaves it as it is.
    fn stmt(&mut self, s: &Stmt) -> Option<Stmt> {
        match s {
            Stmt::For {
                iter,
                lo,
                hi,
                body,
                parallel,
            } => {
                let new_lo = simplify_expr(lo, &self.ctx);
                let new_hi = simplify_expr(hi, &self.ctx);
                let mut inner = self.ctx.clone();
                inner.push_iter(iter.clone(), new_lo.clone(), new_hi.clone());
                let outer = std::mem::replace(&mut self.ctx, inner);
                let new_body = self.block(body);
                self.ctx = outer;
                (new_body.is_some() || new_lo != *lo || new_hi != *hi).then(|| Stmt::For {
                    iter: iter.clone(),
                    lo: new_lo,
                    hi: new_hi,
                    body: new_body.unwrap_or_else(|| body.clone()),
                    parallel: *parallel,
                })
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let new_cond = simplify_expr(cond, &self.ctx);
                let new_then = self.block(then_body);
                let new_else = self.block(else_body);
                (new_then.is_some() || new_else.is_some() || new_cond != *cond).then(|| Stmt::If {
                    cond: new_cond,
                    then_body: new_then.unwrap_or_else(|| then_body.clone()),
                    else_body: new_else.unwrap_or_else(|| else_body.clone()),
                })
            }
            leaf => {
                let mut found = Simplified {
                    ctx: &self.ctx,
                    exprs: Vec::new(),
                    changed: false,
                };
                found.visit_stmt(leaf);
                found.changed.then(|| {
                    let mut out = leaf.clone();
                    Place(found.exprs.into_iter()).visit_stmt(&mut out);
                    out
                })
            }
        }
    }

    /// `block` simplified, or `None` when none of its statements changes.
    fn block(&mut self, block: &Block) -> Option<Block> {
        let mut out: Option<Block> = None;
        for (i, s) in block.iter().enumerate() {
            if let Some(new) = self.stmt(s) {
                out.get_or_insert_with(|| block.clone())
                    .splice(i..i + 1, [new]);
            }
        }
        out
    }
}

/// The simplified form of each expression position of a statement without
/// child blocks, in visiting order, and whether any of them differs.
struct Simplified<'c> {
    ctx: &'c Context,
    exprs: Vec<Expr>,
    changed: bool,
}

impl Visit<'_> for Simplified<'_> {
    // `simplify_expr` rewrites the whole tree itself; no descent here.
    fn visit_expr(&mut self, e: &Expr) {
        let simplified = simplify_expr(e, self.ctx);
        self.changed |= simplified != *e;
        self.exprs.push(simplified);
    }
}

/// Writes [`Simplified`]'s expressions back, in the same visiting order.
struct Place(std::vec::IntoIter<Expr>);

impl VisitMut for Place {
    fn visit_expr(&mut self, e: &mut Expr) {
        if let Some(simplified) = self.0.next() {
            *e = simplified;
        }
    }
}

/// Arithmetic simplification over the entire procedure (paper: `simplify`).
///
/// Simplification is expression-level and structure-preserving, so every
/// existing cursor remains valid. Use [`eliminate_dead_code`] to remove
/// provably dead branches and empty loops.
pub fn simplify(p: &ProcHandle) -> Result<ProcHandle> {
    let mut simplifier = Simplifier {
        ctx: Context::from_proc(p.proc()),
    };
    let mut rw = Rewrite::new(p);
    for (i, s) in p.proc().body().iter().enumerate() {
        if let Some(new) = simplifier.stmt(s) {
            rw.modify_stmt(&[Step::Body(i)], |s| *s = new)?;
        }
    }
    stats::record("simplify");
    Ok(rw.commit())
}

/// [`simplify`] restricted to the sub-AST rooted at `scope`. The same
/// expression-level rewrite is applied to that statement's subtree — under
/// the context a whole-procedure [`simplify`] would have accumulated on
/// arrival there (procedure assertions *plus* enclosing-loop iterator
/// ranges, via [`Context::at`]) — while the rest of the procedure is
/// untouched. Scheduling libraries use this to clean up the region they
/// transformed without rewriting — or paying for — unrelated code.
pub fn simplify_at(p: &ProcHandle, scope: impl IntoCursor) -> Result<ProcHandle> {
    let c = scope.into_cursor(p)?;
    let path = stmt_path_of(&c)?;
    let ctx = Context::at(p.proc(), &path);
    let mut rw = Rewrite::new(p);
    if let Some(new) = (Simplifier { ctx }).stmt(c.stmt()?) {
        rw.modify_stmt(&path, |s| *s = new)?;
    }
    stats::record("simplify");
    Ok(rw.commit())
}

/// Removes provably dead code at the cursor (paper: `eliminate_dead_code`):
/// a loop whose range is provably empty becomes `pass`; an `if` whose
/// condition is decidable is replaced by the taken branch.
pub fn eliminate_dead_code(p: &ProcHandle, scope: impl IntoCursor) -> Result<ProcHandle> {
    let c = scope.into_cursor(p)?;
    let path = stmt_path_of(&c)?;
    let ctx = Context::at(p.proc(), &path);
    let replacement = match c.stmt()? {
        Stmt::For { lo, hi, .. } => {
            let diff = Expr::bin(exo_ir::BinOp::Le, hi.clone(), lo.clone());
            match simplify_predicate(&diff, &ctx) {
                Some(true) => vec![Arc::new(Stmt::Pass)],
                _ => {
                    return Err(SchedError::scheduling(format!(
                        "cannot prove the loop over [{lo}, {hi}) is empty"
                    )))
                }
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => match simplify_predicate(cond, &ctx) {
            Some(true) => {
                if then_body.is_empty() {
                    vec![Arc::new(Stmt::Pass)]
                } else {
                    then_body.stmts().to_vec()
                }
            }
            Some(false) => {
                if else_body.is_empty() {
                    vec![Arc::new(Stmt::Pass)]
                } else {
                    else_body.stmts().to_vec()
                }
            }
            None => {
                return Err(SchedError::scheduling(format!(
                    "cannot decide the branch condition `{cond}`"
                )))
            }
        },
        other => {
            return Err(SchedError::scheduling(format!(
                "eliminate_dead_code requires a loop or if, found `{}`",
                other.kind()
            )))
        }
    };
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 1, replacement)?;
    stats::record("eliminate_dead_code");
    Ok(rw.commit())
}

/// Replaces the expression at the cursor with an equivalent expression
/// (paper: `rewrite_expr`). The equivalence must be provable by the affine
/// engine.
pub fn rewrite_expr(p: &ProcHandle, expr: &Cursor, new: Expr) -> Result<ProcHandle> {
    let c = p.forward(expr)?;
    let CursorPath::Node { stmt, expr: steps } = c.path().clone() else {
        return Err(SchedError::scheduling(
            "rewrite_expr requires an expression cursor",
        ));
    };
    if steps.is_empty() {
        return Err(SchedError::scheduling(
            "rewrite_expr requires an expression cursor",
        ));
    }
    let old = c.expr()?.clone();
    let ctx = Context::at(p.proc(), &stmt);
    let old_s = simplify_expr(&old, &ctx);
    let new_s = simplify_expr(&new, &ctx);
    if !(provably_equal(&old_s, &new_s) || old_s == new_s) {
        return Err(SchedError::scheduling(format!(
            "cannot prove `{old}` equal to `{new}`"
        )));
    }
    let mut rw = Rewrite::new(p);
    let mut replaced = false;
    rw.modify_stmt(&stmt, |s| {
        replaced = crate::rearrange::modify_expr_in_stmt(s, &steps, |e| *e = new.clone());
    })?;
    if !replaced {
        return Err(SchedError::scheduling("expression path no longer resolves"));
    }
    stats::record("rewrite_expr");
    Ok(rw.commit())
}

/// Merges two consecutive writes to the same destination into one
/// (paper: `merge_writes`). The cursor addresses the first write.
pub fn merge_writes(p: &ProcHandle, first: impl IntoCursor) -> Result<ProcHandle> {
    let c = first.into_cursor(p)?;
    let path = stmt_path_of(&c)?;
    let s1 = c.stmt()?.clone();
    let s2 = c
        .next()
        .map_err(|_| SchedError::scheduling("merge_writes: no following statement"))?
        .stmt()?
        .clone();
    let (buf1, idx1, _) = write_parts(&s1)?;
    let (buf2, idx2, rhs2) = write_parts(&s2)?;
    if buf1 != buf2
        || idx1.len() != idx2.len()
        || !idx1
            .iter()
            .zip(idx2.iter())
            .all(|(a, b)| provably_equal(a, b))
    {
        return Err(SchedError::scheduling(
            "merge_writes requires writes to the same destination",
        ));
    }
    let rhs2_reads_dest = rhs2.mentions(&buf1);
    let merged = match (&s1, &s2) {
        // x = e1; x = e2   =>  x = e2       (e2 must not read x)
        (Stmt::Assign { .. }, Stmt::Assign { .. }) => {
            if rhs2_reads_dest {
                return Err(SchedError::scheduling("second write reads the destination"));
            }
            s2.clone()
        }
        // x += e1; x = e2  =>  x = e2       (e2 must not read x)
        (Stmt::Reduce { .. }, Stmt::Assign { .. }) => {
            if rhs2_reads_dest {
                return Err(SchedError::scheduling("second write reads the destination"));
            }
            s2.clone()
        }
        // x = e1; x += e2  =>  x = e1 + e2  (e2 must not read x)
        (Stmt::Assign { buf, idx, rhs: e1 }, Stmt::Reduce { rhs: e2, .. }) => {
            if rhs2_reads_dest {
                return Err(SchedError::scheduling("second write reads the destination"));
            }
            Stmt::Assign {
                buf: buf.clone(),
                idx: idx.clone(),
                rhs: e1.clone() + e2.clone(),
            }
        }
        // x += e1; x += e2 => x += e1 + e2
        (Stmt::Reduce { buf, idx, rhs: e1 }, Stmt::Reduce { rhs: e2, .. }) => {
            if rhs2_reads_dest {
                return Err(SchedError::scheduling("second write reads the destination"));
            }
            Stmt::Reduce {
                buf: buf.clone(),
                idx: idx.clone(),
                rhs: e1.clone() + e2.clone(),
            }
        }
        _ => {
            return Err(SchedError::scheduling(
                "merge_writes requires two assign/reduce statements",
            ))
        }
    };
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 2, vec![merged])?;
    stats::record("merge_writes");
    Ok(rw.commit())
}

/// Destination buffer, destination indices and right-hand side of an
/// assign/reduce, in one exhaustive match — every other statement kind is
/// a typed scheduling error, so no downstream accessor can assume a shape
/// it did not itself check.
fn write_parts(s: &Stmt) -> Result<(Sym, Vec<Expr>, &Expr)> {
    match s {
        Stmt::Assign { buf, idx, rhs } | Stmt::Reduce { buf, idx, rhs } => {
            Ok((buf.clone(), idx.clone(), rhs))
        }
        other => Err(SchedError::scheduling(format!(
            "expected an assign or reduce, found `{}`",
            other.kind()
        ))),
    }
}

/// Inlines a window alias declaration, substituting the underlying buffer
/// (with the window offsets applied) into all later uses (paper:
/// `inline_window`).
pub fn inline_window(p: &ProcHandle, window: impl IntoCursor) -> Result<ProcHandle> {
    let c = window.into_cursor(p)?;
    let Stmt::WindowStmt { name, rhs } = c.stmt()?.clone() else {
        return Err(SchedError::scheduling(
            "inline_window requires a window statement",
        ));
    };
    let Expr::Window { buf, idx } = rhs else {
        return Err(SchedError::scheduling(
            "window statement has a malformed right-hand side",
        ));
    };
    let path = stmt_path_of(&c)?;
    let mut rw = Rewrite::new(p);
    for_scope_after(&mut rw, &path, 1, &name, |s| {
        inline_window_uses(s, &name, &buf, &idx)
    })?;
    rw.delete(&path, 1)?;
    stats::record("inline_window");
    Ok(rw.commit())
}

/// Substitutes a scalar assignment into all later statements of its block
/// and removes the assignment (paper: `inline_assign`).
pub fn inline_assign(p: &ProcHandle, assign: impl IntoCursor) -> Result<ProcHandle> {
    let c = assign.into_cursor(p)?;
    let Stmt::Assign { buf, idx, rhs } = c.stmt()?.clone() else {
        return Err(SchedError::scheduling(
            "inline_assign requires an assignment",
        ));
    };
    if !idx.is_empty() {
        return Err(SchedError::scheduling(
            "inline_assign requires a scalar destination",
        ));
    }
    let path = stmt_path_of(&c)?;
    let start = index_in_block(&path)?;
    // The destination must not be written again afterwards in its scope.
    let (block, _) = resolve_container(p.proc(), &path)
        .ok_or_else(|| SchedError::scheduling("scope no longer resolves"))?;
    for later in block.iter().skip(start + 1) {
        let eff = exo_analysis::Effects::of_stmt(later);
        if eff.buffers_written().contains(&buf) {
            return Err(SchedError::scheduling(format!(
                "`{buf}` is written again later; cannot inline the assignment"
            )));
        }
    }
    let mut inliner = InlineScalar {
        buf: &buf,
        value: &rhs,
        stuck: None,
    };
    let mut rw = Rewrite::new(p);
    for_scope_after(&mut rw, &path, 1, &buf, |s| {
        inliner.visit_stmt(s);
        Ok(())
    })?;
    if let Some(stuck) = inliner.stuck {
        return Err(SchedError::scheduling(format!(
            "cannot inline `{buf}` into `{stuck}`"
        )));
    }
    rw.delete(&path, 1)?;
    stats::record("inline_assign");
    Ok(rw.commit())
}

/// Replaces scalar reads of `buf` by `value`; a use that is not a scalar
/// read (a window or stride of `buf`) is reported in `stuck`.
struct InlineScalar<'a> {
    buf: &'a Sym,
    value: &'a Expr,
    stuck: Option<Expr>,
}

impl VisitMut for InlineScalar<'_> {
    fn visit_expr(&mut self, e: &mut Expr) {
        match e {
            Expr::Read { buf, idx } if buf == self.buf && idx.is_empty() => *e = self.value.clone(),
            Expr::Var(s) if s == self.buf => *e = self.value.clone(),
            Expr::Window { buf, .. } | Expr::Stride { buf, .. } if buf == self.buf => {
                self.stuck = Some(e.clone())
            }
            _ => walk_expr_mut(self, e),
        }
    }

    fn enter(&mut self, binder: &Sym) -> bool {
        binder != self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{fb, ib, read, var, DataType, Mem, ProcBuilder, WAccess};

    #[test]
    fn simplify_folds_index_arithmetic() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .assert_(Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)))
                .for_("io", ib(0), var("n") / ib(8), |b| {
                    b.for_("ii", ib(0), ib(8), |b| {
                        b.assign(
                            "x",
                            vec![
                                (ib(8) * var("io") + var("ii")) / ib(8) * ib(8)
                                    + (ib(8) * var("io") + var("ii")) % ib(8),
                            ],
                            fb(0.0) + fb(1.0) * fb(1.0),
                        );
                    });
                })
                .build(),
        );
        let p2 = simplify(&p).unwrap();
        let s = p2.to_string();
        assert!(
            s.contains("x[8 * io + ii]")
                || s.contains("x[ii + (8 * io)]")
                || s.contains("x[ii + 8 * io]"),
            "{s}"
        );
        assert!(s.contains("= 1.0"), "{s}");
    }

    #[test]
    fn simplify_leaves_the_statements_it_does_not_change_shared() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .with_body(|b| {
                    b.for_("i", ib(0), var("n"), |b| {
                        b.assign("x", vec![var("i")], fb(2.0));
                        b.assign("x", vec![var("i") + ib(0)], fb(1.0));
                    });
                    b.assign("x", vec![ib(0)], fb(3.0));
                })
                .build(),
        );
        let q = simplify(&p).unwrap();
        assert!(q.to_string().contains("x[i] = 1.0"), "{q}");
        let (old, new) = (p.proc().body(), q.proc().body());
        // The top-level assign is untouched, so is the loop's first
        // statement; the loop itself holds the one that changed.
        assert!(Arc::ptr_eq(&old.stmts()[1], &new.stmts()[1]));
        let body = |b: &Block| match &b[0] {
            Stmt::For { body, .. } => body.clone(),
            other => panic!("expected a loop, got {}", other.kind()),
        };
        assert!(Arc::ptr_eq(&body(old).stmts()[0], &body(new).stmts()[0]));
        assert!(!Arc::ptr_eq(&body(old).stmts()[1], &body(new).stmts()[1]));
        // Nothing left to simplify: the next version is the same tree.
        let r = simplify(&q).unwrap();
        assert!(r.proc().body().shares_storage_with(q.proc().body()));
    }

    #[test]
    fn eliminate_dead_code_removes_decided_branches() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .assert_(Expr::le(var("n"), ib(16)))
                .for_("i", ib(0), var("n"), |b| {
                    b.if_else(
                        Expr::lt(var("i"), ib(100)),
                        |t| {
                            t.assign("x", vec![var("i")], fb(1.0));
                        },
                        |e| {
                            e.assign("x", vec![var("i")], fb(2.0));
                        },
                    );
                })
                .build(),
        );
        let c = p.find("if _: _").unwrap();
        let p2 = eliminate_dead_code(&p, &c).unwrap();
        let s = p2.to_string();
        assert!(!s.contains("if"), "{s}");
        assert!(s.contains("x[i] = 1.0"), "{s}");
        assert!(!s.contains("x[i] = 2.0"), "{s}");
        // An undecidable branch is rejected.
        let p3 = ProcHandle::new(
            ProcBuilder::new("k")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .for_("i", ib(0), var("n"), |b| {
                    b.if_(Expr::lt(var("i"), var("n") / ib(2)), |t| {
                        t.assign("x", vec![var("i")], fb(1.0));
                    });
                })
                .build(),
        );
        let c = p3.find("if _: _").unwrap();
        assert!(eliminate_dead_code(&p3, &c).is_err());
        // An empty loop is removed.
        let p4 = ProcHandle::new(
            ProcBuilder::new("k")
                .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
                .for_("i", ib(0), ib(0), |b| {
                    b.assign("x", vec![var("i")], fb(1.0));
                })
                .build(),
        );
        let p5 = eliminate_dead_code(&p4, "i").unwrap();
        assert_eq!(p5.proc().body()[0].kind(), "pass");
    }

    #[test]
    fn rewrite_expr_requires_provable_equality() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .for_("i", ib(0), var("n"), |b| {
                    b.assign("x", vec![var("i") + var("i")], fb(1.0));
                })
                .build(),
        );
        let assign = p.find("x = _").unwrap();
        let idx_cursor = p.cursor_at(exo_cursors::CursorPath::Node {
            stmt: assign.path().stmt_path().unwrap().to_vec(),
            expr: vec![exo_ir::ExprStep::Idx(0)],
        });
        let p2 = rewrite_expr(&p, &idx_cursor, ib(2) * var("i")).unwrap();
        assert!(p2.to_string().contains("x[2 * i]"));
        assert!(rewrite_expr(&p, &idx_cursor, ib(3) * var("i")).is_err());
    }

    #[test]
    fn merge_writes_all_four_cases() {
        let build = |first: Stmt, second: Stmt| {
            ProcHandle::new(
                ProcBuilder::new("k")
                    .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
                    .scalar_arg("a", DataType::F32)
                    .scalar_arg("b", DataType::F32)
                    .stmt(first)
                    .stmt(second)
                    .build(),
            )
        };
        let assign = |rhs: Expr| Stmt::Assign {
            buf: Sym::new("x"),
            idx: vec![ib(0)],
            rhs,
        };
        let reduce = |rhs: Expr| Stmt::Reduce {
            buf: Sym::new("x"),
            idx: vec![ib(0)],
            rhs,
        };
        // assign; reduce -> assign(a + b)
        let p = build(assign(var("a")), reduce(var("b")));
        let p2 = merge_writes(&p, &p.body()[0]).unwrap();
        assert!(p2.to_string().contains("x[0] = a + b"));
        // reduce; reduce -> reduce(a + b)
        let p = build(reduce(var("a")), reduce(var("b")));
        let p2 = merge_writes(&p, &p.body()[0]).unwrap();
        assert!(p2.to_string().contains("x[0] += a + b"));
        // assign; assign -> second assign
        let p = build(assign(var("a")), assign(var("b")));
        let p2 = merge_writes(&p, &p.body()[0]).unwrap();
        assert!(p2.to_string().contains("x[0] = b"));
        assert!(!p2.to_string().contains("x[0] = a\n"));
        // reduce; assign -> assign
        let p = build(reduce(var("a")), assign(var("b")));
        let p2 = merge_writes(&p, &p.body()[0]).unwrap();
        assert_eq!(p2.proc().body().len(), 1);
        // Second write reading the destination is rejected.
        let p = build(assign(var("a")), assign(read("x", vec![ib(0)]) + var("b")));
        assert!(merge_writes(&p, &p.body()[0]).is_err());
    }

    #[test]
    fn merge_writes_rejects_non_write_statements_with_a_typed_error() {
        // Regression: the rhs accessor used to `unreachable!()` on
        // statement shapes other than assign/reduce; the whole operation
        // now reports a scheduling error naming the offending kind.
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
                .with_body(|b| {
                    b.pass();
                    b.assign("x", vec![ib(0)], fb(1.0));
                })
                .build(),
        );
        let err = merge_writes(&p, &p.body()[0]).expect_err("pass is not a write");
        assert!(
            err.to_string().contains("pass"),
            "error should name the statement kind: {err}"
        );
    }

    #[test]
    fn inline_assign_substitutes_scalar_temporaries() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .tensor_arg("y", DataType::F32, vec![ib(4)], Mem::Dram)
                .with_body(|b| {
                    b.alloc("t", DataType::F32, vec![], Mem::Dram);
                    b.assign("t", vec![], fb(3.0));
                    b.assign("y", vec![ib(0)], read("t", vec![]) * fb(2.0));
                })
                .build(),
        );
        let p2 = inline_assign(&p, "t = _").unwrap();
        let s = p2.to_string();
        assert!(
            s.contains("y[0] = 3.0 * 2.0") || s.contains("y[0] = 6.0"),
            "{s}"
        );
        assert!(!s.contains("t ="), "{s}");
    }

    #[test]
    fn inline_window_substitutes_alias_accesses() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .tensor_arg("A", DataType::F32, vec![ib(8), ib(8)], Mem::Dram)
                .tensor_arg("y", DataType::F32, vec![ib(4)], Mem::Dram)
                .with_body(|b| {
                    b.push(Stmt::WindowStmt {
                        name: Sym::new("w"),
                        rhs: Expr::Window {
                            buf: Sym::new("A"),
                            idx: vec![WAccess::Point(ib(2)), WAccess::Interval(ib(4), ib(8))],
                        },
                    });
                    b.for_("i", ib(0), ib(4), |b| {
                        b.assign("y", vec![var("i")], read("w", vec![var("i")]));
                    });
                })
                .build(),
        );
        let c = p.body()[0].clone();
        let p2 = inline_window(&p, &c).unwrap();
        let s = p2.to_string();
        assert!(s.contains("A[2, 4 + i]"), "{s}");
        assert!(!s.contains("w ="), "{s}");
    }
}
