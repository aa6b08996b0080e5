//! Path-based navigation into a procedure's AST.
//!
//! The cursor mechanism of the paper (§5.2) represents the *spatial
//! coordinate* of a cursor as a downward path through the AST: each step
//! selects a labeled child and, when the child is a statement list, an
//! index into it. This module provides that path representation for
//! statements ([`Step`]) and expressions ([`ExprStep`]) together with
//! resolution and mutation helpers. Versioning, forwarding, and the public
//! cursor API live in `exo-cursors`.

use crate::expr::{Expr, WAccess};
use crate::proc::Proc;
use crate::stmt::{Block, Stmt};

/// One downward step selecting a statement.
///
/// At the root, `Body(i)` selects the `i`-th statement of the procedure
/// body. Below a `for` loop or the then-branch of an `if`, `Body(i)`
/// selects the `i`-th statement of that block; `Else(i)` selects the
/// `i`-th statement of an `if`'s else-branch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Step {
    /// Index into a procedure body, loop body, or `if` then-branch.
    Body(usize),
    /// Index into an `if` else-branch.
    Else(usize),
}

impl Step {
    /// The index within the selected block.
    pub fn index(self) -> usize {
        match self {
            Step::Body(i) | Step::Else(i) => i,
        }
    }

    /// The same step with a different index.
    pub fn with_index(self, i: usize) -> Step {
        match self {
            Step::Body(_) => Step::Body(i),
            Step::Else(_) => Step::Else(i),
        }
    }
}

/// One downward step selecting an expression inside a statement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExprStep {
    /// The right-hand side of an assign / reduce / window statement, or the
    /// value of a `write_config`.
    Rhs,
    /// The condition of an `if`.
    Cond,
    /// The lower bound of a `for`.
    Lo,
    /// The upper bound of a `for`.
    Hi,
    /// The `i`-th index expression of an assign / reduce destination.
    Idx(usize),
    /// The `i`-th dimension expression of an alloc.
    Dim(usize),
    /// The left operand of a binary expression.
    BinLhs,
    /// The right operand of a binary expression.
    BinRhs,
    /// The operand of a unary expression.
    UnArg,
    /// The `i`-th argument of a call.
    CallArg(usize),
    /// The `i`-th index expression inside a buffer-read expression.
    ReadIdx(usize),
}

/// A reference to a resolved AST node.
#[derive(Clone, Copy, Debug)]
pub enum NodeRef<'a> {
    /// A statement.
    Stmt(&'a Stmt),
    /// An expression.
    Expr(&'a Expr),
    /// A statement block.
    Block(&'a Block),
}

/// Resolves a statement path against a procedure.
pub fn resolve_stmt<'a>(proc: &'a Proc, path: &[Step]) -> Option<&'a Stmt> {
    let (first, rest) = path.split_first()?;
    let mut stmt = match first {
        Step::Body(i) => proc.body().get(*i)?,
        Step::Else(_) => return None,
    };
    for step in rest {
        stmt = child_stmt(stmt, *step)?;
    }
    Some(stmt)
}

/// Resolves a statement path against a procedure, mutably.
///
/// Blocks and their statements are structurally shared ([`Block`] is
/// copy-on-write), so walking down mutably un-shares exactly the blocks
/// and statements on the path from the root to the target — the O(depth)
/// "spine" — while every sibling statement stays shared with other
/// procedure versions.
pub fn resolve_stmt_mut<'a>(proc: &'a mut Proc, path: &[Step]) -> Option<&'a mut Stmt> {
    let (first, rest) = path.split_first()?;
    let mut stmt = match first {
        Step::Body(i) => proc.body_mut().stmt_mut(*i)?,
        Step::Else(_) => return None,
    };
    for step in rest {
        stmt = child_stmt_mut(stmt, *step)?;
    }
    Some(stmt)
}

fn child_stmt(stmt: &Stmt, step: Step) -> Option<&Stmt> {
    match (stmt, step) {
        (Stmt::For { body, .. }, Step::Body(i)) => body.get(i),
        (Stmt::If { then_body, .. }, Step::Body(i)) => then_body.get(i),
        (Stmt::If { else_body, .. }, Step::Else(i)) => else_body.get(i),
        _ => None,
    }
}

fn child_stmt_mut(stmt: &mut Stmt, step: Step) -> Option<&mut Stmt> {
    match (stmt, step) {
        (Stmt::For { body, .. }, Step::Body(i)) => body.stmt_mut(i),
        (Stmt::If { then_body, .. }, Step::Body(i)) => then_body.stmt_mut(i),
        (Stmt::If { else_body, .. }, Step::Else(i)) => else_body.stmt_mut(i),
        _ => None,
    }
}

/// Resolves the block *containing* the statement addressed by `path`,
/// returning the block and the index of the statement within it.
///
/// The index may equal the block length when `path` addresses a gap at the
/// end of the block (the statement itself then does not exist).
pub fn resolve_container<'a>(proc: &'a Proc, path: &[Step]) -> Option<(&'a Block, usize)> {
    let (last, parents) = path.split_last()?;
    if parents.is_empty() {
        return Some((proc.body(), last.index()));
    }
    let parent = resolve_stmt(proc, parents)?;
    let block = match (parent, last) {
        (Stmt::For { body, .. }, Step::Body(_)) => body,
        (Stmt::If { then_body, .. }, Step::Body(_)) => then_body,
        (Stmt::If { else_body, .. }, Step::Else(_)) => else_body,
        _ => return None,
    };
    Some((block, last.index()))
}

/// Mutable variant of [`resolve_container`].
pub fn resolve_container_mut<'a>(
    proc: &'a mut Proc,
    path: &[Step],
) -> Option<(&'a mut Block, usize)> {
    let (last, parents) = path.split_last()?;
    if parents.is_empty() {
        return Some((proc.body_mut(), last.index()));
    }
    let parent = resolve_stmt_mut(proc, parents)?;
    let block = match (parent, last) {
        (Stmt::For { body, .. }, Step::Body(_)) => body,
        (Stmt::If { then_body, .. }, Step::Body(_)) => then_body,
        (Stmt::If { else_body, .. }, Step::Else(_)) => else_body,
        _ => return None,
    };
    Some((block, last.index()))
}

/// Resolves a block path: the empty path is the procedure body, otherwise
/// the path addresses a statement and this returns its *first* child block
/// (`for` body / `if` then-branch).
pub fn resolve_block<'a>(proc: &'a Proc, path: &[Step]) -> Option<&'a Block> {
    if path.is_empty() {
        return Some(proc.body());
    }
    match resolve_stmt(proc, path)? {
        Stmt::For { body, .. } => Some(body),
        Stmt::If { then_body, .. } => Some(then_body),
        _ => None,
    }
}

/// Mutable variant of [`resolve_block`].
pub fn resolve_block_mut<'a>(proc: &'a mut Proc, path: &[Step]) -> Option<&'a mut Block> {
    if path.is_empty() {
        return Some(proc.body_mut());
    }
    match resolve_stmt_mut(proc, path)? {
        Stmt::For { body, .. } => Some(body),
        Stmt::If { then_body, .. } => Some(then_body),
        _ => None,
    }
}

/// Resolves an expression within the statement at `stmt_path` by following
/// `expr_steps`.
pub fn resolve_expr<'a>(
    proc: &'a Proc,
    stmt_path: &[Step],
    expr_steps: &[ExprStep],
) -> Option<&'a Expr> {
    let stmt = resolve_stmt(proc, stmt_path)?;
    let (first, rest) = expr_steps.split_first()?;
    let mut expr = stmt_expr(stmt, *first)?;
    for step in rest {
        expr = child_expr(expr, *step)?;
    }
    Some(expr)
}

fn stmt_expr(stmt: &Stmt, step: ExprStep) -> Option<&Expr> {
    match (stmt, step) {
        (Stmt::Assign { rhs, .. }, ExprStep::Rhs)
        | (Stmt::Reduce { rhs, .. }, ExprStep::Rhs)
        | (Stmt::WindowStmt { rhs, .. }, ExprStep::Rhs)
        | (Stmt::WriteConfig { value: rhs, .. }, ExprStep::Rhs) => Some(rhs),
        (Stmt::Assign { idx, .. }, ExprStep::Idx(i))
        | (Stmt::Reduce { idx, .. }, ExprStep::Idx(i)) => idx.get(i),
        (Stmt::Alloc { dims, .. }, ExprStep::Dim(i)) => dims.get(i),
        (Stmt::For { lo, .. }, ExprStep::Lo) => Some(lo),
        (Stmt::For { hi, .. }, ExprStep::Hi) => Some(hi),
        (Stmt::If { cond, .. }, ExprStep::Cond) => Some(cond),
        (Stmt::Call { args, .. }, ExprStep::CallArg(i)) => args.get(i),
        _ => None,
    }
}

fn child_expr(expr: &Expr, step: ExprStep) -> Option<&Expr> {
    match (expr, step) {
        (Expr::Bin { lhs, .. }, ExprStep::BinLhs) => Some(lhs),
        (Expr::Bin { rhs, .. }, ExprStep::BinRhs) => Some(rhs),
        (Expr::Un { arg, .. }, ExprStep::UnArg) => Some(arg),
        (Expr::Read { idx, .. }, ExprStep::ReadIdx(i)) => idx.get(i),
        (Expr::Window { idx, .. }, ExprStep::ReadIdx(i)) => idx.get(i).map(|w| match w {
            WAccess::Point(e) => e,
            WAccess::Interval(lo, _) => lo,
        }),
        _ => None,
    }
}

/// Walks every statement of the procedure in pre-order, calling `f` with
/// the statement's path and the statement itself.
pub fn for_each_stmt_paths(proc: &Proc, f: &mut impl FnMut(&[Step], &Stmt)) {
    for_each_stmt_paths_until(proc, &mut |path, stmt| {
        f(path, stmt);
        false
    });
}

/// Pre-order walk that stops as soon as `f` returns `true`. Returns
/// whether the walk was stopped early.
///
/// This is the engine behind early-exit `find`: locating the first (or
/// `#k`-th) match visits only the statements up to the match instead of
/// the whole procedure.
pub fn for_each_stmt_paths_until(proc: &Proc, f: &mut impl FnMut(&[Step], &Stmt) -> bool) -> bool {
    let mut prefix = Vec::new();
    walk_block_until(proc.body(), &mut prefix, Step::Body, f)
}

/// Pre-order walk of the sub-AST rooted at `root` (the root statement
/// included), with full paths from the procedure root and the same
/// early-exit contract as [`for_each_stmt_paths_until`]. Visits nothing if
/// `root` does not resolve.
///
/// A subtree-restricted find visits only the subtree this way, instead of
/// scanning the whole procedure and filtering by path prefix.
pub fn for_each_stmt_paths_under(
    proc: &Proc,
    root: &[Step],
    f: &mut impl FnMut(&[Step], &Stmt) -> bool,
) -> bool {
    let Some(stmt) = resolve_stmt(proc, root) else {
        return false;
    };
    let mut prefix = root.to_vec();
    walk_stmt_until(stmt, &mut prefix, f)
}

fn walk_stmt_until(
    stmt: &Stmt,
    prefix: &mut Vec<Step>,
    f: &mut impl FnMut(&[Step], &Stmt) -> bool,
) -> bool {
    f(prefix, stmt)
        || match stmt {
            Stmt::For { body, .. } => walk_block_until(body, prefix, Step::Body, f),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                walk_block_until(then_body, prefix, Step::Body, f)
                    || walk_block_until(else_body, prefix, Step::Else, f)
            }
            _ => false,
        }
}

fn walk_block_until(
    block: &Block,
    prefix: &mut Vec<Step>,
    make: fn(usize) -> Step,
    f: &mut impl FnMut(&[Step], &Stmt) -> bool,
) -> bool {
    for (i, stmt) in block.iter().enumerate() {
        prefix.push(make(i));
        let stop = walk_stmt_until(stmt, prefix, f);
        prefix.pop();
        if stop {
            return true;
        }
    }
    false
}

/// Replaces the statements `[at, at + removed)` of the block addressed by
/// `container_path_of(path)` with `new_stmts`, where `path` addresses a
/// statement position. Returns `false` (and leaves the procedure
/// unchanged) if the path does not resolve or the range is out of bounds.
pub fn splice_at(proc: &mut Proc, path: &[Step], removed: usize, new_stmts: Vec<Stmt>) -> bool {
    let Some((block, idx)) = resolve_container_mut(proc, path) else {
        return false;
    };
    if idx + removed > block.len() {
        return false;
    }
    block.splice(idx..idx + removed, new_stmts);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::expr::{ib, read, var};
    use crate::types::{DataType, Mem};

    fn nested() -> Proc {
        ProcBuilder::new("p")
            .size_arg("n")
            .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.assign("y", vec![var("i")], ib(0).into_float());
                b.for_("j", ib(0), ib(4), |b| {
                    b.reduce("y", vec![var("i")], read("y", vec![var("i")]));
                });
            })
            .build()
    }

    trait IntoFloat {
        fn into_float(self) -> Expr;
    }
    impl IntoFloat for Expr {
        fn into_float(self) -> Expr {
            match self {
                Expr::Int(v) => Expr::Float(v as f64),
                other => other,
            }
        }
    }

    #[test]
    fn resolve_statement_paths() {
        let p = nested();
        let outer = resolve_stmt(&p, &[Step::Body(0)]).unwrap();
        assert!(outer.is_for());
        let assign = resolve_stmt(&p, &[Step::Body(0), Step::Body(0)]).unwrap();
        assert_eq!(assign.kind(), "assign");
        let inner_for = resolve_stmt(&p, &[Step::Body(0), Step::Body(1)]).unwrap();
        assert_eq!(inner_for.loop_iter().unwrap().name(), "j");
        let reduce = resolve_stmt(&p, &[Step::Body(0), Step::Body(1), Step::Body(0)]).unwrap();
        assert_eq!(reduce.kind(), "reduce");
        assert!(resolve_stmt(&p, &[Step::Body(3)]).is_none());
        assert!(resolve_stmt(&p, &[Step::Body(0), Step::Else(0)]).is_none());
    }

    #[test]
    fn resolve_containers() {
        let p = nested();
        let (block, idx) = resolve_container(&p, &[Step::Body(0), Step::Body(1)]).unwrap();
        assert_eq!(block.len(), 2);
        assert_eq!(idx, 1);
        let (root, idx0) = resolve_container(&p, &[Step::Body(0)]).unwrap();
        assert_eq!(root.len(), 1);
        assert_eq!(idx0, 0);
    }

    #[test]
    fn resolve_expressions() {
        let p = nested();
        let hi = resolve_expr(&p, &[Step::Body(0)], &[ExprStep::Hi]).unwrap();
        assert_eq!(hi, &var("n"));
        let rhs = resolve_expr(
            &p,
            &[Step::Body(0), Step::Body(1), Step::Body(0)],
            &[ExprStep::Rhs],
        )
        .unwrap();
        assert!(matches!(rhs, Expr::Read { .. }));
    }

    #[test]
    fn splice_replaces_statements() {
        let mut p = nested();
        let ok = splice_at(
            &mut p,
            &[Step::Body(0), Step::Body(0)],
            1,
            vec![Stmt::Pass, Stmt::Pass],
        );
        assert!(ok);
        let (block, _) = resolve_container(&p, &[Step::Body(0), Step::Body(0)]).unwrap();
        assert_eq!(block.len(), 3);
        assert_eq!(block[0].kind(), "pass");
    }

    #[test]
    fn splice_out_of_bounds_is_rejected() {
        let mut p = nested();
        let before = p.clone();
        assert!(!splice_at(
            &mut p,
            &[Step::Body(0), Step::Body(5)],
            1,
            vec![Stmt::Pass]
        ));
        assert_eq!(p, before);
    }
}
