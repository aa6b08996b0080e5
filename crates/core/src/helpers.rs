//! Shared helpers for scheduling primitives: cursor-or-pattern arguments,
//! loop destructuring, constant expectations.

use crate::error::SchedError;
use crate::Result;
use exo_cursors::{Cursor, ProcHandle};
use exo_ir::{Block, Expr, Step, Stmt, Sym};

/// Argument type accepted wherever a primitive takes a reference to object
/// code: a cursor (implicitly forwarded to the target procedure, as in the
/// paper), or a pattern / loop-name string resolved with `find`.
pub trait IntoCursor {
    /// Resolves the reference against `p`.
    fn into_cursor(self, p: &ProcHandle) -> Result<Cursor>;
}

impl IntoCursor for Cursor {
    fn into_cursor(self, p: &ProcHandle) -> Result<Cursor> {
        Ok(p.forward(&self)?)
    }
}

impl IntoCursor for &Cursor {
    fn into_cursor(self, p: &ProcHandle) -> Result<Cursor> {
        Ok(p.forward(self)?)
    }
}

impl IntoCursor for &str {
    fn into_cursor(self, p: &ProcHandle) -> Result<Cursor> {
        Ok(p.find(self)?)
    }
}

impl IntoCursor for &String {
    fn into_cursor(self, p: &ProcHandle) -> Result<Cursor> {
        Ok(p.find(self)?)
    }
}

impl IntoCursor for String {
    fn into_cursor(self, p: &ProcHandle) -> Result<Cursor> {
        Ok(p.find(&self)?)
    }
}

/// The statement path a cursor addresses; an error once the cursor has been
/// invalidated by an edit.
pub(crate) fn stmt_path_of(c: &Cursor) -> Result<Vec<Step>> {
    c.path()
        .stmt_path()
        .map(|p| p.to_vec())
        .ok_or_else(|| SchedError::scheduling("cursor was invalidated"))
}

/// The path of the statement at `index` in the block that holds `path`'s
/// statement.
pub(crate) fn sibling(path: &[Step], index: usize) -> Result<Vec<Step>> {
    let (last, parents) = path
        .split_last()
        .ok_or_else(|| SchedError::scheduling("empty statement path"))?;
    let mut out = parents.to_vec();
    out.push(last.with_index(index));
    Ok(out)
}

/// Index, within its block, of the statement `path` addresses.
pub(crate) fn index_in_block(path: &[Step]) -> Result<usize> {
    path.last()
        .map(|s| s.index())
        .ok_or_else(|| SchedError::scheduling("empty statement path"))
}

/// Whether `second` addresses the statement right after `first` in the
/// same block.
pub(crate) fn adjacent(first: &[Step], second: &[Step]) -> bool {
    matches!(
        (first.split_last(), second.split_last()),
        (Some((l1, p1)), Some((l2, p2))) if p1 == p2 && *l2 == l1.with_index(l1.index() + 1)
    )
}

/// Destructures a loop cursor into `(iter, lo, hi, body, parallel)`.
pub(crate) fn loop_parts(cursor: &Cursor) -> Result<(Sym, Expr, Expr, Block, bool)> {
    match cursor.stmt()? {
        Stmt::For {
            iter,
            lo,
            hi,
            body,
            parallel,
        } => Ok((
            iter.clone(),
            lo.clone(),
            hi.clone(),
            body.clone(),
            *parallel,
        )),
        other => Err(SchedError::scheduling(format!(
            "expected a for loop, found `{}`",
            other.kind()
        ))),
    }
}

/// Requires the expression to be a compile-time integer constant.
pub(crate) fn expect_const(e: &Expr, what: &str) -> Result<i64> {
    e.as_int().ok_or_else(|| {
        SchedError::scheduling(format!("{what} must be an integer constant, found `{e}`"))
    })
}

/// Requires a positive factor.
pub(crate) fn expect_positive(v: i64, what: &str) -> Result<i64> {
    if v <= 0 {
        return Err(SchedError::scheduling(format!(
            "{what} must be positive, got {v}"
        )));
    }
    Ok(v)
}

/// Shorthand: a sequential loop statement.
pub(crate) fn mk_for(iter: impl Into<Sym>, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        iter: iter.into(),
        lo,
        hi,
        body: Block::from_stmts(body),
        parallel: false,
    }
}

/// Shorthand: an `if` statement without an else branch.
pub(crate) fn mk_if(cond: Expr, then_body: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then_body: Block::from_stmts(then_body),
        else_body: Block::new(),
    }
}

/// Substitutes a variable in every statement of a block.
pub(crate) fn subst_stmts(block: &Block, sym: &Sym, value: &Expr) -> Vec<Stmt> {
    block
        .iter()
        .cloned()
        .map(|s| exo_ir::substitute_var(s, sym, value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{ib, var, DataType, Mem, ProcBuilder};

    fn handle() -> ProcHandle {
        ProcHandle::new(
            ProcBuilder::new("p")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .for_("i", ib(0), var("n"), |b| {
                    b.assign("x", vec![var("i")], exo_ir::fb(0.0));
                })
                .build(),
        )
    }

    #[test]
    fn strings_resolve_as_loop_names_or_patterns() {
        let p = handle();
        let by_name = "i".into_cursor(&p).unwrap();
        assert!(by_name.is_loop());
        let by_pattern = "x = _".into_cursor(&p).unwrap();
        assert_eq!(by_pattern.kind(), Some("assign"));
        assert!("q".into_cursor(&p).is_err());
    }

    #[test]
    fn cursors_are_implicitly_forwarded() {
        let p = handle();
        let c = p.find_loop("i").unwrap();
        let again = (&c).into_cursor(&p).unwrap();
        assert_eq!(again.path(), c.path());
    }

    #[test]
    fn loop_parts_rejects_non_loops() {
        let p = handle();
        let c = p.find("x = _").unwrap();
        assert!(loop_parts(&c).is_err());
        let l = p.find_loop("i").unwrap();
        let (iter, lo, hi, body, par) = loop_parts(&l).unwrap();
        assert_eq!(iter, Sym::new("i"));
        assert_eq!(lo, ib(0));
        assert_eq!(hi, var("n"));
        assert_eq!(body.len(), 1);
        assert!(!par);
    }

    #[test]
    fn const_expectations() {
        assert_eq!(expect_const(&ib(8), "factor").unwrap(), 8);
        assert!(expect_const(&var("n"), "factor").is_err());
        assert!(expect_positive(0, "factor").is_err());
        assert_eq!(expect_positive(4, "factor").unwrap(), 4);
    }
}
