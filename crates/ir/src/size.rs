//! Retained-memory estimation and sharing control for procedures.
//!
//! [`Block`]s are structurally shared across procedure versions, so the
//! memory retained by a provenance chain of versions is *not* the sum of
//! each version's standalone size — shared blocks and statements are
//! stored once. The estimator here walks a procedure and charges each
//! distinct block node and each distinct statement exactly once (tracked
//! by address in a caller-owned seen-set, so one set can span a whole
//! version chain).
//!
//! [`deep_unshare`] is the inverse knob: it rebuilds every block and
//! every statement with fresh, unshared storage. The deep-clone reference
//! implementation in `exo-cursors` uses it to reproduce the pre-sharing
//! cost model (O(|proc|) per edit, one full AST retained per version) for
//! differential testing and benchmarking.

use crate::expr::{Expr, WAccess};
use crate::proc::{ArgKind, Proc, ProcArg};
use crate::stmt::{Block, Stmt, NODE_BYTES, STMT_BYTES};
use crate::sym::Sym;
use std::collections::HashSet;
use std::mem::size_of;
use std::sync::Arc;

fn sym_bytes(s: &Sym) -> usize {
    size_of::<Sym>() + s.name().len()
}

fn expr_heap_bytes(e: &Expr) -> usize {
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) => 0,
        Expr::Var(s) | Expr::Stride { buf: s, .. } => s.name().len(),
        Expr::Read { buf, idx } => buf.name().len() + exprs_bytes(idx),
        Expr::Window { buf, idx } => {
            buf.name().len()
                + idx.len() * size_of::<WAccess>()
                + idx
                    .iter()
                    .map(|w| match w {
                        WAccess::Point(e) => expr_heap_bytes(e),
                        WAccess::Interval(lo, hi) => expr_heap_bytes(lo) + expr_heap_bytes(hi),
                    })
                    .sum::<usize>()
        }
        Expr::Bin { lhs, rhs, .. } => {
            2 * size_of::<Expr>() + expr_heap_bytes(lhs) + expr_heap_bytes(rhs)
        }
        Expr::Un { arg, .. } => size_of::<Expr>() + expr_heap_bytes(arg),
        Expr::ReadConfig { config, field } => config.name().len() + field.len(),
    }
}

fn exprs_bytes(exprs: &[Expr]) -> usize {
    std::mem::size_of_val(exprs) + exprs.iter().map(expr_heap_bytes).sum::<usize>()
}

fn stmt_heap_bytes(s: &Stmt, seen: &mut HashSet<usize>) -> usize {
    match s {
        Stmt::Assign { buf, idx, rhs } | Stmt::Reduce { buf, idx, rhs } => {
            buf.name().len() + exprs_bytes(idx) + expr_heap_bytes(rhs)
        }
        Stmt::Alloc { name, dims, .. } => name.name().len() + exprs_bytes(dims),
        Stmt::For {
            iter, lo, hi, body, ..
        } => {
            iter.name().len() + expr_heap_bytes(lo) + expr_heap_bytes(hi) + block_bytes(body, seen)
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => expr_heap_bytes(cond) + block_bytes(then_body, seen) + block_bytes(else_body, seen),
        Stmt::Call { proc, args } => proc.len() + exprs_bytes(args),
        Stmt::Pass => 0,
        Stmt::WriteConfig {
            config,
            field,
            value,
        } => config.name().len() + field.len() + expr_heap_bytes(value),
        Stmt::WindowStmt { name, rhs } => name.name().len() + expr_heap_bytes(rhs),
    }
}

/// Estimated heap bytes retained by a block, charging a block node or a
/// statement already in `seen` zero bytes. `seen` is caller-owned so one
/// set can deduplicate across many procedures (e.g. a whole provenance
/// chain).
pub fn block_bytes(block: &Block, seen: &mut HashSet<usize>) -> usize {
    if !seen.insert(block.storage_id()) {
        return 0;
    }
    NODE_BYTES
        + block.len() * size_of::<Arc<Stmt>>()
        + block
            .stmts()
            .iter()
            .map(|s| shared_stmt_bytes(s, seen))
            .sum::<usize>()
}

fn shared_stmt_bytes(s: &Arc<Stmt>, seen: &mut HashSet<usize>) -> usize {
    if !seen.insert(Arc::as_ptr(s) as usize) {
        return 0;
    }
    STMT_BYTES + stmt_heap_bytes(s, seen)
}

fn arg_bytes(arg: &ProcArg) -> usize {
    sym_bytes(&arg.name)
        + size_of::<ArgKind>()
        + match &arg.kind {
            ArgKind::Tensor { dims, .. } => exprs_bytes(dims),
            ArgKind::Size | ArgKind::Scalar { .. } => 0,
        }
}

/// Estimated heap bytes retained by a procedure, deduplicating blocks
/// whose storage ids are already in `seen`.
///
/// Call this once per version of a provenance chain with a single shared
/// `seen` set to measure the bytes the whole chain actually retains.
pub fn proc_retained_bytes(proc: &Proc, seen: &mut HashSet<usize>) -> usize {
    proc.name().len()
        + proc.args().iter().map(arg_bytes).sum::<usize>()
        + exprs_bytes(proc.preds())
        + block_bytes(proc.body(), seen)
}

fn unshare_block(block: &Block) -> Block {
    block.iter().map(unshare_stmt).collect()
}

fn unshare_stmt(s: &Stmt) -> Stmt {
    match s {
        Stmt::For {
            iter,
            lo,
            hi,
            body,
            parallel,
        } => Stmt::For {
            iter: iter.clone(),
            lo: lo.clone(),
            hi: hi.clone(),
            body: unshare_block(body),
            parallel: *parallel,
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: cond.clone(),
            then_body: unshare_block(then_body),
            else_body: unshare_block(else_body),
        },
        other => other.clone(),
    }
}

/// Returns a structurally-equal copy of the procedure in which every block
/// and every statement has fresh, unshared storage (a true deep clone, as if structural
/// sharing did not exist).
pub fn deep_unshare(proc: &Proc) -> Proc {
    proc.clone().with_body(unshare_block(proc.body()))
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
                b.for_("j", ib(0), ib(4), |b| {
                    b.reduce("y", vec![var("i")], read("y", vec![var("j")]));
                });
            })
            .build()
    }

    #[test]
    fn clone_shares_storage_and_costs_nothing_extra() {
        let p = nested();
        let q = p.clone();
        assert!(p.body().shares_storage_with(q.body()));
        let mut seen = HashSet::new();
        let first = proc_retained_bytes(&p, &mut seen);
        let second = proc_retained_bytes(&q, &mut seen);
        assert!(first > 0);
        // The clone's body is fully shared; only name/args/preds re-charge.
        assert!(second < first / 2, "{second} vs {first}");
    }

    #[test]
    fn deep_unshare_breaks_sharing_but_preserves_equality() {
        let p = nested();
        let q = deep_unshare(&p);
        assert_eq!(p, q);
        assert_eq!(format!("{p}"), format!("{q}"));
        assert!(!p.body().shares_storage_with(q.body()));
        let mut seen = HashSet::new();
        let first = proc_retained_bytes(&p, &mut seen);
        let second = proc_retained_bytes(&q, &mut seen);
        // Unshared copy re-charges its whole body.
        assert!(second > first / 2, "{second} vs {first}");
    }
}
