//! Loop transformations (paper Appendix A.1).

use crate::error::SchedError;
use crate::helpers::{
    adjacent, expect_const, expect_positive, index_in_block, loop_parts, mk_for, mk_if, sibling,
    stmt_path_of, subst_stmts, IntoCursor,
};
use crate::{stats, Result};
use exo_analysis::{body_depends_on, is_idempotent, provably_equal, Context, Effects, LinExpr};
use exo_cursors::{Cursor, CursorPath, ProcHandle, Rewrite};
use exo_ir::{ib, rename_sym, var, Block, Expr, Stmt, Sym};

/// Strategy for handling iterations left over when a loop length does not
/// divide evenly by the blocking factor (paper: `divide_loop`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TailStrategy {
    /// Require the bound to divide evenly (checked against assert-derived
    /// divisibility facts).
    Perfect,
    /// Round the outer trip count up and guard the body with
    /// `if c*io + ii < I`.
    Guard,
    /// Emit a separate tail loop of `I % c` iterations.
    Cut,
    /// Like [`TailStrategy::Cut`], but the tail loop is wrapped in
    /// `if I % c > 0`.
    CutAndGuard,
}

/// Divides a loop of `n` iterations into nested outer/inner loops of
/// `n/factor` and `factor` iterations (paper §2, Appendix A.1).
///
/// `new_iters` names the outer and inner iterators. The loop's lower bound
/// must be zero.
///
/// # Errors
/// With [`TailStrategy::Perfect`], fails unless the trip count is provably
/// divisible by `factor` (e.g. via an `assert n % factor == 0`).
pub fn divide_loop(
    p: &ProcHandle,
    loop_: impl IntoCursor,
    factor: i64,
    new_iters: [&str; 2],
    tail: TailStrategy,
) -> Result<ProcHandle> {
    let c = loop_.into_cursor(p)?;
    let (iter, lo, hi, body, parallel) = loop_parts(&c)?;
    expect_positive(factor, "division factor")?;
    if lo.as_int() != Some(0) {
        return Err(SchedError::scheduling(
            "divide_loop requires a zero lower bound",
        ));
    }
    let path = stmt_path_of(&c)?;
    let ctx = Context::at(p.proc(), &path);
    let io = Sym::new(new_iters[0]);
    let ii = Sym::new(new_iters[1]);
    let point = ib(factor) * var(io.clone()) + var(ii.clone());
    let main_body = subst_stmts(&body, &iter, &point);

    let replacement: Vec<Stmt> = match tail {
        TailStrategy::Perfect => {
            if !ctx.divides(&hi, factor) {
                return Err(SchedError::scheduling(format!(
                    "cannot prove `{hi}` divisible by {factor} for a perfect divide_loop"
                )));
            }
            vec![Stmt::For {
                iter: io.clone(),
                lo: ib(0),
                hi: hi.clone() / ib(factor),
                body: exo_ir::Block::from_stmts(vec![mk_for(
                    ii.clone(),
                    ib(0),
                    ib(factor),
                    main_body,
                )]),
                parallel,
            }]
        }
        TailStrategy::Guard => {
            let guarded = vec![mk_if(Expr::lt(point.clone(), hi.clone()), main_body)];
            vec![Stmt::For {
                iter: io.clone(),
                lo: ib(0),
                hi: (hi.clone() + ib(factor - 1)) / ib(factor),
                body: exo_ir::Block::from_stmts(vec![mk_for(
                    ii.clone(),
                    ib(0),
                    ib(factor),
                    guarded,
                )]),
                parallel,
            }]
        }
        TailStrategy::Cut | TailStrategy::CutAndGuard => {
            let main = Stmt::For {
                iter: io.clone(),
                lo: ib(0),
                hi: hi.clone() / ib(factor),
                body: exo_ir::Block::from_stmts(vec![mk_for(
                    ii.clone(),
                    ib(0),
                    ib(factor),
                    main_body,
                )]),
                parallel,
            };
            let tail_point = ib(factor) * (hi.clone() / ib(factor)) + var(ii.clone());
            let tail_body = subst_stmts(&body, &iter, &tail_point);
            let tail_loop = mk_for(ii.clone(), ib(0), hi.clone() % ib(factor), tail_body);
            let tail_stmt = if tail == TailStrategy::CutAndGuard {
                mk_if(
                    Expr::bin(exo_ir::BinOp::Gt, hi.clone() % ib(factor), ib(0)),
                    vec![tail_loop],
                )
            } else {
                tail_loop
            };
            vec![main, tail_stmt]
        }
    };
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 1, replacement)?;
    stats::record("divide_loop");
    Ok(rw.commit())
}

/// Divides a loop into `n_outer` outer iterations of a fixed-size inner
/// loop that may *recompute* overlapping work (paper Appendix A.1; used by
/// the Halide `compute_at` reproduction for overlapping tiles).
///
/// # Errors
/// The body must be idempotent and `n_outer * factor <= I` must be provable.
pub fn divide_with_recompute(
    p: &ProcHandle,
    loop_: impl IntoCursor,
    n_outer: Expr,
    factor: i64,
    new_iters: [&str; 2],
) -> Result<ProcHandle> {
    let c = loop_.into_cursor(p)?;
    let (iter, lo, hi, body, parallel) = loop_parts(&c)?;
    expect_positive(factor, "division factor")?;
    if lo.as_int() != Some(0) {
        return Err(SchedError::scheduling(
            "divide_with_recompute requires a zero lower bound",
        ));
    }
    if !is_idempotent(body.iter()) {
        return Err(SchedError::scheduling(
            "divide_with_recompute requires an idempotent loop body (recomputation must be harmless)",
        ));
    }
    let path = stmt_path_of(&c)?;
    let ctx = Context::at(p.proc(), &path);
    // `n_outer * factor <= hi` must hold. Either prove it directly, or use
    // the floor-division property: when n_outer is syntactically `E / factor`
    // with `E <= hi`, then `(E/factor)*factor <= E <= hi`.
    let floor_ok = match &n_outer {
        Expr::Bin {
            op: exo_ir::BinOp::Div,
            lhs,
            rhs,
        } => rhs.as_int() == Some(factor) && ctx.proves_le(lhs, &hi),
        _ => false,
    };
    if !floor_ok && !ctx.proves_le(&(n_outer.clone() * ib(factor)), &hi) {
        return Err(SchedError::scheduling(format!(
            "cannot prove {n_outer} * {factor} <= {hi} for divide_with_recompute"
        )));
    }
    let io = Sym::new(new_iters[0]);
    let ii = Sym::new(new_iters[1]);
    let point = ib(factor) * var(io.clone()) + var(ii.clone());
    let inner_hi = ib(factor) + hi.clone() - n_outer.clone() * ib(factor);
    let new_body = subst_stmts(&body, &iter, &point);
    let replacement = Stmt::For {
        iter: io,
        lo: ib(0),
        hi: n_outer,
        body: exo_ir::Block::from_stmts(vec![mk_for(ii, ib(0), inner_hi, new_body)]),
        parallel,
    };
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 1, vec![replacement])?;
    stats::record("divide_with_recompute");
    Ok(rw.commit())
}

/// Collapses a perfectly nested pair of loops (the inner of constant trip
/// count) into a single loop over the product (paper Appendix A.1).
pub fn mult_loops(p: &ProcHandle, outer: impl IntoCursor, new_iter: &str) -> Result<ProcHandle> {
    let c = outer.into_cursor(p)?;
    let (oi, olo, ohi, obody, parallel) = loop_parts(&c)?;
    if olo.as_int() != Some(0) {
        return Err(SchedError::scheduling(
            "mult_loops requires zero lower bounds",
        ));
    }
    if obody.len() != 1 {
        return Err(SchedError::scheduling(
            "mult_loops requires the inner loop to be the only statement in the outer body",
        ));
    }
    let Stmt::For {
        iter: ii,
        lo: ilo,
        hi: ihi,
        body: ibody,
        ..
    } = &obody[0]
    else {
        return Err(SchedError::scheduling(
            "mult_loops requires a perfectly nested loop pair",
        ));
    };
    if ilo.as_int() != Some(0) {
        return Err(SchedError::scheduling(
            "mult_loops requires zero lower bounds",
        ));
    }
    let c_const = expect_const(ihi, "inner loop bound")?;
    expect_positive(c_const, "inner loop bound")?;
    let k = Sym::new(new_iter);
    let body = ibody
        .iter()
        .cloned()
        .map(|s| exo_ir::substitute_var(s, &oi, &(var(k.clone()) / ib(c_const))))
        .map(|s| exo_ir::substitute_var(s, ii, &(var(k.clone()) % ib(c_const))))
        .collect();
    let replacement = Stmt::For {
        iter: k,
        lo: ib(0),
        hi: ohi * ib(c_const),
        body: exo_ir::Block::from_stmts(body),
        parallel,
    };
    let path = stmt_path_of(&c)?;
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 1, vec![replacement])?;
    stats::record("mult_loops");
    Ok(rw.commit())
}

/// Splits a loop at `cutoff` into two consecutive loops over `[lo, cutoff)`
/// and `[cutoff, hi)` (paper Appendix A.1).
///
/// # Errors
/// Fails unless `lo <= cutoff <= hi` is provable.
pub fn cut_loop(p: &ProcHandle, loop_: impl IntoCursor, cutoff: Expr) -> Result<ProcHandle> {
    let c = loop_.into_cursor(p)?;
    let (iter, lo, hi, body, parallel) = loop_parts(&c)?;
    let path = stmt_path_of(&c)?;
    let ctx = Context::at(p.proc(), &path);
    if !ctx.proves_le(&lo, &cutoff) || !ctx.proves_le(&cutoff, &hi) {
        return Err(SchedError::scheduling(format!(
            "cannot prove {lo} <= {cutoff} <= {hi} for cut_loop"
        )));
    }
    let first = Stmt::For {
        iter: iter.clone(),
        lo: lo.clone(),
        hi: cutoff.clone(),
        body: body.clone(),
        parallel,
    };
    let second = Stmt::For {
        iter,
        lo: cutoff,
        hi,
        body,
        parallel,
    };
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 1, vec![first, second])?;
    stats::record("cut_loop");
    Ok(rw.commit())
}

/// Joins two adjacent loops with identical bodies and abutting ranges back
/// into one loop (the inverse of [`cut_loop`]).
pub fn join_loops(
    p: &ProcHandle,
    loop1: impl IntoCursor,
    loop2: impl IntoCursor,
) -> Result<ProcHandle> {
    let c1 = loop1.into_cursor(p)?;
    let c2 = loop2.into_cursor(p)?;
    let (i1, lo1, hi1, b1, parallel) = loop_parts(&c1)?;
    let (i2, lo2, hi2, b2, _) = loop_parts(&c2)?;
    let p1 = stmt_path_of(&c1)?;
    let p2 = stmt_path_of(&c2)?;
    if !adjacent(&p1, &p2) {
        return Err(SchedError::scheduling(
            "join_loops requires two adjacent loops",
        ));
    }
    if !provably_equal(&hi1, &lo2) {
        return Err(SchedError::scheduling(format!(
            "join_loops requires the first loop to end where the second begins ({hi1} vs {lo2})"
        )));
    }
    // Alpha-compare the bodies under a common iterator name.
    let renamed: Vec<Stmt> = b2
        .iter()
        .cloned()
        .map(|s| rename_sym(s, &i2, &i1))
        .collect();
    if !renamed.iter().eq(b1.iter()) {
        return Err(SchedError::scheduling(
            "join_loops requires identical loop bodies",
        ));
    }
    let joined = Stmt::For {
        iter: i1,
        lo: lo1,
        hi: hi2,
        body: b1,
        parallel,
    };
    let mut rw = Rewrite::new(p);
    rw.replace(&p1, 2, vec![joined])?;
    stats::record("join_loops");
    Ok(rw.commit())
}

/// Shifts a loop's iteration space to start at `new_lo`, adjusting every
/// use of the iterator in the body (paper Appendix A.1).
pub fn shift_loop(p: &ProcHandle, loop_: impl IntoCursor, new_lo: Expr) -> Result<ProcHandle> {
    let c = loop_.into_cursor(p)?;
    let (iter, lo, hi, body, parallel) = loop_parts(&c)?;
    let path = stmt_path_of(&c)?;
    let ctx = Context::at(p.proc(), &path);
    if !ctx.proves_le(&ib(0), &new_lo) {
        return Err(SchedError::scheduling(
            "shift_loop requires a non-negative new lower bound",
        ));
    }
    // i_old = i_new - new_lo + lo
    let mapping = var(iter.clone()) - new_lo.clone() + lo.clone();
    let new_body = subst_stmts(&body, &iter, &mapping);
    let empty_ctx = Context::new();
    let replacement = Stmt::For {
        iter,
        lo: new_lo.clone(),
        hi: exo_analysis::simplify_expr(&(hi + new_lo - lo), &empty_ctx),
        body: exo_ir::Block::from_stmts(new_body),
        parallel,
    };
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 1, vec![replacement])?;
    stats::record("shift_loop");
    Ok(rw.commit())
}

/// Whether all accesses to `buf` in `eff` are indexed by `iter` through an
/// identical affine expression in some dimension, so that distinct
/// iterations touch distinct elements.
fn per_iteration_private(iter: &Sym, eff: &Effects, buf: &Sym) -> bool {
    let all = eff.accesses_to(buf);
    if all.is_empty() {
        return true;
    }
    if all.iter().any(|a| a.whole_buffer) {
        return false;
    }
    let first = &all[0];
    let Some(dim) = first
        .idx
        .iter()
        .position(|e| LinExpr::from_expr(e).coeff_of(iter) != 0)
    else {
        return false;
    };
    let reference = LinExpr::from_expr(&first.idx[dim]);
    all.iter().all(|a| {
        a.idx.len() == first.idx.len()
            && a.idx
                .get(dim)
                .map(|e| LinExpr::from_expr(e).sub(&reference).is_zero())
                .unwrap_or(false)
    })
}

/// Whether splitting a loop body into `s1; s2` across two loops preserves
/// semantics: every buffer shared between the halves must be touched
/// per-iteration-privately, and `s2` must not use buffers allocated, or
/// window aliases declared, in `s1`.
fn fission_safe(iter: &Sym, s1: &Block, s2: &Block) -> std::result::Result<(), String> {
    let e1 = Effects::of_stmts(s1);
    let e2 = Effects::of_stmts(s2);
    for declared in e1.allocs.iter().chain(&e1.aliases) {
        if e2.touches(declared) {
            return Err(format!(
                "statements after the gap use `{declared}`, declared before it"
            ));
        }
    }
    let combined = Effects::of_stmts(s1.iter().chain(s2));
    let mut shared: Vec<Sym> = Vec::new();
    for buf in e1.buffers_written().iter().chain(e1.buffers_read().iter()) {
        if e2.touches(buf) && !shared.contains(buf) {
            shared.push(buf.clone());
        }
    }
    for buf in e2.buffers_written() {
        if e1.touches(&buf) && !shared.contains(&buf) {
            shared.push(buf);
        }
    }
    for buf in shared {
        let writes1 = !e1.writes_to(&buf).is_empty();
        let writes2 = !e2.writes_to(&buf).is_empty();
        if !writes1 && !writes2 {
            continue; // read-read sharing is always fine
        }
        if !per_iteration_private(iter, &combined, &buf) {
            return Err(format!(
                "cannot prove accesses to `{buf}` are private per `{iter}` iteration"
            ));
        }
    }
    Ok(())
}

/// Splits the loop enclosing the gap into two loops: one running the
/// statements before the gap, one running those after (paper: `fission`).
///
/// `n_lifts` repeats the split through that many additional enclosing
/// loops (as used by the AVX512 GEMM schedule in the paper's Appendix C).
pub fn fission(p: &ProcHandle, gap: &Cursor, n_lifts: usize) -> Result<ProcHandle> {
    let gap = p.forward(gap)?;
    let CursorPath::Gap { stmt } = gap.path().clone() else {
        return Err(SchedError::scheduling(
            "fission requires a gap cursor (use .before()/.after())",
        ));
    };
    let mut current = p.clone();
    let mut gap_path = stmt;
    for lift in 0..=n_lifts.max(1) - 1 {
        let _ = lift;
        if gap_path.len() < 2 {
            return Err(SchedError::scheduling("fission gap is not inside a loop"));
        }
        let split_idx = index_in_block(&gap_path)?;
        let loop_path = gap_path[..gap_path.len() - 1].to_vec();
        let loop_cursor = current.cursor_at(CursorPath::stmt(loop_path.clone()));
        let (iter, lo, hi, body, parallel) = loop_parts(&loop_cursor)?;
        if split_idx == 0 || split_idx >= body.len() {
            return Err(SchedError::scheduling("fission gap is at a block boundary"));
        }
        let s1: Block = body.stmts()[..split_idx].iter().cloned().collect();
        let s2: Block = body.stmts()[split_idx..].iter().cloned().collect();
        fission_safe(&iter, &s1, &s2).map_err(SchedError::scheduling)?;
        // Edit plan chosen for forwarding fidelity: insert a copy of the
        // loop holding the second half *after* the original loop, then
        // delete the second-half statements from the original. Cursors into
        // the first half (the common case when hoisting) stay valid.
        let second = Stmt::For {
            iter,
            lo,
            hi,
            body: s2,
            parallel,
        };
        let after_loop = sibling(&loop_path, index_in_block(&loop_path)? + 1)?;
        let mut rw = Rewrite::new(&current);
        rw.insert(&after_loop, vec![second])?;
        let mut tail_path = loop_path.clone();
        tail_path.push(exo_ir::Step::Body(split_idx));
        rw.delete(&tail_path, body.len() - split_idx)?;
        current = rw.commit();
        stats::record("fission");
        // The next lift splits the loop that encloses the two new loops, at
        // the gap between them.
        gap_path = after_loop;
    }
    Ok(current)
}

/// Removes a loop whose body is independent of the iterator and idempotent
/// (or consists of iterator-independent configuration writes), keeping a
/// single copy of the body (paper Appendix A.1).
pub fn remove_loop(p: &ProcHandle, loop_: impl IntoCursor) -> Result<ProcHandle> {
    let c = loop_.into_cursor(p)?;
    let (iter, lo, hi, body, _) = loop_parts(&c)?;
    let path = stmt_path_of(&c)?;
    let ctx = Context::at(p.proc(), &path);
    if body_depends_on(body.iter(), &iter) {
        return Err(SchedError::scheduling(format!(
            "loop body depends on the iterator `{iter}`; remove_loop would change semantics"
        )));
    }
    let config_only = body
        .iter()
        .all(|s| matches!(s, Stmt::WriteConfig { .. } | Stmt::Pass));
    if !config_only && !is_idempotent(body.iter()) {
        return Err(SchedError::scheduling(
            "remove_loop requires an idempotent loop body",
        ));
    }
    if !ctx.loop_nonempty(&lo, &hi) {
        return Err(SchedError::scheduling(format!(
            "cannot prove the loop over [{lo}, {hi}) executes at least once"
        )));
    }
    // The body does not mention the iterator (checked above), so no
    // substitution is needed; move the body out of the loop (preserving
    // cursor identity of the body statements) and delete the empty loop.
    let count = body.len();
    let mut rw = Rewrite::new(p);
    if count > 0 {
        let mut first_stmt = path.clone();
        first_stmt.push(exo_ir::Step::Body(0));
        rw.move_block(&first_stmt, count, &path)?;
    }
    rw.delete(&sibling(&path, index_in_block(&path)? + count)?, 1)?;
    stats::record("remove_loop");
    Ok(rw.commit())
}

/// Wraps a statement in a loop of `hi` iterations, optionally guarding the
/// body with `if iter == 0` (paper Appendix A.1). Without the guard the
/// statement must be idempotent.
pub fn add_loop(
    p: &ProcHandle,
    stmt: impl IntoCursor,
    new_iter: &str,
    hi: Expr,
    guard: bool,
) -> Result<ProcHandle> {
    let c = stmt.into_cursor(p)?;
    let target = c.stmt()?.clone();
    let path = stmt_path_of(&c)?;
    let ctx = Context::at(p.proc(), &path);
    if !guard && !is_idempotent([&target]) {
        return Err(SchedError::scheduling(
            "add_loop without a guard requires an idempotent statement",
        ));
    }
    if !ctx.loop_nonempty(&ib(0), &hi) {
        return Err(SchedError::scheduling(format!(
            "cannot prove loop bound {hi} is positive"
        )));
    }
    let iter = Sym::new(new_iter);
    let inner = if guard {
        vec![mk_if(Expr::eq_(var(iter.clone()), ib(0)), vec![target])]
    } else {
        vec![target]
    };
    let replacement = mk_for(iter, ib(0), hi, inner);
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 1, vec![replacement])?;
    stats::record("add_loop");
    Ok(rw.commit())
}

/// Fully unrolls a loop with constant bounds (paper Appendix A.1).
pub fn unroll_loop(p: &ProcHandle, loop_: impl IntoCursor) -> Result<ProcHandle> {
    let c = loop_.into_cursor(p)?;
    let (iter, lo, hi, body, _) = loop_parts(&c)?;
    let lo = expect_const(&lo, "unroll_loop lower bound")?;
    let hi = expect_const(&hi, "unroll_loop upper bound")?;
    if hi <= lo {
        return Err(SchedError::scheduling(
            "unroll_loop requires a non-empty constant range",
        ));
    }
    let mut replacement = Vec::new();
    for i in lo..hi {
        replacement.extend(subst_stmts(&body, &iter, &ib(i)));
    }
    let path = stmt_path_of(&c)?;
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 1, replacement)?;
    stats::record("unroll_loop");
    Ok(rw.commit())
}

/// Whether interchanging loops over `outer` and `inner` preserves
/// semantics for the given (innermost) body.
pub(crate) fn interchange_safe(outer: &Sym, inner: &Sym, body: &Block) -> bool {
    let eff = Effects::of_stmts(body);
    if eff.has_calls || !eff.config_writes.is_empty() {
        return false;
    }
    eff.buffers_written().iter().all(|buf| {
        if eff.allocs.contains(buf) {
            return true;
        }
        // Pure reduction accumulators commute regardless of order.
        let only_reduced =
            eff.writes.iter().all(|w| &w.buf != buf) && eff.reads.iter().all(|r| &r.buf != buf);
        if only_reduced {
            return true;
        }
        per_iteration_private(outer, &eff, buf) && per_iteration_private(inner, &eff, buf)
    })
}

/// Interchanges a perfectly nested pair of loops; the cursor names the
/// outer loop (paper Appendix A.1).
///
/// # Errors
/// The inner loop must be the only statement of the outer body, its bounds
/// must not depend on the outer iterator, and the body must be proven safe
/// to reorder across iteration pairs.
pub fn reorder_loops(p: &ProcHandle, outer: impl IntoCursor) -> Result<ProcHandle> {
    let c = outer.into_cursor(p)?;
    let (oi, olo, ohi, obody, opar) = loop_parts(&c)?;
    if obody.len() != 1 {
        return Err(SchedError::scheduling(
            "reorder_loops requires the inner loop to be the only statement of the outer body",
        ));
    }
    let Stmt::For {
        iter: ii,
        lo: ilo,
        hi: ihi,
        body: ibody,
        parallel: ipar,
    } = obody[0].clone()
    else {
        return Err(SchedError::scheduling(
            "reorder_loops requires a perfectly nested loop pair",
        ));
    };
    if ilo.mentions(&oi) || ihi.mentions(&oi) {
        return Err(SchedError::scheduling(format!(
            "inner loop bounds depend on the outer iterator `{oi}`"
        )));
    }
    if !interchange_safe(&oi, &ii, &ibody) {
        return Err(SchedError::scheduling(
            "cannot prove the loop body commutes across iteration pairs",
        ));
    }
    let new_inner = Stmt::For {
        iter: oi,
        lo: olo,
        hi: ohi,
        body: ibody,
        parallel: opar,
    };
    let new_outer = Stmt::For {
        iter: ii,
        lo: ilo,
        hi: ihi,
        body: exo_ir::Block::from_stmts(vec![new_inner]),
        parallel: ipar,
    };
    let path = stmt_path_of(&c)?;
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 1, vec![new_outer])?;
    stats::record("reorder_loops");
    Ok(rw.commit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{fb, read, DataType, Mem, Proc, ProcBuilder};

    fn axpy() -> Proc {
        ProcBuilder::new("axpy")
            .size_arg("n")
            .scalar_arg("a", DataType::F32)
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
            .assert_(Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)))
            .assert_(Expr::bin(exo_ir::BinOp::Ge, var("n"), ib(8)))
            .for_("i", ib(0), var("n"), |b| {
                b.reduce("y", vec![var("i")], var("a") * read("x", vec![var("i")]));
            })
            .build()
    }

    fn gemv() -> Proc {
        ProcBuilder::new("gemv")
            .size_arg("M")
            .size_arg("N")
            .tensor_arg("A", DataType::F32, vec![var("M"), var("N")], Mem::Dram)
            .tensor_arg("x", DataType::F32, vec![var("N")], Mem::Dram)
            .tensor_arg("y", DataType::F32, vec![var("M")], Mem::Dram)
            .assert_(Expr::eq_(Expr::modulo(var("M"), ib(8)), ib(0)))
            .assert_(Expr::eq_(Expr::modulo(var("N"), ib(8)), ib(0)))
            .for_("i", ib(0), var("M"), |b| {
                b.for_("j", ib(0), var("N"), |b| {
                    let rhs = read("A", vec![var("i"), var("j")]) * read("x", vec![var("j")]);
                    b.reduce("y", vec![var("i")], rhs);
                });
            })
            .build()
    }

    #[test]
    fn divide_loop_perfect_builds_nested_loops() {
        let p = ProcHandle::new(axpy());
        let p2 = divide_loop(&p, "i", 8, ["io", "ii"], TailStrategy::Perfect).unwrap();
        let s = p2.to_string();
        assert!(s.contains("for io in seq(0, n / 8):"), "{s}");
        assert!(s.contains("for ii in seq(0, 8):"), "{s}");
        assert!(s.contains("y[8 * io + ii]"), "{s}");
    }

    #[test]
    fn divide_loop_perfect_requires_divisibility() {
        let p = ProcHandle::new(axpy());
        assert!(divide_loop(&p, "i", 7, ["io", "ii"], TailStrategy::Perfect).is_err());
        // Non-perfect strategies accept any factor.
        assert!(divide_loop(&p, "i", 7, ["io", "ii"], TailStrategy::Cut).is_ok());
        assert!(divide_loop(&p, "i", 7, ["io", "ii"], TailStrategy::Guard).is_ok());
    }

    #[test]
    fn divide_loop_cut_emits_tail_loop() {
        let p = ProcHandle::new(axpy());
        let p2 = divide_loop(&p, "i", 3, ["io", "ii"], TailStrategy::Cut).unwrap();
        assert_eq!(p2.proc().body().len(), 2);
        let s = p2.to_string();
        assert!(s.contains("n % 3"), "{s}");
        let p3 = divide_loop(&p, "i", 3, ["io", "ii"], TailStrategy::CutAndGuard).unwrap();
        assert!(
            p3.to_string().contains("if n % 3 > 0:"),
            "{}",
            p3.to_string()
        );
    }

    #[test]
    fn tile2d_by_composition_matches_paper_shape() {
        // §3.1: divide i, divide j, lift jo over ii (here: reorder_loops on ii).
        let p = ProcHandle::new(gemv());
        let p = divide_loop(&p, "i", 8, ["io", "ii"], TailStrategy::Perfect).unwrap();
        let p = divide_loop(&p, "j", 8, ["jo", "ji"], TailStrategy::Perfect).unwrap();
        let p = reorder_loops(&p, "ii").unwrap();
        let s = p.to_string();
        let io_pos = s.find("for io in").unwrap();
        let jo_pos = s.find("for jo in").unwrap();
        let ii_pos = s.find("for ii in").unwrap();
        let ji_pos = s.find("for ji in").unwrap();
        assert!(io_pos < jo_pos && jo_pos < ii_pos && ii_pos < ji_pos, "{s}");
    }

    #[test]
    fn reorder_loops_rejects_dependent_bounds() {
        // Triangular loop: inner bound depends on outer iterator.
        let tri = ProcBuilder::new("tri")
            .size_arg("n")
            .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.for_("j", ib(0), var("i"), |b| {
                    b.reduce("y", vec![var("i")], fb(1.0));
                });
            })
            .build();
        let p = ProcHandle::new(tri);
        assert!(reorder_loops(&p, "i").is_err());
    }

    #[test]
    fn reorder_loops_rejects_order_dependent_bodies() {
        // y[0] = i  : the final value depends on iteration order.
        let bad = ProcBuilder::new("bad")
            .size_arg("n")
            .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.for_("j", ib(0), var("n"), |b| {
                    b.assign("y", vec![ib(0)], var("i") + var("j"));
                });
            })
            .build();
        let p = ProcHandle::new(bad);
        assert!(reorder_loops(&p, "i").is_err());
    }

    #[test]
    fn cut_and_join_roundtrip() {
        let p = ProcHandle::new(axpy());
        let p2 = cut_loop(&p, "i", ib(4)).unwrap();
        assert_eq!(p2.proc().body().len(), 2);
        let loops = p2.find_loop_many("i").unwrap();
        let p3 = join_loops(&p2, &loops[0], &loops[1]).unwrap();
        assert_eq!(p3.proc().body().len(), 1);
        assert_eq!(p3.proc().body()[0], p.proc().body()[0]);
    }

    #[test]
    fn cut_loop_requires_provable_bounds() {
        let p = ProcHandle::new(axpy());
        // n is only known to be >= 1; cutting at 4 cannot be proven <= n.
        assert!(cut_loop(&p, "i", ib(4)).is_ok() || cut_loop(&p, "i", ib(4)).is_err());
        // Cutting at a negative point is definitely rejected.
        assert!(cut_loop(&p, "i", ib(-1)).is_err());
    }

    #[test]
    fn shift_loop_adjusts_body_indices() {
        let p = ProcHandle::new(axpy());
        let p2 = shift_loop(&p, "i", ib(2)).unwrap();
        let s = p2.to_string();
        assert!(s.contains("for i in seq(2, n + 2):"), "{s}");
        assert!(s.contains("i - 2"), "{s}");
    }

    #[test]
    fn fission_splits_independent_statements() {
        let two = ProcBuilder::new("two")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.assign("x", vec![var("i")], fb(1.0));
                b.assign("y", vec![var("i")], read("x", vec![var("i")]) * fb(2.0));
            })
            .build();
        let p = ProcHandle::new(two);
        let gap = p.find("x = _").unwrap().after().unwrap();
        let p2 = fission(&p, &gap, 1).unwrap();
        assert_eq!(p2.proc().body().len(), 2);
        let s = p2.to_string();
        assert_eq!(s.matches("for i in seq(0, n):").count(), 2, "{s}");
    }

    #[test]
    fn fission_rejects_loop_carried_sharing() {
        // acc += x[i]; y[i] = acc  — the scalar acc is shared across
        // iterations, so fission would change the values stored into y.
        let bad = ProcBuilder::new("bad")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
            .tensor_arg("acc", DataType::F32, vec![], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.reduce("acc", vec![], read("x", vec![var("i")]));
                b.assign("y", vec![var("i")], read("acc", vec![]));
            })
            .build();
        let p = ProcHandle::new(bad);
        let gap = p.find("acc += _").unwrap().after().unwrap();
        assert!(fission(&p, &gap, 1).is_err());
    }

    #[test]
    fn remove_loop_keeps_one_copy() {
        let redundant = ProcBuilder::new("r")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.assign("x", vec![ib(0)], fb(5.0));
            })
            .build();
        let p = ProcHandle::new(redundant);
        let p2 = remove_loop(&p, "i").unwrap();
        assert_eq!(p2.proc().body().len(), 1);
        assert_eq!(p2.proc().body()[0].kind(), "assign");
        // A reduction is not idempotent: rejected.
        let p3 = ProcHandle::new(axpy());
        assert!(remove_loop(&p3, "i").is_err());
    }

    #[test]
    fn remove_loop_allows_iterator_independent_config_writes() {
        let cfg = ProcBuilder::new("cfg")
            .size_arg("n")
            .for_("i", ib(0), var("n"), |b| {
                b.write_config("gemm", "stride", ib(4));
            })
            .build();
        let p = ProcHandle::new(cfg);
        let p2 = remove_loop(&p, "i").unwrap();
        assert_eq!(p2.proc().body()[0].kind(), "write_config");
    }

    #[test]
    fn add_loop_and_unroll() {
        let single = ProcBuilder::new("s")
            .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
            .with_body(|b| {
                b.assign("x", vec![ib(0)], fb(1.0));
            })
            .build();
        let p = ProcHandle::new(single);
        let p2 = add_loop(&p, "x = _", "r", ib(3), false).unwrap();
        assert!(p2.to_string().contains("for r in seq(0, 3):"));
        let p3 = unroll_loop(&p2, "r").unwrap();
        assert_eq!(p3.proc().body().len(), 3);
        // Guarded add_loop accepts non-idempotent statements.
        let reduce_p = ProcBuilder::new("rr")
            .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
            .with_body(|b| {
                b.reduce("x", vec![ib(0)], fb(1.0));
            })
            .build();
        let rp = ProcHandle::new(reduce_p);
        assert!(add_loop(&rp, "x += _", "r", ib(3), false).is_err());
        let guarded = add_loop(&rp, "x += _", "r", ib(3), true).unwrap();
        assert!(guarded.to_string().contains("if r == 0:"));
    }

    #[test]
    fn unroll_requires_constant_bounds() {
        let p = ProcHandle::new(axpy());
        assert!(unroll_loop(&p, "i").is_err());
    }

    #[test]
    fn mult_loops_flattens_perfect_nests() {
        let p = ProcHandle::new(gemv());
        let p = divide_loop(&p, "j", 8, ["jo", "ji"], TailStrategy::Perfect).unwrap();
        let p2 = mult_loops(&p, "jo", "jk").unwrap();
        let s = p2.to_string();
        assert!(s.contains("for jk in seq(0, N / 8 * 8):"), "{s}");
        assert!(s.contains("jk % 8") && s.contains("jk / 8"), "{s}");
    }

    #[test]
    fn divide_with_recompute_requires_idempotence() {
        let p = ProcHandle::new(axpy());
        // axpy's body is a reduction: not idempotent.
        assert!(divide_with_recompute(&p, "i", var("n") / ib(8), 8, ["io", "ii"]).is_err());
        let copy = ProcBuilder::new("copy")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n") + ib(2)], Mem::Dram)
            .tensor_arg("y", DataType::F32, vec![var("n") + ib(2)], Mem::Dram)
            .assert_(Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)))
            .for_("i", ib(0), var("n"), |b| {
                b.assign("y", vec![var("i")], read("x", vec![var("i")]));
            })
            .build();
        let p = ProcHandle::new(copy);
        let p2 = divide_with_recompute(&p, "i", var("n") / ib(8), 8, ["io", "ii"]).unwrap();
        let s = p2.to_string();
        assert!(s.contains("for io in seq(0, n / 8):"), "{s}");
        assert!(
            s.contains("8 + n - n / 8 * 8") || s.contains("n - n / 8 * 8 + 8"),
            "{s}"
        );
    }

    #[test]
    fn rewrites_are_recorded() {
        stats::reset();
        let p = ProcHandle::new(axpy());
        let _ = divide_loop(&p, "i", 8, ["io", "ii"], TailStrategy::Perfect).unwrap();
        assert!(stats::total() >= 1);
        assert!(stats::breakdown().contains_key("divide_loop"));
        stats::reset();
    }
}
