//! Buffer transformations (paper Appendix A.5).

use crate::error::SchedError;
use crate::helpers::{
    expect_const, expect_positive, index_in_block, mk_for, sibling, stmt_path_of, IntoCursor,
};
use crate::uses::{for_scope_after, rewrite_uses, try_modify_stmt, Use};
use crate::{stats, Result};
use exo_analysis::{infer_bounds, simplify_expr, Context};
use exo_cursors::{Cursor, CursorPath, ProcHandle, Rewrite};
use exo_ir::{
    for_each_stmt_paths, ib, resolve_container, var, ArgKind, Block, DataType, Expr, Mem, Step,
    Stmt, Sym, WAccess,
};

/// Rewrites every indexed access (read, write, window) to `buf` inside a
/// statement, transforming the index vector with `f`.
fn map_accesses(stmt: &mut Stmt, buf: &Sym, f: impl Fn(Vec<Expr>) -> Vec<Expr>) -> Result<()> {
    rewrite_uses(stmt, buf, |u| {
        match u {
            Use::Index(_, idx) => *idx = f(std::mem::take(idx)),
            Use::Window(_, widx) => {
                // Window accesses are transformed point-wise on their start
                // expressions; interval lengths are preserved.
                let starts: Vec<Expr> = widx
                    .iter()
                    .map(|w| match w {
                        WAccess::Point(e) | WAccess::Interval(e, _) => e.clone(),
                    })
                    .collect();
                let mapped = f(starts);
                if mapped.len() != widx.len() {
                    return Err(SchedError::scheduling(format!(
                        "a window of `{buf}` is in use; cannot change the rank of `{buf}`"
                    )));
                }
                for (w, new_start) in widx.iter_mut().zip(mapped) {
                    match w {
                        WAccess::Point(e) => *e = new_start,
                        WAccess::Interval(lo, hi) => {
                            let extent = hi.clone() - lo.clone();
                            *hi = new_start.clone() + extent;
                            *lo = new_start;
                        }
                    }
                }
            }
            // The buffer keeps its name: a whole-buffer use stays in scope.
            Use::Name(_) => {}
        }
        Ok(())
    })
}

/// Renames a buffer in a statement (accesses and window statements, not
/// allocations of a *different* buffer).
fn rename_buffer_stmt(stmt: &mut Stmt, old: &Sym, new: &Sym) {
    *stmt = exo_ir::rename_sym(std::mem::replace(stmt, Stmt::Pass), old, new);
}

/// The pieces of an `Alloc` statement: its path, name, element type,
/// dimension expressions, and memory space.
type AllocParts = (Vec<Step>, Sym, DataType, Vec<Expr>, Mem);

fn alloc_parts(c: &Cursor) -> Result<AllocParts> {
    match c.stmt()? {
        Stmt::Alloc {
            name,
            ty,
            dims,
            mem,
        } => Ok((
            stmt_path_of(c)?,
            name.clone(),
            *ty,
            dims.clone(),
            mem.clone(),
        )),
        other => Err(SchedError::scheduling(format!(
            "expected an allocation, found `{}`",
            other.kind()
        ))),
    }
}

/// Moves an allocation out of `n_lifts` enclosing scopes (paper:
/// `lift_alloc`). The allocation's dimensions must not depend on the
/// iterators of the loops it is lifted across.
pub fn lift_alloc(p: &ProcHandle, alloc: impl IntoCursor, n_lifts: usize) -> Result<ProcHandle> {
    let c = alloc.into_cursor(p)?;
    let (_, name, _, dims, _) = alloc_parts(&c)?;
    let mut current = p.clone();
    let mut cursor = c;
    for _ in 0..n_lifts.max(1) {
        let path = stmt_path_of(&cursor)?;
        if path.len() < 2 {
            return Err(SchedError::scheduling(format!(
                "allocation `{name}` is already at the top level"
            )));
        }
        let parent_path = path[..path.len() - 1].to_vec();
        let parent = current.cursor_at(CursorPath::stmt(parent_path.clone()));
        if let Stmt::For { iter, .. } = parent.stmt()? {
            if dims.iter().any(|d| d.mentions(iter)) {
                return Err(SchedError::scheduling(format!(
                    "allocation `{name}` has dimensions depending on loop iterator `{iter}`"
                )));
            }
        }
        let mut rw = Rewrite::new(&current);
        rw.move_block(&path, 1, &parent_path)?;
        current = rw.commit();
        cursor = current.cursor_at(CursorPath::stmt(parent_path));
    }
    stats::record("lift_alloc");
    Ok(current)
}

/// Moves an allocation into the immediately following `for`/`if` statement
/// (paper: `sink_alloc`). The buffer must only be used inside that
/// statement.
pub fn sink_alloc(p: &ProcHandle, alloc: impl IntoCursor) -> Result<ProcHandle> {
    let c = alloc.into_cursor(p)?;
    let (path, name, _, _, _) = alloc_parts(&c)?;
    let next = c
        .next()
        .map_err(|_| SchedError::scheduling("sink_alloc: no statement follows the allocation"))?;
    if !next.is_loop() && !next.is_if() {
        return Err(SchedError::scheduling(
            "sink_alloc: the next statement is not a loop or if",
        ));
    }
    // The buffer must not be used after the next statement.
    let (container, idx) = resolve_container(p.proc(), &path)
        .ok_or_else(|| SchedError::scheduling("allocation scope no longer resolves"))?;
    for later in container.iter().skip(idx + 2) {
        if exo_analysis::Effects::of_stmt(later).touches(&name) {
            return Err(SchedError::scheduling(format!(
                "buffer `{name}` is used after the statement it would be sunk into"
            )));
        }
    }
    let mut dest = stmt_path_of(&next)?;
    dest.push(Step::Body(0));
    let mut rw = Rewrite::new(p);
    rw.move_block(&path, 1, &dest)?;
    stats::record("sink_alloc");
    Ok(rw.commit())
}

/// Deletes an allocation whose buffer is never used (paper:
/// `delete_buffer`).
pub fn delete_buffer(p: &ProcHandle, alloc: impl IntoCursor) -> Result<ProcHandle> {
    let c = alloc.into_cursor(p)?;
    let (path, name, _, _, _) = alloc_parts(&c)?;
    let mut used = false;
    for_each_stmt_paths(p.proc(), &mut |spath, stmt| {
        if spath == path.as_slice() {
            return;
        }
        if exo_analysis::Effects::of_stmt(stmt).touches(&name)
            && !matches!(stmt, Stmt::For { .. } | Stmt::If { .. })
        {
            used = true;
        }
    });
    if used {
        return Err(SchedError::scheduling(format!(
            "buffer `{name}` is still used; cannot delete"
        )));
    }
    let mut rw = Rewrite::new(p);
    rw.delete(&path, 1)?;
    stats::record("delete_buffer");
    Ok(rw.commit())
}

/// Replaces buffer `b` with previously-allocated buffer `a` of identical
/// type and shape, deleting `b`'s allocation (paper: `reuse_buffer`).
pub fn reuse_buffer(p: &ProcHandle, a: &str, b: impl IntoCursor) -> Result<ProcHandle> {
    let cb = b.into_cursor(p)?;
    let (b_path, b_name, b_ty, b_dims, _) = alloc_parts(&cb)?;
    // Find `a`'s declaration: an allocation or a tensor argument.
    let (a_ty, a_dims) = if let Ok(ca) = p.find(&format!("{a}: _")) {
        let (_, _, ty, dims, _) = alloc_parts(&ca)?;
        (ty, dims)
    } else if let Some(arg) = p.proc().arg(a) {
        match &arg.kind {
            ArgKind::Tensor { ty, dims, .. } => (*ty, dims.clone()),
            _ => return Err(SchedError::scheduling(format!("`{a}` is not a tensor"))),
        }
    } else {
        return Err(SchedError::scheduling(format!("no buffer named `{a}`")));
    };
    if a_ty != b_ty || a_dims.len() != b_dims.len() {
        return Err(SchedError::scheduling(format!(
            "`{a}` and `{b_name}` have different types or ranks"
        )));
    }
    for (da, db) in a_dims.iter().zip(b_dims.iter()) {
        if !exo_analysis::provably_equal(da, db) {
            return Err(SchedError::scheduling(format!(
                "`{a}` and `{b_name}` have different sizes ({da} vs {db})"
            )));
        }
    }
    let a_sym = Sym::new(a);
    let mut rw = Rewrite::new(p);
    for_scope_after(&mut rw, &b_path, 1, &b_name, |s| {
        rename_buffer_stmt(s, &b_name, &a_sym);
        Ok(())
    })?;
    rw.delete(&b_path, 1)?;
    stats::record("reuse_buffer");
    Ok(rw.commit())
}

/// Resizes one dimension of an allocation, shifting (or folding) every
/// access by `offset` (paper: `resize_dim`).
pub fn resize_dim(
    p: &ProcHandle,
    alloc: impl IntoCursor,
    dim: usize,
    size: Expr,
    offset: Expr,
    fold: bool,
) -> Result<ProcHandle> {
    let c = alloc.into_cursor(p)?;
    let (path, name, _, dims, _) = alloc_parts(&c)?;
    if dim >= dims.len() {
        return Err(SchedError::scheduling(format!(
            "dimension {dim} out of range for `{name}` of rank {}",
            dims.len()
        )));
    }
    let mut rw = Rewrite::new(p);
    rw.modify_stmt(&path, |s| {
        if let Stmt::Alloc { dims, .. } = s {
            dims[dim] = size.clone();
        }
    })?;
    for_scope_after(&mut rw, &path, 1, &name, |s| {
        map_accesses(s, &name, |mut idxs| {
            if dim < idxs.len() {
                let shifted = simplify_expr(&(idxs[dim].clone() - offset.clone()), &Context::new());
                idxs[dim] = if fold {
                    shifted % size.clone()
                } else {
                    shifted
                };
            }
            idxs
        })
    })?;
    stats::record("resize_dim");
    Ok(rw.commit())
}

/// Adds a leading dimension of extent `size` to an allocation, indexing it
/// with `index` at every access (paper: `expand_dim`). Typically used to
/// turn a per-iteration scalar into a per-lane vector before fission.
pub fn expand_dim(
    p: &ProcHandle,
    alloc: impl IntoCursor,
    size: Expr,
    index: Expr,
) -> Result<ProcHandle> {
    let c = alloc.into_cursor(p)?;
    let (path, name, _, _, _) = alloc_parts(&c)?;
    if let Some(v) = size.as_int() {
        expect_positive(v, "expand_dim size")?;
    }
    let mut rw = Rewrite::new(p);
    rw.modify_stmt(&path, |s| {
        if let Stmt::Alloc { dims, .. } = s {
            dims.insert(0, size.clone());
        }
    })?;
    for_scope_after(&mut rw, &path, 1, &name, |s| {
        map_accesses(s, &name, |mut idxs| {
            idxs.insert(0, index.clone());
            idxs
        })
    })?;
    stats::record("expand_dim");
    Ok(rw.commit())
}

/// Permutes the dimensions of an allocation (paper: `rearrange_dim`).
/// `perm[i]` gives the old dimension that becomes new dimension `i`.
pub fn rearrange_dim(p: &ProcHandle, alloc: impl IntoCursor, perm: &[usize]) -> Result<ProcHandle> {
    let c = alloc.into_cursor(p)?;
    let (path, name, _, dims, _) = alloc_parts(&c)?;
    if perm.len() != dims.len() || {
        let mut sorted = perm.to_vec();
        sorted.sort_unstable();
        sorted != (0..dims.len()).collect::<Vec<_>>()
    } {
        return Err(SchedError::scheduling(format!(
            "`{perm:?}` is not a permutation of the {} dimensions of `{name}`",
            dims.len()
        )));
    }
    let mut rw = Rewrite::new(p);
    rw.modify_stmt(&path, |s| {
        if let Stmt::Alloc { dims, .. } = s {
            *dims = perm.iter().map(|&i| dims[i].clone()).collect();
        }
    })?;
    for_scope_after(&mut rw, &path, 1, &name, |s| {
        map_accesses(s, &name, |idxs| {
            if idxs.len() == perm.len() {
                perm.iter().map(|&i| idxs[i].clone()).collect()
            } else {
                idxs
            }
        })
    })?;
    stats::record("rearrange_dim");
    Ok(rw.commit())
}

/// Splits one constant-sized dimension of an allocation into two (paper:
/// `divide_dim`).
pub fn divide_dim(
    p: &ProcHandle,
    alloc: impl IntoCursor,
    dim: usize,
    factor: i64,
) -> Result<ProcHandle> {
    let c = alloc.into_cursor(p)?;
    let (path, name, _, dims, _) = alloc_parts(&c)?;
    expect_positive(factor, "divide_dim factor")?;
    let size = expect_const(
        dims.get(dim)
            .ok_or_else(|| SchedError::scheduling("dimension out of range"))?,
        "divide_dim dimension size",
    )?;
    if size % factor != 0 {
        return Err(SchedError::scheduling(format!(
            "dimension {dim} of `{name}` has size {size}, not divisible by {factor}"
        )));
    }
    let mut rw = Rewrite::new(p);
    rw.modify_stmt(&path, |s| {
        if let Stmt::Alloc { dims, .. } = s {
            dims[dim] = ib(size / factor);
            dims.insert(dim + 1, ib(factor));
        }
    })?;
    for_scope_after(&mut rw, &path, 1, &name, |s| {
        map_accesses(s, &name, |mut idxs| {
            if dim < idxs.len() {
                let e = idxs[dim].clone();
                idxs[dim] = e.clone() / ib(factor);
                idxs.insert(dim + 1, e % ib(factor));
            }
            idxs
        })
    })?;
    stats::record("divide_dim");
    Ok(rw.commit())
}

/// Fuses dimension `dim2` (of constant extent) into dimension `dim`
/// (paper: `mult_dim`).
pub fn mult_dim(
    p: &ProcHandle,
    alloc: impl IntoCursor,
    dim: usize,
    dim2: usize,
) -> Result<ProcHandle> {
    let c = alloc.into_cursor(p)?;
    let (path, name, _, dims, _) = alloc_parts(&c)?;
    if dim == dim2 || dim >= dims.len() || dim2 >= dims.len() {
        return Err(SchedError::scheduling(
            "mult_dim requires two distinct valid dimensions",
        ));
    }
    let c2 = expect_const(&dims[dim2], "mult_dim merged dimension")?;
    let mut rw = Rewrite::new(p);
    rw.modify_stmt(&path, |s| {
        if let Stmt::Alloc { dims, .. } = s {
            dims[dim] = exo_analysis::simplify_expr(&(dims[dim].clone() * ib(c2)), &Context::new());
            dims.remove(dim2);
        }
    })?;
    for_scope_after(&mut rw, &path, 1, &name, |s| {
        map_accesses(s, &name, |mut idxs| {
            if dim < idxs.len() && dim2 < idxs.len() {
                idxs[dim] = idxs[dim].clone() * ib(c2) + idxs[dim2].clone();
                idxs.remove(dim2);
            }
            idxs
        })
    })?;
    stats::record("mult_dim");
    Ok(rw.commit())
}

/// Splits a buffer with a constant-extent dimension indexed only by
/// constants into separate scalar buffers (paper: `unroll_buffer`).
pub fn unroll_buffer(p: &ProcHandle, alloc: impl IntoCursor, dim: usize) -> Result<ProcHandle> {
    let c = alloc.into_cursor(p)?;
    let (path, name, ty, dims, mem) = alloc_parts(&c)?;
    let size = expect_const(
        dims.get(dim)
            .ok_or_else(|| SchedError::scheduling("dimension out of range"))?,
        "unroll_buffer dimension size",
    )?;
    let size = expect_positive(size, "unroll_buffer dimension size")?;
    let mut remaining = dims.clone();
    remaining.remove(dim);
    let news: Vec<Stmt> = (0..size)
        .map(|k| Stmt::Alloc {
            name: Sym::new(format!("{name}_{k}")),
            ty,
            dims: remaining.clone(),
            mem: mem.clone(),
        })
        .collect();
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 1, news)?;
    // The replacement put `size` statements where the allocation was; the
    // buffer's scope starts after them.
    for_scope_after(&mut rw, &path, size as usize, &name, |s| {
        rewrite_uses(s, &name, |u| {
            // Every use must select the unrolled dimension with a constant;
            // it then names the split buffer and drops that dimension.
            let constant =
                |e: Option<&Expr>| e.and_then(Expr::as_int).filter(|k| (0..size).contains(k));
            let split = match u {
                Use::Index(b, idx) => constant(idx.get(dim)).map(|k| {
                    idx.remove(dim);
                    (b, k)
                }),
                Use::Window(b, widx) => match widx.get(dim) {
                    Some(WAccess::Point(e)) => constant(Some(e)),
                    _ => None,
                }
                .map(|k| {
                    widx.remove(dim);
                    (b, k)
                }),
                Use::Name(_) => None,
            };
            let (b, k) = split.ok_or_else(|| {
                SchedError::scheduling(format!(
                    "`{name}` is indexed non-constantly along dimension {dim}; cannot unroll"
                ))
            })?;
            *b = Sym::new(format!("{name}_{k}"));
            Ok(())
        })
    })?;
    stats::record("unroll_buffer");
    Ok(rw.commit())
}

/// Binds an expression occurrence to a fresh scalar temporary allocated and
/// assigned immediately before the enclosing statement (paper:
/// `bind_expr`).
pub fn bind_expr(
    p: &ProcHandle,
    expr: &Cursor,
    new_name: &str,
    ty: DataType,
) -> Result<ProcHandle> {
    let c = p.forward(expr)?;
    let CursorPath::Node { stmt, expr: steps } = c.path().clone() else {
        return Err(SchedError::scheduling(
            "bind_expr requires an expression cursor",
        ));
    };
    if steps.is_empty() {
        return Err(SchedError::scheduling(
            "bind_expr requires an expression cursor",
        ));
    }
    let value = c.expr()?.clone();
    let name = Sym::new(new_name);
    let mut rw = Rewrite::new(p);
    let mut replaced = false;
    rw.modify_stmt(&stmt, |s| {
        replaced = crate::rearrange::modify_expr_in_stmt(s, &steps, |e| {
            *e = Expr::Read {
                buf: name.clone(),
                idx: vec![],
            };
        });
    })?;
    if !replaced {
        return Err(SchedError::scheduling("expression path no longer resolves"));
    }
    rw.insert(
        &stmt,
        vec![
            Stmt::Alloc {
                name: name.clone(),
                ty,
                dims: vec![],
                mem: Mem::Dram,
            },
            Stmt::Assign {
                buf: name,
                idx: vec![],
                rhs: value,
            },
        ],
    )?;
    stats::record("bind_expr");
    Ok(rw.commit())
}

/// Stages all accesses to `buf` within the target statement(s) through a
/// new buffer covering the given per-dimension window `[lo, hi)` (paper:
/// `stage_mem`). Inserts copy-in loops before the target and, when the
/// target writes the buffer, copy-out loops after it.
///
/// # Errors
/// Fails unless the target's accesses to `buf` are provably contained in
/// the window.
pub fn stage_mem(
    p: &ProcHandle,
    target: impl IntoCursor,
    buf: &str,
    window: &[(Expr, Expr)],
    new_name: &str,
) -> Result<ProcHandle> {
    let c = target.into_cursor(p)?;
    let (path, count, stmts) = match c.path().clone() {
        CursorPath::Node { stmt, .. } => (stmt, 1usize, vec![c.stmt()?.clone()]),
        CursorPath::Block { stmt, len } => (
            stmt,
            len,
            c.stmts()?.into_iter().cloned().collect::<Vec<_>>(),
        ),
        _ => {
            return Err(SchedError::scheduling(
                "stage_mem requires a statement or block cursor",
            ))
        }
    };
    let buf_sym = Sym::new(buf);
    let ctx = Context::at(p.proc(), &path);
    // Containment check through bounds inference over a wrapper statement.
    let wrapper = Stmt::If {
        cond: Expr::Bool(true),
        then_body: Block::from_stmts(stmts.clone()),
        else_body: Block::new(),
    };
    let bounds = infer_bounds(&wrapper, &buf_sym, &ctx).map_err(|why| {
        SchedError::scheduling(format!(
            "cannot infer the accessed window of `{buf}` in the staged region: {why}"
        ))
    })?;
    if bounds.dims.len() != window.len() {
        return Err(SchedError::scheduling(format!(
            "window rank {} does not match `{buf}` access rank {}",
            window.len(),
            bounds.dims.len()
        )));
    }
    for (d, ((alo, ahi), (wlo, whi))) in bounds.dims.iter().zip(window.iter()).enumerate() {
        if !(ctx.proves_le(wlo, alo) || exo_analysis::provably_equal(wlo, alo)) {
            return Err(SchedError::scheduling(format!(
                "cannot prove window lower bound {wlo} <= accessed lower bound {alo} in dim {d}"
            )));
        }
        if !(ctx.proves_le(ahi, whi) || exo_analysis::provably_equal(ahi, whi)) {
            return Err(SchedError::scheduling(format!(
                "cannot prove accessed upper bound {ahi} <= window upper bound {whi} in dim {d}"
            )));
        }
    }
    // Element type from the declaration of `buf`.
    let ty = p.proc().arg_type(buf).unwrap_or(DataType::F32);
    let extents: Vec<Expr> = window
        .iter()
        .map(|(lo, hi)| simplify_expr(&(hi.clone() - lo.clone()), &ctx))
        .collect();
    let new_sym = Sym::new(new_name);
    // Copy-in loop nest: new[k...] = buf[lo + k ...].
    let iters: Vec<Sym> = (0..window.len())
        .map(|d| Sym::new(format!("k{d}")))
        .collect();
    let copy = |dst_is_new: bool| -> Stmt {
        let dst_idx: Vec<Expr> = iters.iter().map(|k| var(k.clone())).collect();
        let src_idx: Vec<Expr> = window
            .iter()
            .zip(iters.iter())
            .map(|((lo, _), k)| simplify_expr(&(lo.clone() + var(k.clone())), &ctx))
            .collect();
        let mut inner: Stmt = if dst_is_new {
            Stmt::Assign {
                buf: new_sym.clone(),
                idx: dst_idx.clone(),
                rhs: Expr::Read {
                    buf: buf_sym.clone(),
                    idx: src_idx.clone(),
                },
            }
        } else {
            Stmt::Assign {
                buf: buf_sym.clone(),
                idx: src_idx,
                rhs: Expr::Read {
                    buf: new_sym.clone(),
                    idx: dst_idx,
                },
            }
        };
        for d in (0..window.len()).rev() {
            inner = mk_for(iters[d].clone(), ib(0), extents[d].clone(), vec![inner]);
        }
        inner
    };
    let writes_buf = exo_analysis::Effects::of_stmts(stmts.iter())
        .buffers_written()
        .contains(&buf_sym);

    let mut rw = Rewrite::new(p);
    // Rewrite accesses inside the target to the staged buffer.
    let start = index_in_block(&path)?;
    for i in start..start + count {
        try_modify_stmt(&mut rw, &sibling(&path, i)?, |s| {
            map_accesses(s, &buf_sym, |idxs| {
                idxs.iter()
                    .zip(window.iter())
                    .map(|(e, (lo, _))| simplify_expr(&(e.clone() - lo.clone()), &ctx))
                    .collect()
            })?;
            rename_buffer_stmt(s, &buf_sym, &new_sym);
            Ok(())
        })?;
    }
    // Copy-out after the target (inserted first so the pre-target insertion
    // below does not shift its position incorrectly).
    if writes_buf {
        rw.insert(&sibling(&path, start + count)?, vec![copy(false)])?;
    }
    // Allocation + copy-in before the target.
    rw.insert(
        &path,
        vec![
            Stmt::Alloc {
                name: new_sym.clone(),
                ty,
                dims: extents.clone(),
                mem: Mem::Dram,
            },
            copy(true),
        ],
    )?;
    stats::record("stage_mem");
    Ok(rw.commit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{fb, read, ProcBuilder};

    fn vec_kernel() -> ProcHandle {
        ProcHandle::new(
            ProcBuilder::new("k")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
                .assert_(Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)))
                .for_("io", ib(0), var("n") / ib(8), |b| {
                    b.for_("ii", ib(0), ib(8), |b| {
                        b.alloc("t", DataType::F32, vec![], Mem::Dram);
                        b.assign(
                            "t",
                            vec![],
                            b.read("x", vec![ib(8) * var("io") + var("ii")]),
                        );
                        b.assign(
                            "y",
                            vec![ib(8) * var("io") + var("ii")],
                            read("t", vec![]) * fb(2.0),
                        );
                    });
                })
                .build(),
        )
    }

    #[test]
    fn expand_and_lift_alloc_prepare_for_fission() {
        let p = vec_kernel();
        let p = expand_dim(&p, "t: _", ib(8), var("ii")).unwrap();
        let s = p.to_string();
        assert!(s.contains("t: f32[8]"), "{s}");
        assert!(s.contains("t[ii] ="), "{s}");
        let p = lift_alloc(&p, "t: _", 1).unwrap();
        let s = p.to_string();
        // The alloc now sits in the io loop, before the ii loop.
        let alloc_pos = s.find("t: f32[8]").unwrap();
        let ii_pos = s.find("for ii in").unwrap();
        assert!(alloc_pos < ii_pos, "{s}");
        // Now the ii loop can be fissioned between the two statements.
        let gap = p.find("t[_] = _").unwrap().after().unwrap();
        let p = crate::fission(&p, &gap, 1).unwrap();
        assert_eq!(p.find_loop_many("ii").unwrap().len(), 2);
    }

    #[test]
    fn lift_alloc_rejects_iterator_dependent_dims() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .size_arg("n")
                .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
                .for_("i", ib(0), var("n"), |b| {
                    b.alloc("t", DataType::F32, vec![var("i") + ib(1)], Mem::Dram);
                    b.assign("y", vec![var("i")], fb(0.0));
                })
                .build(),
        );
        assert!(lift_alloc(&p, "t: _", 1).is_err());
    }

    #[test]
    fn sink_delete_and_reuse_buffers() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .size_arg("n")
                .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
                .with_body(|b| {
                    b.alloc("t", DataType::F32, vec![ib(4)], Mem::Dram);
                    b.for_("i", ib(0), var("n"), |b| {
                        b.assign("t", vec![ib(0)], fb(1.0));
                        b.assign("y", vec![var("i")], read("t", vec![ib(0)]));
                    });
                    b.alloc("dead", DataType::F32, vec![ib(4)], Mem::Dram);
                    b.alloc("u", DataType::F32, vec![ib(4)], Mem::Dram);
                    b.assign("u", vec![ib(1)], fb(2.0));
                    b.assign("y", vec![ib(0)], read("u", vec![ib(1)]));
                })
                .build(),
        );
        // `t` is only used inside the loop: sink it.
        let p2 = sink_alloc(&p, "t: _").unwrap();
        let s = p2.to_string();
        assert!(
            s.find("for i in").unwrap() < s.find("t: f32[4]").unwrap(),
            "{s}"
        );
        // `dead` is unused: delete it. `u` can reuse `t`'s storage.
        let p3 = delete_buffer(&p2, "dead: _").unwrap();
        assert!(!p3.to_string().contains("dead"));
        assert!(delete_buffer(&p2, "u: _").is_err());
        // reuse_buffer: `u` reuses `y`-sized buffer? ranks differ from t, so
        // build a fresh case.
        let p4 = ProcHandle::new(
            ProcBuilder::new("r")
                .tensor_arg("out", DataType::F32, vec![ib(4)], Mem::Dram)
                .with_body(|b| {
                    b.alloc("a", DataType::F32, vec![ib(4)], Mem::Dram);
                    b.assign("a", vec![ib(0)], fb(1.0));
                    b.assign("out", vec![ib(0)], read("a", vec![ib(0)]));
                    b.alloc("b", DataType::F32, vec![ib(4)], Mem::Dram);
                    b.assign("b", vec![ib(1)], fb(2.0));
                    b.assign("out", vec![ib(1)], read("b", vec![ib(1)]));
                })
                .build(),
        );
        let p5 = reuse_buffer(&p4, "a", "b: _").unwrap();
        let s = p5.to_string();
        assert!(!s.contains("b: f32[4]"), "{s}");
        assert!(s.contains("a[1] = 2.0"), "{s}");
    }

    #[test]
    fn dim_reshaping_ops() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .tensor_arg("y", DataType::F32, vec![ib(12)], Mem::Dram)
                .with_body(|b| {
                    b.alloc("t", DataType::F32, vec![ib(12), ib(4)], Mem::Dram);
                    b.for_("i", ib(0), ib(12), |b| {
                        b.assign("t", vec![var("i"), ib(2)], fb(1.0));
                        b.assign("y", vec![var("i")], read("t", vec![var("i"), ib(2)]));
                    });
                })
                .build(),
        );
        let p2 = divide_dim(&p, "t: _", 0, 4).unwrap();
        let s = p2.to_string();
        assert!(s.contains("t: f32[3, 4, 4]"), "{s}");
        assert!(s.contains("t[i / 4, i % 4, 2]"), "{s}");
        let p3 = rearrange_dim(&p, "t: _", &[1, 0]).unwrap();
        assert!(p3.to_string().contains("t: f32[4, 12]"));
        assert!(p3.to_string().contains("t[2, i]"));
        assert!(rearrange_dim(&p, "t: _", &[0, 0]).is_err());
        let p4 = mult_dim(&p, "t: _", 0, 1).unwrap();
        assert!(p4.to_string().contains("t: f32[48]"), "{}", p4.to_string());
        assert!(
            p4.to_string().contains("t[i * 4 + 2]"),
            "{}",
            p4.to_string()
        );
        let p5 = resize_dim(&p, "t: _", 0, ib(16), ib(-2), false).unwrap();
        assert!(
            p5.to_string().contains("t: f32[16, 4]"),
            "{}",
            p5.to_string()
        );
        assert!(
            p5.to_string().contains("i + 2") || p5.to_string().contains("2 + i"),
            "{}",
            p5.to_string()
        );
    }

    #[test]
    fn unroll_buffer_splits_constant_indexed_dims() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .tensor_arg("y", DataType::F32, vec![ib(4)], Mem::Dram)
                .with_body(|b| {
                    b.alloc("t", DataType::F32, vec![ib(2)], Mem::Dram);
                    b.assign("t", vec![ib(0)], fb(1.0));
                    b.assign("t", vec![ib(1)], fb(2.0));
                    b.assign(
                        "y",
                        vec![ib(0)],
                        read("t", vec![ib(0)]) + read("t", vec![ib(1)]),
                    );
                })
                .build(),
        );
        let p2 = unroll_buffer(&p, "t: _", 0).unwrap();
        let s = p2.to_string();
        assert!(s.contains("t_0: f32 @") && s.contains("t_1: f32 @"), "{s}");
        assert!(s.contains("t_0 + t_1") || s.contains("t_0 = 1.0"), "{s}");
    }

    #[test]
    fn bind_expr_introduces_a_temporary() {
        let p = vec_kernel();
        let rhs = p.find("y[_] = _").unwrap().rhs().unwrap();
        let p2 = bind_expr(&p, &rhs, "staged", DataType::F32).unwrap();
        let s = p2.to_string();
        assert!(s.contains("staged: f32 @ DRAM"), "{s}");
        assert!(s.contains("staged = t * 2.0"), "{s}");
        assert!(s.contains("= staged"), "{s}");
    }

    #[test]
    fn stage_mem_inserts_copy_loops_and_rewrites_accesses() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .size_arg("n")
                .tensor_arg("A", DataType::F32, vec![ib(64), ib(64)], Mem::Dram)
                .tensor_arg("y", DataType::F32, vec![ib(64)], Mem::Dram)
                .for_("i", ib(0), ib(16), |b| {
                    b.reduce("y", vec![var("i")], read("A", vec![var("i"), var("i")]));
                })
                .build(),
        );
        let p2 = stage_mem(&p, "i", "A", &[(ib(0), ib(16)), (ib(0), ib(16))], "A_tile").unwrap();
        let s = p2.to_string();
        assert!(s.contains("A_tile: f32[16, 16]"), "{s}");
        assert!(
            s.contains("A_tile[k0, k1] = A[k0, k1]")
                || s.contains("A_tile[k0, k1] = A[0 + k0, 0 + k1]"),
            "{s}"
        );
        assert!(s.contains("y[i] += A_tile[i, i]"), "{s}");
        // Staging with a window that is too small is rejected.
        assert!(stage_mem(&p, "i", "A", &[(ib(0), ib(8)), (ib(0), ib(16))], "A_t").is_err());
    }
}
