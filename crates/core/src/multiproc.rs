//! Multi-procedure primitives (paper Appendix A.4): `inline`, `replace`
//! (instruction selection by unification), `call_eqv`, `extract_subproc`,
//! and `rename`.

use crate::error::SchedError;
use crate::helpers::{stmt_path_of, IntoCursor};
use crate::uses::inline_window_uses;
use crate::{stats, Result};
use exo_analysis::provably_equal;
use exo_cursors::{CursorPath, ProcHandle, Rewrite};
use exo_ir::{substitute_block, ArgKind, Block, Expr, Proc, ProcArg, Stmt, Sym, WAccess};
use std::collections::HashMap;

/// Renames a procedure (paper: `rename`).
pub fn rename(p: &ProcHandle, new_name: &str) -> Result<ProcHandle> {
    let mut rw = Rewrite::new(p);
    rw.modify_proc(|proc| *proc = proc.clone().with_name(new_name));
    stats::record("rename");
    Ok(rw.commit())
}

/// Inlines a call site, substituting the callee's body with arguments
/// bound (paper: `inline`). The callee definition must be supplied
/// (procedure registries live outside the scheduling layer).
pub fn inline_call(p: &ProcHandle, call: impl IntoCursor, callee: &Proc) -> Result<ProcHandle> {
    let c = call.into_cursor(p)?;
    let Stmt::Call { proc: name, args } = c.stmt()?.clone() else {
        return Err(SchedError::scheduling("inline requires a call statement"));
    };
    if name != callee.name() {
        return Err(SchedError::scheduling(format!(
            "call site names `{name}` but the supplied procedure is `{}`",
            callee.name()
        )));
    }
    if args.len() != callee.args().len() {
        return Err(SchedError::scheduling(
            "argument count mismatch at the call site",
        ));
    }
    let mut body = callee.body().clone();
    for (arg, actual) in callee.args().iter().zip(args.iter()) {
        body = bind_argument(body, arg, actual)?;
    }
    let path = stmt_path_of(&c)?;
    let mut rw = Rewrite::new(p);
    rw.replace(&path, 1, body.into_stmts())?;
    stats::record("inline");
    Ok(rw.commit())
}

fn bind_argument(mut body: Block, arg: &ProcArg, actual: &Expr) -> Result<Block> {
    match (&arg.kind, actual) {
        (ArgKind::Size | ArgKind::Scalar { .. }, _) => {
            Ok(substitute_block(body, &arg.name, actual))
        }
        // Whole-buffer argument: a plain rename.
        (ArgKind::Tensor { .. }, Expr::Var(buf)) => Ok(body
            .into_stmts()
            .into_iter()
            .map(|s| exo_ir::rename_sym(s, &arg.name, buf))
            .collect()),
        (ArgKind::Tensor { .. }, Expr::Window { buf, idx }) => {
            inline_window_uses(&mut body, &arg.name, buf, idx)?;
            Ok(body)
        }
        (ArgKind::Tensor { .. }, other) => Err(SchedError::scheduling(format!(
            "cannot inline tensor argument bound to `{other}`"
        ))),
    }
}

/// Replaces a call to one procedure with a call to an equivalent procedure
/// (paper: `call_eqv`). Equivalence is the caller's responsibility in Exo
/// (procedures scheduled from the same original are equivalent by
/// construction); here we check the argument counts agree.
pub fn call_eqv(p: &ProcHandle, call: impl IntoCursor, equivalent: &Proc) -> Result<ProcHandle> {
    let c = call.into_cursor(p)?;
    let Stmt::Call { args, .. } = c.stmt()?.clone() else {
        return Err(SchedError::scheduling("call_eqv requires a call statement"));
    };
    if args.len() != equivalent.args().len() {
        return Err(SchedError::scheduling(format!(
            "`{}` takes {} arguments but the call site passes {}",
            equivalent.name(),
            equivalent.args().len(),
            args.len()
        )));
    }
    let path = stmt_path_of(&c)?;
    let name = equivalent.name().to_string();
    let mut rw = Rewrite::new(p);
    rw.modify_stmt(&path, |s| {
        if let Stmt::Call { proc, .. } = s {
            *proc = name.clone();
        }
    })?;
    stats::record("call_eqv");
    Ok(rw.commit())
}

/// Extracts a statement (or block) into a new procedure and replaces it
/// with a call (paper: `extract_subproc`). Returns the rewritten procedure
/// handle together with the extracted procedure.
pub fn extract_subproc(
    p: &ProcHandle,
    target: impl IntoCursor,
    name: &str,
) -> Result<(ProcHandle, Proc)> {
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
                "extract_subproc requires a statement or block cursor",
            ))
        }
    };
    // Free symbols of the block become arguments: procedure arguments are
    // passed through; enclosing loop iterators become size arguments.
    let eff = exo_analysis::Effects::of_stmts(stmts.iter());
    let mut args: Vec<ProcArg> = Vec::new();
    let mut call_args: Vec<Expr> = Vec::new();
    let mut seen: Vec<Sym> = Vec::new();
    let add = |sym: &Sym,
               kind: ArgKind,
               args: &mut Vec<ProcArg>,
               call_args: &mut Vec<Expr>,
               seen: &mut Vec<Sym>| {
        if seen.contains(sym) {
            return;
        }
        seen.push(sym.clone());
        args.push(ProcArg {
            name: sym.clone(),
            kind,
        });
        call_args.push(Expr::Var(sym.clone()));
    };
    // Buffers first (tensor args), then scalars mentioned in expressions.
    for buf in eff
        .buffers_read()
        .iter()
        .chain(eff.buffers_written().iter())
    {
        if eff.allocs.contains(buf) {
            continue;
        }
        if let Some(arg) = p.proc().arg(buf.name()) {
            add(buf, arg.kind.clone(), &mut args, &mut call_args, &mut seen);
        }
    }
    let mut scalars: Vec<Sym> = Vec::new();
    for s in &stmts {
        exo_ir::for_each_expr(s, &mut |e| {
            if let Expr::Var(v) = e {
                if !scalars.contains(v) {
                    scalars.push(v.clone());
                }
            }
        });
    }
    // Iterators bound inside the block are not free.
    let bound: Vec<Sym> = {
        let mut out = Vec::new();
        for s in &stmts {
            exo_ir::for_each_stmt(s, &mut |st| {
                if let Stmt::For { iter, .. } = st {
                    out.push(iter.clone());
                }
                if let Stmt::Alloc { name, .. } = st {
                    out.push(name.clone());
                }
            });
        }
        out
    };
    for v in scalars {
        if bound.contains(&v) || seen.contains(&v) {
            continue;
        }
        let kind = match p.proc().arg(v.name()) {
            Some(arg) => arg.kind.clone(),
            None => ArgKind::Size, // enclosing loop iterators and sizes
        };
        add(&v, kind, &mut args, &mut call_args, &mut seen);
    }
    let new_proc = Proc::new(name, args, Vec::new(), Block::from_stmts(stmts));
    let mut rw = Rewrite::new(p);
    rw.replace(
        &path,
        count,
        vec![Stmt::Call {
            proc: name.to_string(),
            args: call_args,
        }],
    )?;
    stats::record("extract_subproc");
    Ok((rw.commit(), new_proc))
}

// ---------------------------------------------------------------------
// `replace`: instruction selection by unification.
// ---------------------------------------------------------------------

#[derive(Default, Debug)]
struct Unifier {
    iter_map: HashMap<Sym, Sym>,
    scalar_bind: HashMap<Sym, Expr>,
    /// instr tensor arg -> (target buffer, leading point indices, per-dim offsets)
    buffer_bind: HashMap<Sym, (Sym, Vec<Expr>, Vec<Expr>)>,
}

impl Unifier {
    fn map_expr(&self, e: &Expr) -> Expr {
        let mut out = e.clone();
        for (from, to) in &self.iter_map {
            out = exo_ir::substitute_expr(out, from, &Expr::Var(to.clone()));
        }
        for (from, val) in &self.scalar_bind {
            out = exo_ir::substitute_expr(out, from, val);
        }
        out
    }

    fn bind_scalar(&mut self, name: &Sym, value: &Expr) -> bool {
        // The bound expression must not depend on instruction-local iterators.
        for target_iter in self.iter_map.values() {
            if value.mentions(target_iter) {
                return false;
            }
        }
        match self.scalar_bind.get(name) {
            Some(existing) => provably_equal(existing, value),
            None => {
                self.scalar_bind.insert(name.clone(), value.clone());
                true
            }
        }
    }

    fn bind_buffer(
        &mut self,
        instr: &Proc,
        name: &Sym,
        instr_idx: &[Expr],
        tgt_buf: &Sym,
        tgt_idx: &[Expr],
    ) -> bool {
        let Some(arg) = instr.arg(name.name()) else {
            return false;
        };
        let ArgKind::Tensor { dims, .. } = &arg.kind else {
            return false;
        };
        let rank = dims.len();
        if instr_idx.len() != rank || tgt_idx.len() < rank {
            return false;
        }
        let leading = tgt_idx.len() - rank;
        let lead_exprs: Vec<Expr> = tgt_idx[..leading].to_vec();
        let ctx = exo_analysis::Context::new();
        let mut offsets = Vec::with_capacity(rank);
        for d in 0..rank {
            let mapped = self.map_expr(&instr_idx[d]);
            offsets.push(exo_analysis::simplify_expr(
                &(tgt_idx[leading + d].clone() - mapped),
                &ctx,
            ));
        }
        // Window offsets and leading point indices must be invariant in the
        // instruction's (mapped) loop iterators — otherwise the derived
        // call argument would reference an out-of-scope iterator.
        for target_iter in self.iter_map.values() {
            if offsets
                .iter()
                .chain(lead_exprs.iter())
                .any(|e| e.mentions(target_iter))
            {
                return false;
            }
        }
        match self.buffer_bind.get(name) {
            Some((b, lead, offs)) => {
                b == tgt_buf
                    && lead.len() == lead_exprs.len()
                    && lead
                        .iter()
                        .zip(lead_exprs.iter())
                        .all(|(a, b)| provably_equal(a, b))
                    && offs
                        .iter()
                        .zip(offsets.iter())
                        .all(|(a, b)| provably_equal(a, b))
            }
            None => {
                self.buffer_bind
                    .insert(name.clone(), (tgt_buf.clone(), lead_exprs, offsets));
                true
            }
        }
    }

    fn unify_expr(&mut self, instr: &Proc, ie: &Expr, te: &Expr) -> bool {
        match (ie, te) {
            (Expr::Read { buf, idx }, Expr::Read { buf: tb, idx: tidx })
                if instr.arg(buf.name()).is_some() =>
            {
                self.bind_buffer(instr, buf, idx, tb, tidx)
            }
            (Expr::Var(v), _)
                if matches!(
                    instr.arg(v.name()).map(|a| &a.kind),
                    Some(ArgKind::Scalar { .. }) | Some(ArgKind::Size)
                ) =>
            {
                self.bind_scalar(v, te)
            }
            (Expr::Var(v), Expr::Var(t)) => self.iter_map.get(v) == Some(t) || v == t,
            (Expr::Int(a), Expr::Int(b)) => a == b,
            (Expr::Float(a), Expr::Float(b)) => a == b,
            (
                Expr::Bin {
                    op: o1,
                    lhs: l1,
                    rhs: r1,
                },
                Expr::Bin {
                    op: o2,
                    lhs: l2,
                    rhs: r2,
                },
            ) => o1 == o2 && self.unify_expr(instr, l1, l2) && self.unify_expr(instr, r1, r2),
            (Expr::Un { op: o1, arg: a1 }, Expr::Un { op: o2, arg: a2 }) => {
                o1 == o2 && self.unify_expr(instr, a1, a2)
            }
            _ => false,
        }
    }

    fn unify_stmts(&mut self, instr: &Proc, istmts: &Block, tstmts: &Block) -> bool {
        istmts.len() == tstmts.len()
            && istmts
                .iter()
                .zip(tstmts)
                .all(|(i, t)| self.unify_stmt(instr, i, t))
    }

    fn unify_stmt(&mut self, instr: &Proc, istmt: &Stmt, tstmt: &Stmt) -> bool {
        match (istmt, tstmt) {
            (
                Stmt::For {
                    iter: ii,
                    lo: ilo,
                    hi: ihi,
                    body: ib_,
                    ..
                },
                Stmt::For {
                    iter: ti,
                    lo: tlo,
                    hi: thi,
                    body: tb,
                    ..
                },
            ) => {
                if !provably_equal(&self.map_expr(ilo), tlo) {
                    return false;
                }
                let hi_ok = match ihi {
                    Expr::Var(v)
                        if matches!(instr.arg(v.name()).map(|a| &a.kind), Some(ArgKind::Size)) =>
                    {
                        self.bind_scalar(v, thi)
                    }
                    other => provably_equal(&self.map_expr(other), thi),
                };
                if !hi_ok {
                    return false;
                }
                self.iter_map.insert(ii.clone(), ti.clone());
                self.unify_stmts(instr, ib_, tb)
            }
            (
                Stmt::Assign { buf, idx, rhs },
                Stmt::Assign {
                    buf: tb,
                    idx: tidx,
                    rhs: trhs,
                },
            )
            | (
                Stmt::Reduce { buf, idx, rhs },
                Stmt::Reduce {
                    buf: tb,
                    idx: tidx,
                    rhs: trhs,
                },
            ) => {
                if std::mem::discriminant(istmt) != std::mem::discriminant(tstmt) {
                    return false;
                }
                self.bind_buffer(instr, buf, idx, tb, tidx) && self.unify_expr(instr, rhs, trhs)
            }
            (
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                },
                Stmt::If {
                    cond: tc,
                    then_body: tt,
                    else_body: te,
                },
            ) => {
                self.unify_expr(instr, cond, tc)
                    && self.unify_stmts(instr, then_body, tt)
                    && self.unify_stmts(instr, else_body, te)
            }
            (Stmt::Pass, Stmt::Pass) => true,
            _ => false,
        }
    }

    fn call_args(&self, instr: &Proc) -> Option<Vec<Expr>> {
        let mut args = Vec::new();
        for arg in instr.args() {
            match &arg.kind {
                ArgKind::Size | ArgKind::Scalar { .. } => {
                    args.push(self.scalar_bind.get(&arg.name)?.clone());
                }
                ArgKind::Tensor { dims, .. } => {
                    let (buf, lead, offsets) = self.buffer_bind.get(&arg.name)?;
                    let ctx = exo_analysis::Context::new();
                    let mut widx: Vec<WAccess> =
                        lead.iter().map(|e| WAccess::Point(e.clone())).collect();
                    for (off, dim) in offsets.iter().zip(dims.iter()) {
                        let size = self.map_expr(dim);
                        widx.push(WAccess::Interval(
                            off.clone(),
                            exo_analysis::simplify_expr(&(off.clone() + size), &ctx),
                        ));
                    }
                    args.push(Expr::Window {
                        buf: buf.clone(),
                        idx: widx,
                    });
                }
            }
        }
        Some(args)
    }
}

/// Whether two statements agree on the *skeleton* the unifier requires:
/// the same statement kinds with the same child-block lengths, recursively.
/// Every `Unifier::unify_stmt` arm demands this, so a skeleton mismatch
/// proves unification would fail — without building any bindings.
fn skeleton_matches(a: &Stmt, b: &Stmt) -> bool {
    fn blocks_match(a: &Block, b: &Block) -> bool {
        a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| skeleton_matches(x, y))
    }
    match (a, b) {
        (Stmt::For { body: ab, .. }, Stmt::For { body: bb, .. }) => blocks_match(ab, bb),
        (
            Stmt::If {
                then_body: at,
                else_body: ae,
                ..
            },
            Stmt::If {
                then_body: bt,
                else_body: be,
                ..
            },
        ) => blocks_match(at, bt) && blocks_match(ae, be),
        (Stmt::Assign { .. }, Stmt::Assign { .. })
        | (Stmt::Reduce { .. }, Stmt::Reduce { .. })
        | (Stmt::Pass, Stmt::Pass) => true,
        _ => false,
    }
}

/// Unifies the statement at the cursor against an instruction procedure's
/// body and, on success, replaces it with a call to that instruction
/// (paper: `replace`).
pub fn replace(p: &ProcHandle, target: impl IntoCursor, instr: &Proc) -> Result<ProcHandle> {
    let c = target.into_cursor(p)?;
    // Unify against the borrowed statement — `replace_all` calls this for
    // every (candidate, instruction) pair, so cloning the candidate's
    // whole subtree per attempt would dominate the scan.
    let args = {
        let tstmt = c.stmt()?;
        // Cheap structural pre-screen before the binding unifier runs.
        if instr.body().len() != 1 || !skeleton_matches(&instr.body()[0], tstmt) {
            return Err(SchedError::scheduling(format!(
                "statement does not unify with instruction `{}`",
                instr.name()
            )));
        }
        let mut u = Unifier::default();
        if !u.unify_stmt(instr, &instr.body()[0], tstmt) {
            return Err(SchedError::scheduling(format!(
                "statement does not unify with instruction `{}`",
                instr.name()
            )));
        }
        u.call_args(instr).ok_or_else(|| {
            SchedError::scheduling(format!(
                "could not derive all arguments for instruction `{}`",
                instr.name()
            ))
        })?
    };
    let path = stmt_path_of(&c)?;
    let mut rw = Rewrite::new(p);
    rw.replace(
        &path,
        1,
        vec![Stmt::Call {
            proc: instr.name().to_string(),
            args,
        }],
    )?;
    stats::record("replace");
    Ok(rw.commit())
}

/// Applies [`replace`] everywhere it unifies, for every instruction in the
/// list, until no more matches are found (the paper's `replace_all_stmts`).
pub fn replace_all(p: &ProcHandle, instrs: &[Proc]) -> Result<ProcHandle> {
    let mut current = p.clone();
    // One scan suffices: `replace` substitutes exactly one statement for
    // one call, so every other candidate's path — and the pre-order
    // attempt order — is unchanged by a successful replacement. Candidates
    // are forwarded to the current version on each attempt (cursors into a
    // replaced subtree forward to invalid and fail cleanly); successfully
    // replaced candidates are retired, and pre-existing calls never unify.
    let candidates: Vec<exo_cursors::Cursor> = current
        .find_all("_")
        .unwrap_or_default()
        .into_iter()
        .filter(|c| c.kind() != Some("call"))
        .collect();
    let mut alive = vec![true; candidates.len()];
    // Candidate skeletons never change while alive, so the unifier's
    // structural pre-screen is decided once per (candidate, instruction)
    // pair; later passes only attempt pairs that could possibly unify.
    let compat: Vec<Vec<bool>> = candidates
        .iter()
        .map(|cand| {
            let stmt = cand.stmt().ok();
            instrs
                .iter()
                .map(|instr| match stmt {
                    Some(s) => instr.body().len() == 1 && skeleton_matches(&instr.body()[0], s),
                    None => false,
                })
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for (j, instr) in instrs.iter().enumerate() {
            for (i, cand) in candidates.iter().enumerate() {
                if !alive[i] || !compat[i][j] {
                    continue;
                }
                // A candidate inside an already-replaced subtree forwards
                // to invalid forever (invalidity is sticky) — retire it
                // instead of re-forwarding it on every later pass.
                let fwd = match current.forward(cand) {
                    Ok(c) if !c.is_invalid() => c,
                    _ => {
                        alive[i] = false;
                        continue;
                    }
                };
                if let Ok(next) = replace(&current, &fwd, instr) {
                    current = next;
                    alive[i] = false;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            return Ok(current);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{fb, ib, read, var, DataType, Mem, ProcBuilder};

    fn vec_load_instr() -> Proc {
        ProcBuilder::new("mm256_loadu_ps")
            .window_arg("dst", DataType::F32, vec![ib(8)], Mem::VecAvx2)
            .window_arg("src", DataType::F32, vec![ib(8)], Mem::Dram)
            .instr("avx2_load")
            .with_body(|b| {
                b.for_("l", ib(0), ib(8), |b| {
                    b.assign("dst", vec![var("l")], b.read("src", vec![var("l")]));
                });
            })
            .build()
    }

    fn vec_fma_instr() -> Proc {
        ProcBuilder::new("mm256_fmadd_ps")
            .window_arg("a", DataType::F32, vec![ib(8)], Mem::VecAvx2)
            .window_arg("b", DataType::F32, vec![ib(8)], Mem::VecAvx2)
            .window_arg("c", DataType::F32, vec![ib(8)], Mem::VecAvx2)
            .instr("avx2_fma")
            .with_body(|b| {
                b.for_("l", ib(0), ib(8), |b| {
                    b.reduce(
                        "c",
                        vec![var("l")],
                        b.read("a", vec![var("l")]) * b.read("b", vec![var("l")]),
                    );
                });
            })
            .build()
    }

    fn broadcast_instr() -> Proc {
        ProcBuilder::new("mm256_set1_ps")
            .window_arg("dst", DataType::F32, vec![ib(8)], Mem::VecAvx2)
            .scalar_arg("val", DataType::F32)
            .instr("avx2_broadcast")
            .with_body(|b| {
                b.for_("l", ib(0), ib(8), |b| {
                    b.assign("dst", vec![var("l")], var("val"));
                });
            })
            .build()
    }

    #[test]
    fn replace_unifies_a_vector_load() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .with_body(|b| {
                    b.alloc("v", DataType::F32, vec![ib(8)], Mem::VecAvx2);
                    b.for_("io", ib(0), var("n") / ib(8), |b| {
                        b.for_("ii", ib(0), ib(8), |b| {
                            b.assign(
                                "v",
                                vec![var("ii")],
                                b.read("x", vec![ib(8) * var("io") + var("ii")]),
                            );
                        });
                    });
                })
                .build(),
        );
        let inner = p.find_loop("ii").unwrap();
        let p2 = replace(&p, &inner, &vec_load_instr()).unwrap();
        let s = p2.to_string();
        assert!(
            s.contains("mm256_loadu_ps(v[0:8], x[8 * io:8 * io + 8])"),
            "{s}"
        );
    }

    #[test]
    fn replace_unifies_fma_and_broadcast() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .scalar_arg("alpha", DataType::F32)
                .tensor_arg("acc", DataType::F32, vec![ib(8)], Mem::VecAvx2)
                .tensor_arg("a", DataType::F32, vec![ib(8)], Mem::VecAvx2)
                .tensor_arg("b", DataType::F32, vec![ib(8)], Mem::VecAvx2)
                .with_body(|bb| {
                    bb.alloc("bc", DataType::F32, vec![ib(8)], Mem::VecAvx2);
                    bb.for_("l", ib(0), ib(8), |b| {
                        b.assign("bc", vec![var("l")], var("alpha"));
                    });
                    bb.for_("l", ib(0), ib(8), |b| {
                        b.reduce(
                            "acc",
                            vec![var("l")],
                            read("a", vec![var("l")]) * read("b", vec![var("l")]),
                        );
                    });
                })
                .build(),
        );
        let p2 = replace_all(&p, &[broadcast_instr(), vec_fma_instr()]).unwrap();
        let s = p2.to_string();
        assert!(s.contains("mm256_set1_ps(bc[0:8], alpha)"), "{s}");
        assert!(
            s.contains("mm256_fmadd_ps(a[0:8], b[0:8], acc[0:8])"),
            "{s}"
        );
    }

    #[test]
    fn replace_rejects_mismatched_shapes() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .tensor_arg("x", DataType::F32, vec![ib(16)], Mem::Dram)
                .tensor_arg("v", DataType::F32, vec![ib(16)], Mem::VecAvx2)
                .for_("ii", ib(0), ib(16), |b| {
                    b.assign("v", vec![var("ii")], read("x", vec![var("ii")]));
                })
                .build(),
        );
        // A 16-iteration loop does not match the 8-lane instruction.
        assert!(replace(&p, "ii", &vec_load_instr()).is_err());
    }

    #[test]
    fn inline_substitutes_windows_and_scalars() {
        let callee = ProcBuilder::new("scale_row")
            .size_arg("n")
            .scalar_arg("alpha", DataType::F32)
            .window_arg("row", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("j", ib(0), var("n"), |b| {
                b.assign(
                    "row",
                    vec![var("j")],
                    var("alpha") * b.read("row", vec![var("j")]),
                );
            })
            .build();
        let p = ProcHandle::new(
            ProcBuilder::new("caller")
                .size_arg("m")
                .tensor_arg("A", DataType::F32, vec![var("m"), ib(32)], Mem::Dram)
                .for_("i", ib(0), var("m"), |b| {
                    b.call(
                        "scale_row",
                        vec![
                            ib(32),
                            fb(2.0),
                            Expr::Window {
                                buf: Sym::new("A"),
                                idx: vec![
                                    WAccess::Point(var("i")),
                                    WAccess::Interval(ib(0), ib(32)),
                                ],
                            },
                        ],
                    );
                })
                .build(),
        );
        let call = p.find("scale_row(_)").unwrap();
        let p2 = inline_call(&p, &call, &callee).unwrap();
        let s = p2.to_string();
        assert!(s.contains("for j in seq(0, 32):"), "{s}");
        assert!(s.contains("A[i, 0 + j] = 2.0 * A[i, 0 + j]"), "{s}");
        assert!(!s.contains("scale_row("), "{s}");
    }

    #[test]
    fn call_eqv_and_rename() {
        let p = ProcHandle::new(
            ProcBuilder::new("caller")
                .with_body(|b| {
                    b.call("old_impl", vec![ib(4)]);
                })
                .build(),
        );
        let newer = ProcBuilder::new("new_impl").size_arg("n").build();
        let p2 = call_eqv(&p, "old_impl(_)", &newer).unwrap();
        assert!(p2.to_string().contains("new_impl(4)"));
        let p3 = rename(&p2, "caller_opt").unwrap();
        assert_eq!(p3.name(), "caller_opt");
    }

    #[test]
    fn extract_subproc_creates_a_callable_procedure() {
        let p = ProcHandle::new(
            ProcBuilder::new("k")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
                .for_("i", ib(0), var("n"), |b| {
                    b.assign("y", vec![var("i")], read("x", vec![var("i")]) * fb(2.0));
                })
                .build(),
        );
        let inner = p.find("y = _").unwrap();
        let (p2, sub) = extract_subproc(&p, &inner, "body_fn").unwrap();
        assert!(p2.to_string().contains("body_fn("));
        assert_eq!(sub.name(), "body_fn");
        assert!(sub.args().iter().any(|a| a.name == Sym::new("x")));
        assert!(sub.args().iter().any(|a| a.name == Sym::new("y")));
        assert!(sub.args().iter().any(|a| a.name == Sym::new("i")));
    }
}
