//! Scope transformations: `specialize`, `fuse`, `lift_scope`
//! (paper Appendix A.3).

use crate::error::SchedError;
use crate::helpers::{adjacent, stmt_path_of, IntoCursor};
use crate::loops::interchange_safe;
use crate::{stats, Result};
use exo_analysis::{infer_bounds, provably_equal, Context, Effects};
use exo_cursors::{CursorPath, ProcHandle, Rewrite};
use exo_ir::{rename_sym, Block, Expr, Stmt, Sym};

/// Wraps a statement (or block of statements) in a chain of `if` branches,
/// one per condition, with the original code duplicated into every branch
/// and the final `else` (paper: `specialize`).
///
/// Scheduling later specializes each branch differently — e.g. the paper's
/// AVX512 GEMM uses it to split micro-kernel tail cases.
pub fn specialize(p: &ProcHandle, target: impl IntoCursor, conds: &[Expr]) -> Result<ProcHandle> {
    let c = target.into_cursor(p)?;
    if conds.is_empty() {
        return Err(SchedError::scheduling(
            "specialize requires at least one condition",
        ));
    }
    for cond in conds {
        match cond {
            Expr::Bool(_) => {}
            Expr::Bin { op, .. } if op.is_predicate() => {}
            other => {
                return Err(SchedError::scheduling(format!(
                    "`{other}` is not a boolean condition"
                )))
            }
        }
    }
    let (path, len, stmts) = match c.path().clone() {
        CursorPath::Node { stmt, .. } => (stmt, 1, vec![c.stmt()?.clone()]),
        CursorPath::Block { stmt, len } => (
            stmt,
            len,
            c.stmts()?.into_iter().cloned().collect::<Vec<_>>(),
        ),
        _ => {
            return Err(SchedError::scheduling(
                "specialize requires a statement or block cursor",
            ))
        }
    };
    // Build the if/else chain from the last condition outwards.
    let mut chain = stmts.clone();
    for cond in conds.iter().rev() {
        chain = vec![Stmt::If {
            cond: cond.clone(),
            then_body: Block::from_stmts(stmts.clone()),
            else_body: Block::from_stmts(chain),
        }];
    }
    let mut rw = Rewrite::new(p);
    rw.replace(&path, len, chain)?;
    stats::record("specialize");
    Ok(rw.commit())
}

/// Fuses two adjacent loops with provably equal bounds into one loop, or
/// two adjacent `if` statements with identical conditions into one
/// (paper: `fuse`).
///
/// # Errors
/// For loops, every buffer produced by the first body and consumed by the
/// second must be fully produced within the same iteration (checked with
/// the bounds-inference analysis), and the second body must not write
/// anything the first body reads.
pub fn fuse(p: &ProcHandle, first: impl IntoCursor, second: impl IntoCursor) -> Result<ProcHandle> {
    let c1 = first.into_cursor(p)?;
    let c2 = second.into_cursor(p)?;
    let p1 = stmt_path_of(&c1)?;
    let p2 = stmt_path_of(&c2)?;
    if !adjacent(&p1, &p2) {
        return Err(SchedError::scheduling(
            "fuse requires two adjacent statements",
        ));
    }
    let s1 = c1.stmt()?.clone();
    let s2 = c2.stmt()?.clone();
    let fused = match (s1, s2) {
        (
            Stmt::For {
                iter: i1,
                lo: lo1,
                hi: hi1,
                body: b1,
                parallel,
            },
            Stmt::For {
                iter: i2,
                lo: lo2,
                hi: hi2,
                body: b2,
                ..
            },
        ) => {
            if !provably_equal(&lo1, &lo2) || !provably_equal(&hi1, &hi2) {
                return Err(SchedError::scheduling(format!(
                    "fuse requires equal loop bounds ([{lo1}, {hi1}) vs [{lo2}, {hi2}))"
                )));
            }
            let b2_renamed: Vec<Stmt> = b2
                .into_stmts()
                .into_iter()
                .map(|s| rename_sym(s, &i2, &i1))
                .collect();
            let base_ctx = Context::at(p.proc(), &p1);
            check_fusion_safety(&base_ctx, &i1, &lo1, &hi1, &b1, &b2_renamed)?;
            let mut body = b1.into_stmts();
            body.extend(b2_renamed);
            Stmt::For {
                iter: i1,
                lo: lo1,
                hi: hi1,
                body: Block::from_stmts(body),
                parallel,
            }
        }
        (
            Stmt::If {
                cond: e1,
                then_body: t1,
                else_body: el1,
            },
            Stmt::If {
                cond: e2,
                then_body: t2,
                else_body: el2,
            },
        ) => {
            if e1 != e2 {
                return Err(SchedError::scheduling(
                    "fuse requires identical `if` conditions",
                ));
            }
            // The first then-branch must not change the truth of the shared
            // condition; conservatively require it not to write any buffer
            // mentioned by the condition.
            let cond_bufs = e1.buffers_read();
            let eff1 = Effects::of_stmts(t1.iter().chain(el1.iter()));
            if cond_bufs.iter().any(|b| eff1.buffers_written().contains(b)) {
                return Err(SchedError::scheduling(
                    "the first branch writes a buffer read by the shared condition",
                ));
            }
            let mut then_body = t1.into_stmts();
            then_body.extend(t2.into_stmts());
            let mut else_body = el1.into_stmts();
            else_body.extend(el2.into_stmts());
            Stmt::If {
                cond: e1,
                then_body: Block::from_stmts(then_body),
                else_body: Block::from_stmts(else_body),
            }
        }
        _ => {
            return Err(SchedError::scheduling(
                "fuse requires two adjacent loops or two adjacent `if` statements",
            ))
        }
    };
    let mut rw = Rewrite::new(p);
    rw.replace(&p1, 2, vec![fused])?;
    stats::record("fuse");
    Ok(rw.commit())
}

/// Producer/consumer safety for loop fusion: for every buffer written by
/// the first body and read by the second, iteration `i` of the second must
/// only read what iteration `i` of the first has already produced.
fn check_fusion_safety(
    base_ctx: &Context,
    iter: &Sym,
    lo: &Expr,
    hi: &Expr,
    body1: &Block,
    body2: &[Stmt],
) -> Result<()> {
    let e1 = Effects::of_stmts_in(base_ctx, body1);
    let e2 = Effects::of_stmts_in(base_ctx, body2);
    // Anti-dependence: the second body must not write what the first reads
    // or writes (otherwise later iterations of body1 would see new values).
    for buf in e2.buffers_written() {
        if e1.touches(&buf) {
            return Err(SchedError::scheduling(format!(
                "the second loop writes `{buf}`, which the first loop also touches"
            )));
        }
    }
    let mut ctx = base_ctx.clone();
    ctx.push_iter(iter.clone(), lo.clone(), hi.clone());
    for buf in e1.buffers_written() {
        if !e2.touches(&buf) {
            continue;
        }
        // Per-iteration containment: the window of `buf` read by body2 at a
        // fixed iteration must lie inside the window written by body1 at
        // that same iteration.
        let wrapped1 = Stmt::If {
            cond: Expr::Bool(true),
            then_body: body1.clone(),
            else_body: Block::new(),
        };
        let wrapped2 = Stmt::If {
            cond: Expr::Bool(true),
            then_body: Block::from_stmts(body2.to_vec()),
            else_body: Block::new(),
        };
        let w = infer_bounds(&wrapped1, &buf, &ctx).map_err(|why| {
            SchedError::scheduling(format!(
                "cannot infer the producer window of `{buf}` for fusion: {why}"
            ))
        })?;
        let r = infer_bounds(&wrapped2, &buf, &ctx).map_err(|why| {
            SchedError::scheduling(format!(
                "cannot infer the consumer window of `{buf}` for fusion: {why}"
            ))
        })?;
        if w.dims.len() != r.dims.len() {
            return Err(SchedError::scheduling(format!(
                "`{buf}` is accessed with different ranks in the two loops"
            )));
        }
        for (d, ((wlo, whi), (rlo, rhi))) in w.dims.iter().zip(r.dims.iter()).enumerate() {
            if !ctx.proves_le(wlo, rlo) && !provably_equal(wlo, rlo) {
                return Err(SchedError::scheduling(format!(
                    "cannot prove `{buf}` dim {d}: producer lower bound {wlo} <= consumer {rlo}"
                )));
            }
            if !ctx.proves_le(rhi, whi) && !provably_equal(rhi, whi) {
                return Err(SchedError::scheduling(format!(
                    "cannot prove `{buf}` dim {d}: consumer upper bound {rhi} <= producer {whi}"
                )));
            }
        }
    }
    Ok(())
}

/// Interchanges a `for` or `if` statement with its immediately enclosing
/// `for` or `if` (paper: `lift_scope`). The statement must be the only
/// statement in its parent's body.
pub fn lift_scope(p: &ProcHandle, scope: impl IntoCursor) -> Result<ProcHandle> {
    let c = scope.into_cursor(p)?;
    let parent = c
        .parent()
        .map_err(|_| SchedError::scheduling("lift_scope: the statement has no enclosing scope"))?;
    let parent_path = stmt_path_of(&parent)?;
    let child = c.stmt()?.clone();
    let parent_stmt = parent.stmt()?.clone();
    // The child must be the only statement of the parent's (relevant) body.
    let only = match &parent_stmt {
        Stmt::For { body, .. } => body.len() == 1,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => then_body.len() == 1 && else_body.is_empty(),
        _ => false,
    };
    if !only {
        return Err(SchedError::scheduling(
            "lift_scope requires the statement to be the only statement in its parent's body",
        ));
    }
    let replacement = match (parent_stmt.clone(), child) {
        // Loop interchange: for i: for j: body  =>  for j: for i: body
        (
            Stmt::For {
                iter: oi,
                lo: olo,
                hi: ohi,
                parallel: opar,
                ..
            },
            Stmt::For {
                iter: ii,
                lo: ilo,
                hi: ihi,
                body: ibody,
                parallel: ipar,
            },
        ) => {
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
            let inner = Stmt::For {
                iter: oi,
                lo: olo,
                hi: ohi,
                body: ibody,
                parallel: opar,
            };
            Stmt::For {
                iter: ii,
                lo: ilo,
                hi: ihi,
                body: Block::from_stmts(vec![inner]),
                parallel: ipar,
            }
        }
        // if inside for:  for i: if e: s [else: s2]
        //   => if e: (for i: s) else: (for i: s2), requires e independent of i.
        (
            Stmt::For {
                iter,
                lo,
                hi,
                parallel,
                ..
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
            },
        ) => {
            if cond.mentions(&iter) {
                return Err(SchedError::scheduling(format!(
                    "the `if` condition depends on the loop iterator `{iter}`"
                )));
            }
            let then_loop = Stmt::For {
                iter: iter.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                body: then_body,
                parallel,
            };
            let else_block = if else_body.is_empty() {
                Block::new()
            } else {
                Block::from_stmts(vec![Stmt::For {
                    iter,
                    lo,
                    hi,
                    body: else_body,
                    parallel,
                }])
            };
            Stmt::If {
                cond,
                then_body: Block::from_stmts(vec![then_loop]),
                else_body: else_block,
            }
        }
        // for inside if:  if e: for i: s  =>  for i: if e: s
        // (the `if` cannot have an else clause — enforced by `only` above).
        (
            Stmt::If { cond, .. },
            Stmt::For {
                iter,
                lo,
                hi,
                body,
                parallel,
            },
        ) => {
            let guarded = Stmt::If {
                cond,
                then_body: body,
                else_body: Block::new(),
            };
            Stmt::For {
                iter,
                lo,
                hi,
                body: Block::from_stmts(vec![guarded]),
                parallel,
            }
        }
        // if inside if: if e: (if e2: s else: s2) else: s3
        //   => if e2: (if e: s else: s3) else: (if e: s2 else: s3)
        (
            Stmt::If {
                cond: e,
                else_body: s3,
                ..
            },
            Stmt::If {
                cond: e2,
                then_body: s,
                else_body: s2,
            },
        ) => {
            let then_if = Stmt::If {
                cond: e.clone(),
                then_body: s,
                else_body: s3.clone(),
            };
            let else_if = Stmt::If {
                cond: e,
                then_body: s2,
                else_body: s3,
            };
            let else_block = if matches!(&else_if, Stmt::If { then_body, else_body, .. } if then_body.is_empty() && else_body.is_empty())
            {
                Block::new()
            } else {
                Block::from_stmts(vec![else_if])
            };
            Stmt::If {
                cond: e2,
                then_body: Block::from_stmts(vec![then_if]),
                else_body: else_block,
            }
        }
        _ => {
            return Err(SchedError::scheduling(
                "lift_scope requires a for/if statement nested directly inside a for/if",
            ))
        }
    };
    let mut rw = Rewrite::new(p);
    rw.replace(&parent_path, 1, vec![replacement])?;
    stats::record("lift_scope");
    Ok(rw.commit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{fb, ib, read, var, DataType, Mem, ProcBuilder};

    #[test]
    fn lift_scope_interchanges_loops_like_the_paper_tiling_example() {
        let gemv = ProcBuilder::new("gemv")
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
            .build();
        let p = ProcHandle::new(gemv);
        let p = crate::divide_loop(&p, "i", 8, ["io", "ii"], crate::TailStrategy::Perfect).unwrap();
        let p = crate::divide_loop(&p, "j", 8, ["jo", "ji"], crate::TailStrategy::Perfect).unwrap();
        // The paper writes lift_scope(g, 'jo'): lift the jo loop over ii.
        let p = lift_scope(&p, "jo").unwrap();
        let s = p.to_string();
        let io = s.find("for io in").unwrap();
        let jo = s.find("for jo in").unwrap();
        let ii = s.find("for ii in").unwrap();
        let ji = s.find("for ji in").unwrap();
        assert!(io < jo && jo < ii && ii < ji, "{s}");
    }

    #[test]
    fn lift_scope_moves_loop_invariant_ifs_out() {
        let p = ProcHandle::new(
            ProcBuilder::new("p")
                .size_arg("n")
                .scalar_arg("flag", DataType::Bool)
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .for_("i", ib(0), var("n"), |b| {
                    b.if_(var("flag"), |t| {
                        t.assign("x", vec![var("i")], fb(1.0));
                    });
                })
                .build(),
        );
        let c = p.find("if _: _").unwrap();
        let p2 = lift_scope(&p, &c).unwrap();
        let s = p2.to_string();
        assert!(
            s.find("if flag:").unwrap() < s.find("for i in").unwrap(),
            "{s}"
        );
        // And back down again.
        let c = p2.find_loop("i").unwrap();
        let p3 = lift_scope(&p2, &c).unwrap();
        assert!(
            p3.to_string().find("for i in").unwrap() < p3.to_string().find("if flag:").unwrap()
        );
    }

    #[test]
    fn lift_scope_rejects_iteration_dependent_conditions() {
        let p = ProcHandle::new(
            ProcBuilder::new("p")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .for_("i", ib(0), var("n"), |b| {
                    b.if_(Expr::lt(var("i"), ib(4)), |t| {
                        t.assign("x", vec![var("i")], fb(1.0));
                    });
                })
                .build(),
        );
        let c = p.find("if _: _").unwrap();
        assert!(lift_scope(&p, &c).is_err());
    }

    #[test]
    fn specialize_duplicates_into_branches() {
        let p = ProcHandle::new(
            ProcBuilder::new("p")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .for_("i", ib(0), var("n"), |b| {
                    b.assign("x", vec![var("i")], fb(1.0));
                })
                .build(),
        );
        let p2 = specialize(
            &p,
            "i",
            &[Expr::eq_(var("n"), ib(16)), Expr::eq_(var("n"), ib(32))],
        )
        .unwrap();
        let s = p2.to_string();
        assert!(s.contains("if n == 16:"), "{s}");
        assert!(s.contains("if n == 32:"), "{s}");
        assert_eq!(s.matches("for i in seq(0, n):").count(), 3, "{s}");
        assert!(specialize(&p, "i", &[var("n")]).is_err());
        assert!(specialize(&p, "i", &[]).is_err());
    }

    #[test]
    fn fuse_producer_consumer_loops() {
        let p = ProcHandle::new(
            ProcBuilder::new("p")
                .size_arg("n")
                .tensor_arg("a", DataType::F32, vec![var("n")], Mem::Dram)
                .tensor_arg("b", DataType::F32, vec![var("n")], Mem::Dram)
                .tensor_arg("c", DataType::F32, vec![var("n")], Mem::Dram)
                .with_body(|bb| {
                    bb.for_("i", ib(0), var("n"), |b| {
                        b.assign("b", vec![var("i")], read("a", vec![var("i")]) * fb(2.0));
                    });
                    bb.for_("j", ib(0), var("n"), |b| {
                        b.assign("c", vec![var("j")], read("b", vec![var("j")]) + fb(1.0));
                    });
                })
                .build(),
        );
        let p2 = fuse(&p, "i", "j").unwrap();
        assert_eq!(p2.proc().body().len(), 1);
        let s = p2.to_string();
        assert!(s.contains("b[i] = a[i] * 2.0"), "{s}");
        assert!(s.contains("c[i] = b[i] + 1.0"), "{s}");
    }

    #[test]
    fn fuse_rejects_backward_dependences() {
        // The consumer reads b[i+1], which iteration i of the producer has
        // not yet written.
        let p = ProcHandle::new(
            ProcBuilder::new("p")
                .size_arg("n")
                .tensor_arg("a", DataType::F32, vec![var("n") + ib(1)], Mem::Dram)
                .tensor_arg("b", DataType::F32, vec![var("n") + ib(1)], Mem::Dram)
                .tensor_arg("c", DataType::F32, vec![var("n")], Mem::Dram)
                .with_body(|bb| {
                    bb.for_("i", ib(0), var("n"), |b| {
                        b.assign("b", vec![var("i")], read("a", vec![var("i")]));
                    });
                    bb.for_("j", ib(0), var("n"), |b| {
                        b.assign("c", vec![var("j")], read("b", vec![var("j") + ib(1)]));
                    });
                })
                .build(),
        );
        assert!(fuse(&p, "i", "j").is_err());
    }

    #[test]
    fn fuse_ifs_with_identical_conditions() {
        let p = ProcHandle::new(
            ProcBuilder::new("p")
                .scalar_arg("flag", DataType::Bool)
                .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
                .with_body(|bb| {
                    bb.if_(var("flag"), |t| {
                        t.assign("x", vec![ib(0)], fb(1.0));
                    });
                    bb.if_(var("flag"), |t| {
                        t.assign("x", vec![ib(1)], fb(2.0));
                    });
                })
                .build(),
        );
        let first = p.body()[0].clone();
        let second = p.body()[1].clone();
        let p2 = fuse(&p, &first, &second).unwrap();
        assert_eq!(p2.proc().body().len(), 1);
        assert_eq!(p2.proc().body()[0].child_blocks()[0].len(), 2);
    }

    #[test]
    fn fuse_requires_adjacency_and_equal_bounds() {
        let p = ProcHandle::new(
            ProcBuilder::new("p")
                .size_arg("n")
                .tensor_arg("b", DataType::F32, vec![var("n")], Mem::Dram)
                .with_body(|bb| {
                    bb.for_("i", ib(0), var("n"), |b| {
                        b.assign("b", vec![var("i")], fb(0.0));
                    });
                    bb.for_("j", ib(0), var("n") / ib(2), |b| {
                        b.assign("b", vec![var("j")], fb(1.0));
                    });
                })
                .build(),
        );
        assert!(fuse(&p, "i", "j").is_err());
    }
}
