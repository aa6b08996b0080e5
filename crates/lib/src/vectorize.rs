//! The user-defined `vectorize` scheduling operator (§6.1.1).
//!
//! `vectorize` is parameterized over vector width, precision, memory type
//! and target instructions, so the same library function serves AVX2 and
//! AVX512 (and any future vector ISA). Following the paper, it:
//!
//! 1. exposes parallelism by dividing the loop by the vector width,
//! 2. stages the computation into temporary assignments (Figure 4),
//!    with an FMA hook that keeps `acc += a * b` fused when the target has
//!    fused multiply-add instructions,
//! 3. expands the temporaries into per-lane vectors and lifts their
//!    allocations out of the lane loop,
//! 4. fissions the lane loop into single-statement loops, and
//! 5. replaces each lane loop with the equivalent hardware instruction via
//!    the `replace_all` unifier.

use exo_core::{
    divide_loop, expand_dim, fission, lift_alloc, replace_all, set_memory, simplify, simplify_at,
    Result, SchedError, TailStrategy,
};
use exo_cursors::{Cursor, CursorPath, ProcHandle};
use exo_ir::{var, DataType, Expr, ExprStep, Stmt, Sym};
use exo_machine::{MachineKind, MachineModel};

/// One staged temporary created by [`stage_compute`].
struct Staged {
    name: String,
}

/// Recursively stages the expression at `steps` (within the statement at
/// `stmt`) into scalar temporaries, returning the new procedure and the
/// temporaries created (outermost last).
fn stage_expr(
    p: &ProcHandle,
    stmt: &Cursor,
    steps: Vec<ExprStep>,
    created: &mut Vec<Staged>,
    ty: DataType,
) -> Result<ProcHandle> {
    let stmt_path = p
        .forward(stmt)?
        .path()
        .stmt_path()
        .ok_or_else(|| SchedError::scheduling("statement cursor was invalidated"))?
        .to_vec();
    let cursor = p.cursor_at(CursorPath::Node {
        stmt: stmt_path,
        expr: steps.clone(),
    });
    let expr = cursor.expr()?.clone();
    match expr {
        Expr::Bin { .. } => {
            // Stage both operands first, then the operation itself.
            let mut lhs_steps = steps.clone();
            lhs_steps.push(ExprStep::BinLhs);
            let p = stage_expr(p, stmt, lhs_steps, created, ty)?;
            let mut rhs_steps = steps.clone();
            rhs_steps.push(ExprStep::BinRhs);
            let p = stage_expr(&p, stmt, rhs_steps, created, ty)?;
            bind_leaf(&p, stmt, steps, created, ty)
        }
        // Leaves: buffer reads, scalars and literals become broadcasts/loads.
        _ => bind_leaf(p, stmt, steps, created, ty),
    }
}

fn bind_leaf(
    p: &ProcHandle,
    stmt: &Cursor,
    steps: Vec<ExprStep>,
    created: &mut Vec<Staged>,
    ty: DataType,
) -> Result<ProcHandle> {
    let name = p.fresh_name("vtmp");
    let stmt_path = p
        .forward(stmt)?
        .path()
        .stmt_path()
        .ok_or_else(|| SchedError::scheduling("statement cursor was invalidated"))?
        .to_vec();
    let cursor = p.cursor_at(CursorPath::Node {
        stmt: stmt_path,
        expr: steps,
    });
    let p2 = exo_core::bind_expr(p, &cursor, &name, ty)?;
    created.push(Staged { name });
    Ok(p2)
}

/// Stages the single assign/reduce statement of the lane loop (step 3 of
/// the paper's vectorize). Returns the staged temporaries.
fn stage_compute(
    p: &ProcHandle,
    inner: &Cursor,
    ty: DataType,
    use_fma: bool,
) -> Result<(ProcHandle, Vec<Staged>)> {
    let inner = p.forward(inner)?;
    let body = inner.body();
    if body.len() != 1 {
        return Err(SchedError::scheduling(
            "vectorize requires a single assign/reduce statement in the loop body",
        ));
    }
    let stmt = body[0].clone();
    let mut created = Vec::new();
    let lane_iter = inner
        .loop_iter_name()
        .ok_or_else(|| SchedError::scheduling("lane loop has no iterator"))?;
    let dest_uses_lane = stmt
        .write_target()
        .map(|(_, idx)| idx.iter().any(|e| e.mentions(&Sym::new(&lane_iter))))
        .unwrap_or(false);
    let is_fma_shape = matches!(
        stmt.stmt()?,
        Stmt::Reduce {
            rhs: Expr::Bin {
                op: exo_ir::BinOp::Mul,
                ..
            },
            ..
        }
    );
    let p = if use_fma && is_fma_shape && dest_uses_lane {
        // Figure 4c: keep the multiply fused with the accumulation — stage
        // only the two factors.
        let p = stage_expr(
            p,
            &stmt,
            vec![ExprStep::Rhs, ExprStep::BinLhs],
            &mut created,
            ty,
        )?;
        stage_expr(
            &p,
            &stmt,
            vec![ExprStep::Rhs, ExprStep::BinRhs],
            &mut created,
            ty,
        )?
    } else {
        // Figure 4b: stage every operation.
        stage_expr(p, &stmt, vec![ExprStep::Rhs], &mut created, ty)?
    };
    Ok((p, created))
}

/// The `vectorize` scheduling operator (§6.1.1): lowers a loop whose body
/// is a single assign/reduce statement onto the vector unit of `machine`.
///
/// # Errors
/// Propagates any `SchedulingError` from the underlying primitives (e.g.
/// when the loop body is not in the supported shape); callers typically
/// fall back to the scalar loop in that case, mirroring the paper's
/// `try/except` idiom.
pub fn vectorize(
    p: &ProcHandle,
    loop_: &Cursor,
    vw: i64,
    precision: DataType,
    machine: &MachineModel,
    tail: TailStrategy,
) -> Result<ProcHandle> {
    let loop_ = p.forward(loop_)?;
    // Deterministic per-proc freshness: distinct bases, so the two names
    // cannot collide even though neither is inserted yet.
    let lane = p.fresh_name("vl");
    let outer = p.fresh_name("vo");
    // (1) Expose lane parallelism.
    let p = divide_loop(p, &loop_, vw, [outer.as_str(), lane.as_str()], tail)?;
    // (2) Cursor to the lane loop and stage the computation.
    let outer_loop = p.forward(&loop_)?;
    let inner = outer_loop.body().first().cloned().ok_or_else(|| {
        SchedError::scheduling("divide_loop did not produce the expected lane loop")
    })?;
    // Only the x86 models' instruction sets have a fused multiply-add.
    let fma = matches!(machine.kind, MachineKind::Avx2 | MachineKind::Avx512);
    let (p, staged) = stage_compute(&p, &inner, precision, fma)?;
    // (3) Expand the temporaries across the lanes and lift them out of the
    // lane loop.
    let mut p = p;
    for s in &staged {
        p = expand_dim(
            &p,
            format!("{}: _", s.name).as_str(),
            exo_ir::ib(vw),
            var(lane.as_str()),
        )?;
        p = lift_alloc(&p, format!("{}: _", s.name).as_str(), 1)?;
        p = set_memory(&p, format!("{}: _", s.name).as_str(), machine.mem_type())?;
    }
    // (4) Fission the lane loop between every statement. All lane loops
    // created by divide_loop live in the block that holds the divided
    // outer loop (Cut tails are *siblings* of it), so the find is
    // restricted to the subtree of the outer loop's parent statement
    // instead of scanning the whole procedure; a top-level outer loop
    // falls back to the whole-procedure scan.
    let lane_pattern = format!("for {lane} in _: _");
    loop {
        let outer_now = p.forward(&loop_).map_err(SchedError::from)?;
        let lane_loops = match outer_now.parent() {
            Ok(parent) => parent.find_all(&lane_pattern).unwrap_or_default(),
            Err(_) => p.find_loop_many(&lane).unwrap_or_default(),
        };
        let has_more =
            |l: &Cursor| matches!(l.stmt(), Ok(Stmt::For { body, .. }) if body.len() > 1);
        let Some(multi) = lane_loops.into_iter().find(has_more) else {
            break;
        };
        let gap = multi.body()[0].after().map_err(SchedError::from)?;
        p = fission(&p, &gap, 1)?;
    }
    // (5) Replace lane loops with target instructions and clean up. The
    // cleanup simplifies only the region this call transformed (the
    // subtree holding the divided loop, its tail, and the lifted allocs);
    // a top-level target loop falls back to whole-procedure cleanup.
    let p = replace_all(&p, &machine.instructions(precision))?;
    match p.forward(&loop_).ok().and_then(|c| c.parent().ok()) {
        Some(parent) => simplify_at(&p, &parent),
        None => simplify(&p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
    use exo_kernels::{axpy, dot, Precision};
    use exo_machine::simulate;

    fn run_axpy(p: &exo_ir::Proc, registry: &ProcRegistry, n: usize) -> Vec<f64> {
        let mut interp = Interpreter::new(registry);
        let (_, x) = ArgValue::from_vec((0..n).map(|v| v as f64).collect(), vec![n], DataType::F32);
        let (ybuf, y) = ArgValue::from_vec(vec![1.0; n], vec![n], DataType::F32);
        let (_, out) = ArgValue::zeros(vec![1], DataType::F32);
        interp
            .run(
                p,
                vec![ArgValue::Int(n as i64), ArgValue::Float(2.0), x, y, out],
                &mut NullMonitor,
            )
            .unwrap();
        let d = ybuf.borrow().data.clone();
        d
    }

    #[test]
    fn vectorized_axpy_is_equivalent_and_uses_fma() {
        let machine = MachineModel::avx2();
        let p = ProcHandle::new(axpy(Precision::Single));
        let loop_ = p.find_loop("i").unwrap();
        let v = vectorize(
            &p,
            &loop_,
            8,
            DataType::F32,
            &machine,
            TailStrategy::Perfect,
        )
        .unwrap();
        let s = v.to_string();
        assert!(s.contains("mm256_fmadd_ps"), "{s}");
        assert!(s.contains("mm256_set1_ps"), "{s}");
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        let n = 64;
        assert_eq!(
            run_axpy(p.proc(), &registry, n),
            run_axpy(v.proc(), &registry, n)
        );
    }

    #[test]
    fn vectorized_dot_reduces_through_the_horizontal_add() {
        let machine = MachineModel::avx512();
        let p = ProcHandle::new(dot(Precision::Single));
        let loop_ = p.find_loop("i").unwrap();
        let v = vectorize(&p, &loop_, 16, DataType::F32, &machine, TailStrategy::Cut).unwrap();
        let s = v.to_string();
        assert!(
            s.contains("mm512_reduce_add_ps") || s.contains("mm512_loadu_ps"),
            "{s}"
        );
        // Equivalence on a concrete input.
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        let n = 64usize;
        let run = |proc: &exo_ir::Proc| {
            let mut interp = Interpreter::new(&registry);
            let (_, x) =
                ArgValue::from_vec((0..n).map(|v| v as f64).collect(), vec![n], DataType::F32);
            let (_, y) = ArgValue::from_vec(vec![2.0; n], vec![n], DataType::F32);
            let (ob, out) = ArgValue::zeros(vec![1], DataType::F32);
            interp
                .run(
                    proc,
                    vec![ArgValue::Int(n as i64), ArgValue::Float(0.0), x, y, out],
                    &mut NullMonitor,
                )
                .unwrap();
            let v = ob.borrow().data[0];
            v
        };
        assert_eq!(run(p.proc()), run(v.proc()));
    }

    #[test]
    fn vectorization_reduces_simulated_cycles() {
        let machine = MachineModel::avx2();
        let p = ProcHandle::new(axpy(Precision::Single));
        let loop_ = p.find_loop("i").unwrap();
        let v = vectorize(
            &p,
            &loop_,
            8,
            DataType::F32,
            &machine,
            TailStrategy::Perfect,
        )
        .unwrap();
        let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
        let n = 1024usize;
        let mk = || {
            let (_, x) = ArgValue::from_vec(vec![1.0; n], vec![n], DataType::F32);
            let (_, y) = ArgValue::from_vec(vec![2.0; n], vec![n], DataType::F32);
            let (_, out) = ArgValue::zeros(vec![1], DataType::F32);
            vec![ArgValue::Int(n as i64), ArgValue::Float(2.0), x, y, out]
        };
        let scalar = simulate(p.proc(), &registry, mk());
        let vector = simulate(v.proc(), &registry, mk());
        assert!(
            vector.cycles * 2 < scalar.cycles,
            "vectorized {} vs scalar {}",
            vector.cycles,
            scalar.cycles
        );
    }

    #[test]
    fn rewrite_counts_accumulate_through_the_library() {
        exo_core::stats::reset();
        let machine = MachineModel::avx2();
        let p = ProcHandle::new(axpy(Precision::Single));
        let loop_ = p.find_loop("i").unwrap();
        let (_, rewrites) = exo_core::stats::measure(|| {
            vectorize(
                &p,
                &loop_,
                8,
                DataType::F32,
                &machine,
                TailStrategy::Perfect,
            )
            .unwrap()
        });
        // The schedule is a single library call but performs many primitive
        // rewrites under the hood — the Figure 9b quantity.
        assert!(rewrites > 10, "{rewrites}");
        exo_core::stats::reset();
    }
}
