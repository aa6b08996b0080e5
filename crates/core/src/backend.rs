//! Backend-checked annotations (paper Appendix A.7): memory spaces,
//! precisions, parallelism and window-ness.

use crate::error::SchedError;
use crate::helpers::{stmt_path_of, IntoCursor};
use crate::{stats, Result};
use exo_analysis::{parallel_loop_is_safe, Context};
use exo_cursors::{Cursor, ProcHandle, Rewrite};
use exo_ir::{ArgKind, DataType, Mem, Stmt, Sym};

/// Reference to a buffer: either a cursor to its allocation or the name of
/// a procedure argument / allocation.
pub enum BufferRef<'a> {
    /// A cursor pointing at an `Alloc` statement.
    Cursor(&'a Cursor),
    /// A buffer or argument name.
    Name(&'a str),
}

impl<'a> From<&'a Cursor> for BufferRef<'a> {
    fn from(c: &'a Cursor) -> Self {
        BufferRef::Cursor(c)
    }
}

impl<'a> From<&'a str> for BufferRef<'a> {
    fn from(s: &'a str) -> Self {
        BufferRef::Name(s)
    }
}

fn resolve_buffer(p: &ProcHandle, buf: BufferRef<'_>) -> Result<(Option<Vec<exo_ir::Step>>, Sym)> {
    match buf {
        BufferRef::Cursor(c) => {
            let c = p.forward(c)?;
            match c.stmt()? {
                Stmt::Alloc { name, .. } => Ok((Some(stmt_path_of(&c)?), name.clone())),
                other => Err(SchedError::scheduling(format!(
                    "expected an allocation, found `{}`",
                    other.kind()
                ))),
            }
        }
        BufferRef::Name(name) => {
            // Prefer an allocation with that name; otherwise a proc argument.
            if let Ok(c) = p.find(&format!("{name}: _")) {
                let path = stmt_path_of(&c)?;
                return Ok((Some(path), Sym::new(name)));
            }
            if p.proc().arg(name).is_some() {
                return Ok((None, Sym::new(name)));
            }
            Err(SchedError::scheduling(format!(
                "no buffer or argument named `{name}`"
            )))
        }
    }
}

/// Changes the memory space of an allocation or tensor argument (paper:
/// `set_memory`). The backend check here verifies that vector-register
/// spaces only hold buffers whose trailing dimension is a compile-time
/// constant that fits in one register.
pub fn set_memory<'a>(
    p: &ProcHandle,
    buf: impl Into<BufferRef<'a>>,
    mem: Mem,
) -> Result<ProcHandle> {
    let (path, name) = resolve_buffer(p, buf.into())?;
    let mut rw = Rewrite::new(p);
    match path {
        Some(path) => {
            let mut checked = Ok(());
            rw.modify_stmt(&path, |s| {
                if let Stmt::Alloc {
                    dims, ty, mem: m, ..
                } = s
                {
                    checked = check_vector_fit(&mem, dims.last(), *ty);
                    if checked.is_ok() {
                        *m = mem.clone();
                    }
                }
            })?;
            checked?;
        }
        None => {
            let mut checked = Ok(());
            rw.modify_proc(|proc| {
                for arg in proc.args_mut() {
                    if arg.name == name {
                        if let ArgKind::Tensor {
                            dims, ty, mem: m, ..
                        } = &mut arg.kind
                        {
                            checked = check_vector_fit(&mem, dims.last(), *ty);
                            if checked.is_ok() {
                                *m = mem.clone();
                            }
                        }
                    }
                }
            });
            checked?;
        }
    }
    stats::record("set_memory");
    Ok(rw.commit())
}

fn check_vector_fit(mem: &Mem, last_dim: Option<&exo_ir::Expr>, ty: DataType) -> Result<()> {
    if let Some(lanes) = mem.lanes(ty) {
        let Some(last) = last_dim.and_then(|d| d.as_int()) else {
            return Err(SchedError::scheduling(format!(
                "vector memory `{mem}` requires a constant trailing dimension"
            )));
        };
        if last as u64 > lanes {
            return Err(SchedError::scheduling(format!(
                "trailing dimension {last} does not fit in a {mem} register of {lanes} lanes"
            )));
        }
    }
    Ok(())
}

/// Changes the element type of an allocation or argument (paper:
/// `set_precision`).
pub fn set_precision<'a>(
    p: &ProcHandle,
    buf: impl Into<BufferRef<'a>>,
    ty: DataType,
) -> Result<ProcHandle> {
    let (path, name) = resolve_buffer(p, buf.into())?;
    let mut rw = Rewrite::new(p);
    match path {
        Some(path) => {
            rw.modify_stmt(&path, |s| {
                if let Stmt::Alloc { ty: t, .. } = s {
                    *t = ty;
                }
            })?;
        }
        None => rw.modify_proc(|proc| {
            for arg in proc.args_mut() {
                if arg.name == name {
                    match &mut arg.kind {
                        ArgKind::Tensor { ty: t, .. } => *t = ty,
                        ArgKind::Scalar { ty: t } => *t = ty,
                        ArgKind::Size => {}
                    }
                }
            }
        }),
    }
    stats::record("set_precision");
    Ok(rw.commit())
}

/// Marks a loop as parallel after verifying its iterations carry no
/// read-after-write or write-after-write dependencies (paper:
/// `parallelize_loop`). Treats every call-argument buffer as potentially
/// written; use [`parallelize_loop_where`] with a callee-writability
/// oracle when the instruction bodies are at hand (vectorized bodies
/// need it — their read-only source operands otherwise defeat the
/// region certificate).
pub fn parallelize_loop(p: &ProcHandle, loop_: impl IntoCursor) -> Result<ProcHandle> {
    parallelize_loop_where(p, loop_, &|_, _| None)
}

/// [`parallelize_loop`] with a [`exo_analysis::CalleeWrites`] oracle
/// resolving which arguments each callee writes.
pub fn parallelize_loop_where(
    p: &ProcHandle,
    loop_: impl IntoCursor,
    callee_writes: exo_analysis::CalleeWrites<'_>,
) -> Result<ProcHandle> {
    let c = loop_.into_cursor(p)?;
    let Stmt::For { iter, body, .. } = c.stmt()?.clone() else {
        return Err(SchedError::scheduling(
            "parallelize_loop requires a for loop",
        ));
    };
    let path = stmt_path_of(&c)?;
    let ctx = Context::at(p.proc(), &path);
    if !parallel_loop_is_safe(&iter, body.iter(), &ctx, callee_writes) {
        return Err(SchedError::scheduling(format!(
            "loop over `{iter}` has loop-carried dependencies and cannot be parallelized"
        )));
    }
    let mut rw = Rewrite::new(p);
    rw.modify_stmt(&path, |s| {
        if let Stmt::For { parallel, .. } = s {
            *parallel = true;
        }
    })?;
    stats::record("parallelize_loop");
    Ok(rw.commit())
}

/// Toggles the window-ness of a tensor argument (paper: `set_window`).
pub fn set_window(p: &ProcHandle, arg_name: &str, window: bool) -> Result<ProcHandle> {
    if p.proc().arg(arg_name).is_none() {
        return Err(SchedError::scheduling(format!(
            "no argument named `{arg_name}`"
        )));
    }
    let mut rw = Rewrite::new(p);
    rw.modify_proc(|proc| {
        for arg in proc.args_mut() {
            if arg.name == *arg_name {
                if let ArgKind::Tensor { window: w, .. } = &mut arg.kind {
                    *w = window;
                }
            }
        }
    });
    stats::record("set_window");
    Ok(rw.commit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{fb, ib, read, var, ProcBuilder};

    fn handle() -> ProcHandle {
        ProcHandle::new(
            ProcBuilder::new("p")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
                .with_body(|b| {
                    b.alloc("tmp", DataType::F32, vec![ib(8)], Mem::Dram);
                    b.for_("i", ib(0), var("n"), |b| {
                        b.assign("y", vec![var("i")], read("x", vec![var("i")]) * fb(2.0));
                    });
                    b.for_("j", ib(0), var("n"), |b| {
                        b.reduce("y", vec![ib(0)], read("x", vec![var("j")]));
                    });
                })
                .build(),
        )
    }

    #[test]
    fn set_memory_on_allocations_and_args() {
        let p = handle();
        let p2 = set_memory(&p, "tmp", Mem::VecAvx2).unwrap();
        assert!(p2.to_string().contains("tmp: f32[8] @ VEC_AVX2"));
        let p3 = set_memory(&p2, "x", Mem::DramStatic).unwrap();
        assert!(p3.to_string().contains("x: f32[n] @ DRAM_STATIC"));
        // A 32-element f32 buffer does not fit in an AVX2 register.
        let p4 = ProcHandle::new(
            ProcBuilder::new("q")
                .with_body(|b| {
                    b.alloc("big", DataType::F32, vec![ib(32)], Mem::Dram);
                })
                .build(),
        );
        assert!(set_memory(&p4, "big", Mem::VecAvx2).is_err());
        assert!(set_memory(&p4, "big", Mem::VecAvx512).is_err());
        assert!(set_memory(&p4, "big", Mem::DramStack).is_ok());
    }

    #[test]
    fn set_precision_changes_types() {
        let p = handle();
        let p2 = set_precision(&p, "tmp", DataType::F64).unwrap();
        assert!(p2.to_string().contains("tmp: f64[8]"));
        let p3 = set_precision(&p2, "x", DataType::F64).unwrap();
        assert!(p3.to_string().contains("x: f64[n]"));
        assert!(set_precision(&p, "nothere", DataType::F64).is_err());
    }

    #[test]
    fn parallelize_checks_dependencies() {
        let p = handle();
        // The i loop writes y[i]: parallelizable.
        let p2 = parallelize_loop(&p, "i").unwrap();
        assert!(p2.to_string().contains("for i in par(0, n):"));
        // The j loop reduces into y[0]: legal as a parallel reduction (every
        // access to y in the body is a reduce, and reductions commute).
        let p3 = parallelize_loop(&p2, "j").unwrap();
        assert!(p3.to_string().contains("for j in par(0, n):"));
        // But an *assignment* into a loop-invariant location is rejected.
        let q = ProcHandle::new(
            ProcBuilder::new("q")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
                .with_body(|b| {
                    b.for_("j", ib(0), var("n"), |b| {
                        b.assign("y", vec![ib(0)], read("x", vec![var("j")]));
                    });
                })
                .build(),
        );
        assert!(parallelize_loop(&q, "j").is_err());
    }

    #[test]
    fn set_window_toggles_argument_windows() {
        let p = handle();
        let p2 = set_window(&p, "x", true).unwrap();
        assert!(p2.to_string().contains("x: [f32][n] @ DRAM"));
        assert!(set_window(&p, "zz", true).is_err());
    }
}
