//! Whole-proc static verification: bounds and race diagnostics.
//!
//! [`check_proc`] analyzes a complete procedure (not just the two
//! statements a scheduling primitive touches) and returns structured
//! [`Diagnostic`]s with stable codes and cursor-addressable paths:
//!
//! * **Bounds** — every buffer access (point reads/writes, window
//!   intervals) is proved in-bounds against the buffer's declared
//!   dimensions, using the assert-derived facts in [`Context`]
//!   (divisibility, lower bounds) and enclosing loop ranges.
//! * **Races** — every loop marked `parallel` is re-checked with
//!   [`parallel_loop_is_safe`](crate::parallel_loop_is_safe), the test
//!   `parallelize_loop` applies.
//!
//! Each obligation is discharged by the arithmetic of [`crate::linear`]:
//! the enclosing loop iterators are eliminated innermost-first by
//! `extremize`, and the resulting inequality is put to [`prove_le`], which
//! builds its forms under the [`Context`] and so sees through the
//! floor-division and modulo atoms that scheduled code is full of.
//!
//! The verdict is three-valued: an access is *proved in-bounds* (no
//! diagnostic), *provably out-of-bounds* ([`Severity::Error`], code V101),
//! or *not provable either way* ([`Severity::Warning`], code V102). The
//! autotuner only rejects candidates on errors; the `verify_library` test
//! of `exo-bench` requires zero diagnostics of either severity on every
//! shipped kernel and schedule of record.

use crate::accesses::{walk_accesses, Access, AccessSink, Dim, Place, Scope, Shape};
use crate::checks::parallel_loop_is_safe;
use crate::context::Context;
use crate::linear::{extremize, prove_le};
use crate::simplify::simplify_expr;
use exo_ir::{ib, ArgKind, Expr, Proc, Step, Sym, WAccess};
use std::collections::BTreeSet;

/// How severe a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// The property could not be proved; the access may still be safe.
    Warning,
    /// The property is provably violated (or structurally ill-formed).
    Error,
}

/// One finding of [`check_proc`].
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable code: `V101` provably out-of-bounds, `V102` unprovable
    /// bounds, `V103` rank mismatch, `V104` unknown buffer, `V201`
    /// parallel-loop race.
    pub code: &'static str,
    /// Whether the finding is a proven violation or a failed proof.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Path of the statement containing the access (cursor-addressable).
    pub path: Vec<Step>,
    /// The buffer involved, when the diagnostic concerns an access.
    pub buf: Option<Sym>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[{}]: {}", self.code, self.message)
    }
}

struct Checker<'p> {
    /// Facts at the statement being visited.
    ctx: Context,
    /// The facts outside each enclosing loop, innermost last.
    outside: Vec<Context>,
    report: Report<'p>,
    /// Callee-writability oracle for the V201 region certificate.
    callee_writes: crate::checks::CalleeWrites<'p>,
}

/// The findings so far, and the bounds obligations that add to them.
struct Report<'p> {
    proc: &'p Proc,
    diags: Vec<Diagnostic>,
}

/// Statically verifies a whole procedure: every access in-bounds, every
/// `parallel` loop race-free. Returns all diagnostics found (empty means
/// fully certified). Calls are treated conservatively (every buffer
/// argument may be written); see [`check_proc_where`] when the callee
/// bodies are at hand.
pub fn check_proc(proc: &Proc) -> Vec<Diagnostic> {
    check_proc_where(proc, &|_, _| None)
}

/// [`check_proc`] with a [`crate::checks::CalleeWrites`] oracle, so the
/// V201 race-freedom certificate can treat provably read-only call
/// operands (e.g. the source panel of a vector FMA) as reads instead of
/// conservative writes.
pub fn check_proc_where(
    proc: &Proc,
    callee_writes: crate::checks::CalleeWrites<'_>,
) -> Vec<Diagnostic> {
    let mut checker = Checker {
        ctx: Context::from_proc(proc),
        outside: Vec::new(),
        report: Report {
            proc,
            diags: Vec::new(),
        },
        callee_writes,
    };
    walk_accesses(None, proc.body(), &mut checker);
    checker.report.diags
}

/// Buffers with at least one access the verifier could not certify
/// in-bounds. `CodegenOptions::debug()` uses this to elide the runtime
/// bounds checks of fully-proven buffers while keeping them for the rest.
pub fn unproven_buffers(proc: &Proc) -> BTreeSet<String> {
    check_proc(proc)
        .into_iter()
        .filter(|d| d.code == "V101" || d.code == "V102" || d.code == "V103" || d.code == "V104")
        .filter_map(|d| d.buf.map(|b| b.name().to_string()))
        .collect()
}

/// The verifier's policy over the access walk: every point and window, by
/// whatever name it is written, is checked against the shape that name
/// has where it is used; every `parallel` loop is re-certified on entry.
impl<'a> AccessSink<'a> for Checker<'_> {
    fn access(&mut self, a: &Access<'_, 'a>) {
        // A bare name has no indices to check.
        if !matches!(a.shape, Shape::Whole) {
            self.report.check_access(a, &self.ctx);
        }
    }

    fn enter(&mut self, scope: &Scope<'a>, at: &Place<'a>) {
        let Scope::Loop(l) = scope else { return };
        self.outside.push(self.ctx.clone());
        self.ctx
            .push_iter(l.iter.clone(), l.lo.clone(), l.hi.clone());
        if l.parallel {
            // The body is walked on its own: tell that walk what is in
            // scope here (undone with the rest of `ctx` when the loop
            // exits).
            at.bind_into(&mut self.ctx);
            if !parallel_loop_is_safe(l.iter, l.body, &self.ctx, self.callee_writes) {
                self.report.diags.push(Diagnostic {
                    code: "V201",
                    severity: Severity::Error,
                    message: format!(
                        "parallel loop `{}` in `{}` is not provably race-free",
                        l.iter,
                        self.report.proc.name()
                    ),
                    path: at.path.to_vec(),
                    buf: None,
                });
            }
        }
    }

    fn exit(&mut self, scope: &Scope<'a>) {
        if let Scope::Loop(_) = scope {
            self.ctx = self.outside.pop().unwrap_or_default();
        }
    }
}

impl Report<'_> {
    /// The dimensions `buf` has at `at`: those of the innermost
    /// allocation or alias of that name, else of the argument.
    fn dims_of(&self, buf: &Sym, at: &Place<'_>, ctx: &Context) -> Option<Vec<Expr>> {
        let local = at.scopes.iter().rev().find_map(|scope| match scope {
            Scope::Alloc { name, dims } if *name == buf => Some(dims.to_vec()),
            Scope::Alias { name, window, .. } if *name == buf => Some(
                window
                    .iter()
                    .filter_map(|w| match w {
                        WAccess::Interval(lo, hi) => {
                            Some(simplify_expr(&(hi.clone() - lo.clone()), ctx))
                        }
                        WAccess::Point(_) => None,
                    })
                    .collect(),
            ),
            _ => None,
        });
        local.or_else(|| match &self.proc.arg(buf.name())?.kind {
            ArgKind::Tensor { dims, .. } => Some(dims.clone()),
            _ => None,
        })
    }

    /// Every dimension the access names lies inside the shape its name has
    /// there: a point inside `[0, extent)`, an interval `[lo, hi)` with
    /// `0 <= lo` and `hi <= extent`.
    fn check_access(&mut self, a: &Access<'_, '_>, ctx: &Context) {
        let buf = a.name;
        let Some(dims) = self.dims_of(buf, a.at, ctx) else {
            let message = format!("access to unknown buffer `{buf}`");
            return self.diag("V104", Severity::Error, a, message);
        };
        let named = a.shape.dims().count();
        if named != dims.len() {
            let message = format!(
                "`{buf}` has {} dimension(s) but is accessed with {named}",
                dims.len()
            );
            return self.diag("V103", Severity::Error, a, message);
        }
        let point = match a.shape {
            Shape::Point(_) => "index",
            _ => "window point",
        };
        for (d, (named, dim)) in a.shape.dims().zip(&dims).enumerate() {
            let (lo, lo_is, hi, hi_is, end) = match named {
                Dim::Point(e) => (e, point, e, point, dim.clone() - ib(1)),
                // The interval is `[lo, hi)`: `hi` may equal the extent.
                Dim::Interval(lo, hi) => (lo, "window start", hi, "window end", dim.clone()),
            };
            self.check_bound(hi, true, &end, a, ctx, &|| {
                format!("{hi_is} `{hi}` of `{buf}` (dim {d}, extent {dim})")
            });
            self.check_bound(lo, false, &ib(0), a, ctx, &|| {
                format!("{lo_is} `{lo}` of `{buf}` (dim {d})")
            });
        }
    }

    /// Proves `e <= bound` (`upper`) or `bound <= e` at every value the
    /// enclosing iterators give `e`; on failure distinguishes a proven
    /// violation (even the most favourable value lies beyond `bound`) from
    /// an unprovable obligation.
    fn check_bound(
        &mut self,
        e: &Expr,
        upper: bool,
        bound: &Expr,
        a: &Access<'_, '_>,
        ctx: &Context,
        what: &dyn Fn() -> String,
    ) {
        let within = |e: &Expr, limit: &Expr| match upper {
            true => prove_le(e, limit, ctx),
            false => prove_le(limit, e, ctx),
        };
        if extremize(e, ctx, upper).is_some_and(|worst| within(&worst, bound)) {
            return;
        }
        let beyond = bound.clone() + ib(if upper { 1 } else { -1 });
        let violated = extremize(e, ctx, !upper).is_some_and(|best| within(&beyond, &best));
        let what = what();
        let message = match (violated, upper) {
            (true, true) => format!("{what} is provably out of bounds (exceeds `{bound}`)"),
            (true, false) => format!("{what} is provably negative"),
            (false, true) => format!("cannot prove {what} stays within `{bound}`"),
            (false, false) => format!("cannot prove {what} is non-negative"),
        };
        if violated {
            self.diag("V101", Severity::Error, a, message);
        } else {
            self.diag("V102", Severity::Warning, a, message);
        }
    }

    fn diag(
        &mut self,
        code: &'static str,
        severity: Severity,
        a: &Access<'_, '_>,
        message: String,
    ) {
        self.diags.push(Diagnostic {
            code,
            severity,
            message,
            path: a.at.path.clone(),
            buf: Some(a.name.clone()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{var, BinOp, DataType, Mem, ProcBuilder};

    #[test]
    fn divmod_recombination() {
        // 4*(E/4) + E%4 - 1 == E - 1 for E = ri + 4*ro + 1.
        let ctx = Context::new();
        let e = var("ri") + ib(4) * var("ro") + ib(1);
        let recombined = ib(4) * (e.clone() / ib(4)) + e.clone() % ib(4) - ib(1);
        assert!(prove_le(&recombined, &(e.clone() - ib(1)), &ctx));
        assert!(prove_le(&(e - ib(1)), &recombined, &ctx));
    }

    #[test]
    fn extremize_is_innermost_first() {
        // for i in 0..N: for j in 0..i+1: max(j) should reach N-1.
        let mut ctx = Context::new();
        ctx.push_iter(Sym::new("i"), ib(0), var("N"));
        ctx.push_iter(Sym::new("j"), ib(0), var("i") + ib(1));
        let mx = extremize(&var("j"), &ctx, true).unwrap();
        assert!(prove_le(&mx, &(var("N") - ib(1)), &ctx), "{mx}");
    }

    fn vec_kernel() -> Proc {
        // The saxpy+l1 shape: windows x[8*vo : 8*vo + 8] under n % 8 == 0.
        ProcBuilder::new("vk")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .assert_(Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)))
            .assert_(Expr::Bin {
                op: BinOp::Ge,
                lhs: Box::new(var("n")),
                rhs: Box::new(ib(8)),
            })
            .for_("vo", ib(0), var("n") / ib(8), |b| {
                b.assign(
                    "x",
                    vec![ib(8) * var("vo") + ib(7)],
                    exo_ir::read("x", vec![ib(8) * var("vo")]),
                );
            })
            .build()
    }

    #[test]
    fn vectorized_accesses_certify() {
        let diags = check_proc(&vec_kernel());
        assert!(diags.is_empty(), "{:?}", diags);
    }

    #[test]
    fn oob_access_is_an_error() {
        let p = ProcBuilder::new("bad")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.assign("x", vec![var("i") + var("n")], ib(0));
            })
            .build();
        let diags = check_proc(&p);
        assert!(diags.iter().any(|d| d.code == "V101"), "{:?}", diags);
        assert!(unproven_buffers(&p).contains("x"));
    }

    #[test]
    fn unprovable_access_is_a_warning() {
        // x[i + j] with i, j < n: may or may not exceed n-1.
        let p = ProcBuilder::new("warn")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.for_("j", ib(0), var("n"), |b| {
                    b.assign("x", vec![var("i") + var("j")], ib(0));
                });
            })
            .build();
        let diags = check_proc(&p);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    }
}
