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
//! The bounds prover works over [`VLin`], a linear normal form that —
//! unlike [`LinExpr`], which treats `E / k` and `E % k` as opaque strings —
//! keeps floor-division and modulo atoms *structured*, so it can apply the
//! two rewrites the scheduled-code shapes demand:
//!
//! 1. **Recombination**: `k·(E/k) + (E%k) → E` (exact, no side
//!    conditions). This discharges the cut-tail shapes
//!    `buf[k*(hi/k) + tail_iter]` with `tail_iter < hi % k` that
//!    `divide_loop`'s `Cut` strategy produces.
//! 2. **Divisibility elimination**: `c·(E/k) → (c/k)·E` when `k | c` and
//!    the context proves `E % k == 0`. This discharges the perfect-tiling
//!    shapes `k*(N/k) ≤ N` under `assert N % k == 0`.
//!
//! Loop iterators are eliminated innermost-first by substituting the range
//! endpoint that extremizes the (monotone) index expression; substituting
//! innermost-first is what makes triangular nests (`for j in seq(0, i+1)`)
//! resolve, because an inner bound may mention outer iterators.
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
use crate::simplify::simplify_expr;
use exo_ir::{ib, substitute_expr, ArgKind, BinOp, Expr, Proc, Step, Sym, WAccess};
use std::collections::{BTreeMap, BTreeSet};

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

// ---------------------------------------------------------------------------
// VLin: linear normal form with structured div/mod atoms.
// ---------------------------------------------------------------------------

/// An atom of a [`VLin`]: unlike [`crate::LinExpr`]'s opaque strings, the
/// division and modulo atoms keep their numerator as a canonicalized
/// expression so rewrites can see through them.
#[derive(Clone, Debug)]
enum VAtom {
    Var(Sym),
    /// `expr / k` with `k > 0` (floor division).
    Div(Expr, i64),
    /// `expr % k` with `k > 0` (always in `[0, k)`).
    Mod(Expr, i64),
    /// Anything else (non-affine product, buffer read, ...).
    Other(Expr),
}

impl VAtom {
    fn to_expr(&self) -> Expr {
        match self {
            VAtom::Var(s) => Expr::Var(s.clone()),
            VAtom::Div(e, k) => e.clone() / ib(*k),
            VAtom::Mod(e, k) => e.clone() % ib(*k),
            VAtom::Other(e) => e.clone(),
        }
    }

    /// Canonical key used to merge structurally identical atoms.
    fn key(&self) -> String {
        self.to_expr().to_string()
    }

    fn mentions(&self, sym: &Sym) -> bool {
        match self {
            VAtom::Var(s) => s == sym,
            VAtom::Div(e, _) | VAtom::Mod(e, _) | VAtom::Other(e) => e.mentions(sym),
        }
    }
}

/// `constant + Σ coeff·atom` with structured atoms, keyed canonically.
#[derive(Clone, Debug, Default)]
struct VLin {
    terms: BTreeMap<String, (VAtom, i64)>,
    constant: i64,
}

impl VLin {
    fn constant(c: i64) -> VLin {
        VLin {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    fn add_term(&mut self, atom: VAtom, coeff: i64) {
        if coeff == 0 {
            return;
        }
        let key = atom.key();
        let entry = self.terms.entry(key.clone()).or_insert((atom, 0));
        entry.1 += coeff;
        if entry.1 == 0 {
            self.terms.remove(&key);
        }
    }

    fn add(&mut self, other: &VLin, scale: i64) {
        self.constant += other.constant * scale;
        for (atom, coeff) in other.terms.values() {
            self.add_term(atom.clone(), coeff * scale);
        }
    }

    fn as_constant(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.constant)
    }

    fn mentions(&self, sym: &Sym) -> bool {
        self.terms.values().any(|(a, _)| a.mentions(sym))
    }

    fn coeff_of_var(&self, sym: &Sym) -> i64 {
        self.terms
            .values()
            .find_map(|(a, c)| match a {
                VAtom::Var(s) if s == sym => Some(*c),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Rebuilds an [`Expr`] equal to this normal form.
    fn to_expr(&self) -> Expr {
        let mut out: Option<Expr> = None;
        for (atom, coeff) in self.terms.values() {
            let base = atom.to_expr();
            let term = if *coeff == 1 { base } else { ib(*coeff) * base };
            out = Some(match out {
                None => term,
                Some(prev) => prev + term,
            });
        }
        match (out, self.constant) {
            (None, c) => ib(c),
            (Some(e), 0) => e,
            (Some(e), c) if c > 0 => e + ib(c),
            (Some(e), c) => e - ib(-c),
        }
    }
}

/// Builds the [`VLin`] normal form of `e`, canonicalizing div/mod
/// numerators recursively and applying the recombination and divisibility
/// rewrites until fixpoint.
fn vnorm(e: &Expr, ctx: &Context) -> VLin {
    let mut v = vnorm_raw(e, ctx);
    reduce(&mut v, ctx);
    v
}

fn vnorm_raw(e: &Expr, ctx: &Context) -> VLin {
    match e {
        Expr::Int(v) => VLin::constant(*v),
        Expr::Bool(b) => VLin::constant(i64::from(*b)),
        Expr::Var(s) => {
            let mut v = VLin::default();
            v.add_term(VAtom::Var(s.clone()), 1);
            v
        }
        Expr::Bin { op, lhs, rhs } => match op {
            BinOp::Add | BinOp::Sub => {
                let mut v = vnorm_raw(lhs, ctx);
                let r = vnorm_raw(rhs, ctx);
                v.add(&r, if *op == BinOp::Add { 1 } else { -1 });
                v
            }
            BinOp::Mul => {
                let l = vnorm_raw(lhs, ctx);
                let r = vnorm_raw(rhs, ctx);
                if let Some(c) = l.as_constant() {
                    let mut v = VLin::default();
                    v.add(&r, c);
                    v
                } else if let Some(c) = r.as_constant() {
                    let mut v = VLin::default();
                    v.add(&l, c);
                    v
                } else {
                    opaque(e)
                }
            }
            BinOp::Div => div_mod_atom(lhs, rhs, ctx, true, e),
            BinOp::Mod => div_mod_atom(lhs, rhs, ctx, false, e),
            _ => opaque(e),
        },
        Expr::Un {
            op: exo_ir::UnOp::Neg,
            arg,
        } => {
            let mut v = VLin::default();
            v.add(&vnorm_raw(arg, ctx), -1);
            v
        }
        other => opaque(other),
    }
}

fn opaque(e: &Expr) -> VLin {
    let mut v = VLin::default();
    v.add_term(VAtom::Other(e.clone()), 1);
    v
}

fn div_mod_atom(num: &Expr, den: &Expr, ctx: &Context, is_div: bool, whole: &Expr) -> VLin {
    let Some(k) = den.as_int().filter(|k| *k > 0) else {
        return opaque(whole);
    };
    // Canonicalize the numerator first, so `(4*(N/4 - 1) + 4) / 8`
    // becomes `N / 8` before the atom is formed.
    let num_v = vnorm(num, ctx);
    if let Some(c) = num_v.as_constant() {
        return VLin::constant(if is_div {
            c.div_euclid(k)
        } else {
            c.rem_euclid(k)
        });
    }
    let num_e = num_v.to_expr();
    // Exact division: every coefficient (and the constant) divisible.
    let all_div = num_v.constant % k == 0 && num_v.terms.values().all(|(_, c)| c % k == 0);
    if all_div {
        let mut v = VLin::default();
        if is_div {
            v.constant = num_v.constant / k;
            for (atom, coeff) in num_v.terms.values() {
                v.add_term(atom.clone(), coeff / k);
            }
        }
        return v;
    }
    if !is_div && ctx.divides(&num_e, k) {
        return VLin::constant(0);
    }
    let mut v = VLin::default();
    v.add_term(
        if is_div {
            VAtom::Div(num_e, k)
        } else {
            VAtom::Mod(num_e, k)
        },
        1,
    );
    v
}

/// Applies the recombination and divisibility rewrites until fixpoint.
fn reduce(v: &mut VLin, ctx: &Context) {
    for _ in 0..8 {
        let mut changed = false;
        // Recombination: a·(E/k) + b·(E%k) with a == k·b  →  b·E.
        let keys: Vec<String> = v.terms.keys().cloned().collect();
        'outer: for key in &keys {
            let Some((VAtom::Mod(e, k), b)) = v.terms.get(key).cloned() else {
                continue;
            };
            let div_key = VAtom::Div(e.clone(), k).key();
            let Some((VAtom::Div(de, dk), a)) = v.terms.get(&div_key).cloned() else {
                continue;
            };
            if dk == k && a == k * b {
                v.terms.remove(key);
                v.terms.remove(&div_key);
                let inner = vnorm_raw(&de, ctx);
                v.add(&inner, b);
                changed = true;
                break 'outer;
            }
        }
        // Divisibility elimination: c·(E/k) → (c/k)·E when k|c and E%k==0.
        if !changed {
            let keys: Vec<String> = v.terms.keys().cloned().collect();
            for key in &keys {
                let Some((VAtom::Div(e, k), c)) = v.terms.get(key).cloned() else {
                    continue;
                };
                if c % k == 0 && ctx.divides(&e, k) {
                    v.terms.remove(key);
                    let inner = vnorm_raw(&e, ctx);
                    v.add(&inner, c / k);
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// The inequality prover.
// ---------------------------------------------------------------------------

/// Conservative constant lower/upper bound of a [`VLin`] under `ctx`.
fn vlin_const_bound(v: &VLin, ctx: &Context, lower: bool) -> Option<i64> {
    let mut acc = v.constant;
    for (atom, coeff) in v.terms.values() {
        // A positive coefficient needs the atom's bound in the same
        // direction; a negative coefficient needs the opposite one.
        let want_lower = (*coeff > 0) == lower;
        let b = atom_bound(atom, ctx, want_lower)?;
        acc += coeff * b;
    }
    Some(acc)
}

fn atom_bound(atom: &VAtom, ctx: &Context, lower: bool) -> Option<i64> {
    match atom {
        VAtom::Var(s) => {
            if lower {
                ctx.lower_bound(s)
            } else {
                ctx.upper_bound(s)
            }
        }
        VAtom::Mod(_, k) => Some(if lower { 0 } else { k - 1 }),
        VAtom::Div(e, k) => {
            let inner = vnorm(e, ctx);
            let b = vlin_const_bound(&inner, ctx, lower)?;
            Some(b.div_euclid(*k))
        }
        VAtom::Other(_) => None,
    }
}

/// Whether `a <= b` is provable under `ctx`. This is the verifier's
/// workhorse: it subsumes [`Context::proves_le`] by seeing through
/// floor-division/modulo atoms (recombination, divisibility elimination,
/// interval bounds).
pub fn prove_le(a: &Expr, b: &Expr, ctx: &Context) -> bool {
    let mut diff = vnorm(b, ctx);
    let va = vnorm(a, ctx);
    diff.add(&va, -1);
    reduce(&mut diff, ctx);
    if let Some(c) = diff.as_constant() {
        return c >= 0;
    }
    matches!(vlin_const_bound(&diff, ctx, true), Some(lo) if lo >= 0)
}

/// Substitutes every enclosing loop iterator (innermost first) by the
/// range endpoint that extremizes `e`, returning the extremized expression
/// — or `None` when some occurrence is not provably monotone in the
/// iterator (e.g. under a bare `%` with no recombinable partner).
pub(crate) fn extremize(e: &Expr, ctx: &Context, maximize: bool) -> Option<Expr> {
    let mut cur = simplify_expr(e, ctx);
    let iters = ctx.iterators();
    for iter in iters.iter().rev() {
        let v = vnorm(&cur, ctx);
        if !v.mentions(iter) {
            continue;
        }
        // Rebuild from the reduced form: recombination may already have
        // eliminated a non-monotone `%` occurrence.
        cur = v.to_expr();
        let lin_c = v.coeff_of_var(iter);
        // `take_hi`: substitute `hi - 1` (true) or `lo` (false).
        let mut dir: Option<bool> = match lin_c.cmp(&0) {
            std::cmp::Ordering::Greater => Some(maximize),
            std::cmp::Ordering::Less => Some(!maximize),
            std::cmp::Ordering::Equal => None,
        };
        for (atom, coeff) in v.terms.values() {
            let in_atom = match atom {
                VAtom::Var(_) => false,
                other => other.mentions(iter),
            };
            if !in_atom {
                continue;
            }
            // Only `E / k` atoms with `E` linear and monotone in the
            // iterator are handled; `%` and opaque occurrences are not
            // provably monotone.
            let VAtom::Div(inner, _) = atom else {
                return None;
            };
            let iv = vnorm(inner, ctx);
            let inner_c = iv.coeff_of_var(iter);
            let only_linear = inner_c != 0
                && !iv.terms.values().any(|(a, _)| match a {
                    VAtom::Var(_) => false,
                    other => other.mentions(iter),
                });
            if !only_linear {
                return None;
            }
            let increasing = (inner_c > 0) == (*coeff > 0);
            let want_hi = increasing == maximize;
            match dir {
                None => dir = Some(want_hi),
                Some(d) if d == want_hi => {}
                Some(_) => return None,
            }
        }
        let take_hi = dir?;
        let range = ctx.iter_range(iter)?;
        let value = if take_hi {
            range.hi.clone() - ib(1)
        } else {
            range.lo.clone()
        };
        cur = simplify_expr(&substitute_expr(cur, iter, &value), ctx);
    }
    Some(cur)
}

// ---------------------------------------------------------------------------
// The whole-proc driver.
// ---------------------------------------------------------------------------

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
    use exo_ir::{var, DataType, Mem, ProcBuilder};

    fn ctx_with(f: impl FnOnce(&mut Context)) -> Context {
        let mut ctx = Context::new();
        f(&mut ctx);
        ctx
    }

    #[test]
    fn prove_le_sees_through_perfect_tiling() {
        // 8 * (n / 8) <= n  under  n % 8 == 0.
        let ctx = ctx_with(|c| {
            c.add_fact(&Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)));
        });
        let e = ib(8) * (var("n") / ib(8));
        assert!(prove_le(&e, &var("n"), &ctx));
        assert!(prove_le(&var("n"), &e, &ctx));
        // Without the fact the floor bound still gives `8*(n/8) <= n`...
        let bare = Context::new();
        // ...but not through the equality path; the conservative answer is
        // allowed to be `false` here.
        let _ = prove_le(&e, &var("n"), &bare);
        // The reverse is definitely not provable without divisibility.
        assert!(!prove_le(&var("n"), &e, &bare));
    }

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
