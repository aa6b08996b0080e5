//! Commutativity, dependence, idempotence and invariance checks.
//!
//! These are the checks the scheduling primitives of `exo-core` use to
//! guarantee functional equivalence (the "Safety conditions" column of the
//! paper's Appendix A). All checks are conservative: a `false` answer means
//! "could not prove safe", not "definitely unsafe".

use crate::accesses::{self, walk_accesses, AccessSink, Dim, Place, Scope, Shape, Touch};
use crate::context::Context;
use crate::effects::{Access, Effects};
use crate::linear::LinExpr;
use exo_ir::{for_each_expr, Expr, Stmt, Sym};
use std::collections::BTreeSet;

/// Whether a per-dimension index difference is provably nonzero under
/// `ctx`: a nonzero constant, a residue class that excludes zero (all
/// coefficients share a divisor `g` the constant is not a multiple of), or
/// a value range that excludes zero.
fn diff_provably_nonzero(diff: &LinExpr, ctx: &Context) -> bool {
    if let Some(c) = diff.as_constant() {
        return c != 0;
    }
    // Residue class: diff = g·(...) + c with c % g != 0 is never zero.
    // This proves `a[2*i]` and `a[2*i + 1]` disjoint for *all* i, i'.
    let g = diff.terms().fold(0i64, |acc, (_, c)| gcd(acc, c.abs()));
    if g > 1 && diff.constant % g != 0 {
        return true;
    }
    // Interval: every atom has known constant bounds and 0 is outside.
    matches!(diff.bound(ctx, true), Some(lo) if lo > 0)
        || matches!(diff.bound(ctx, false), Some(hi) if hi < 0)
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Whether two accesses may refer to the same buffer element.
///
/// Returns `false` (provably disjoint) only when some dimension's index
/// expressions provably differ: by a nonzero constant, by a nonzero
/// residue class, or by a `ctx`-derived value range excluding zero.
fn may_overlap(a: &Access, b: &Access, ctx: &Context) -> bool {
    if a.buf != b.buf {
        return false;
    }
    if a.whole_buffer || b.whole_buffer {
        return true;
    }
    if a.idx.len() != b.idx.len() {
        return true;
    }
    for (ia, ib) in a.idx.iter().zip(b.idx.iter()) {
        let diff = LinExpr::from_expr(ia).sub(&LinExpr::from_expr(ib));
        if diff_provably_nonzero(&diff, ctx) {
            return false;
        }
    }
    true
}

/// Whether two statements (or statement blocks, via their combined
/// effects) commute: executing them in either order yields the same state.
/// Where window aliases may be in scope the effects must have been taken
/// in `ctx` ([`Effects::of_stmts_in`]), so that they name root buffers.
pub fn stmts_commute(a: &Effects, b: &Effects, ctx: &Context) -> bool {
    // Config state: any write/read or write/write collision on the same
    // field forbids reordering.
    for (c, f) in &a.config_writes {
        if b.config_writes.iter().any(|(c2, f2)| c2 == c && f2 == f)
            || b.config_reads.iter().any(|(c2, f2)| c2 == c && f2 == f)
        {
            return false;
        }
    }
    for (c, f) in &b.config_writes {
        if a.config_reads.iter().any(|(c2, f2)| c2 == c && f2 == f) {
            return false;
        }
    }
    // Write/write conflicts: assignments never commute with overlapping
    // writes; reductions commute with each other (addition commutes).
    for wa in &a.writes {
        for wb in b.writes.iter().chain(b.reduces.iter()) {
            if may_overlap(wa, wb, ctx) {
                return false;
            }
        }
    }
    for wa in &a.reduces {
        for wb in &b.writes {
            if may_overlap(wa, wb, ctx) {
                return false;
            }
        }
    }
    // Read/write conflicts in both directions (a reduce both reads and
    // writes its destination, but reduce-vs-reduce on the same location is
    // fine).
    for ra in &a.reads {
        for wb in b.writes.iter().chain(b.reduces.iter()) {
            if may_overlap(ra, wb, ctx) {
                return false;
            }
        }
    }
    for rb in &b.reads {
        for wa in a.writes.iter().chain(a.reduces.iter()) {
            if may_overlap(rb, wa, ctx) {
                return false;
            }
        }
    }
    true
}

/// Whether two accesses are provably disjoint across *distinct* iterations
/// of `iter`: some dimension's indices decompose as `s·iter + r` with the
/// same stride `s != 0` on both sides and a loop-invariant residual
/// difference `δ` that is either zero or not a multiple of `s` — then
/// `s·(i - i') = δ` has no solution with `i != i'`.
fn iteration_disjoint(iter: &Sym, a: &Access, b: &Access, ctx: &Context) -> bool {
    if a.whole_buffer || b.whole_buffer || a.idx.len() != b.idx.len() {
        return false;
    }
    let _ = ctx;
    for (ia, ib) in a.idx.iter().zip(b.idx.iter()) {
        let la = LinExpr::from_expr(ia);
        let lb = LinExpr::from_expr(ib);
        let s = la.coeff_of(iter);
        if s == 0 || lb.coeff_of(iter) != s {
            continue;
        }
        // Neither side may vary with an iterator bound *inside* the loop
        // body: those take arbitrary values on each side of the comparison,
        // so they must be checked before subtraction (same-named body
        // iterators would cancel, e.g. `y[i + j]` vs itself over `i`).
        let body_invariant = |l: &LinExpr| {
            a.iters
                .iter()
                .chain(b.iters.iter())
                .filter(|s2| *s2 != iter)
                .all(|s2| !l.mentions(s2))
        };
        if !body_invariant(&la) || !body_invariant(&lb) {
            continue;
        }
        let mut delta = la.sub(&lb);
        delta.remove_var(iter);
        // `iter` must not survive inside an atom of the residual.
        if delta.mentions(iter) {
            continue;
        }
        if delta.is_zero() {
            return true;
        }
        if let Some(c) = delta.as_constant() {
            if c % s != 0 {
                return true;
            }
        }
    }
    false
}

/// Whether the iterations of `for iter in ...: body` may execute in any
/// order (no loop-carried read-after-write or write-after-write
/// dependencies). Used by `parallelize_loop` and the verifier's
/// parallel-loop race check.
///
/// The test is index-level: two accesses to the same buffer are fine when
/// the index-disjointness test proves distinct iterations touch distinct
/// elements (e.g. `C[i, j]` over `i`, or the strided pair `a[2*i]` /
/// `a[2*i + 1]`). Buffers whose every access in the body is a *reduce* are
/// always fine: reductions commute, so the loop is parallelizable as a
/// reduction even when the destination index is loop-invariant (the gemv
/// accumulator shape `y[i] += A[i, j] * x[j]` over `j`).
pub fn loop_is_parallelizable(iter: &Sym, body_effects: &Effects, ctx: &Context) -> bool {
    if body_effects.has_calls {
        return false;
    }
    if !body_effects.config_writes.is_empty() {
        return false;
    }
    for buf in body_effects.buffers_written() {
        // Skip buffers allocated inside the body: they are private per
        // iteration.
        if body_effects.allocs.contains(&buf) {
            continue;
        }
        let is = |list: &[Access]| -> Vec<Access> {
            list.iter().filter(|a| a.buf == buf).cloned().collect()
        };
        let reads = is(&body_effects.reads);
        let writes = is(&body_effects.writes);
        let reduces = is(&body_effects.reduces);
        // Reduce-only buffers: all iterations commute (accumulation order
        // is irrelevant), regardless of indexing.
        if writes.is_empty() && reads.is_empty() {
            continue;
        }
        // Every (write, access) pair must be provably disjoint across
        // distinct iterations; reduce-vs-reduce pairs commute and are
        // exempt.
        let writers: Vec<(&Access, bool)> = writes
            .iter()
            .map(|a| (a, false))
            .chain(reduces.iter().map(|a| (a, true)))
            .collect();
        let others: Vec<(&Access, bool)> = reads
            .iter()
            .map(|a| (a, false))
            .chain(writers.iter().copied())
            .collect();
        for (w, w_red) in &writers {
            for (o, o_red) in &others {
                if *w_red && *o_red {
                    continue;
                }
                if !iteration_disjoint(iter, w, o, ctx) {
                    return false;
                }
            }
        }
    }
    true
}

/// A per-iteration rectangular footprint of one buffer access inside a
/// candidate threaded-loop body: per dimension a half-open interval
/// `[lo, hi)` of linearized index bounds (a point access `e` is
/// `[e, e + 1)`).
struct Region {
    buf: Sym,
    dims: Vec<(LinExpr, LinExpr)>,
    /// Iterators bound inside the analyzed body, in scope at this access.
    iters: Vec<Sym>,
    written: bool,
}

fn region_dim(dim: Dim<'_>) -> (LinExpr, LinExpr) {
    match dim {
        Dim::Point(e) => {
            let lo = LinExpr::from_expr(e);
            let hi = lo.add(&LinExpr::constant(1));
            (lo, hi)
        }
        Dim::Interval(lo, hi) => (LinExpr::from_expr(lo), LinExpr::from_expr(hi)),
    }
}

/// A per-`(callee, argument-index)` writability oracle for the region
/// analysis: `Some(false)` means the callee provably never writes that
/// argument, `Some(true)` that it does (or may), and `None` that the
/// callee is unknown — treated as a write. Callers holding the callee
/// bodies (a `ProcRegistry`, a `MachineModel`'s instruction list) build
/// one from [`written_params`]; everyone else gets the conservative
/// `&|_, _| None`.
pub type CalleeWrites<'a> = &'a dyn Fn(&str, usize) -> Option<bool>;

/// Which positional arguments `proc`'s body may write, derived from the
/// body itself: an argument is written when it is the target of an
/// assignment or reduction — directly or through a window alias of it —
/// or passed on to a nested call in any buffer position (no recursion —
/// the nested callee's body is not at hand here). Scalar and size
/// arguments are never written (the IR has no address-of).
pub fn written_params(proc: &exo_ir::Proc) -> Vec<bool> {
    struct Written<'a>(BTreeSet<&'a Sym>);
    impl<'a> AccessSink<'a> for Written<'a> {
        fn access(&mut self, a: &accesses::Access<'_, 'a>) {
            if !matches!(a.touch, Touch::Read) {
                self.0.insert(a.root);
            }
        }
    }
    let mut written = Written(BTreeSet::new());
    walk_accesses(None, proc.body(), &mut written);
    proc.args()
        .iter()
        .map(|a| written.0.contains(&a.name))
        .collect()
}

/// Collects every buffer region a loop body touches: the region
/// certificate's policy over the access walk. Call-argument windows are
/// written or read per the [`CalleeWrites`] oracle (written when unknown)
/// and reduces are plain writes — under OS threads `+=` is a
/// read-modify-write data race even though it commutes semantically.
/// Collection *fails* (`bounded` turns `false`) on constructs the region
/// analysis cannot bound: window aliases, config writes, bare non-private
/// buffer arguments a callee may write.
struct RegionCollector<'c> {
    regions: Vec<Region>,
    callee_writes: CalleeWrites<'c>,
    bounded: bool,
}

/// Widens `[lo, hi)` to cover every value of the enclosing iterators
/// whose loop has constant bounds (the rows `4 * io + k0`, `k0` in
/// `[0, 4)`, become `[4 * io, 4 * io + 4)`), so that the footprint of a
/// small inner loop is one body-invariant interval. Over-approximating a
/// region can only make a disjointness proof harder, never unsound.
fn hull(at: &Place<'_>, (mut lo, mut hi): (LinExpr, LinExpr)) -> (LinExpr, LinExpr) {
    for l in at.loops() {
        let (Some(first), Some(end)) = (l.lo.as_int(), l.hi.as_int()) else {
            continue;
        };
        if first >= end {
            continue;
        }
        for (bound, is_lo) in [(&mut lo, true), (&mut hi, false)] {
            let c = bound.coeff_of(l.iter);
            if c == 0 {
                continue;
            }
            let value = if (c > 0) == is_lo { first } else { end - 1 };
            // On overflow the bound keeps mentioning the iterator,
            // which no proof accepts.
            if let Some(constant) = c
                .checked_mul(value)
                .and_then(|v| bound.constant.checked_add(v))
            {
                bound.remove_var(l.iter);
                bound.constant = constant;
            }
        }
    }
    (lo, hi)
}

impl<'a> AccessSink<'a> for RegionCollector<'_> {
    fn access(&mut self, a: &accesses::Access<'_, 'a>) {
        // A buffer allocated in the body is private to each iteration.
        if a.is_local() {
            return;
        }
        // The indices of an access through an alias are the alias' own.
        self.bounded &= a.name == a.root;
        let written = match (a.touch, a.shape) {
            (Touch::Read, _) | (Touch::Arg { .. }, Shape::Point(_)) => false,
            (Touch::Write | Touch::Reduce, _) => true,
            (Touch::Arg { callee, n }, Shape::Window(_)) => {
                (self.callee_writes)(callee, n).unwrap_or(true)
            }
            // A bare name passed to a callee is fine when the callee
            // provably never writes it (a read of unknown extent pairs
            // against writers and blocks them, which is exactly right);
            // otherwise the callee could write through it with unknown
            // extent.
            (Touch::Arg { callee, n }, Shape::Whole) => {
                self.bounded &= (self.callee_writes)(callee, n) == Some(false);
                false
            }
        };
        self.regions.push(Region {
            buf: a.root.clone(),
            dims: a.shape.dims().map(|d| hull(a.at, region_dim(d))).collect(),
            iters: a.at.loops().map(|l| l.iter.clone()).collect(),
            written,
        });
    }

    fn enter(&mut self, scope: &Scope<'a>, _at: &Place<'a>) {
        // Aliases defeat the region analysis, used or not.
        self.bounded &= !matches!(scope, Scope::Alias { .. });
    }

    fn config(&mut self, _config: &'a Sym, _field: &'a str, write: bool) {
        // Ordered device state defeats it too.
        self.bounded &= !write;
    }
}

/// Whether two regions are provably disjoint for *distinct* values of
/// `iter`. Looks for one dimension whose bounds all decompose as
/// `s·iter + r` with a shared nonzero stride `s`, body-invariant
/// residuals, constant widths `wa`, `wb` and a constant residual offset
/// `δ`, such that at the closest approach (`|i − i'| = 1`) the intervals
/// still miss each other: `|s| + δ ≥ wb` and `δ + wa ≤ |s|`. Larger
/// `|i − i'|` only moves the regions further apart, so one such
/// dimension proves the pair disjoint.
fn region_disjoint_across(iter: &Sym, a: &Region, b: &Region) -> bool {
    if a.dims.len() != b.dims.len() {
        return false;
    }
    for ((alo, ahi), (blo, bhi)) in a.dims.iter().zip(b.dims.iter()) {
        let s = alo.coeff_of(iter);
        if s == 0 || ahi.coeff_of(iter) != s || blo.coeff_of(iter) != s || bhi.coeff_of(iter) != s {
            continue;
        }
        // Bounds must not vary with iterators bound inside the body on
        // either side: those take unrelated values in the two iterations
        // being compared (`y[x + dx]` vs itself over `x`, `dx` inner).
        let body_invariant = |l: &LinExpr| {
            a.iters
                .iter()
                .chain(b.iters.iter())
                .filter(|s2| *s2 != iter)
                .all(|s2| !l.mentions(s2))
        };
        if [alo, ahi, blo, bhi].iter().any(|l| !body_invariant(l)) {
            continue;
        }
        let (Some(wa), Some(wb)) = (ahi.sub(alo).as_constant(), bhi.sub(blo).as_constant()) else {
            continue;
        };
        if wa <= 0 || wb <= 0 {
            continue;
        }
        let mut delta = alo.sub(blo);
        delta.remove_var(iter);
        if delta.mentions(iter) {
            continue;
        }
        let Some(d) = delta.as_constant() else {
            continue;
        };
        let s_abs = s.abs();
        if s_abs + d >= wb && d + wa <= s_abs {
            return true;
        }
    }
    false
}

/// Whether `for iter in ...: body` is safe to execute on OS threads
/// (`#pragma omp parallel for`): every pair of same-buffer region
/// accesses in which at least one side writes must be provably disjoint
/// across distinct iterations. Reductions count as writes (a C-level
/// `+=` race), call-argument windows count as callee writes, and
/// body-local allocs are thread-private. The check is incomparable to
/// [`loop_is_parallelizable`]: stronger on commuting reductions (which
/// it rejects), weaker on bodies made of instruction calls with
/// window arguments (which that check rejects outright).
///
/// Without callee knowledge every call-argument window counts as a
/// write; see [`loop_is_threadable_where`] to supply a
/// [`CalleeWrites`] oracle so read-only operands (the `B` panel of an
/// FMA, a broadcast source) stop defeating the proof.
///
/// Neither this nor [`loop_is_threadable_where`] knows what is in scope
/// around the loop: a body that uses a window alias declared outside it
/// needs [`parallel_loop_is_safe`].
pub fn loop_is_threadable<'a>(iter: &Sym, body: impl IntoIterator<Item = &'a Stmt>) -> bool {
    loop_is_threadable_where(iter, body, &|_, _| None)
}

/// [`loop_is_threadable`] with a [`CalleeWrites`] oracle resolving
/// which call arguments each callee actually writes.
pub fn loop_is_threadable_where<'a, 'c>(
    iter: &Sym,
    body: impl IntoIterator<Item = &'a Stmt>,
    callee_writes: CalleeWrites<'c>,
) -> bool {
    threadable(None, iter, body, callee_writes)
}

/// The region certificate, for a loop sitting where `outer` was taken.
fn threadable<'a>(
    outer: Option<&'a Context>,
    iter: &Sym,
    body: impl IntoIterator<Item = &'a Stmt>,
    callee_writes: CalleeWrites<'_>,
) -> bool {
    let mut rc = RegionCollector {
        regions: Vec::new(),
        callee_writes,
        bounded: true,
    };
    walk_accesses(outer, body, &mut rc);
    if !rc.bounded {
        return false;
    }
    for w in rc.regions.iter().filter(|r| r.written) {
        // Every same-buffer pair with this writer — including the
        // writer against its own copy from another iteration — must be
        // provably disjoint across iterations.
        for o in rc.regions.iter().filter(|r| r.buf == w.buf) {
            if !region_disjoint_across(iter, w, o) {
                return false;
            }
        }
    }
    true
}

/// Whether `for iter in ...: body`, sitting where `ctx` was taken
/// ([`Context::at`] of the loop), may be marked `parallel`. Two independent
/// certificates, either of which proves the iterations order-independent:
/// the index-level commutativity check [`loop_is_parallelizable`] (rejects
/// any body with calls) and the region-level thread-safety check behind
/// [`loop_is_threadable_where`] (handles instruction calls through their
/// window footprints). Both see an access through an alias `ctx` has in
/// scope as an access to the alias' root.
pub fn parallel_loop_is_safe<'a>(
    iter: &Sym,
    body: impl IntoIterator<Item = &'a Stmt> + Clone,
    ctx: &'a Context,
    callee_writes: CalleeWrites<'_>,
) -> bool {
    loop_is_parallelizable(iter, &Effects::of_stmts_in(ctx, body.clone()), ctx)
        || threadable(Some(ctx), iter, body, callee_writes)
}

/// The source-level iterator names of the parallel loops in `proc` that
/// [`loop_is_threadable`] certifies for OS-thread execution. When two
/// parallel loops share an iterator name and disagree, the name is
/// conservatively excluded (the C emitter keys pragma placement by
/// source name).
pub fn threadable_parallel_loops(proc: &exo_ir::Proc) -> BTreeSet<String> {
    threadable_parallel_loops_where(proc, &|_, _| None)
}

/// [`threadable_parallel_loops`] with a [`CalleeWrites`] oracle.
pub fn threadable_parallel_loops_where(
    proc: &exo_ir::Proc,
    callee_writes: CalleeWrites<'_>,
) -> BTreeSet<String> {
    struct ParallelLoops<'c> {
        ok: BTreeSet<String>,
        bad: BTreeSet<String>,
        callee_writes: CalleeWrites<'c>,
    }
    impl<'a> AccessSink<'a> for ParallelLoops<'_> {
        fn access(&mut self, _: &accesses::Access<'_, 'a>) {}

        fn enter(&mut self, scope: &Scope<'a>, at: &Place<'a>) {
            let Scope::Loop(l) = scope else { return };
            if l.parallel {
                let name = l.iter.name().to_string();
                let mut around = Context::new();
                at.bind_into(&mut around);
                if threadable(Some(&around), l.iter, l.body, self.callee_writes) {
                    self.ok.insert(name);
                } else {
                    self.bad.insert(name);
                }
            }
        }
    }
    let mut loops = ParallelLoops {
        ok: BTreeSet::new(),
        bad: BTreeSet::new(),
        callee_writes,
    };
    walk_accesses(None, proc.body(), &mut loops);
    loops.ok.retain(|name| !loops.bad.contains(name));
    loops.ok
}

/// Whether executing the statements twice in a row is equivalent to
/// executing them once. Used by `remove_loop`, `add_loop` and
/// `divide_with_recompute`.
pub fn is_idempotent<'a>(stmts: impl IntoIterator<Item = &'a Stmt> + Clone) -> bool {
    let eff = Effects::of_stmts(stmts.clone());
    if eff.has_calls || !eff.config_writes.is_empty() || !eff.reduces.is_empty() {
        return false;
    }
    // Pure assignments are idempotent as long as no assignment reads a
    // buffer that the block also writes (otherwise the second execution
    // would see different inputs).
    let written = eff.buffers_written();
    for r in &eff.reads {
        if written.contains(&r.buf) {
            return false;
        }
    }
    true
}

/// Whether any expression in the statements mentions `sym`.
pub fn body_depends_on<'a>(stmts: impl IntoIterator<Item = &'a Stmt>, sym: &Sym) -> bool {
    let mut found = false;
    for s in stmts {
        if let Stmt::For { iter, .. } = s {
            if iter == sym {
                // Shadowed; occurrences below refer to the inner binding.
                continue;
            }
        }
        for_each_expr(s, &mut |e: &Expr| {
            if e.mentions(sym) {
                found = true;
            }
        });
        if found {
            return true;
        }
    }
    false
}

/// Whether every *write* in the body indexes the written buffer with an
/// expression that depends on `iter`. (When true, distinct iterations
/// write distinct locations.)
pub fn writes_depend_on_iter(body_effects: &Effects, iter: &Sym) -> bool {
    body_effects
        .writes
        .iter()
        .chain(body_effects.reduces.iter())
        .all(|w| {
            !w.whole_buffer
                && w.idx
                    .iter()
                    .any(|e| LinExpr::from_expr(e).coeff_of(iter) != 0)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{fb, ib, read, var, Block};

    fn assign(buf: &str, idx: Vec<Expr>, rhs: Expr) -> Stmt {
        Stmt::Assign {
            buf: Sym::new(buf),
            idx,
            rhs,
        }
    }

    fn reduce(buf: &str, idx: Vec<Expr>, rhs: Expr) -> Stmt {
        Stmt::Reduce {
            buf: Sym::new(buf),
            idx,
            rhs,
        }
    }

    #[test]
    fn disjoint_constant_offsets_commute() {
        let ctx = Context::new();
        let a = Effects::of_stmt(&assign("x", vec![ib(0)], fb(1.0)));
        let b = Effects::of_stmt(&assign("x", vec![ib(1)], fb(2.0)));
        assert!(stmts_commute(&a, &b, &ctx));
        let c = Effects::of_stmt(&assign("x", vec![ib(0)], fb(3.0)));
        assert!(!stmts_commute(&a, &c, &ctx));
    }

    #[test]
    fn reductions_commute_with_each_other_but_not_with_assignments() {
        let ctx = Context::new();
        let r1 = Effects::of_stmt(&reduce("acc", vec![], var("a")));
        let r2 = Effects::of_stmt(&reduce("acc", vec![], var("b")));
        assert!(stmts_commute(&r1, &r2, &ctx));
        let w = Effects::of_stmt(&assign("acc", vec![], fb(0.0)));
        assert!(!stmts_commute(&r1, &w, &ctx));
    }

    #[test]
    fn read_write_conflicts_block_commuting() {
        let ctx = Context::new();
        let producer = Effects::of_stmt(&assign("t", vec![var("i")], read("x", vec![var("i")])));
        let consumer = Effects::of_stmt(&assign("y", vec![var("i")], read("t", vec![var("i")])));
        assert!(!stmts_commute(&producer, &consumer, &ctx));
        // Independent buffers commute.
        let other = Effects::of_stmt(&assign("z", vec![var("i")], read("w", vec![var("i")])));
        assert!(stmts_commute(&producer, &other, &ctx));
    }

    #[test]
    fn config_state_blocks_commuting() {
        let ctx = Context::new();
        let wcfg = Effects::of_stmt(&Stmt::WriteConfig {
            config: Sym::new("cfg"),
            field: "stride".into(),
            value: ib(1),
        });
        let rcfg = Effects::of_stmt(&assign(
            "x",
            vec![],
            Expr::ReadConfig {
                config: Sym::new("cfg"),
                field: "stride".into(),
            },
        ));
        assert!(!stmts_commute(&wcfg, &rcfg, &ctx));
        assert!(!stmts_commute(&wcfg, &wcfg, &ctx));
    }

    #[test]
    fn parallelizable_loops() {
        let ctx = Context::new();
        // y[i] = x[i] : parallelizable
        let body = Effects::of_stmts(&[assign("y", vec![var("i")], read("x", vec![var("i")]))]);
        assert!(loop_is_parallelizable(&Sym::new("i"), &body, &ctx));
        // acc += x[i] : parallelizable *as a reduction* — every access to
        // `acc` is a reduce, and reductions commute.
        let body = Effects::of_stmts(&[reduce("acc", vec![], read("x", vec![var("i")]))]);
        assert!(loop_is_parallelizable(&Sym::new("i"), &body, &ctx));
        // acc = x[i] : NOT parallelizable (last-writer-wins assignment to a
        // loop-invariant location).
        let body = Effects::of_stmts(&[assign("acc", vec![], read("x", vec![var("i")]))]);
        assert!(!loop_is_parallelizable(&Sym::new("i"), &body, &ctx));
        // y[i] = y[i+1] : not parallelizable (offset read of written buffer)
        let body = Effects::of_stmts(&[assign(
            "y",
            vec![var("i")],
            read("y", vec![var("i") + ib(1)]),
        )]);
        assert!(!loop_is_parallelizable(&Sym::new("i"), &body, &ctx));
        // y[i] += A[i, j] * x[j]: over i the reduce is indexed by i; over j
        // it is the gemv accumulator shape — reduce-only, so both are fine.
        let body = Effects::of_stmts(&[reduce(
            "y",
            vec![var("i")],
            read("A", vec![var("i"), var("j")]) * read("x", vec![var("j")]),
        )]);
        assert!(loop_is_parallelizable(&Sym::new("i"), &body, &ctx));
        assert!(loop_is_parallelizable(&Sym::new("j"), &body, &ctx));
    }

    #[test]
    fn gemv_accumulator_reduction_is_parallelizable() {
        // Regression (satellite: reduce into a loop-invariant scalar): the
        // gemv inner loop `y[i] += A[i, j] * x[j]` over `j`, plus a read of
        // the accumulator *after* the loop must still be rejected when it
        // appears inside the body.
        let ctx = Context::new();
        let accum = Effects::of_stmts(&[reduce(
            "y",
            vec![var("i")],
            read("A", vec![var("i"), var("j")]) * read("x", vec![var("j")]),
        )]);
        assert!(loop_is_parallelizable(&Sym::new("j"), &accum, &ctx));
        // But mixing the reduce with a same-buffer read breaks the
        // exemption: partial sums become observable.
        let mixed = Effects::of_stmts(&[
            reduce("y", vec![var("i")], read("x", vec![var("j")])),
            assign("z", vec![var("j")], read("y", vec![var("i")])),
        ]);
        assert!(!loop_is_parallelizable(&Sym::new("j"), &mixed, &ctx));
    }

    #[test]
    fn disjoint_strided_writes_are_parallelizable() {
        // a[2*i] = ..; a[2*i+1] = ..  : distinct iterations write distinct
        // residue classes — the index-level test proves the loop parallel
        // where the old name-level test rejected it.
        let ctx = Context::new();
        let body = Effects::of_stmts(&[
            assign("a", vec![ib(2) * var("i")], fb(0.0)),
            assign("a", vec![ib(2) * var("i") + ib(1)], fb(1.0)),
        ]);
        assert!(loop_is_parallelizable(&Sym::new("i"), &body, &ctx));
        // a[2*i] and a[2*i + 2] collide across iterations (i' = i + 1).
        let body = Effects::of_stmts(&[
            assign("a", vec![ib(2) * var("i")], fb(0.0)),
            assign("a", vec![ib(2) * var("i") + ib(2)], fb(1.0)),
        ]);
        assert!(!loop_is_parallelizable(&Sym::new("i"), &body, &ctx));
        // Residuals varying with an inner iterator are not invariant:
        // y[i + j] over i may collide.
        let body = Effects::of_stmts(&[Stmt::For {
            iter: Sym::new("j"),
            lo: ib(0),
            hi: ib(4),
            body: exo_ir::Block::from_stmts(vec![assign("y", vec![var("i") + var("j")], fb(0.0))]),
            parallel: false,
        }]);
        assert!(!loop_is_parallelizable(&Sym::new("i"), &body, &ctx));
    }

    #[test]
    fn strided_offsets_commute_via_residue_classes() {
        // x[2*i] vs x[2*i + 1]: disjoint for all i, i' by residue class.
        let ctx = Context::new();
        let a = Effects::of_stmt(&assign("x", vec![ib(2) * var("i")], fb(1.0)));
        let b = Effects::of_stmt(&assign("x", vec![ib(2) * var("i") + ib(1)], fb(2.0)));
        assert!(stmts_commute(&a, &b, &ctx));
        // x[i] vs x[i + 8] with i < 8 on both: ranges [0,7] and [8,15].
        let mut rctx = Context::new();
        rctx.push_iter(Sym::new("i"), ib(0), ib(8));
        let a = Effects::of_stmt(&assign("x", vec![var("i")], fb(1.0)));
        let b = Effects::of_stmt(&assign("x", vec![var("i") + ib(8)], fb(2.0)));
        assert!(stmts_commute(&a, &b, &rctx));
        // x[i] vs x[j]: nothing relates the symbols — stay conservative.
        let a = Effects::of_stmt(&assign("x", vec![var("i")], fb(1.0)));
        let b = Effects::of_stmt(&assign("x", vec![var("j")], fb(2.0)));
        assert!(!stmts_commute(&a, &b, &ctx));
    }

    #[test]
    fn private_allocations_do_not_block_parallelism() {
        let ctx = Context::new();
        let stmts = vec![
            Stmt::Alloc {
                name: Sym::new("t"),
                ty: exo_ir::DataType::F32,
                dims: vec![],
                mem: exo_ir::Mem::Dram,
            },
            assign("t", vec![], read("x", vec![var("i")])),
            assign("y", vec![var("i")], var("t")),
        ];
        let eff = Effects::of_stmts(&stmts);
        assert!(loop_is_parallelizable(&Sym::new("i"), &eff, &ctx));
    }

    #[test]
    fn idempotence() {
        // x[i] = a  : idempotent
        assert!(is_idempotent(&[assign("x", vec![var("i")], var("a"))]));
        // x[i] += a : not idempotent
        assert!(!is_idempotent(&[reduce("x", vec![var("i")], var("a"))]));
        // x[i] = x[i] * 2 : not idempotent (reads what it writes)
        assert!(!is_idempotent(&[assign(
            "x",
            vec![var("i")],
            read("x", vec![var("i")]) * fb(2.0)
        )]));
        // blur_x[y, x] = inp[...] : idempotent
        assert!(is_idempotent(&[assign(
            "blur_x",
            vec![var("y"), var("x")],
            read("inp", vec![var("y"), var("x")])
        )]));
    }

    #[test]
    fn dependence_on_symbols() {
        let s = assign("y", vec![var("i")], read("x", vec![var("j")]));
        assert!(body_depends_on(std::slice::from_ref(&s), &Sym::new("j")));
        assert!(body_depends_on(std::slice::from_ref(&s), &Sym::new("i")));
        assert!(!body_depends_on(&[s], &Sym::new("k")));
        // Shadowing: a loop over `i` hides outer `i`.
        let shadowed = Stmt::For {
            iter: Sym::new("i"),
            lo: ib(0),
            hi: ib(4),
            body: Block::from_stmts(vec![assign("y", vec![var("i")], fb(0.0))]),
            parallel: false,
        };
        assert!(!body_depends_on(&[shadowed], &Sym::new("i")));
    }

    #[test]
    fn writes_depend_on_iter_check() {
        let eff = Effects::of_stmts(&[assign("y", vec![var("i")], fb(0.0))]);
        assert!(writes_depend_on_iter(&eff, &Sym::new("i")));
        let eff = Effects::of_stmts(&[assign("y", vec![var("j")], fb(0.0))]);
        assert!(!writes_depend_on_iter(&eff, &Sym::new("i")));
    }

    fn window(buf: &str, idx: Vec<exo_ir::WAccess>) -> Expr {
        Expr::Window {
            buf: Sym::new(buf),
            idx,
        }
    }

    #[test]
    fn threadable_elementwise_loop() {
        // y[i] = x[i] : disjoint per iteration of i, a race over j.
        let body = [assign("y", vec![var("i")], read("x", vec![var("i")]))];
        assert!(loop_is_threadable(&Sym::new("i"), &body));
        assert!(!loop_is_threadable(&Sym::new("j"), &body));
    }

    #[test]
    fn threadable_rejects_commuting_reduction() {
        // acc += x[i] commutes (parallelizable in the interpreter's
        // any-order sense) but is a read-modify-write race on threads.
        let body = [reduce("acc", vec![], read("x", vec![var("i")]))];
        let eff = Effects::of_stmts(&body);
        assert!(loop_is_parallelizable(
            &Sym::new("i"),
            &eff,
            &Context::new()
        ));
        assert!(!loop_is_threadable(&Sym::new("i"), &body));
    }

    #[test]
    fn threadable_certifies_instruction_call_windows() {
        use exo_ir::WAccess;
        // The vectorized-kernel shape: instruction calls on row windows
        // C[i, 16vo : 16vo+16]. `loop_is_parallelizable` rejects any
        // body with calls; the region analysis certifies it over `i`.
        let body = [Stmt::For {
            iter: Sym::new("vo"),
            lo: ib(0),
            hi: ib(4),
            body: Block::from_stmts(vec![Stmt::Call {
                proc: "mm512_loadu_ps".into(),
                args: vec![
                    window(
                        "C",
                        vec![
                            WAccess::Point(var("i")),
                            WAccess::Interval(ib(16) * var("vo"), ib(16) * var("vo") + ib(16)),
                        ],
                    ),
                    window(
                        "A",
                        vec![
                            WAccess::Point(var("i")),
                            WAccess::Interval(ib(16) * var("vo"), ib(16) * var("vo") + ib(16)),
                        ],
                    ),
                ],
            }]),
            parallel: false,
        }];
        let eff = Effects::of_stmts(&body);
        assert!(!loop_is_parallelizable(
            &Sym::new("i"),
            &eff,
            &Context::new()
        ));
        assert!(loop_is_threadable(&Sym::new("i"), &body));
        // Over `vo` the windows themselves are the strided dimension:
        // [16vo, 16vo+16) tiles are disjoint across vo.
        let Stmt::For { body: inner, .. } = &body[0] else {
            unreachable!()
        };
        assert!(loop_is_threadable(&Sym::new("vo"), inner));
    }

    #[test]
    fn threadable_overlapping_windows_rejected() {
        use exo_ir::WAccess;
        // Windows [8i, 8i+16) overlap between adjacent iterations.
        let body = [Stmt::Call {
            proc: "instr".into(),
            args: vec![window(
                "y",
                vec![WAccess::Interval(
                    ib(8) * var("i"),
                    ib(8) * var("i") + ib(16),
                )],
            )],
        }];
        assert!(!loop_is_threadable(&Sym::new("i"), &body));
        // The exactly-tiling width is certified.
        let body = [Stmt::Call {
            proc: "instr".into(),
            args: vec![window(
                "y",
                vec![WAccess::Interval(
                    ib(8) * var("i"),
                    ib(8) * var("i") + ib(8),
                )],
            )],
        }];
        assert!(loop_is_threadable(&Sym::new("i"), &body));
    }

    #[test]
    fn threadable_inner_iterator_offsets_rejected() {
        // y[x + dx] over x: adjacent iterations collide through dx.
        let body = [Stmt::For {
            iter: Sym::new("dx"),
            lo: ib(0),
            hi: ib(3),
            body: Block::from_stmts(vec![assign("y", vec![var("x") + var("dx")], fb(0.0))]),
            parallel: false,
        }];
        assert!(!loop_is_threadable(&Sym::new("x"), &body));
    }

    #[test]
    fn threadable_row_blocks_through_a_constant_inner_loop() {
        // for k0 in [0, 4): y[4 * i + k0] — the copy-out of a register
        // tile. One iteration owns rows [4i, 4i + 4): disjoint across i.
        let rows = |stride: i64| {
            [Stmt::For {
                iter: Sym::new("k0"),
                lo: ib(0),
                hi: ib(4),
                body: Block::from_stmts(vec![assign(
                    "y",
                    vec![ib(stride) * var("i") + var("k0")],
                    fb(0.0),
                )]),
                parallel: false,
            }]
        };
        assert!(loop_is_threadable(&Sym::new("i"), &rows(4)));
        // A stride shorter than the block overlaps the neighbour's rows.
        assert!(!loop_is_threadable(&Sym::new("i"), &rows(3)));
    }

    #[test]
    fn threadable_private_allocs_and_bare_buffers() {
        use exo_ir::{DataType, Mem, WAccess};
        // A body-local staging buffer is thread-private: writes into it
        // need no cross-iteration proof.
        let alloc = Stmt::Alloc {
            name: Sym::new("vtmp"),
            ty: DataType::F32,
            dims: vec![ib(16)],
            mem: Mem::Dram,
        };
        let stage = Stmt::Call {
            proc: "mm512_set1_ps".into(),
            args: vec![window("vtmp", vec![WAccess::Interval(ib(0), ib(16))])],
        };
        assert!(loop_is_threadable(
            &Sym::new("i"),
            &[alloc.clone(), stage.clone()]
        ));
        // The same call without the local alloc writes a shared buffer
        // with no i-strided dimension: rejected.
        assert!(!loop_is_threadable(&Sym::new("i"), &[stage]));
        // A bare non-private buffer argument is unanalyzable.
        let opaque = Stmt::Call {
            proc: "helper".into(),
            args: vec![var("shared")],
        };
        assert!(!loop_is_threadable(&Sym::new("i"), &[opaque]));
        assert!(loop_is_threadable(
            &Sym::new("i"),
            &[
                alloc,
                Stmt::Call {
                    proc: "helper".into(),
                    args: vec![var("vtmp")],
                }
            ]
        ));
    }

    #[test]
    fn threadable_aliases_and_config_bail() {
        let alias = Stmt::WindowStmt {
            name: Sym::new("w"),
            rhs: window("x", vec![exo_ir::WAccess::Interval(ib(0), ib(8))]),
        };
        assert!(!loop_is_threadable(&Sym::new("i"), &[alias]));
        let wcfg = Stmt::WriteConfig {
            config: Sym::new("cfg"),
            field: "stride".into(),
            value: ib(1),
        };
        assert!(!loop_is_threadable(&Sym::new("i"), &[wcfg]));
    }

    #[test]
    fn threadable_parallel_loops_collects_names() {
        use exo_ir::{DataType, Mem, ProcBuilder};
        // Two parallel loops: `i` (disjoint rows — certified) and `j`
        // (shared accumulator — rejected).
        let p = ProcBuilder::new("p")
            .size_arg("n")
            .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
            .tensor_arg("acc", DataType::F32, vec![], Mem::Dram)
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .stmt(Stmt::For {
                iter: Sym::new("i"),
                lo: ib(0),
                hi: var("n"),
                body: Block::from_stmts(vec![assign(
                    "y",
                    vec![var("i")],
                    read("x", vec![var("i")]),
                )]),
                parallel: true,
            })
            .stmt(Stmt::For {
                iter: Sym::new("j"),
                lo: ib(0),
                hi: var("n"),
                body: Block::from_stmts(vec![reduce("acc", vec![], read("x", vec![var("j")]))]),
                parallel: true,
            })
            .build();
        let names = threadable_parallel_loops(&p);
        assert!(names.contains("i"), "{names:?}");
        assert!(!names.contains("j"), "{names:?}");
    }
}
