//! The affine (linear) normal form of index expressions, and the
//! arithmetic every check in this crate is built from: the two ways of
//! building a form, its constant [`bound`](LinExpr::bound), the
//! inequality prover [`prove_le`] and the iterator elimination
//! [`extremize`].
//!
//! There are two constructors, and which one a caller uses is the whole
//! difference between the primitives' prover and the verifier's:
//!
//! * [`LinExpr::from_expr`] needs no facts. `E / k`, `E % k`, buffer reads
//!   and non-affine products become uninterpreted [`Atom::Other`] terms:
//!   identical ones cancel, nothing else is known about them.
//! * [`LinExpr::in_context`] reads a [`Context`]. Floor-division and modulo
//!   by a positive literal become *structured* atoms over a canonicalized
//!   numerator, and two rewrites are applied until fixpoint:
//!
//!   1. **Recombination**: `k·(E/k) + (E%k) → E` (exact, no side
//!      conditions). This discharges the cut-tail shapes
//!      `buf[k*(hi/k) + tail_iter]` with `tail_iter < hi % k` that
//!      `divide_loop`'s `Cut` strategy produces.
//!   2. **Divisibility elimination**: `c·(E/k) → (c/k)·E` when `k | c` and
//!      the context proves `E % k == 0`. This discharges the
//!      perfect-tiling shapes `k*(N/k) ≤ N` under `assert N % k == 0`.

use crate::context::Context;
use crate::simplify::simplify_expr;
use exo_ir::{ib, substitute_expr, BinOp, Expr, Sym, UnOp};
use std::borrow::Cow;

/// An atom of a linear expression. Atoms are compared structurally, so
/// identical sub-expressions combine into one term.
#[derive(Clone, PartialEq, Debug)]
pub(crate) enum Atom {
    /// A symbol (size argument, loop iterator, scalar).
    Var(Sym),
    /// `expr / k` with `k > 0` (floor division) over a canonicalized
    /// numerator. Only [`LinExpr::in_context`] forms these.
    Div(Expr, i64),
    /// `expr % k` with `k > 0` (always in `[0, k)`), likewise.
    Mod(Expr, i64),
    /// Anything else (non-affine product, buffer read, ...), uninterpreted.
    Other(Expr),
}

impl Atom {
    fn mentions(&self, sym: &Sym) -> bool {
        match self {
            Atom::Var(s) => s == sym,
            Atom::Div(e, _) | Atom::Mod(e, _) | Atom::Other(e) => e.mentions(sym),
        }
    }

    /// Whether `sym` occurs inside the atom (a bare variable is not
    /// "inside" anything).
    fn hides(&self, sym: &Sym) -> bool {
        !matches!(self, Atom::Var(_)) && self.mentions(sym)
    }
}

/// An affine expression: `constant + Σ coeff·atom`.
///
/// Sub-expressions outside the affine fragment (e.g. `i / 8`, `A[i]`) are
/// atoms of their own, so two identical ones still cancel — enough to
/// prove equalities such as `8*(i/8) + i%8 - (8*(i/8) + i%8) = 0`.
#[derive(Clone, Debug, Default)]
pub struct LinExpr {
    /// One entry per distinct atom, in first-seen order; no coefficient
    /// is zero.
    terms: Vec<(Atom, i64)>,
    /// Constant offset.
    pub constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    fn atom(atom: Atom) -> Self {
        LinExpr {
            terms: vec![(atom, 1)],
            constant: 0,
        }
    }

    /// Builds the affine normal form of an expression without any facts.
    /// Always succeeds; non-affine parts (and every `/` and `%`) become
    /// uninterpreted atoms.
    pub fn from_expr(e: &Expr) -> Self {
        let mut v = LinExpr::zero();
        v.add_expr(e, 1, None);
        v
    }

    /// Builds the normal form of `e` under `ctx`: div/mod numerators are
    /// canonicalized recursively, and the recombination and divisibility
    /// rewrites are applied until fixpoint.
    pub(crate) fn in_context(e: &Expr, ctx: &Context) -> Self {
        let mut v = LinExpr::zero();
        v.add_expr(e, 1, Some(ctx));
        v.reduce(ctx);
        v
    }

    /// Adds `k·e`; with a context, `/` and `%` are interpreted (but the
    /// sum is not [`reduce`](Self::reduce)d).
    fn add_expr(&mut self, e: &Expr, k: i64, ctx: Option<&Context>) {
        if k == 0 {
            return;
        }
        match (e, ctx) {
            (Expr::Int(v), _) => self.constant += k * v,
            (Expr::Bool(b), _) => self.constant += k * i64::from(*b),
            (Expr::Var(s), _) => self.add_term(Atom::Var(s.clone()), k),
            (Expr::Bin { op, lhs, rhs }, _) if matches!(op, BinOp::Add | BinOp::Sub) => {
                self.add_expr(lhs, k, ctx);
                self.add_expr(rhs, if *op == BinOp::Add { k } else { -k }, ctx);
            }
            (
                Expr::Bin {
                    op: BinOp::Mul,
                    lhs,
                    rhs,
                },
                _,
            ) => {
                let mut l = LinExpr::zero();
                l.add_expr(lhs, 1, ctx);
                if let Some(c) = l.as_constant() {
                    return self.add_expr(rhs, k * c, ctx);
                }
                let mut r = LinExpr::zero();
                r.add_expr(rhs, 1, ctx);
                match r.as_constant() {
                    Some(c) => self.add_scaled(&l, k * c),
                    None => self.add_term(Atom::Other(e.clone()), k),
                }
            }
            (Expr::Bin { op, lhs, rhs }, Some(ctx)) if matches!(op, BinOp::Div | BinOp::Mod) => {
                self.add_scaled(&div_mod_atom(lhs, rhs, ctx, *op == BinOp::Div, e), k)
            }
            (Expr::Un { op: UnOp::Neg, arg }, _) => self.add_expr(arg, -k, ctx),
            (other, _) => self.add_term(Atom::Other(other.clone()), k),
        }
    }

    pub(crate) fn add_term(&mut self, atom: Atom, coeff: i64) {
        if coeff == 0 {
            return;
        }
        match self.terms.iter().position(|(a, _)| *a == atom) {
            Some(i) => {
                self.terms[i].1 += coeff;
                if self.terms[i].1 == 0 {
                    self.terms.remove(i);
                }
            }
            None => self.terms.push((atom, coeff)),
        }
    }

    /// Adds `k·other` in place.
    pub(crate) fn add_scaled(&mut self, other: &LinExpr, k: i64) {
        self.constant += other.constant * k;
        for (atom, coeff) in &other.terms {
            self.add_term(atom.clone(), coeff * k);
        }
    }

    /// Sum of two linear expressions.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_scaled(other, 1);
        out
    }

    /// Difference `self - other`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_scaled(other, -1);
        out
    }

    /// Divides every coefficient and the constant by `k`; only meaningful
    /// when [`LinExpr::divisible_by`] holds.
    pub(crate) fn scale_div(&self, k: i64) -> LinExpr {
        LinExpr {
            terms: self.terms.iter().map(|(a, c)| (a.clone(), c / k)).collect(),
            constant: self.constant / k,
        }
    }

    /// Returns the constant value if the expression has no terms.
    pub fn as_constant(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.constant)
    }

    /// The terms as `(atom, coefficient)`.
    pub(crate) fn terms(&self) -> impl Iterator<Item = (&Atom, i64)> {
        self.terms.iter().map(|(a, c)| (a, *c))
    }

    /// The coefficient of a symbol (0 if absent).
    pub fn coeff_of(&self, sym: &Sym) -> i64 {
        self.terms()
            .find_map(|(a, c)| matches!(a, Atom::Var(s) if s == sym).then_some(c))
            .unwrap_or(0)
    }

    /// Drops the term of a symbol, if there is one.
    pub(crate) fn remove_var(&mut self, sym: &Sym) {
        self.terms
            .retain(|(a, _)| !matches!(a, Atom::Var(s) if s == sym));
    }

    /// Whether the expression mentions the symbol, directly or inside an
    /// atom ([`Expr::mentions`]).
    pub fn mentions(&self, sym: &Sym) -> bool {
        self.terms.iter().any(|(a, _)| a.mentions(sym))
    }

    /// Whether the expression is syntactically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant == 0
    }

    /// Whether every atom is a plain variable.
    pub(crate) fn vars_only(&self) -> bool {
        self.terms.iter().all(|(a, _)| matches!(a, Atom::Var(_)))
    }

    /// Whether every coefficient and the constant are divisible by `k`.
    pub fn divisible_by(&self, k: i64) -> bool {
        if k == 0 {
            return false;
        }
        self.constant % k == 0 && self.terms.iter().all(|(_, c)| c % k == 0)
    }

    /// Rebuilds an [`Expr`] equal to this normal form: the terms in the
    /// order of their printed atoms, then the constant.
    ///
    /// The order is pinned because the result is user-visible (`simplify`
    /// writes it into procs, `extremize` into inferred bounds and
    /// diagnostics) and every golden listing was produced under it; it is
    /// computed here, where an expression is built anyway, so that no
    /// lookup ever prints. For variables it is the order of [`Sym`].
    pub(crate) fn to_expr(&self) -> Expr {
        let mut parts: Vec<(Cow<str>, Expr, i64)> = self
            .terms
            .iter()
            .map(|(atom, coeff)| {
                let e = match atom {
                    Atom::Var(s) => Expr::Var(s.clone()),
                    Atom::Div(e, k) => e.clone() / ib(*k),
                    Atom::Mod(e, k) => e.clone() % ib(*k),
                    Atom::Other(e) => e.clone(),
                };
                let key = match atom {
                    Atom::Var(s) => Cow::Borrowed(s.name()),
                    _ => Cow::Owned(e.to_string()),
                };
                (key, e, *coeff)
            })
            .collect();
        parts.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out: Option<Expr> = None;
        for (_, base, coeff) in parts {
            let term = if coeff == 1 { base } else { ib(coeff) * base };
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

    /// Conservative constant lower (or upper) bound under `ctx`: every
    /// variable needs a known constant bound on the side its coefficient's
    /// sign asks for, `E % k` lies in `[0, k)`, `E / k` is bounded through
    /// `E`, and an uninterpreted atom has no bound.
    pub(crate) fn bound(&self, ctx: &Context, lower: bool) -> Option<i64> {
        let mut acc = self.constant;
        for (atom, coeff) in self.terms() {
            // A positive coefficient needs the atom's bound in the same
            // direction; a negative coefficient needs the opposite one.
            let want_lower = (coeff > 0) == lower;
            let b = match atom {
                Atom::Var(s) if want_lower => ctx.lower_bound(s)?,
                Atom::Var(s) => ctx.upper_bound(s)?,
                Atom::Mod(..) if want_lower => 0,
                Atom::Mod(_, k) => k - 1,
                Atom::Div(e, k) => LinExpr::in_context(e, ctx)
                    .bound(ctx, want_lower)?
                    .div_euclid(*k),
                Atom::Other(_) => return None,
            };
            acc += coeff * b;
        }
        Some(acc)
    }

    /// Applies the recombination and divisibility rewrites until fixpoint.
    fn reduce(&mut self, ctx: &Context) {
        for _ in 0..8 {
            // Recombination: a·(E/k) + b·(E%k) with a == k·b  →  b·E.
            let pair = self.terms.iter().enumerate().find_map(|(m, (atom, b))| {
                let Atom::Mod(e, k) = atom else { return None };
                let d = self.terms.iter().position(|(other, a)| {
                    matches!(other, Atom::Div(de, dk) if de == e && dk == k) && *a == k * b
                })?;
                Some((m, d))
            });
            if let Some((m, d)) = pair {
                let (_, b) = self.terms.remove(m);
                let (div, _) = self.terms.remove(if d > m { d - 1 } else { d });
                if let Atom::Div(e, _) = div {
                    self.add_expr(&e, b, Some(ctx));
                }
                continue;
            }
            // Divisibility elimination: c·(E/k) → (c/k)·E when k|c and E%k==0.
            let Some(i) = self.terms.iter().position(
                |(atom, c)| matches!(atom, Atom::Div(e, k) if c % k == 0 && ctx.divides(e, *k)),
            ) else {
                return;
            };
            if let (Atom::Div(e, k), c) = self.terms.remove(i) {
                self.add_expr(&e, c / k, Some(ctx));
            }
        }
    }
}

/// The form of `num / den` (or `num % den`) under `ctx`; `whole` is the
/// expression itself, kept uninterpreted when `den` is not a positive
/// literal.
fn div_mod_atom(num: &Expr, den: &Expr, ctx: &Context, is_div: bool, whole: &Expr) -> LinExpr {
    let Some(k) = den.as_int().filter(|k| *k > 0) else {
        return LinExpr::atom(Atom::Other(whole.clone()));
    };
    // Canonicalize the numerator first, so `(4*(N/4 - 1) + 4) / 8`
    // becomes `N / 8` before the atom is formed.
    let num_v = LinExpr::in_context(num, ctx);
    if let Some(c) = num_v.as_constant() {
        return LinExpr::constant(if is_div {
            c.div_euclid(k)
        } else {
            c.rem_euclid(k)
        });
    }
    // Exact division: every coefficient (and the constant) divisible.
    if num_v.divisible_by(k) {
        return if is_div {
            num_v.scale_div(k)
        } else {
            LinExpr::zero()
        };
    }
    let num_e = num_v.to_expr();
    if !is_div && ctx.divides(&num_e, k) {
        return LinExpr::zero();
    }
    LinExpr::atom(if is_div {
        Atom::Div(num_e, k)
    } else {
        Atom::Mod(num_e, k)
    })
}

/// Whether two expressions are provably equal by affine normalization.
pub fn provably_equal(a: &Expr, b: &Expr) -> bool {
    a == b || {
        let mut diff = LinExpr::from_expr(a);
        diff.add_expr(b, -1, None);
        diff.is_zero()
    }
}

/// Whether `a <= b` is provable under `ctx`. This is the verifier's
/// workhorse: it subsumes [`Context::proves_le`] by seeing through
/// floor-division/modulo atoms (recombination, divisibility elimination,
/// interval bounds) and by bounding a difference of any number of terms.
pub fn prove_le(a: &Expr, b: &Expr, ctx: &Context) -> bool {
    let mut diff = LinExpr::in_context(b, ctx);
    diff.add_scaled(&LinExpr::in_context(a, ctx), -1);
    diff.reduce(ctx);
    diff.bound(ctx, true).is_some_and(|lo| lo >= 0)
}

/// Substitutes every enclosing loop iterator (innermost first) by the
/// range endpoint that extremizes `e`, returning the extremized expression
/// — or `None` when some occurrence is not provably monotone in the
/// iterator (e.g. under a bare `%` with no recombinable partner).
///
/// Innermost-first is what makes triangular nests (`for j in seq(0, i+1)`)
/// resolve, because an inner bound may mention outer iterators.
pub(crate) fn extremize(e: &Expr, ctx: &Context, maximize: bool) -> Option<Expr> {
    let mut cur = simplify_expr(e, ctx);
    for iter in ctx.iterators().iter().rev() {
        let v = LinExpr::in_context(&cur, ctx);
        if !v.mentions(iter) {
            continue;
        }
        // Rebuild from the reduced form: recombination may already have
        // eliminated a non-monotone `%` occurrence.
        cur = v.to_expr();
        // `take_hi`: substitute `hi - 1` (true) or `lo` (false).
        let mut dir: Option<bool> = match v.coeff_of(iter).cmp(&0) {
            std::cmp::Ordering::Greater => Some(maximize),
            std::cmp::Ordering::Less => Some(!maximize),
            std::cmp::Ordering::Equal => None,
        };
        for (atom, coeff) in v.terms().filter(|(a, _)| a.hides(iter)) {
            // Only `E / k` atoms with `E` linear and monotone in the
            // iterator are handled; `%` and uninterpreted occurrences are
            // not provably monotone.
            let Atom::Div(inner, _) = atom else {
                return None;
            };
            let iv = LinExpr::in_context(inner, ctx);
            let inner_c = iv.coeff_of(iter);
            if inner_c == 0 || iv.terms().any(|(a, _)| a.hides(iter)) {
                return None;
            }
            let increasing = (inner_c > 0) == (coeff > 0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::gen::int_expr;
    use exo_ir::rng::Rng;
    use exo_ir::{ib, read, var};

    #[test]
    fn normalizes_affine_arithmetic() {
        // 8*io + ii + 1 - (ii + 8*io) == 1
        let a = ib(8) * var("io") + var("ii") + ib(1);
        let b = var("ii") + ib(8) * var("io");
        let diff = LinExpr::from_expr(&a).sub(&LinExpr::from_expr(&b));
        assert_eq!(diff.as_constant(), Some(1));
    }

    #[test]
    fn constant_folding_through_scale() {
        let e = (var("i") + ib(2)) * ib(3);
        let lin = LinExpr::from_expr(&e);
        assert_eq!(lin.coeff_of(&Sym::new("i")), 3);
        assert_eq!(lin.constant, 6);
    }

    #[test]
    fn opaque_terms_cancel_when_identical() {
        let a = (var("i") / ib(8)) * ib(8) + var("i") % ib(8);
        let b = (var("i") / ib(8)) * ib(8) + var("i") % ib(8);
        assert!(provably_equal(&a, &b));
        let c = (var("i") / ib(4)) * ib(8) + var("i") % ib(8);
        assert!(!provably_equal(&a, &c));
    }

    #[test]
    fn mentions_sees_into_opaque_atoms() {
        let e = read("A", vec![var("i") / ib(8)]);
        let lin = LinExpr::from_expr(&e);
        assert!(lin.mentions(&Sym::new("i")));
        assert!(!lin.mentions(&Sym::new("io")));
        // `i` must not be found inside `io`.
        let e2 = read("A", vec![var("io")]);
        assert!(!LinExpr::from_expr(&e2).mentions(&Sym::new("i")));
    }

    #[test]
    fn divisibility() {
        let e = ib(8) * var("io") + ib(16);
        assert!(LinExpr::from_expr(&e).divisible_by(8));
        assert!(!LinExpr::from_expr(&e).divisible_by(3));
        let e2 = ib(8) * var("io") + var("ii");
        assert!(!LinExpr::from_expr(&e2).divisible_by(8));
    }

    #[test]
    fn nonlinear_products_are_opaque() {
        let e = var("i") * var("j");
        let lin = LinExpr::from_expr(&e);
        assert!(lin.as_constant().is_none());
        assert!(lin.mentions(&Sym::new("i")));
        assert!(lin.mentions(&Sym::new("j")));
    }

    #[test]
    fn mentions_is_structural() {
        // A config field that merely prints like the iterator is not the
        // iterator.
        let i = Sym::new("i");
        let field = Expr::ReadConfig {
            config: Sym::new("cfg"),
            field: "i".into(),
        };
        let lin = LinExpr::from_expr(&(field + var("j")));
        assert!(!lin.mentions(&i), "{lin:?}");
        assert!(lin.mentions(&Sym::new("cfg")));
        // The iterator inside an atom still is.
        for e in [
            read("A", vec![var("i")]),
            var("i") / ib(8),
            var("i") % ib(4),
        ] {
            assert!(LinExpr::from_expr(&e).mentions(&i), "{e}");
        }
    }

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

    const SYMS: [&str; 3] = ["io", "ii", "n"];

    /// A random context over `SYMS` — two iterator ranges and a positive
    /// `n` with one divisibility fact — and every assignment it admits.
    fn random_ctx(rng: &mut Rng) -> (Context, Vec<[i64; 3]>) {
        let (io_hi, ii_hi) = (rng.range(1, 4), [2, 3, 4, 8][rng.below(4)]);
        let k = [2, 4, 8][rng.below(3)];
        let mut ctx = Context::new();
        ctx.add_fact(&Expr::eq_(Expr::modulo(var("n"), ib(k)), ib(0)));
        ctx.add_fact(&Expr::bin(BinOp::Ge, var("n"), ib(k)));
        ctx.push_iter(Sym::new("io"), ib(0), ib(io_hi));
        ctx.push_iter(Sym::new("ii"), ib(0), ib(ii_hi));
        let mut admitted = Vec::new();
        for io in 0..io_hi {
            for ii in 0..ii_hi {
                admitted.extend((1..4).map(|m| [io, ii, m * k]));
            }
        }
        (ctx, admitted)
    }

    /// `e` at an assignment to `SYMS`, with Euclidean `/` and `%` as the
    /// simplifier folds them.
    fn eval(e: &Expr, env: &[i64; 3]) -> i64 {
        let at = |s: &Sym| {
            SYMS.iter()
                .position(|name| s.name() == *name)
                .map(|i| env[i])
        };
        e.eval_int(&at).unwrap()
    }

    const SEEDS: std::ops::Range<u64> = 1..385;

    #[test]
    fn both_constructors_rebuild_an_equal_expression() {
        for seed in SEEDS {
            let mut rng = Rng::stream(seed, "prover");
            let (ctx, admitted) = random_ctx(&mut rng);
            let e = int_expr(&mut rng, &SYMS, 4);
            let plain = LinExpr::from_expr(&e).to_expr();
            let reduced = LinExpr::in_context(&e, &ctx).to_expr();
            for env in &admitted {
                let want = eval(&e, env);
                assert_eq!(
                    eval(&plain, env),
                    want,
                    "seed {seed}: {e} -> {plain} at {env:?}"
                );
                assert_eq!(
                    eval(&reduced, env),
                    want,
                    "seed {seed}: {e} -> {reduced} at {env:?}"
                );
            }
        }
    }

    /// A pair `(a, b)` for the inequality provers: unrelated, or `b` a
    /// little above `a` so that a fair share is provable.
    fn random_pair(rng: &mut Rng) -> (Expr, Expr) {
        let a = int_expr(rng, &SYMS, 3);
        let b = match rng.below(3) {
            0 => int_expr(rng, &SYMS, 3),
            1 => a.clone() + int_expr(rng, &SYMS, 2),
            _ => int_expr(rng, &SYMS, 2) + a.clone() + ib(rng.range(0, 3)),
        };
        (a, b)
    }

    #[test]
    fn prove_le_is_sound_and_subsumes_the_context_prover() {
        let (mut proved, mut subsumed) = (0, 0);
        for seed in SEEDS {
            let mut rng = Rng::stream(seed, "prover");
            let (ctx, admitted) = random_ctx(&mut rng);
            let (a, b) = random_pair(&mut rng);
            let strong = prove_le(&a, &b, &ctx);
            if strong {
                proved += 1;
                for env in &admitted {
                    assert!(
                        eval(&a, env) <= eval(&b, env),
                        "seed {seed}: proved {a} <= {b}, false at {env:?}"
                    );
                }
            }
            if ctx.proves_le(&a, &b) {
                subsumed += 1;
                assert!(
                    strong,
                    "seed {seed}: proves_le but not prove_le: {a} <= {b}"
                );
            }
        }
        // Neither property is vacuous on this stream.
        assert!(
            proved >= 32 && subsumed >= 16,
            "{proved} proved, {subsumed} by proves_le"
        );
    }
}
