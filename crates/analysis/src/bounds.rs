//! Bounds inference: the per-buffer access-range analysis the paper's
//! Halide library implements in user space (§4).
//!
//! Given a scope (a statement, usually a loop) and a buffer, the inference
//! computes, per dimension, a symbolic window `[lo, hi)` covering every
//! access to the buffer inside the scope. Iterators bound *inside* the
//! scope are eliminated by substituting their extreme values; iterators
//! and sizes free in the scope remain symbolic — exactly the behaviour the
//! paper describes for the `io`-loop example:
//!
//! ```text
//! for io in seq(0, N / 32):
//!     # arr is accessed within [32 * io : 32 * io + 34]
//!     for ii in seq(0, 32):
//!         x = arr[32*io + ii] + arr[32*io + ii + 1] + arr[32*io + ii + 2]
//! ```

use crate::accesses::{walk_accesses, Access, AccessSink, Dim, Shape, Touch};
use crate::context::Context;
use crate::linear::extremize;
use crate::simplify::simplify_expr;
use exo_ir::{ib, Expr, Stmt, Sym};

/// The inferred access window of a buffer within a scope.
#[derive(Clone, Debug, PartialEq)]
pub struct BufferBounds {
    /// The buffer the bounds describe.
    pub buf: Sym,
    /// Per dimension: inclusive lower bound and exclusive upper bound.
    pub dims: Vec<(Expr, Expr)>,
}

impl BufferBounds {
    /// The extent (`hi - lo`) of dimension `d`, simplified.
    pub fn extent(&self, d: usize, ctx: &Context) -> Expr {
        let (lo, hi) = &self.dims[d];
        simplify_expr(&(hi.clone() - lo.clone()), ctx)
    }
}

/// Why [`infer_bounds`] could not produce an access window, so scheduling
/// errors can say *what* defeated the inference rather than a bare "cannot
/// infer bounds".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundsFailure {
    /// The buffer is never accessed inside the scope.
    NotAccessed,
    /// The buffer is handed to a callee by its bare name: all of it may be
    /// touched.
    PassedWhole {
        /// The callee that receives the buffer.
        callee: String,
    },
    /// The buffer is accessed through a window alias, whose indices the
    /// inference does not translate back.
    ViaAlias(Sym),
    /// An index or window bound is not provably monotone in an iterator of
    /// the scope, so substituting the iterator's endpoints does not bound
    /// it (`x[i % 4]`).
    NotMonotone {
        /// The offending index expression, as printed.
        index: String,
        /// The dimension it indexes.
        dim: usize,
    },
    /// Two accesses end (or start) at bounds the facts do not order, so
    /// neither is known to cover the other (`x[0:N]` and `x[0:M]`).
    Incomparable {
        /// The dimension both index.
        dim: usize,
        /// One bound, as printed.
        a: String,
        /// The other.
        b: String,
    },
}

impl std::fmt::Display for BoundsFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundsFailure::NotAccessed => write!(f, "the buffer is not accessed in the scope"),
            BoundsFailure::PassedWhole { callee } => write!(
                f,
                "the whole buffer is passed to `{callee}`, which may touch any of it"
            ),
            BoundsFailure::ViaAlias(alias) => write!(
                f,
                "the buffer is accessed through the window alias `{alias}`"
            ),
            BoundsFailure::NotMonotone { index, dim } => write!(
                f,
                "index `{index}` (dimension {dim}) is not provably monotone in the loops of the \
                 scope, so their endpoints do not bound it"
            ),
            BoundsFailure::Incomparable { dim, a, b } => write!(
                f,
                "two accesses reach `{a}` and `{b}` in dimension {dim}, and neither bound is \
                 provably the wider"
            ),
        }
    }
}

/// The running hull of every access to one buffer: the [`infer_bounds`]
/// policy over the access walk.
struct Hull<'c> {
    buf: &'c Sym,
    /// The buffer `buf` stores into (itself, unless it is an alias).
    root: &'c Sym,
    /// The caller's facts, under which the hull is compared and printed.
    outer: &'c Context,
    /// `outer` with its iterators left symbolic: only the loops of the
    /// scope are eliminated.
    free: Context,
    /// The hull so far; "not accessed" until the first access.
    bounds: Result<Vec<(Expr, Expr)>, BoundsFailure>,
}

impl Hull<'_> {
    /// `dims` widened to cover the access.
    fn cover(
        &self,
        a: &Access<'_, '_>,
        mut dims: Vec<(Expr, Expr)>,
    ) -> Result<Vec<(Expr, Expr)>, BoundsFailure> {
        if a.name != self.buf {
            return Err(BoundsFailure::ViaAlias(a.name.clone()));
        }
        if let (Shape::Whole, Touch::Arg { callee, .. }) = (a.shape, a.touch) {
            let callee = callee.to_string();
            return Err(BoundsFailure::PassedWhole { callee });
        }
        let mut facts = self.free.clone();
        for l in a.at.loops() {
            facts.push_iter(l.iter.clone(), l.lo.clone(), l.hi.clone());
        }
        let le = |a: &Expr, b: &Expr| self.outer.proves_le(a, b);
        for (dim, named) in a.shape.dims().enumerate() {
            let extreme = |e: &Expr, maximize: bool| {
                extremize(e, &facts, maximize).ok_or_else(|| BoundsFailure::NotMonotone {
                    index: e.to_string(),
                    dim,
                })
            };
            let (lo, hi) = match named {
                // A point `e` is the interval `[e, e + 1)`.
                Dim::Point(e) => {
                    let last = extreme(e, true)?;
                    let end = simplify_expr(&(last + ib(1)), self.outer);
                    (extreme(e, false)?, end)
                }
                Dim::Interval(lo, hi) => (extreme(lo, false)?, extreme(hi, true)?),
            };
            let incomparable = |a: &Expr, b: &Expr| BoundsFailure::Incomparable {
                dim,
                a: a.to_string(),
                b: b.to_string(),
            };
            match dims.get_mut(dim) {
                // The wider of each pair of ends; an undecidable comparison
                // is a failure, not a reason to keep the earlier bound.
                Some((prev_lo, prev_hi)) => {
                    if !le(prev_lo, &lo) {
                        if !le(&lo, prev_lo) {
                            return Err(incomparable(prev_lo, &lo));
                        }
                        *prev_lo = lo;
                    }
                    if le(prev_hi, &hi) {
                        *prev_hi = hi;
                    } else if !le(&hi, prev_hi) {
                        return Err(incomparable(prev_hi, &hi));
                    }
                }
                None => dims.push((lo, hi)),
            }
        }
        Ok(dims)
    }
}

impl<'a> AccessSink<'a> for Hull<'_> {
    fn access(&mut self, a: &Access<'_, 'a>) {
        if a.root != self.root {
            return;
        }
        self.bounds = match std::mem::replace(&mut self.bounds, Ok(Vec::new())) {
            Ok(dims) => self.cover(a, dims),
            Err(BoundsFailure::NotAccessed) => self.cover(a, Vec::new()),
            Err(why) => Err(why),
        };
    }
}

/// Infers the access bounds of `buf` within the statement `scope`: the
/// hull of every access the crate's one access walk reports — point
/// reads and writes, windows (`[lo, hi)` as written), at every expression
/// position including loop bounds, allocation sizes and call arguments.
///
/// Returns a [`BoundsFailure`] describing why inference gave up when it
/// does (never silently): the iterators bound inside `scope` are
/// eliminated by a monotonicity-checked extremization, and an index it
/// cannot prove monotone, or two bounds the facts do not order, are
/// failures, not guesses.
pub fn infer_bounds(scope: &Stmt, buf: &Sym, ctx: &Context) -> Result<BufferBounds, BoundsFailure> {
    let mut hull = Hull {
        buf,
        root: ctx.root_of(buf),
        outer: ctx,
        free: ctx.clone().with_free_iterators(),
        bounds: Err(BoundsFailure::NotAccessed),
    };
    walk_accesses(Some(ctx), [scope], &mut hull);
    let buf = buf.clone();
    hull.bounds.map(|dims| BufferBounds { buf, dims })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{read, var, Block};

    /// The paper's §4 example:
    /// for ii in seq(0, 32):
    ///     x = arr[32*io + ii] + arr[32*io + ii + 1] + arr[32*io + ii + 2]
    fn paper_example() -> Stmt {
        let base = ib(32) * var("io") + var("ii");
        Stmt::For {
            iter: Sym::new("ii"),
            lo: ib(0),
            hi: ib(32),
            body: Block::from_stmts(vec![Stmt::Assign {
                buf: Sym::new("x"),
                idx: vec![],
                rhs: read("arr", vec![base.clone()])
                    + read("arr", vec![base.clone() + ib(1)])
                    + read("arr", vec![base + ib(2)]),
            }]),
            parallel: false,
        }
    }

    #[test]
    fn reproduces_the_paper_io_loop_bounds() {
        let ctx = Context::new();
        let bounds = infer_bounds(&paper_example(), &Sym::new("arr"), &ctx).unwrap();
        assert_eq!(bounds.dims.len(), 1);
        let (lo, hi) = &bounds.dims[0];
        assert!(
            crate::linear::provably_equal(lo, &(ib(32) * var("io"))),
            "{lo}"
        );
        assert!(
            crate::linear::provably_equal(hi, &(ib(32) * var("io") + ib(34))),
            "{hi}"
        );
        assert_eq!(bounds.extent(0, &ctx), ib(34));
    }

    #[test]
    fn write_accesses_are_included() {
        let ctx = Context::new();
        let scope = Stmt::For {
            iter: Sym::new("i"),
            lo: ib(0),
            hi: var("n"),
            body: Block::from_stmts(vec![Stmt::Assign {
                buf: Sym::new("y"),
                idx: vec![var("i") + ib(3)],
                rhs: ib(0),
            }]),
            parallel: false,
        };
        let bounds = infer_bounds(&scope, &Sym::new("y"), &ctx).unwrap();
        let (lo, hi) = &bounds.dims[0];
        assert_eq!(lo.to_string(), "3");
        assert_eq!(hi.to_string(), "n + 3");
    }

    #[test]
    fn missing_buffer_reports_not_accessed() {
        let ctx = Context::new();
        assert_eq!(
            infer_bounds(&paper_example(), &Sym::new("zzz"), &ctx),
            Err(BoundsFailure::NotAccessed)
        );
    }

    #[test]
    fn two_dimensional_blur_window() {
        // for yi in seq(0, 34): for xi in seq(0, 256):
        //     blur_y[yi, xi] = blur_x[yi, xi] + blur_x[yi+1, xi] + blur_x[yi+2, xi]
        let ctx = Context::new();
        let body = Stmt::Assign {
            buf: Sym::new("blur_y"),
            idx: vec![var("yi"), var("xi")],
            rhs: read("blur_x", vec![var("yi"), var("xi")])
                + read("blur_x", vec![var("yi") + ib(1), var("xi")])
                + read("blur_x", vec![var("yi") + ib(2), var("xi")]),
        };
        let scope = Stmt::For {
            iter: Sym::new("yi"),
            lo: ib(0),
            hi: ib(32),
            body: Block::from_stmts(vec![Stmt::For {
                iter: Sym::new("xi"),
                lo: ib(0),
                hi: ib(256),
                body: Block::from_stmts(vec![body]),
                parallel: false,
            }]),
            parallel: false,
        };
        let bounds = infer_bounds(&scope, &Sym::new("blur_x"), &ctx).unwrap();
        assert_eq!(bounds.dims[0].0.to_string(), "0");
        assert_eq!(bounds.dims[0].1.to_string(), "34");
        assert_eq!(bounds.dims[1].1.to_string(), "256");
        let by = infer_bounds(&scope, &Sym::new("blur_y"), &ctx).unwrap();
        assert_eq!(by.dims[0].1.to_string(), "32");
    }
}
