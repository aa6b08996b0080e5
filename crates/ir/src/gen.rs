//! Random programs for property tests, drawn from one [`Rng`].
//!
//! * [`int_expr`]: integer index expressions, for the simplifier and the
//!   inequality provers.
//! * [`affine_kernel`]: float kernels over padded inputs, for the
//!   scheduling and code-generation pipelines.
//!
//! Each is a pure function of the stream, so a case replays from its seed.

use crate::rng::Rng;
use crate::{fb, ib, read, var, BinOp, Block, DataType, Expr, Mem, Proc, ProcBuilder, Stmt, Sym};

/// A random integer expression over `vars` (constants alone when `vars`
/// is empty) of depth at most `depth`: `+`, `-`, negation, `*` by a
/// constant or by a subterm, and Euclidean `/` and `%` by a constant in
/// `1..=8`. Leaves are constants in `-4..=4`, so values stay far from
/// `i64` overflow at the depths the tests use.
pub fn int_expr(rng: &mut Rng, vars: &[&str], depth: usize) -> Expr {
    if depth == 0 || rng.chance(25) {
        return match rng.pick(vars) {
            Some(name) if rng.chance(50) => var(*name),
            _ => ib(rng.range(-4, 4)),
        };
    }
    let sub = |rng: &mut Rng| int_expr(rng, vars, depth - 1);
    match rng.below(8) {
        0 | 1 => sub(rng) + sub(rng),
        2 => sub(rng) - sub(rng),
        3 => sub(rng) * ib(rng.range(-2, 8)),
        4 => sub(rng) * sub(rng),
        5 => sub(rng) / ib(rng.range(1, 8)),
        6 => sub(rng) % ib(rng.range(1, 8)),
        _ => -sub(rng),
    }
}

/// The iterators of an [`affine_kernel`], outermost first.
const ITERS: [&str; 2] = ["i", "j"];

fn iters(rank: usize) -> &'static [&'static str] {
    &ITERS[..rank.clamp(1, ITERS.len())]
}

/// A random float value over the inputs of [`affine_kernel`]`(rng, rank)`:
/// reads `a[i + r, j + c]` and `b[j + c]` at offsets in `0..=2`,
/// integer-valued constants in `-3..=3`, and sums, differences and
/// products of depth at most `depth`. With the small integer inputs of
/// input synthesis every intermediate is exact in `f32` up to depth 2.
fn value_expr(rng: &mut Rng, rank: usize, depth: usize) -> Expr {
    let iters = iters(rank);
    if depth == 0 || rng.below(3) == 0 {
        let at = |rng: &mut Rng, it: &str| var(it) + ib(rng.range(0, 2));
        return match rng.below(3) {
            0 => read("a", iters.iter().map(|it| at(rng, it)).collect()),
            1 => read("b", vec![at(rng, iters[iters.len() - 1])]),
            _ => fb(rng.range(-3, 3) as f64),
        };
    }
    let lhs = value_expr(rng, rank, depth - 1);
    let rhs = value_expr(rng, rank, depth - 1);
    match rng.below(3) {
        0 => lhs + rhs,
        1 => lhs - rhs,
        _ => lhs * rhs,
    }
}

/// A random perfectly nested affine kernel of `rank` loops (1 or 2) over
/// `0..n`, `n` a positive multiple of 8, that assigns or accumulates one
/// `value_expr` of depth 2 into `out[i]` or `out[i, j]`. The inputs `a`
/// (rank `rank`) and `b` (rank 1) are padded by 2 along every dimension,
/// so every read is in bounds.
pub fn affine_kernel(rng: &mut Rng, rank: usize) -> Proc {
    let iters = iters(rank);
    let rhs = value_expr(rng, rank, 2);
    let buf = Sym::new("out");
    let idx = iters.iter().map(|it| var(*it)).collect();
    let store = if rng.chance(50) {
        Stmt::Reduce { buf, idx, rhs }
    } else {
        Stmt::Assign { buf, idx, rhs }
    };
    let nest = iters.iter().rev().fold(store, |body, it| Stmt::For {
        iter: Sym::new(*it),
        lo: ib(0),
        hi: var("n"),
        body: Block::from_stmts(vec![body]),
        parallel: false,
    });
    let dims = |extent: Expr| iters.iter().map(|_| extent.clone()).collect();
    ProcBuilder::new("affine_kernel")
        .size_arg("n")
        .assert_(Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)))
        .assert_(Expr::bin(BinOp::Ge, var("n"), ib(8)))
        .tensor_arg("a", DataType::F32, dims(var("n") + ib(2)), Mem::Dram)
        .tensor_arg("b", DataType::F32, vec![var("n") + ib(2)], Mem::Dram)
        .tensor_arg("out", DataType::F32, dims(var("n")), Mem::Dram)
        .with_body(|b| {
            b.push(nest);
        })
        .build()
}
