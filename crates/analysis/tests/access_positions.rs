//! Every consumer of the access walk sees a read at every expression
//! position.
//!
//! One table: a read of `x` planted at each position a statement can hold
//! an expression, checked against each of `Effects`, `infer_bounds`, the
//! region certificate behind `loop_is_threadable` and `check_proc`. The
//! consumers used to walk statements separately and each skipped a
//! different set of positions (loop bounds, allocation sizes, window
//! bounds).

use exo_analysis::{check_proc, infer_bounds, loop_is_threadable, Context, Effects};
use exo_ir::{fb, ib, read, var, Block, DataType, Expr, Mem, ProcBuilder, Stmt, Sym, WAccess};

const F32: DataType = DataType::F32;

/// `x[at]`.
fn x(at: Expr) -> Expr {
    read("x", vec![at])
}

fn assign(buf: &str, idx: Vec<Expr>, rhs: Expr) -> Stmt {
    Stmt::Assign {
        buf: Sym::new(buf),
        idx,
        rhs,
    }
}

fn for_j(lo: Expr, hi: Expr) -> Stmt {
    Stmt::For {
        iter: Sym::new("j"),
        lo,
        hi,
        body: Block::from_stmts(vec![Stmt::Pass]),
        parallel: false,
    }
}

/// `f(buf[idx...])`, a callee nobody knows.
fn call_on_window(buf: &str, idx: Vec<WAccess>) -> Stmt {
    Stmt::Call {
        proc: "f".into(),
        args: vec![Expr::Window {
            buf: Sym::new(buf),
            idx,
        }],
    }
}

/// What the region certificate can say about a row.
#[derive(PartialEq)]
enum Certificate {
    /// It bounds the statement, so it must see the read.
    Sees,
    /// It gives up on the statement kind, read or no read.
    GivesUp,
}

/// A statement with a read of `x[at]` at the named position. Whatever it
/// writes is `t: f32[16]` or `t2: f32[16, 16]`, both local.
type Row = (&'static str, fn(Expr) -> Stmt, Certificate);

fn rows() -> Vec<Row> {
    use Certificate::*;
    vec![
        ("assign index", |at| assign("t", vec![x(at)], fb(0.0)), Sees),
        (
            "index of an index",
            |at| assign("t", vec![ib(0)], read("t", vec![x(at)])),
            Sees,
        ),
        (
            "right-hand side",
            |at| assign("t", vec![ib(0)], x(at)),
            Sees,
        ),
        (
            "if condition",
            |at| Stmt::If {
                cond: Expr::lt(x(at), fb(1.0)),
                then_body: Block::from_stmts(vec![Stmt::Pass]),
                else_body: Block::new(),
            },
            Sees,
        ),
        ("loop lower bound", |at| for_j(x(at), ib(4)), Sees),
        ("loop upper bound", |at| for_j(ib(0), x(at)), Sees),
        (
            "allocation size",
            |at| Stmt::Alloc {
                name: Sym::new("u"),
                ty: F32,
                dims: vec![x(at)],
                mem: Mem::Dram,
            },
            Sees,
        ),
        (
            "scalar call argument",
            |at| Stmt::Call {
                proc: "f".into(),
                args: vec![x(at) * fb(2.0)],
            },
            Sees,
        ),
        (
            "window point",
            |at| {
                call_on_window(
                    "t2",
                    vec![WAccess::Point(x(at)), WAccess::Interval(ib(0), ib(4))],
                )
            },
            Sees,
        ),
        (
            "window interval bound",
            |at| call_on_window("t", vec![WAccess::Interval(x(at), ib(8))]),
            Sees,
        ),
        (
            "configuration value",
            |at| Stmt::WriteConfig {
                config: Sym::new("cfg"),
                field: "v".into(),
                value: x(at),
            },
            GivesUp,
        ),
        (
            "window statement",
            |at| Stmt::WindowStmt {
                name: Sym::new("w"),
                rhs: Expr::Window {
                    buf: Sym::new("x"),
                    idx: vec![WAccess::Interval(at.clone(), at + ib(1))],
                },
            },
            GivesUp,
        ),
    ]
}

/// `t` and `t2`, then `stmts`.
fn with_locals(stmts: Vec<Stmt>) -> Vec<Stmt> {
    let alloc = |name: &str, dims: Vec<Expr>| Stmt::Alloc {
        name: Sym::new(name),
        ty: F32,
        dims,
        mem: Mem::Dram,
    };
    let mut body = vec![alloc("t", vec![ib(16)]), alloc("t2", vec![ib(16), ib(16)])];
    body.extend(stmts);
    body
}

#[test]
fn effects_record_the_read() {
    for (what, site, _) in rows() {
        let eff = Effects::of_stmts(&with_locals(vec![site(ib(9))]));
        let seen = eff
            .reads
            .iter()
            .any(|a| a.buf == Sym::new("x") && (a.whole_buffer || a.idx == [ib(9)]));
        assert!(seen, "{what}: {:?}", eff.reads);
    }
}

#[test]
fn infer_bounds_covers_the_read() {
    for (what, site, _) in rows() {
        let scope = Stmt::If {
            cond: Expr::Bool(true),
            then_body: Block::from_stmts(with_locals(vec![site(ib(9))])),
            else_body: Block::new(),
        };
        let bounds = infer_bounds(&scope, &Sym::new("x"), &Context::new())
            .unwrap_or_else(|why| panic!("{what}: {why}"));
        assert_eq!(bounds.dims, [(ib(9), ib(10))], "{what}");
    }
}

#[test]
fn the_region_certificate_pairs_the_read_with_a_write() {
    // Iteration `i` writes `x[i]`. A read of `x[i]` at the site keeps the
    // iterations apart; a read of `x[i + 1]` is next iteration's cell.
    let body = |site: fn(Expr) -> Stmt, at: Expr| {
        with_locals(vec![assign("x", vec![var("i")], fb(0.0)), site(at)])
    };
    let i = Sym::new("i");
    for (what, site, certificate) in rows() {
        let apart = loop_is_threadable(&i, &body(site, var("i")));
        let colliding = loop_is_threadable(&i, &body(site, var("i") + ib(1)));
        assert_eq!(apart, certificate == Certificate::Sees, "{what}");
        assert!(!colliding, "{what}: the read of x[i + 1] went unseen");
    }
}

#[test]
fn check_proc_bounds_the_read() {
    for (what, site, _) in rows() {
        let proc = ProcBuilder::new("p")
            .tensor_arg("x", F32, vec![ib(8)], Mem::Dram)
            .with_body(|b| {
                for s in with_locals(vec![site(ib(9))]) {
                    b.push(s);
                }
            })
            .build();
        let diags = check_proc(&proc);
        let out_of_range = diags
            .iter()
            .any(|d| d.code == "V101" && d.buf == Some(Sym::new("x")));
        assert!(out_of_range, "{what}: {diags:?}\n{proc}");
    }
}
