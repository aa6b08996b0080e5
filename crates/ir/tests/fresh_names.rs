//! `Proc::fresh_sym` against the name-set scan it replaced.
//!
//! The scan collects every symbol name of the procedure into a set and
//! tries `{base}_0`, `{base}_1`, ... until one is missing. `fresh_sym`
//! instead records the taken suffixes of `{base}_` alone. Random procs
//! whose names collide with the candidates in every way that could go
//! wrong — non-canonical suffixes (`tmp_00`, `tmp_`, `tmp_x`), a suffix
//! past `u64::MAX`, bases that contain `_` or are a prefix of one another
//! — must get the same name from both, at every position a name occurs.

use exo_ir::rng::Rng;
use exo_ir::{
    fb, ib, read, var, walk_stmts, BinOp, Block, DataType, Expr, Mem, Proc, ProcArg, Stmt, Sym,
    Visit,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The bases names are built from and fresh names are asked for.
const BASES: [&str; 5] = ["tmp", "tmp_0", "a_b", "a", "vl"];

/// Suffixes after `{base}_`: canonical ones and every kind that must not
/// count as taken.
const SUFFIXES: [&str; 12] = [
    "0",
    "1",
    "2",
    "3",
    "00",
    "01",
    "",
    "x",
    "+1",
    "18446744073709551615",
    "18446744073709551616",
    "0_1",
];

fn name(rng: &mut Rng) -> String {
    let base = BASES[rng.below(BASES.len())];
    if rng.below(6) == 0 {
        return base.to_string();
    }
    format!("{base}_{}", SUFFIXES[rng.below(SUFFIXES.len())])
}

fn stmts(rng: &mut Rng, depth: usize) -> Vec<Stmt> {
    (0..1 + rng.below(3))
        .map(|_| match rng.below(if depth == 0 { 3 } else { 5 }) {
            0 => Stmt::Alloc {
                name: Sym::new(name(rng)),
                ty: DataType::F32,
                dims: vec![var(name(rng))],
                mem: Mem::Dram,
            },
            1 => Stmt::Assign {
                buf: Sym::new(name(rng)),
                idx: vec![var(name(rng))],
                rhs: read(name(rng), vec![ib(0)]) + fb(1.0),
            },
            2 => Stmt::WindowStmt {
                name: Sym::new(name(rng)),
                rhs: Expr::Window {
                    buf: Sym::new(name(rng)),
                    idx: vec![],
                },
            },
            3 => Stmt::For {
                iter: Sym::new(name(rng)),
                lo: ib(0),
                hi: var(name(rng)),
                body: Block::from_stmts(stmts(rng, depth - 1)),
                parallel: false,
            },
            _ => Stmt::If {
                cond: Expr::lt(var(name(rng)), ib(4)),
                then_body: Block::from_stmts(stmts(rng, depth - 1)),
                else_body: Block::from_stmts(stmts(rng, depth - 1)),
            },
        })
        .collect()
}

fn random_proc(rng: &mut Rng) -> Proc {
    let args = (0..rng.below(3))
        .map(|_| ProcArg {
            name: Sym::new(name(rng)),
            kind: exo_ir::ArgKind::Size,
        })
        .collect();
    let preds = (0..rng.below(2))
        .map(|_| Expr::bin(BinOp::Ge, var(name(rng)), ib(1)))
        .collect();
    Proc::new("p", args, preds, Block::from_stmts(stmts(rng, 2)))
}

struct Names(BTreeSet<String>);

impl Visit<'_> for Names {
    fn visit_sym(&mut self, sym: &Sym) {
        self.0.insert(sym.name().to_string());
    }
}

/// The name-set scan `fresh_sym` replaced.
fn fresh_by_name_set(p: &Proc, base: &str) -> Sym {
    let mut names = Names(BTreeSet::new());
    for arg in p.args() {
        names.visit_sym(&arg.name);
    }
    for pred in p.preds() {
        names.visit_expr(pred);
    }
    walk_stmts(&mut names, p.body());
    let mut n: u64 = 0;
    loop {
        let candidate = format!("{base}_{n}");
        if !names.0.contains(&candidate) {
            return Sym::new(candidate);
        }
        n += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn suffix_scan_matches_the_name_set_scan(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let p = random_proc(&mut rng);
        for base in BASES {
            let (new, old) = (p.fresh_sym(base), fresh_by_name_set(&p, base));
            prop_assert!(new == old, "base {}: {} vs {}\n{}", base, new, old, p);
        }
    }
}

#[test]
fn only_canonical_suffixes_are_taken() {
    let names = [
        "tmp_0",
        "tmp_00",
        "tmp_",
        "tmp_x",
        "tmp_18446744073709551616",
        "tmp_2",
    ];
    let p = Proc::new(
        "p",
        names
            .iter()
            .map(|n| ProcArg {
                name: Sym::new(*n),
                kind: exo_ir::ArgKind::Size,
            })
            .collect(),
        vec![],
        Block::new(),
    );
    assert_eq!(p.fresh_sym("tmp"), Sym::new("tmp_1"));
    assert_eq!(p.fresh_sym("tmp"), fresh_by_name_set(&p, "tmp"));
}
