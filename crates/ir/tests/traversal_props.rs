//! Property tests for the one traversal (`Visit` / `VisitMut`): random
//! statement trees with a marker symbol planted at every expression
//! position the object language has — so a variant or a position the
//! traversal forgot shows up as a marker the rewrite left behind, or as an
//! expression the read-only walk did not count.
//!
//! The oracle is the pretty printer, a separate hand-written walk: marker
//! and replacement occurrences are counted in the printed text.
//!
//! The same trees check that no `&mut` route into a procedure leaves a
//! stale structural hash behind: a cached hash that survived an edit would
//! be a wrong cache hit in `exo-serve`.

use exo_ir::{
    deep_unshare, for_each_expr, for_each_stmt, rename_sym, substitute_var, walk_expr_mut,
    walk_stmts_mut, ArgKind, BinOp, Block, DataType, Expr, Mem, Proc, ProcArg, Stmt, Sym, UnOp,
    VisitMut, WAccess,
};
use proptest::prelude::*;

/// The planted symbol, and what `rename_sym` / `substitute_var` put in its
/// place. None of the three occurs in any other text the printer emits.
const MARKER: &str = "QQ";
const RENAMED: &str = "ZZ";
const VALUE: i64 = 777001;

/// A generated tree and what the generator knows about it.
#[derive(Debug)]
struct Tree {
    root: Stmt,
    /// `Expr` / `Stmt` constructors called.
    exprs: usize,
    stmts: usize,
    /// Marker occurrences: variables in / outside the scope of a binder of
    /// the marker, and occurrences `substitute_var` must leave alone
    /// (binders themselves, stride and config targets).
    shadowed: usize,
    free: usize,
    names: usize,
}

struct Gen<'r> {
    runner: &'r mut TestRunner,
    tree: Tree,
    /// Number of enclosing scopes that bind the marker.
    shadows: usize,
    iters: usize,
}

impl Gen<'_> {
    fn pick(&mut self, n: u64) -> u64 {
        self.runner.next_u64() % n
    }

    fn sym(&self) -> Sym {
        Sym::new(MARKER)
    }

    fn mk(&mut self, e: Expr) -> Expr {
        self.tree.exprs += 1;
        e
    }

    fn marker(&mut self) -> Expr {
        if self.shadows > 0 {
            self.tree.shadowed += 1;
        } else {
            self.tree.free += 1;
        }
        let e = Expr::Var(self.sym());
        self.mk(e)
    }

    fn boxed(&mut self, depth: u32) -> Box<Expr> {
        Box::new(self.expr(depth))
    }

    /// A random expression that mentions the marker in every leaf position.
    fn expr(&mut self, depth: u32) -> Expr {
        let choice = if depth == 0 { 0 } else { self.pick(8) };
        let e = match choice {
            0 | 1 => return self.marker(),
            2 => Expr::Bin {
                op: BinOp::Add,
                lhs: self.boxed(depth - 1),
                rhs: self.boxed(depth - 1),
            },
            3 => Expr::Un {
                op: UnOp::Neg,
                arg: self.boxed(depth - 1),
            },
            4 => Expr::Read {
                buf: Sym::new("B"),
                idx: vec![self.expr(depth - 1), self.expr(depth - 1)],
            },
            5 => Expr::Window {
                buf: Sym::new("B"),
                idx: vec![
                    WAccess::Point(self.expr(depth - 1)),
                    WAccess::Interval(self.expr(depth - 1), self.expr(depth - 1)),
                ],
            },
            6 => {
                self.tree.names += 1;
                Expr::Stride {
                    buf: self.sym(),
                    dim: 0,
                }
            }
            _ => {
                self.tree.names += 1;
                Expr::ReadConfig {
                    config: self.sym(),
                    field: "f".into(),
                }
            }
        };
        self.mk(e)
    }

    /// A fresh name, or (one time in four) the marker itself as a binder.
    fn binder(&mut self) -> (Sym, bool) {
        if self.pick(4) == 0 {
            self.tree.names += 1;
            (self.sym(), true)
        } else {
            self.iters += 1;
            (Sym::new(format!("i{}", self.iters)), false)
        }
    }

    /// Sibling statements; an `alloc` or window alias of the marker
    /// shadows it for the rest of the block.
    fn block(&mut self, depth: u32) -> Block {
        let outer = self.shadows;
        let n = 1 + self.pick(3);
        let stmts = (0..n).map(|_| self.stmt(depth)).collect();
        self.shadows = outer;
        Block::from_stmts(stmts)
    }

    fn stmt(&mut self, depth: u32) -> Stmt {
        self.tree.stmts += 1;
        let choice = if depth == 0 {
            self.pick(6)
        } else {
            self.pick(9)
        };
        match choice {
            0 => Stmt::Assign {
                buf: Sym::new("B"),
                idx: vec![self.expr(2)],
                rhs: self.expr(2),
            },
            1 => Stmt::Reduce {
                buf: Sym::new("B"),
                idx: vec![self.expr(2)],
                rhs: self.expr(2),
            },
            2 => Stmt::Call {
                proc: "callee".into(),
                args: vec![self.expr(2), self.expr(2)],
            },
            3 => Stmt::WriteConfig {
                config: Sym::new("cfg"),
                field: "f".into(),
                value: self.expr(2),
            },
            4 => {
                let dims = vec![self.expr(2)];
                let (name, shadow) = self.binder();
                self.shadows += shadow as usize;
                Stmt::Alloc {
                    name,
                    ty: DataType::F32,
                    dims,
                    mem: Mem::Dram,
                }
            }
            5 => {
                let rhs = Expr::Window {
                    buf: Sym::new("B"),
                    idx: vec![WAccess::Interval(self.expr(1), self.expr(1))],
                };
                let rhs = self.mk(rhs);
                let (name, shadow) = self.binder();
                self.shadows += shadow as usize;
                Stmt::WindowStmt { name, rhs }
            }
            6 => Stmt::Pass,
            7 => Stmt::If {
                cond: self.expr(2),
                then_body: self.block(depth - 1),
                else_body: self.block(depth - 1),
            },
            _ => {
                let (lo, hi) = (self.expr(2), self.expr(2));
                let (iter, shadow) = self.binder();
                self.shadows += shadow as usize;
                let body = self.block(depth - 1);
                self.shadows -= shadow as usize;
                Stmt::For {
                    iter,
                    lo,
                    hi,
                    body,
                    parallel: false,
                }
            }
        }
    }
}

/// The strategy: one random tree per case, drawn from the runner's stream.
struct Trees;

impl Strategy for Trees {
    type Value = Tree;

    fn sample(&self, runner: &mut TestRunner) -> Tree {
        let mut gen = Gen {
            runner,
            tree: Tree {
                root: Stmt::Pass,
                exprs: 0,
                stmts: 1,
                shadowed: 0,
                free: 0,
                names: 0,
            },
            shadows: 0,
            iters: 0,
        };
        let cond = gen.expr(2);
        let then_body = gen.block(3);
        gen.tree.root = Stmt::If {
            cond,
            then_body,
            else_body: Block::new(),
        };
        gen.tree
    }
}

fn occurrences(stmt: Stmt, needle: &str) -> usize {
    let proc = Proc::new("p", Vec::new(), Vec::new(), Block::from_stmts(vec![stmt]));
    proc.to_string().matches(needle).count()
}

/// Walks down from `block` — to a loop body or branch arm reached through
/// the statement's own fields, or through `child_blocks_mut` — and applies
/// `write` to the block where `pick` says to stop.
fn write_below(block: &mut Block, pick: u64, via_child_blocks: bool, write: fn(&mut Block)) {
    let n = block.len() as u64;
    let i = (pick % n) as usize;
    if block[i].child_blocks().is_empty() || (pick / n).is_multiple_of(4) {
        return write(block);
    }
    let child = match block.stmt_mut(i).expect("in bounds") {
        s if via_child_blocks => s.child_blocks_mut().into_iter().next(),
        Stmt::For { body, .. } => Some(body),
        Stmt::If { then_body, .. } => Some(then_body),
        _ => None,
    };
    write_below(
        child.expect("a child block"),
        pick / n / 4,
        via_child_blocks,
        write,
    );
}

/// Replaces every variable, in place.
struct Constants;

impl VisitMut for Constants {
    fn visit_expr(&mut self, e: &mut Expr) {
        if e.as_var().is_some() {
            *e = Expr::Int(VALUE);
        } else {
            walk_expr_mut(self, e);
        }
    }
}

/// One edit through each `&mut` route a procedure offers.
const ROUTES: u64 = 8;

fn edit(q: &mut Proc, route: u64, pick: u64) {
    match route {
        0 => write_below(q.body_mut(), pick, false, |b| b.insert(0, Stmt::Pass)),
        1 => write_below(q.body_mut(), pick, true, |b| b.insert(b.len(), Stmt::Pass)),
        2 => write_below(q.body_mut(), pick, false, |b| b.splice(0..0, [Stmt::Pass])),
        3 => write_below(q.body_mut(), pick, true, |b| {
            b.drain(0..1);
        }),
        4 => write_below(q.body_mut(), pick, false, |b| {
            *b.stmt_mut(0).expect("non-empty") = Stmt::Pass
        }),
        5 => *q.body_mut() = q.body().iter().cloned().chain([Stmt::Pass]).collect(),
        6 => q.args_mut().push(ProcArg {
            name: Sym::new("n"),
            kind: ArgKind::Size,
        }),
        _ => walk_stmts_mut(&mut Constants, q.body_mut()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn no_edit_leaves_a_stale_hash(
        tree in Trees,
        route in 0..ROUTES,
        pick in any::<u64>(),
        shared in any::<bool>(),
    ) {
        let mut q = Proc::new("p", Vec::new(), Vec::new(), Block::from_stmts(vec![tree.root]));
        // Read first: every block of `q` now holds its hash.
        let before = q.content_hash();
        let original = deep_unshare(&q);
        // With another version alive the edit copies the spine it touches;
        // without one it happens in place, on the blocks just hashed.
        let kept = shared.then(|| q.clone());
        edit(&mut q, route, pick);
        // A copy rebuilt from fresh storage has nothing cached.
        prop_assert_eq!(q.content_hash(), deep_unshare(&q).content_hash());
        prop_assert_eq!(q == original, q.content_hash() == before);
        if let Some(p) = kept {
            prop_assert_eq!(&p, &original);
            prop_assert_eq!(p.content_hash(), before);
        }
        prop_assert_eq!(original.content_hash(), before);
    }

    #[test]
    fn rename_reaches_every_symbol_position(tree in Trees) {
        let all = tree.free + tree.shadowed + tree.names;
        prop_assert_eq!(occurrences(tree.root.clone(), MARKER), all);
        let renamed = rename_sym(tree.root, &Sym::new(MARKER), &Sym::new(RENAMED));
        prop_assert_eq!(occurrences(renamed.clone(), MARKER), 0);
        prop_assert_eq!(occurrences(renamed, RENAMED), all);
    }

    #[test]
    fn substitution_reaches_every_free_variable_and_no_shadowed_one(tree in Trees) {
        let out = substitute_var(tree.root, &Sym::new(MARKER), &Expr::Int(VALUE));
        prop_assert_eq!(occurrences(out.clone(), &VALUE.to_string()), tree.free);
        prop_assert_eq!(occurrences(out, MARKER), tree.shadowed + tree.names);
    }

    #[test]
    fn the_read_only_walk_visits_every_node_once(tree in Trees) {
        let (mut exprs, mut stmts) = (0, 0);
        for_each_expr(&tree.root, &mut |_| exprs += 1);
        for_each_stmt(&tree.root, &mut |_| stmts += 1);
        prop_assert_eq!(exprs, tree.exprs);
        prop_assert_eq!(stmts, tree.stmts);
    }
}
