//! The one walk over buffer accesses.
//!
//! Every analysis in this crate asks the same question first — which cells
//! of which buffer does this code touch — and [`walk_accesses`] is where it
//! is answered: a single client of [`exo_ir::Visit`] that decodes each
//! touch into one [`Access`] record and pushes it to an [`AccessSink`] as
//! it goes. What differs between analyses (is a window handed to a callee
//! a write? is an alias worth bounding?) is policy and lives in the sinks;
//! what an access *is* lives here:
//!
//! * the destination of an assignment or reduction, every `buf[..]` read
//!   and every window expression is an access, at whatever expression
//!   position it sits — loop bounds, allocation sizes, `if` conditions,
//!   window bounds, configuration values, indices of other accesses;
//! * a window, a point or a bare name passed to a call is an access by
//!   *argument n of callee c*; whether that writes is for the sink to say;
//! * an access through a window alias is an access to the alias' source,
//!   resolved to the root buffer. Its indices are relative to the alias,
//!   so in the root's coordinates it is a whole-buffer access
//!   ([`Access::root_shape`]) — precise enough, nothing shipped declares
//!   an alias. An alias is never a private allocation; its root may be.
//!
//! Aliases are resolved here and nowhere else: through the declarations
//! met during the walk, then through those the caller's [`Context`] has
//! in scope around the walked statements.

use crate::context::Context;
use exo_ir::{walk_expr, walk_stmt, Block, Expr, Step, Stmt, Sym, Visit, WAccess};

/// How an access touches its buffer.
#[derive(Clone, Copy)]
pub(crate) enum Touch<'a> {
    Read,
    Write,
    Reduce,
    /// Handed to `callee` as its `n`-th argument.
    Arg {
        callee: &'a str,
        n: usize,
    },
}

/// Which cells an access names, in the coordinates of the name as written.
#[derive(Clone, Copy)]
pub(crate) enum Shape<'a> {
    /// One cell: an index per dimension (none for a scalar).
    Point(&'a [Expr]),
    /// A point or a half-open interval `[lo, hi)` per dimension.
    Window(&'a [WAccess]),
    /// The bare name: all of it.
    Whole,
}

/// One dimension of a [`Shape`]: a cell, or a half-open interval.
#[derive(Clone, Copy)]
pub(crate) enum Dim<'a> {
    Point(&'a Expr),
    Interval(&'a Expr, &'a Expr),
}

impl<'a> Shape<'a> {
    /// The dimensions named, in order; none for the bare name.
    pub fn dims(self) -> impl Iterator<Item = Dim<'a>> {
        let (points, window): (&[Expr], &[WAccess]) = match self {
            Shape::Point(idx) => (idx, &[]),
            Shape::Window(window) => (&[], window),
            Shape::Whole => (&[], &[]),
        };
        let window = window.iter().map(|w| match w {
            WAccess::Point(e) => Dim::Point(e),
            WAccess::Interval(lo, hi) => Dim::Interval(lo, hi),
        });
        points.iter().map(Dim::Point).chain(window)
    }
}

/// A `for` loop inside the walked statements.
#[derive(Clone, Copy)]
pub(crate) struct Loop<'a> {
    pub iter: &'a Sym,
    pub lo: &'a Expr,
    pub hi: &'a Expr,
    pub parallel: bool,
    pub body: &'a Block,
}

/// One scope opened inside the walked statements.
#[derive(Clone, Copy)]
pub(crate) enum Scope<'a> {
    Loop(Loop<'a>),
    Alloc {
        name: &'a Sym,
        dims: &'a [Expr],
    },
    /// `name = source[window]`; `root` is `source` resolved through the
    /// aliases in scope at the declaration.
    Alias {
        name: &'a Sym,
        root: &'a Sym,
        window: &'a [WAccess],
    },
}

/// Where an event sits: the scopes opened around it inside the walked
/// statements (outermost first) and the cursor path of its statement
/// relative to them.
#[derive(Default)]
pub(crate) struct Place<'a> {
    pub scopes: Vec<Scope<'a>>,
    pub path: Vec<Step>,
}

impl<'a> Place<'a> {
    /// The enclosing loops, outermost first.
    pub fn loops(&self) -> impl DoubleEndedIterator<Item = &Loop<'a>> {
        self.scopes.iter().filter_map(|s| match s {
            Scope::Loop(l) => Some(l),
            _ => None,
        })
    }

    /// Adds the aliases and allocations open here to `ctx`: what a walk
    /// over statements that sit at this place has to start from.
    pub fn bind_into(&self, ctx: &mut Context) {
        for scope in &self.scopes {
            match scope {
                Scope::Loop(_) => {}
                Scope::Alloc { name, .. } => ctx.bind((*name).clone(), (*name).clone()),
                Scope::Alias { name, root, .. } => ctx.bind((*name).clone(), (*root).clone()),
            }
        }
    }
}

/// One buffer touch.
#[derive(Clone, Copy)]
pub(crate) struct Access<'w, 'a> {
    /// The name as written.
    pub name: &'a Sym,
    /// The buffer `name` stores into: itself, or the root of the alias.
    pub root: &'a Sym,
    pub touch: Touch<'a>,
    pub shape: Shape<'a>,
    pub at: &'w Place<'a>,
}

impl<'a> Access<'_, 'a> {
    /// Whether [`Access::root`] is allocated inside the walked statements,
    /// in a scope still open here.
    pub fn is_local(&self) -> bool {
        let local = |s: &Scope<'_>| matches!(s, Scope::Alloc { name, .. } if *name == self.root);
        self.at.scopes.iter().any(local)
    }

    /// The cells touched, in the coordinates of [`Access::root`].
    pub fn root_shape(&self) -> Shape<'a> {
        if self.name == self.root {
            self.shape
        } else {
            Shape::Whole
        }
    }
}

/// A consumer of the walk. Only [`AccessSink::access`] is required; a sink
/// that ignores scopes, configuration state or calls pays nothing for them.
pub(crate) trait AccessSink<'a> {
    /// One buffer touch, in execution order of the statement it is in
    /// (a destination before the indices and right-hand side that feed it).
    fn access(&mut self, a: &Access<'_, 'a>);

    /// A scope opens: after the loop bounds / allocation sizes / alias
    /// source were reported, before anything inside the scope. `at` is
    /// the place of the opening statement itself.
    fn enter(&mut self, _scope: &Scope<'a>, _at: &Place<'a>) {}

    /// The innermost open scope closes.
    fn exit(&mut self, _scope: &Scope<'a>) {}

    /// A configuration field is written (`write`) or read.
    fn config(&mut self, _config: &'a Sym, _field: &'a str, _write: bool) {}

    /// A call statement, before its arguments are reported.
    fn call(&mut self, _callee: &'a str) {}
}

struct Walk<'s, 'a, S> {
    sink: &'s mut S,
    /// Knows the aliases in scope around the walked statements, if any.
    outer: Option<&'a Context>,
    at: Place<'a>,
    /// `Visit` does not say which child of its parent a statement is; the
    /// cursor path needs it. Of the parent's children — a loop body, or
    /// the then-branch of an `if` with its else-branch right behind — the
    /// first `then_len` are `Step::Body`, the rest `Step::Else`, and
    /// `visited` of them have been walked.
    then_len: usize,
    visited: usize,
    /// The scope the statement being visited opens once its own
    /// expressions have been reported.
    pending: Option<Scope<'a>>,
    /// While the arguments of a call are being visited: the callee and the
    /// position of the next top-level argument.
    arg: Option<(&'a str, usize)>,
}

impl<'a, S: AccessSink<'a>> Walk<'_, 'a, S> {
    fn root_of(&self, name: &'a Sym) -> &'a Sym {
        let binding = self.at.scopes.iter().rev().find_map(|s| match s {
            Scope::Alias { name: n, root, .. } if *n == name => Some(*root),
            Scope::Alloc { name: n, .. } if *n == name => Some(*n),
            _ => None,
        });
        binding.unwrap_or_else(|| self.outer.map_or(name, |ctx| ctx.root_of(name)))
    }

    fn touch(&mut self, name: &'a Sym, touch: Touch<'a>, shape: Shape<'a>) {
        let (root, at) = (self.root_of(name), &self.at);
        self.sink.access(&Access {
            name,
            root,
            touch,
            shape,
            at,
        });
    }

    fn open_pending(&mut self) {
        if let Some(scope) = self.pending.take() {
            self.sink.enter(&scope, &self.at);
            self.at.scopes.push(scope);
        }
    }
}

impl<'a, S: AccessSink<'a>> Visit<'a> for Walk<'_, 'a, S> {
    fn visit_stmt(&mut self, s: &'a Stmt) {
        let (then_len, k) = (self.then_len, self.visited);
        self.at.path.push(match k.checked_sub(then_len) {
            None => Step::Body(k),
            Some(k) => Step::Else(k),
        });
        self.visited = 0;
        self.then_len = match s {
            Stmt::If { then_body, .. } => then_body.len(),
            _ => usize::MAX,
        };
        match s {
            Stmt::Assign { buf, idx, .. } => self.touch(buf, Touch::Write, Shape::Point(idx)),
            Stmt::Reduce { buf, idx, .. } => self.touch(buf, Touch::Reduce, Shape::Point(idx)),
            Stmt::For {
                iter,
                lo,
                hi,
                body,
                parallel,
            } => {
                let parallel = *parallel;
                self.pending = Some(Scope::Loop(Loop {
                    iter,
                    lo,
                    hi,
                    parallel,
                    body,
                }));
            }
            Stmt::Alloc { name, dims, .. } => self.pending = Some(Scope::Alloc { name, dims }),
            Stmt::WindowStmt { name, rhs } => {
                let (root, window) = match rhs {
                    Expr::Window { buf, idx } => (self.root_of(buf), idx.as_slice()),
                    _ => (name, &[][..]),
                };
                self.pending = Some(Scope::Alias { name, root, window });
            }
            Stmt::Call { proc, .. } => {
                self.sink.call(proc);
                self.arg = Some((proc, 0));
            }
            Stmt::WriteConfig { config, field, .. } => self.sink.config(config, field, true),
            Stmt::If { .. } | Stmt::Pass => {}
        }
        // Every expression position of `s`, then its child blocks; a loop
        // opens its scope through `enter` on the way from one to the other.
        walk_stmt(self, s);
        self.arg = None;
        (self.then_len, self.visited) = (then_len, k + 1);
        self.at.path.pop();
    }

    fn visit_expr(&mut self, e: &'a Expr) {
        let touch = match self.arg.take() {
            Some((callee, n)) => Touch::Arg { callee, n },
            None => Touch::Read,
        };
        match e {
            Expr::Read { buf, idx } => self.touch(buf, touch, Shape::Point(idx)),
            Expr::Window { buf, idx } => self.touch(buf, touch, Shape::Window(idx)),
            // Elsewhere a bare name is a scalar or an index variable.
            Expr::Var(name) if matches!(touch, Touch::Arg { .. }) => {
                self.touch(name, touch, Shape::Whole)
            }
            Expr::ReadConfig { config, field } => self.sink.config(config, field, false),
            _ => {}
        }
        walk_expr(self, e);
        if let Touch::Arg { callee, n } = touch {
            self.arg = Some((callee, n + 1));
        }
    }

    /// An allocation or alias opens its scope after its statement, a loop
    /// between its bounds and its body.
    fn enter(&mut self, _binder: &'a Sym) -> bool {
        self.open_pending();
        true
    }

    fn exit(&mut self, _binder: &'a Sym) {
        if let Some(scope) = self.at.scopes.pop() {
            self.sink.exit(&scope);
        }
    }
}

/// Walks sibling statements once, in order, reporting every buffer touch
/// and scope to `sink`. An allocation or alias among `stmts` stays in
/// scope for the statements after it; `outer` holds the aliases declared
/// around them (only those are read, none of its other facts) — `None`
/// for a whole procedure body, or when the caller has no way to know.
pub(crate) fn walk_accesses<'a, S: AccessSink<'a>>(
    outer: Option<&'a Context>,
    stmts: impl IntoIterator<Item = &'a Stmt>,
    sink: &mut S,
) {
    let mut walk = Walk {
        sink,
        outer,
        at: Place::default(),
        then_len: usize::MAX,
        visited: 0,
        pending: None,
        arg: None,
    };
    for s in stmts {
        walk.visit_stmt(s);
        walk.open_pending();
    }
}
