//! Lowering: from the `exo_ir` statement tree to a slot-indexed
//! instruction tree.
//!
//! The tree-walking interpreter resolved every [`exo_ir::Sym`] occurrence
//! at run time by scanning a stack of `HashMap<Sym, Binding>` scopes —
//! hashing a string per variable access and allocating two fresh maps per
//! loop iteration. Lowering performs that resolution **once**: a single
//! pre-order walk over a [`Proc`] assigns every *binding site* (argument,
//! allocation, loop iterator, window alias) a dense frame slot, rewrites
//! every symbol occurrence to its slot index, and keeps the source's
//! structure: an [`LInst::Loop`] or [`LInst::If`] owns its bodies. The
//! executor and the C emitter both walk this one tree; neither needs a
//! flat encoding of it.
//!
//! Because resolution is purely lexical and each binding site re-executes
//! before any use on every loop iteration, a slot-indexed environment is
//! observationally identical to the scoped-map environment: a symbol that
//! would have been unbound at run time lowers to an explicit
//! [`LBufRef::Unbound`] marker that raises [`crate::InterpError::Unbound`]
//! only if it is actually evaluated, preserving error timing.
//!
//! Lowering also decides, once per loop, whether the executor may run it
//! as a [`Strip`]: an innermost loop whose one statement's indices are
//! affine in the iterator and whose right-hand side is float-only. The
//! plan rides on [`LInst::Loop`] as a field, so the tree keeps one
//! instruction per source statement and the emitter, which ignores it,
//! prints the same C.
//!
//! Lowered procedures are cached per callee name inside
//! [`crate::ProcRegistry`] (see [`crate::ProcRegistry::register`] for the
//! invalidation contract), so the hot instruction procedures of a kernel
//! are lowered once per registration rather than re-traversed per call.

use crate::monitor::StripStep;
use exo_ir::{ArgKind, BinOp, Block, DataType, Expr, Mem, Proc, Stmt, Sym, UnOp, WAccess};

/// A reference to a buffer-like operand: either a resolved frame slot or a
/// symbol that was not in scope at the point of use (which errors only
/// when evaluated, like the scoped-map interpreter did).
///
/// Public because the C backend in `exo-codegen` consumes the lowered
/// form: slot resolution done once here serves both the executor and the
/// emitter (slots are the emitter's unique, shadow-free identifiers).
#[derive(Clone, Debug)]
pub enum LBufRef {
    /// Resolved to a frame slot.
    Slot(u32),
    /// Out of scope at the point of use; the name is kept for the error.
    Unbound(Box<str>),
}

/// A lowered scalar expression. Mirrors [`Expr`] with symbols resolved to
/// slots and window expressions replaced by an explicit error marker.
#[derive(Clone, Debug)]
pub enum LExpr {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// A scalar variable occurrence.
    Var(LBufRef),
    /// A buffer element read.
    Read {
        /// Buffer being read.
        buf: LBufRef,
        /// One lowered index expression per dimension.
        idx: Box<[LExpr]>,
    },
    /// A window expression evaluated in a scalar context (always an error,
    /// raised lazily to preserve the original error timing).
    WindowInScalar,
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<LExpr>,
        /// Right operand.
        rhs: Box<LExpr>,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        arg: Box<LExpr>,
    },
    /// `stride(buf, dim)`.
    Stride {
        /// Buffer whose stride is queried.
        buf: LBufRef,
        /// Dimension index.
        dim: usize,
    },
    /// A configuration-register field read.
    ReadConfig {
        /// Configuration struct name.
        config: Box<str>,
        /// Field name.
        field: Box<str>,
    },
}

/// One narrowing dimension of a lowered window form.
#[derive(Clone, Debug)]
pub enum LWSpec {
    /// A point access: the dimension is dropped from the window's shape.
    Point(LExpr),
    /// An interval access: only `lo` participates in view narrowing
    /// (matching the tree interpreter, which treats the extent as a
    /// scheduling-time property). The pre-computed `extent` (`hi - lo`)
    /// rides along for consumers that instrument accesses — the C
    /// backend's debug-mode bounds checks — without changing execution.
    Interval {
        /// Interval start, the narrowing offset.
        lo: LExpr,
        /// Interval length `hi - lo`, constant-folded when both ends are
        /// literals.
        extent: LExpr,
    },
}

/// An expression used where a tensor is expected: a bare name, a point
/// access, a window — or anything else, which fails with the original
/// expression's rendering when (and only when) it is evaluated.
#[derive(Clone, Debug)]
pub enum LWindow {
    /// A whole tensor passed by name.
    Var {
        /// The tensor.
        buf: LBufRef,
    },
    /// `buf[i, j]` used as a 0-dim window argument.
    PointRead {
        /// The tensor.
        buf: LBufRef,
        /// Point index per dimension.
        idx: Box<[LExpr]>,
    },
    /// A window expression `buf[lo:hi, p, ...]`.
    Window {
        /// The tensor.
        buf: LBufRef,
        /// Per-dimension narrowing.
        spec: Box<[LWSpec]>,
    },
    /// Any other expression shape; fails when evaluated.
    NotATensor {
        /// Source rendering for the error message.
        display: Box<str>,
    },
}

/// A lowered call argument. The binding mode is chosen at run time from
/// the callee's parameter kind, so both the scalar and the window form are
/// pre-lowered.
#[derive(Clone, Debug)]
pub struct LCallArg {
    /// The argument lowered as a scalar expression.
    pub scalar: LExpr,
    /// The argument lowered as a tensor/window expression.
    pub window: LWindow,
}

/// Parameter kinds, reduced to what argument binding needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LParamKind {
    /// A `size` parameter.
    Size,
    /// A scalar value parameter.
    Scalar,
    /// A tensor (buffer or window) parameter.
    Tensor,
}

/// A lowered procedure parameter.
#[derive(Clone, Debug)]
pub struct LArg {
    /// Frame slot the parameter binds.
    pub slot: u32,
    /// Parameter kind.
    pub kind: LParamKind,
}

/// One lowered statement. Control flow is block-structured: a `Loop` or
/// an `If` owns its bodies, so every consumer walks the same tree the
/// source had, with symbols already resolved to slots.
#[derive(Clone, Debug)]
pub enum LInst {
    /// `buf[idx...] = rhs`.
    Assign {
        /// Destination buffer.
        buf: LBufRef,
        /// Destination index per dimension.
        idx: Box<[LExpr]>,
        /// Value written.
        rhs: LExpr,
    },
    /// `buf[idx...] += rhs`.
    Reduce {
        /// Destination buffer.
        buf: LBufRef,
        /// Destination index per dimension.
        idx: Box<[LExpr]>,
        /// Value accumulated.
        rhs: LExpr,
    },
    /// Buffer allocation bound to a frame slot.
    Alloc {
        /// Slot the buffer binds.
        slot: u32,
        /// Element type.
        ty: DataType,
        /// Dimension sizes.
        dims: Box<[LExpr]>,
        /// Memory space.
        mem: Mem,
    },
    /// Evaluates the bounds once, then runs `body` with the iterator bound
    /// to each value of `lo..hi` in turn.
    Loop {
        /// Slot of the iterator.
        iter: u32,
        /// Inclusive lower bound.
        lo: LExpr,
        /// Exclusive upper bound.
        hi: LExpr,
        /// The loop body.
        body: Box<[LInst]>,
        /// Whether iterations may execute in parallel.
        parallel: bool,
        /// Set when the body is one affine float statement (see
        /// [`Strip`]); the executor then runs the loop as one pass.
        /// Backends that emit code ignore it.
        strip: Option<Box<Strip>>,
    },
    /// Runs `then_body` if `cond` holds, `else_body` otherwise.
    If {
        /// Branch condition.
        cond: LExpr,
        /// Statements run on true.
        then_body: Box<[LInst]>,
        /// Statements run on false (empty when the source had no else).
        else_body: Box<[LInst]>,
    },
    /// A call to another procedure.
    Call {
        /// Callee name.
        callee: Box<str>,
        /// Pre-lowered arguments.
        args: Box<[LCallArg]>,
    },
    /// The empty statement.
    Pass,
    /// A configuration-register write.
    WriteConfig {
        /// Configuration struct name.
        config: Box<str>,
        /// Field name.
        field: Box<str>,
        /// Value written.
        value: LExpr,
    },
    /// Binds a window alias to a frame slot.
    WindowBind {
        /// Slot the alias binds.
        slot: u32,
        /// The window it aliases.
        rhs: LWindow,
    },
}

/// Most buffer accesses (the destination included), most scalar
/// variables, and most values held at once by one strip's evaluation.
pub(crate) const MAX_STRIP_OPERANDS: usize = 8;

/// The plan of a loop whose body runs as one resolved pass: an innermost
/// loop whose body is one `Assign` or `Reduce` with
///
/// * every index *affine in the iterator*: built from integer literals,
///   slot variables, `+`, `-`, and `*` with at most one side mentioning
///   the iterator; `/` and `%` only over subterms that do not mention it;
///   no `Read`;
/// * a *float-only* right-hand side: reads, float literals, scalar
///   variables, `+ - * /` and unary `-`.
///
/// Every subterm of such an index is then a linear function of the
/// iterator, so an access's element offset is too, and its extremes (and
/// any overflow or out-of-bounds index) fall at the first or the last
/// iteration. The executor checks both endpoints with the ordinary fold
/// and plan and, if both resolve, steps one offset per access instead of
/// re-evaluating indices per element. Anything the endpoints cannot
/// settle runs the loop element by element instead.
#[derive(Clone, Debug)]
pub struct Strip {
    /// Every buffer access of the body in evaluation order: the
    /// right-hand side's reads, then the destination.
    pub(crate) accesses: Box<[StripAccess]>,
    /// Frame slots of the scalar variables the right-hand side reads.
    pub(crate) scalars: Box<[u32]>,
    /// One trip, on a value stack: the right-hand side in postfix order,
    /// a `Reduce`'s read and add of the destination, the write. The data
    /// loop runs it, and a monitor is handed it (see
    /// [`crate::StripTrace`]).
    pub(crate) program: Box<[StripStep]>,
}

/// One buffer access of a strip.
#[derive(Clone, Debug)]
pub(crate) struct StripAccess {
    /// Frame slot of the buffer.
    pub(crate) buf: u32,
    /// One index expression per dimension, affine in the iterator.
    pub(crate) idx: Box<[LExpr]>,
}

impl Strip {
    /// The plan of a loop over slot `iter` with `body`, if it is a strip.
    fn of(iter: u32, body: &[LInst]) -> Option<Box<Strip>> {
        let ([LInst::Assign { buf, idx, rhs }] | [LInst::Reduce { buf, idx, rhs }]) = body else {
            return None;
        };
        let mut b = StripBuilder {
            iter,
            accesses: [(0, &[]); MAX_STRIP_OPERANDS],
            n_accesses: 0,
            scalars: Vec::new(),
            program: Vec::with_capacity(2 * MAX_STRIP_OPERANDS),
            depth: 0,
        };
        b.value(rhs)?;
        b.access(buf, idx)?;
        let dest = b.n_accesses - 1;
        if let [LInst::Reduce { .. }] = body {
            b.push(StripStep::Read(dest))?;
            b.push(StripStep::Op(BinOp::Add))?;
        }
        b.push(StripStep::Write(dest))?;
        Some(Box::new(Strip {
            // The indices are copied only once the loop is known to be one.
            accesses: b.accesses[..b.n_accesses]
                .iter()
                .map(|&(buf, idx)| StripAccess {
                    buf,
                    idx: idx.into(),
                })
                .collect(),
            scalars: b.scalars.into_boxed_slice(),
            program: b.program.into_boxed_slice(),
        }))
    }
}

struct StripBuilder<'a> {
    iter: u32,
    /// Buffer slot and indices of each access, in evaluation order.
    accesses: [(u32, &'a [LExpr]); MAX_STRIP_OPERANDS],
    n_accesses: usize,
    scalars: Vec<u32>,
    program: Vec<StripStep>,
    /// Values the program holds after the steps so far.
    depth: usize,
}

impl<'a> StripBuilder<'a> {
    fn push(&mut self, step: StripStep) -> Option<()> {
        match step {
            StripStep::Op(_) | StripStep::Write(_) => self.depth -= 1,
            StripStep::Neg => {}
            StripStep::Read(_) | StripStep::Float(_) | StripStep::Scalar(_) => {
                self.depth += 1;
                if self.depth > MAX_STRIP_OPERANDS {
                    return None;
                }
            }
        }
        self.program.push(step);
        Some(())
    }

    /// Appends the postfix code of a float-only value.
    fn value(&mut self, e: &'a LExpr) -> Option<()> {
        match e {
            LExpr::Float(v) => self.push(StripStep::Float(*v)),
            LExpr::Var(LBufRef::Slot(s)) if *s != self.iter => {
                let k = match self.scalars.iter().position(|t| t == s) {
                    Some(k) => k,
                    None if self.scalars.len() < MAX_STRIP_OPERANDS => {
                        self.scalars.push(*s);
                        self.scalars.len() - 1
                    }
                    None => return None,
                };
                self.push(StripStep::Scalar(k))
            }
            LExpr::Read { buf, idx } => {
                self.access(buf, idx)?;
                self.push(StripStep::Read(self.n_accesses - 1))
            }
            LExpr::Bin {
                op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div),
                lhs,
                rhs,
            } => {
                self.value(lhs)?;
                self.value(rhs)?;
                self.push(StripStep::Op(*op))
            }
            LExpr::Un { op: UnOp::Neg, arg } => {
                self.value(arg)?;
                self.push(StripStep::Neg)
            }
            _ => None,
        }
    }

    /// Appends an access whose indices are affine in the iterator.
    fn access(&mut self, buf: &LBufRef, idx: &'a [LExpr]) -> Option<()> {
        let LBufRef::Slot(buf) = buf else {
            return None;
        };
        if self.n_accesses == MAX_STRIP_OPERANDS {
            return None;
        }
        for i in idx {
            affine_in(i, self.iter)?;
        }
        self.accesses[self.n_accesses] = (*buf, idx);
        self.n_accesses += 1;
        Some(())
    }
}

/// Whether `e` mentions slot `iter`, if `e` is affine in it (see
/// [`Strip`]); `None` otherwise.
fn affine_in(e: &LExpr, iter: u32) -> Option<bool> {
    match e {
        LExpr::Int(_) => Some(false),
        LExpr::Var(LBufRef::Slot(s)) => Some(*s == iter),
        LExpr::Bin { op, lhs, rhs } => {
            let (a, b) = (affine_in(lhs, iter)?, affine_in(rhs, iter)?);
            match op {
                BinOp::Add | BinOp::Sub => Some(a || b),
                BinOp::Mul if !(a && b) => Some(a || b),
                BinOp::Div | BinOp::Mod if !(a || b) => Some(false),
                _ => None,
            }
        }
        _ => None,
    }
}

/// How a call runs a *lane instruction* — a procedure without
/// preconditions whose body is one [`LInst::Loop`] with literal bounds
/// that carries a [`Strip`], every parameter of which is a tensor the
/// strip accesses or a scalar it reads. All of `exo-machine`'s vector
/// instruction procedures have this form. Decided once, when the callee
/// is lowered: a call to one resolves each strip access through the
/// caller's window argument and runs the strip on the caller's buffers,
/// with no callee frame (see `Interpreter::call_lanes`).
#[derive(Clone, Debug)]
pub(crate) struct Lanes {
    /// Per strip access, in the strip's order: the parameter it names and
    /// its index at the first and at the last lane.
    pub(crate) accesses: Box<[LaneAccess]>,
    /// Per scalar parameter, in parameter order: its position among the
    /// parameters and among [`Strip::scalars`].
    pub(crate) scalars: Box<[(usize, usize)]>,
    /// Iterations of the loop, at least one.
    pub(crate) trips: i64,
}

/// One strip access of a lane instruction.
#[derive(Clone, Debug)]
pub(crate) struct LaneAccess {
    /// Position of the tensor parameter it names.
    pub(crate) param: usize,
    /// Its index at the first lane and at the last.
    pub(crate) first: Box<[i64]>,
    pub(crate) last: Box<[i64]>,
}

impl Lanes {
    /// The lane plan of a procedure with these parameters, preconditions
    /// and body, if it is a lane instruction.
    fn of(args: &[LArg], preds: &[(LExpr, String)], code: &[LInst]) -> Option<Box<Lanes>> {
        let [LInst::Loop {
            iter,
            lo: LExpr::Int(lo),
            hi: LExpr::Int(hi),
            strip: Some(strip),
            ..
        }] = code
        else {
            return None;
        };
        let trips = hi.checked_sub(*lo).filter(|&t| t > 0)?;
        if !preds.is_empty() {
            return None;
        }
        let param = |slot: u32, kind: LParamKind| {
            args.iter().position(|a| a.slot == slot && a.kind == kind)
        };
        let at = |idx: &[LExpr], v: i64| -> Option<Box<[i64]>> {
            idx.iter().map(|e| fold_at(e, *iter, v)).collect()
        };
        let accesses: Box<[LaneAccess]> = strip
            .accesses
            .iter()
            .map(|a| {
                Some(LaneAccess {
                    param: param(a.buf, LParamKind::Tensor)?,
                    first: at(&a.idx, *lo)?,
                    last: at(&a.idx, hi - 1)?,
                })
            })
            .collect::<Option<_>>()?;
        let scalars: Box<[(usize, usize)]> = args
            .iter()
            .enumerate()
            .filter(|(_, a)| a.kind == LParamKind::Scalar)
            .map(|(p, a)| Some((p, strip.scalars.iter().position(|&s| s == a.slot)?)))
            .collect::<Option<_>>()?;
        // Every parameter is read, so resolving the accesses and the
        // scalars resolves every argument the general call binds.
        let tensors_read = args
            .iter()
            .enumerate()
            .all(|(p, a)| a.kind != LParamKind::Tensor || accesses.iter().any(|x| x.param == p));
        let sized = args.iter().any(|a| a.kind == LParamKind::Size);
        (tensors_read && !sized && scalars.len() == strip.scalars.len()).then(|| {
            Box::new(Lanes {
                accesses,
                scalars,
                trips,
            })
        })
    }
}

/// The value of an index built from integer literals and slot `iter`
/// bound to `v`, folded as the executor folds indices; `None` for any
/// other slot, a zero divisor or an overflow.
fn fold_at(e: &LExpr, iter: u32, v: i64) -> Option<i64> {
    match e {
        LExpr::Int(c) => Some(*c),
        LExpr::Var(LBufRef::Slot(s)) if *s == iter => Some(v),
        LExpr::Bin { op, lhs, rhs } => {
            let (a, b) = (fold_at(lhs, iter, v)?, fold_at(rhs, iter, v)?);
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => a.checked_div_euclid(b),
                BinOp::Mod => a.checked_rem_euclid(b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// A procedure lowered to a tree of slot-resolved instructions. Obtained
/// from [`lower`]; executed by [`crate::Interpreter::run`].
#[derive(Clone, Debug)]
pub struct LoweredProc {
    pub(crate) name: String,
    pub(crate) frame_size: usize,
    pub(crate) args: Vec<LArg>,
    /// Precondition expressions paired with their source rendering (used
    /// verbatim in `AssertFailed` messages).
    pub(crate) preds: Vec<(LExpr, String)>,
    pub(crate) code: Box<[LInst]>,
    /// Source name of each slot, for error messages.
    pub(crate) slot_names: Vec<String>,
    /// Set when the procedure is a lane instruction.
    pub(crate) lanes: Option<Box<Lanes>>,
}

impl LoweredProc {
    /// Name of the source procedure.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dense environment slots a call frame needs. Always equal
    /// to [`Proc::binding_site_count`] of the source procedure.
    pub fn frame_size(&self) -> usize {
        self.frame_size
    }

    /// Number of instructions at every depth: one per source statement.
    pub fn code_len(&self) -> usize {
        self.insts().count()
    }

    /// The top-level body; loops and branches own their nested bodies.
    pub fn code(&self) -> &[LInst] {
        &self.code
    }

    /// Every instruction at every depth, in pre-order: a `Loop` before
    /// its body, an `If` before its then-body, then its else-body. That
    /// is source order, so each slot's binding instruction precedes its
    /// uses.
    pub fn insts(&self) -> impl Iterator<Item = &LInst> + '_ {
        // Deep enough for every shipped nest: a walk allocates once.
        let mut stack = Vec::with_capacity(8);
        stack.push(self.code.iter());
        std::iter::from_fn(move || loop {
            let Some(inst) = stack.last_mut()?.next() else {
                stack.pop();
                continue;
            };
            match inst {
                LInst::Loop { body, .. } => stack.push(body.iter()),
                LInst::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    stack.push(else_body.iter());
                    stack.push(then_body.iter());
                }
                _ => {}
            }
            return Some(inst);
        })
    }

    /// The lowered parameters, in declaration order.
    pub fn args(&self) -> &[LArg] {
        &self.args
    }

    /// The lowered assertion preconditions, each paired with its source
    /// rendering.
    pub fn preds(&self) -> &[(LExpr, String)] {
        &self.preds
    }

    /// Source name of every frame slot, in slot order (binding-site
    /// pre-order). Shadowed names appear more than once; the slot index
    /// is the unique identity.
    pub fn slot_names(&self) -> &[String] {
        &self.slot_names
    }
}

/// Lowers a procedure. Lowering never fails: symbols that are not in
/// scope become lazy [`crate::InterpError::Unbound`] sites, exactly like
/// the scoped-map interpreter which only errored when the use executed.
/// Traced as an `interp:lower` span named after the procedure.
pub fn lower(proc: &Proc) -> LoweredProc {
    let _span = exo_obs::span!("interp:lower", "{}", proc.name());
    let mut lw = Lowerer {
        slot_names: Vec::with_capacity(proc.binding_site_count()),
        scope: Vec::new(),
        marks: Vec::new(),
    };
    let mut args = Vec::with_capacity(proc.args().len());
    for arg in proc.args() {
        let kind = match &arg.kind {
            ArgKind::Size => LParamKind::Size,
            ArgKind::Scalar { .. } => LParamKind::Scalar,
            ArgKind::Tensor { .. } => LParamKind::Tensor,
        };
        let slot = lw.bind(&arg.name);
        args.push(LArg { slot, kind });
    }
    let preds: Vec<_> = proc
        .preds()
        .iter()
        .map(|p| (lw.lower_expr(p), p.to_string()))
        .collect();
    let code = lw.lower_block(proc.body());
    debug_assert_eq!(
        lw.slot_names.len(),
        proc.binding_site_count(),
        "slot assignment must agree with Proc::binding_site_count"
    );
    LoweredProc {
        name: proc.name().to_string(),
        frame_size: lw.slot_names.len(),
        lanes: Lanes::of(&args, &preds, &code),
        args,
        preds,
        code,
        slot_names: lw.slot_names,
    }
}

struct Lowerer {
    slot_names: Vec<String>,
    /// Lexical scope stack: innermost bindings at the back.
    scope: Vec<(Sym, u32)>,
    /// Scope boundaries (indices into `scope`).
    marks: Vec<usize>,
}

impl Lowerer {
    fn push_scope(&mut self) {
        self.marks.push(self.scope.len());
    }

    fn pop_scope(&mut self) {
        if let Some(mark) = self.marks.pop() {
            self.scope.truncate(mark);
        }
    }

    fn bind(&mut self, sym: &Sym) -> u32 {
        let slot = self.slot_names.len() as u32;
        self.slot_names.push(sym.name().to_string());
        self.scope.push((sym.clone(), slot));
        slot
    }

    fn resolve(&self, sym: &Sym) -> LBufRef {
        match self.scope.iter().rev().find(|(s, _)| s == sym) {
            Some((_, slot)) => LBufRef::Slot(*slot),
            None => LBufRef::Unbound(sym.name().into()),
        }
    }

    fn lower_expr(&self, e: &Expr) -> LExpr {
        match e {
            Expr::Int(v) => LExpr::Int(*v),
            Expr::Float(v) => LExpr::Float(*v),
            Expr::Bool(b) => LExpr::Bool(*b),
            Expr::Var(s) => LExpr::Var(self.resolve(s)),
            Expr::Read { buf, idx } => LExpr::Read {
                buf: self.resolve(buf),
                idx: idx.iter().map(|i| self.lower_expr(i)).collect(),
            },
            Expr::Window { .. } => LExpr::WindowInScalar,
            Expr::Bin { op, lhs, rhs } => LExpr::Bin {
                op: *op,
                lhs: Box::new(self.lower_expr(lhs)),
                rhs: Box::new(self.lower_expr(rhs)),
            },
            Expr::Un { op, arg } => LExpr::Un {
                op: *op,
                arg: Box::new(self.lower_expr(arg)),
            },
            Expr::Stride { buf, dim } => LExpr::Stride {
                buf: self.resolve(buf),
                dim: *dim,
            },
            Expr::ReadConfig { config, field } => LExpr::ReadConfig {
                config: config.name().into(),
                field: field.as_str().into(),
            },
        }
    }

    /// Lowers an expression used where a tensor is expected, mirroring the
    /// case analysis of the tree interpreter's `eval_window`.
    fn lower_window(&self, e: &Expr) -> LWindow {
        match e {
            Expr::Var(s) => LWindow::Var {
                buf: self.resolve(s),
            },
            Expr::Read { buf, idx } if !idx.is_empty() => LWindow::PointRead {
                buf: self.resolve(buf),
                idx: idx.iter().map(|i| self.lower_expr(i)).collect(),
            },
            Expr::Window { buf, idx } => LWindow::Window {
                buf: self.resolve(buf),
                spec: idx
                    .iter()
                    .map(|w| match w {
                        WAccess::Point(p) => LWSpec::Point(self.lower_expr(p)),
                        WAccess::Interval(lo, hi) => {
                            let lo_l = self.lower_expr(lo);
                            let hi_l = self.lower_expr(hi);
                            let extent = match (&lo_l, &hi_l) {
                                (LExpr::Int(a), LExpr::Int(b)) => LExpr::Int(b - a),
                                (LExpr::Int(0), _) => hi_l.clone(),
                                _ => LExpr::Bin {
                                    op: BinOp::Sub,
                                    lhs: Box::new(hi_l),
                                    rhs: Box::new(lo_l.clone()),
                                },
                            };
                            LWSpec::Interval { lo: lo_l, extent }
                        }
                    })
                    .collect(),
            },
            other => LWindow::NotATensor {
                display: other.to_string().into(),
            },
        }
    }

    fn lower_block(&mut self, block: &Block) -> Box<[LInst]> {
        self.push_scope();
        let block = block.iter().map(|s| self.lower_stmt(s)).collect();
        self.pop_scope();
        block
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> LInst {
        match stmt {
            Stmt::Assign { buf, idx, rhs } => LInst::Assign {
                buf: self.resolve(buf),
                idx: idx.iter().map(|i| self.lower_expr(i)).collect(),
                rhs: self.lower_expr(rhs),
            },
            Stmt::Reduce { buf, idx, rhs } => LInst::Reduce {
                buf: self.resolve(buf),
                idx: idx.iter().map(|i| self.lower_expr(i)).collect(),
                rhs: self.lower_expr(rhs),
            },
            Stmt::Alloc {
                name,
                ty,
                dims,
                mem,
            } => {
                // Dimensions resolve before the name is bound, so a
                // self-referential allocation sees the outer binding.
                let dims: Box<[LExpr]> = dims.iter().map(|d| self.lower_expr(d)).collect();
                LInst::Alloc {
                    slot: self.bind(name),
                    ty: *ty,
                    dims,
                    mem: mem.clone(),
                }
            }
            Stmt::For {
                iter,
                lo,
                hi,
                body,
                parallel,
            } => {
                // Bounds resolve outside the iterator's scope.
                let lo = self.lower_expr(lo);
                let hi = self.lower_expr(hi);
                self.push_scope();
                let iter = self.bind(iter);
                let body = self.lower_block(body);
                self.pop_scope();
                LInst::Loop {
                    iter,
                    lo,
                    hi,
                    strip: Strip::of(iter, &body),
                    body,
                    parallel: *parallel,
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => LInst::If {
                cond: self.lower_expr(cond),
                then_body: self.lower_block(then_body),
                else_body: self.lower_block(else_body),
            },
            Stmt::Call { proc, args } => LInst::Call {
                callee: proc.as_str().into(),
                args: args
                    .iter()
                    .map(|a| LCallArg {
                        scalar: self.lower_expr(a),
                        window: self.lower_window(a),
                    })
                    .collect(),
            },
            Stmt::Pass => LInst::Pass,
            Stmt::WriteConfig {
                config,
                field,
                value,
            } => LInst::WriteConfig {
                config: config.name().into(),
                field: field.as_str().into(),
                value: self.lower_expr(value),
            },
            Stmt::WindowStmt { name, rhs } => {
                let rhs = self.lower_window(rhs);
                LInst::WindowBind {
                    slot: self.bind(name),
                    rhs,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{fb, ib, read, var, ProcBuilder};

    fn sample() -> Proc {
        ProcBuilder::new("p")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.alloc("t", DataType::F32, vec![], Mem::Dram);
                b.assign("t", vec![], fb(0.0));
                b.assign("x", vec![var("i")], read("t", vec![]));
            })
            .build()
    }

    #[test]
    fn frame_size_matches_binding_site_count() {
        let p = sample();
        let lp = lower(&p);
        assert_eq!(lp.frame_size(), p.binding_site_count());
        // n, x, i, t
        assert_eq!(lp.frame_size(), 4);
        assert_eq!(lp.name(), "p");
    }

    #[test]
    fn loops_own_their_bodies() {
        let lp = lower(&sample());
        let [LInst::Loop { iter, body, .. }] = lp.code() else {
            panic!("expected one top-level loop, got {:?}", lp.code());
        };
        assert_eq!(lp.slot_names()[*iter as usize], "i");
        assert!(matches!(
            &body[..],
            [
                LInst::Alloc { .. },
                LInst::Assign { .. },
                LInst::Assign { .. }
            ]
        ));
        // One instruction per source statement, in pre-order.
        assert_eq!(lp.code_len(), 4);
        assert!(matches!(lp.insts().next(), Some(LInst::Loop { .. })));
    }

    #[test]
    fn branches_walk_then_before_else() {
        let p = ProcBuilder::new("p")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![ib(2)], Mem::Dram)
            .with_body(|b| {
                b.if_else(
                    Expr::lt(var("n"), ib(1)),
                    |t| {
                        t.assign("x", vec![ib(0)], fb(1.0));
                    },
                    |e| {
                        e.assign("x", vec![ib(1)], fb(2.0));
                        e.pass();
                    },
                );
            })
            .build();
        let lp = lower(&p);
        let kinds: Vec<&str> = lp
            .insts()
            .map(|i| match i {
                LInst::If { .. } => "if",
                LInst::Assign { .. } => "assign",
                LInst::Pass => "pass",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["if", "assign", "assign", "pass"]);
        assert_eq!(lp.code_len(), 4);
    }

    #[test]
    fn out_of_scope_symbols_lower_to_unbound_markers() {
        let p = ProcBuilder::new("p")
            .tensor_arg("x", DataType::F32, vec![ib(1)], Mem::Dram)
            .with_body(|b| {
                b.assign("x", vec![ib(0)], read("ghost", vec![]));
            })
            .build();
        let lp = lower(&p);
        let LInst::Assign { rhs, .. } = &lp.code[0] else {
            panic!("expected an assign instruction");
        };
        // `ghost` was never bound; `read("ghost", vec![])` has an empty
        // index list so it lowers as a (lazily unbound) variable-style read.
        match rhs {
            LExpr::Read {
                buf: LBufRef::Unbound(name),
                ..
            } => assert_eq!(&**name, "ghost"),
            other => panic!("expected unbound read, got {other:?}"),
        }
    }

    #[test]
    fn vector_instructions_are_lane_instructions() {
        use exo_machine::MachineModel;
        let mut count = 0;
        for machine in [MachineModel::avx2(), MachineModel::avx512()] {
            for ty in [DataType::F32, DataType::F64] {
                for p in machine.instructions(ty) {
                    let lanes = lower(&p).lanes.expect("a lane instruction");
                    assert_eq!(lanes.accesses.len() + lanes.scalars.len(), p.args().len());
                    // A precondition makes it an ordinary callee.
                    assert!(lower(&p.add_assertion(Expr::eq_(ib(0), ib(0))))
                        .lanes
                        .is_none());
                    count += 1;
                }
            }
        }
        assert_eq!(count, 44);
        // Not the other procedures: a scalar kernel, a `size` parameter.
        assert!(lower(&sample()).lanes.is_none());
    }

    #[test]
    fn shadowing_resolves_to_the_innermost_binding() {
        // Two loops over `i`: each body's `i` must resolve to its own slot.
        let p = ProcBuilder::new("p")
            .tensor_arg("x", DataType::F32, vec![ib(8)], Mem::Dram)
            .for_("i", ib(0), ib(4), |b| {
                b.assign("x", vec![var("i")], fb(1.0));
            })
            .build();
        let p = {
            let mut p2 = p.clone();
            let n = p2.body().len();
            p2.body_mut().splice(n..n, p.body().stmts().iter().cloned());
            p2
        };
        let lp = lower(&p);
        let iters: Vec<u32> = lp
            .insts()
            .filter_map(|i| match i {
                LInst::Loop { iter, .. } => Some(*iter),
                _ => None,
            })
            .collect();
        assert_eq!(iters.len(), 2);
        assert_ne!(iters[0], iters[1], "each loop gets its own slot");
        // Each body's store index uses the matching iterator slot.
        let idx_slots: Vec<u32> = lp
            .insts()
            .filter_map(|i| match i {
                LInst::Assign { idx, .. } => match &idx[0] {
                    LExpr::Var(LBufRef::Slot(s)) => Some(*s),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(idx_slots, iters);
    }
}
