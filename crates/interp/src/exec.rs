//! The interpreter proper.
//!
//! Two execution paths share one set of value/binding types:
//!
//! * [`Interpreter::run`] — the default, **lowered** path: the procedure
//!   is first resolved by [`crate::lower::lower`] into a slot-indexed
//!   instruction tree, then executed by one recursive walk over it
//!   against dense `Vec`-backed frames (no hashing, no `Sym` cloning, no
//!   reverse scope scans, no callee AST clones). Lowered callees are
//!   cached inside the [`ProcRegistry`].
//! * [`Interpreter::run_reference`] — the original tree-walking path with
//!   a `HashMap`-scoped environment, kept as the semantic baseline for
//!   differential tests.
//!
//! Both paths are observationally identical: same buffer contents, same
//! [`Monitor`] event sequence, same errors.
//!
//! A loop that lowering planned as a [`Strip`] runs as one pass: its accesses
//! are resolved at the first and the last iteration with the same fold
//! and plan every access uses, and the elements in between are reached
//! by one offset step per access, with the per-element counts and
//! results. Its events go to the monitor once, as one
//! [`crate::StripTrace`] for all of its trips, before the data loop, which
//! reports nothing; a monitor that does not override
//! [`Monitor::on_strip`] sees them element by element. When an endpoint
//! does not resolve the loop runs element by element from its first
//! iteration, which reports whatever is wrong exactly as it always did;
//! the strip has executed and emitted nothing by then. A call to a lane instruction (see [`Lanes`]) runs the
//! callee's strip the same way, its accesses resolved through the
//! caller's window arguments, with the general call as its fallback.

use crate::buffer::{canonical_nan, AccessPlan, ArgValue, BufferData, View, WindowDim};
use crate::error::InterpError;
use crate::lower::{
    LBufRef, LCallArg, LExpr, LInst, LParamKind, LWSpec, LWindow, LaneAccess, Lanes, LoweredProc,
    Strip, StripAccess, MAX_STRIP_OPERANDS,
};
use crate::monitor::{Monitor, StripCursor, StripStep, StripTrace};
use crate::registry::ProcRegistry;
use crate::Result;
use exo_ir::{ArgKind, BinOp, Block, DataType, Expr, Mem, Proc, Stmt, Sym, UnOp, WAccess};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Value {
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl Value {
    fn as_float(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
            Value::Bool(b) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    fn as_int(self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(v),
            // Accept only floats that are exactly representable as i64:
            // integral, and strictly inside [-2^63, 2^63). Huge values
            // would otherwise saturate in `as i64` and silently corrupt
            // index arithmetic.
            Value::Float(v) if v.fract() == 0.0 && v >= i64::MIN as f64 && v < i64::MAX as f64 => {
                Ok(v as i64)
            }
            other => Err(InterpError::Malformed(format!(
                "expected integer, got {other:?}"
            ))),
        }
    }

    fn neg(self) -> Result<Value> {
        match self {
            Value::Int(i) => i.checked_neg().map(Value::Int).ok_or_else(index_overflow),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Bool(_) => Err(InterpError::Malformed("negating a boolean".into())),
        }
    }

    fn as_bool(self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(b),
            // The IR never produces an integer in boolean position: all
            // predicates are comparisons or logical operators, which the
            // evaluator already folds to `Bool`. Coercing `Int != 0` here
            // would only mask malformed programs, so reject it.
            other => Err(InterpError::Malformed(format!(
                "expected boolean, got {other:?}"
            ))),
        }
    }
}

/// Integer arithmetic is checked wherever it can reach an index: a wrapped
/// sum would address a valid but wrong element.
fn index_overflow() -> InterpError {
    InterpError::Malformed("integer overflow in index expression".into())
}

/// A tensor binding: the view plus its precomputed dense access plan
/// (`None` when the plan cannot be proven safe; accesses then take the
/// fully-checked slow path).
#[derive(Clone, Debug)]
struct TensorBind {
    view: View,
    plan: Option<AccessPlan>,
}

impl TensorBind {
    /// Binds a view with a precomputed stride plan (lowered path).
    fn planned(view: View) -> Self {
        let plan = view.plan();
        TensorBind { view, plan }
    }

    /// Binds a view without a plan (reference path: every access goes
    /// through the original checked translation).
    fn unplanned(view: View) -> Self {
        TensorBind { view, plan: None }
    }
}

#[derive(Clone, Debug)]
enum Binding {
    Scalar(Value),
    Tensor(TensorBind),
}

/// One dense activation record of the lowered executor.
type Frame = Vec<Option<Binding>>;

/// Tensor ranks up to this size evaluate their index vectors in stack
/// storage on the hot access path; higher ranks (unseen in practice)
/// fall back to a heap vector.
const MAX_INLINE_RANK: usize = 8;

/// Scratch for one evaluated index vector.
#[derive(Default)]
struct IndexBuf {
    inline: [i64; MAX_INLINE_RANK],
    heap: Vec<i64>,
}

impl IndexBuf {
    /// Room for `len` indices, on the stack up to [`MAX_INLINE_RANK`].
    fn of_len(&mut self, len: usize) -> &mut [i64] {
        if len <= MAX_INLINE_RANK {
            &mut self.inline[..len]
        } else {
            self.heap.resize(len, 0);
            &mut self.heap
        }
    }
}

/// Lexically-scoped environment (reference path only): the innermost
/// scope, and the enclosing ones innermost last. Never without a scope
/// to bind into.
struct Env {
    top: HashMap<Sym, Binding>,
    outer: Vec<HashMap<Sym, Binding>>,
}

impl Env {
    fn new() -> Self {
        Env {
            top: HashMap::new(),
            outer: Vec::new(),
        }
    }

    fn push(&mut self) {
        self.outer.push(std::mem::take(&mut self.top));
    }

    fn pop(&mut self) {
        self.top = self.outer.pop().unwrap_or_default();
    }

    fn bind(&mut self, sym: Sym, b: Binding) {
        self.top.insert(sym, b);
    }

    fn lookup(&self, sym: &Sym) -> Option<&Binding> {
        std::iter::once(&self.top)
            .chain(self.outer.iter().rev())
            .find_map(|s| s.get(sym))
    }
}

/// Per-instruction-class execution counts from the slot executor — the
/// profiling view the RISC-simulator-style accounting wants. Opt-in via
/// [`Interpreter::enable_profile`]: while disabled (the default) the hot
/// loop pays only a `None` check per instruction, no counting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstProfile {
    counts: [u64; InstProfile::CLASSES],
}

impl InstProfile {
    const CLASSES: usize = 9;
    const NAMES: [&'static str; InstProfile::CLASSES] = [
        "assign",
        "reduce",
        "alloc",
        "loop",
        "branch",
        "call",
        "pass",
        "write-config",
        "window-bind",
    ];

    fn class_of(inst: &LInst) -> usize {
        match inst {
            LInst::Assign { .. } => 0,
            LInst::Reduce { .. } => 1,
            LInst::Alloc { .. } => 2,
            LInst::Loop { .. } => 3,
            LInst::If { .. } => 4,
            LInst::Call { .. } => 5,
            LInst::Pass => 6,
            LInst::WriteConfig { .. } => 7,
            LInst::WindowBind { .. } => 8,
        }
    }

    #[inline]
    fn bump(&mut self, inst: &LInst) {
        self.bump_by(inst, 1);
    }

    #[inline]
    fn bump_by(&mut self, inst: &LInst, n: u64) {
        self.counts[InstProfile::class_of(inst)] += n;
    }

    /// The count for one instruction class (stable lower-case name,
    /// e.g. `"assign"`, `"loop"` once per loop executed, `"branch"` once
    /// per `if` executed); 0 for unknown names.
    pub fn count(&self, class: &str) -> u64 {
        InstProfile::NAMES
            .iter()
            .position(|&n| n == class)
            .map_or(0, |i| self.counts[i])
    }

    /// Total instructions executed.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(class name, count)` pairs in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        InstProfile::NAMES.iter().copied().zip(self.counts)
    }
}

/// Resolves a buffer reference to its tensor binding, with the same
/// error behaviour as the reference path's environment lookup.
fn tensor_at<'f>(lp: &LoweredProc, buf: &LBufRef, frame: &'f Frame) -> Result<&'f TensorBind> {
    match buf {
        LBufRef::Unbound(n) => Err(InterpError::Unbound(n.to_string())),
        LBufRef::Slot(s) => match &frame[*s as usize] {
            Some(Binding::Tensor(t)) => Ok(t),
            _ => Err(InterpError::Unbound(lp.slot_names[*s as usize].clone())),
        },
    }
}

/// The integer value of an expression built only from integer literals,
/// integer-bound variables and checked `+ - * / %` (Euclidean, like
/// [`Interpreter::eval_bin`]); `None` for everything else, including a
/// zero divisor and an overflow, which the general evaluator reports.
#[inline]
fn fold_index(expr: &LExpr, frame: &Frame) -> Option<i64> {
    use BinOp::*;
    match expr {
        LExpr::Int(v) => Some(*v),
        LExpr::Var(LBufRef::Slot(s)) => match &frame[*s as usize] {
            Some(Binding::Scalar(Value::Int(v))) => Some(*v),
            _ => None,
        },
        LExpr::Bin {
            op: op @ (Add | Sub | Mul | Div | Mod),
            lhs,
            rhs,
        } => {
            let a = fold_index(lhs, frame)?;
            let b = fold_index(rhs, frame)?;
            match op {
                Add => a.checked_add(b),
                Sub => a.checked_sub(b),
                Mul => a.checked_mul(b),
                Div => a.checked_div_euclid(b),
                _ => a.checked_rem_euclid(b),
            }
        }
        _ => None,
    }
}

/// A running strip access's element at its current offset: `get` and
/// `set` move data only, the strip's events having been reported once
/// for all of its trips (see [`Monitor::on_strip`]).
impl StripCursor<'_> {
    #[inline]
    fn get(&self) -> f64 {
        self.buf.borrow().data[self.off]
    }

    #[inline]
    fn set(&self, value: f64) {
        self.buf.borrow_mut().data[self.off] = canonical_nan(value);
    }

    /// Reports a read of the current element, like the per-element path.
    fn report_read<M: Monitor + ?Sized>(&self, mon: &mut M) {
        let b = self.buf.borrow();
        let addr = b.base_addr + self.off as u64 * b.elem_bytes();
        mon.on_read(&b.mem, addr, b.elem_bytes());
    }
}

/// The tensor a strip access names and its element offset at the
/// iterator value `frame` binds; `None` for an unbound or unplanned
/// tensor, an index the fold cannot settle, an arity mismatch or an
/// out-of-bounds element.
fn strip_offset<'f>(access: &StripAccess, frame: &'f Frame) -> Option<(&'f TensorBind, usize)> {
    let Some(Binding::Tensor(t)) = &frame[access.buf as usize] else {
        return None;
    };
    let mut scratch = [0; MAX_INLINE_RANK];
    let idx = scratch.get_mut(..access.idx.len())?;
    for (v, e) in idx.iter_mut().zip(access.idx.iter()) {
        *v = fold_index(e, frame)?;
    }
    let lin = t.plan.as_ref()?.lin(idx)?;
    (lin < t.view.buf.borrow().data.len()).then_some((t, lin))
}

/// The cursors of `strip`'s accesses over the iterations `first..=last`
/// of slot `iter`, or `None` when an endpoint does not resolve (see
/// [`strip_offset`]). Leaves `iter` bound to `first`.
fn strip_cursors<'f>(
    strip: &Strip,
    iter: u32,
    first: i64,
    last: i64,
    frame: &'f mut Frame,
) -> Option<[StripCursor<'f>; MAX_STRIP_OPERANDS]> {
    frame[iter as usize] = Some(Binding::Scalar(Value::Int(last)));
    let mut ends = [0; MAX_STRIP_OPERANDS];
    for (end, access) in ends.iter_mut().zip(strip.accesses.iter()) {
        *end = strip_offset(access, frame)?.1;
    }
    frame[iter as usize] = Some(Binding::Scalar(Value::Int(first)));
    let frame: &'f Frame = frame;
    let steps = last - first;
    let cursor = |k: usize| {
        let (t, off) = strip_offset(&strip.accesses[k], frame)?;
        // Offsets are linear in the iterator, so the step divides exactly.
        let step = match steps {
            0 => 0,
            _ => (ends[k] as i64 - off as i64) / steps,
        };
        Some(StripCursor::new(&t.view.buf, off, step as isize))
    };
    let mut cursors = [cursor(0)?; MAX_STRIP_OPERANDS];
    for (k, c) in cursors
        .iter_mut()
        .enumerate()
        .take(strip.accesses.len())
        .skip(1)
    {
        *c = cursor(k)?;
    }
    Some(cursors)
}

/// The caller's tensor that a window argument names, and the narrowing
/// the argument applies to it written into `spec` (its length is
/// returned), folded without an event; `None` for an unbound name, an
/// index the fold cannot settle, a rank above [`MAX_INLINE_RANK`] or an
/// expression that is no tensor.
fn fold_window<'f>(
    w: &LWindow,
    frame: &'f Frame,
    spec: &mut [WindowDim; MAX_INLINE_RANK],
) -> Option<(&'f TensorBind, usize)> {
    let (buf, n) = match w {
        LWindow::Var { buf } => (buf, 0),
        LWindow::PointRead { buf, idx } => {
            for (d, e) in spec.get_mut(..idx.len())?.iter_mut().zip(idx.iter()) {
                *d = WindowDim::Point(fold_index(e, frame)?);
            }
            (buf, idx.len())
        }
        LWindow::Window { buf, spec: dims } => {
            for (d, w) in spec.get_mut(..dims.len())?.iter_mut().zip(dims.iter()) {
                *d = match w {
                    LWSpec::Point(e) => WindowDim::Point(fold_index(e, frame)?),
                    LWSpec::Interval { lo, .. } => WindowDim::Interval(fold_index(lo, frame)?),
                };
            }
            (buf, dims.len())
        }
        LWindow::NotATensor { .. } => return None,
    };
    let LBufRef::Slot(s) = buf else {
        return None;
    };
    match &frame[*s as usize] {
        Some(Binding::Tensor(t)) => Some((t, n)),
        _ => None,
    }
}

/// The cursors of a lane instruction's strip accesses, resolved through
/// the caller's window arguments: each access's first and last lane must
/// land inside the caller binding's plan (see
/// [`AccessPlan::lin_narrowed`]), which puts every lane between them in
/// bounds too. `None` where that cannot be settled without the general
/// call.
fn lane_cursors<'f>(
    lanes: &Lanes,
    args: &[LCallArg],
    frame: &'f Frame,
) -> Option<[StripCursor<'f>; MAX_STRIP_OPERANDS]> {
    let cursor = |access: &LaneAccess| {
        let mut spec = [WindowDim::Point(0); MAX_INLINE_RANK];
        let (t, n) = fold_window(&args.get(access.param)?.window, frame, &mut spec)?;
        let plan = t.plan.as_ref()?;
        let len = t.view.buf.borrow().data.len();
        let at = |idx: &[i64]| plan.lin_narrowed(&spec[..n], idx).filter(|&lin| lin < len);
        let (first, last) = (at(&access.first)?, at(&access.last)?);
        // Offsets are linear in the lane, so the step divides exactly.
        let step = match lanes.trips {
            1 => 0,
            trips => (last as i64 - first as i64) / (trips - 1),
        };
        Some(StripCursor::new(&t.view.buf, first, step as isize))
    };
    let mut cursors = [cursor(lanes.accesses.first()?)?; MAX_STRIP_OPERANDS];
    for (c, access) in cursors.iter_mut().zip(lanes.accesses.iter()).skip(1) {
        *c = cursor(access)?;
    }
    Some(cursors)
}

/// A lane instruction's scalar argument: a value the caller holds, or an
/// element the call reads (and reports) once it has begun.
#[derive(Clone, Copy)]
enum LaneScalar<'f> {
    Value(f64),
    Read(StripCursor<'f>),
}

/// The scalar arguments of a lane call, in parameter order: a float
/// literal, a float variable, or an element read whose index folds into
/// the caller binding's plan. `None` for anything else — a 0-dim buffer
/// passed by reference or a non-float value among them — which the
/// general call binds.
fn lane_scalars<'f>(
    lanes: &Lanes,
    args: &[LCallArg],
    frame: &'f Frame,
) -> Option<[LaneScalar<'f>; MAX_STRIP_OPERANDS]> {
    let mut out = [LaneScalar::Value(0.0); MAX_STRIP_OPERANDS];
    for (slot, &(param, _)) in out.iter_mut().zip(lanes.scalars.iter()) {
        let arg = args.get(param)?;
        let by_ref = match &arg.window {
            LWindow::Var {
                buf: LBufRef::Slot(s),
            } => matches!(frame[*s as usize], Some(Binding::Tensor(_))),
            _ => false,
        };
        if by_ref {
            return None;
        }
        *slot = match &arg.scalar {
            LExpr::Float(v) => LaneScalar::Value(*v),
            LExpr::Var(LBufRef::Slot(s)) => match frame[*s as usize] {
                Some(Binding::Scalar(Value::Float(v))) => LaneScalar::Value(v),
                _ => return None,
            },
            LExpr::Read {
                buf: LBufRef::Slot(s),
                idx,
            } => {
                let Some(Binding::Tensor(t)) = &frame[*s as usize] else {
                    return None;
                };
                let mut scratch = [0; MAX_INLINE_RANK];
                let at = scratch.get_mut(..idx.len())?;
                for (v, e) in at.iter_mut().zip(idx.iter()) {
                    *v = fold_index(e, frame)?;
                }
                let lin = t.plan.as_ref()?.lin(at)?;
                if lin >= t.view.buf.borrow().data.len() {
                    return None;
                }
                LaneScalar::Read(StripCursor::new(&t.view.buf, lin, 0))
            }
            _ => return None,
        };
    }
    Some(out)
}

/// Executes object-language procedures against concrete buffers, reporting
/// events to a [`Monitor`].
pub struct Interpreter<'a> {
    registry: &'a ProcRegistry,
    /// Configuration registers: struct name, then field name.
    configs: HashMap<Box<str>, HashMap<Box<str>, f64>>,
    next_addr: u64,
    suppress: usize,
    /// Monotone counter issuing a unique token per loop-statement
    /// execution, reported via `Monitor::on_loop_enter`.
    loop_seq: u64,
    /// Opt-in per-instruction-class counters; `None` keeps the counting
    /// branch off the hot loop.
    profile: Option<Box<InstProfile>>,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter resolving calls against `registry`.
    pub fn new(registry: &'a ProcRegistry) -> Self {
        Interpreter {
            registry,
            configs: HashMap::new(),
            next_addr: 0x1000,
            suppress: 0,
            loop_seq: 0,
            profile: None,
        }
    }

    /// Turns on per-instruction-class counting (keeps any counts already
    /// accumulated by an earlier enable).
    pub fn enable_profile(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// Takes the accumulated instruction profile, turning counting back
    /// off. `None` if profiling was never enabled.
    pub fn take_profile(&mut self) -> Option<Box<InstProfile>> {
        self.profile.take()
    }

    /// Runs `proc` with the given arguments, reporting events to `monitor`.
    ///
    /// The procedure's slot-indexed instruction tree comes from
    /// [`ProcRegistry::lowering`] (the registry's memo when `proc` is
    /// registered under its own name, a fresh lowering otherwise) and is
    /// executed by the dense-frame executor.
    /// Generic over the monitor, so a concrete monitor's hooks inline into
    /// the executor's loop (and the empty ones vanish); `&mut dyn Monitor`
    /// is accepted as before.
    ///
    /// # Errors
    /// Returns an [`InterpError`] for unbound symbols, out-of-bounds
    /// accesses, failed assertions, bad calls and unknown procedures.
    pub fn run<M: Monitor + ?Sized>(
        &mut self,
        proc: &Proc,
        args: Vec<ArgValue>,
        monitor: &mut M,
    ) -> Result<()> {
        let _span = exo_obs::span!("interp:run", "{}", proc.name());
        if args.len() != proc.args().len() {
            return Err(InterpError::BadCall(format!(
                "procedure `{}` expects {} arguments, got {}",
                proc.name(),
                proc.args().len(),
                args.len()
            )));
        }
        let lowered = self.registry.lowering(proc);
        let mut frame: Frame = vec![None; lowered.frame_size];
        for ((arg, value), larg) in proc.args().iter().zip(args).zip(&lowered.args) {
            let binding = self.bind_arg(&arg.kind, value, arg.name.name())?;
            frame[larg.slot as usize] = Some(binding);
        }
        // Check assertion preconditions.
        for (pred, pred_str) in &lowered.preds {
            let v = self.eval_l(&lowered, pred, &frame, monitor)?;
            if !v.as_bool()? {
                return Err(InterpError::AssertFailed(pred_str.clone()));
            }
        }
        self.exec_body(&lowered, &lowered.code, &mut frame, monitor)
    }

    /// Read access to the accumulated configuration-register state
    /// (useful for Gemmini tests).
    pub fn config(&self, config: &str, field: &str) -> Option<f64> {
        self.configs.get(config)?.get(field).copied()
    }

    /// Writes a configuration register; only the first write of a field
    /// allocates its key.
    fn set_config(&mut self, config: &str, field: &str, value: f64) {
        match self.configs.get_mut(config).and_then(|f| f.get_mut(field)) {
            Some(slot) => *slot = value,
            None => {
                let fields = self.configs.entry(config.into()).or_default();
                fields.insert(field.into(), value);
            }
        }
    }

    fn bind_arg(&mut self, kind: &ArgKind, value: ArgValue, name: &str) -> Result<Binding> {
        match (kind, value) {
            (ArgKind::Size, ArgValue::Int(v)) => Ok(Binding::Scalar(Value::Int(v))),
            (ArgKind::Scalar { ty }, ArgValue::Float(v)) => {
                let _ = ty;
                Ok(Binding::Scalar(Value::Float(v)))
            }
            (ArgKind::Scalar { .. }, ArgValue::Int(v)) => Ok(Binding::Scalar(Value::Int(v))),
            (ArgKind::Scalar { .. }, ArgValue::Bool(b)) => Ok(Binding::Scalar(Value::Bool(b))),
            (ArgKind::Tensor { .. }, ArgValue::Buffer(buf)) => {
                self.ensure_addr(&buf);
                Ok(Binding::Tensor(TensorBind::planned(View::full(buf))))
            }
            (ArgKind::Tensor { .. }, ArgValue::View(view)) => {
                self.ensure_addr(&view.buf);
                Ok(Binding::Tensor(TensorBind::planned(view)))
            }
            (kind, value) => Err(InterpError::BadCall(format!(
                "argument `{name}` of kind {kind:?} cannot be bound to {value:?}"
            ))),
        }
    }

    fn ensure_addr(&mut self, buf: &Rc<RefCell<BufferData>>) {
        let mut b = buf.borrow_mut();
        if b.base_addr == 0 {
            b.base_addr = self.bump(&b);
        }
    }

    /// The next address of the bump allocator, reserved for `b`'s storage
    /// rounded up to whole 64-byte lines.
    fn bump(&mut self, b: &BufferData) -> u64 {
        let addr = self.next_addr;
        let bytes = (b.len() as u64 * b.elem_bytes()).max(64);
        self.next_addr += bytes.div_ceil(64) * 64;
        addr
    }

    fn alloc_buffer(&mut self, sizes: Vec<usize>, ty: DataType, mem: Mem) -> View {
        let mut data = BufferData::zeros(sizes, ty, mem);
        data.base_addr = self.bump(&data);
        View::full(Rc::new(RefCell::new(data)))
    }

    /// Re-executes an `alloc` in the storage of the buffer it made last
    /// time, if that buffer has the same shape, type and memory and no
    /// other binding shares it: the storage is zeroed and takes the next
    /// bump address, so nothing can tell it from a fresh buffer.
    fn reuse_storage(&mut self, old: &TensorBind, sizes: &[i64], ty: DataType, mem: &Mem) -> bool {
        if Rc::strong_count(&old.view.buf) != 1 {
            return false;
        }
        let mut b = old.view.buf.borrow_mut();
        let same_dims = b.dims.iter().map(|&d| d as i64).eq(sizes.iter().copied());
        if !same_dims || b.elem != ty || b.mem != *mem {
            return false;
        }
        b.data.fill(0.0);
        b.base_addr = self.bump(&b);
        true
    }

    // ================================================================
    // Lowered (slot-indexed) execution path
    // ================================================================

    /// Executes one lowered block against `lp`'s frame, recursing into
    /// the bodies of loops and branches.
    fn exec_body<M: Monitor + ?Sized>(
        &mut self,
        lp: &LoweredProc,
        block: &[LInst],
        frame: &mut Frame,
        mon: &mut M,
    ) -> Result<()> {
        for inst in block {
            if let Some(profile) = self.profile.as_deref_mut() {
                profile.bump(inst);
            }
            match inst {
                LInst::Assign { buf, idx, rhs } => {
                    if self.suppress == 0 {
                        mon.on_stmt();
                    }
                    let value = self.eval_l(lp, rhs, frame, mon)?.as_float();
                    self.store_l(lp, buf, idx, value, frame, mon)?;
                }
                LInst::Reduce { buf, idx, rhs } => {
                    if self.suppress == 0 {
                        mon.on_stmt();
                    }
                    let add = self.eval_l(lp, rhs, frame, mon)?.as_float();
                    let old = self.load_l(lp, buf, idx, frame, mon)?;
                    if self.suppress == 0 {
                        mon.on_scalar_op(BinOp::Add, DataType::F64);
                    }
                    self.store_l(lp, buf, idx, old + add, frame, mon)?;
                }
                LInst::Alloc {
                    slot,
                    ty,
                    dims,
                    mem,
                } => {
                    if self.suppress == 0 {
                        mon.on_stmt();
                    }
                    let mut scratch = IndexBuf::default();
                    let sizes = scratch.of_len(dims.len());
                    for (size, d) in sizes.iter_mut().zip(dims.iter()) {
                        *size = self.eval_index(lp, d, frame, mon)?;
                        if *size < 0 {
                            return Err(InterpError::Malformed(format!(
                                "negative allocation size for `{}`",
                                lp.slot_names[*slot as usize]
                            )));
                        }
                    }
                    let reused = match &frame[*slot as usize] {
                        Some(Binding::Tensor(old)) => self.reuse_storage(old, sizes, *ty, mem),
                        _ => false,
                    };
                    if !reused {
                        let sizes = sizes.iter().map(|&v| v as usize).collect();
                        let view = self.alloc_buffer(sizes, *ty, mem.clone());
                        frame[*slot as usize] = Some(Binding::Tensor(TensorBind::planned(view)));
                    }
                }
                LInst::Loop {
                    iter,
                    lo,
                    hi,
                    body,
                    parallel,
                    strip,
                } => {
                    if self.suppress == 0 {
                        mon.on_stmt();
                    }
                    let lo = self.eval_index(lp, lo, frame, mon)?;
                    let hi = self.eval_index(lp, hi, frame, mon)?;
                    if let Some(strip) = strip {
                        if self.exec_strip(strip, body, *iter, lo..hi, *parallel, frame, mon) {
                            continue;
                        }
                    }
                    for v in lo..hi {
                        if self.suppress == 0 {
                            mon.on_loop_iter(*parallel);
                        }
                        frame[*iter as usize] = Some(Binding::Scalar(Value::Int(v)));
                        self.exec_body(lp, body, frame, mon)?;
                    }
                }
                LInst::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    if self.suppress == 0 {
                        mon.on_stmt();
                        mon.on_branch();
                    }
                    let c = self.eval_l(lp, cond, frame, mon)?.as_bool()?;
                    self.exec_body(lp, if c { then_body } else { else_body }, frame, mon)?;
                }
                LInst::Call { callee, args } => {
                    if self.suppress == 0 {
                        mon.on_stmt();
                    }
                    self.exec_call_l(callee, args, lp, frame, mon)?;
                }
                LInst::Pass => {
                    if self.suppress == 0 {
                        mon.on_stmt();
                    }
                }
                LInst::WriteConfig {
                    config,
                    field,
                    value,
                } => {
                    if self.suppress == 0 {
                        mon.on_stmt();
                    }
                    let v = self.eval_l(lp, value, frame, mon)?.as_float();
                    if self.suppress == 0 {
                        mon.on_config_write(config, field);
                    }
                    self.set_config(config, field, v);
                }
                LInst::WindowBind { slot, rhs } => {
                    if self.suppress == 0 {
                        mon.on_stmt();
                    }
                    let t = self.bind_window(lp, rhs, frame, mon)?;
                    frame[*slot as usize] = Some(Binding::Tensor(t));
                }
            }
        }
        Ok(())
    }

    /// Runs a loop planned as a [`Strip`] over `iters` as one pass, with
    /// the events, instruction counts and buffer contents of the
    /// per-element loop. Both endpoints of every access are resolved first
    /// with the ordinary fold and plan; affinity puts every index's
    /// extremes there, so the offsets in between are in bounds and step
    /// evenly. Returns `false`, having executed and emitted nothing, when
    /// an endpoint does not resolve, a scalar is not a float, or the loop
    /// runs no iteration: the caller then runs the per-element loop,
    /// which reports whatever went wrong exactly as before.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn exec_strip<M: Monitor + ?Sized>(
        &mut self,
        strip: &Strip,
        body: &[LInst],
        iter: u32,
        iters: std::ops::Range<i64>,
        parallel: bool,
        frame: &mut Frame,
        mon: &mut M,
    ) -> bool {
        let Some(trips) = iters.end.checked_sub(iters.start).filter(|&t| t > 0) else {
            return false;
        };
        let mut scalars = [0.0; MAX_STRIP_OPERANDS];
        for (value, &slot) in scalars.iter_mut().zip(strip.scalars.iter()) {
            match frame[slot as usize] {
                Some(Binding::Scalar(Value::Float(v))) => *value = v,
                _ => return false,
            }
        }
        let Some(mut cursors) = strip_cursors(strip, iter, iters.start, iters.end - 1, frame)
        else {
            return false;
        };
        let n = strip.accesses.len();
        self.run_strip(
            strip,
            body,
            &mut cursors[..n],
            &scalars,
            trips,
            parallel,
            mon,
        );
        true
    }

    /// Runs `trips` iterations of `strip` from `cursors` (one per access,
    /// at the first iteration) with the per-element loop's instruction
    /// counts and results, reporting all of its events to
    /// [`Monitor::on_strip`] first: the loop body of
    /// [`Interpreter::exec_strip`] and of a lane call alike.
    #[allow(clippy::too_many_arguments)]
    fn run_strip<M: Monitor + ?Sized>(
        &mut self,
        strip: &Strip,
        body: &[LInst],
        cursors: &mut [StripCursor<'_>],
        scalars: &[f64; MAX_STRIP_OPERANDS],
        trips: i64,
        parallel: bool,
        mon: &mut M,
    ) {
        if let Some(profile) = self.profile.as_deref_mut() {
            profile.bump_by(&body[0], trips as u64);
        }
        if self.suppress == 0 {
            mon.on_strip(&StripTrace::new(
                &strip.program,
                cursors,
                trips as u64,
                parallel,
            ));
        }
        for _ in 0..trips {
            let mut stack = [0.0; MAX_STRIP_OPERANDS];
            let mut sp = 0;
            for step in strip.program.iter() {
                match *step {
                    StripStep::Read(k) => {
                        stack[sp] = cursors[k].get();
                        sp += 1;
                    }
                    StripStep::Float(v) => {
                        stack[sp] = v;
                        sp += 1;
                    }
                    StripStep::Scalar(k) => {
                        stack[sp] = scalars[k];
                        sp += 1;
                    }
                    StripStep::Neg => stack[sp - 1] = -stack[sp - 1],
                    StripStep::Op(op) => {
                        sp -= 1;
                        let (a, b) = (stack[sp - 1], stack[sp]);
                        stack[sp - 1] = match op {
                            BinOp::Add => a + b,
                            BinOp::Sub => a - b,
                            BinOp::Mul => a * b,
                            _ => a / b,
                        };
                    }
                    StripStep::Write(k) => {
                        sp -= 1;
                        cursors[k].set(stack[sp]);
                    }
                }
            }
            for c in cursors.iter_mut() {
                c.off = c.off.wrapping_add_signed(c.step);
            }
        }
    }

    /// Runs a call to a lane instruction (see [`Lanes`]) as its strip on
    /// the caller's buffers: each access is resolved at the first and
    /// the last lane through the caller's window argument and the caller
    /// binding's plan, exactly where the general call would bind a view
    /// and plan it. The events are the general call's, in its order:
    /// `enter_call`, the scalar arguments' reads, the callee loop's
    /// statement, the lanes, `exit_call`. Returns `false`, having emitted
    /// nothing, where an argument does not resolve: the general call
    /// then runs and reports whatever is wrong as it always did.
    #[allow(clippy::too_many_arguments)]
    fn call_lanes<M: Monitor + ?Sized>(
        &mut self,
        callee: &Proc,
        lowered: &LoweredProc,
        lanes: &Lanes,
        args: &[LCallArg],
        frame: &Frame,
        mon: &mut M,
    ) -> bool {
        let [inst @ LInst::Loop {
            body,
            parallel,
            strip: Some(strip),
            ..
        }] = &*lowered.code
        else {
            return false;
        };
        let Some(mut cursors) = lane_cursors(lanes, args, frame) else {
            return false;
        };
        let Some(reads) = lane_scalars(lanes, args, frame) else {
            return false;
        };
        let suppress_inner = self.suppress == 0 && mon.enter_call(callee);
        if suppress_inner {
            self.suppress += 1;
        }
        let mut scalars = [0.0; MAX_STRIP_OPERANDS];
        for (&(_, k), read) in lanes.scalars.iter().zip(&reads) {
            scalars[k] = match read {
                LaneScalar::Value(v) => *v,
                LaneScalar::Read(c) => {
                    if self.suppress == 0 {
                        c.report_read(mon);
                    }
                    c.get()
                }
            };
        }
        if let Some(profile) = self.profile.as_deref_mut() {
            profile.bump(inst);
        }
        if self.suppress == 0 {
            mon.on_stmt();
        }
        let n = lanes.accesses.len();
        let trips = lanes.trips;
        self.run_strip(
            strip,
            body,
            &mut cursors[..n],
            &scalars,
            trips,
            *parallel,
            mon,
        );
        if suppress_inner {
            self.suppress -= 1;
        }
        if self.suppress == 0 {
            mon.exit_call(callee);
        }
        true
    }

    /// Kept out of line: inlined into [`Interpreter::exec_body`], the
    /// argument binding would enlarge the frame that every loop
    /// iteration's recursive call sets up.
    #[inline(never)]
    fn exec_call_l<M: Monitor + ?Sized>(
        &mut self,
        name: &str,
        args: &[LCallArg],
        caller: &LoweredProc,
        caller_frame: &Frame,
        mon: &mut M,
    ) -> Result<()> {
        let registry: &'a ProcRegistry = self.registry;
        let Some((callee, lowered)) = registry.lowered_for(name) else {
            return Err(InterpError::UnknownProc(name.to_string()));
        };
        if args.len() != lowered.args.len() {
            return Err(InterpError::BadCall(format!(
                "call to `{name}` passes {} arguments, expected {}",
                args.len(),
                lowered.args.len()
            )));
        }
        if let Some(lanes) = &lowered.lanes {
            if self.call_lanes(callee, lowered, lanes, args, caller_frame, mon) {
                return Ok(());
            }
        }
        let suppress_inner = if self.suppress == 0 {
            mon.enter_call(callee)
        } else {
            false
        };
        if suppress_inner {
            self.suppress += 1;
        }
        let mut frame: Frame = vec![None; lowered.frame_size];
        let result = self.call_body_l(name, lowered, args, caller, caller_frame, &mut frame, mon);
        if suppress_inner {
            self.suppress -= 1;
        }
        if self.suppress == 0 {
            mon.exit_call(callee);
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn call_body_l<M: Monitor + ?Sized>(
        &mut self,
        name: &str,
        lowered: &LoweredProc,
        args: &[LCallArg],
        caller: &LoweredProc,
        caller_frame: &Frame,
        frame: &mut Frame,
        mon: &mut M,
    ) -> Result<()> {
        for (param, arg) in lowered.args.iter().zip(args) {
            let binding = match param.kind {
                LParamKind::Size => Binding::Scalar(match fold_index(&arg.scalar, caller_frame) {
                    Some(v) => Value::Int(v),
                    None => self.eval_l(caller, &arg.scalar, caller_frame, mon)?,
                }),
                LParamKind::Scalar => {
                    // Scalar arguments may also be passed 0-dim buffers
                    // by reference (Gemmini's acc_scale / clamp idiom).
                    let by_ref = match &arg.window {
                        LWindow::Var {
                            buf: LBufRef::Slot(s),
                        } => match &caller_frame[*s as usize] {
                            Some(Binding::Tensor(t)) => Some(t.clone()),
                            _ => None,
                        },
                        _ => None,
                    };
                    match by_ref {
                        Some(t) => Binding::Tensor(t),
                        None => {
                            Binding::Scalar(self.eval_l(caller, &arg.scalar, caller_frame, mon)?)
                        }
                    }
                }
                LParamKind::Tensor => {
                    Binding::Tensor(self.bind_window(caller, &arg.window, caller_frame, mon)?)
                }
            };
            frame[param.slot as usize] = Some(binding);
        }
        for (pred, pred_str) in &lowered.preds {
            let v = self.eval_l(lowered, pred, frame, mon)?;
            if !v.as_bool()? {
                return Err(InterpError::AssertFailed(format!(
                    "in call to `{name}`: {pred_str}"
                )));
            }
        }
        self.exec_body(lowered, &lowered.code, frame, mon)
    }

    /// Evaluates a lowered expression used as a tensor argument and plans
    /// the resulting view.
    fn bind_window<M: Monitor + ?Sized>(
        &mut self,
        lp: &LoweredProc,
        w: &LWindow,
        frame: &Frame,
        mon: &mut M,
    ) -> Result<TensorBind> {
        let mut scratch = IndexBuf::default();
        let (t, spec, at): (&TensorBind, &[LWSpec], &[i64]) = match w {
            LWindow::Var { buf } => (tensor_at(lp, buf, frame)?, &[], &[]),
            LWindow::PointRead { buf, idx } => {
                // A point access used where a window is expected: a 0-dim view.
                let t = tensor_at(lp, buf, frame)?;
                let at = self.eval_indices(lp, idx.iter(), frame, mon, &mut scratch)?;
                (t, &[], at)
            }
            LWindow::Window { buf, spec } => {
                let t = tensor_at(lp, buf, frame)?;
                let starts = spec.iter().map(|s| match s {
                    LWSpec::Point(e) | LWSpec::Interval { lo: e, .. } => e,
                });
                let at = self.eval_indices(lp, starts, frame, mon, &mut scratch)?;
                (t, spec, at)
            }
            LWindow::NotATensor { display } => {
                return Err(InterpError::BadCall(format!(
                    "expression `{display}` cannot be passed as a tensor argument"
                )))
            }
        };
        // `spec` is empty for a point read: every position is a point.
        let narrowing = at.iter().enumerate().map(|(k, &v)| match spec.get(k) {
            Some(LWSpec::Interval { .. }) => WindowDim::Interval(v),
            _ => WindowDim::Point(v),
        });
        Ok(TensorBind::planned(t.view.narrow(narrowing)))
    }

    /// Evaluates an index vector into `scratch`: element accesses are the
    /// hottest operation in the executor and must not heap-allocate.
    #[inline]
    fn eval_indices<'e, 's, M: Monitor + ?Sized>(
        &self,
        lp: &LoweredProc,
        idx: impl ExactSizeIterator<Item = &'e LExpr>,
        frame: &Frame,
        mon: &mut M,
        scratch: &'s mut IndexBuf,
    ) -> Result<&'s [i64]> {
        let out = scratch.of_len(idx.len());
        for (v, e) in out.iter_mut().zip(idx) {
            *v = self.eval_index(lp, e, frame, mon)?;
        }
        Ok(out)
    }

    /// Evaluates an expression in index position (an access index, a loop
    /// bound, a window offset, an allocation size) straight to `i64`.
    /// Integer literals, integer variables and `+ - * / %` over them — all
    /// a schedule ever puts there — never build a [`Value`]; anything else
    /// (a `Read`, a float, a zero divisor, an overflow, an unbound name)
    /// goes through the general evaluator, which emits its events and
    /// reports its errors. The fold itself emits nothing, so falling back
    /// replays no event.
    #[inline]
    fn eval_index<M: Monitor + ?Sized>(
        &self,
        lp: &LoweredProc,
        expr: &LExpr,
        frame: &Frame,
        mon: &mut M,
    ) -> Result<i64> {
        match fold_index(expr, frame) {
            Some(v) => Ok(v),
            None => self.eval_l(lp, expr, frame, mon)?.as_int(),
        }
    }

    fn load_l<M: Monitor + ?Sized>(
        &self,
        lp: &LoweredProc,
        buf: &LBufRef,
        idx: &[LExpr],
        frame: &Frame,
        mon: &mut M,
    ) -> Result<f64> {
        let mut scratch = IndexBuf::default();
        let indices = self.eval_indices(lp, idx.iter(), frame, mon, &mut scratch)?;
        let (slot, t) = match buf {
            LBufRef::Unbound(n) => return Err(InterpError::Unbound(n.to_string())),
            LBufRef::Slot(s) => match &frame[*s as usize] {
                Some(Binding::Tensor(t)) => (*s, t),
                Some(Binding::Scalar(v)) if indices.is_empty() => return Ok(v.as_float()),
                _ => return Err(InterpError::Unbound(lp.slot_names[*s as usize].clone())),
            },
        };
        // Fast path: plan-resolved linear offset, one borrow for value and
        // byte address alike.
        if let Some(plan) = &t.plan {
            if let Some(lin) = plan.lin(indices) {
                let b = t.view.buf.borrow();
                if let Some(&value) = b.data.get(lin) {
                    if self.suppress == 0 {
                        mon.on_read(
                            &b.mem,
                            b.base_addr + lin as u64 * b.elem_bytes(),
                            b.elem.size_bytes(),
                        );
                    }
                    return Ok(value);
                }
            }
        }
        // Slow path: checked translation, canonical errors.
        let value = t
            .view
            .read(indices)
            .ok_or_else(|| InterpError::OutOfBounds {
                buf: lp.slot_names[slot as usize].clone(),
                idx: indices.to_vec(),
                dims: t.view.buf.borrow().dims.clone(),
            })?;
        if self.suppress == 0 {
            if let Some(addr) = t.view.byte_addr(indices) {
                mon.on_read(&t.view.mem(), addr, t.view.elem().size_bytes());
            }
        }
        Ok(value)
    }

    fn store_l<M: Monitor + ?Sized>(
        &self,
        lp: &LoweredProc,
        buf: &LBufRef,
        idx: &[LExpr],
        value: f64,
        frame: &Frame,
        mon: &mut M,
    ) -> Result<()> {
        let mut scratch = IndexBuf::default();
        let indices = self.eval_indices(lp, idx.iter(), frame, mon, &mut scratch)?;
        let (slot, t) = match buf {
            LBufRef::Unbound(n) => return Err(InterpError::Unbound(n.to_string())),
            LBufRef::Slot(s) => match &frame[*s as usize] {
                Some(Binding::Tensor(t)) => (*s, t),
                _ => return Err(InterpError::Unbound(lp.slot_names[*s as usize].clone())),
            },
        };
        if let Some(plan) = &t.plan {
            if let Some(lin) = plan.lin(indices) {
                let mut b = t.view.buf.borrow_mut();
                // Commit to the fast path only once the offset is known to
                // land, so a fallthrough to the slow path cannot emit the
                // write event twice.
                if lin < b.data.len() {
                    if self.suppress == 0 {
                        mon.on_write(
                            &b.mem,
                            b.base_addr + lin as u64 * b.elem_bytes(),
                            b.elem.size_bytes(),
                        );
                    }
                    b.data[lin] = canonical_nan(value);
                    return Ok(());
                }
            }
        }
        if self.suppress == 0 {
            if let Some(addr) = t.view.byte_addr(indices) {
                mon.on_write(&t.view.mem(), addr, t.view.elem().size_bytes());
            }
        }
        t.view
            .write(indices, value)
            .ok_or_else(|| InterpError::OutOfBounds {
                buf: lp.slot_names[slot as usize].clone(),
                idx: indices.to_vec(),
                dims: t.view.buf.borrow().dims.clone(),
            })
    }

    fn eval_l<M: Monitor + ?Sized>(
        &self,
        lp: &LoweredProc,
        expr: &LExpr,
        frame: &Frame,
        mon: &mut M,
    ) -> Result<Value> {
        match expr {
            LExpr::Int(v) => Ok(Value::Int(*v)),
            LExpr::Float(v) => Ok(Value::Float(*v)),
            LExpr::Bool(b) => Ok(Value::Bool(*b)),
            LExpr::Var(buf) => match buf {
                LBufRef::Unbound(n) => Err(InterpError::Unbound(n.to_string())),
                LBufRef::Slot(s) => match &frame[*s as usize] {
                    Some(Binding::Scalar(v)) => Ok(*v),
                    Some(Binding::Tensor(t))
                        if t.view.kept.is_empty() || t.view.buf.borrow().dims.is_empty() =>
                    {
                        let value = t.view.read(&[]).ok_or_else(|| {
                            InterpError::Unbound(lp.slot_names[*s as usize].clone())
                        })?;
                        if self.suppress == 0 {
                            if let Some(addr) = t.view.byte_addr(&[]) {
                                mon.on_read(&t.view.mem(), addr, t.view.elem().size_bytes());
                            }
                        }
                        Ok(Value::Float(value))
                    }
                    Some(Binding::Tensor(_)) => Err(InterpError::Malformed(format!(
                        "tensor `{}` used in a scalar context",
                        lp.slot_names[*s as usize]
                    ))),
                    None => Err(InterpError::Unbound(lp.slot_names[*s as usize].clone())),
                },
            },
            LExpr::Read { buf, idx } => {
                let v = self.load_l(lp, buf, idx, frame, mon)?;
                Ok(Value::Float(v))
            }
            LExpr::WindowInScalar => Err(InterpError::Malformed(
                "window expression used in a scalar context".into(),
            )),
            LExpr::Bin { op, lhs, rhs } => {
                let l = self.eval_l(lp, lhs, frame, mon)?;
                let r = self.eval_l(lp, rhs, frame, mon)?;
                self.eval_bin(*op, l, r, mon)
            }
            LExpr::Un { op, arg } => {
                let v = self.eval_l(lp, arg, frame, mon)?;
                match op {
                    UnOp::Neg => v.neg(),
                    UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                }
            }
            LExpr::Stride { buf, dim } => {
                Ok(Value::Int(tensor_at(lp, buf, frame)?.view.stride(*dim)))
            }
            LExpr::ReadConfig { config, field } => {
                Ok(Value::Float(self.config(config, field).unwrap_or(0.0)))
            }
        }
    }

    // ================================================================
    // Reference (tree-walking, HashMap-environment) execution path
    // ================================================================

    /// Runs `proc` through the original tree-walking interpreter with a
    /// scoped `HashMap` environment. Kept as the semantic baseline: the
    /// differential tests assert it agrees with [`Interpreter::run`]
    /// event-for-event.
    ///
    /// # Errors
    /// Same contract as [`Interpreter::run`].
    pub fn run_reference(
        &mut self,
        proc: &Proc,
        args: Vec<ArgValue>,
        monitor: &mut dyn Monitor,
    ) -> Result<()> {
        if args.len() != proc.args().len() {
            return Err(InterpError::BadCall(format!(
                "procedure `{}` expects {} arguments, got {}",
                proc.name(),
                proc.args().len(),
                args.len()
            )));
        }
        let mut env = Env::new();
        for (arg, value) in proc.args().iter().zip(args) {
            let binding = self.bind_arg(&arg.kind, value, arg.name.name())?;
            env.bind(arg.name.clone(), binding);
        }
        // Check assertion preconditions.
        for pred in proc.preds() {
            let v = self.eval(pred, &env, monitor)?;
            if !v.as_bool()? {
                return Err(InterpError::AssertFailed(pred.to_string()));
            }
        }
        self.exec_block(proc.body(), &mut env, monitor)
    }

    fn exec_block(
        &mut self,
        block: &Block,
        env: &mut Env,
        monitor: &mut dyn Monitor,
    ) -> Result<()> {
        env.push();
        let result = (|| {
            for s in block {
                self.exec_stmt(s, env, monitor)?;
            }
            Ok(())
        })();
        env.pop();
        result
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env, monitor: &mut dyn Monitor) -> Result<()> {
        if self.suppress == 0 {
            monitor.on_stmt();
        }
        match stmt {
            Stmt::Assign { buf, idx, rhs } => {
                let value = self.eval(rhs, env, monitor)?.as_float();
                self.store(buf, idx, value, env, monitor)
            }
            Stmt::Reduce { buf, idx, rhs } => {
                let add = self.eval(rhs, env, monitor)?.as_float();
                if self.suppress == 0 {
                    monitor.on_reduce_begin();
                }
                let old = self.load(buf, idx, env, monitor)?;
                if self.suppress == 0 {
                    monitor.on_scalar_op(BinOp::Add, DataType::F64);
                }
                let r = self.store(buf, idx, old + add, env, monitor);
                if self.suppress == 0 {
                    monitor.on_reduce_end();
                }
                r
            }
            Stmt::Alloc {
                name,
                ty,
                dims,
                mem,
            } => {
                let mut sizes = Vec::with_capacity(dims.len());
                for d in dims {
                    let v = self.eval(d, env, monitor)?.as_int()?;
                    if v < 0 {
                        return Err(InterpError::Malformed(format!(
                            "negative allocation size for `{name}`"
                        )));
                    }
                    sizes.push(v as usize);
                }
                let view = self.alloc_buffer(sizes, *ty, mem.clone());
                env.bind(name.clone(), Binding::Tensor(TensorBind::unplanned(view)));
                Ok(())
            }
            Stmt::For {
                iter,
                lo,
                hi,
                body,
                parallel,
            } => {
                let lo = self.eval(lo, env, monitor)?.as_int()?;
                let hi = self.eval(hi, env, monitor)?.as_int()?;
                self.loop_seq += 1;
                let instance = self.loop_seq;
                for i in lo..hi {
                    if self.suppress == 0 {
                        monitor.on_loop_iter(*parallel);
                        monitor.on_loop_enter(iter.name(), instance, i, *parallel);
                    }
                    env.push();
                    env.bind(iter.clone(), Binding::Scalar(Value::Int(i)));
                    let r = self.exec_block(body, env, monitor);
                    env.pop();
                    if self.suppress == 0 {
                        monitor.on_loop_exit();
                    }
                    r?;
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.suppress == 0 {
                    monitor.on_branch();
                }
                let c = self.eval(cond, env, monitor)?.as_bool()?;
                if c {
                    self.exec_block(then_body, env, monitor)
                } else {
                    self.exec_block(else_body, env, monitor)
                }
            }
            Stmt::Call { proc, args } => self.exec_call(proc, args, env, monitor),
            Stmt::Pass => Ok(()),
            Stmt::WriteConfig {
                config,
                field,
                value,
            } => {
                let v = self.eval(value, env, monitor)?.as_float();
                if self.suppress == 0 {
                    monitor.on_config_write(config.name(), field);
                }
                self.set_config(config.name(), field, v);
                Ok(())
            }
            Stmt::WindowStmt { name, rhs } => {
                let view = self.eval_window(rhs, env, monitor)?;
                env.bind(name.clone(), Binding::Tensor(TensorBind::unplanned(view)));
                Ok(())
            }
        }
    }

    fn exec_call(
        &mut self,
        name: &str,
        args: &[Expr],
        env: &mut Env,
        monitor: &mut dyn Monitor,
    ) -> Result<()> {
        let callee = self
            .registry
            .get(name)
            .ok_or_else(|| InterpError::UnknownProc(name.to_string()))?
            .clone();
        if args.len() != callee.args().len() {
            return Err(InterpError::BadCall(format!(
                "call to `{name}` passes {} arguments, expected {}",
                args.len(),
                callee.args().len()
            )));
        }
        let suppress_inner = if self.suppress == 0 {
            monitor.enter_call(&callee)
        } else {
            false
        };
        if suppress_inner {
            self.suppress += 1;
        }
        let mut callee_env = Env::new();
        let result = (|| {
            for (arg, expr) in callee.args().iter().zip(args) {
                let binding = match &arg.kind {
                    ArgKind::Size | ArgKind::Scalar { .. } => {
                        // Scalar arguments may also be passed 0-dim buffers
                        // by reference (Gemmini's acc_scale / clamp idiom).
                        match self.expr_as_view(expr, env) {
                            Some(view) if matches!(arg.kind, ArgKind::Scalar { .. }) => {
                                Binding::Tensor(TensorBind::unplanned(view))
                            }
                            _ => Binding::Scalar(self.eval(expr, env, monitor)?),
                        }
                    }
                    ArgKind::Tensor { .. } => {
                        let view = self.eval_window(expr, env, monitor)?;
                        Binding::Tensor(TensorBind::unplanned(view))
                    }
                };
                callee_env.bind(arg.name.clone(), binding);
            }
            for pred in callee.preds() {
                let v = self.eval(pred, &callee_env, monitor)?;
                if !v.as_bool()? {
                    return Err(InterpError::AssertFailed(format!(
                        "in call to `{name}`: {pred}"
                    )));
                }
            }
            self.exec_block(callee.body(), &mut callee_env, monitor)
        })();
        if suppress_inner {
            self.suppress -= 1;
        }
        if self.suppress == 0 {
            monitor.exit_call(&callee);
        }
        result
    }

    /// Resolves an argument expression that names a whole tensor, if it
    /// does (used for by-reference scalar buffers).
    fn expr_as_view(&self, expr: &Expr, env: &Env) -> Option<View> {
        match expr {
            Expr::Var(s) => match env.lookup(s) {
                Some(Binding::Tensor(t)) => Some(t.view.clone()),
                _ => None,
            },
            _ => None,
        }
    }

    /// Evaluates an expression used as a tensor argument: a bare buffer
    /// name, or a window expression.
    fn eval_window(&mut self, expr: &Expr, env: &Env, monitor: &mut dyn Monitor) -> Result<View> {
        match expr {
            Expr::Var(s) => match env.lookup(s) {
                Some(Binding::Tensor(t)) => Ok(t.view.clone()),
                _ => Err(InterpError::Unbound(s.name().to_string())),
            },
            Expr::Read { buf, idx } if !idx.is_empty() => {
                // A point access used where a window is expected: a 0-dim view.
                let view = match env.lookup(buf) {
                    Some(Binding::Tensor(t)) => t.view.clone(),
                    _ => return Err(InterpError::Unbound(buf.name().to_string())),
                };
                let mut spec = Vec::new();
                for e in idx {
                    spec.push(WindowDim::Point(self.eval(e, env, monitor)?.as_int()?));
                }
                Ok(view.narrow(spec))
            }
            Expr::Window { buf, idx } => {
                let view = match env.lookup(buf) {
                    Some(Binding::Tensor(t)) => t.view.clone(),
                    _ => return Err(InterpError::Unbound(buf.name().to_string())),
                };
                let mut spec = Vec::new();
                for w in idx {
                    match w {
                        WAccess::Point(e) => {
                            spec.push(WindowDim::Point(self.eval(e, env, monitor)?.as_int()?))
                        }
                        WAccess::Interval(lo, _hi) => {
                            spec.push(WindowDim::Interval(self.eval(lo, env, monitor)?.as_int()?))
                        }
                    }
                }
                Ok(view.narrow(spec))
            }
            other => Err(InterpError::BadCall(format!(
                "expression `{other}` cannot be passed as a tensor argument"
            ))),
        }
    }

    fn load(
        &mut self,
        buf: &Sym,
        idx: &[Expr],
        env: &Env,
        monitor: &mut dyn Monitor,
    ) -> Result<f64> {
        let mut indices = Vec::with_capacity(idx.len());
        for e in idx {
            indices.push(self.eval(e, env, monitor)?.as_int()?);
        }
        let view = match env.lookup(buf) {
            Some(Binding::Tensor(t)) => t.view.clone(),
            Some(Binding::Scalar(v)) if idx.is_empty() => return Ok(v.as_float()),
            _ => return Err(InterpError::Unbound(buf.name().to_string())),
        };
        let value = view
            .read(&indices)
            .ok_or_else(|| InterpError::OutOfBounds {
                buf: buf.name().to_string(),
                idx: indices.clone(),
                dims: view.buf.borrow().dims.clone(),
            })?;
        if self.suppress == 0 {
            if let Some(addr) = view.byte_addr(&indices) {
                monitor.on_read(&view.mem(), addr, view.elem().size_bytes());
            }
        }
        Ok(value)
    }

    fn store(
        &mut self,
        buf: &Sym,
        idx: &[Expr],
        value: f64,
        env: &Env,
        monitor: &mut dyn Monitor,
    ) -> Result<()> {
        let mut indices = Vec::with_capacity(idx.len());
        for e in idx {
            indices.push(self.eval(e, env, monitor)?.as_int()?);
        }
        let view = match env.lookup(buf) {
            Some(Binding::Tensor(t)) => t.view.clone(),
            _ => return Err(InterpError::Unbound(buf.name().to_string())),
        };
        if self.suppress == 0 {
            if let Some(addr) = view.byte_addr(&indices) {
                monitor.on_write(&view.mem(), addr, view.elem().size_bytes());
            }
        }
        view.write(&indices, value)
            .ok_or_else(|| InterpError::OutOfBounds {
                buf: buf.name().to_string(),
                idx: indices,
                dims: view.buf.borrow().dims.clone(),
            })
    }

    fn eval(&mut self, expr: &Expr, env: &Env, monitor: &mut dyn Monitor) -> Result<Value> {
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Var(s) => match env.lookup(s) {
                Some(Binding::Scalar(v)) => Ok(*v),
                Some(Binding::Tensor(t))
                    if t.view.kept.is_empty() || t.view.buf.borrow().dims.is_empty() =>
                {
                    let view = t.view.clone();
                    let value = view
                        .read(&[])
                        .ok_or_else(|| InterpError::Unbound(s.name().to_string()))?;
                    if self.suppress == 0 {
                        if let Some(addr) = view.byte_addr(&[]) {
                            monitor.on_read(&view.mem(), addr, view.elem().size_bytes());
                        }
                    }
                    Ok(Value::Float(value))
                }
                Some(Binding::Tensor(_)) => Err(InterpError::Malformed(format!(
                    "tensor `{s}` used in a scalar context"
                ))),
                None => Err(InterpError::Unbound(s.name().to_string())),
            },
            Expr::Read { buf, idx } => {
                let v = self.load(buf, idx, env, monitor)?;
                Ok(Value::Float(v))
            }
            Expr::Window { .. } => Err(InterpError::Malformed(
                "window expression used in a scalar context".into(),
            )),
            Expr::Bin { op, lhs, rhs } => {
                let l = self.eval(lhs, env, monitor)?;
                let r = self.eval(rhs, env, monitor)?;
                self.eval_bin(*op, l, r, monitor)
            }
            Expr::Un { op, arg } => {
                let v = self.eval(arg, env, monitor)?;
                match op {
                    UnOp::Neg => v.neg(),
                    UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                }
            }
            Expr::Stride { buf, dim } => match env.lookup(buf) {
                Some(Binding::Tensor(t)) => Ok(Value::Int(t.view.stride(*dim))),
                _ => Err(InterpError::Unbound(buf.name().to_string())),
            },
            Expr::ReadConfig { config, field } => Ok(Value::Float(
                self.config(config.name(), field).unwrap_or(0.0),
            )),
        }
    }

    fn eval_bin<M: Monitor + ?Sized>(
        &self,
        op: BinOp,
        l: Value,
        r: Value,
        monitor: &mut M,
    ) -> Result<Value> {
        use BinOp::*;
        // Integer arithmetic when both sides are integers (index math).
        if let (Value::Int(a), Value::Int(b)) = (l, r) {
            let int = |v: Option<i64>| v.map(Value::Int).ok_or_else(index_overflow);
            return match op {
                Add => int(a.checked_add(b)),
                Sub => int(a.checked_sub(b)),
                Mul => int(a.checked_mul(b)),
                Div | Mod if b == 0 => Err(InterpError::DivideByZero),
                Div => int(a.checked_div_euclid(b)),
                Mod => int(a.checked_rem_euclid(b)),
                Lt => Ok(Value::Bool(a < b)),
                Le => Ok(Value::Bool(a <= b)),
                Gt => Ok(Value::Bool(a > b)),
                Ge => Ok(Value::Bool(a >= b)),
                Eq => Ok(Value::Bool(a == b)),
                Ne => Ok(Value::Bool(a != b)),
                And => Ok(Value::Bool(a != 0 && b != 0)),
                Or => Ok(Value::Bool(a != 0 || b != 0)),
            };
        }
        if let (Value::Bool(a), Value::Bool(b)) = (l, r) {
            return Ok(match op {
                And => Value::Bool(a && b),
                Or => Value::Bool(a || b),
                Eq => Value::Bool(a == b),
                Ne => Value::Bool(a != b),
                _ => return Err(InterpError::Malformed("arithmetic on booleans".into())),
            });
        }
        // Floating-point arithmetic: count it as compute.
        let a = l.as_float();
        let b = r.as_float();
        if matches!(op, Add | Sub | Mul | Div) && self.suppress == 0 {
            monitor.on_scalar_op(op, DataType::F64);
        }
        Ok(match op {
            Add => Value::Float(a + b),
            Sub => Value::Float(a - b),
            Mul => Value::Float(a * b),
            Div => Value::Float(a / b),
            Mod => Value::Float(a.rem_euclid(b)),
            Lt => Value::Bool(a < b),
            Le => Value::Bool(a <= b),
            Gt => Value::Bool(a > b),
            Ge => Value::Bool(a >= b),
            Eq => Value::Bool(a == b),
            Ne => Value::Bool(a != b),
            And | Or => return Err(InterpError::Malformed("logical op on floats".into())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{CountingMonitor, NullMonitor};
    use exo_ir::{fb, ib, read, var, Mem, ProcBuilder};
    use std::borrow::Cow;

    fn gemv_proc() -> Proc {
        ProcBuilder::new("gemv")
            .size_arg("M")
            .size_arg("N")
            .tensor_arg("A", DataType::F32, vec![var("M"), var("N")], Mem::Dram)
            .tensor_arg("x", DataType::F32, vec![var("N")], Mem::Dram)
            .tensor_arg("y", DataType::F32, vec![var("M")], Mem::Dram)
            .for_("i", ib(0), var("M"), |b| {
                b.for_("j", ib(0), var("N"), |b| {
                    let rhs = read("A", vec![var("i"), var("j")]) * read("x", vec![var("j")]);
                    b.reduce("y", vec![var("i")], rhs);
                });
            })
            .build()
    }

    #[test]
    fn gemv_computes_matrix_vector_product() {
        let registry = ProcRegistry::new();
        let mut interp = Interpreter::new(&registry);
        let (m, n) = (3usize, 4usize);
        let a: Vec<f64> = (0..m * n).map(|v| v as f64).collect();
        let x: Vec<f64> = (0..n).map(|v| (v + 1) as f64).collect();
        let (_, a_arg) = ArgValue::from_vec(a.clone(), vec![m, n], DataType::F32);
        let (_, x_arg) = ArgValue::from_vec(x.clone(), vec![n], DataType::F32);
        let (y_buf, y_arg) = ArgValue::zeros(vec![m], DataType::F32);
        interp
            .run(
                &gemv_proc(),
                vec![
                    ArgValue::Int(m as i64),
                    ArgValue::Int(n as i64),
                    a_arg,
                    x_arg,
                    y_arg,
                ],
                &mut NullMonitor,
            )
            .unwrap();
        let y = y_buf.borrow().data.clone();
        for i in 0..m {
            let expect: f64 = (0..n).map(|j| a[i * n + j] * x[j]).sum();
            assert!(
                (y[i] - expect).abs() < 1e-9,
                "row {i}: {} vs {expect}",
                y[i]
            );
        }
    }

    #[test]
    fn monitor_counts_flops_and_memory_traffic() {
        let registry = ProcRegistry::new();
        let mut interp = Interpreter::new(&registry);
        let (m, n) = (2usize, 8usize);
        let (_, a_arg) = ArgValue::from_vec(vec![1.0; m * n], vec![m, n], DataType::F32);
        let (_, x_arg) = ArgValue::from_vec(vec![1.0; n], vec![n], DataType::F32);
        let (_, y_arg) = ArgValue::zeros(vec![m], DataType::F32);
        let mut mon = CountingMonitor::default();
        interp
            .run(
                &gemv_proc(),
                vec![
                    ArgValue::Int(m as i64),
                    ArgValue::Int(n as i64),
                    a_arg,
                    x_arg,
                    y_arg,
                ],
                &mut mon,
            )
            .unwrap();
        // One multiply and one add per inner iteration.
        assert_eq!(mon.scalar_ops, (m * n * 2) as u64);
        assert_eq!(mon.loop_iters, (m + m * n) as u64);
        assert_eq!(mon.writes, (m * n) as u64);
        assert!(mon.reads >= (3 * m * n) as u64);
    }

    #[test]
    fn inst_profile_is_opt_in_and_counts_classes() {
        let registry = ProcRegistry::new();
        let mut interp = Interpreter::new(&registry);
        let (m, n) = (3usize, 4usize);
        let mk_args = || {
            let (_, a_arg) = ArgValue::from_vec(vec![1.0; m * n], vec![m, n], DataType::F32);
            let (_, x_arg) = ArgValue::from_vec(vec![1.0; n], vec![n], DataType::F32);
            let (_, y_arg) = ArgValue::zeros(vec![m], DataType::F32);
            vec![
                ArgValue::Int(m as i64),
                ArgValue::Int(n as i64),
                a_arg,
                x_arg,
                y_arg,
            ]
        };
        // Off by default: a run without enable_profile counts nothing.
        interp
            .run(&gemv_proc(), mk_args(), &mut NullMonitor)
            .unwrap();
        assert!(interp.take_profile().is_none(), "profiling must be opt-in");

        interp.enable_profile();
        interp
            .run(&gemv_proc(), mk_args(), &mut NullMonitor)
            .unwrap();
        let profile = interp.take_profile().expect("profile was enabled");
        assert_eq!(
            profile.count("reduce"),
            (m * n) as u64,
            "one Reduce per inner iteration"
        );
        assert_eq!(profile.count("loop"), 1 + m as u64, "{profile:?}");
        assert_eq!(profile.count("no-such-class"), 0);
        assert_eq!(
            profile.total(),
            profile.iter().map(|(_, c)| c).sum::<u64>(),
            "total must equal the sum over classes"
        );
        // take_profile turned counting back off.
        assert!(interp.take_profile().is_none());
    }

    /// Records, in order, every event both paths emit (the walker-only
    /// loop-identity and reduce-bracket events are left out). Instruction
    /// procedures suppress their bodies, as under the cost monitor.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl Monitor for Recorder {
        fn enter_call(&mut self, proc: &Proc) -> bool {
            self.0.push(format!("enter {}", proc.name()));
            proc.instr().is_some()
        }
        fn exit_call(&mut self, proc: &Proc) {
            self.0.push(format!("exit {}", proc.name()));
        }
        fn on_scalar_op(&mut self, op: BinOp, dt: DataType) {
            self.0.push(format!("op {op:?} {dt:?}"));
        }
        fn on_read(&mut self, mem: &exo_ir::Mem, addr: u64, bytes: u64) {
            self.0.push(format!("read {mem:?} {addr:#x} {bytes}"));
        }
        fn on_write(&mut self, mem: &exo_ir::Mem, addr: u64, bytes: u64) {
            self.0.push(format!("write {mem:?} {addr:#x} {bytes}"));
        }
        fn on_loop_iter(&mut self, parallel: bool) {
            self.0.push(format!("iter {parallel}"));
        }
        fn on_branch(&mut self) {
            self.0.push("branch".into());
        }
        fn on_config_write(&mut self, config: &str, field: &str) {
            self.0.push(format!("config {config}.{field}"));
        }
        fn on_stmt(&mut self) {
            self.0.push("stmt".into());
        }
    }

    /// Runs `p` through both paths on the buffers `mk_args` makes (the
    /// first is the output) and asserts the same output and event log.
    fn assert_paths_agree(
        registry: &ProcRegistry,
        p: &Proc,
        mk_args: impl Fn() -> (crate::BufRef, Vec<ArgValue>),
    ) -> Vec<String> {
        let mut lowered = Recorder::default();
        let (out_lowered, args) = mk_args();
        Interpreter::new(registry)
            .run(p, args, &mut lowered)
            .unwrap();
        let mut reference = Recorder::default();
        let (out_reference, args) = mk_args();
        Interpreter::new(registry)
            .run_reference(p, args, &mut reference)
            .unwrap();
        assert_eq!(out_lowered.borrow().data, out_reference.borrow().data);
        assert_eq!(lowered.0, reference.0);
        lowered.0
    }

    #[test]
    fn lowered_and_reference_paths_agree_event_for_event() {
        let (m, n) = (3usize, 5usize);
        assert_paths_agree(&ProcRegistry::new(), &gemv_proc(), || {
            let (_, a_arg) = ArgValue::from_vec(
                (0..m * n).map(|v| v as f64 * 0.5).collect(),
                vec![m, n],
                DataType::F32,
            );
            let (_, x_arg) = ArgValue::from_vec(
                (0..n).map(|v| v as f64 - 2.0).collect(),
                vec![n],
                DataType::F32,
            );
            let (yb, y_arg) = ArgValue::zeros(vec![m], DataType::F32);
            (
                yb,
                vec![
                    ArgValue::Int(m as i64),
                    ArgValue::Int(n as i64),
                    a_arg,
                    x_arg,
                    y_arg,
                ],
            )
        });
    }

    #[test]
    fn vectorized_calls_agree_event_for_event() {
        // The call path end to end: interval windows with computed
        // offsets into instruction procedures (bodies suppressed), a
        // window bound once and passed on whole, and an ordinary callee
        // (events kept) taking a `size` argument and a point window.
        let window = |buf: &str, lo: Expr| Expr::Window {
            buf: Sym::new(buf),
            idx: vec![WAccess::Interval(lo.clone(), lo + ib(8))],
        };
        let load = ProcBuilder::new("vec_load8")
            .window_arg("dst", DataType::F32, vec![ib(8)], Mem::VecAvx2)
            .window_arg("src", DataType::F32, vec![ib(8)], Mem::Dram)
            .instr("avx2_load")
            .for_("l", ib(0), ib(8), |b| {
                b.assign("dst", vec![var("l")], b.read("src", vec![var("l")]));
            })
            .build();
        let axpy = ProcBuilder::new("vec_axpy8")
            .window_arg("dst", DataType::F32, vec![ib(8)], Mem::Dram)
            .window_arg("src", DataType::F32, vec![ib(8)], Mem::VecAvx2)
            .instr("avx2_fma")
            .for_("l", ib(0), ib(8), |b| {
                b.reduce(
                    "dst",
                    vec![var("l")],
                    fb(2.0) * b.read("src", vec![var("l")]),
                );
            })
            .build();
        let bump = ProcBuilder::new("bump")
            .size_arg("by")
            .window_arg("cell", DataType::F32, vec![], Mem::Dram)
            .with_body(|b| {
                b.reduce("cell", vec![], var("by"));
            })
            .build();
        let caller = ProcBuilder::new("caller")
            .size_arg("n")
            .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .with_body(|b| {
                b.alloc("v", DataType::F32, vec![ib(8)], Mem::VecAvx2);
                b.for_("io", ib(0), var("n") / ib(8), |b| {
                    b.push(Stmt::WindowStmt {
                        name: Sym::new("ys"),
                        rhs: window("y", ib(8) * var("io")),
                    });
                    b.call(
                        "vec_load8",
                        vec![window("v", ib(0)), window("x", ib(8) * var("io"))],
                    );
                    b.call("vec_axpy8", vec![var("ys"), window("v", ib(0))]);
                    b.call(
                        "bump",
                        vec![
                            var("io") + ib(1),
                            read("y", vec![ib(8) * var("io") + ib(3)]),
                        ],
                    );
                });
            })
            .build();
        let registry: ProcRegistry = [load, axpy, bump].into_iter().collect();
        let n = 24usize;
        let events = assert_paths_agree(&registry, &caller, || {
            let (yb, y_arg) = ArgValue::zeros(vec![n], DataType::F32);
            let (_, x_arg) =
                ArgValue::from_vec((0..n).map(|v| v as f64).collect(), vec![n], DataType::F32);
            (yb, vec![ArgValue::Int(n as i64), y_arg, x_arg])
        });
        // Instruction bodies stayed silent; the ordinary callee did not.
        let count = |what: &str| events.iter().filter(|e| e.starts_with(what)).count();
        assert_eq!(count("enter vec_"), 2 * n / 8);
        assert_eq!(count("read VecAvx2"), 0);
        assert_eq!(count("write Dram"), n / 8);
    }

    #[test]
    fn registered_procs_reuse_the_cached_lowering() {
        let mut registry = ProcRegistry::new();
        registry.register(gemv_proc());
        assert!(registry.lowered_for("gemv").is_some());
        let p = gemv_proc();
        assert!(matches!(registry.lowering(&p), Cow::Borrowed(_)));
        // A different body under the same name must not reuse the cache.
        let other = ProcBuilder::new("gemv").size_arg("M").build();
        assert!(matches!(registry.lowering(&other), Cow::Owned(_)));
    }

    #[test]
    fn a_re_registered_name_runs_its_new_body() {
        let fill = |value: f64| {
            ProcBuilder::new("fill")
                .tensor_arg("x", DataType::F32, vec![ib(1)], Mem::Dram)
                .with_body(|b| {
                    b.assign("x", vec![ib(0)], fb(value));
                })
                .build()
        };
        let caller = ProcBuilder::new("caller")
            .tensor_arg("x", DataType::F32, vec![ib(1)], Mem::Dram)
            .with_body(|b| {
                b.call("fill", vec![var("x")]);
            })
            .build();
        let mut registry = ProcRegistry::new();
        registry.register(fill(1.0)).register(caller.clone());
        let run = |registry: &ProcRegistry, p: &Proc| {
            let (x, x_arg) = ArgValue::zeros(vec![1], DataType::F32);
            Interpreter::new(registry)
                .run(p, vec![x_arg], &mut NullMonitor)
                .unwrap();
            let value = x.borrow().data[0];
            value
        };
        // Both a call and a top-level run lower (and cache) the first body.
        assert_eq!(run(&registry, &caller), 1.0);
        assert_eq!(run(&registry, &fill(1.0)), 1.0);
        registry.register(fill(2.0));
        assert_eq!(run(&registry, &caller), 2.0);
        assert_eq!(run(&registry, &fill(2.0)), 2.0);
    }

    #[test]
    fn as_int_rejects_floats_outside_the_exact_integer_range() {
        assert_eq!(Value::Float(12.0).as_int().unwrap(), 12);
        assert_eq!(Value::Float(-3.0).as_int().unwrap(), -3);
        assert!(Value::Float(2.5).as_int().is_err());
        // 2^63 is integral but saturates in `as i64`; it must be rejected
        // instead of silently becoming i64::MAX.
        assert!(Value::Float(9.223372036854776e18).as_int().is_err());
        assert!(Value::Float(1e300).as_int().is_err());
        assert!(Value::Float(f64::NAN).as_int().is_err());
        assert!(Value::Float(f64::INFINITY).as_int().is_err());
        assert_eq!(Value::Float(i64::MIN as f64).as_int().unwrap(), i64::MIN);
    }

    #[test]
    fn as_bool_no_longer_coerces_integers() {
        assert!(Value::Bool(true).as_bool().unwrap());
        assert!(matches!(
            Value::Int(1).as_bool(),
            Err(InterpError::Malformed(_))
        ));
        assert!(matches!(
            Value::Float(1.0).as_bool(),
            Err(InterpError::Malformed(_))
        ));
    }

    #[test]
    fn assertion_failures_are_reported() {
        let p = ProcBuilder::new("p")
            .size_arg("n")
            .assert_(Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)))
            .build();
        let registry = ProcRegistry::new();
        let mut interp = Interpreter::new(&registry);
        assert!(matches!(
            interp.run(&p, vec![ArgValue::Int(12)], &mut NullMonitor),
            Err(InterpError::AssertFailed(_))
        ));
        assert!(interp
            .run(&p, vec![ArgValue::Int(16)], &mut NullMonitor)
            .is_ok());
    }

    #[test]
    fn out_of_bounds_accesses_error() {
        let p = ProcBuilder::new("p")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("i", ib(0), var("n") + ib(1), |b| {
                b.assign("x", vec![var("i")], fb(1.0));
            })
            .build();
        let registry = ProcRegistry::new();
        let mut interp = Interpreter::new(&registry);
        let (_, x_arg) = ArgValue::zeros(vec![4], DataType::F32);
        assert!(matches!(
            interp.run(&p, vec![ArgValue::Int(4), x_arg], &mut NullMonitor),
            Err(InterpError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn calls_execute_instruction_bodies_through_windows() {
        // An 8-lane vector load instruction: dst[0:8] = src[0:8].
        let loadu = ProcBuilder::new("vec_load8")
            .window_arg("dst", DataType::F32, vec![ib(8)], Mem::VecAvx2)
            .window_arg("src", DataType::F32, vec![ib(8)], Mem::Dram)
            .instr("avx2_load")
            .with_body(|b| {
                b.for_("l", ib(0), ib(8), |b| {
                    b.assign("dst", vec![var("l")], b.read("src", vec![var("l")]));
                });
            })
            .build();
        let caller = ProcBuilder::new("caller")
            .tensor_arg("x", DataType::F32, vec![ib(16)], Mem::Dram)
            .tensor_arg("out", DataType::F32, vec![ib(16)], Mem::Dram)
            .with_body(|b| {
                b.call(
                    "vec_load8",
                    vec![
                        Expr::Window {
                            buf: Sym::new("out"),
                            idx: vec![WAccess::Interval(ib(8), ib(16))],
                        },
                        Expr::Window {
                            buf: Sym::new("x"),
                            idx: vec![WAccess::Interval(ib(0), ib(8))],
                        },
                    ],
                );
            })
            .build();
        let mut registry = ProcRegistry::new();
        registry.register(loadu);
        let mut interp = Interpreter::new(&registry);
        let (_, x_arg) =
            ArgValue::from_vec((0..16).map(|v| v as f64).collect(), vec![16], DataType::F32);
        let (out_buf, out_arg) = ArgValue::zeros(vec![16], DataType::F32);
        interp
            .run(&caller, vec![x_arg, out_arg], &mut NullMonitor)
            .unwrap();
        let out = out_buf.borrow().data.clone();
        assert_eq!(&out[8..16], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert!(out[..8].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn unknown_procedures_error() {
        let caller = ProcBuilder::new("caller")
            .with_body(|b| {
                b.call("missing", vec![]);
            })
            .build();
        let registry = ProcRegistry::new();
        let mut interp = Interpreter::new(&registry);
        assert!(matches!(
            interp.run(&caller, vec![], &mut NullMonitor),
            Err(InterpError::UnknownProc(_))
        ));
    }

    #[test]
    fn config_writes_are_visible_and_counted() {
        let p = ProcBuilder::new("p")
            .with_body(|b| {
                b.write_config("cfg", "stride", ib(4));
            })
            .build();
        let registry = ProcRegistry::new();
        let mut interp = Interpreter::new(&registry);
        let mut mon = CountingMonitor::default();
        interp.run(&p, vec![], &mut mon).unwrap();
        assert_eq!(interp.config("cfg", "stride"), Some(4.0));
        assert_eq!(mon.config_writes, 1);
    }

    #[test]
    fn scalar_zero_dim_buffers_passed_by_reference() {
        // callee: out = in * 2 where out/in are 0-dim tensors.
        let callee = ProcBuilder::new("double")
            .tensor_arg("src", DataType::F32, vec![], Mem::Dram)
            .tensor_arg("dst", DataType::F32, vec![], Mem::Dram)
            .with_body(|b| {
                b.assign("dst", vec![], b.read("src", vec![]) * fb(2.0));
            })
            .build();
        let caller = ProcBuilder::new("caller")
            .tensor_arg("out", DataType::F32, vec![ib(1)], Mem::Dram)
            .with_body(|b| {
                b.alloc("tmp", DataType::F32, vec![], Mem::Dram);
                b.assign("tmp", vec![], fb(21.0));
                b.call("double", vec![var("tmp"), var("tmp")]);
                b.assign("out", vec![ib(0)], b.read("tmp", vec![]));
            })
            .build();
        let mut registry = ProcRegistry::new();
        registry.register(callee);
        let mut interp = Interpreter::new(&registry);
        let (out_buf, out_arg) = ArgValue::zeros(vec![1], DataType::F32);
        interp
            .run(&caller, vec![out_arg], &mut NullMonitor)
            .unwrap();
        assert_eq!(out_buf.borrow().data[0], 42.0);
    }

    #[test]
    fn loop_scoping_shadows_outer_bindings() {
        // Allocation inside a loop body is fresh each iteration.
        let p = ProcBuilder::new("p")
            .tensor_arg("out", DataType::F32, vec![ib(4)], Mem::Dram)
            .for_("i", ib(0), ib(4), |b| {
                b.alloc("t", DataType::F32, vec![], Mem::Dram);
                b.reduce("t", vec![], fb(1.0));
                b.assign("out", vec![var("i")], b.read("t", vec![]));
            })
            .build();
        let registry = ProcRegistry::new();
        let mut interp = Interpreter::new(&registry);
        let (out_buf, out_arg) = ArgValue::zeros(vec![4], DataType::F32);
        interp.run(&p, vec![out_arg], &mut NullMonitor).unwrap();
        assert_eq!(out_buf.borrow().data, vec![1.0; 4]);
    }

    #[test]
    fn stride_expression_reflects_row_major_layout() {
        let p = ProcBuilder::new("p")
            .tensor_arg("A", DataType::F32, vec![ib(3), ib(5)], Mem::Dram)
            .tensor_arg("out", DataType::F32, vec![ib(1)], Mem::Dram)
            .with_body(|b| {
                b.assign(
                    "out",
                    vec![ib(0)],
                    Expr::Stride {
                        buf: Sym::new("A"),
                        dim: 0,
                    },
                );
            })
            .build();
        let registry = ProcRegistry::new();
        let mut interp = Interpreter::new(&registry);
        let (_, a_arg) = ArgValue::zeros(vec![3, 5], DataType::F32);
        let (out_buf, out_arg) = ArgValue::zeros(vec![1], DataType::F32);
        interp
            .run(&p, vec![a_arg, out_arg], &mut NullMonitor)
            .unwrap();
        assert_eq!(out_buf.borrow().data[0], 5.0);
    }
}
