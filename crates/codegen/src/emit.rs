//! The C emitter: from `exo_interp::lower`'s slot-indexed instruction
//! tree to a self-contained C99 translation unit.
//!
//! The emitter deliberately consumes the **same lowered form the
//! interpreter executes** rather than the statement tree: symbol
//! resolution, shadow disambiguation (one frame slot per binding site)
//! and window pre-lowering are done once in `exo-interp::lower` and
//! shared by both backends, so the C code indexes buffers with exactly
//! the `AccessPlan`-style precomputed strides the slot executor uses.
//! A lowered `Loop` or `If` owns its bodies, so each one emits as one
//! `for` or `if` around its emitted bodies.
//!
//! Everything is written once, in order, into one buffer per unit
//! through `fmt::Write`: an expression writes itself given its parent's
//! precedence, so parentheses are decided while writing. A function is
//! written signature first; the stride constants of its dense arguments
//! are recorded as the body writes them and inserted in front of the
//! finished body. The unit's includes, window structs and helpers are
//! written in front of the functions at the end.
//!
//! A callee without calls of its own (every instruction procedure) is
//! rendered once per registration: its text and the unit-level facts the
//! text implies (includes, compiler flags, window structs, helpers) are
//! kept in the registry entry's backend memo
//! ([`ProcRegistry::backend_memo`]), keyed by the emission mode and by
//! the intrinsic-or-scalar-fallback verdict, and later units replay them.

use crate::mangle::{is_c_identifier, is_c_reserved, sanitized};
use crate::{CUnit, CodegenError, CodegenOptions, Result};
use exo_interp::{LBufRef, LCallArg, LExpr, LInst, LWSpec, LWindow, LoweredProc, ProcRegistry};
use exo_ir::{format_float, ArgKind, BinOp, DataType, Expr, Proc, Sym, UnOp};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use std::sync::OnceLock;

/// Appends formatted text to the unit's buffer (writing to a `String`
/// cannot fail).
macro_rules! w {
    ($this:ident, $($fmt:tt)*) => {{
        let _ = write!($this.unit.out, $($fmt)*);
    }};
}

/// C scalar type for a data type.
pub(crate) fn c_type(ty: DataType) -> &'static str {
    match ty {
        DataType::F32 => "float",
        DataType::F64 => "double",
        DataType::I8 => "int8_t",
        DataType::I32 => "int32_t",
        DataType::Bool => "bool",
        DataType::Index => "int64_t",
    }
}

/// Value class of an expression, mirroring the interpreter's `Value`
/// variants: `Int` follows its integer (euclidean) division semantics,
/// `Float` its f64 semantics. Buffer reads are always `Float` because the
/// interpreter models every element as an f64.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CClass {
    Int,
    Float,
    Bool,
}

/// Precedence of an atom: never parenthesized.
const ATOM: u8 = 100;
/// Precedence of a prefix operator (`-x`, `!x`, `*p`).
const PREFIX: u8 = 90;

fn c_binop(op: BinOp) -> (&'static str, u8) {
    match op {
        BinOp::Mul | BinOp::Div | BinOp::Mod => (c_op_symbol(op), 80),
        BinOp::Add | BinOp::Sub => (c_op_symbol(op), 70),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => (c_op_symbol(op), 60),
        BinOp::Eq | BinOp::Ne => (c_op_symbol(op), 50),
        BinOp::And => ("&&", 40),
        BinOp::Or => ("||", 30),
    }
}

fn c_op_symbol(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

fn class_of_type(ty: DataType) -> CClass {
    if ty.is_float() {
        CClass::Float
    } else if ty == DataType::Bool {
        CClass::Bool
    } else {
        CClass::Int
    }
}

/// A statically renderable extent, written where a debug-bounds check
/// uses it.
#[derive(Clone, Copy, Debug)]
enum Extent<'a> {
    /// A declared dimension of a dense argument (over size parameters).
    Arg(&'a Expr),
    /// A lowered expression: an allocation's dimension or a window
    /// interval's pure extent.
    Local(&'a LExpr),
}

/// How a frame slot is represented in C.
#[derive(Clone, Debug)]
enum SlotRepr<'a> {
    /// A `size` parameter (`int64_t`).
    Size,
    /// A by-value scalar parameter.
    ScalarParam(DataType),
    /// A scalar parameter the procedure (transitively) writes: lowered to
    /// a pointer so the interpreter's by-reference rank-0 write-back
    /// idiom (a 0-dim tensor passed to a scalar parameter) keeps its
    /// effect in C. Reads are `*name`, writes `*name = ...`.
    ScalarRef(DataType),
    /// A loop iterator (`int64_t` local).
    Iter,
    /// A rank-0 tensor parameter: a plain pointer.
    Ptr0(DataType),
    /// A dense tensor parameter: pointer + strides derived from the
    /// declared dimension expressions. Its stride constants' used flags
    /// start at `FnEmitter::strides_used[flags]`, one per dimension but
    /// the last.
    DenseArg {
        elem: DataType,
        dims: &'a [Expr],
        flags: usize,
    },
    /// A window parameter: `struct exo_win_{rank}{tag}`.
    WinParam { elem: DataType, rank: usize },
    /// A rank-0 local allocation: a scalar variable.
    Alloc0(DataType),
    /// A rank-`n` local allocation: a (possibly variable-length) array.
    AllocN { elem: DataType, dims: &'a [LExpr] },
    /// A window alias bound by a `WindowStmt`: a local window struct.
    Alias {
        elem: DataType,
        rank: usize,
        /// Per-kept-dimension extents, populated only under
        /// [`CodegenOptions::debug_bounds`] for a checked alias; a
        /// missing or `None` entry is a dimension whose extent is not
        /// statically renderable (e.g. inherited from a window
        /// parameter, whose ABI carries strides only).
        extents: Vec<Option<Extent<'a>>>,
    },
}

impl SlotRepr<'_> {
    fn elem(&self) -> Option<DataType> {
        match self {
            SlotRepr::Ptr0(t) | SlotRepr::Alloc0(t) | SlotRepr::ScalarRef(t) => Some(*t),
            SlotRepr::DenseArg { elem, .. }
            | SlotRepr::WinParam { elem, .. }
            | SlotRepr::AllocN { elem, .. }
            | SlotRepr::Alias { elem, .. } => Some(*elem),
            _ => None,
        }
    }

    fn rank(&self) -> Option<usize> {
        match self {
            SlotRepr::Ptr0(_) | SlotRepr::Alloc0(_) | SlotRepr::ScalarRef(_) => Some(0),
            SlotRepr::DenseArg { dims, .. } => Some(dims.len()),
            SlotRepr::AllocN { dims, .. } => Some(dims.len()),
            SlotRepr::WinParam { rank, .. } | SlotRepr::Alias { rank, .. } => Some(*rank),
            _ => None,
        }
    }

    fn is_tensor(&self) -> bool {
        self.elem().is_some()
    }
}

/// What a unit needs in front of its functions. A function's share is
/// kept with its memoized text, so a replay needs what a render needs.
#[derive(Clone, Debug, Default)]
struct Facts {
    includes: BTreeSet<String>,
    cflags: BTreeSet<String>,
    /// (rank, tag) → C element type, for the window struct definitions.
    win_structs: BTreeMap<(usize, &'static str), &'static str>,
    /// (config, field) pairs backed by `static double` globals.
    configs: BTreeSet<(String, String)>,
    need_div: bool,
    need_mod: bool,
    need_fmod: bool,
    need_math: bool,
    need_string: bool,
    need_bool: bool,
    need_bound: bool,
}

impl Facts {
    fn include(&mut self, inc: &str) {
        if !self.includes.contains(inc) {
            self.includes.insert(inc.to_string());
        }
    }

    fn cflag(&mut self, flag: &str) {
        if !self.cflags.contains(flag) {
            self.cflags.insert(flag.to_string());
        }
    }

    fn config(&mut self, config: &str, field: &str) {
        if !self.configs.iter().any(|(c, f)| c == config && f == field) {
            self.configs.insert((config.to_string(), field.to_string()));
        }
    }

    fn merge(&mut self, other: &Facts) {
        for inc in &other.includes {
            self.include(inc);
        }
        for flag in &other.cflags {
            self.cflag(flag);
        }
        for (key, celem) in &other.win_structs {
            self.win_structs.insert(*key, *celem);
        }
        for (config, field) in &other.configs {
            self.config(config, field);
        }
        self.need_div |= other.need_div;
        self.need_mod |= other.need_mod;
        self.need_fmod |= other.need_fmod;
        self.need_math |= other.need_math;
        self.need_string |= other.need_string;
        self.need_bool |= other.need_bool;
        self.need_bound |= other.need_bound;
    }
}

/// One rendered function and the unit-level facts its text implies.
#[derive(Debug)]
struct FnText {
    text: String,
    facts: Facts,
}

/// The emitter's memo in a registry entry: the entry's function text per
/// emission mode (intrinsics, debug bounds, OpenMP) and fallback verdict.
#[derive(Debug)]
struct FnTexts([OnceLock<FnText>; 16]);

impl Default for FnTexts {
    fn default() -> Self {
        FnTexts(std::array::from_fn(|_| OnceLock::new()))
    }
}

fn memo_key(opts: &CodegenOptions, fallback: bool) -> usize {
    usize::from(opts.intrinsics)
        | usize::from(opts.debug_bounds) << 1
        | usize::from(opts.openmp) << 2
        | usize::from(fallback) << 3
}

/// Shared translation-unit state: the function definitions written so
/// far and what the unit needs in front of them.
pub(crate) struct UnitEmitter<'a> {
    registry: &'a ProcRegistry,
    opts: &'a CodegenOptions,
    /// The function definitions, callees first, separated by blank lines.
    out: String,
    /// Where the stride constants wait to be moved in front of a body.
    scratch: String,
    emitted: Vec<&'a str>,
    emitting: Vec<&'a str>,
    facts: Facts,
    /// Per-procedure cache of the written-scalar-parameter analysis.
    written_cache: Vec<(&'a str, BTreeSet<Sym>)>,
    /// Instruction procedures with at least one callsite in this unit
    /// passing a window that is not provably unit-stride in its last
    /// dimension. Their intrinsic bodies (which index `.data` assuming
    /// unit stride) would be silently wrong, so they are demoted to their
    /// portable scalar bodies even in intrinsic mode.
    scalar_fallback_instrs: Vec<&'a str>,
}

impl<'a> UnitEmitter<'a> {
    pub(crate) fn new(registry: &'a ProcRegistry, opts: &'a CodegenOptions) -> Self {
        UnitEmitter {
            registry,
            opts,
            out: String::with_capacity(4096),
            scratch: String::new(),
            emitted: Vec::new(),
            emitting: Vec::new(),
            facts: Facts::default(),
            written_cache: Vec::new(),
            scalar_fallback_instrs: Vec::new(),
        }
    }

    /// Whether `proc` writes its scalar parameter `param` — directly (an
    /// assign/reduce targeting the parameter) or transitively (forwarding
    /// the parameter to a nested call whose matching scalar parameter is
    /// itself written). A written scalar parameter lowers to a pointer
    /// ([`SlotRepr::ScalarRef`]), which is what makes the interpreter's
    /// by-reference rank-0 write-back idiom emit valid C. The analysis is
    /// cached per procedure.
    fn writes_scalar(&mut self, proc: &'a Proc, param: &Sym) -> bool {
        let i = self.written_scalar_params(proc);
        self.written_cache[i].1.contains(param)
    }

    /// The written scalar parameters of `proc`, as an index into the
    /// cache.
    fn written_scalar_params(&mut self, proc: &'a Proc) -> usize {
        if let Some(i) = self
            .written_cache
            .iter()
            .position(|(n, _)| *n == proc.name())
        {
            return i;
        }
        // Seed with the empty set so recursive call cycles terminate
        // (cycles are rejected with `Unsupported` during emission).
        let at = self.written_cache.len();
        self.written_cache.push((proc.name(), BTreeSet::new()));
        let is_scalar_param = |v: &Sym| {
            proc.args()
                .iter()
                .any(|a| a.name == *v && matches!(a.kind, ArgKind::Scalar { .. }))
        };
        let registry = self.registry;
        let mut written = BTreeSet::new();
        for stmt in proc.body().iter() {
            exo_ir::for_each_stmt(stmt, &mut |s| match s {
                exo_ir::Stmt::Assign { buf, .. } | exo_ir::Stmt::Reduce { buf, .. }
                    if is_scalar_param(buf) =>
                {
                    written.insert(buf.clone());
                }
                exo_ir::Stmt::Call { proc: callee, args } => {
                    // An unknown callee errors out of emission before the
                    // analysis result matters; skip it here.
                    let Some(callee_proc) = registry.get(callee) else {
                        return;
                    };
                    let c = self.written_scalar_params(callee_proc);
                    for (p, a) in callee_proc.args().iter().zip(args.iter()) {
                        if let Expr::Var(v) = a {
                            if is_scalar_param(v) && self.written_cache[c].1.contains(&p.name) {
                                written.insert(v.clone());
                            }
                        }
                    }
                }
                _ => {}
            });
        }
        self.written_cache[at].1 = written;
        at
    }

    /// Walks the call graph reachable from `proc`, recording every
    /// instruction procedure with a callsite whose window arguments are
    /// not provably unit-stride in their last kept dimension (the ABI
    /// contract of the machine-intrinsic bodies). Such instructions fall
    /// back to their portable scalar bodies in intrinsic mode instead of
    /// emitting silently wrong vector code.
    fn scalar_fallback_scan(
        &mut self,
        proc: &'a Proc,
        lowered: &'a LoweredProc,
        seen: &mut Vec<&'a str>,
    ) {
        if seen.contains(&proc.name()) {
            return;
        }
        seen.push(proc.name());
        let registry = self.registry;
        let mut facts: Vec<Option<StrideFact>> = vec![None; lowered.slot_names().len()];
        for (arg, larg) in proc.args().iter().zip(lowered.args()) {
            if let ArgKind::Tensor { dims, window, .. } = &arg.kind {
                facts[larg.slot as usize] = Some(StrideFact {
                    rank: dims.len(),
                    // Dense tensors are row-major (last dim contiguous);
                    // a window parameter's strides are a runtime value.
                    last_unit: dims.is_empty() || !*window,
                });
            }
        }
        let mut callees = Vec::new();
        for inst in lowered.insts() {
            match inst {
                LInst::Alloc { slot, dims, .. } => {
                    facts[*slot as usize] = Some(StrideFact {
                        rank: dims.len(),
                        last_unit: true,
                    });
                }
                LInst::WindowBind { slot, rhs } => {
                    facts[*slot as usize] = window_fact(&facts, rhs);
                }
                LInst::Call { callee, args } => {
                    // Unknown callees error out of emission before any
                    // verdict matters.
                    let Some((callee_proc, callee_lowered)) = registry.lowered_for(callee) else {
                        continue;
                    };
                    if callee_proc.is_instr()
                        && !args_unit_stride(&facts, callee_proc, args)
                        && !self.scalar_fallback_instrs.contains(&callee_proc.name())
                    {
                        self.scalar_fallback_instrs.push(callee_proc.name());
                    }
                    callees.push((callee_proc, callee_lowered));
                }
                _ => {}
            }
        }
        for (p, l) in callees {
            self.scalar_fallback_scan(p, l, seen);
        }
    }

    /// Emits `proc`, given its lowering, callees first; definitions
    /// accumulate in the unit. A callee's lowering is the registry's memo,
    /// and so is the text of a callee without calls of its own.
    pub(crate) fn add_proc(
        &mut self,
        proc: &'a Proc,
        lowered: &'a LoweredProc,
        is_root: bool,
    ) -> Result<()> {
        if is_root && self.opts.intrinsics {
            let mut seen = Vec::new();
            self.scalar_fallback_scan(proc, lowered, &mut seen);
        }
        let name = proc.name();
        if self.emitted.contains(&name) {
            return Ok(());
        }
        if self.emitting.contains(&name) {
            return Err(CodegenError::Unsupported(format!(
                "recursive call cycle through `{name}`"
            )));
        }
        if !is_c_identifier(name) || is_c_reserved(name) {
            return Err(CodegenError::ReservedName {
                name: name.to_string(),
                what: "procedure",
            });
        }
        for arg in proc.args() {
            let a = arg.name.name();
            if !is_c_identifier(a) || is_c_reserved(a) {
                return Err(CodegenError::ReservedName {
                    name: format!("{a}` (argument of `{name}"),
                    what: "argument",
                });
            }
        }
        self.emitting.push(name);
        let registry = self.registry;
        // Emit callees first, in order of first appearance.
        let mut has_calls = false;
        for inst in lowered.insts() {
            if let LInst::Call { callee, .. } = inst {
                has_calls = true;
                let (callee_proc, callee_lowered) = registry
                    .lowered_for(callee)
                    .ok_or_else(|| CodegenError::UnknownCallee(callee.to_string()))?;
                self.add_proc(callee_proc, callee_lowered, false)?;
            }
        }
        let fallback = self.scalar_fallback_instrs.contains(&name);
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        let memo = (!is_root && !has_calls)
            .then(|| registry.backend_memo(name, FnTexts::default))
            .flatten();
        match memo.map(|m| &m.0[memo_key(self.opts, fallback)]) {
            Some(slot) => match slot.get() {
                Some(hit) => {
                    self.out.push_str(&hit.text);
                    self.facts.merge(&hit.facts);
                }
                None => {
                    let start = self.out.len();
                    let outer = std::mem::take(&mut self.facts);
                    let rendered = self.render(proc, lowered, is_root, fallback);
                    let facts = std::mem::replace(&mut self.facts, outer);
                    rendered?;
                    self.facts.merge(&facts);
                    let text = self.out[start..].to_string();
                    slot.get_or_init(|| FnText { text, facts });
                }
            },
            None => self.render(proc, lowered, is_root, fallback)?,
        }
        self.emitting.pop();
        self.emitted.push(name);
        Ok(())
    }

    /// Writes `proc`'s function. Instruction procedures may lower to a
    /// real machine intrinsic when requested; everything else gets the
    /// portable scalar body generated from its own object code. An
    /// instruction with a non-unit-stride callsite (`fallback`) is
    /// demoted to its scalar body — the intrinsic would read/write the
    /// wrong elements.
    fn render(
        &mut self,
        proc: &'a Proc,
        lowered: &'a LoweredProc,
        is_root: bool,
        fallback: bool,
    ) -> Result<()> {
        let intrinsic = (proc.is_instr() && self.opts.intrinsics)
            .then(|| exo_machine::c_intrinsic(proc.name()))
            .flatten();
        let demoted = intrinsic.is_some() && fallback;
        let intrinsic = intrinsic.filter(|i| i.stock_toolchain && !demoted);
        if demoted {
            let _ = writeln!(
                self.out,
                "/* `{}`: portable scalar body — a callsite passes a window that is \
                 not unit-stride in its last dimension */",
                proc.name()
            );
        }
        FnEmitter::new(self, proc, lowered)?.emit(is_root, intrinsic)
    }

    pub(crate) fn finish(self, root: &str, mode: &str) -> CUnit {
        let f = &self.facts;
        let mut out = String::with_capacity(self.out.len() + 1024);
        let _ = write!(
            out,
            "/* Generated by exo-codegen — do not edit.\n * kernel: {root}\n * mode: {mode}\n */\n"
        );
        out.push_str("#include <stdint.h>\n");
        if f.need_bool {
            out.push_str("#include <stdbool.h>\n");
        }
        if f.need_math {
            out.push_str("#include <math.h>\n");
        }
        if f.need_bound {
            out.push_str("#include <assert.h>\n");
        }
        if f.need_string {
            out.push_str("#include <string.h>\n");
        }
        for inc in &f.includes {
            let _ = writeln!(out, "#include {inc}");
        }
        out.push('\n');
        for ((rank, tag), celem) in &f.win_structs {
            if *rank == 0 {
                // C99 forbids zero-length arrays; a rank-0 window is just
                // its data pointer.
                let _ = writeln!(out, "struct exo_win_0{tag} {{ {celem} *data; }};");
            } else {
                let _ = writeln!(
                    out,
                    "struct exo_win_{rank}{tag} {{ {celem} *data; int64_t strides[{rank}]; }};"
                );
            }
        }
        if !f.win_structs.is_empty() {
            out.push('\n');
        }
        if f.need_bound {
            out.push_str(
                "static inline int64_t exo_bnd(int64_t i, int64_t n) {\n    \
                 assert(0 <= i && i < n);\n    \
                 return i;\n}\n\n",
            );
        }
        if f.need_div {
            out.push_str(
                "static inline int64_t exo_div_euclid(int64_t a, int64_t b) {\n    \
                 if (b == 0) return 0;\n    \
                 int64_t q = a / b;\n    \
                 int64_t r = a % b;\n    \
                 if (r < 0) q -= (b > 0) ? 1 : -1;\n    \
                 return q;\n}\n\n",
            );
        }
        if f.need_mod {
            out.push_str(
                "static inline int64_t exo_mod_euclid(int64_t a, int64_t b) {\n    \
                 if (b == 0) return 0;\n    \
                 int64_t r = a % b;\n    \
                 if (r < 0) r += (b < 0) ? -b : b;\n    \
                 return r;\n}\n\n",
            );
        }
        if f.need_fmod {
            out.push_str(
                "static inline double exo_fmod_euclid(double a, double b) {\n    \
                 double r = fmod(a, b);\n    \
                 return (r < 0.0) ? r + fabs(b) : r;\n}\n\n",
            );
        }
        for (config, field) in &f.configs {
            let _ = writeln!(
                out,
                "static double exo_cfg_{}_{} = 0.0;",
                sanitized(config),
                sanitized(field)
            );
        }
        if !f.configs.is_empty() {
            out.push('\n');
        }
        out.push_str(&self.out);
        CUnit {
            name: root.to_string(),
            code: out,
            cflags: self.facts.cflags.into_iter().collect(),
        }
    }
}

/// Per-function emission state; the text goes straight into the unit's
/// buffer.
struct FnEmitter<'u, 'a> {
    unit: &'u mut UnitEmitter<'a>,
    proc: &'a Proc,
    lp: &'a LoweredProc,
    names: Vec<Cow<'a, str>>,
    repr: Vec<SlotRepr<'a>>,
    /// One flag per (dense argument, dimension but the last): whether the
    /// body has written that stride constant. Only written constants are
    /// declared, since an unused `const` trips `-Werror`.
    strides_used: Vec<bool>,
    /// Source names of buffers with at least one access the static
    /// verifier could not certify in-bounds (populated only under
    /// `debug_bounds`). Fully-proven buffers skip the `exo_bnd`
    /// instrumentation: the proof is relative to the procedure's
    /// asserted preconditions, the same contract the checks enforce.
    unproven: BTreeSet<String>,
    /// Source names of parallel loops certified thread-safe by
    /// `exo_analysis::threadable_parallel_loops` (populated only under
    /// `openmp`). Certified loops get `#pragma omp parallel for`;
    /// parallel loops that only pass the weaker commutativity check
    /// (e.g. shared reductions) keep the advisory comment — running
    /// them on threads would race at the C level.
    omp_loops: BTreeSet<String>,
    indent: usize,
}

/// Whether `name` is the stride-constant name `{arg}_s{d}` of a dense
/// rank-≥2 argument of `proc` (`d` below the argument's last dimension).
fn is_stride_const(proc: &Proc, name: &str) -> bool {
    proc.args().iter().any(|arg| {
        let ArgKind::Tensor {
            dims,
            window: false,
            ..
        } = &arg.kind
        else {
            return false;
        };
        name.strip_prefix(&*sanitized(arg.name.name()))
            .and_then(|rest| rest.strip_prefix("_s"))
            .filter(|d| d.bytes().all(|b| b.is_ascii_digit()) && (*d == "0" || !d.starts_with('0')))
            .and_then(|d| d.parse::<usize>().ok())
            .is_some_and(|d| d + 1 < dims.len())
    })
}

impl<'u, 'a> FnEmitter<'u, 'a> {
    fn new(
        unit: &'u mut UnitEmitter<'a>,
        proc: &'a Proc,
        lp: &'a LoweredProc,
    ) -> Result<FnEmitter<'u, 'a>> {
        // Deterministic slot names: the sanitized source name when free,
        // otherwise suffixed with the (unique) slot index. The hoisted
        // stride-constant names of dense rank-≥2 arguments (`A_s0`, ...)
        // are reserved, so no binding can shadow them; an *argument* that
        // itself collides with one is an error, since argument names are
        // ABI and cannot be silently renamed.
        let mut used: BTreeSet<Cow<'a, str>> = BTreeSet::new();
        let mut names = Vec::with_capacity(lp.slot_names().len());
        for (slot, src) in lp.slot_names().iter().enumerate() {
            let base = sanitized(src);
            let taken = |n: &str| used.contains(n) || is_stride_const(proc, n);
            let name = if taken(&base) {
                if lp.args().iter().any(|a| a.slot as usize == slot) {
                    return Err(CodegenError::Unsupported(format!(
                        "argument `{base}` of `{}` collides with a generated \
                         stride-constant name; rename the argument",
                        proc.name()
                    )));
                }
                let mut cand = format!("{base}_s{slot}");
                while taken(&cand) {
                    cand.push('_');
                }
                Cow::Owned(cand)
            } else {
                base
            };
            used.insert(name.clone());
            names.push(name);
        }
        // Parameter representations; locals are filled in by the prepass.
        // A scalar parameter the body (transitively) writes becomes a
        // pointer — the C shape of the by-reference write-back idiom.
        let mut repr = vec![SlotRepr::Iter; lp.slot_names().len()];
        let mut flags = 0;
        for (arg, larg) in proc.args().iter().zip(lp.args()) {
            let slot = larg.slot as usize;
            repr[slot] = match &arg.kind {
                ArgKind::Size => SlotRepr::Size,
                ArgKind::Scalar { ty } if unit.writes_scalar(proc, &arg.name) => {
                    SlotRepr::ScalarRef(*ty)
                }
                ArgKind::Scalar { ty } => SlotRepr::ScalarParam(*ty),
                ArgKind::Tensor {
                    ty, dims, window, ..
                } => {
                    if dims.is_empty() {
                        SlotRepr::Ptr0(*ty)
                    } else if *window {
                        SlotRepr::WinParam {
                            elem: *ty,
                            rank: dims.len(),
                        }
                    } else {
                        let first = flags;
                        flags += dims.len() - 1;
                        SlotRepr::DenseArg {
                            elem: *ty,
                            dims,
                            flags: first,
                        }
                    }
                }
            };
        }
        let unproven = if unit.opts.debug_bounds {
            exo_analysis::unproven_buffers(proc)
        } else {
            BTreeSet::new()
        };
        let omp_loops = if unit.opts.openmp {
            // The registry holds every callee's object-code body, so the
            // race checker can tell read-only instruction operands from
            // written ones instead of assuming every operand is written.
            let registry: &ProcRegistry = unit.registry;
            let callee_writes = |callee: &str, n: usize| {
                registry.get(callee).map(|p| {
                    exo_analysis::written_params(p)
                        .get(n)
                        .copied()
                        .unwrap_or(true)
                })
            };
            exo_analysis::threadable_parallel_loops_where(proc, &callee_writes)
        } else {
            BTreeSet::new()
        };
        let mut this = FnEmitter {
            unit,
            proc,
            lp,
            names,
            repr,
            strides_used: vec![false; flags],
            unproven,
            omp_loops,
            indent: 1,
        };
        // Dense-argument dimension expressions may only reference size
        // parameters and constants.
        for arg in proc.args() {
            if let ArgKind::Tensor {
                dims,
                window: false,
                ..
            } = &arg.kind
            {
                for d in dims {
                    this.check_dim(d)?;
                }
            }
        }
        this.prepass()?;
        Ok(this)
    }

    fn put(&mut self, s: &str) {
        self.unit.out.push_str(s);
    }

    /// Writes slot `slot`'s C name.
    fn name(&mut self, slot: usize) {
        self.unit.out.push_str(&self.names[slot]);
    }

    /// Rejects an argument-dimension expression [`Self::dim`] cannot
    /// write.
    fn check_dim(&self, e: &Expr) -> Result<()> {
        match e {
            Expr::Int(_) => Ok(()),
            Expr::Var(s) => self.arg_slot(s).map(drop),
            Expr::Bin {
                op: BinOp::Add | BinOp::Sub | BinOp::Mul,
                lhs,
                rhs,
            } => {
                self.check_dim(lhs)?;
                self.check_dim(rhs)
            }
            other => Err(CodegenError::Unsupported(format!(
                "argument dimension expression `{other}` (only +, -, * over sizes and constants)"
            ))),
        }
    }

    /// Writes an argument-dimension expression (a source `Expr` over size
    /// parameters, accepted by [`Self::check_dim`]) as an operand of
    /// precedence `p`.
    fn dim(&mut self, e: &Expr, p: u8) -> Result<()> {
        match e {
            Expr::Int(v) => {
                w!(self, "{v}");
                Ok(())
            }
            Expr::Var(s) => {
                let slot = self.arg_slot(s)?;
                self.name(slot);
                Ok(())
            }
            Expr::Bin {
                op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul),
                lhs,
                rhs,
            } => {
                let (sym, prec) = c_binop(*op);
                if prec < p {
                    self.put("(");
                }
                self.dim(lhs, prec)?;
                w!(self, " {sym} ");
                self.dim(rhs, prec + 1)?;
                if prec < p {
                    self.put(")");
                }
                Ok(())
            }
            other => self.check_dim(other),
        }
    }

    fn arg_slot(&self, s: &Sym) -> Result<usize> {
        self.proc
            .args()
            .iter()
            .zip(self.lp.args())
            .find(|(a, _)| a.name == *s)
            .map(|(_, l)| l.slot as usize)
            .ok_or_else(|| CodegenError::Unbound(s.name().to_string()))
    }

    /// Fills in local slot representations (allocations, iterators,
    /// aliases). The pre-order walk is source order, so every slot's
    /// binding instruction precedes its uses.
    fn prepass(&mut self) -> Result<()> {
        let lp = self.lp;
        for inst in lp.insts() {
            self.prepass_inst(inst)?;
        }
        Ok(())
    }

    fn prepass_inst(&mut self, inst: &'a LInst) -> Result<()> {
        match inst {
            LInst::Alloc { slot, ty, dims, .. } => {
                self.repr[*slot as usize] = if dims.is_empty() {
                    SlotRepr::Alloc0(*ty)
                } else {
                    SlotRepr::AllocN { elem: *ty, dims }
                };
            }
            LInst::Loop { iter, .. } => self.repr[*iter as usize] = SlotRepr::Iter,
            LInst::WindowBind { slot, rhs } => {
                let (elem, rank) = self.window_shape(rhs)?;
                let checked = self.unit.opts.debug_bounds
                    && self
                        .unproven
                        .contains(&self.lp.slot_names()[*slot as usize]);
                let extents = if checked {
                    self.window_extents(rhs)?
                } else {
                    Vec::new()
                };
                self.repr[*slot as usize] = SlotRepr::Alias {
                    elem,
                    rank,
                    extents,
                };
            }
            _ => {}
        }
        Ok(())
    }

    /// Element type and rank of a tensor slot (error, not panic, on the
    /// provably-unreachable non-tensor case, keeping the library free of
    /// panicking constructs).
    fn elem_rank(&self, slot: usize) -> Result<(DataType, usize)> {
        match (self.repr[slot].elem(), self.repr[slot].rank()) {
            (Some(e), Some(r)) => Ok((e, r)),
            _ => Err(CodegenError::Unsupported(format!(
                "`{}` used as a tensor",
                self.names[slot]
            ))),
        }
    }

    /// Element type and post-narrowing rank of a lowered window form.
    fn window_shape(&self, w: &LWindow) -> Result<(DataType, usize)> {
        match w {
            LWindow::Var { buf } => {
                let s = self.tensor_slot(buf)?;
                self.elem_rank(s)
            }
            LWindow::PointRead { buf, .. } => {
                let s = self.tensor_slot(buf)?;
                Ok((self.elem_rank(s)?.0, 0))
            }
            LWindow::Window { buf, spec } => {
                let s = self.tensor_slot(buf)?;
                let (elem, rank) = self.elem_rank(s)?;
                let kept_in_spec = spec
                    .iter()
                    .filter(|w| matches!(w, LWSpec::Interval { .. }))
                    .count();
                let beyond = rank.saturating_sub(spec.len());
                Ok((elem, kept_in_spec + beyond))
            }
            LWindow::NotATensor { display } => Err(CodegenError::Unsupported(format!(
                "expression `{display}` used as a tensor argument"
            ))),
        }
    }

    fn tensor_slot(&self, buf: &LBufRef) -> Result<usize> {
        match buf {
            LBufRef::Unbound(n) => Err(CodegenError::Unbound(n.to_string())),
            LBufRef::Slot(s) => {
                let s = *s as usize;
                if self.repr[s].is_tensor() {
                    Ok(s)
                } else {
                    Err(CodegenError::Unsupported(format!(
                        "`{}` used as a tensor",
                        self.names[s]
                    )))
                }
            }
        }
    }

    /// Writes the data pointer of a tensor slot (array decays, structs
    /// expose `.data`, rank-0 locals need `&`).
    fn data_ptr(&mut self, slot: usize) -> Result<()> {
        match &self.repr[slot] {
            // A written scalar parameter is already a pointer.
            SlotRepr::Ptr0(_)
            | SlotRepr::DenseArg { .. }
            | SlotRepr::AllocN { .. }
            | SlotRepr::ScalarRef(_) => self.name(slot),
            SlotRepr::WinParam { .. } | SlotRepr::Alias { .. } => {
                w!(self, "{}.data", self.names[slot])
            }
            SlotRepr::Alloc0(_) => w!(self, "&{}", self.names[slot]),
            _ => {
                return Err(CodegenError::Unsupported(format!(
                    "`{}` used as a tensor",
                    self.names[slot]
                )))
            }
        }
        Ok(())
    }

    /// Whether dimension `d`'s stride of a tensor slot writes as `1`.
    fn stride_is_one(&self, slot: usize, d: usize) -> bool {
        match &self.repr[slot] {
            SlotRepr::DenseArg { dims, .. } if d + 1 < dims.len() => false,
            SlotRepr::AllocN { dims, .. } if d + 1 < dims.len() => {
                d + 2 == dims.len() && self.writes_as(&dims[d + 1], 1)
            }
            SlotRepr::WinParam { rank, .. } | SlotRepr::Alias { rank, .. } if d < *rank => false,
            _ => true,
        }
    }

    /// Whether `e` writes as the literal `lit`.
    fn writes_as(&self, e: &LExpr, lit: i64) -> bool {
        match e {
            LExpr::Int(v) => *v == lit,
            LExpr::Stride {
                buf: LBufRef::Slot(s),
                dim,
            } => {
                let s = *s as usize;
                self.repr[s].is_tensor()
                    && match &self.repr[s] {
                        SlotRepr::AllocN { dims, .. } if dim + 1 < dims.len() => {
                            dim + 2 == dims.len() && self.writes_as(&dims[dim + 1], lit)
                        }
                        _ => lit == 1 && self.stride_is_one(s, *dim),
                    }
            }
            _ => false,
        }
    }

    /// Writes dimension `d`'s stride of a tensor slot: the hoisted
    /// constant of a dense argument (recording its use), the raw product
    /// of an allocation's trailing dimensions, a window's runtime stride,
    /// or `1`.
    fn stride(&mut self, slot: usize, d: usize) -> Result<()> {
        match self.repr[slot] {
            SlotRepr::DenseArg { dims, flags, .. } if d + 1 < dims.len() => {
                self.strides_used[flags + d] = true;
                w!(self, "{}_s{d}", self.names[slot]);
            }
            SlotRepr::AllocN { dims, .. } if d + 1 < dims.len() => {
                self.product(&dims[d + 1..], |this, e| this.expr(e, 0))?;
            }
            SlotRepr::WinParam { rank, .. } | SlotRepr::Alias { rank, .. } if d < rank => {
                w!(self, "{}.strides[{d}]", self.names[slot])
            }
            _ => self.put("1"),
        }
        Ok(())
    }

    /// Writes the product of `dims` (`1` when empty), each written by
    /// `write`, with parentheses only around composite factors.
    fn product<T>(
        &mut self,
        dims: &'a [T],
        mut write: impl FnMut(&mut Self, &'a T) -> Result<()>,
    ) -> Result<()> {
        if dims.is_empty() {
            self.put("1");
        }
        for (i, e) in dims.iter().enumerate() {
            if i > 0 {
                self.put(" * ");
            }
            let start = self.unit.out.len();
            write(self, e)?;
            let atom = self.unit.out[start..]
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_');
            if !atom {
                self.unit.out.insert(start, '(');
                self.put(")");
            }
        }
        Ok(())
    }

    /// The statically renderable extent of dimension `d` of a tensor
    /// slot: declared dimensions for dense arguments and allocations,
    /// recorded extents for window aliases, unknown for window parameters
    /// (whose ABI carries strides only).
    fn extent(&self, slot: usize, d: usize) -> Option<Extent<'a>> {
        match &self.repr[slot] {
            SlotRepr::DenseArg { dims, .. } => dims.get(d).map(Extent::Arg),
            SlotRepr::AllocN { dims, .. } => dims.get(d).map(Extent::Local),
            SlotRepr::Alias { extents, .. } => extents.get(d).copied().flatten(),
            _ => None,
        }
    }

    /// Post-narrowing extents of a lowered window form (debug-bounds mode
    /// only): interval extents that are pure index arithmetic; dimensions
    /// kept beyond the spec inherit the underlying tensor's extents.
    fn window_extents(&self, w: &'a LWindow) -> Result<Vec<Option<Extent<'a>>>> {
        Ok(match w {
            LWindow::Var { buf } => {
                let slot = self.tensor_slot(buf)?;
                let (_, rank) = self.elem_rank(slot)?;
                (0..rank).map(|d| self.extent(slot, d)).collect()
            }
            LWindow::Window { buf, spec } => {
                let slot = self.tensor_slot(buf)?;
                let (_, rank) = self.elem_rank(slot)?;
                let mut out: Vec<Option<Extent<'a>>> = spec
                    .iter()
                    .filter_map(|wd| match wd {
                        LWSpec::Interval { extent, .. } => {
                            Some(self.lexpr_pure(extent).then_some(Extent::Local(extent)))
                        }
                        LWSpec::Point(_) => None,
                    })
                    .collect();
                out.extend((spec.len()..rank).map(|d| self.extent(slot, d)));
                out
            }
            LWindow::PointRead { .. } | LWindow::NotATensor { .. } => Vec::new(),
        })
    }

    /// Writes `buf[i0, i1, ...]` as a C lvalue/rvalue.
    fn element(&mut self, slot: usize, idx: &'a [LExpr]) -> Result<()> {
        let (_, rank) = self.elem_rank(slot)?;
        if idx.is_empty() {
            if rank != 0 {
                return Err(CodegenError::Unsupported(format!(
                    "scalar access to rank-{rank} tensor `{}`",
                    self.names[slot]
                )));
            }
            if !matches!(self.repr[slot], SlotRepr::Alloc0(_)) {
                self.put("*");
                return self.data_ptr(slot);
            }
            self.name(slot);
            return Ok(());
        }
        if idx.len() != rank {
            return Err(CodegenError::Unsupported(format!(
                "rank-{rank} tensor `{}` indexed with {} indices",
                self.names[slot],
                idx.len()
            )));
        }
        let checked =
            self.unit.opts.debug_bounds && self.unproven.contains(&self.lp.slot_names()[slot]);
        let data = match self.repr[slot] {
            SlotRepr::WinParam { .. } | SlotRepr::Alias { .. } => ".data",
            _ => "",
        };
        w!(self, "{}{data}[", self.names[slot]);
        for (d, i) in idx.iter().enumerate() {
            if d > 0 {
                self.put(" + ");
            }
            let unit_stride = self.stride_is_one(slot, d);
            // Debug-bounds mode routes each index with a known extent
            // through the assert-backed `exo_bnd` helper.
            match checked.then(|| self.extent(slot, d)).flatten() {
                Some(extent) => {
                    self.unit.facts.need_bound = true;
                    self.put("exo_bnd(");
                    self.expr(i, 0)?;
                    self.put(", ");
                    match extent {
                        Extent::Arg(e) => self.dim(e, 0)?,
                        Extent::Local(e) => self.expr(e, 0)?,
                    }
                    self.put(")");
                }
                None => self.expr(i, if unit_stride { 70 } else { 80 })?,
            }
            if !unit_stride {
                self.put(" * ");
                self.stride(slot, d)?;
            }
        }
        self.put("]");
        Ok(())
    }

    // ================================================================
    // Expressions
    // ================================================================

    /// Precedence of the text [`Self::expr`] writes for `e`.
    fn prec(&self, e: &LExpr) -> u8 {
        match e {
            LExpr::Int(v) if *v < 0 => PREFIX,
            LExpr::Float(v) if *v < 0.0 => PREFIX,
            LExpr::Var(LBufRef::Slot(s)) => self.var_prec(*s as usize),
            LExpr::Read {
                buf: LBufRef::Slot(s),
                idx,
            } if idx.is_empty() && !self.repr[*s as usize].is_tensor() => {
                self.var_prec(*s as usize)
            }
            LExpr::Bin { op, lhs, rhs } => match op {
                BinOp::Div | BinOp::Mod if self.both_int(lhs, rhs) => ATOM,
                BinOp::Div => 80,
                BinOp::Mod => ATOM,
                _ => c_binop(*op).1,
            },
            LExpr::Un { .. } => PREFIX,
            LExpr::Stride { .. } => 0,
            _ => ATOM,
        }
    }

    fn var_prec(&self, slot: usize) -> u8 {
        match self.repr[slot] {
            SlotRepr::Ptr0(_)
            | SlotRepr::ScalarRef(_)
            | SlotRepr::WinParam { rank: 0, .. }
            | SlotRepr::Alias { rank: 0, .. } => PREFIX,
            _ => ATOM,
        }
    }

    /// Value class of `e` (what decides `/` and `%`).
    fn class(&self, e: &LExpr) -> CClass {
        match e {
            LExpr::Int(_) | LExpr::Stride { .. } => CClass::Int,
            LExpr::Bool(_) => CClass::Bool,
            LExpr::Var(LBufRef::Slot(s)) => self.var_class(*s as usize),
            LExpr::Read {
                buf: LBufRef::Slot(s),
                idx,
            } if idx.is_empty() && !self.repr[*s as usize].is_tensor() => {
                self.var_class(*s as usize)
            }
            LExpr::Bin { op, lhs, rhs } => {
                let both_int = self.both_int(lhs, rhs);
                if matches!(op, BinOp::Div | BinOp::Mod) {
                    if both_int {
                        CClass::Int
                    } else {
                        CClass::Float
                    }
                } else if op.is_predicate() {
                    CClass::Bool
                } else if both_int {
                    CClass::Int
                } else {
                    CClass::Float
                }
            }
            LExpr::Un { op: UnOp::Neg, arg } => self.class(arg),
            LExpr::Un { op: UnOp::Not, .. } => CClass::Bool,
            _ => CClass::Float,
        }
    }

    fn var_class(&self, slot: usize) -> CClass {
        match self.repr[slot] {
            SlotRepr::Size | SlotRepr::Iter => CClass::Int,
            // A written scalar parameter's class follows the declared
            // type, like a by-value one (an integer-typed by-reference
            // write-back would diverge from the interpreter's all-f64
            // element model on `/` — floats, the only type the idiom is
            // used with, agree either way).
            SlotRepr::ScalarParam(ty) | SlotRepr::ScalarRef(ty) => class_of_type(ty),
            _ => CClass::Float,
        }
    }

    fn both_int(&self, lhs: &LExpr, rhs: &LExpr) -> bool {
        self.class(lhs) == CClass::Int && self.class(rhs) == CClass::Int
    }

    /// Writes `e` as an operand of an operator with precedence `p`:
    /// parenthesized when its own precedence is lower.
    fn expr(&mut self, e: &'a LExpr, p: u8) -> Result<()> {
        if self.prec(e) < p {
            self.put("(");
            self.expr_bare(e)?;
            self.put(")");
            Ok(())
        } else {
            self.expr_bare(e)
        }
    }

    fn expr_bare(&mut self, e: &'a LExpr) -> Result<()> {
        match e {
            LExpr::Int(v) => w!(self, "{v}"),
            LExpr::Float(v) => self.float_literal(*v),
            LExpr::Bool(b) => {
                self.unit.facts.need_bool = true;
                self.put(if *b { "true" } else { "false" });
            }
            LExpr::Var(buf) => self.var_value(buf)?,
            LExpr::Read { buf, idx } => {
                let slot = match buf {
                    LBufRef::Unbound(n) => return Err(CodegenError::Unbound(n.to_string())),
                    LBufRef::Slot(s) => *s as usize,
                };
                if idx.is_empty() && !self.repr[slot].is_tensor() {
                    // An index-free read of a scalar binding behaves like
                    // a variable occurrence (the executor does the same).
                    return self.var_value(buf);
                }
                if !self.repr[slot].is_tensor() {
                    return Err(CodegenError::Unsupported(format!(
                        "`{}` read as a tensor",
                        self.names[slot]
                    )));
                }
                // Buffer elements are Float-class regardless of storage
                // type: the interpreter models every element as f64.
                self.element(slot, idx)?;
            }
            LExpr::WindowInScalar => {
                return Err(CodegenError::Unsupported(
                    "window expression in scalar context".to_string(),
                ))
            }
            LExpr::Bin { op, lhs, rhs } => self.binop(*op, lhs, rhs)?,
            LExpr::Un { op, arg } => match op {
                // A nested negation is parenthesized: `-(-n)` must not
                // fuse into C's predecrement `--n`.
                UnOp::Neg => {
                    self.put("-");
                    self.expr(arg, PREFIX + 1)?;
                }
                UnOp::Not => {
                    self.unit.facts.need_bool = true;
                    self.put("!");
                    self.expr(arg, PREFIX)?;
                }
            },
            LExpr::Stride { buf, dim } => {
                let slot = self.tensor_slot(buf)?;
                self.stride(slot, *dim)?;
            }
            LExpr::ReadConfig { config, field } => self.config_var(config, field),
        }
        Ok(())
    }

    fn var_value(&mut self, buf: &LBufRef) -> Result<()> {
        let slot = match buf {
            LBufRef::Unbound(n) => return Err(CodegenError::Unbound(n.to_string())),
            LBufRef::Slot(s) => *s as usize,
        };
        match &self.repr[slot] {
            SlotRepr::Size | SlotRepr::Iter | SlotRepr::ScalarParam(_) | SlotRepr::Alloc0(_) => {
                self.name(slot)
            }
            // Rank-0 tensors in scalar position read their single element;
            // a written scalar parameter reads through its pointer.
            SlotRepr::Ptr0(_) | SlotRepr::ScalarRef(_) => w!(self, "*{}", self.names[slot]),
            SlotRepr::WinParam { rank: 0, .. } | SlotRepr::Alias { rank: 0, .. } => {
                w!(self, "*{}.data", self.names[slot])
            }
            other => {
                return Err(CodegenError::Unsupported(format!(
                    "tensor `{}` ({other:?}) used in a scalar context",
                    self.names[slot]
                )))
            }
        }
        Ok(())
    }

    fn binop(&mut self, op: BinOp, lhs: &'a LExpr, rhs: &'a LExpr) -> Result<()> {
        match op {
            BinOp::Div | BinOp::Mod if self.both_int(lhs, rhs) => {
                if op == BinOp::Div {
                    self.unit.facts.need_div = true;
                    self.put("exo_div_euclid(");
                } else {
                    self.unit.facts.need_mod = true;
                    self.put("exo_mod_euclid(");
                }
                self.call2(lhs, rhs)
            }
            // Value-class division/modulo follow the interpreter's f64
            // semantics: promote explicitly so an integer-typed element
            // (interpreted as a float value) cannot truncate.
            BinOp::Div => {
                self.put("(double)");
                self.expr(lhs, 81)?;
                self.put(" / (double)");
                self.expr(rhs, 81)
            }
            BinOp::Mod => {
                self.unit.facts.need_fmod = true;
                self.unit.facts.need_math = true;
                self.put("exo_fmod_euclid(");
                self.call2(lhs, rhs)
            }
            _ => {
                // All the remaining operators are left-associative in C.
                let (sym, prec) = c_binop(op);
                self.expr(lhs, prec)?;
                w!(self, " {sym} ");
                self.expr(rhs, prec + 1)
            }
        }
    }

    /// Writes `lhs, rhs)`: the arguments of a two-operand helper call.
    fn call2(&mut self, lhs: &'a LExpr, rhs: &'a LExpr) -> Result<()> {
        self.expr(lhs, 0)?;
        self.put(", ");
        self.expr(rhs, 0)?;
        self.put(")");
        Ok(())
    }

    fn float_literal(&mut self, v: f64) {
        if v.is_nan() {
            self.unit.facts.need_math = true;
            self.put("NAN");
        } else if v.is_infinite() {
            self.unit.facts.need_math = true;
            self.put(if v > 0.0 { "INFINITY" } else { "-INFINITY" });
        } else {
            self.put(&format_float(v));
        }
    }

    /// Whether a lowered expression is pure index arithmetic: free of
    /// buffer and config-register reads (including rank-0 tensors in
    /// scalar position), so re-evaluating it mid-loop cannot change its
    /// value.
    fn lexpr_pure(&self, e: &LExpr) -> bool {
        match e {
            LExpr::Int(_) | LExpr::Float(_) | LExpr::Bool(_) | LExpr::Stride { .. } => true,
            LExpr::Var(LBufRef::Slot(s)) => matches!(
                self.repr[*s as usize],
                SlotRepr::Size | SlotRepr::ScalarParam(_) | SlotRepr::Iter
            ),
            LExpr::Var(LBufRef::Unbound(_)) => true, // errors before looping
            LExpr::Read { .. } | LExpr::ReadConfig { .. } | LExpr::WindowInScalar => false,
            LExpr::Bin { lhs, rhs, .. } => self.lexpr_pure(lhs) && self.lexpr_pure(rhs),
            LExpr::Un { arg, .. } => self.lexpr_pure(arg),
        }
    }

    fn config_var(&mut self, config: &str, field: &str) {
        self.unit.facts.config(config, field);
        w!(self, "exo_cfg_{}_{}", sanitized(config), sanitized(field));
    }

    // ================================================================
    // Statements
    // ================================================================

    /// Starts a line at the current indentation.
    fn start_line(&mut self) {
        for _ in 0..self.indent {
            self.unit.out.push_str("    ");
        }
    }

    /// Writes one whole line at the current indentation.
    fn line(&mut self, s: &str) {
        self.start_line();
        self.put(s);
        self.put("\n");
    }

    /// Emits one lowered block, recursing into loop and branch bodies.
    fn emit_block(&mut self, block: &'a [LInst]) -> Result<()> {
        for inst in block {
            match inst {
                LInst::Assign { buf, idx, rhs } | LInst::Reduce { buf, idx, rhs } => {
                    let slot = self.tensor_slot(buf)?;
                    self.start_line();
                    self.element(slot, idx)?;
                    self.put(if matches!(inst, LInst::Assign { .. }) {
                        " = "
                    } else {
                        " += "
                    });
                    self.expr(rhs, 0)?;
                    self.put(";\n");
                }
                LInst::Alloc { slot, ty, dims, .. } => {
                    let slot = *slot as usize;
                    self.start_line();
                    w!(self, "{} {}", c_type(*ty), self.names[slot]);
                    if dims.is_empty() {
                        self.put(" = 0;\n");
                    } else {
                        // Declared *flat* (one dimension, the element
                        // count) because every access linearizes through
                        // the row-major strides — a multi-dimensional C
                        // array type would not match those accesses.
                        self.put("[");
                        self.product(dims, |this, e| this.expr(e, 0))?;
                        self.put("];\n");
                        // Zero-initialize like the interpreter's
                        // `BufferData::zeros` (memset also covers VLAs).
                        self.unit.facts.need_string = true;
                        self.start_line();
                        w!(self, "memset({0}, 0, sizeof {0});\n", self.names[slot]);
                    }
                }
                LInst::Loop {
                    iter,
                    lo,
                    hi,
                    body,
                    parallel,
                    ..
                } => {
                    let it = *iter as usize;
                    // Work-sharing pragma only for loops the region
                    // analysis certified thread-safe (keyed by *source*
                    // name — the mangled slot name may be suffixed).
                    let omp = *parallel
                        && self
                            .lp
                            .slot_names()
                            .get(it)
                            .is_some_and(|src| self.omp_loops.contains(src));
                    if *parallel && !omp {
                        self.line("/* exo: parallel loop (iterations are independent) */");
                    }
                    // The executor evaluates the upper bound once at loop
                    // entry; a bound that reads mutable state (a buffer
                    // element or config register) must therefore be
                    // hoisted, not re-evaluated per iteration. Pure
                    // bounds stay inline for readability. (`exo_`-prefixed
                    // locals cannot collide: the mangler never produces
                    // that prefix for user names.)
                    let hoist = !self.lexpr_pure(hi);
                    if hoist {
                        self.line("{");
                        self.indent += 1;
                        self.start_line();
                        w!(self, "const int64_t exo_hi_{iter} = ");
                        self.expr(hi, 0)?;
                        self.put(";\n");
                    }
                    if omp {
                        // The pragma must immediately precede the `for`
                        // statement (after any hoisted bound). `-fopenmp`
                        // is mandatory from here on: under `-Wall
                        // -Werror` an unconsumed pragma is fatal via
                        // -Wunknown-pragmas.
                        self.unit.facts.cflag("-fopenmp");
                        self.line("#pragma omp parallel for");
                    }
                    self.start_line();
                    w!(self, "for (int64_t {} = ", self.names[it]);
                    self.expr(lo, 0)?;
                    w!(self, "; {} < ", self.names[it]);
                    if hoist {
                        w!(self, "exo_hi_{iter}");
                    } else {
                        self.expr(hi, 61)?;
                    }
                    w!(self, "; {}++) {{\n", self.names[it]);
                    self.indent += 1;
                    self.emit_block(body)?;
                    self.indent -= 1;
                    self.line("}");
                    if hoist {
                        self.indent -= 1;
                        self.line("}");
                    }
                }
                LInst::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.start_line();
                    self.put("if (");
                    self.expr(cond, 0)?;
                    self.put(") {\n");
                    self.indent += 1;
                    self.emit_block(then_body)?;
                    self.indent -= 1;
                    if !else_body.is_empty() {
                        self.line("} else {");
                        self.indent += 1;
                        self.emit_block(else_body)?;
                        self.indent -= 1;
                    }
                    self.line("}");
                }
                LInst::Call { callee, args } => {
                    self.start_line();
                    self.call(callee, args)?;
                    self.put("\n");
                }
                LInst::Pass => self.line(";"),
                LInst::WriteConfig {
                    config,
                    field,
                    value,
                } => {
                    self.start_line();
                    self.config_var(config, field);
                    self.put(" = ");
                    self.expr(value, 0)?;
                    self.put(";\n");
                }
                LInst::WindowBind { slot, rhs } => {
                    let (elem, rank) = self.window_shape(rhs)?;
                    let sname = self.unit.win_struct(rank, elem);
                    self.start_line();
                    w!(self, "struct {sname} {} = ", self.names[*slot as usize]);
                    self.window_literal(rhs, rank, elem)?;
                    self.put(";\n");
                }
            }
        }
        Ok(())
    }

    /// Number of strides a lowered window keeps, rejecting a window with
    /// more dimensions than its tensor.
    fn window_kept(&self, w: &LWindow) -> Result<usize> {
        match w {
            LWindow::Window { buf, spec } => {
                let slot = self.tensor_slot(buf)?;
                let (_, rank) = self.elem_rank(slot)?;
                if spec.len() > rank {
                    return Err(CodegenError::Unsupported(format!(
                        "window of rank-{rank} tensor `{}` with {} dimensions",
                        self.names[slot],
                        spec.len()
                    )));
                }
                Ok(self.window_shape(w)?.1)
            }
            _ => Ok(self.window_shape(w)?.1),
        }
    }

    /// Writes a lowered window's base pointer.
    fn window_ptr(&mut self, w: &'a LWindow) -> Result<()> {
        match w {
            LWindow::Var { buf } => {
                let slot = self.tensor_slot(buf)?;
                self.data_ptr(slot)
            }
            LWindow::PointRead { buf, idx } => {
                let slot = self.tensor_slot(buf)?;
                self.put("&");
                self.element(slot, idx)
            }
            LWindow::Window { buf, spec } => {
                self.window_kept(w)?;
                let slot = self.tensor_slot(buf)?;
                let lo = |wd: &'a LWSpec| match wd {
                    LWSpec::Point(e) | LWSpec::Interval { lo: e, .. } => e,
                };
                // A literal-zero offset contributes nothing.
                if spec.iter().all(|wd| self.writes_as(lo(wd), 0)) {
                    return self.data_ptr(slot);
                }
                self.put("&");
                self.data_ptr(slot)?;
                self.put("[");
                let mut first = true;
                for (d, wd) in spec.iter().enumerate() {
                    let e = lo(wd);
                    if self.writes_as(e, 0) {
                        continue;
                    }
                    if !first {
                        self.put(" + ");
                    }
                    first = false;
                    if self.stride_is_one(slot, d) {
                        self.expr(e, 70)?;
                    } else {
                        self.expr(e, 80)?;
                        self.put(" * ");
                        self.stride(slot, d)?;
                    }
                }
                self.put("]");
                Ok(())
            }
            LWindow::NotATensor { display } => Err(CodegenError::Unsupported(format!(
                "expression `{display}` used as a tensor argument"
            ))),
        }
    }

    /// Writes the strides a lowered window keeps, comma-separated: every
    /// dimension but the points of its spec.
    fn window_strides(&mut self, w: &LWindow) -> Result<()> {
        let (slot, spec): (usize, &[LWSpec]) = match w {
            LWindow::Var { buf } => (self.tensor_slot(buf)?, &[]),
            LWindow::Window { buf, spec } => (self.tensor_slot(buf)?, spec),
            LWindow::PointRead { .. } | LWindow::NotATensor { .. } => return Ok(()),
        };
        let mut first = true;
        for d in 0..self.repr[slot].rank().unwrap_or(0) {
            if matches!(spec.get(d), Some(LWSpec::Point(_))) {
                continue;
            }
            if !first {
                self.put(", ");
            }
            first = false;
            self.stride(slot, d)?;
        }
        Ok(())
    }

    /// Writes a `{ ptr, { strides } }` window initializer.
    fn window_literal(&mut self, w: &'a LWindow, rank: usize, elem: DataType) -> Result<()> {
        let kept = self.window_kept(w)?;
        if kept != rank {
            return Err(CodegenError::Unsupported(format!(
                "window has rank {kept} where rank {rank} is expected"
            )));
        }
        self.unit.win_struct(rank, elem);
        self.put("{ ");
        self.window_ptr(w)?;
        if rank > 0 {
            self.put(", { ");
            self.window_strides(w)?;
            self.put(" }");
        }
        self.put(" }");
        Ok(())
    }

    /// Writes `callee(args);`.
    fn call(&mut self, callee: &str, args: &'a [LCallArg]) -> Result<()> {
        let registry: &'a ProcRegistry = self.unit.registry;
        let callee_proc = registry
            .get(callee)
            .ok_or_else(|| CodegenError::UnknownCallee(callee.to_string()))?;
        if args.len() != callee_proc.args().len() {
            return Err(CodegenError::Unsupported(format!(
                "call to `{callee}` passes {} arguments, expected {}",
                args.len(),
                callee_proc.args().len()
            )));
        }
        self.put(callee);
        self.put("(");
        for (i, (param, arg)) in callee_proc.args().iter().zip(args).enumerate() {
            if i > 0 {
                self.put(", ");
            }
            self.call_arg(callee, callee_proc, param, arg)?;
        }
        self.put(");");
        Ok(())
    }

    fn call_arg(
        &mut self,
        callee: &str,
        callee_proc: &'a Proc,
        param: &exo_ir::ProcArg,
        arg: &'a LCallArg,
    ) -> Result<()> {
        match &param.kind {
            ArgKind::Size => self.expr(&arg.scalar, 0),
            ArgKind::Scalar { ty } => {
                // The interpreter's by-reference idiom: a rank-0 tensor
                // passed to a scalar parameter. A written parameter is a
                // pointer in C (`ScalarRef`), so the callsite passes the
                // element's address; an unwritten one stays by-value.
                let written = self.unit.writes_scalar(callee_proc, &param.name);
                if let LWindow::Var {
                    buf: LBufRef::Slot(s),
                } = &arg.window
                {
                    let s = *s as usize;
                    if self.repr[s].is_tensor() {
                        if self.repr[s].rank() == Some(0) {
                            if written {
                                return self.data_ptr(s);
                            }
                            if matches!(self.repr[s], SlotRepr::Alloc0(_)) {
                                self.name(s);
                                return Ok(());
                            }
                            self.put("*");
                            return self.data_ptr(s);
                        }
                        if written {
                            // A rank-≥1 tensor bound by reference to a
                            // written scalar parameter traps in the
                            // interpreter on the write (rank mismatch);
                            // there is no C shape for it.
                            return Err(CodegenError::Unsupported(format!(
                                "`{}` passes tensor `{}` by reference to scalar \
                                 parameter `{}` of `{callee}`, which writes it",
                                self.proc.name(),
                                self.names[s],
                                param.name
                            )));
                        }
                    }
                }
                if written {
                    // The callee expects a pointer but the argument is a
                    // plain scalar expression: materialize an addressable
                    // C99 compound-literal temporary. The interpreter
                    // traps if such a write actually executes (scalar
                    // bindings are not writable), so agreement on
                    // interpreter-successful runs is preserved.
                    w!(self, "&({}){{ ", c_type(*ty));
                    self.expr(&arg.scalar, 0)?;
                    self.put(" }");
                    Ok(())
                } else {
                    self.expr(&arg.scalar, 0)
                }
            }
            ArgKind::Tensor {
                ty, dims, window, ..
            } => {
                if dims.is_empty() {
                    // Rank-0 tensor parameter: pass a pointer.
                    return match &arg.window {
                        LWindow::Var { buf } => {
                            let slot = self.tensor_slot(buf)?;
                            self.data_ptr(slot)
                        }
                        other => self.window_ptr(other),
                    };
                }
                let rank = dims.len();
                if *window {
                    let (_, actual_rank) = self.window_shape(&arg.window)?;
                    if actual_rank != rank {
                        return Err(CodegenError::Unsupported(format!(
                            "call to `{callee}` passes a rank-{actual_rank} window where \
                             parameter `{}` has rank {rank}",
                            param.name
                        )));
                    }
                    let sname = self.unit.win_struct(rank, *ty);
                    w!(self, "(struct {sname})");
                    self.window_literal(&arg.window, rank, *ty)
                } else {
                    // A dense (non-window) tensor parameter: the callee
                    // recomputes strides from its declared dimensions, so
                    // only a whole dense tensor of the same rank is safe.
                    match &arg.window {
                        LWindow::Var { buf } => {
                            let slot = self.tensor_slot(buf)?;
                            match &self.repr[slot] {
                                SlotRepr::DenseArg { dims, .. } if dims.len() == rank => {
                                    self.data_ptr(slot)
                                }
                                SlotRepr::AllocN { dims, .. } if dims.len() == rank => {
                                    self.data_ptr(slot)
                                }
                                other => Err(CodegenError::Unsupported(format!(
                                    "call to `{callee}` passes `{}` ({other:?}) to dense \
                                     tensor parameter `{}`; only whole dense tensors of \
                                     equal rank can be passed without a window parameter",
                                    self.names[slot], param.name
                                ))),
                            }
                        }
                        _ => Err(CodegenError::Unsupported(format!(
                            "call to `{callee}` passes a window to dense tensor \
                             parameter `{}`; declare the parameter as a window",
                            param.name
                        ))),
                    }
                }
            }
        }
    }

    // ================================================================
    // Whole function
    // ================================================================

    /// Writes `[static ]void name(params) {` and its newline.
    fn signature(&mut self, is_root: bool) -> Result<()> {
        let linkage = if is_root { "" } else { "static " };
        w!(self, "{linkage}void {}(", self.proc.name());
        if self.lp.args().is_empty() {
            self.put("void");
        }
        for (i, larg) in self.lp.args().iter().enumerate() {
            if i > 0 {
                self.put(", ");
            }
            let slot = larg.slot as usize;
            let name = &self.names[slot];
            match self.repr[slot] {
                SlotRepr::Size => w!(self, "int64_t {name}"),
                SlotRepr::ScalarParam(ty) => {
                    self.unit.facts.need_bool |= ty == DataType::Bool;
                    w!(self, "{} {name}", c_type(ty));
                }
                SlotRepr::ScalarRef(ty) => {
                    self.unit.facts.need_bool |= ty == DataType::Bool;
                    w!(self, "{} *{name}", c_type(ty));
                }
                SlotRepr::Ptr0(ty) | SlotRepr::DenseArg { elem: ty, .. } => {
                    w!(self, "{} *{name}", c_type(ty))
                }
                SlotRepr::WinParam { elem, rank } => {
                    let sname = self.unit.win_struct(rank, elem);
                    w!(self, "struct {sname} {name}");
                }
                ref other => {
                    return Err(CodegenError::Unsupported(format!(
                        "parameter `{name}` has a local representation ({other:?})"
                    )))
                }
            }
        }
        self.put(") {\n");
        Ok(())
    }

    /// Writes the whole function: signature, assume comments, stride
    /// constants, body.
    fn emit(mut self, is_root: bool, intrinsic: Option<exo_machine::CIntrinsic>) -> Result<()> {
        self.signature(is_root)?;
        // Assertion preconditions become assume-style comments: the
        // emitted code relies on them the same way the schedule did.
        for (_, src) in self.lp.preds() {
            self.put("    /* assume: ");
            for (i, part) in src.split("*/").enumerate() {
                if i > 0 {
                    self.put("* /");
                }
                self.put(part);
            }
            self.put(" */\n");
        }
        if let Some(intr) = intrinsic {
            for inc in &intr.includes {
                self.unit.facts.include(inc);
            }
            for flag in &intr.cflags {
                self.unit.facts.cflag(flag);
            }
            self.put(
                "    /* machine intrinsic lowering (windows assumed unit-stride \
                 in the last dimension) */\n",
            );
            for line in intr.body.lines() {
                self.put("    ");
                self.put(line);
                self.put("\n");
            }
        } else {
            let body_at = self.unit.out.len();
            self.emit_block(self.lp.code())?;
            if self.unit.out.len() == body_at {
                self.put("    ;\n");
            }
            self.declare_strides(body_at)?;
        }
        self.put("}\n");
        Ok(())
    }

    /// Declares the stride constants of dense arguments the body wrote —
    /// the emitted mirror of the executor's `AccessPlan` — in slot order,
    /// in front of the body that starts at `body_at`.
    fn declare_strides(&mut self, body_at: usize) -> Result<()> {
        let end = self.unit.out.len();
        for slot in 0..self.repr.len() {
            let SlotRepr::DenseArg { dims, flags, .. } = self.repr[slot] else {
                continue;
            };
            for d in 0..dims.len().saturating_sub(1) {
                if self.strides_used[flags + d] {
                    w!(self, "    const int64_t {}_s{d} = ", self.names[slot]);
                    self.product(&dims[d + 1..], |this, e| this.dim(e, 0))?;
                    self.put(";\n");
                }
            }
        }
        if self.unit.out.len() > end {
            let unit = &mut *self.unit;
            unit.scratch.clear();
            unit.scratch.push_str(&unit.out[end..]);
            unit.out.truncate(end);
            unit.out.insert_str(body_at, &unit.scratch);
        }
        Ok(())
    }
}

impl UnitEmitter<'_> {
    fn win_struct(&mut self, rank: usize, elem: DataType) -> WinStruct {
        let tag = exo_machine::c_type_tag(elem);
        self.facts.win_structs.insert((rank, tag), c_type(elem));
        WinStruct { rank, tag }
    }
}

/// The name of a window struct, `exo_win_{rank}{tag}`.
struct WinStruct {
    rank: usize,
    tag: &'static str,
}

impl std::fmt::Display for WinStruct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exo_win_{}{}", self.rank, self.tag)
    }
}

/// Static stride knowledge about a tensor-like frame slot, for the
/// unit-stride verdict on machine-intrinsic callsites.
#[derive(Clone, Copy, Debug)]
struct StrideFact {
    /// Post-narrowing rank.
    rank: usize,
    /// Whether the last dimension's stride is provably 1.
    last_unit: bool,
}

/// Stride fact of a lowered window form, derived from the facts of the
/// underlying slots.
fn window_fact(facts: &[Option<StrideFact>], w: &LWindow) -> Option<StrideFact> {
    match w {
        LWindow::Var {
            buf: LBufRef::Slot(s),
        } => facts[*s as usize],
        LWindow::PointRead { .. } => Some(StrideFact {
            rank: 0,
            last_unit: true,
        }),
        LWindow::Window {
            buf: LBufRef::Slot(s),
            spec,
        } => {
            let under = facts[*s as usize]?;
            let kept = spec
                .iter()
                .filter(|wd| matches!(wd, LWSpec::Interval { .. }))
                .count();
            let last_kept = spec
                .iter()
                .rposition(|wd| matches!(wd, LWSpec::Interval { .. }));
            let beyond = under.rank.saturating_sub(spec.len());
            let rank = kept + beyond;
            let last_unit = if rank == 0 {
                true
            } else if beyond > 0 {
                // The window's last dimension is the buffer's own.
                under.last_unit
            } else {
                // The spec covers every dimension: the window's last
                // dimension is unit-stride only if it is the buffer's
                // last (row-major contiguous) dimension.
                last_kept.is_some() && last_kept == under.rank.checked_sub(1) && under.last_unit
            };
            Some(StrideFact { rank, last_unit })
        }
        _ => None,
    }
}

/// Whether every rank-≥1 window argument of a call to an instruction
/// procedure is provably unit-stride in its last dimension. Unknown
/// facts count as non-unit: the scalar body is always safe.
fn args_unit_stride(facts: &[Option<StrideFact>], callee: &Proc, args: &[LCallArg]) -> bool {
    for (param, arg) in callee.args().iter().zip(args) {
        let ArgKind::Tensor { dims, .. } = &param.kind else {
            continue;
        };
        if dims.is_empty() {
            continue;
        }
        match window_fact(facts, &arg.window) {
            Some(f) if f.rank == 0 || f.last_unit => {}
            _ => return false,
        }
    }
    true
}
