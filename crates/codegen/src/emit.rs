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

use crate::mangle::{is_c_identifier, is_c_reserved, sanitize};
use crate::{CUnit, CodegenError, CodegenOptions, Result};
use exo_interp::{LBufRef, LCallArg, LExpr, LInst, LWSpec, LWindow, LoweredProc, ProcRegistry};
use exo_ir::{format_float, ArgKind, BinOp, DataType, Expr, Proc, Sym, UnOp};
use std::collections::{BTreeMap, BTreeSet};

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

/// A rendered C expression with enough precedence information to insert
/// minimal parentheses.
struct CExpr {
    s: String,
    prec: u8,
    class: CClass,
}

impl CExpr {
    fn atom(s: impl Into<String>, class: CClass) -> CExpr {
        CExpr {
            s: s.into(),
            prec: 100,
            class,
        }
    }

    /// Renders for use as an operand of an operator with precedence `p`.
    fn at(&self, p: u8) -> String {
        if self.prec < p {
            format!("({})", self.s)
        } else {
            self.s.clone()
        }
    }
}

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

/// How a frame slot is represented in C.
#[derive(Clone, Debug)]
enum SlotRepr {
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
    /// declared dimension expressions.
    DenseArg {
        elem: DataType,
        /// Per-dimension extents as C expressions.
        dims: Vec<String>,
    },
    /// A window parameter: `struct exo_win_{rank}{tag}`.
    WinParam { elem: DataType, rank: usize },
    /// A rank-0 local allocation: a scalar variable.
    Alloc0(DataType),
    /// A rank-`n` local allocation: a (possibly variable-length) array.
    AllocN { elem: DataType, dims: Vec<String> },
    /// A window alias bound by a `WindowStmt`: a local window struct.
    Alias {
        elem: DataType,
        rank: usize,
        /// Per-kept-dimension extents as C expressions, populated only
        /// under [`CodegenOptions::debug_bounds`]; `None` for dimensions
        /// whose extent is not statically renderable (e.g. inherited
        /// from a window parameter, whose ABI carries strides only).
        extents: Vec<Option<String>>,
    },
}

impl SlotRepr {
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
            SlotRepr::DenseArg { dims, .. } | SlotRepr::AllocN { dims, .. } => Some(dims.len()),
            SlotRepr::WinParam { rank, .. } | SlotRepr::Alias { rank, .. } => Some(*rank),
            _ => None,
        }
    }

    fn is_tensor(&self) -> bool {
        self.elem().is_some()
    }
}

/// Shared translation-unit state: includes, window structs, helper and
/// config-register usage, accumulated function definitions.
pub(crate) struct UnitEmitter<'a> {
    registry: &'a ProcRegistry,
    opts: &'a CodegenOptions,
    funcs: Vec<String>,
    emitted: BTreeSet<String>,
    emitting: Vec<String>,
    /// (rank, tag) → C element type, for the window struct definitions.
    win_structs: BTreeMap<(usize, &'static str), &'static str>,
    /// (config, field) pairs backed by `static double` globals.
    configs: BTreeSet<(String, String)>,
    /// Per-procedure cache of the written-scalar-parameter analysis.
    written_cache: BTreeMap<String, BTreeSet<Sym>>,
    /// Instruction procedures with at least one callsite in this unit
    /// passing a window that is not provably unit-stride in its last
    /// dimension. Their intrinsic bodies (which index `.data` assuming
    /// unit stride) would be silently wrong, so they are demoted to their
    /// portable scalar bodies even in intrinsic mode.
    scalar_fallback_instrs: BTreeSet<String>,
    includes: BTreeSet<String>,
    cflags: BTreeSet<String>,
    need_div: bool,
    need_mod: bool,
    need_fmod: bool,
    need_math: bool,
    need_string: bool,
    need_bool: bool,
    need_bound: bool,
}

impl<'a> UnitEmitter<'a> {
    pub(crate) fn new(registry: &'a ProcRegistry, opts: &'a CodegenOptions) -> Self {
        UnitEmitter {
            registry,
            opts,
            funcs: Vec::new(),
            emitted: BTreeSet::new(),
            emitting: Vec::new(),
            win_structs: BTreeMap::new(),
            configs: BTreeSet::new(),
            written_cache: BTreeMap::new(),
            scalar_fallback_instrs: BTreeSet::new(),
            includes: BTreeSet::new(),
            cflags: BTreeSet::new(),
            need_div: false,
            need_mod: false,
            need_fmod: false,
            need_math: false,
            need_string: false,
            need_bool: false,
            need_bound: false,
        }
    }

    /// The set of **scalar** parameters of `proc` that its body writes —
    /// directly (an assign/reduce targeting the parameter) or
    /// transitively (forwarding the parameter to a nested call whose
    /// matching scalar parameter is itself written). A written scalar
    /// parameter lowers to a pointer ([`SlotRepr::ScalarRef`]), which is
    /// what makes the interpreter's by-reference rank-0 write-back idiom
    /// emit valid C. Cached per procedure name.
    fn written_scalar_params(&mut self, proc: &Proc) -> BTreeSet<Sym> {
        if let Some(hit) = self.written_cache.get(proc.name()) {
            return hit.clone();
        }
        // Seed with the empty set so recursive call cycles terminate
        // (cycles are rejected with `Unsupported` during emission).
        self.written_cache
            .insert(proc.name().to_string(), BTreeSet::new());
        let scalar_params: BTreeSet<Sym> = proc
            .args()
            .iter()
            .filter(|a| matches!(a.kind, ArgKind::Scalar { .. }))
            .map(|a| a.name.clone())
            .collect();
        let mut written = BTreeSet::new();
        let mut calls: Vec<(String, Vec<Expr>)> = Vec::new();
        for stmt in proc.body().iter() {
            exo_ir::for_each_stmt(stmt, &mut |s| match s {
                exo_ir::Stmt::Assign { buf, .. } | exo_ir::Stmt::Reduce { buf, .. }
                    if scalar_params.contains(buf) =>
                {
                    written.insert(buf.clone());
                }
                exo_ir::Stmt::Call { proc, args } => {
                    calls.push((proc.clone(), args.clone()));
                }
                _ => {}
            });
        }
        for (callee, args) in calls {
            // An unknown callee errors out of emission before the
            // analysis result matters; skip it here.
            let Some(callee_proc) = self.registry.get(&callee).cloned() else {
                continue;
            };
            let callee_written = self.written_scalar_params(&callee_proc);
            for (p, a) in callee_proc.args().iter().zip(args.iter()) {
                if !callee_written.contains(&p.name) {
                    continue;
                }
                if let Expr::Var(v) = a {
                    if scalar_params.contains(v) {
                        written.insert(v.clone());
                    }
                }
            }
        }
        self.written_cache
            .insert(proc.name().to_string(), written.clone());
        written
    }

    fn win_struct(&mut self, rank: usize, elem: DataType) -> String {
        let tag = exo_machine::c_type_tag(elem);
        self.win_structs.insert((rank, tag), c_type(elem));
        format!("exo_win_{rank}{tag}")
    }

    /// Walks the call graph reachable from `proc`, recording every
    /// instruction procedure with a callsite whose window arguments are
    /// not provably unit-stride in their last kept dimension (the ABI
    /// contract of the machine-intrinsic bodies). Such instructions fall
    /// back to their portable scalar bodies in intrinsic mode instead of
    /// emitting silently wrong vector code.
    fn scalar_fallback_scan(
        &mut self,
        proc: &Proc,
        lowered: &LoweredProc,
        seen: &mut BTreeSet<String>,
    ) {
        if !seen.insert(proc.name().to_string()) {
            return;
        }
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
                    if callee_proc.is_instr() && !args_unit_stride(&facts, callee_proc, args) {
                        self.scalar_fallback_instrs.insert(callee.to_string());
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
    /// accumulate in the unit. A callee's lowering is the registry's memo.
    pub(crate) fn add_proc(
        &mut self,
        proc: &Proc,
        lowered: &LoweredProc,
        is_root: bool,
    ) -> Result<()> {
        if is_root && self.opts.intrinsics {
            let mut seen = BTreeSet::new();
            self.scalar_fallback_scan(proc, lowered, &mut seen);
        }
        let name = proc.name().to_string();
        if self.emitted.contains(&name) {
            return Ok(());
        }
        if self.emitting.contains(&name) {
            return Err(CodegenError::Unsupported(format!(
                "recursive call cycle through `{name}`"
            )));
        }
        if !is_c_identifier(&name) || is_c_reserved(&name) {
            return Err(CodegenError::ReservedName {
                name,
                what: "procedure",
            });
        }
        for arg in proc.args() {
            let a = arg.name.name();
            if !is_c_identifier(a) || is_c_reserved(a) {
                return Err(CodegenError::ReservedName {
                    name: format!("{a}` (argument of `{}", proc.name()),
                    what: "argument",
                });
            }
        }
        self.emitting.push(name.clone());
        let registry = self.registry;
        // Emit callees first, in order of first appearance.
        for inst in lowered.insts() {
            if let LInst::Call { callee, .. } = inst {
                let (callee_proc, callee_lowered) = registry
                    .lowered_for(callee)
                    .ok_or_else(|| CodegenError::UnknownCallee(callee.to_string()))?;
                self.add_proc(callee_proc, callee_lowered, false)?;
            }
        }
        // Instruction procedures may lower to a real machine intrinsic
        // when requested; everything else gets the portable scalar body
        // generated from its own object code. An instruction with a
        // non-unit-stride callsite is demoted to its scalar body — the
        // intrinsic would read/write the wrong elements.
        let intrinsic = (proc.is_instr() && self.opts.intrinsics)
            .then(|| exo_machine::c_intrinsic(proc.name()))
            .flatten();
        let demoted = intrinsic.is_some() && self.scalar_fallback_instrs.contains(proc.name());
        let intrinsic = intrinsic.filter(|i| i.stock_toolchain && !demoted);
        let mut def = FnEmitter::new(self, proc, lowered)?.emit(is_root, intrinsic)?;
        if demoted {
            def = format!(
                "/* `{}`: portable scalar body — a callsite passes a window that is \
                 not unit-stride in its last dimension */\n{def}",
                proc.name()
            );
        }
        self.funcs.push(def);
        self.emitting.pop();
        self.emitted.insert(name.clone());
        Ok(())
    }

    pub(crate) fn finish(self, root: &str, mode: &str) -> CUnit {
        let mut out = String::new();
        out.push_str(&format!(
            "/* Generated by exo-codegen — do not edit.\n * kernel: {root}\n * mode: {mode}\n */\n"
        ));
        out.push_str("#include <stdint.h>\n");
        if self.need_bool {
            out.push_str("#include <stdbool.h>\n");
        }
        if self.need_math {
            out.push_str("#include <math.h>\n");
        }
        if self.need_bound {
            out.push_str("#include <assert.h>\n");
        }
        if self.need_string {
            out.push_str("#include <string.h>\n");
        }
        for inc in &self.includes {
            out.push_str(&format!("#include {inc}\n"));
        }
        out.push('\n');
        for ((rank, tag), celem) in &self.win_structs {
            if *rank == 0 {
                // C99 forbids zero-length arrays; a rank-0 window is just
                // its data pointer.
                out.push_str(&format!("struct exo_win_0{tag} {{ {celem} *data; }};\n"));
            } else {
                out.push_str(&format!(
                    "struct exo_win_{rank}{tag} {{ {celem} *data; int64_t strides[{rank}]; }};\n"
                ));
            }
        }
        if !self.win_structs.is_empty() {
            out.push('\n');
        }
        if self.need_bound {
            out.push_str(
                "static inline int64_t exo_bnd(int64_t i, int64_t n) {\n    \
                 assert(0 <= i && i < n);\n    \
                 return i;\n}\n\n",
            );
        }
        if self.need_div {
            out.push_str(
                "static inline int64_t exo_div_euclid(int64_t a, int64_t b) {\n    \
                 if (b == 0) return 0;\n    \
                 int64_t q = a / b;\n    \
                 int64_t r = a % b;\n    \
                 if (r < 0) q -= (b > 0) ? 1 : -1;\n    \
                 return q;\n}\n\n",
            );
        }
        if self.need_mod {
            out.push_str(
                "static inline int64_t exo_mod_euclid(int64_t a, int64_t b) {\n    \
                 if (b == 0) return 0;\n    \
                 int64_t r = a % b;\n    \
                 if (r < 0) r += (b < 0) ? -b : b;\n    \
                 return r;\n}\n\n",
            );
        }
        if self.need_fmod {
            out.push_str(
                "static inline double exo_fmod_euclid(double a, double b) {\n    \
                 double r = fmod(a, b);\n    \
                 return (r < 0.0) ? r + fabs(b) : r;\n}\n\n",
            );
        }
        for (config, field) in &self.configs {
            out.push_str(&format!(
                "static double exo_cfg_{}_{} = 0.0;\n",
                sanitize(config),
                sanitize(field)
            ));
        }
        if !self.configs.is_empty() {
            out.push('\n');
        }
        for (i, f) in self.funcs.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(f);
        }
        CUnit {
            name: root.to_string(),
            code: out,
            cflags: self.cflags.into_iter().collect(),
        }
    }
}

/// Per-function emission state.
struct FnEmitter<'u, 'a, 'p> {
    unit: &'u mut UnitEmitter<'a>,
    proc: &'p Proc,
    lp: &'p LoweredProc,
    names: Vec<String>,
    repr: Vec<SlotRepr>,
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
    body: String,
    indent: usize,
}

impl<'u, 'a, 'p> FnEmitter<'u, 'a, 'p> {
    fn new(
        unit: &'u mut UnitEmitter<'a>,
        proc: &'p Proc,
        lp: &'p LoweredProc,
    ) -> Result<FnEmitter<'u, 'a, 'p>> {
        // Deterministic slot names: the sanitized source name when free,
        // otherwise suffixed with the (unique) slot index. The hoisted
        // stride-constant names of dense rank-≥2 arguments (`A_s0`, ...)
        // are reserved up front so no binding can shadow them; an
        // *argument* that itself collides with one is an error, since
        // argument names are ABI and cannot be silently renamed.
        let mut used: BTreeSet<String> = BTreeSet::new();
        let arg_slots: BTreeSet<usize> = lp.args().iter().map(|a| a.slot as usize).collect();
        for arg in proc.args() {
            if let ArgKind::Tensor {
                dims,
                window: false,
                ..
            } = &arg.kind
            {
                for d in 0..dims.len().saturating_sub(1) {
                    used.insert(format!("{}_s{d}", sanitize(arg.name.name())));
                }
            }
        }
        let mut names = Vec::with_capacity(lp.slot_names().len());
        for (slot, src) in lp.slot_names().iter().enumerate() {
            let base = sanitize(src);
            let name = if used.contains(&base) {
                if arg_slots.contains(&slot) {
                    return Err(CodegenError::Unsupported(format!(
                        "argument `{base}` of `{}` collides with a generated \
                         stride-constant name; rename the argument",
                        proc.name()
                    )));
                }
                let mut cand = format!("{base}_s{slot}");
                while used.contains(&cand) {
                    cand.push('_');
                }
                cand
            } else {
                base
            };
            used.insert(name.clone());
            names.push(name);
        }
        // Parameter representations; locals are filled in by the prepass.
        // A scalar parameter the body (transitively) writes becomes a
        // pointer — the C shape of the by-reference write-back idiom.
        let own_written = unit.written_scalar_params(proc);
        let mut repr = vec![SlotRepr::Iter; lp.slot_names().len()];
        for (arg, larg) in proc.args().iter().zip(lp.args()) {
            let slot = larg.slot as usize;
            repr[slot] = match &arg.kind {
                ArgKind::Size => SlotRepr::Size,
                ArgKind::Scalar { ty } if own_written.contains(&arg.name) => {
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
                        SlotRepr::DenseArg {
                            elem: *ty,
                            dims: Vec::new(), // rendered below, after names exist
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
            unproven,
            omp_loops,
            body: String::new(),
            indent: 1,
        };
        // Render dense-argument dimension expressions (they may only
        // reference size parameters and constants).
        for (arg, larg) in proc.args().iter().zip(lp.args()) {
            let ArgKind::Tensor {
                dims,
                window: false,
                ..
            } = &arg.kind
            else {
                continue;
            };
            if dims.is_empty() {
                continue;
            }
            let rendered: Vec<String> = dims
                .iter()
                .map(|d| this.render_dim(d).map(|c| c.s))
                .collect::<Result<_>>()?;
            if let SlotRepr::DenseArg {
                dims: slot_dims, ..
            } = &mut this.repr[larg.slot as usize]
            {
                *slot_dims = rendered;
            }
        }
        this.prepass()?;
        Ok(this)
    }

    /// Renders an argument-dimension expression (source `Expr` over size
    /// parameters) as C.
    fn render_dim(&self, e: &Expr) -> Result<CExpr> {
        match e {
            Expr::Int(v) => Ok(CExpr::atom(v.to_string(), CClass::Int)),
            Expr::Var(s) => {
                let slot = self.arg_slot(s)?;
                Ok(CExpr::atom(self.names[slot].clone(), CClass::Int))
            }
            Expr::Bin { op, lhs, rhs } if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) => {
                let (sym, prec) = c_binop(*op);
                let l = self.render_dim(lhs)?;
                let r = self.render_dim(rhs)?;
                Ok(CExpr {
                    s: format!("{} {sym} {}", l.at(prec), r.at(prec + 1)),
                    prec,
                    class: CClass::Int,
                })
            }
            other => Err(CodegenError::Unsupported(format!(
                "argument dimension expression `{other}` (only +, -, * over sizes and constants)"
            ))),
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
        for inst in self.lp.insts() {
            match inst {
                LInst::Alloc { slot, ty, dims, .. } => {
                    if dims.is_empty() {
                        self.repr[*slot as usize] = SlotRepr::Alloc0(*ty);
                    } else {
                        let rendered: Vec<String> = dims
                            .iter()
                            .map(|d| self.expr(d).map(|c| c.s))
                            .collect::<Result<_>>()?;
                        self.repr[*slot as usize] = SlotRepr::AllocN {
                            elem: *ty,
                            dims: rendered,
                        };
                    }
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
                        vec![None; rank]
                    };
                    self.repr[*slot as usize] = SlotRepr::Alias {
                        elem,
                        rank,
                        extents,
                    };
                }
                _ => {}
            }
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

    /// The data pointer of a tensor slot (array decays, structs expose
    /// `.data`, rank-0 locals need `&`).
    fn data_ptr(&self, slot: usize) -> Result<String> {
        match &self.repr[slot] {
            SlotRepr::Ptr0(_) | SlotRepr::DenseArg { .. } | SlotRepr::AllocN { .. } => {
                Ok(self.names[slot].clone())
            }
            SlotRepr::WinParam { .. } | SlotRepr::Alias { .. } => {
                Ok(format!("{}.data", self.names[slot]))
            }
            SlotRepr::Alloc0(_) => Ok(format!("&{}", self.names[slot])),
            // Already a pointer.
            SlotRepr::ScalarRef(_) => Ok(self.names[slot].clone()),
            _ => Err(CodegenError::Unsupported(format!(
                "`{}` used as a tensor",
                self.names[slot]
            ))),
        }
    }

    /// Per-dimension stride expressions of a tensor slot.
    fn strides(&self, slot: usize) -> Vec<String> {
        match &self.repr[slot] {
            SlotRepr::DenseArg { dims, .. } => dense_strides(Some(&self.names[slot]), dims),
            SlotRepr::AllocN { dims, .. } => dense_strides(None, dims),
            SlotRepr::WinParam { rank, .. } | SlotRepr::Alias { rank, .. } => (0..*rank)
                .map(|d| format!("{}.strides[{d}]", self.names[slot]))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Statically renderable per-dimension extents of a tensor slot: the
    /// declared dimensions for dense arguments and allocations, recorded
    /// extents for window aliases, unknown for window parameters (whose
    /// ABI carries strides only).
    fn slot_extents(&self, slot: usize) -> Vec<Option<String>> {
        match &self.repr[slot] {
            SlotRepr::DenseArg { dims, .. } | SlotRepr::AllocN { dims, .. } => {
                dims.iter().map(|d| Some(d.clone())).collect()
            }
            SlotRepr::Alias { extents, .. } => extents.clone(),
            SlotRepr::WinParam { rank, .. } => vec![None; *rank],
            _ => Vec::new(),
        }
    }

    /// Post-narrowing extents of a lowered window form (debug-bounds mode
    /// only): interval extents that are pure index arithmetic render to
    /// C; dimensions kept beyond the spec inherit the underlying tensor's
    /// extents.
    fn window_extents(&mut self, w: &LWindow) -> Result<Vec<Option<String>>> {
        Ok(match w {
            LWindow::Var { buf } => {
                let slot = self.tensor_slot(buf)?;
                self.slot_extents(slot)
            }
            LWindow::Window { buf, spec } => {
                let slot = self.tensor_slot(buf)?;
                let under = self.slot_extents(slot);
                let mut out = Vec::new();
                for wd in spec.iter() {
                    if let LWSpec::Interval { extent, .. } = wd {
                        out.push(if self.lexpr_pure(extent) {
                            Some(self.expr(extent)?.s)
                        } else {
                            None
                        });
                    }
                }
                out.extend(under.into_iter().skip(spec.len()));
                out
            }
            LWindow::PointRead { .. } | LWindow::NotATensor { .. } => Vec::new(),
        })
    }

    /// `buf[i0, i1, ...]` as a C lvalue/rvalue.
    fn element(&mut self, slot: usize, idx: &[CExpr]) -> Result<String> {
        let (_, rank) = self.elem_rank(slot)?;
        if idx.is_empty() {
            if rank != 0 {
                return Err(CodegenError::Unsupported(format!(
                    "scalar access to rank-{rank} tensor `{}`",
                    self.names[slot]
                )));
            }
            return Ok(match &self.repr[slot] {
                SlotRepr::Alloc0(_) => self.names[slot].clone(),
                _ => format!("*{}", self.data_ptr(slot)?),
            });
        }
        if idx.len() != rank {
            return Err(CodegenError::Unsupported(format!(
                "rank-{rank} tensor `{}` indexed with {} indices",
                self.names[slot],
                idx.len()
            )));
        }
        let strides = self.strides(slot);
        let checked =
            self.unit.opts.debug_bounds && self.unproven.contains(&self.lp.slot_names()[slot]);
        let extents = if checked {
            self.slot_extents(slot)
        } else {
            Vec::new()
        };
        let mut terms = Vec::with_capacity(idx.len());
        for (d, (i, stride)) in idx.iter().zip(&strides).enumerate() {
            // Debug-bounds mode routes each index with a known extent
            // through the assert-backed `exo_bnd` helper.
            let checked = extents.get(d).and_then(|e| e.as_ref()).map(|ext| {
                self.unit.need_bound = true;
                CExpr::atom(format!("exo_bnd({}, {ext})", i.s), CClass::Int)
            });
            let i = checked.as_ref().unwrap_or(i);
            if stride == "1" {
                terms.push(i.at(70));
            } else {
                terms.push(format!("{} * {stride}", i.at(80)));
            }
        }
        let data = match &self.repr[slot] {
            SlotRepr::WinParam { .. } | SlotRepr::Alias { .. } => {
                format!("{}.data", self.names[slot])
            }
            _ => self.names[slot].clone(),
        };
        Ok(format!("{data}[{}]", terms.join(" + ")))
    }

    // ================================================================
    // Expressions
    // ================================================================

    fn expr(&mut self, e: &LExpr) -> Result<CExpr> {
        match e {
            LExpr::Int(v) => Ok(if *v < 0 {
                CExpr {
                    s: v.to_string(),
                    prec: 90,
                    class: CClass::Int,
                }
            } else {
                CExpr::atom(v.to_string(), CClass::Int)
            }),
            LExpr::Float(v) => Ok(CExpr {
                s: self.float_literal(*v),
                prec: if *v < 0.0 { 90 } else { 100 },
                class: CClass::Float,
            }),
            LExpr::Bool(b) => {
                self.unit.need_bool = true;
                Ok(CExpr::atom(if *b { "true" } else { "false" }, CClass::Bool))
            }
            LExpr::Var(buf) => self.var_value(buf),
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
                let rendered: Vec<CExpr> =
                    idx.iter().map(|i| self.expr(i)).collect::<Result<_>>()?;
                // Buffer elements are Float-class regardless of storage
                // type: the interpreter models every element as f64.
                Ok(CExpr::atom(self.element(slot, &rendered)?, CClass::Float))
            }
            LExpr::WindowInScalar => Err(CodegenError::Unsupported(
                "window expression in scalar context".to_string(),
            )),
            LExpr::Bin { op, lhs, rhs } => {
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                self.binop(*op, l, r)
            }
            LExpr::Un { op, arg } => {
                let a = self.expr(arg)?;
                match op {
                    // `at(91)` parenthesizes a nested negation: `-(-n)`
                    // must not fuse into C's predecrement `--n`.
                    UnOp::Neg => Ok(CExpr {
                        s: format!("-{}", a.at(91)),
                        prec: 90,
                        class: a.class,
                    }),
                    UnOp::Not => {
                        self.unit.need_bool = true;
                        Ok(CExpr {
                            s: format!("!{}", a.at(90)),
                            prec: 90,
                            class: CClass::Bool,
                        })
                    }
                }
            }
            LExpr::Stride { buf, dim } => {
                let slot = self.tensor_slot(buf)?;
                let strides = self.strides(slot);
                let s = strides
                    .get(*dim)
                    .cloned()
                    .unwrap_or_else(|| "1".to_string());
                Ok(CExpr {
                    s,
                    prec: 0,
                    class: CClass::Int,
                })
            }
            LExpr::ReadConfig { config, field } => {
                Ok(CExpr::atom(self.config_var(config, field), CClass::Float))
            }
        }
    }

    fn var_value(&mut self, buf: &LBufRef) -> Result<CExpr> {
        let slot = match buf {
            LBufRef::Unbound(n) => return Err(CodegenError::Unbound(n.to_string())),
            LBufRef::Slot(s) => *s as usize,
        };
        match &self.repr[slot] {
            SlotRepr::Size | SlotRepr::Iter => {
                Ok(CExpr::atom(self.names[slot].clone(), CClass::Int))
            }
            SlotRepr::ScalarParam(ty) => {
                let class = if ty.is_float() {
                    CClass::Float
                } else if *ty == DataType::Bool {
                    CClass::Bool
                } else {
                    CClass::Int
                };
                Ok(CExpr::atom(self.names[slot].clone(), class))
            }
            // Rank-0 tensors in scalar position read their single element.
            SlotRepr::Ptr0(_) => Ok(CExpr {
                s: format!("*{}", self.names[slot]),
                prec: 90,
                class: CClass::Float,
            }),
            // A written scalar parameter reads through its pointer. The
            // class follows the declared type, like `ScalarParam` (an
            // integer-typed by-reference write-back would diverge from
            // the interpreter's all-f64 element model on `/` — floats,
            // the only type the idiom is used with, agree either way).
            SlotRepr::ScalarRef(ty) => {
                let class = if ty.is_float() {
                    CClass::Float
                } else if *ty == DataType::Bool {
                    CClass::Bool
                } else {
                    CClass::Int
                };
                Ok(CExpr {
                    s: format!("*{}", self.names[slot]),
                    prec: 90,
                    class,
                })
            }
            SlotRepr::Alloc0(_) => Ok(CExpr::atom(self.names[slot].clone(), CClass::Float)),
            SlotRepr::WinParam { rank: 0, .. } | SlotRepr::Alias { rank: 0, .. } => Ok(CExpr {
                s: format!("*{}.data", self.names[slot]),
                prec: 90,
                class: CClass::Float,
            }),
            other => Err(CodegenError::Unsupported(format!(
                "tensor `{}` ({other:?}) used in a scalar context",
                self.names[slot]
            ))),
        }
    }

    fn binop(&mut self, op: BinOp, l: CExpr, r: CExpr) -> Result<CExpr> {
        let both_int = l.class == CClass::Int && r.class == CClass::Int;
        match op {
            BinOp::Div if both_int => {
                self.unit.need_div = true;
                Ok(CExpr::atom(
                    format!("exo_div_euclid({}, {})", l.s, r.s),
                    CClass::Int,
                ))
            }
            BinOp::Mod if both_int => {
                self.unit.need_mod = true;
                Ok(CExpr::atom(
                    format!("exo_mod_euclid({}, {})", l.s, r.s),
                    CClass::Int,
                ))
            }
            // Value-class division/modulo follow the interpreter's f64
            // semantics: promote explicitly so an integer-typed element
            // (interpreted as a float value) cannot truncate.
            BinOp::Div => Ok(CExpr {
                s: format!("(double){} / (double){}", l.at(81), r.at(81)),
                prec: 80,
                class: CClass::Float,
            }),
            BinOp::Mod => {
                self.unit.need_fmod = true;
                self.unit.need_math = true;
                Ok(CExpr::atom(
                    format!("exo_fmod_euclid({}, {})", l.s, r.s),
                    CClass::Float,
                ))
            }
            _ => {
                let (sym, prec) = c_binop(op);
                let class = if op.is_predicate() {
                    CClass::Bool
                } else if both_int {
                    CClass::Int
                } else {
                    CClass::Float
                };
                // All the remaining operators are left-associative in C.
                Ok(CExpr {
                    s: format!("{} {sym} {}", l.at(prec), r.at(prec + 1)),
                    prec,
                    class,
                })
            }
        }
    }

    fn float_literal(&mut self, v: f64) -> String {
        if v.is_nan() {
            self.unit.need_math = true;
            return "NAN".to_string();
        }
        if v.is_infinite() {
            self.unit.need_math = true;
            return if v > 0.0 { "INFINITY" } else { "-INFINITY" }.to_string();
        }
        format_float(v)
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

    fn config_var(&mut self, config: &str, field: &str) -> String {
        self.unit
            .configs
            .insert((config.to_string(), field.to_string()));
        format!("exo_cfg_{}_{}", sanitize(config), sanitize(field))
    }

    // ================================================================
    // Statements
    // ================================================================

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.body.push_str("    ");
        }
        self.body.push_str(s);
        self.body.push('\n');
    }

    /// Emits one lowered block, recursing into loop and branch bodies.
    fn emit_block(&mut self, block: &[LInst]) -> Result<()> {
        for inst in block {
            match inst {
                LInst::Assign { buf, idx, rhs } => {
                    let slot = self.tensor_slot(buf)?;
                    let rendered: Vec<CExpr> =
                        idx.iter().map(|i| self.expr(i)).collect::<Result<_>>()?;
                    let lhs = self.element(slot, &rendered)?;
                    let rhs = self.expr(rhs)?;
                    self.line(&format!("{lhs} = {};", rhs.s));
                }
                LInst::Reduce { buf, idx, rhs } => {
                    let slot = self.tensor_slot(buf)?;
                    let rendered: Vec<CExpr> =
                        idx.iter().map(|i| self.expr(i)).collect::<Result<_>>()?;
                    let lhs = self.element(slot, &rendered)?;
                    let rhs = self.expr(rhs)?;
                    self.line(&format!("{lhs} += {};", rhs.s));
                }
                LInst::Alloc { slot, ty, dims, .. } => {
                    let name = self.names[*slot as usize].clone();
                    if dims.is_empty() {
                        self.line(&format!("{} {name} = 0;", c_type(*ty)));
                    } else {
                        let rendered: Vec<String> = dims
                            .iter()
                            .map(|d| self.expr(d).map(|c| c.s))
                            .collect::<Result<_>>()?;
                        // Declared *flat* (one dimension, the element
                        // count) because every access linearizes through
                        // the row-major strides — a multi-dimensional C
                        // array type would not match those accesses.
                        let len = dense_product(&rendered);
                        // Zero-initialize like the interpreter's
                        // `BufferData::zeros` (memset also covers VLAs).
                        self.unit.need_string = true;
                        self.line(&format!("{} {name}[{len}];", c_type(*ty)));
                        self.line(&format!("memset({name}, 0, sizeof {name});"));
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
                    let it = self.names[*iter as usize].clone();
                    let lo_c = self.expr(lo)?;
                    let hi_c = self.expr(hi)?;
                    // Work-sharing pragma only for loops the region
                    // analysis certified thread-safe (keyed by *source*
                    // name — the mangled slot name may be suffixed).
                    let omp = *parallel
                        && self
                            .lp
                            .slot_names()
                            .get(*iter as usize)
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
                        self.line(&format!("const int64_t exo_hi_{iter} = {};", hi_c.s));
                    }
                    let bound = if hoist {
                        format!("exo_hi_{iter}")
                    } else {
                        hi_c.at(61)
                    };
                    if omp {
                        // The pragma must immediately precede the `for`
                        // statement (after any hoisted bound). `-fopenmp`
                        // is mandatory from here on: under `-Wall
                        // -Werror` an unconsumed pragma is fatal via
                        // -Wunknown-pragmas.
                        self.unit.cflags.insert("-fopenmp".to_string());
                        self.line("#pragma omp parallel for");
                    }
                    self.line(&format!(
                        "for (int64_t {it} = {}; {it} < {bound}; {it}++) {{",
                        lo_c.s
                    ));
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
                    let cond = self.expr(cond)?;
                    self.line(&format!("if ({}) {{", cond.s));
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
                    let call = self.render_call(callee, args)?;
                    self.line(&call);
                }
                LInst::Pass => self.line(";"),
                LInst::WriteConfig {
                    config,
                    field,
                    value,
                } => {
                    let value = self.expr(value)?;
                    let var = self.config_var(config, field);
                    self.line(&format!("{var} = {};", value.s));
                }
                LInst::WindowBind { slot, rhs } => {
                    let (elem, rank) = self.window_shape(rhs)?;
                    let name = self.names[*slot as usize].clone();
                    let lit = self.window_literal(rhs, rank, elem)?;
                    let sname = self.unit.win_struct(rank, elem);
                    self.line(&format!("struct {sname} {name} = {lit};"));
                }
            }
        }
        Ok(())
    }

    /// Resolves a lowered window into `(base pointer, kept strides)`.
    fn window_parts(&mut self, w: &LWindow) -> Result<(String, Vec<String>)> {
        match w {
            LWindow::Var { buf } => {
                let slot = self.tensor_slot(buf)?;
                Ok((self.data_ptr(slot)?, self.strides(slot)))
            }
            LWindow::PointRead { buf, idx } => {
                let slot = self.tensor_slot(buf)?;
                let rendered: Vec<CExpr> =
                    idx.iter().map(|i| self.expr(i)).collect::<Result<_>>()?;
                Ok((format!("&{}", self.element(slot, &rendered)?), Vec::new()))
            }
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
                let strides = self.strides(slot);
                let mut offset_terms = Vec::new();
                let mut kept = Vec::new();
                for (d, wd) in spec.iter().enumerate() {
                    let e = match wd {
                        LWSpec::Point(e) | LWSpec::Interval { lo: e, .. } => self.expr(e)?,
                    };
                    // A literal-zero offset contributes nothing.
                    let is_zero = e.s == "0";
                    if !is_zero {
                        if strides[d] == "1" {
                            offset_terms.push(e.at(70));
                        } else {
                            offset_terms.push(format!("{} * {}", e.at(80), strides[d]));
                        }
                    }
                    if matches!(wd, LWSpec::Interval { .. }) {
                        kept.push(strides[d].clone());
                    }
                }
                for stride in strides.iter().skip(spec.len()) {
                    kept.push(stride.clone());
                }
                let data = self.data_ptr(slot)?;
                let ptr = if offset_terms.is_empty() {
                    data
                } else {
                    format!("&{data}[{}]", offset_terms.join(" + "))
                };
                Ok((ptr, kept))
            }
            LWindow::NotATensor { display } => Err(CodegenError::Unsupported(format!(
                "expression `{display}` used as a tensor argument"
            ))),
        }
    }

    /// A `(struct exo_win_..){ ptr, { strides } }` compound literal.
    fn window_literal(&mut self, w: &LWindow, rank: usize, elem: DataType) -> Result<String> {
        let (ptr, strides) = self.window_parts(w)?;
        if strides.len() != rank {
            return Err(CodegenError::Unsupported(format!(
                "window has rank {} where rank {rank} is expected",
                strides.len()
            )));
        }
        self.unit.win_struct(rank, elem);
        if rank == 0 {
            Ok(format!("{{ {ptr} }}"))
        } else {
            Ok(format!("{{ {ptr}, {{ {} }} }}", strides.join(", ")))
        }
    }

    fn render_call(&mut self, callee: &str, args: &[LCallArg]) -> Result<String> {
        let callee_proc = self
            .unit
            .registry
            .get(callee)
            .ok_or_else(|| CodegenError::UnknownCallee(callee.to_string()))?
            .clone();
        if args.len() != callee_proc.args().len() {
            return Err(CodegenError::Unsupported(format!(
                "call to `{callee}` passes {} arguments, expected {}",
                args.len(),
                callee_proc.args().len()
            )));
        }
        let mut rendered = Vec::with_capacity(args.len());
        for (param, arg) in callee_proc.args().iter().zip(args) {
            rendered.push(self.render_call_arg(callee, &callee_proc, param, arg)?);
        }
        Ok(format!("{callee}({});", rendered.join(", ")))
    }

    fn render_call_arg(
        &mut self,
        callee: &str,
        callee_proc: &Proc,
        param: &exo_ir::ProcArg,
        arg: &LCallArg,
    ) -> Result<String> {
        match &param.kind {
            ArgKind::Size => Ok(self.expr(&arg.scalar)?.s),
            ArgKind::Scalar { ty } => {
                // The interpreter's by-reference idiom: a rank-0 tensor
                // passed to a scalar parameter. A written parameter is a
                // pointer in C (`ScalarRef`), so the callsite passes the
                // element's address; an unwritten one stays by-value.
                let written = self
                    .unit
                    .written_scalar_params(callee_proc)
                    .contains(&param.name);
                if let LWindow::Var {
                    buf: LBufRef::Slot(s),
                } = &arg.window
                {
                    let s = *s as usize;
                    if self.repr[s].is_tensor() {
                        if self.repr[s].rank() == Some(0) {
                            return Ok(if written {
                                self.data_ptr(s)?
                            } else {
                                match &self.repr[s] {
                                    SlotRepr::Alloc0(_) => self.names[s].clone(),
                                    _ => format!("*{}", self.data_ptr(s)?),
                                }
                            });
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
                let v = self.expr(&arg.scalar)?;
                if written {
                    // The callee expects a pointer but the argument is a
                    // plain scalar expression: materialize an addressable
                    // C99 compound-literal temporary. The interpreter
                    // traps if such a write actually executes (scalar
                    // bindings are not writable), so agreement on
                    // interpreter-successful runs is preserved.
                    Ok(format!("&({}){{ {} }}", c_type(*ty), v.s))
                } else {
                    Ok(v.s)
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
                        other => Ok(self.window_parts(other)?.0),
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
                    let lit = self.window_literal(&arg.window, rank, *ty)?;
                    let sname = self.unit.win_struct(rank, *ty);
                    Ok(format!("(struct {sname}){lit}"))
                } else {
                    // A dense (non-window) tensor parameter: the callee
                    // recomputes strides from its declared dimensions, so
                    // only a whole dense tensor of the same rank is safe.
                    match &arg.window {
                        LWindow::Var { buf } => {
                            let slot = self.tensor_slot(buf)?;
                            match &self.repr[slot] {
                                SlotRepr::DenseArg { dims, .. } | SlotRepr::AllocN { dims, .. }
                                    if dims.len() == rank =>
                                {
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

    fn signature(&mut self, is_root: bool) -> Result<String> {
        let mut params = Vec::with_capacity(self.proc.args().len());
        for larg in self.lp.args() {
            let slot = larg.slot as usize;
            let name = &self.names[slot];
            let p = match &self.repr[slot] {
                SlotRepr::Size => format!("int64_t {name}"),
                SlotRepr::ScalarParam(ty) => {
                    if *ty == DataType::Bool {
                        self.unit.need_bool = true;
                    }
                    format!("{} {name}", c_type(*ty))
                }
                SlotRepr::Ptr0(ty) => format!("{} *{name}", c_type(*ty)),
                SlotRepr::ScalarRef(ty) => {
                    if *ty == DataType::Bool {
                        self.unit.need_bool = true;
                    }
                    format!("{} *{name}", c_type(*ty))
                }
                SlotRepr::DenseArg { elem, .. } => format!("{} *{name}", c_type(*elem)),
                SlotRepr::WinParam { elem, rank } => {
                    let sname = self.unit.win_struct(*rank, *elem);
                    format!("struct {sname} {name}")
                }
                other => {
                    return Err(CodegenError::Unsupported(format!(
                        "parameter `{name}` has a local representation ({other:?})"
                    )))
                }
            };
            params.push(p);
        }
        let params = if params.is_empty() {
            "void".to_string()
        } else {
            params.join(", ")
        };
        let linkage = if is_root { "" } else { "static " };
        Ok(format!("{linkage}void {}({params})", self.proc.name()))
    }

    fn emit(mut self, is_root: bool, intrinsic: Option<exo_machine::CIntrinsic>) -> Result<String> {
        // Assertion preconditions become assume-style comments: the
        // emitted code relies on them the same way the schedule did.
        let mut header = String::new();
        for (_, src) in self.lp.preds() {
            header.push_str(&format!("    /* assume: {} */\n", src.replace("*/", "* /")));
        }
        let body = if let Some(intr) = intrinsic {
            for inc in &intr.includes {
                self.unit.includes.insert(inc.clone());
            }
            for flag in &intr.cflags {
                self.unit.cflags.insert(flag.clone());
            }
            let mut b = String::from(
                "    /* machine intrinsic lowering (windows assumed unit-stride \
                 in the last dimension) */\n",
            );
            for line in intr.body.lines() {
                b.push_str("    ");
                b.push_str(line);
                b.push('\n');
            }
            b
        } else {
            self.emit_block(self.lp.code())?;
            // Hoist the stride constants of dense arguments — the emitted
            // mirror of the executor's `AccessPlan`. Every stride of a
            // dense argument renders as its reserved constant name; only
            // the names the body references are declared, in slot order,
            // since an unused `const` trips `-Werror`.
            for (slot, repr) in self.repr.iter().enumerate() {
                let SlotRepr::DenseArg { dims, .. } = repr else {
                    continue;
                };
                for d in 0..dims.len().saturating_sub(1) {
                    let cname = format!("{}_s{d}", self.names[slot]);
                    if ident_used(&self.body, &cname) {
                        let stride = raw_dense_stride(dims, d);
                        header.push_str(&format!("    const int64_t {cname} = {stride};\n"));
                    }
                }
            }
            if self.body.is_empty() {
                self.body.push_str("    ;\n");
            }
            std::mem::take(&mut self.body)
        };
        let sig = self.signature(is_root)?;
        Ok(format!("{sig} {{\n{header}{body}}}\n"))
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
            let kept: Vec<usize> = spec
                .iter()
                .enumerate()
                .filter(|(_, wd)| matches!(wd, LWSpec::Interval { .. }))
                .map(|(d, _)| d)
                .collect();
            let beyond = under.rank.saturating_sub(spec.len());
            let rank = kept.len() + beyond;
            let last_unit = if rank == 0 {
                true
            } else if beyond > 0 {
                // The window's last dimension is the buffer's own.
                under.last_unit
            } else {
                // The spec covers every dimension: the window's last
                // dimension is unit-stride only if it is the buffer's
                // last (row-major contiguous) dimension.
                kept.last() == Some(&(under.rank - 1)) && under.last_unit
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

/// Whether `name` occurs in `text` as a whole C identifier (not as a
/// substring of a longer identifier).
fn ident_used(text: &str, name: &str) -> bool {
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut start = 0;
    while let Some(pos) = text[start..].find(name) {
        let p = start + pos;
        let after = p + name.len();
        let before_ok = p == 0 || !is_ident(bytes[p - 1]);
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        start = p + 1;
    }
    false
}

/// Suffix-product stride of dimension `d` as a raw expression over the
/// rendered dimension strings.
fn raw_dense_stride(dims: &[String], d: usize) -> String {
    dense_product(&dims[d + 1..])
}

/// Product of rendered dimension expressions (`1` when empty), with
/// parentheses only around composite factors.
fn dense_product(dims: &[String]) -> String {
    if dims.is_empty() {
        return "1".to_string();
    }
    let atom = |e: &String| e.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
    dims.iter()
        .map(|e| if atom(e) { e.clone() } else { format!("({e})") })
        .collect::<Vec<_>>()
        .join(" * ")
}

/// Per-dimension stride expressions of a dense tensor: the hoisted
/// constant names (`A_s0`) of a dense argument `name`, raw products for a
/// local allocation.
fn dense_strides(name: Option<&str>, dims: &[String]) -> Vec<String> {
    (0..dims.len())
        .map(|d| match name {
            _ if d + 1 == dims.len() => "1".to_string(),
            Some(name) => format!("{name}_s{d}"),
            None => raw_dense_stride(dims, d),
        })
        .collect()
}
