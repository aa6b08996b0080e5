//! # exo-codegen — the C code generation backend
//!
//! Exo 2's deliverable is generated C that library authors ship: every
//! schedule in the paper bottoms out in emitted C with AVX or Gemmini
//! intrinsic calls. This crate closes that gap for the reproduction: it
//! lowers any (scheduled or unscheduled) [`exo_ir::Proc`] to a
//! self-contained C99 translation unit.
//!
//! The emitter consumes the **same slot-indexed lowered form the
//! interpreter executes** (`exo_interp::lower`), so symbol resolution,
//! shadow disambiguation and window pre-lowering are shared between the
//! two backends, and buffer accesses compile to the same
//! `AccessPlan`-style precomputed strides the slot executor uses. See
//! `DESIGN.md` §3.
//!
//! Instruction procedures (e.g. `mm512_fmadd_ps`, Gemmini's
//! `do_matmul_acc_i8`) are emitted either as **portable scalar
//! fallbacks** generated from their own object-code bodies (the default:
//! compiles and runs anywhere, used by the differential harness), or —
//! with [`CodegenOptions::intrinsics`] — as the **real machine
//! intrinsics** from `exo_machine::c_intrinsic`, the form a shipping
//! library would contain.
//!
//! ```
//! use exo_codegen::{emit_c, CodegenOptions};
//! use exo_interp::ProcRegistry;
//! use exo_ir::{var, ib, DataType, Mem, ProcBuilder};
//!
//! let axpy = ProcBuilder::new("saxpy")
//!     .size_arg("n")
//!     .scalar_arg("a", DataType::F32)
//!     .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
//!     .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
//!     .for_("i", ib(0), var("n"), |b| {
//!         let rhs = var("a") * b.read("x", vec![var("i")]);
//!         b.reduce("y", vec![var("i")], rhs);
//!     })
//!     .build();
//! let unit = emit_c(&axpy, &ProcRegistry::new(), &CodegenOptions::default()).unwrap();
//! assert!(unit.code.contains("void saxpy(int64_t n, float a, float *x, float *y)"));
//! assert!(unit.code.contains("y[i] += a * x[i];"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod emit;
mod mangle;

pub mod difftest;

pub use mangle::{is_c_identifier, is_c_reserved, sanitize};

use exo_interp::{LoweredProc, ProcRegistry};
use exo_ir::Proc;
use exo_machine::HostCaps;
use std::fmt;

/// Options controlling C emission.
#[derive(Clone, Debug, Default)]
pub struct CodegenOptions {
    /// Lower instruction procedures to their real machine intrinsics
    /// (from `exo_machine::c_intrinsic`) instead of the portable scalar
    /// fallback generated from their object-code bodies. Only intrinsics
    /// a stock toolchain ships headers for are used (Gemmini's
    /// `gemmini.h` macros keep their scalar bodies). The resulting
    /// translation unit may need extra compiler flags
    /// ([`CUnit::cflags`]).
    pub intrinsics: bool,
    /// Emit debug-mode bounds checks: every buffer access whose extent is
    /// statically renderable goes through an `assert`-backed `exo_bnd`
    /// helper, catching the out-of-window access class the interpreter's
    /// views do not trap (a window read past its extent but inside the
    /// underlying buffer). Buffers whose every access the static verifier
    /// proves in-bounds (`exo_analysis::unproven_buffers`) skip the
    /// instrumentation — fully-certified procedures emit no checks at
    /// all. Asserts compile away under `-DNDEBUG`, so a release build of
    /// the same unit is unchanged.
    pub debug_bounds: bool,
    /// Emit `#pragma omp parallel for` on parallel loops that
    /// `exo_analysis::threadable_parallel_loops` certifies safe for OS
    /// threads — a strictly harder bar than the verifier's V201
    /// commutativity check (reductions into a shared cell commute but
    /// are C-level data races, so they are *not* pragma'd). Emitting
    /// any pragma adds `-fopenmp` to [`CUnit::cflags`]; callers should
    /// enable this only when the toolchain supports OpenMP
    /// (`exo_machine::HostCaps::detect().openmp`).
    pub openmp: bool,
}

impl CodegenOptions {
    /// Portable scalar emission (the default): compiles and runs with any
    /// C99 toolchain, bit-compatible with the interpreter's semantics on
    /// exactly-representable data.
    pub fn portable() -> Self {
        CodegenOptions::default()
    }

    /// Machine-intrinsic emission for stock-toolchain targets (AVX2 /
    /// AVX512 via `<immintrin.h>`).
    pub fn native() -> Self {
        CodegenOptions {
            intrinsics: true,
            ..CodegenOptions::default()
        }
    }

    /// Machine-intrinsic emission plus OpenMP work-sharing pragmas on
    /// thread-safe parallel loops — the shipping configuration on a
    /// host whose toolchain links `-fopenmp`.
    pub fn native_openmp() -> Self {
        CodegenOptions {
            intrinsics: true,
            openmp: true,
            ..CodegenOptions::default()
        }
    }

    /// Portable emission with debug-mode bounds checks
    /// ([`CodegenOptions::debug_bounds`]): the variant the differential
    /// harness uses to catch out-of-window accesses that silently read
    /// in-bounds memory otherwise.
    pub fn debug() -> Self {
        CodegenOptions {
            debug_bounds: true,
            ..CodegenOptions::default()
        }
    }
}

/// An emitted C translation unit.
#[derive(Clone, Debug)]
pub struct CUnit {
    /// Name of the root procedure (the one non-`static` function).
    pub name: String,
    /// The complete C99 source text.
    pub code: String,
    /// Extra compiler flags the unit needs (`-mavx512f`, ...), sorted.
    pub cflags: Vec<String>,
}

impl AsRef<str> for CUnit {
    /// The unit's text, [`CUnit::code`].
    fn as_ref(&self) -> &str {
        &self.code
    }
}

/// Errors raised by C emission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodegenError {
    /// A user-visible name (procedure or argument) is a C reserved word
    /// or not a legal C identifier, and cannot be renamed without
    /// changing the emitted ABI.
    ReservedName {
        /// The offending name.
        name: String,
        /// What carries it (`"procedure"` / `"argument"`).
        what: &'static str,
    },
    /// A call references a procedure the registry does not contain.
    UnknownCallee(String),
    /// A symbol is out of scope at its point of use.
    Unbound(String),
    /// A construct the C backend does not support (the message says
    /// which and why).
    Unsupported(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::ReservedName { name, what } => write!(
                f,
                "cannot emit C: {what} name `{name}` is a C reserved word or not a \
                 legal C identifier; rename it before generating code"
            ),
            CodegenError::UnknownCallee(name) => {
                write!(
                    f,
                    "cannot emit C: call to `{name}`, which is not registered"
                )
            }
            CodegenError::Unbound(name) => {
                write!(f, "cannot emit C: `{name}` is not in scope at its use")
            }
            CodegenError::Unsupported(msg) => write!(f, "cannot emit C: {msg}"),
        }
    }
}

impl std::error::Error for CodegenError {}

/// Result alias for codegen operations.
pub type Result<T> = std::result::Result<T, CodegenError>;

/// Emits a complete C99 translation unit for `proc`.
///
/// Every procedure transitively called from `proc` is resolved against
/// `registry`, emitted as a `static` function (callees first), and the
/// root procedure itself as the one externally-visible function. The
/// unit is self-contained: window structs, integer-division helpers and
/// configuration-register globals are generated as needed. The root's
/// lowering comes from [`ProcRegistry::lowering`]: the registry's memo
/// when `proc` is registered under its own name, a fresh one otherwise.
///
/// # Errors
/// [`CodegenError::ReservedName`] when the procedure or one of its
/// arguments carries a C reserved word; [`CodegenError::UnknownCallee`]
/// for unregistered callees; [`CodegenError::Unbound`] for out-of-scope
/// symbols; [`CodegenError::Unsupported`] for constructs outside the C
/// backend's subset (the message names the construct).
pub fn emit_c(proc: &Proc, registry: &ProcRegistry, opts: &CodegenOptions) -> Result<CUnit> {
    emit_lowered(proc, &registry.lowering(proc), registry, opts)
}

/// [`emit_c`] on the root's lowering, taken once by the caller.
fn emit_lowered(
    proc: &Proc,
    lowered: &LoweredProc,
    registry: &ProcRegistry,
    opts: &CodegenOptions,
) -> Result<CUnit> {
    let mut unit = emit::UnitEmitter::new(registry, opts);
    unit.add_proc(proc, lowered, true)?;
    let mode = if opts.intrinsics {
        "machine intrinsics where mapped, scalar fallback otherwise"
    } else {
        "portable scalar"
    };
    Ok(unit.finish(proc.name(), mode))
}

/// Emits `proc` with `opts`, or — when `caps` cannot execute what that
/// unit asks for ([`HostCaps::supports_cflags`]) — the portable unit and
/// why: `host has no C compiler`, or `host cannot execute <flags>`
/// naming the flags it lacks. The unit's own flags decide, not the
/// target's usual ones: an AVX-512 unit on an AVX2-only host would die
/// of SIGILL. This is the one native-or-portable verdict; the
/// compilation service and the autotuner's measurement both ask it. The
/// root is lowered once ([`ProcRegistry::lowering`]) for both units.
///
/// # Errors
/// As [`emit_c`].
pub fn emit_runnable(
    proc: &Proc,
    registry: &ProcRegistry,
    opts: &CodegenOptions,
    caps: &HostCaps,
) -> Result<(CUnit, Option<String>)> {
    let lowered = registry.lowering(proc);
    let unit = emit_lowered(proc, &lowered, registry, opts)?;
    if caps.supports_cflags(&unit.cflags) {
        return Ok((unit, None));
    }
    let missing: Vec<&str> = unit
        .cflags
        .iter()
        .filter(|f| !caps.supports_cflags(std::slice::from_ref(*f)))
        .map(String::as_str)
        .collect();
    let why = if missing.is_empty() {
        "host has no C compiler".to_string()
    } else {
        format!("host cannot execute {}", missing.join(" "))
    };
    let portable = emit_lowered(proc, &lowered, registry, &CodegenOptions::portable())?;
    Ok((portable, Some(why)))
}
