//! # exo-analysis — the safety-analysis substrate
//!
//! Exo 2's scheduling primitives are *safe*: each one checks that the
//! transformation preserves functional equivalence and raises a
//! `SchedulingError` otherwise. The original implementation discharges
//! these checks with an SMT solver; this reproduction uses a purpose-built,
//! conservative symbolic engine instead (see `DESIGN.md` §1 for the
//! substitution rationale):
//!
//! * [`LinExpr`] — the one affine normal form, `constant + Σ coeff·atom`
//!   over structural atoms (a symbol, `E / k`, `E % k`, anything else),
//!   with its two constructors (`from_expr`, context-free, which the
//!   primitives' checks use; the context-aware one behind [`prove_le`],
//!   which sees through division and modulo), its constant bound and its
//!   way back to an expression,
//! * [`Context`] — facts harvested from procedure assertions (divisibility,
//!   bounds), enclosing loop ranges and the window aliases in scope,
//! * the access walk (`accesses.rs`, crate-private) — the one pass over
//!   statements, a client of [`exo_ir::Visit`], that decodes every buffer
//!   touch into a record (name as written, root buffer behind any window
//!   alias, read / write / reduce / argument *n* of callee *c*, point /
//!   window / whole buffer, enclosing loops and local declarations, cursor
//!   path) and pushes it to a sink. It alone resolves aliases, starting
//!   from those a [`Context`] has in scope. Everything below that asks
//!   "which cells does this code touch" is a sink over it and differs only
//!   in policy:
//!   * [`Effects`] — read/write/reduce access sets of statements and
//!     blocks,
//!   * [`infer_bounds`] — the per-buffer bounds inference that the paper's
//!     Halide library builds in user space (§4),
//!   * the region certificate behind [`loop_is_threadable`],
//!     [`threadable_parallel_loops`] and [`written_params`],
//!   * [`check_proc`]'s bounds pass,
//! * commutativity / dependence / idempotence / invariance checks used by
//!   the primitives in `exo-core`,
//! * [`simplify_expr`] — arithmetic simplification used by the `simplify`
//!   primitive.
//!
//! The engine is conservative: it may fail to prove a safe transformation
//! (raising a scheduling error), but within the modelled affine fragment it
//! never accepts an unsafe one.

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

mod accesses;
mod bounds;
mod checks;
mod context;
mod effects;
mod linear;
mod simplify;
mod verify;

pub use bounds::{infer_bounds, BoundsFailure, BufferBounds};
pub use checks::{
    body_depends_on, is_idempotent, loop_is_parallelizable, loop_is_threadable,
    loop_is_threadable_where, parallel_loop_is_safe, stmts_commute, threadable_parallel_loops,
    threadable_parallel_loops_where, writes_depend_on_iter, written_params, CalleeWrites,
};
pub use context::Context;
pub use effects::{Access, Effects};
pub use linear::{provably_equal, prove_le, LinExpr};
pub use simplify::{simplify_expr, simplify_predicate, simplify_with_binding};
pub use verify::{check_proc, check_proc_where, unproven_buffers, Diagnostic, Severity};
