//! # exo-ir — the Exo object language
//!
//! This crate defines the *object language* that Exo 2 schedules operate on:
//! a small, explicitly-loop-based imperative IR for dense numerical kernels.
//! Procedures ([`Proc`]) contain sequential `for` loops, buffer allocations,
//! assignments and reductions into multi-dimensional buffers, conditionals,
//! calls to other procedures (including *instruction procedures* that model
//! hardware intrinsics), and configuration-register writes for stateful
//! accelerators.
//!
//! The design mirrors the Exo IR described in the paper
//! *"Exo 2: Growing a Scheduling Language"* (ASPLOS 2025), §2:
//!
//! ```text
//! def gemv(M: size, N: size,
//!          A: f32[M, N] @DRAM, x: f32[N] @DRAM, y: f32[M] @DRAM):
//!     assert M % 8 == 0
//!     for i in seq(0, M):
//!         for j in seq(0, N):
//!             y[i] += A[i, j] * x[j]
//! ```
//!
//! The crate provides:
//!
//! * the AST ([`Expr`], [`Stmt`], [`Block`], [`Proc`]),
//! * value types and memory spaces ([`DataType`], [`Mem`]),
//! * a builder API ([`ProcBuilder`]) and expression helpers for constructing
//!   object code in Rust,
//! * a Python-like pretty printer (`Display` on [`Proc`]),
//! * path-based navigation and editing ([`Step`], [`NodeRef`], splicing
//!   helpers) used by the cursor machinery in `exo-cursors`,
//! * structural visitors and substitution utilities,
//! * structural content hashing ([`Proc::content_hash`], cached on shared
//!   [`Block`] nodes; [`ContentHasher`]), and the one bounded memo every
//!   cache keyed by such a hash is built on ([`memo::ContentMemo`]),
//! * the workspace's one seeded random stream ([`rng::Rng`]) and the random
//!   programs property tests draw from it ([`gen`]).
//!
//! Scheduling (rewriting procedures while preserving semantics) lives in
//! `exo-core`; this crate is purely the data model.
//!
//! # Example
//!
//! ```
//! use exo_ir::{ProcBuilder, DataType, Mem, var, ib};
//!
//! // for i in seq(0, n): y[i] += a * x[i]
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
//! assert_eq!(axpy.name(), "saxpy");
//! assert!(format!("{axpy}").contains("y[i] += a * x[i]"));
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

mod builder;
mod expr;
pub mod gen;
mod hash;
pub mod memo;
mod path;
mod print;
mod proc;
pub mod rng;
mod size;
mod stmt;
mod sym;
mod types;
mod visit;

pub use builder::{BlockBuilder, ProcBuilder};
pub use expr::{fb, format_float, ib, read, var, BinOp, Expr, UnOp, WAccess};
pub use hash::ContentHasher;
pub use path::{
    for_each_stmt_paths, for_each_stmt_paths_under, for_each_stmt_paths_until, resolve_block,
    resolve_block_mut, resolve_container, resolve_container_mut, resolve_expr, resolve_stmt,
    resolve_stmt_mut, splice_at, ExprStep, NodeRef, Step,
};
pub use proc::{ArgKind, InstrInfo, Proc, ProcArg};
pub use size::{block_bytes, deep_unshare, proc_retained_bytes};
pub use stmt::{Block, Stmt};
pub use sym::Sym;
pub use types::{DataType, Mem};
pub use visit::{
    for_each_expr, for_each_stmt, rename_expr, rename_sym, substitute_block, substitute_expr,
    substitute_var, walk_expr, walk_expr_mut, walk_stmt, walk_stmt_mut, walk_stmts, walk_stmts_mut,
    Visit, VisitMut,
};
