//! # exo-core — the Exo 2 scheduling primitives and combinators
//!
//! This crate is the paper's primary contribution reproduced in Rust: a set
//! of fine-grained, *safety-checked* scheduling primitives (Appendix A of
//! the paper) from which users compose their own scheduling operators and
//! libraries, plus the higher-order scheduling combinators of §3.4 and the
//! ELEVATE-style reframing combinators of §6.3.1.
//!
//! Every primitive has the shape
//!
//! ```text
//! Op = Proc × Cursor × ... → Proc
//! ```
//!
//! concretely `fn(&ProcHandle, impl IntoCursor, ...) -> Result<ProcHandle>`.
//! Primitives verify their safety conditions using the conservative
//! analyses in `exo-analysis` and raise [`SchedError::Scheduling`] when a
//! transformation cannot be proven equivalence-preserving — exactly the
//! error-driven scheduling style (`try`/`except` in the paper, `Result`
//! combinators here) that user libraries build on.
//!
//! ## Primitive inventory (paper Appendix A)
//!
//! * **Loop transformations** — [`reorder_loops`], [`divide_loop`],
//!   [`divide_with_recompute`], [`mult_loops`], [`cut_loop`], [`join_loops`],
//!   [`shift_loop`], [`fission`], [`remove_loop`], [`add_loop`],
//!   [`unroll_loop`].
//! * **Code rearrangement** — [`reorder_stmts`], [`commute_expr`].
//! * **Scope transformations** — [`specialize`], [`fuse`], [`lift_scope`].
//! * **Multiple procedures** — [`inline_call`], [`replace`], [`replace_all`],
//!   [`call_eqv`], [`extract_subproc`], [`rename`].
//! * **Buffer transformations** — [`lift_alloc`], [`sink_alloc`],
//!   [`delete_buffer`], [`reuse_buffer`], [`resize_dim`], [`expand_dim`],
//!   [`rearrange_dim`], [`divide_dim`], [`mult_dim`], [`unroll_buffer`],
//!   [`bind_expr`], [`stage_mem`].
//! * **Simplification** — [`simplify`], [`eliminate_dead_code`],
//!   [`rewrite_expr`], [`merge_writes`], [`inline_window`], [`inline_assign`].
//! * **Backend-checked annotations** — [`set_memory`], [`set_precision`],
//!   [`parallelize_loop`], [`set_window`].
//! * **Configuration state** — [`bind_config`], [`delete_config`],
//!   [`write_config_at`].
//!
//! ## Rewrite accounting
//!
//! Every successful primitive application increments a thread-local rewrite
//! counter ([`stats`]), which is how the evaluation's "number of primitive
//! rewrites" table (paper Fig. 9b) is reproduced.

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

mod backend;
mod buffers;
mod combinators;
mod config;
mod error;
mod helpers;
mod loops;
mod multiproc;
mod rearrange;
mod scope;
mod simplify_ops;
pub mod stats;
mod uses;

pub use backend::{
    parallelize_loop, parallelize_loop_where, set_memory, set_precision, set_window,
};
pub use buffers::{
    bind_expr, delete_buffer, divide_dim, expand_dim, lift_alloc, mult_dim, rearrange_dim,
    resize_dim, reuse_buffer, sink_alloc, stage_mem, unroll_buffer,
};
pub use combinators::{lift, nav, reduce_op, reframe, repeat, savec, seq_ops, try_else, COp};
pub use config::{bind_config, delete_config, write_config_at};
pub use error::SchedError;
pub use helpers::IntoCursor;
pub use loops::{
    add_loop, cut_loop, divide_loop, divide_with_recompute, fission, join_loops, mult_loops,
    remove_loop, reorder_loops, shift_loop, unroll_loop, TailStrategy,
};
pub use multiproc::{call_eqv, extract_subproc, inline_call, rename, replace, replace_all};
pub use rearrange::{commute_expr, reorder_stmts};
pub use scope::{fuse, lift_scope, specialize};
pub use simplify_ops::{
    eliminate_dead_code, inline_assign, inline_window, merge_writes, rewrite_expr, simplify,
    simplify_at,
};

/// Result alias for scheduling operations.
pub type Result<T> = std::result::Result<T, SchedError>;
