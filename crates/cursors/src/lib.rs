//! # exo-cursors — multiple, stable, relative references into object code
//!
//! This crate implements the *Cursors* mechanism of the paper (§5):
//! references into object code that are
//!
//! * **multiple** — any number of cursors may point into the same
//!   procedure at once,
//! * **stable** — cursors survive scheduling transformations via
//!   *forwarding*, and
//! * **relative** — cursors are navigated spatially
//!   (`parent`/`next`/`prev`/`before`/`after`/`body`) and resolved against
//!   a specific *version* of a procedure (the branching time model).
//!
//! The main types are:
//!
//! * [`ProcHandle`] — an immutable, versioned handle to a procedure.
//!   Every scheduling primitive consumes a handle and produces a new one;
//!   the new handle records its provenance and a forwarding function.
//! * [`Cursor`] — a (version, path) pair pointing at a statement,
//!   expression, statement block, or gap between statements.
//! * [`Rewrite`] — the editing session used by scheduling primitives in
//!   `exo-core`. Edits are expressed in terms of the five atomic edits of
//!   the paper (insert, delete, replace, move, wrap) plus statement-local
//!   modification, and each atomic edit contributes its canonical
//!   forwarding function.
//! * [`CursorError`] — `InvalidCursorError` and friends.
//!
//! # Example
//!
//! ```
//! use exo_ir::{ProcBuilder, DataType, Mem, var, ib, read};
//! use exo_cursors::ProcHandle;
//!
//! let gemv = ProcBuilder::new("gemv")
//!     .size_arg("M").size_arg("N")
//!     .tensor_arg("A", DataType::F32, vec![var("M"), var("N")], Mem::Dram)
//!     .tensor_arg("x", DataType::F32, vec![var("N")], Mem::Dram)
//!     .tensor_arg("y", DataType::F32, vec![var("M")], Mem::Dram)
//!     .for_("i", ib(0), var("M"), |b| {
//!         b.for_("j", ib(0), var("N"), |b| {
//!             let rhs = read("A", vec![var("i"), var("j")]) * read("x", vec![var("j")]);
//!             b.reduce("y", vec![var("i")], rhs);
//!         });
//!     })
//!     .build();
//!
//! let p = ProcHandle::new(gemv);
//! let cur_0 = p.find_loop("i").unwrap();
//! let cur_1 = p.find("for i in _: _").unwrap();
//! assert_eq!(cur_0.path(), cur_1.path()); // both point to the same loop
//! let inner = &cur_0.body()[0];
//! assert_eq!(inner.loop_iter_name(), Some("j".to_string()));
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

mod cursor;
mod error;
mod find;
mod reference;
mod rewrite;
mod version;

pub use cursor::Cursor;
pub use error::CursorError;
pub use find::Pattern;
pub use reference::with_reference_semantics;
pub use rewrite::{EditRecord, Rewrite};
pub use version::{CursorPath, ProcHandle};

/// Convenience alias for results returned by cursor operations.
pub type Result<T> = std::result::Result<T, CursorError>;
