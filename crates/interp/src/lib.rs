//! # exo-interp — reference interpreter for the Exo object language
//!
//! The interpreter executes a [`exo_ir::Proc`] on concrete buffers. It has
//! two jobs in this reproduction:
//!
//! 1. **Equivalence testing.** Every scheduling primitive in `exo-core` is
//!    required to preserve functional equivalence; the test suites run the
//!    original and the scheduled procedure on identical random inputs and
//!    compare the resulting buffers.
//! 2. **Performance simulation.** The interpreter reports every scalar
//!    operation, memory access, loop iteration and instruction call to a
//!    pluggable [`Monitor`]; `exo-machine` implements a monitor that
//!    charges cycle costs and simulates the cache hierarchy, which is how
//!    the paper's performance figures are reproduced without the authors'
//!    hardware (see `DESIGN.md`).
//!
//! Calls are resolved against a [`ProcRegistry`]. Instruction procedures
//! (e.g. `mm512_fmadd_ps`, Gemmini's `do_matmul_acc_i8`) carry their
//! semantics as ordinary object code in their bodies, so the interpreter
//! executes them like any other call while the monitor may charge them as
//! single hardware instructions.

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

mod buffer;
mod error;
mod exec;
mod lower;
mod monitor;
mod registry;
mod shadow;

pub use buffer::{ArgValue, BufRef, BufferData, View};
pub use error::InterpError;
pub use exec::{InstProfile, Interpreter};
pub use lower::{
    lower, LArg, LBufRef, LCallArg, LExpr, LInst, LParamKind, LWSpec, LWindow, LoweredProc, Strip,
};
pub use monitor::{
    CountingMonitor, Monitor, NullMonitor, StripCursor, StripStep, StripTrace, TracedAccess,
};
pub use registry::ProcRegistry;
pub use shadow::{Race, ShadowMonitor};

/// Result alias for interpreter operations.
pub type Result<T> = std::result::Result<T, InterpError>;
