//! # exo-machine — target machines and the cycle-cost simulator
//!
//! The paper evaluates Exo 2 on three platforms: x86 CPUs with AVX2 and
//! AVX512 vector extensions, and the Gemmini ML accelerator. This crate
//! provides:
//!
//! * [`MachineModel`] — per-target parameters (vector width, memory
//!   space) plus the *instruction procedures* the target exposes. Instruction procedures are ordinary object-language
//!   procedures whose bodies define their semantics; the `replace`
//!   primitive substitutes matching loop nests with calls to them.
//! * [`CostModel`] / [`CostMonitor`] — an `exo-interp` [`exo_interp::Monitor`]
//!   that charges cycles per scalar operation, per vector instruction
//!   (keyed by the instruction's cost class), per Gemmini instruction, and
//!   per memory access through a two-level cache model.
//! * [`simulate`] — convenience entry point: run a procedure on concrete
//!   inputs and return the simulated cycle count and event statistics.
//!
//! Because the authors' hardware is unavailable, all performance numbers
//! in this reproduction are *simulated cycles*; the benchmark harness
//! compares ratios between implementations run on the same model, which is
//! the quantity the paper's figures report (see `DESIGN.md`).

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

mod cache;
mod cost;
mod gemmini;
mod hostcaps;
mod intrinsics;
mod isa;
mod model;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use cost::{simulate, try_simulate, CostModel, CostMonitor, SimReport};
pub use gemmini::{gemmini_instructions, GEMM_ACCUM_BYTES, GEMM_SCRATCH_BYTES};
pub use hostcaps::HostCaps;
pub use intrinsics::{c_intrinsic, c_type_tag, CIntrinsic};
pub use isa::{
    avx2_instructions, avx512_instructions, instruction_cost_class, try_instruction_cost_class,
    UnknownCostClass, DEFAULT_INSTRUCTION_COST,
};
pub use model::{MachineKind, MachineModel};
