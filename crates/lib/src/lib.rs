//! # exo-lib — scheduling libraries built in user space
//!
//! This crate is the payoff of the paper: every function here is written
//! *outside the compiler*, composing only the safety-checked primitives of
//! `exo-core`, cursor navigation/inspection from `exo-cursors`, and the
//! analysis helpers of `exo-analysis` — exactly the workflow §6 of the
//! paper describes. The modules mirror the paper's libraries:
//!
//! * [`inspect`] — the inspection library (`get_inner_loop`, loop-nest
//!   queries, post-order traversal `lrn`).
//! * [`mod@vectorize`] — the target-parameterized vectorizer of §6.1.1,
//!   including the FMA-staging hook of Figure 4.
//! * [`level1`] — `optimize_level_1` (§6.2.1 / Appendix D.1).
//! * [`level2`] — `optimize_level_2_general` (§6.2.2 / Appendix D.2).
//! * [`gemm`] — the SGEMM schedule of §6.2.3 / Appendix C.
//! * [`gemmini`] — the Gemmini library of §6.1.2 / Appendix B
//!   (tiling to the systolic array, instruction selection, configuration
//!   hoisting built from the §3.4 combinators).
//! * [`halide`] — the Halide reproduction of §6.3.2 (`H_tile`,
//!   `H_compute_at`, bounds-inference-driven producer/consumer fusion).
//! * [`record`] — schedules as data: the replayable [`ScheduleScript`]
//!   genome that `exo-autotune` searches over, plus the pinned
//!   schedule-of-record per kernel.

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

pub mod gemm;
pub mod gemmini;
pub mod halide;
pub mod inspect;
pub mod level1;
pub mod level2;
pub mod record;
pub mod vectorize;

pub use gemm::optimize_sgemm;
pub use gemmini::gemmini_schedule;
pub use halide::{halide_blur_schedule, halide_unsharp_schedule};
pub use level1::{optimize_all_level_1, optimize_level_1};
pub use level2::{optimize_all_level_2, optimize_level_2_general};
pub use record::{
    apply_script, apply_step, instruction_writes, schedule_of_record, LoopSel, SchedStep,
    ScheduleScript,
};
pub use vectorize::vectorize;
