//! # exo2 — facade crate
//!
//! Re-exports the full public API of the exo2-rs workspace: a Rust
//! reproduction of *"Exo 2: Growing a Scheduling Language"* (ASPLOS 2025).
//!
//! The workspace is organized bottom-up:
//!
//! * [`ir`] — the object language (loop-nest IR).
//! * [`cursors`] — multiple, stable, relative references into object code.
//! * [`analysis`] — the affine/interval safety analysis substrate.
//! * [`core`] — the 46 safety-checked scheduling primitives and the
//!   higher-order scheduling combinators (the paper's primary contribution).
//! * [`interp`] — a reference interpreter used to validate functional
//!   equivalence of every rewrite.
//! * [`machine`] — target descriptions (AVX2, AVX512, Gemmini) and a
//!   cycle-cost simulator.
//! * [`lib`] — user-space scheduling libraries (vectorize, BLAS level 1/2,
//!   GEMM micro-kernels, the Gemmini library, Halide- and ELEVATE-style
//!   scheduling reproductions).
//! * [`kernels`] — the object-code kernels used by the paper's evaluation.
//! * [`codegen`] — the C backend: lowers scheduled procedures to C99
//!   with machine-intrinsic lowering and compile-and-run differential
//!   testing against the interpreter.
//!
//! See `README.md` for a quickstart and `DESIGN.md` / `EXPERIMENTS.md` for
//! the experiment-by-experiment reproduction plan and results.

pub use exo_analysis as analysis;
pub use exo_codegen as codegen;
pub use exo_core as core;
pub use exo_cursors as cursors;
pub use exo_interp as interp;
pub use exo_ir as ir;
pub use exo_kernels as kernels;
pub use exo_lib as lib;
pub use exo_machine as machine;
