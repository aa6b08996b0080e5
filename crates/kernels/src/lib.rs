//! # exo-kernels — the object-code kernels of the paper's evaluation
//!
//! Unscheduled (algorithm-only) object code for the kernels the paper
//! optimizes with its scheduling libraries:
//!
//! * **BLAS level 1** (§6.2.1): axpy, scal, copy, swap, dot, sdsdot/dsdot,
//!   asum, rot, rotm — parameterized by precision.
//! * **BLAS level 2** (§6.2.2): gemv (transposed / non-transposed), ger,
//!   symv, syr, syr2, trmv, trsv — parameterized by precision and
//!   operational parameters.
//! * **GEMM / matmul** (§6.2.3, Appendix C): the triple-nested SGEMM.
//! * **Image processing** (§6.3.2): 3×3 box blur and unsharp masking.
//! * **Gemmini matmul** (§6.1.2, Appendix B): quantized i8 matmul.
//!
//! Each constructor returns plain, unoptimized object code; the scheduling
//! libraries in `exo-lib` (and the raw-primitive schedules in
//! `exo_bench::baselines`) transform it.

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

mod blas1;
mod blas2;
mod gemm;
mod image;

pub use blas1::{asum, axpy, copy, dot, rot, rotm, scal, swap, Level1Kernel, LEVEL1_KERNELS};
pub use blas2::{gemv, ger, symv, syr, syr2, trmv, Level2Kernel, LEVEL2_KERNELS};
pub use gemm::{gemmini_matmul, sgemm};
pub use image::{blur2d, unsharp};

use exo_ir::DataType;

/// Precision of a BLAS kernel variant (the paper's `s`/`d` prefixes).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Precision {
    /// Single precision (`f32`, the `s` prefix).
    Single,
    /// Double precision (`f64`, the `d` prefix).
    Double,
}

impl Precision {
    /// The element type of this precision.
    pub fn dtype(self) -> DataType {
        match self {
            Precision::Single => DataType::F32,
            Precision::Double => DataType::F64,
        }
    }

    /// The BLAS name prefix (`s` / `d`).
    pub fn prefix(self) -> &'static str {
        match self {
            Precision::Single => "s",
            Precision::Double => "d",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_helpers() {
        assert_eq!(Precision::Single.dtype(), DataType::F32);
        assert_eq!(Precision::Double.dtype(), DataType::F64);
        assert_eq!(Precision::Single.prefix(), "s");
        assert_eq!(Precision::Double.prefix(), "d");
    }

    #[test]
    fn kernel_inventories_cover_the_paper() {
        // 8 level-1 operations x 2 precisions = 16 variants named here; the
        // paper's 24 also count stride variants which we fold into one.
        assert!(LEVEL1_KERNELS.len() >= 8);
        assert!(LEVEL2_KERNELS.len() >= 6);
    }
}
