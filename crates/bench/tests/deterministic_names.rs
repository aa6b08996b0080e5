//! Regression tests for deterministic per-proc fresh names.
//!
//! Generated temporaries (`vtmp_0`, `vo_0`, ...) must be a pure function
//! of the procedure being scheduled: independent of how many schedules
//! ran earlier in the process, of test thread
//! interleaving, and of which cursor engine built the schedule. This is
//! what makes the golden pretty-print files in `crates/bench/goldens` and
//! the golden `.c` files in `crates/codegen/goldens` order-independent.

mod common;

use exo_bench::paper::sgemm_wide;
use exo_cursors::{with_reference_semantics, ProcHandle};
use exo_ir::{DataType, Proc};
use exo_kernels::Precision;
use exo_lib::{
    halide_blur_schedule, level1::optimize_level_1, level2::optimize_level_2_general,
    optimize_sgemm,
};
use exo_machine::MachineModel;

fn schedule_sgemm_of(base: Proc) -> String {
    optimize_sgemm(&ProcHandle::new(base), &MachineModel::avx512())
        .expect("sgemm schedule")
        .to_string()
}

fn schedule_sgemm() -> String {
    schedule_sgemm_of(exo_kernels::sgemm())
}

/// The seven scheduled pipelines with a checked-in pretty-print:
/// `(golden file, scheduled text)`.
fn pipelines() -> Vec<(&'static str, String)> {
    let avx2 = MachineModel::avx2();
    let axpy = ProcHandle::new(exo_kernels::axpy(Precision::Single));
    let axpy_i = axpy.find_loop("i").expect("axpy has an i loop");
    let gemv = ProcHandle::new(exo_kernels::gemv(Precision::Single, false));
    let gemv_i = gemv.find_loop("i").expect("gemv has an i loop");
    vec![
        ("sgemm.txt", schedule_sgemm()),
        ("sgemm_x8.txt", schedule_sgemm_of(sgemm_wide(8))),
        ("sgemm_x32.txt", schedule_sgemm_of(sgemm_wide(32))),
        ("sgemm_x64.txt", schedule_sgemm_of(sgemm_wide(64))),
        (
            "halide_blur.txt",
            halide_blur_schedule(&ProcHandle::new(exo_kernels::blur2d()), &avx2)
                .expect("blur schedule")
                .to_string(),
        ),
        (
            "level1_axpy.txt",
            optimize_level_1(&axpy, &axpy_i, DataType::F32, &avx2, 2)
                .expect("level-1 schedule")
                .to_string(),
        ),
        (
            "level2_gemv.txt",
            optimize_level_2_general(&gemv, &gemv_i, DataType::F32, &avx2, 4, 2)
                .expect("level-2 schedule")
                .to_string(),
        ),
    ]
}

#[test]
fn schedules_ignore_global_fresh_counter_state() {
    // Fresh names come from the proc being scheduled, so re-scheduling
    // the same kernel in one process gives byte-identical object code.
    assert_eq!(schedule_sgemm(), schedule_sgemm());
}

#[test]
fn scheduled_pipelines_match_their_goldens_under_both_cursor_engines() {
    let shared = pipelines();
    let reference = with_reference_semantics(pipelines);
    for ((file, text), (_, reference_text)) in shared.iter().zip(&reference) {
        assert!(
            text == reference_text,
            "`{file}`: the shared editing engine diverged from the deep-clone reference"
        );
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("goldens")
            .join(file);
        common::assert_matches_golden(file, text, &golden);
    }
}
