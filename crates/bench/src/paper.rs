//! The paper-kernel C-generation workloads: every scheduled output of
//! `exo-lib`, paired with the registry of instruction procedures it
//! calls, for golden-`.c` checks and compile-and-run differential
//! testing (see `crates/bench/tests/golden_c.rs`).

use exo_cursors::ProcHandle;
use exo_interp::ProcRegistry;
use exo_ir::{Block, DataType, Proc, Stmt};
use exo_kernels::Precision;
use exo_lib::{
    gemmini_schedule, halide_blur_schedule, halide_unsharp_schedule, level1::optimize_level_1,
    level2::optimize_level_2_general, optimize_sgemm,
};
use exo_machine::{gemmini_instructions, MachineModel};

/// One C-generation workload: a scheduled procedure, the registry its
/// calls resolve against, and (optionally) the golden `.c` file it must
/// reproduce byte-for-byte in machine-intrinsic mode.
pub struct CWorkload {
    /// Workload name (matches the scheduling goldens where one exists).
    pub name: &'static str,
    /// Golden file under `crates/codegen/goldens/`, if checked in.
    pub golden: Option<&'static str>,
    /// The scheduled procedure.
    pub proc: Proc,
    /// Instruction procedures the schedule calls.
    pub registry: ProcRegistry,
    /// Rough cost class: heavyweight workloads get golden and compile
    /// checks but no differential run.
    pub heavy: bool,
}

/// `copies` side-by-side copies of the sgemm loop nest in one procedure
/// (the wide scheduling workloads; the schedule rewrites only the first).
/// Shared by the golden tests, the memory-budget tests and `benchmark/`.
pub fn sgemm_wide(copies: usize) -> Proc {
    let base = exo_kernels::sgemm();
    let stmts: Vec<Stmt> = (0..copies)
        .flat_map(|_| base.body().iter().cloned())
        .collect();
    base.clone()
        .with_name("sgemm_wide")
        .with_body(Block::from_stmts(stmts))
}

fn avx512_registry() -> ProcRegistry {
    MachineModel::avx512()
        .instructions(DataType::F32)
        .into_iter()
        .collect()
}

fn avx2_registry() -> ProcRegistry {
    MachineModel::avx2()
        .instructions(DataType::F32)
        .into_iter()
        .collect()
}

fn sgemm_scheduled(copies: Option<usize>) -> Proc {
    let base = match copies {
        None => exo_kernels::sgemm(),
        Some(n) => sgemm_wide(n),
    };
    let p = ProcHandle::new(base);
    optimize_sgemm(&p, &MachineModel::avx512())
        .expect("sgemm schedule")
        .proc()
        .clone()
}

/// All C-generation workloads: the six golden paper kernels plus every
/// other scheduled output of `exo-lib` (differential-only).
pub fn c_workloads() -> Vec<CWorkload> {
    let mut v = Vec::new();
    v.push(CWorkload {
        name: "sgemm",
        golden: Some("sgemm.c"),
        proc: sgemm_scheduled(None),
        registry: avx512_registry(),
        heavy: false,
    });
    v.push(CWorkload {
        name: "sgemm_x8",
        golden: Some("sgemm_x8.c"),
        proc: sgemm_scheduled(Some(8)),
        registry: avx512_registry(),
        heavy: false,
    });
    v.push(CWorkload {
        name: "sgemm_x32",
        golden: Some("sgemm_x32.c"),
        proc: sgemm_scheduled(Some(32)),
        registry: avx512_registry(),
        heavy: true,
    });
    v.push(CWorkload {
        name: "sgemm_x64",
        golden: Some("sgemm_x64.c"),
        proc: sgemm_scheduled(Some(64)),
        registry: avx512_registry(),
        heavy: true,
    });
    v.push(CWorkload {
        name: "halide_blur",
        golden: Some("halide_blur.c"),
        proc: {
            let p = ProcHandle::new(exo_kernels::blur2d());
            halide_blur_schedule(&p, &MachineModel::avx2())
                .expect("blur schedule")
                .proc()
                .clone()
        },
        registry: avx2_registry(),
        heavy: false,
    });
    v.push(CWorkload {
        name: "halide_unsharp",
        golden: None,
        proc: {
            let p = ProcHandle::new(exo_kernels::unsharp());
            halide_unsharp_schedule(&p, &MachineModel::avx2())
                .expect("unsharp schedule")
                .proc()
                .clone()
        },
        registry: avx2_registry(),
        heavy: false,
    });
    // Level-1 schedules over the shared (n, alpha, x, y, out) signature.
    for k in exo_kernels::LEVEL1_KERNELS {
        if matches!(k.name, "rot" | "rotm") {
            // Different signatures; their unscheduled forms are covered
            // by the exo-codegen differential tests.
            continue;
        }
        let machine = MachineModel::avx2();
        let p = ProcHandle::new((k.build)(Precision::Single));
        let loop_ = p.find_loop("i").expect("level-1 kernels have an i loop");
        let opt = optimize_level_1(&p, &loop_, DataType::F32, &machine, 2)
            .expect("level-1 schedule")
            .proc()
            .clone();
        v.push(CWorkload {
            name: match k.name {
                "axpy" => "level1_axpy",
                "scal" => "level1_scal",
                "copy" => "level1_copy",
                "swap" => "level1_swap",
                "dot" => "level1_dot",
                _ => "level1_asum",
            },
            golden: if k.name == "axpy" {
                Some("level1_axpy.c")
            } else {
                None
            },
            proc: opt,
            registry: avx2_registry(),
            heavy: false,
        });
    }
    v.push(CWorkload {
        name: "level2_gemv",
        golden: Some("level2_gemv.c"),
        proc: {
            let machine = MachineModel::avx2();
            let p = ProcHandle::new(exo_kernels::gemv(Precision::Single, false));
            let outer = p.find_loop("i").expect("gemv has an i loop");
            optimize_level_2_general(&p, &outer, DataType::F32, &machine, 4, 2)
                .expect("level-2 schedule")
                .proc()
                .clone()
        },
        registry: avx2_registry(),
        heavy: false,
    });
    v.push(CWorkload {
        name: "gemmini_matmul",
        golden: None,
        proc: {
            let p = ProcHandle::new(exo_kernels::gemmini_matmul());
            gemmini_schedule(&p)
                .expect("gemmini schedule")
                .proc()
                .clone()
        },
        registry: gemmini_instructions().into_iter().collect(),
        heavy: false,
    });
    v
}

/// Path of a golden `.c` file (they live with the codegen crate).
pub fn golden_c_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../codegen/goldens")
        .join(file)
}
