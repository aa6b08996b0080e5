//! Run-verified native emission: AVX2/FMA intrinsic units are compiled
//! with their `-m` flags and *executed* against the interpreter whenever
//! the host CPU supports them (`HostCaps`), and OpenMP work-sharing
//! pragmas appear exactly on the parallel loops the region analysis
//! certifies thread-safe — with the threaded binaries passing the same
//! differential harness.
//!
//! On hosts without the features (or without `cc`) every check degrades
//! to a logged skip, never a failure.

use exo_codegen::difftest::{
    cc_available, cc_command, emit_driver, run_differential_native, run_differential_with,
    synth_inputs, Artifact, DiffOutcome, Toolchain,
};
use exo_codegen::{emit_c, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_interp::ProcRegistry;
use exo_ir::{Expr, Proc};
use exo_kernels::{blur2d, gemv, sgemm, Precision};
use exo_lib::{apply_script, schedule_of_record, LoopSel, SchedStep, ScheduleScript};
use exo_machine::{HostCaps, MachineModel};

/// The schedule of record plus `parallelize` on the given outer loops.
fn parallel_schedule(kernel: &str, machine: &MachineModel, outer: &[(&str, usize)]) -> Proc {
    let base = match kernel {
        "sgemm" => sgemm(),
        "sgemv_n" => gemv(Precision::Single, false),
        "blur2d" => blur2d(),
        other => panic!("unknown kernel {other}"),
    };
    let mut script = schedule_of_record(kernel, machine)
        .unwrap_or_else(|| panic!("{kernel} lost its schedule of record"));
    for (name, nth) in outer {
        script.steps.push(SchedStep::Parallelize {
            loop_: LoopSel {
                name: (*name).to_string(),
                nth: *nth,
            },
        });
    }
    apply_script(&ProcHandle::new(base), &script, machine)
        .unwrap_or_else(|e| panic!("applying {kernel} schedule: {e}"))
        .proc()
        .clone()
}

fn expect_run_or_logged_skip(name: &str, flags: &[&str], outcome: Result<DiffOutcome, String>) {
    match outcome {
        Ok(DiffOutcome::Agreed { buffers, elems }) => {
            assert!(buffers > 0 && elems > 0, "{name}: nothing compared");
        }
        Ok(DiffOutcome::Skipped(why)) => {
            eprintln!("SKIPPED native differential for `{name}`: {why}");
            // On a capable host the run must NOT have been skipped.
            assert!(
                !HostCaps::detect().supports_cflags(flags),
                "{name}: skipped on a host that supports {flags:?}: {why}"
            );
        }
        Err(e) => panic!("{name}: {e}"),
    }
}

/// The register-blocked sgemm record on both machine models: portable C
/// always agrees with the interpreter; the intrinsic build is executed
/// wherever `HostCaps` says the host can (AVX-512 is a logged skip on
/// an AVX2-only host, never on a capable one).
#[test]
fn sgemm_record_agrees_portable_and_native_on_both_models() {
    for (machine, flags) in [
        (MachineModel::avx2(), &["-mavx2", "-mfma"][..]),
        (MachineModel::avx512(), &["-mavx512f"][..]),
    ] {
        let registry: ProcRegistry = machine
            .instructions(exo_ir::DataType::F32)
            .into_iter()
            .collect();
        let p = parallel_schedule("sgemm", &machine, &[]);
        let name = format!("sgemm on {}", machine.name);
        match run_differential_with(&p, &registry, 7, &CodegenOptions::portable()) {
            Ok(DiffOutcome::Agreed { elems, .. }) => assert!(elems > 0, "{name}"),
            Ok(DiffOutcome::Skipped(why)) => eprintln!("SKIPPED portable `{name}`: {why}"),
            Err(e) => panic!("{name}, portable: {e}"),
        }
        expect_run_or_logged_skip(&name, flags, run_differential_native(&p, &registry, 7));
    }
}

#[test]
fn vectorized_kernels_differential_run_natively() {
    let machine = MachineModel::avx2();
    let registry: ProcRegistry = machine
        .instructions(exo_ir::DataType::F32)
        .into_iter()
        .collect();
    for kernel in ["sgemm", "sgemv_n", "blur2d"] {
        let scheduled = parallel_schedule(kernel, &machine, &[]);
        expect_run_or_logged_skip(
            kernel,
            &["-mavx2", "-mfma"],
            run_differential_native(&scheduled, &registry, 7),
        );
    }
}

/// Wall-clock gate (CI runs it alone, in release mode, with
/// `cargo test --release -- --ignored`): on a host that executes
/// `-mavx2 -mfma`, the schedule of record's intrinsic build must beat the
/// unscheduled kernel's portable build by 10x. Both are timed as they
/// are checked and served, by the data driver on heap arguments whose
/// sizes and aliasing `cc` cannot see, so `-O2` does not vectorize the
/// scalar build. On a 2-core x86 VM, fastest of three: the
/// register-blocked record measures 16-19x, and losing the register tile
/// (`reorder(k); vectorize(j)`) drops to 5.5-6.5x and trips the gate.
#[test]
#[ignore = "wall-clock gate: run in release mode, not beside the parallel debug tests"]
fn avx2_sgemm_beats_portable_scalar() {
    const MIN_SPEEDUP: f64 = 10.0;
    let caps = HostCaps::detect();
    if !cc_available() || !caps.supports_cflags(&["-mavx2", "-mfma"]) {
        eprintln!(
            "SKIPPED speedup gate: host cannot build and execute -mavx2 -mfma ({})",
            caps.summary()
        );
        return;
    }
    let machine = MachineModel::avx2();
    let registry: ProcRegistry = machine
        .instructions(exo_ir::DataType::F32)
        .into_iter()
        .collect();
    let base = sgemm();
    let tuned = parallel_schedule("sgemm", &machine, &[]);
    // Scheduling keeps the signature, so both builds run the same inputs
    // — 96³ rather than the differential harness's 32³, where call
    // overhead and `cc -O2`'s own vectorizer close most of the gap.
    let sized = base.clone().add_assertion(Expr::bin(
        exo_ir::BinOp::Ge,
        exo_ir::var("M"),
        exo_ir::ib(96),
    ));
    let inputs = synth_inputs(&sized, 2).expect("sgemm inputs");
    let scalar_unit = emit_c(&base, &registry, &CodegenOptions::portable()).expect("emits");
    let avx2_unit = emit_c(&tuned, &registry, &CodegenOptions::native()).expect("emits");
    // Fastest of three alternating launches each: noise only ever adds
    // time, and a noisy second on a shared host hits both builds.
    let toolchain = Toolchain::system();
    let time = |unit, proc| toolchain.time_kernel(unit, proc, &inputs);
    let (mut scalar, mut avx2) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (ns, _) = time(&scalar_unit, &base).expect("scalar is timed");
        scalar = scalar.min(ns);
        let (ns, _) = time(&avx2_unit, &tuned).expect("avx2 is timed");
        avx2 = avx2.min(ns);
    }
    eprintln!(
        "sgemm: scalar {scalar:.0} ns, avx2 {avx2:.0} ns, {:.2}x",
        scalar / avx2
    );
    assert!(
        scalar / avx2 >= MIN_SPEEDUP,
        "AVX2 sgemm is only {:.2}x faster than portable scalar (gate: {MIN_SPEEDUP}x)",
        scalar / avx2
    );
}

/// Wall-clock gate, run like the one above: once a toolchain has built
/// its prelude, `cc` on a native unit takes at most 0.6x the plain
/// command (0.24-0.32x measured: `immintrin.h` is 270 of its 340 ms).
/// Fastest of five each, alternating. Compiling needs no AVX2 CPU; a
/// `cc` that cannot build the prelude is a logged skip.
#[test]
#[ignore = "wall-clock gate: run in release mode, not beside the parallel debug tests"]
fn warm_toolchain_compiles_a_native_unit_in_well_under_the_plain_cc() {
    const MAX_RATIO: f64 = 0.6;
    if !cc_available() {
        eprintln!("SKIPPED prelude gate: no cc on PATH");
        return;
    }
    let machine = MachineModel::avx2();
    let registry: ProcRegistry = machine
        .instructions(exo_ir::DataType::F32)
        .into_iter()
        .collect();
    let tuned = parallel_schedule("sgemm", &machine, &[]);
    let unit = emit_c(&tuned, &registry, &CodegenOptions::native()).expect("emits");
    let inputs = synth_inputs(&tuned, 2).expect("sgemm inputs");
    let driver = emit_driver(&unit, &tuned, &inputs);
    let toolchain = Toolchain::system();
    let guard = exo_guard::GuardConfig::with_timeout(std::time::Duration::from_secs(120));
    let cc_ms = |warm: bool| {
        let (mut cmd, _dir) = if warm {
            toolchain.command(&driver, &unit.cflags, "sgemm", Artifact::Executable)
        } else {
            cc_command("cc", &driver, &unit.cflags, "sgemm", Artifact::Executable)
        }
        .expect("command");
        let started = std::time::Instant::now();
        let out = exo_guard::run_guarded(&mut cmd, &guard).expect("cc runs");
        assert!(out.success, "{}", out.stderr_lossy());
        started.elapsed().as_secs_f64() * 1e3
    };
    // The first warm call builds the prelude, outside the comparison.
    cc_ms(true);
    if toolchain.preludes_built() == 0 {
        eprintln!("SKIPPED prelude gate: this cc cannot build the prelude");
        return;
    }
    let (mut plain, mut warm) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        plain = plain.min(cc_ms(false));
        warm = warm.min(cc_ms(true));
    }
    eprintln!(
        "cc on native sgemm: plain {plain:.0} ms, warm toolchain {warm:.0} ms, {:.2}x",
        warm / plain
    );
    assert!(
        warm <= MAX_RATIO * plain,
        "a warm toolchain's cc takes {:.2}x the plain one (gate: {MAX_RATIO}x)",
        warm / plain
    );
}

#[test]
fn openmp_pragmas_only_on_certified_loops() {
    let machine = MachineModel::avx2();
    let registry: ProcRegistry = machine
        .instructions(exo_ir::DataType::F32)
        .into_iter()
        .collect();
    // sgemm parallelized over the outer `io` loop of the record: row
    // blocks of C are disjoint and the `C_reg` tile is declared inside the
    // loop body, hence private — the region analysis certifies it, and
    // the pragma must sit on that loop and nowhere else (with the
    // matching cflag).
    let p = parallel_schedule("sgemm", &machine, &[("io", 0)]);
    let unit = emit_c(&p, &registry, &CodegenOptions::native_openmp()).expect("emit");
    let pragmas: Vec<usize> = unit
        .code
        .lines()
        .enumerate()
        .filter_map(|(n, line)| line.contains("#pragma omp parallel for").then_some(n))
        .collect();
    let [at] = pragmas.as_slice() else {
        panic!("expected one pragma, on `io`:\n{}", unit.code)
    };
    let threaded = unit.code.lines().nth(at + 1).unwrap_or_default();
    assert!(
        threaded.trim_start().starts_with("for (int64_t io = 0;"),
        "the pragma is on `{threaded}`, not on the io loop"
    );
    assert!(
        unit.cflags.iter().any(|f| f == "-fopenmp"),
        "pragma emitted without -fopenmp: {:?}",
        unit.cflags
    );
    // Without the option the same proc emits no pragma and no flag.
    let plain = emit_c(&p, &registry, &CodegenOptions::native()).expect("emit");
    assert!(!plain.code.contains("#pragma omp"));
    assert!(!plain.cflags.iter().any(|f| f == "-fopenmp"));
}

#[test]
fn openmp_pragma_withheld_from_shared_reduction() {
    // gemv parallelized over the *reduction* loop `j` commutes (V201
    // admits it) but races at the C level: the emitter must keep the
    // advisory comment and emit no pragma.
    let machine = MachineModel::avx2();
    let registry: ProcRegistry = machine
        .instructions(exo_ir::DataType::F32)
        .into_iter()
        .collect();
    let base = ProcHandle::new(gemv(Precision::Single, false));
    let script = ScheduleScript {
        steps: vec![SchedStep::Parallelize {
            loop_: LoopSel {
                name: "j".to_string(),
                nth: 0,
            },
        }],
    };
    let p = apply_script(&base, &script, &machine)
        .expect("parallelize(j) is legal as a commuting reduction")
        .proc()
        .clone();
    let unit = emit_c(&p, &registry, &CodegenOptions::native_openmp()).expect("emit");
    assert!(
        !unit.code.contains("#pragma omp"),
        "shared-reduction loop must not be threaded:\n{}",
        unit.code
    );
    assert!(unit.code.contains("/* exo: parallel loop"));
    assert!(!unit.cflags.iter().any(|f| f == "-fopenmp"));
}

#[test]
fn openmp_binaries_agree_with_interpreter() {
    if !cc_available() {
        eprintln!("SKIPPED: no cc on PATH");
        return;
    }
    let caps = HostCaps::detect();
    if !caps.openmp || !caps.avx2 || !caps.fma {
        eprintln!("SKIPPED: host lacks OpenMP or AVX2 ({})", caps.summary());
        return;
    }
    let machine = MachineModel::avx2();
    let registry: ProcRegistry = machine
        .instructions(exo_ir::DataType::F32)
        .into_iter()
        .collect();
    let cases: [(&str, &[(&str, usize)]); 3] = [
        ("sgemm", &[("io", 0)]),
        ("sgemv_n", &[("i", 0)]),
        ("blur2d", &[("y", 0), ("y", 1)]),
    ];
    for (kernel, outer) in cases {
        let p = parallel_schedule(kernel, &machine, outer);
        let unit = emit_c(&p, &registry, &CodegenOptions::native_openmp()).expect("emit");
        assert!(
            unit.code.contains("#pragma omp parallel for"),
            "{kernel}: no pragma emitted:\n{}",
            unit.code
        );
        match run_differential_with(&p, &registry, 11, &CodegenOptions::native_openmp()) {
            Ok(DiffOutcome::Agreed { buffers, elems }) => {
                assert!(buffers > 0 && elems > 0, "{kernel}: nothing compared");
            }
            Ok(DiffOutcome::Skipped(why)) => {
                panic!("{kernel}: unexpected skip on a capable host: {why}")
            }
            Err(e) => panic!("{kernel}: {e}"),
        }
    }
}
