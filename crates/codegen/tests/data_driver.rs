//! Inputs are data: the driver [`emit_data_driver`] emits reads the
//! argument block [`encode_args`] writes, and prints exactly what the
//! self-contained [`emit_driver`] binary prints — bit patterns, not
//! tolerances — for every kernel the service is benchmarked on and for
//! every argument kind and element type. The same build that checks a
//! kernel times it. Its decoder, the one parser this repository
//! generates, refuses a hostile block or an unknown mode with a message
//! and a non-zero status, also under ASan + UBSan.
//!
//! Every check logs a skip where `cc` (or the CPU feature, or the
//! sanitizer runtime) is missing.

use exo_codegen::difftest::{
    build, cc_available, emit_data_driver, emit_driver, encode_args, interp_outputs,
    run_data_driver, run_lines, synth_inputs, SynthArg, Toolchain, TIMED_RUNS, TIMING_MODE,
};
use exo_codegen::{emit_c, CUnit, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_guard::{run_guarded, GuardConfig};
use exo_interp::ProcRegistry;
use exo_ir::{ib, read, var, DataType, Mem, Proc, ProcBuilder};
use exo_kernels::{blur2d, gemv, sgemm, Precision};
use exo_lib::{apply_script, schedule_of_record};
use exo_machine::{HostCaps, MachineModel};
use std::path::Path;
use std::process::Command;
use std::time::Duration;

fn guard() -> GuardConfig {
    GuardConfig::with_timeout(Duration::from_secs(120))
}

fn bits(values: Vec<f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// What the self-contained driver of `inputs` prints.
fn embedded_output(unit: &CUnit, proc: &Proc, inputs: &[SynthArg]) -> Vec<u64> {
    let exe = build(&emit_driver(unit, proc, inputs), &unit.cflags, proc.name())
        .expect("the embedded-literal driver builds");
    bits(run_lines(&mut Command::new(exe.artifact()), &guard()).expect("it runs"))
}

/// What the data driver at `exe` prints for `inputs`.
fn data_output(exe: &Path, inputs: &[SynthArg]) -> Vec<u64> {
    bits(
        run_data_driver(&mut Command::new(exe), &encode_args(inputs), &guard())
            .expect("the data driver runs"),
    )
}

/// (i) sgemm, sgemv_n and blur2d, portable and under their AVX2 records
/// with intrinsics, three seeds each: one data-driver build per unit
/// prints what three embedded-literal builds print.
#[test]
fn data_driver_prints_the_bits_the_embedded_driver_prints() {
    if !cc_available() {
        eprintln!("SKIPPED: no cc on PATH");
        return;
    }
    let machine = MachineModel::avx2();
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    let native = HostCaps::detect().supports_cflags(&["-mavx2", "-mfma"]);
    if !native {
        eprintln!("SKIPPED the native half: host cannot build and execute -mavx2 -mfma");
    }
    let toolchain = Toolchain::system();
    for (name, base) in [
        ("sgemm", sgemm()),
        ("sgemv_n", gemv(Precision::Single, false)),
        ("blur2d", blur2d()),
    ] {
        let script = schedule_of_record(name, &machine).expect("a schedule of record");
        let scheduled = apply_script(&ProcHandle::new(base.clone()), &script, &machine)
            .expect("the record applies")
            .proc()
            .clone();
        let mut variants = vec![(base, CodegenOptions::portable())];
        if native {
            variants.push((scheduled, CodegenOptions::native()));
        }
        for (proc, opts) in variants {
            let unit = emit_c(&proc, &registry, &opts).expect("emits");
            let driver = emit_data_driver(&unit, &proc);
            let exe = toolchain
                .executable(&driver, &unit.cflags, name)
                .expect("the data driver builds");
            for seed in [1, 2, 0xDEAD_BEEF] {
                let inputs = synth_inputs(&proc, seed).expect("inputs");
                assert_eq!(
                    emit_data_driver(&unit, &proc),
                    driver,
                    "the driver's text depends on an input"
                );
                let want = embedded_output(&unit, &proc, &inputs);
                assert!(!want.is_empty());
                assert_eq!(
                    data_output(exe.artifact(), &inputs),
                    want,
                    "{name} {:?} seed {seed}",
                    unit.cflags
                );
            }
        }
    }
}

/// sgemm under its AVX2 record: one data-driver build dumps what the
/// interpreter computes, bit for bit (integer-valued data keeps every
/// sum exact), and the same artifact in timing mode prints
/// [`TIMED_RUNS`] ns-per-call samples. The timed call sits above the
/// decoder's `-O0` pragma, so it keeps the command line's level.
#[test]
fn one_data_driver_build_checks_and_times() {
    if !cc_available() || !HostCaps::detect().supports_cflags(&["-mavx2", "-mfma"]) {
        eprintln!("SKIPPED: needs cc and a CPU with AVX2 and FMA");
        return;
    }
    let machine = MachineModel::avx2();
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    let script = schedule_of_record("sgemm", &machine).expect("a schedule of record");
    let proc = apply_script(&ProcHandle::new(sgemm()), &script, &machine)
        .expect("the record applies")
        .proc()
        .clone();
    let unit = emit_c(&proc, &registry, &CodegenOptions::native()).expect("emits");
    let driver = emit_data_driver(&unit, &proc);
    let pragma = driver
        .find("#pragma GCC optimize")
        .expect("the decoder is not optimised");
    for timed in ["static void exo_time(void)", "exo_kernel(exo_arg_0"] {
        let at = driver.find(timed).expect("the driver times the kernel");
        assert!(at < pragma, "`{timed}` falls under the decoder's pragma");
    }
    let exe = Toolchain::system()
        .executable(&driver, &unit.cflags, "sgemm")
        .expect("the data driver builds");
    let inputs = synth_inputs(&proc, 5).expect("inputs");
    let want: Vec<f64> = interp_outputs(&proc, &registry, &inputs)
        .expect("the interpreter runs")
        .concat();
    assert_eq!(data_output(exe.artifact(), &inputs), bits(want));

    let mut timed = Command::new(exe.artifact());
    timed.arg(TIMING_MODE);
    let runs =
        run_data_driver(&mut timed, &encode_args(&inputs), &guard()).expect("the same build times");
    assert_eq!(runs.len(), TIMED_RUNS, "{runs:?}");
    assert!(
        runs.iter().all(|ns| ns.is_finite() && *ns > 0.0),
        "{runs:?}"
    );
}

/// One argument of every kind and one tensor of every element type, a
/// rank-0 tensor and a window; the scalars are stored where the dump
/// shows them.
fn every_kind() -> Proc {
    let n = || vec![var("n")];
    ProcBuilder::new("every_kind")
        .size_arg("n")
        .scalar_arg("a", DataType::F32)
        .scalar_arg("d", DataType::F64)
        .scalar_arg("k", DataType::I32)
        .scalar_arg("flag", DataType::Bool)
        .tensor_arg("f", DataType::F32, n(), Mem::Dram)
        .tensor_arg("g", DataType::F64, n(), Mem::Dram)
        .tensor_arg("b", DataType::I8, n(), Mem::Dram)
        .tensor_arg("i", DataType::I32, n(), Mem::Dram)
        .tensor_arg("t", DataType::Bool, n(), Mem::Dram)
        .tensor_arg("x", DataType::Index, n(), Mem::Dram)
        .tensor_arg("s", DataType::F64, vec![], Mem::Dram)
        .window_arg("w", DataType::F32, vec![var("n"), ib(2)], Mem::Dram)
        .tensor_arg("out", DataType::F64, vec![ib(5)], Mem::Dram)
        .with_body(|b| {
            b.assign("out", vec![ib(0)], var("a"));
            b.assign("out", vec![ib(1)], var("d"));
            b.assign("out", vec![ib(2)], var("k"));
            b.if_(var("flag"), |b| {
                b.assign("out", vec![ib(3)], read("s", vec![]));
            });
            b.assign("out", vec![ib(4)], read("w", vec![var("n") - ib(1), ib(1)]));
        })
        .build()
}

/// (vi) What goes into the block comes out of the kernel's side of the
/// boundary: every element type, a 0-dim tensor, a window argument,
/// negative scalars and `-0.0` arrive as the values encoded, and as the
/// embedded-literal driver delivers them.
#[test]
fn every_argument_kind_and_element_type_round_trips() {
    if !cc_available() {
        eprintln!("SKIPPED: no cc on PATH");
        return;
    }
    let proc = every_kind();
    let unit = emit_c(&proc, &ProcRegistry::new(), &CodegenOptions::portable()).expect("emits");
    let tensor = |elem, dims: Vec<usize>, data: Vec<f64>, window| SynthArg::Tensor {
        dims,
        data,
        elem,
        window,
    };
    let inputs = vec![
        SynthArg::Size(3),
        SynthArg::Float(-2.5),
        SynthArg::Float(-1e-300),
        SynthArg::Int(-7),
        SynthArg::Bool(true),
        tensor(DataType::F32, vec![3], vec![-0.0, 0.1, -3.5], false),
        tensor(
            DataType::F64,
            vec![3],
            vec![-0.0, 0.1, f64::MIN_POSITIVE],
            false,
        ),
        tensor(DataType::I8, vec![3], vec![-128.0, 127.0, -1.0], false),
        tensor(
            DataType::I32,
            vec![3],
            vec![-2147483648.0, 2147483647.0, 0.0],
            false,
        ),
        tensor(DataType::Bool, vec![3], vec![1.0, 0.0, 1.0], false),
        tensor(
            DataType::Index,
            vec![3],
            vec![-9007199254740992.0, 9007199254740992.0, -5.0],
            false,
        ),
        tensor(DataType::F64, vec![], vec![-42.0], false),
        tensor(
            DataType::F32,
            vec![3, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, -6.0],
            true,
        ),
        tensor(DataType::F64, vec![5], vec![0.0; 5], false),
    ];
    let exe = Toolchain::system()
        .executable(&emit_data_driver(&unit, &proc), &unit.cflags, proc.name())
        .expect("the data driver builds");
    let got = data_output(exe.artifact(), &inputs);
    assert_eq!(got, embedded_output(&unit, &proc, &inputs));

    // The dump is every tensor in order: inputs as their element type
    // holds them, then `out` as the kernel filled it.
    let mut want: Vec<f64> = Vec::new();
    for input in &inputs[..inputs.len() - 1] {
        if let SynthArg::Tensor { data, elem, .. } = input {
            want.extend(data.iter().map(|v| match elem {
                DataType::F32 => f64::from(*v as f32),
                _ => *v,
            }));
        }
    }
    want.extend([f64::from(-2.5f32), -1e-300, -7.0, -42.0, -6.0]);
    assert_eq!(got, bits(want));
}

/// A scratch directory of this test's own under the target directory.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Whether this `cc` builds and this host runs a program under
/// `-fsanitize=address,undefined` (the runtime libraries may be missing,
/// and LeakSanitizer cannot start where `ptrace` is forbidden).
fn sanitizers_work(flags: &[String]) -> bool {
    build("int main(void) { return 0; }\n", flags, "sanitizer_probe").is_ok_and(|exe| {
        run_guarded(&mut Command::new(exe.artifact()), &guard()).is_ok_and(|o| o.success)
    })
}

/// The decoder against blocks it did not write: every one is refused
/// with exit status 2 and a message naming the field — never a crash, a
/// hang, or (where the host can build them) a sanitizer report.
#[test]
fn hostile_argument_blocks_are_refused_with_a_message() {
    if !cc_available() {
        eprintln!("SKIPPED: no cc on PATH");
        return;
    }
    let proc = gemv(Precision::Single, false);
    let unit = emit_c(&proc, &ProcRegistry::new(), &CodegenOptions::portable()).expect("emits");
    let driver = emit_data_driver(&unit, &proc);
    let good = encode_args(&synth_inputs(&proc, 1).expect("inputs"));
    let word = |at: usize, v: u64| {
        let mut block = good.clone();
        block[at * 8..at * 8 + 8].copy_from_slice(&v.to_ne_bytes());
        block
    };
    // Words of a good sgemv_n block: 0 magic, 1 version, 2 count, 3-4 M,
    // 5-6 N, then A: 7 tag, 8 rank, 9-10 dims, 11 element count, data.
    let corpus: Vec<(&str, Vec<u8>, &str)> = vec![
        ("empty file", Vec::new(), "magic: truncated"),
        (
            "wrong magic",
            word(0, 0x4558_4f32),
            "magic: not an argument block",
        ),
        ("wrong version", word(1, 2), "version: unsupported"),
        (
            "argument count of 2^60",
            word(2, 1 << 60),
            "argument count: differs",
        ),
        (
            "a size where a tensor goes",
            word(7, 0),
            "argument 2 (A): not a tensor",
        ),
        (
            "rank above the signature's",
            word(8, 3),
            "argument 2 (A): rank differs",
        ),
        (
            "rank of 2^60",
            word(8, 1 << 60),
            "argument 2 (A): rank differs",
        ),
        (
            "dims whose product overflows",
            {
                let mut block = word(9, 1 << 40);
                block[80..88].copy_from_slice(&(1u64 << 40).to_ne_bytes());
                block
            },
            "argument 2 (A): dimensions overflow",
        ),
        (
            "dims beyond the elements",
            word(9, 1 << 20),
            "argument 2 (A): fewer elements",
        ),
        (
            "element count of 2^60",
            word(11, 1 << 60),
            "argument 2 (A): truncated",
        ),
        (
            "element count of zero",
            word(11, 0),
            "argument 2 (A): fewer elements",
        ),
        (
            "truncated mid-tensor",
            good[..good.len() / 2].to_vec(),
            "truncated",
        ),
        (
            "truncated mid-word",
            good[..good.len() - 3].to_vec(),
            "argument 4 (y): truncated",
        ),
        (
            "trailing garbage",
            [good.clone(), vec![0xAB; 5]].concat(),
            "end of block: trailing bytes",
        ),
    ];

    let sanitize = vec!["-fsanitize=address,undefined".to_string(), "-g".to_string()];
    let mut builds = vec![("plain", Vec::new())];
    if sanitizers_work(&sanitize) {
        builds.push(("ASan + UBSan", sanitize));
    } else {
        eprintln!("SKIPPED the sanitizer leg: cc cannot build or run -fsanitize=address,undefined");
    }
    let dir = scratch("hostile-blocks");
    for (leg, cflags) in builds {
        let exe = Toolchain::system()
            .executable(&driver, &cflags, "sgemv_n")
            .expect("the data driver builds");
        let run = |block: &[u8]| {
            let path = dir.join("block.bin");
            std::fs::write(&path, block).expect("block is written");
            run_guarded(Command::new(exe.artifact()).arg(&path), &guard()).expect("no hang")
        };
        let out = run(&good);
        assert!(
            out.success,
            "{leg}: the good block runs: {}",
            out.stderr_lossy()
        );
        for (what, block, message) in &corpus {
            let out = run(block);
            let stderr = out.stderr_lossy();
            assert_eq!(out.code, Some(2), "{leg}, {what}: {stderr}");
            assert!(
                stderr.starts_with("argument block: ") && stderr.contains(message),
                "{leg}, {what}: expected `{message}`, got: {stderr}"
            );
            assert_eq!(stderr.lines().count(), 1, "{leg}, {what}: {stderr}");
            assert!(out.stdout.is_empty(), "{leg}, {what}: the kernel ran");
        }
        // No argument, an unknown mode, and a path that does not exist.
        let out = run_guarded(&mut Command::new(exe.artifact()), &guard()).expect("no hang");
        assert_eq!(out.code, Some(2), "{leg}: {}", out.stderr_lossy());
        let good_path = dir.join("good.bin");
        std::fs::write(&good_path, &good).expect("block is written");
        let out = run_guarded(
            Command::new(exe.artifact()).arg("fast").arg(&good_path),
            &guard(),
        )
        .expect("no hang");
        assert_eq!(out.code, Some(2), "{leg}: {}", out.stderr_lossy());
        assert!(
            out.stderr_lossy().starts_with("argument block: mode: "),
            "{leg}: {}",
            out.stderr_lossy()
        );
        assert!(out.stdout.is_empty(), "{leg}: the kernel ran");
        let out = run_guarded(
            Command::new(exe.artifact()).arg(dir.join("no-such-block")),
            &guard(),
        )
        .expect("no hang");
        assert_eq!(out.code, Some(2), "{leg}: {}", out.stderr_lossy());
        assert!(out.stderr_lossy().contains("cannot open"));
    }
}

/// An integer element the element type cannot hold is refused, not
/// converted (the conversion would be undefined behaviour in C).
#[test]
fn out_of_range_integer_elements_are_refused() {
    if !cc_available() {
        eprintln!("SKIPPED: no cc on PATH");
        return;
    }
    let proc = ProcBuilder::new("bytes")
        .tensor_arg("b", DataType::I8, vec![ib(2)], Mem::Dram)
        .with_body(|b| {
            b.pass();
        })
        .build();
    let unit = emit_c(&proc, &ProcRegistry::new(), &CodegenOptions::portable()).expect("emits");
    let exe = Toolchain::system()
        .executable(&emit_data_driver(&unit, &proc), &unit.cflags, "bytes")
        .expect("the data driver builds");
    for bad in [128.0, -129.0, f64::NAN, f64::INFINITY] {
        let inputs = [SynthArg::Tensor {
            dims: vec![2],
            // The encoder truncates as the literal path does, so the bad
            // element is planted in the encoded block.
            data: vec![1.0, 0.0],
            elem: DataType::I8,
            window: false,
        }];
        let mut block = encode_args(&inputs);
        let at = block.len() - 8;
        block[at..].copy_from_slice(&f64::to_ne_bytes(bad));
        let path = scratch("out-of-range").join("block.bin");
        std::fs::write(&path, &block).expect("block is written");
        let out = run_guarded(Command::new(exe.artifact()).arg(&path), &guard()).expect("runs");
        assert_eq!(out.code, Some(2), "{bad}: {}", out.stderr_lossy());
        assert!(
            out.stderr_lossy()
                .contains("argument 0 (b): element outside int8_t"),
            "{bad}: {}",
            out.stderr_lossy()
        );
    }
}
