//! The precompiled prelude of [`Toolchain`]: it saves `cc` the parse of
//! `immintrin.h` and changes nothing else — same binary, same output,
//! data drivers still see `clock_gettime` — it is per `cflags` set, and
//! a toolchain that cannot build it issues exactly the plain command.
//! The toolchain keeps at most `PRELUDE_CACHE_CAP` of them, and one it
//! evicts stays on disk while a command still names it.
//!
//! Every check logs a skip where `cc`, the prelude or the CPU is missing.

use exo_codegen::difftest::{
    build, cc_available, emit_driver, run_lines, synth_inputs, Artifact, BuildDir, SynthArg,
    Toolchain, PRELUDE_CACHE_CAP,
};
use exo_codegen::{emit_c, CUnit, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_guard::GuardConfig;
use exo_interp::ProcRegistry;
use exo_ir::Proc;
use exo_kernels::sgemm;
use exo_lib::{apply_script, schedule_of_record};
use exo_machine::{HostCaps, MachineModel};
use std::process::Command;
use std::time::Duration;

/// sgemm under `machine`'s schedule of record, emitted with intrinsics.
fn sgemm_record(machine: &MachineModel) -> (Proc, CUnit) {
    let registry: ProcRegistry = machine
        .instructions(exo_ir::DataType::F32)
        .into_iter()
        .collect();
    let script = schedule_of_record("sgemm", machine).expect("sgemm has a schedule of record");
    let proc = apply_script(&ProcHandle::new(sgemm()), &script, machine)
        .expect("the record applies")
        .proc()
        .clone();
    let unit = emit_c(&proc, &registry, &CodegenOptions::native()).expect("emits");
    assert!(unit.code.contains("#include <immintrin.h>"));
    (proc, unit)
}

fn avx2_driver() -> (Proc, CUnit, Vec<SynthArg>, String) {
    let (proc, unit) = sgemm_record(&MachineModel::avx2());
    let inputs = synth_inputs(&proc, 3).expect("sgemm inputs");
    let driver = emit_driver(&unit, &proc, &inputs);
    (proc, unit, inputs, driver)
}

/// The prelude a command pulls in, if any.
fn included(cmd: &Command) -> Option<String> {
    let args: Vec<String> = cmd
        .get_args()
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    let at = args.iter().position(|a| a == "-include")?;
    args.get(at + 1).cloned()
}

fn can_run_avx2() -> bool {
    HostCaps::detect().supports_cflags(&["-mavx2", "-mfma"])
}

fn guard() -> GuardConfig {
    GuardConfig::with_timeout(Duration::from_secs(120))
}

fn output_of(build: &BuildDir) -> Vec<u64> {
    run_lines(&mut Command::new(build.artifact()), &guard())
        .expect("the driver runs")
        .into_iter()
        .map(f64::to_bits)
        .collect()
}

#[test]
fn prelude_changes_neither_the_binary_nor_its_output() {
    if !cc_available() {
        eprintln!("SKIPPED: no cc on PATH");
        return;
    }
    let (_, unit, _, driver) = avx2_driver();
    let toolchain = Toolchain::system();
    let (cmd, _dir) = toolchain
        .command(&driver, &unit.cflags, "sgemm", Artifact::Executable)
        .expect("command");
    if included(&cmd).is_none() {
        eprintln!("SKIPPED: this cc cannot build the prelude");
        return;
    }
    let plain = build(&driver, &unit.cflags, "sgemm").expect("plain build");
    let fast = toolchain
        .build(&driver, &unit.cflags, "sgemm", Artifact::Executable)
        .expect("prelude build");
    assert_eq!(toolchain.preludes_built(), 1, "the second lookup reuses");
    let bytes = |b: &BuildDir| std::fs::read(b.artifact()).expect("artifact is readable");
    assert!(
        bytes(&plain) == bytes(&fast),
        "the prelude changed the binary"
    );
    if !can_run_avx2() {
        eprintln!("SKIPPED the run: host cannot execute -mavx2 -mfma");
        return;
    }
    let (want, got) = (output_of(&plain), output_of(&fast));
    assert!(!want.is_empty());
    assert_eq!(want, got, "the prelude changed the `%.17g` output");
}

/// The data driver's `_POSIX_C_SOURCE` line comes after an `-include`d
/// prelude: unless the prelude starts with the same line, `features.h`
/// has already hidden `clock_gettime` and the build fails.
#[test]
fn data_driver_builds_and_times_through_the_prelude() {
    if !cc_available() || !can_run_avx2() {
        eprintln!("SKIPPED: needs cc and a CPU with AVX2 and FMA");
        return;
    }
    let (proc, unit, inputs, driver) = avx2_driver();
    let toolchain = Toolchain::system();
    let (cmd, _dir) = toolchain
        .command(&driver, &unit.cflags, "sgemm", Artifact::Executable)
        .expect("command");
    if included(&cmd).is_none() {
        eprintln!("SKIPPED: this cc cannot build the prelude");
        return;
    }
    let (ns, spread) = toolchain
        .time_kernel(&unit, &proc, &inputs)
        .expect("the data driver builds with the prelude and times");
    assert!(ns > 0.0 && spread >= 0.0, "{ns} ns, spread {spread}");
}

#[test]
fn a_toolchain_without_a_prelude_issues_the_plain_command() {
    let (_, unit, _, driver) = avx2_driver();
    // No such compiler: the prelude build cannot even start.
    let missing = Toolchain::new("exo2-no-such-cc", guard());
    let (cmd, _dir) = missing
        .command(&driver, &unit.cflags, "sgemm", Artifact::Executable)
        .expect("the command is still issued");
    assert_eq!(included(&cmd), None);
    assert_eq!(missing.preludes_built(), 0);

    // A compiler that refuses headers but compiles kernels: the driver
    // still builds, prelude-less, to the same output.
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        if !cc_available() {
            eprintln!("SKIPPED: no cc on PATH");
            return;
        }
        let script = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cc-without-pch.sh");
        std::fs::write(
            &script,
            "#!/bin/sh\nfor a in \"$@\"; do [ \"$a\" = c-header ] && exit 1; done\nexec cc \"$@\"\n",
        )
        .expect("script is written");
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
            .expect("script is executable");
        let refusing = Toolchain::new(&script.to_string_lossy(), guard());
        let (cmd, _dir) = refusing
            .command(&driver, &unit.cflags, "sgemm", Artifact::Executable)
            .expect("command");
        assert_eq!(included(&cmd), None);
        let served = refusing
            .build(&driver, &unit.cflags, "sgemm", Artifact::Executable)
            .expect("the kernel still compiles");
        assert_eq!(refusing.preludes_built(), 0);
        if can_run_avx2() {
            let plain = build(&driver, &unit.cflags, "sgemm").expect("plain build");
            assert_eq!(output_of(&plain), output_of(&served));
        }
    }
}

#[test]
fn each_cflags_set_gets_its_own_prelude() {
    if !cc_available() {
        eprintln!("SKIPPED: no cc on PATH");
        return;
    }
    let (_, avx2) = sgemm_record(&MachineModel::avx2());
    let (_, avx512) = sgemm_record(&MachineModel::avx512());
    assert_ne!(avx2.cflags, avx512.cflags);
    let toolchain = Toolchain::system();
    let session = exo_obs::session();
    // Tracing is process-wide and the other tests run beside this one:
    // a marker event names this thread, whose records are the ones read.
    exo_obs::event("test:marker", String::new);
    let mut preludes = Vec::new();
    for unit in [&avx2, &avx512, &avx2] {
        let (cmd, _dir) = toolchain
            .command(&unit.code, &unit.cflags, "sgemm", Artifact::Object)
            .expect("command");
        preludes.push(included(&cmd));
    }
    let trace = session.finish();
    let [Some(first), Some(second), Some(again)] = preludes.as_slice() else {
        eprintln!("SKIPPED: this cc cannot build the prelude ({preludes:?})");
        return;
    };
    assert_ne!(first, second, "-mavx2 and -mavx512f share a prelude");
    assert_eq!(first, again);
    assert_eq!(toolchain.preludes_built(), 2);
    // A portable unit has nothing to precompile.
    let portable =
        emit_c(&sgemm(), &ProcRegistry::new(), &CodegenOptions::portable()).expect("emits");
    let (cmd, _dir) = toolchain
        .command(&portable.code, &portable.cflags, "sgemm", Artifact::Object)
        .expect("command");
    assert_eq!(included(&cmd), None);

    // The trace says which lookup paid: a span per build, an event each.
    let tid = trace
        .events()
        .find(|e| e.name == "test:marker")
        .expect("the marker is recorded")
        .tid;
    let details: Vec<&str> = trace
        .events()
        .filter(|e| e.name == "difftest:prelude" && e.tid == tid)
        .filter_map(|e| e.detail.as_deref())
        .collect();
    assert_eq!(details.len(), 3, "{details:?}");
    assert!(details[0].starts_with("built ") && details[0].ends_with(" -mavx2 -mfma"));
    assert!(details[1].starts_with("built ") && details[1].ends_with(" -mavx512f"));
    assert_eq!(details[2], "reused");
    assert_eq!(
        trace
            .spans()
            .filter(|s| s.name == "difftest:prelude" && s.tid == tid)
            .count(),
        2
    );

    // Both directories go with their owner.
    let dirs: Vec<_> = [first, second]
        .iter()
        .map(|h| {
            std::path::Path::new(h)
                .parent()
                .expect("a directory")
                .to_path_buf()
        })
        .collect();
    assert!(dirs.iter().all(|d| d.join("prelude.h.gch").exists()));
    drop(toolchain);
    assert!(
        dirs.iter().all(|d| !d.exists()),
        "a prelude outlived its owner"
    );
}

/// A stand-in compiler that writes an empty output file: enough for the
/// toolchain to take a prelude as built, with no `cc` run.
#[cfg(unix)]
#[test]
fn an_evicted_prelude_stays_on_disk_while_a_command_names_it() {
    use std::os::unix::fs::PermissionsExt;
    let script = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cc-touch.sh");
    std::fs::write(
        &script,
        "#!/bin/sh\nwhile [ $# -gt 0 ]; do [ \"$1\" = -o ] && : > \"$2\"; shift; done\n",
    )
    .expect("script is written");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
        .expect("script is executable");
    let toolchain = Toolchain::new(&script.to_string_lossy(), guard());
    let source = "#include <immintrin.h>\n";
    let command = |flag: String| {
        toolchain
            .command(source, &[flag], "k", Artifact::Object)
            .expect("command")
    };
    let (held, dir) = command("-DFIRST".into());
    let header = included(&held).expect("the stand-in builds the prelude");
    let gch = std::path::PathBuf::from(format!("{header}.gch"));
    assert!(gch.exists());
    for k in 0..PRELUDE_CACHE_CAP {
        drop(command(format!("-DOTHER{k}")));
    }
    assert_eq!(toolchain.evictions(), 1);
    assert!(
        gch.exists(),
        "an evicted prelude went while a command named it"
    );
    drop(dir);
    assert!(!gch.exists(), "the prelude outlived its last holder");
    // Asked for again, it is built again.
    let (again, _dir) = command("-DFIRST".into());
    assert_ne!(included(&again), Some(header));
    assert_eq!(toolchain.preludes_built(), PRELUDE_CACHE_CAP as u64 + 2);
}
