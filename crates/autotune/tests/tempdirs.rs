//! A measured batch leaves nothing behind: `measure_batch` owns one
//! toolchain, whose precompiled prelude (≈ 24 MB per `cflags` set) and
//! every candidate's build directory are gone when it returns.
//!
//! One test per process: it points `TMPDIR` at a private directory.

use exo_autotune::measure::measure_batch;
use exo_cursors::ProcHandle;
use exo_ir::DataType;
use exo_kernels::sgemm;
use exo_lib::{apply_script, schedule_of_record};
use exo_machine::{HostCaps, MachineModel};

#[test]
fn a_native_batch_leaves_no_build_directory() {
    if !HostCaps::detect().supports_cflags(&["-mavx2", "-mfma"]) {
        eprintln!("skipping: host cannot build and execute -mavx2 -mfma");
        return;
    }
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("autotune-tempdirs");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("private temp dir");
    std::env::set_var("TMPDIR", &tmp);

    let machine = MachineModel::avx2();
    let script = schedule_of_record("sgemm", &machine).expect("sgemm record");
    let scheduled =
        apply_script(&ProcHandle::new(sgemm()), &script, &machine).expect("the record applies");
    let batch = vec![scheduled.proc().clone(); 3];
    let registry = machine.instructions(DataType::F32).into_iter().collect();
    let measured = measure_batch(&batch, &registry, 1, 2);
    assert!(
        measured.iter().all(|m| m.nanos().is_some()),
        "native candidates are timed: {measured:?}"
    );

    let left: Vec<String> = std::fs::read_dir(&tmp)
        .expect("private temp dir is readable")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    assert!(left.is_empty(), "leaked build directories: {left:?}");
}
