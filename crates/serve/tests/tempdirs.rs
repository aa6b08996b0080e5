//! Build directories never outlive their request: after a compile-only
//! request and a native-run request whose binary hangs, the temp
//! directory holds no `exo_codegen_*` / `exo_serve_*` entry.
//!
//! One test per process: it points `TMPDIR` at a private directory.

use exo_kernels::{scal, Precision};
use exo_lib::ScheduleScript;
use exo_machine::MachineKind;
use exo_serve::proc_guard::GuardConfig;
use exo_serve::{Fault, FaultPlan, KernelService, ServeConfig, ServeOptions, ServeRequest, Tier};
use std::time::Duration;

#[test]
fn compile_only_and_hung_binary_requests_leave_no_build_directory() {
    if !exo_codegen::difftest::cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-tempdirs");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("private temp dir");
    std::env::set_var("TMPDIR", &tmp);

    let service = KernelService::new(ServeConfig {
        fault_plan: FaultPlan::none().with(1, Fault::BinaryHang),
        run_guard: GuardConfig::with_timeout(Duration::from_millis(1500)),
        host_caps: Some(exo_machine::HostCaps::none()),
        ..ServeConfig::default()
    });
    for tier in [Tier::CompileOnly, Tier::NativeRun] {
        let ok = service
            .submit(ServeRequest {
                proc: scal(Precision::Single),
                script: ScheduleScript::new(vec![]),
                target: MachineKind::Scalar,
                options: ServeOptions {
                    tier,
                    ..ServeOptions::default()
                },
            })
            .wait_timeout(Duration::from_secs(120))
            .expect("request hung")
            .result
            .expect("both requests are served");
        // The hung binary degrades native-run to compile-only.
        assert_eq!(ok.tier, Tier::CompileOnly);
    }
    let stats = service.stats();
    assert_eq!((stats.compiles, stats.guard_timeouts), (2, 1));
    service.shutdown();

    let left: Vec<String> = std::fs::read_dir(&tmp)
        .expect("private temp dir is readable")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("exo_codegen_") || name.starts_with("exo_serve_"))
        .collect();
    assert!(left.is_empty(), "leaked build directories: {left:?}");
}
