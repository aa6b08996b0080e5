//! Build directories never outlive their owner. A live service keeps one
//! directory per unit it has built and nothing per request: the argument
//! file of a native run goes with the request, also when its binary
//! hangs. After shutdown the temp directory holds no `exo_codegen_*` /
//! `exo_serve_*` entry — cached builds included, and on a host that runs
//! AVX2 the precompiled prelude (≈ 24 MB) of a service that served a
//! native unit too. (`exo-autotune`'s `tempdirs.rs` has the same check
//! for a `measure_batch`.)
//!
//! One test per process: it points `TMPDIR` at a private directory.

use exo_kernels::{scal, Precision};
use exo_lib::ScheduleScript;
use exo_machine::MachineKind;
use exo_serve::proc_guard::GuardConfig;
use exo_serve::{Fault, FaultPlan, KernelService, ServeConfig, ServeOptions, ServeRequest, Tier};
use std::time::Duration;

/// What the private temp directory still holds of our build directories.
fn leaked(tmp: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(tmp)
        .expect("private temp dir is readable")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("exo_codegen_") || name.starts_with("exo_serve_"))
        .collect()
}

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
    // The object and the linked driver, cached; no argument file.
    let kept = leaked(&tmp);
    assert!(
        kept.len() == 2 && kept.iter().all(|name| name.ends_with("_sscal")),
        "a live service keeps its two builds and nothing else: {kept:?}"
    );
    service.shutdown();

    assert_eq!(
        leaked(&tmp),
        Vec::<String>::new(),
        "leaked build directories"
    );

    // The native half: units that include `<immintrin.h>`, so the owner
    // builds a prelude directory that outlives every request.
    if !exo_machine::HostCaps::detect().supports_cflags(&["-mavx2", "-mfma"]) {
        eprintln!("skipping the native half: host cannot build and execute -mavx2 -mfma");
        return;
    }
    let machine = exo_machine::MachineModel::avx2();
    let script = exo_lib::schedule_of_record("sgemm", &machine).expect("sgemm record");
    let service = KernelService::new(ServeConfig::default());
    for input_seed in 1..=2 {
        let ok = service
            .submit(ServeRequest {
                proc: exo_kernels::sgemm(),
                script: script.clone(),
                target: MachineKind::Avx2,
                options: ServeOptions {
                    tier: Tier::NativeRun,
                    input_seed,
                    ..ServeOptions::default()
                },
            })
            .wait_timeout(Duration::from_secs(120))
            .expect("request hung")
            .result
            .expect("the native request is served");
        assert_eq!(ok.tier, Tier::NativeRun);
    }
    assert_eq!(
        leaked(&tmp)
            .iter()
            .filter(|name| name.ends_with("_sgemm"))
            .count(),
        1,
        "two requests for one unit share one build directory: {:?}",
        leaked(&tmp)
    );
    assert!(
        !leaked(&tmp).iter().any(|name| name.ends_with("_args")),
        "an argument file outlived its request: {:?}",
        leaked(&tmp)
    );
    let built = service.stats().preludes_built;
    if built == 1 {
        assert!(
            leaked(&tmp).iter().any(|name| name.ends_with("_prelude")),
            "a live service keeps its prelude: {:?}",
            leaked(&tmp)
        );
    } else {
        eprintln!("note: this cc cannot build the prelude");
    }
    service.shutdown();
    assert_eq!(leaked(&tmp), Vec::<String>::new(), "after shutdown");
}
