//! Degradation provenance contracts: every injected fault kind produces
//! a pinned `Degradation { from, to }` sequence, and the per-request
//! [`RequestTrace`] names every pipeline step with its outcome —
//! including the full ladder native-run → compile-only → interp →
//! verified-ir. With `exo-obs` capturing, the same requests export a
//! valid Chrome trace.

use exo_ir::{ib, var, Expr};
use exo_kernels::{axpy, gemv, scal, Precision};
use exo_lib::ScheduleScript;
use exo_machine::MachineKind;
use exo_serve::proc_guard::GuardConfig;
use exo_serve::{
    DegradeReason, Fault, FaultPlan, KernelService, RequestTrace, ServeConfig, ServeOptions,
    ServeRequest, Tier,
};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn native_request() -> ServeRequest {
    ServeRequest {
        proc: scal(Precision::Single),
        script: ScheduleScript::new(vec![]),
        target: MachineKind::Scalar,
        options: ServeOptions {
            tier: Tier::NativeRun,
            ..ServeOptions::default()
        },
    }
}

fn service_with(fault: Fault) -> KernelService {
    let mut cfg = ServeConfig {
        fault_plan: FaultPlan::none().with(0, fault),
        // Degraded caps injected for determinism: the fault ladders are
        // pinned against portable units on every host.
        host_caps: Some(exo_machine::HostCaps::none()),
        ..ServeConfig::default()
    };
    cfg.compile_guard = GuardConfig {
        spawn_retries: 1,
        backoff_base: Duration::from_millis(1),
        ..GuardConfig::with_timeout(Duration::from_millis(1500))
    };
    cfg.run_guard = GuardConfig::with_timeout(Duration::from_millis(1500));
    KernelService::new(cfg)
}

fn serve(service: &KernelService, request: ServeRequest) -> Arc<exo_serve::ServeOk> {
    service
        .submit(request)
        .wait_timeout(WAIT)
        .expect("request hung")
        .result
        .expect("must degrade, not fail")
}

/// `(from, to, reason)` triples of the degradation sequence.
fn ladder(ok: &exo_serve::ServeOk) -> Vec<(Tier, Tier, DegradeReason)> {
    ok.degraded
        .iter()
        .map(|d| (d.from, d.to, d.reason))
        .collect()
}

#[test]
fn cc_hang_pins_native_to_interp() {
    let ok = serve(&service_with(Fault::CcHang), native_request());
    assert_eq!(ok.tier, Tier::Interp);
    assert_eq!(
        ladder(&ok),
        vec![(
            Tier::NativeRun,
            Tier::Interp,
            DegradeReason::CompilerTimeout
        )]
    );
    // The trace names the failed attempt and the serving tier.
    let native = ok.trace.step("native-run").expect("native-run step");
    assert_eq!(native.outcome, "degraded to interp: compiler-timeout");
    assert_eq!(
        ok.trace.step("interp").expect("interp step").outcome,
        "served"
    );
}

#[test]
fn cc_missing_pins_native_to_interp() {
    let ok = serve(&service_with(Fault::CcMissing), native_request());
    assert_eq!(ok.tier, Tier::Interp);
    assert_eq!(
        ladder(&ok),
        vec![(
            Tier::NativeRun,
            Tier::Interp,
            DegradeReason::CompilerUnavailable
        )]
    );
    let native = ok.trace.step("native-run").expect("native-run step");
    assert_eq!(native.outcome, "degraded to interp: compiler-unavailable");
}

#[test]
fn binary_hang_pins_native_to_compile_only() {
    if !exo_codegen::difftest::cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let ok = serve(&service_with(Fault::BinaryHang), native_request());
    assert_eq!(ok.tier, Tier::CompileOnly);
    assert_eq!(
        ladder(&ok),
        vec![(
            Tier::NativeRun,
            Tier::CompileOnly,
            DegradeReason::BinaryTimeout
        )]
    );
    let native = ok.trace.step("native-run").expect("native-run step");
    assert_eq!(native.outcome, "degraded to compile-only: binary-timeout");
    assert_eq!(
        ok.trace
            .step("compile-only")
            .expect("compile-only step")
            .outcome,
        "served"
    );
}

/// sgemm under the AVX2 schedule of record: with real caps on a capable
/// host its unit includes `<immintrin.h>`, the kind the service's
/// toolchain precompiles a prelude for.
fn native_sgemm_request(input_seed: u64) -> ServeRequest {
    let machine = exo_machine::MachineModel::avx2();
    ServeRequest {
        proc: exo_kernels::sgemm(),
        script: exo_lib::schedule_of_record("sgemm", &machine).expect("sgemm schedule of record"),
        target: MachineKind::Avx2,
        options: ServeOptions {
            tier: Tier::NativeRun,
            want_c: true,
            input_seed,
            ..ServeOptions::default()
        },
    }
}

/// The compiler faults on a *native* unit give the ladders pinned above
/// for portable ones: the fault stands in for `cc`, goes around the
/// toolchain, and no prelude is built for a compile that never happens.
#[test]
fn compiler_faults_on_a_native_unit_keep_their_ladders() {
    if !exo_machine::HostCaps::detect().supports_cflags(&["-mavx2", "-mfma"]) {
        eprintln!("skipping: host cannot build and execute -mavx2 -mfma");
        return;
    }
    for (fault, reason) in [
        (Fault::CcMissing, DegradeReason::CompilerUnavailable),
        (Fault::CcHang, DegradeReason::CompilerTimeout),
    ] {
        let mut cfg = ServeConfig {
            fault_plan: FaultPlan::none().with(0, fault),
            ..ServeConfig::default()
        };
        cfg.compile_guard = GuardConfig {
            spawn_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..GuardConfig::with_timeout(Duration::from_millis(1500))
        };
        let service = KernelService::new(cfg);
        let ok = serve(&service, native_sgemm_request(1));
        assert!(
            ok.c_code
                .as_deref()
                .is_some_and(|c| c.contains("immintrin.h")),
            "{fault:?}: the faulted unit must be the native one"
        );
        assert_eq!(ok.tier, Tier::Interp, "{fault:?}");
        assert_eq!(ladder(&ok), vec![(Tier::NativeRun, Tier::Interp, reason)]);
        let stats = service.stats();
        assert_eq!((stats.compiles, stats.preludes_built), (1, 0), "{fault:?}");
    }
}

#[test]
fn worker_panic_yields_internal_not_a_degradation() {
    let d = service_with(Fault::WorkerPanic)
        .submit(native_request())
        .wait_timeout(WAIT)
        .expect("request hung");
    assert!(
        matches!(d.result, Err(exo_serve::ServeError::Internal(_))),
        "a caught panic is classified, never served as a degraded success"
    );
}

#[test]
fn cache_corruption_never_appears_as_a_degradation() {
    let service = service_with(Fault::CacheCorruption);
    let mut req = native_request();
    req.options.tier = Tier::Interp;
    let ok = serve(&service, req.clone());
    assert!(
        ok.degraded.is_empty(),
        "corruption is a cache fault, not a tier fault"
    );
    // The corrupt entry is quarantined on the next hit and recomputed
    // cleanly — still zero degradations.
    let ok2 = serve(&service, req);
    assert!(ok2.degraded.is_empty());
    assert_eq!(service.stats().corruptions_recovered, 1);
}

#[test]
fn clean_request_trace_names_every_stage() {
    let service = KernelService::new(ServeConfig::default());
    let mut req = native_request();
    req.options.tier = Tier::Interp;
    let ok = serve(&service, req);
    let names: Vec<&str> = ok.trace.steps.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        vec!["replay", "verify", "emit", "native-flags", "interp"]
    );
    assert_eq!(
        ok.trace.step("native-flags").expect("native-flags").outcome,
        "portable (tier interp)"
    );
    assert_eq!(ok.trace.step("replay").expect("replay").outcome, "ok");
    assert_eq!(ok.trace.step("interp").expect("interp").outcome, "served");
    assert!(
        ok.trace.total_ns >= ok.trace.steps.iter().map(|s| s.ns).sum::<u64>(),
        "step times must not exceed the total"
    );
}

/// The native-run tier's codegen flags follow the (injectable) host
/// capabilities: full caps pick the machine-intrinsic unit and the
/// trace names its `-m` flags; degraded caps fall back to portable —
/// and say so — without failing the request.
#[test]
fn native_flags_follow_injected_host_caps() {
    if !exo_codegen::difftest::cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }

    // Degraded caps: the request must still be served, from a portable
    // unit, with the fallback named in the trace.
    let degraded = KernelService::new(ServeConfig {
        host_caps: Some(exo_machine::HostCaps::none()),
        ..ServeConfig::default()
    });
    let ok = serve(&degraded, native_sgemm_request(0));
    assert_eq!(
        ok.trace.step("native-flags").expect("native-flags").outcome,
        "portable (host cannot execute -mavx2 -mfma)"
    );
    let c = ok.c_code.as_deref().expect("want_c");
    assert!(
        !c.contains("immintrin.h"),
        "degraded caps must emit portable C:\n{c}"
    );

    // Real caps on a capable host: the unit is machine-intrinsic and
    // the trace names the flags it was compiled with.
    if exo_machine::HostCaps::detect().supports_cflags(&["-mavx2", "-mfma"]) {
        let native = KernelService::new(ServeConfig::default());
        let ok = serve(&native, native_sgemm_request(0));
        let flags = &ok.trace.step("native-flags").expect("native-flags").outcome;
        assert!(
            flags.starts_with("native (") && flags.contains("-mavx2"),
            "capable host must pick the intrinsic unit, got: {flags}"
        );
        let c = ok.c_code.as_deref().expect("want_c");
        assert!(c.contains("immintrin.h"), "native unit expected:\n{c}");
    } else {
        eprintln!("skipping native half: host cannot execute -mavx2 -mfma");
    }
}

/// The native/portable decision reads the emitted unit's own flags: an
/// AVX-512 request on a host with AVX2 but no AVX-512F is served from a
/// portable unit at the tier it asked for — not compiled with
/// `-mavx512f`, killed by SIGILL and served degraded.
#[test]
fn avx512_request_on_an_avx2_only_host_is_served_portable() {
    if !exo_codegen::difftest::cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let service = KernelService::new(ServeConfig {
        host_caps: Some(exo_machine::HostCaps {
            cc: true,
            avx2: true,
            fma: true,
            ..exo_machine::HostCaps::none()
        }),
        ..ServeConfig::default()
    });
    let machine = exo_machine::MachineModel::avx512();
    let mut request = native_sgemm_request(0);
    request.script = exo_lib::schedule_of_record("sgemm", &machine).expect("AVX-512 record");
    request.target = MachineKind::Avx512;
    let ok = serve(&service, request);
    assert_eq!(ok.tier, Tier::NativeRun);
    assert!(ok.degraded.is_empty(), "degraded: {:?}", ladder(&ok));
    assert_eq!(
        ok.trace.step("native-flags").expect("native-flags").outcome,
        "portable (host cannot execute -mavx512f)"
    );
    let c = ok.c_code.as_deref().expect("want_c");
    assert!(!c.contains("immintrin.h"), "portable C expected:\n{c}");
    assert!(ok.exec.is_some_and(|e| e.elems > 0), "the binary ran");
}

/// One prelude per service and `cflags` set, one plan per schedule and
/// one build per unit: all three are made for the first native request
/// and the second one — same kernel, another input seed — runs what the
/// first planned and built. The counts read `(compiles, binary_runs) ==
/// (1, 2)`; until inputs became data they read `(2, 2)`, the seed being
/// part of the compiled text, and that change is what this assertion now
/// pins. The second request's planning steps keep their names and read
/// `reused`. The prelude is counted on its own and the request trace
/// gains no step.
#[test]
fn a_service_builds_its_prelude_once_and_counts_it_apart() {
    if !exo_machine::HostCaps::detect().supports_cflags(&["-mavx2", "-mfma"]) {
        eprintln!("skipping: host cannot build and execute -mavx2 -mfma");
        return;
    }
    let service = KernelService::new(ServeConfig::default());
    for (seed, planned, outcome) in [
        (1, ["ok", "ok (0 findings)", "ok"], "served (built)"),
        (2, ["reused"; 3], "served (reused)"),
    ] {
        let ok = serve(&service, native_sgemm_request(seed));
        assert_eq!(ok.tier, Tier::NativeRun);
        assert!(ok.degraded.is_empty(), "degraded: {:?}", ladder(&ok));
        let names: Vec<&str> = ok.trace.steps.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["replay", "verify", "emit", "native-flags", "native-run"]
        );
        let planning: Vec<&str> = ok.trace.steps[..3]
            .iter()
            .map(|s| s.outcome.as_str())
            .collect();
        assert_eq!(planning, planned, "seed {seed}");
        assert_eq!(
            ok.trace.step("native-run").expect("native-run").outcome,
            outcome
        );
    }
    let stats = service.stats();
    assert_eq!((stats.compiles, stats.binary_runs), (1, 2));
    assert_eq!(stats.builds_reused, 1);
    assert_eq!(stats.plans_reused, 1);
    assert!(
        stats.preludes_built <= 1,
        "two requests with one flag set built {} preludes",
        stats.preludes_built
    );
    if stats.preludes_built == 0 {
        eprintln!("note: this cc cannot build the prelude; requests were served without it");
    }

    // The same kernel for the scalar target is the same procedure under
    // other flags and another text: exactly one more build.
    let mut portable = native_sgemm_request(1);
    portable.script = ScheduleScript::new(vec![]);
    portable.target = MachineKind::Scalar;
    assert_eq!(serve(&service, portable).tier, Tier::NativeRun);
    assert_eq!(service.stats().compiles, 2);
}

#[test]
fn full_ladder_trace_walks_every_tier() {
    // A kernel whose assertions no synthesized size satisfies: input
    // synthesis fails on every executing tier. Combined with a missing
    // compiler, the request walks the whole ladder:
    //   native-run   -> compile-only  (input-synthesis)
    //   compile-only -> interp        (compiler-unavailable)
    //   interp       -> verified-ir   (input-synthesis)
    let service = service_with(Fault::CcMissing);
    let mut req = native_request();
    req.proc = req.proc.add_assertion(Expr::eq_(var("n"), ib(3)));
    let ok = serve(&service, req);
    assert_eq!(ok.tier, Tier::VerifiedIr);
    assert_eq!(
        ladder(&ok),
        vec![
            (
                Tier::NativeRun,
                Tier::CompileOnly,
                DegradeReason::InputSynthesis
            ),
            (
                Tier::CompileOnly,
                Tier::Interp,
                DegradeReason::CompilerUnavailable
            ),
            (
                Tier::Interp,
                Tier::VerifiedIr,
                DegradeReason::InputSynthesis
            ),
        ]
    );

    // The request trace names every step with its outcome and reason.
    let trace: &RequestTrace = &ok.trace;
    let steps: Vec<(&str, &str)> = trace
        .steps
        .iter()
        .map(|s| (s.name, s.outcome.as_str()))
        .collect();
    assert_eq!(
        steps,
        vec![
            ("replay", "ok"),
            ("verify", "ok (0 findings)"),
            ("emit", "ok"),
            ("native-flags", "portable (host has no C compiler)"),
            ("native-run", "degraded to compile-only: input-synthesis"),
            ("compile-only", "degraded to interp: compiler-unavailable"),
            ("interp", "degraded to verified-ir: input-synthesis"),
            ("verified-ir", "served"),
        ]
    );
    assert!(ok.exec.is_none(), "verified-ir executes nothing");

    // Displaying the trace mentions every tier by name.
    let rendered = trace.to_string();
    for tier in ["native-run", "compile-only", "interp", "verified-ir"] {
        assert!(
            rendered.contains(tier),
            "trace display must name {tier}: {rendered}"
        );
    }
}

/// The full-ladder request of [`full_ladder_trace_walks_every_tier`]
/// followed by one interpreter-tier request per kernel, on a fresh
/// service whose compiler is missing. Returns the latency summary at
/// quiescence.
fn ladder_and_interp_requests() -> exo_obs::HistSummary {
    let service = service_with(Fault::CcMissing);
    let mut ladder = native_request();
    ladder.proc = ladder.proc.add_assertion(Expr::eq_(var("n"), ib(3)));
    assert_eq!(serve(&service, ladder).tier, Tier::VerifiedIr);
    for proc in [
        gemv(Precision::Single, false),
        axpy(Precision::Single),
        scal(Precision::Single),
    ] {
        let mut req = native_request();
        req.proc = proc;
        req.options.tier = Tier::Interp;
        req.options.input_seed = 1;
        assert_eq!(serve(&service, req).tier, Tier::Interp);
    }
    service.stats().latency
}

#[test]
fn traced_requests_export_a_valid_nested_chrome_trace() {
    let session = exo_obs::session();
    let latency = ladder_and_interp_requests();
    let trace = session.finish();
    let check = exo_obs::validate_chrome_trace(&exo_obs::chrome_trace(&trace))
        .expect("the exported Chrome trace is valid JSON with well-nested spans");
    assert!(
        check.spans > 0 && check.max_depth >= 2,
        "traced requests must export nested spans: {check:?}"
    );
    for name in ["serve:request", "serve:tier", "interp:run"] {
        assert!(
            trace.spans().any(|s| s.name == name),
            "no `{name}` span in the trace"
        );
    }
    assert!(
        trace.events().any(|e| e.name == "serve:degrade"),
        "no `serve:degrade` event in the trace"
    );
    assert!(
        latency.count >= 4 && latency.p50 <= latency.p99,
        "request latencies must aggregate monotonically: {latency:?}"
    );
}
