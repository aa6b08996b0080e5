//! A unit is compiled once per service: native-tier requests that differ
//! only in their input seed share one build of the data driver and each
//! run it on an argument block of their own, with the answers the
//! embedded-literal driver gives. Planned compiler faults go around the
//! cache, a truncated argument block is a classified degradation, and the
//! trace says whether `cc` ran. Two release-mode gates time a second
//! request against the first: a native one that reuses the build, an
//! interp one that reuses the plan.
//!
//! The units are portable (degraded caps injected), so the counts hold on
//! every host with a `cc`; each test logs a skip where there is none.

use exo_codegen::difftest::{build, cc_available, emit_driver, run_lines, synth_inputs};
use exo_codegen::{emit_c, CodegenOptions};
use exo_interp::ProcRegistry;
use exo_ir::Proc;
use exo_kernels::{axpy, scal, Precision};
use exo_lib::ScheduleScript;
use exo_machine::MachineKind;
use exo_serve::proc_guard::GuardConfig;
use exo_serve::{
    DegradeReason, ExecSummary, Fault, FaultPlan, KernelService, ServeConfig, ServeOk,
    ServeOptions, ServeRequest, Tier,
};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn service(workers: usize, fault_plan: FaultPlan) -> KernelService {
    KernelService::new(ServeConfig {
        workers,
        fault_plan,
        host_caps: Some(exo_machine::HostCaps::none()),
        compile_guard: GuardConfig {
            spawn_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..GuardConfig::with_timeout(Duration::from_millis(1500))
        },
        run_guard: GuardConfig::with_timeout(Duration::from_millis(1500)),
        ..ServeConfig::default()
    })
}

fn request(proc: Proc, input_seed: u64) -> ServeRequest {
    ServeRequest {
        proc,
        script: ScheduleScript::new(vec![]),
        target: MachineKind::Scalar,
        options: ServeOptions {
            tier: Tier::NativeRun,
            input_seed,
            ..ServeOptions::default()
        },
    }
}

fn serve(service: &KernelService, request: ServeRequest) -> Arc<ServeOk> {
    service
        .submit(request)
        .wait_timeout(WAIT)
        .expect("request hung")
        .result
        .expect("served, possibly degraded")
}

/// The outcome of the step that served the request.
fn served(ok: &ServeOk) -> &str {
    &ok.trace.steps.last().expect("a serving step").outcome
}

/// What the parent commit's path answers for `proc` on `input_seed`: the
/// inputs pasted into a self-contained driver, built for this one
/// request, its dump folded as the service folds one (FNV-1a over the
/// elements' bit patterns).
fn embedded_literal_summary(proc: &Proc, input_seed: u64) -> ExecSummary {
    let unit = emit_c(proc, &ProcRegistry::new(), &CodegenOptions::portable()).expect("emits");
    let inputs = synth_inputs(proc, input_seed).expect("inputs");
    let exe = build(
        &emit_driver(&unit, proc, &inputs),
        &unit.cflags,
        proc.name(),
    )
    .expect("builds");
    let values = run_lines(
        &mut Command::new(exe.artifact()),
        &GuardConfig::with_timeout(WAIT),
    )
    .expect("runs");
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        checksum = (checksum ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    ExecSummary {
        elems: values.len(),
        checksum,
    }
}

/// (ii) N distinct seeds of one kernel: one `cc`, N runs, N right
/// answers; a second kernel adds exactly one build (and so does the same
/// text under other `cflags`: `exo-codegen`'s `build_cache.rs`, and the
/// native sgemm of `traces.rs`).
#[test]
fn distinct_seeds_of_one_unit_compile_once_and_answer_as_before() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    const N: u64 = 5;
    let service = service(1, FaultPlan::none());
    let kernel = scal(Precision::Single);
    for seed in 1..=N {
        let ok = serve(&service, request(kernel.clone(), seed));
        assert_eq!(ok.tier, Tier::NativeRun);
        assert!(ok.degraded.is_empty(), "degraded: {:?}", ok.degraded);
        assert_eq!(ok.exec, Some(embedded_literal_summary(&kernel, seed)));
        let outcome = if seed == 1 {
            "served (built)"
        } else {
            "served (reused)"
        };
        assert_eq!(served(&ok), outcome, "seed {seed}");
    }
    let stats = service.stats();
    assert_eq!(
        (stats.compiles, stats.builds_reused, stats.binary_runs),
        (1, N - 1, N)
    );

    let other = axpy(Precision::Single);
    let ok = serve(&service, request(other.clone(), 1));
    assert_eq!(ok.exec, Some(embedded_literal_summary(&other, 1)));
    assert_eq!(service.stats().compiles, 2, "a second kernel");

    // The key is the emitted text, not the request: bounds checks on a
    // kernel the verifier certifies emit none, so this other request
    // (computed, not a cache hit) is the same unit.
    let mut checked = request(kernel, 1);
    checked.options.debug_bounds = true;
    assert_eq!(served(&serve(&service, checked.clone())), "served (reused)");

    // The compile-only tier shares the cache, under its own artifact kind.
    checked.options.tier = Tier::CompileOnly;
    for (seed, outcome) in [(1, "served (built)"), (2, "served (reused)")] {
        checked.options.input_seed = seed;
        assert_eq!(served(&serve(&service, checked.clone())), outcome);
    }
    let stats = service.stats();
    assert_eq!(
        (
            stats.computed,
            stats.compiles,
            stats.builds_reused,
            stats.binary_runs
        ),
        (N + 4, 3, N + 1, N + 2)
    );
}

/// (iii) Distinct seeds are distinct request keys, so the service's
/// coalescing does not apply: four workers reach the toolchain at once
/// and it still builds the unit once.
#[test]
fn concurrent_distinct_seed_requests_share_one_build() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let service = service(4, FaultPlan::none());
    let tickets: Vec<_> = (1..=8)
        .map(|seed| service.submit(request(scal(Precision::Single), seed)))
        .collect();
    let mut built = 0;
    for ticket in tickets {
        let ok = ticket
            .wait_timeout(WAIT)
            .expect("request hung")
            .result
            .expect("served");
        assert_eq!(ok.tier, Tier::NativeRun);
        assert!(ok.exec.is_some_and(|e| e.elems > 0));
        built += usize::from(served(&ok) == "served (built)");
    }
    let stats = service.stats();
    assert_eq!(
        (
            stats.computed,
            stats.compiles,
            stats.builds_reused,
            stats.binary_runs
        ),
        (8, 1, 7, 8)
    );
    assert_eq!(built, 1, "one request's trace owns the build");
}

/// (iv) Planned faults go around the cache in both directions: a missing
/// or hung compiler degrades a request whose unit is already built, and
/// leaves that build in place for the next request; a hung binary evicts
/// nothing.
#[test]
fn planned_faults_neither_read_nor_disturb_the_build_cache() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let plan = FaultPlan::none()
        .with(1, Fault::CcMissing)
        .with(3, Fault::CcHang)
        .with(5, Fault::BinaryHang);
    let service = service(1, plan);
    let expected = [
        (Tier::NativeRun, None, "served (built)"),
        (
            Tier::Interp,
            Some(DegradeReason::CompilerUnavailable),
            "served",
        ),
        (Tier::NativeRun, None, "served (reused)"),
        (Tier::Interp, Some(DegradeReason::CompilerTimeout), "served"),
        (Tier::NativeRun, None, "served (reused)"),
        (
            Tier::CompileOnly,
            Some(DegradeReason::BinaryTimeout),
            "served",
        ),
        (Tier::NativeRun, None, "served (reused)"),
    ];
    for (seed, (tier, reason, outcome)) in (1..).zip(expected) {
        let ok = serve(&service, request(scal(Precision::Single), seed));
        assert_eq!(ok.tier, tier, "seed {seed}");
        assert_eq!(ok.degraded.first().map(|d| d.reason), reason, "seed {seed}");
        assert_eq!(served(&ok), outcome, "seed {seed}");
    }
    let stats = service.stats();
    // One real build and two injected compilers; the hung binary's request
    // found the build too.
    assert_eq!(
        (
            stats.compiles,
            stats.builds_reused,
            stats.binary_runs,
            stats.guard_timeouts
        ),
        (3, 4, 5, 2)
    );
}

/// The generated decoder behind the service: half an argument block is a
/// `BinaryFailed` degradation carrying the decoder's message — not a
/// hang, not a dead worker — and the build serves the next request.
#[test]
fn a_truncated_argument_block_is_a_classified_binary_failure() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let service = service(1, FaultPlan::none().with(1, Fault::ArgsTruncated));
    let kernel = scal(Precision::Single);
    assert_eq!(
        serve(&service, request(kernel.clone(), 1)).tier,
        Tier::NativeRun
    );
    let ok = serve(&service, request(kernel.clone(), 2));
    assert_eq!(ok.tier, Tier::CompileOnly);
    let [step] = &ok.degraded[..] else {
        panic!("one degradation expected: {:?}", ok.degraded);
    };
    assert_eq!(
        (step.from, step.to, step.reason),
        (
            Tier::NativeRun,
            Tier::CompileOnly,
            DegradeReason::BinaryFailed
        )
    );
    assert!(
        step.detail.contains("binary exited Some(2)")
            && step.detail.contains("argument block: ")
            && step.detail.contains("truncated"),
        "{}",
        step.detail
    );
    assert_eq!(service.workers_alive(), 1);
    let ok = serve(&service, request(kernel, 3));
    assert_eq!((ok.tier, served(&ok)), (Tier::NativeRun, "served (reused)"));
    let stats = service.stats();
    assert_eq!((stats.compiles, stats.binary_runs), (1, 3));
    assert_eq!(stats.guard_timeouts, 0);
}

/// Wall-clock gate (CI runs it alone, in release mode, with
/// `cargo test --release -- --ignored`): on one service the second
/// native request for a unit takes at most 0.25x the first (0.02x
/// measured: 3 ms against 140 ms), and the first — the one that builds —
/// takes no longer than building and running the same data driver on a
/// plain `Toolchain`, give or take the noise of a shared host: the cache
/// costs the cold request nothing. Fastest of five fresh services and
/// toolchains each, alternating.
#[test]
#[ignore = "wall-clock gate: run in release mode, not beside the parallel debug tests"]
fn a_second_native_request_runs_what_the_first_built() {
    use exo_codegen::difftest::{
        emit_data_driver, encode_args, run_data_driver, Artifact, Toolchain,
    };
    const MAX_RATIO: f64 = 0.25;
    const NOISE: f64 = 1.15;
    if !cc_available() {
        eprintln!("SKIPPED build-cache gate: no cc on PATH");
        return;
    }
    let kernel = exo_kernels::gemv(Precision::Single, false);
    let unit = emit_c(&kernel, &ProcRegistry::new(), &CodegenOptions::portable()).expect("emits");
    let driver = emit_data_driver(&unit, &kernel);
    let block = encode_args(&synth_inputs(&kernel, 1).expect("inputs"));
    let ms = |work: &mut dyn FnMut()| {
        let started = std::time::Instant::now();
        work();
        started.elapsed().as_secs_f64() * 1e3
    };
    let (mut first, mut second, mut plain) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let service = service(1, FaultPlan::none());
        for (seed, fastest) in [(1, &mut first), (2, &mut second)] {
            let took = ms(&mut || {
                let ok = serve(&service, request(kernel.clone(), seed));
                assert_eq!(ok.tier, Tier::NativeRun);
            });
            *fastest = fastest.min(took);
        }
        let toolchain = Toolchain::system();
        plain = plain.min(ms(&mut || {
            let exe = toolchain
                .build(&driver, &unit.cflags, "sgemv_n", Artifact::Executable)
                .expect("builds");
            run_data_driver(
                &mut Command::new(exe.artifact()),
                &block,
                &GuardConfig::with_timeout(WAIT),
            )
            .expect("runs");
        }));
    }
    eprintln!(
        "native sgemv_n request: first {first:.1} ms, second {second:.1} ms ({:.2}x); \
         plain build + run {plain:.1} ms",
        second / first
    );
    assert!(
        second <= MAX_RATIO * first,
        "the second request took {:.2}x the first (gate: {MAX_RATIO}x)",
        second / first
    );
    assert!(
        first <= NOISE * plain,
        "the building request took {first:.1} ms, a plain build + run {plain:.1} ms"
    );
}

/// Wall-clock gate (CI runs it beside the one above): on one service an
/// interp-tier request for the blur2d record on a second input seed
/// takes at most 0.5x the first request, which planned it (0.34x
/// measured: 0.9 ms against 2.5 ms): the second reuses the plan and pays
/// only for its inputs and the interpreter. Fastest of five fresh
/// services. No `cc` is involved.
#[test]
#[ignore = "wall-clock gate: run in release mode, not beside the parallel debug tests"]
fn a_second_interp_request_reuses_what_the_first_planned() {
    const MAX_RATIO: f64 = 0.5;
    let machine = exo_machine::MachineModel::avx2();
    let mut request = request(exo_kernels::blur2d(), 1);
    request.script = exo_lib::schedule_of_record("blur2d", &machine).expect("a schedule of record");
    request.target = MachineKind::Avx2;
    request.options.tier = Tier::Interp;
    let (mut first, mut second) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let service = service(1, FaultPlan::none());
        for (seed, fastest) in [(1, &mut first), (2, &mut second)] {
            request.options.input_seed = seed;
            let started = std::time::Instant::now();
            let ok = serve(&service, request.clone());
            *fastest = fastest.min(started.elapsed().as_secs_f64() * 1e3);
            assert_eq!(ok.tier, Tier::Interp);
        }
        assert_eq!(service.stats().plans_reused, 1);
    }
    eprintln!(
        "interp blur2d record request: first {first:.2} ms, second {second:.2} ms ({:.2}x)",
        second / first
    );
    assert!(
        second <= MAX_RATIO * first,
        "the second request took {:.2}x the first (gate: {MAX_RATIO}x)",
        second / first
    );
}
