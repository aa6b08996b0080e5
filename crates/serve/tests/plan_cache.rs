//! The plan cache is a memo, tested for invalidation: a request that
//! differs from one already planned in anything replay, verification or
//! emission reads gets a plan of its own, and one that differs only in
//! its input seed or in `want_c` is answered from the held plan exactly
//! as a service that has planned nothing answers it. Refusals are not
//! kept, and workers racing on one new plan agree.

use exo_ir::{fb, ib, read, DataType, Expr, InstrInfo, Mem, Proc, ProcBuilder};
use exo_kernels::{scal, Precision};
use exo_lib::{schedule_of_record, LoopSel, SchedStep, ScheduleScript};
use exo_machine::{HostCaps, MachineKind, MachineModel};
use exo_serve::{
    CacheStatus, Delivery, KernelService, ServeConfig, ServeError, ServeOk, ServeOptions,
    ServeRequest, Tier,
};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn service(workers: usize) -> KernelService {
    KernelService::new(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
}

fn deliver(service: &KernelService, request: &ServeRequest) -> Delivery {
    service
        .submit(request.clone())
        .wait_timeout(WAIT)
        .expect("request hung")
}

fn serve(service: &KernelService, request: &ServeRequest) -> Arc<ServeOk> {
    deliver(service, request).result.expect("served")
}

/// `k(x: f64[3], y: f64[1]): y[0] = rhs`, as in `content_key.rs`.
fn kernel(rhs: Expr) -> Proc {
    ProcBuilder::new("k")
        .tensor_arg("x", DataType::F64, vec![ib(3)], Mem::Dram)
        .tensor_arg("y", DataType::F64, vec![ib(1)], Mem::Dram)
        .with_body(|b| {
            b.assign("y", vec![ib(0)], rhs);
        })
        .build()
}

fn interp_request(proc: Proc, script: ScheduleScript) -> ServeRequest {
    ServeRequest {
        proc,
        script,
        target: MachineKind::Scalar,
        options: ServeOptions {
            tier: Tier::Interp,
            input_seed: 7,
            ..ServeOptions::default()
        },
    }
}

fn split_i(factor: i64) -> ScheduleScript {
    ScheduleScript::new(vec![SchedStep::Split {
        loop_: LoopSel::new("i", 0),
        factor,
        cut_tail: true,
    }])
}

/// Everything of a response but its trace, comparably.
fn response(ok: &ServeOk) -> String {
    let degraded: Vec<String> = ok.degraded.iter().map(|d| d.to_string()).collect();
    format!(
        "tier {:?}\ndegraded {degraded:?}\ndiagnostics {:?}\nexec {:?}\nc {:?}\nir {}",
        ok.tier, ok.diagnostics, ok.exec, ok.c_code, ok.scheduled_ir
    )
}

#[test]
fn requests_that_differ_in_what_planning_reads_each_get_a_plan() {
    let x0 = || read("x", vec![ib(0)]);
    let body = || kernel(x0() + fb(0.5));
    let info = |cost_class: &str| InstrInfo {
        cost_class: cost_class.into(),
    };
    let none = ScheduleScript::default;
    let mut variants = vec![
        // Procedures the printer cannot tell apart.
        interp_request(kernel((x0() + fb(0.1)) + fb(0.7)), none()),
        interp_request(kernel(x0() + (fb(0.1) + fb(0.7))), none()),
        interp_request(body(), none()),
        interp_request(body().with_instr(info("scalar_fadd")), none()),
        interp_request(body().with_instr(info("scalar_fmul")), none()),
        // Scripts.
        interp_request(scal(Precision::Single), none()),
        interp_request(scal(Precision::Single), split_i(4)),
        interp_request(scal(Precision::Single), split_i(8)),
    ];
    // The target, the tier and the bounds mode, one at a time.
    let base = interp_request(scal(Precision::Single), split_i(4));
    let mut avx2 = base.clone();
    avx2.target = MachineKind::Avx2;
    let mut verified_ir = base.clone();
    verified_ir.options.tier = Tier::VerifiedIr;
    let mut bounds = base.clone();
    bounds.options.debug_bounds = true;
    variants.extend([avx2, verified_ir, bounds]);

    let service = service(1);
    for (n, request) in (1..).zip(&variants) {
        let ok = serve(&service, request);
        assert!(ok.degraded.is_empty(), "variant {n}: {:?}", ok.degraded);
        let stats = service.stats();
        assert_eq!(
            (stats.computed, stats.plans_reused),
            (n, 0),
            "variant {n} was answered from another request's plan"
        );
    }
    // Every one of them was kept: a second seed of each reuses its own.
    for (n, request) in (1..).zip(&variants) {
        let mut again = request.clone();
        again.options.input_seed += 1;
        assert_eq!(deliver(&service, &again).cache, CacheStatus::Miss);
        assert_eq!(service.stats().plans_reused, n);
    }
}

/// `name`'s schedule of record on the AVX2 model.
fn record_request(name: &str, tier: Tier, input_seed: u64, want_c: bool) -> ServeRequest {
    let machine = MachineModel::avx2();
    ServeRequest {
        proc: match name {
            "sgemm" => exo_kernels::sgemm(),
            "sgemv_n" => exo_kernels::gemv(Precision::Single, false),
            _ => exo_kernels::blur2d(),
        },
        script: schedule_of_record(name, &machine).expect("a schedule of record"),
        target: MachineKind::Avx2,
        options: ServeOptions {
            tier,
            want_c,
            input_seed,
            ..ServeOptions::default()
        },
    }
}

/// The three records at `tier`: seed 1 makes the plan, then other seeds,
/// with and without the C, reuse it and answer as a service that has
/// never seen the kernel.
fn reused_plans_answer_as_fresh_ones(tier: Tier) {
    let planned = service(1);
    for (n, name) in (0..).zip(["sgemm", "sgemv_n", "blur2d"]) {
        let first = serve(&planned, &record_request(name, tier, 1, false));
        assert_eq!(first.trace.step("replay").expect("replay").outcome, "ok");
        for (k, (seed, want_c)) in (1..).zip([(2, false), (2, true), (3, true)]) {
            let request = record_request(name, tier, seed, want_c);
            let ok = serve(&planned, &request);
            for step in ["replay", "verify", "emit"] {
                let outcome = &ok.trace.step(step).expect("a planning step").outcome;
                assert_eq!(outcome, "reused", "{name} {tier} seed {seed}: {step}");
            }
            assert_eq!(planned.stats().plans_reused, 3 * n + k);
            let fresh = serve(&service(1), &request);
            assert_eq!(
                response(&ok),
                response(&fresh),
                "{name} {tier} seed {seed} want_c {want_c}"
            );
        }
    }
}

#[test]
fn an_interp_request_on_a_new_seed_reuses_the_plan_and_answers_as_before() {
    reused_plans_answer_as_fresh_ones(Tier::Interp);
}

#[test]
fn a_verified_ir_request_on_a_new_seed_reuses_the_plan_and_answers_as_before() {
    reused_plans_answer_as_fresh_ones(Tier::VerifiedIr);
}

#[test]
fn a_native_request_on_a_new_seed_reuses_the_plan_and_answers_as_before() {
    if !HostCaps::detect().supports_cflags(&["-mavx2", "-mfma"]) {
        eprintln!("skipping: host cannot build and execute -mavx2 -mfma");
        return;
    }
    reused_plans_answer_as_fresh_ones(Tier::NativeRun);
}

#[test]
fn a_refused_plan_is_made_again() {
    let service = service(1);
    let mut request = interp_request(scal(Precision::Single), {
        let mut script = split_i(4);
        script.steps.push(SchedStep::Unroll {
            loop_: LoopSel::new("no_such_loop", 0),
        });
        script
    });
    for seed in [1, 2] {
        request.options.input_seed = seed;
        let delivery = deliver(&service, &request);
        assert_eq!(delivery.cache, CacheStatus::Miss, "seed {seed}");
        assert!(
            matches!(delivery.result, Err(ServeError::BadSchedule(_))),
            "seed {seed}: {:?}",
            delivery.result.map(|ok| ok.tier)
        );
    }
    let stats = service.stats();
    assert_eq!((stats.computed, stats.plans_reused), (2, 0));
}

/// Four workers take four seeds of one sgemm plan nobody has made. However
/// they interleave — all making the plan, or some finding another's —
/// each answers as a fresh service, and one plan is kept.
#[test]
fn workers_racing_on_one_new_plan_agree() {
    let request = |seed| record_request("sgemm", Tier::Interp, seed, true);
    let racing = service(4);
    let tickets: Vec<_> = (1..=4).map(|seed| racing.submit(request(seed))).collect();
    let served: Vec<Arc<ServeOk>> = tickets
        .into_iter()
        .map(|t| t.wait_timeout(WAIT).expect("hung").result.expect("served"))
        .collect();
    for (seed, ok) in (1..).zip(&served) {
        let fresh = serve(&service(1), &request(seed));
        assert_eq!(response(ok), response(&fresh), "seed {seed}");
    }
    let stats = racing.stats();
    assert_eq!(stats.computed, 4);
    assert!(stats.plans_reused <= 3, "{stats:?}");
    serve(&racing, &request(5));
    assert_eq!(racing.stats().plans_reused, stats.plans_reused + 1);
}

/// Four workers take four seeds of one plan nobody has made: one of them
/// makes it, and the others wait for it or find it made.
#[test]
fn workers_racing_on_one_new_plan_make_it_once() {
    let racing = service(4);
    let tickets: Vec<_> = (1..=4)
        .map(|seed| racing.submit(record_request("sgemm", Tier::Interp, seed, false)))
        .collect();
    let served: Vec<Arc<ServeOk>> = tickets
        .into_iter()
        .map(|t| t.wait_timeout(WAIT).expect("hung").result.expect("served"))
        .collect();
    let replayed = served
        .iter()
        .filter(|ok| ok.trace.step("replay").expect("replay").outcome == "ok")
        .count();
    assert_eq!(replayed, 1);
    let stats = racing.stats();
    assert_eq!((stats.computed, stats.plans_reused), (4, 3), "{stats:?}");
}
