//! A plan lowers its schedule once: an interp-tier miss on a plan the
//! service holds runs the plan's registry, whose memos hold the scheduled
//! proc and every instruction it calls already lowered. Read from the
//! `interp:lower` spans of a traced run.
//!
//! One test in this file, so no other test of the process can add spans
//! while its session traces.

use exo_kernels::{gemv, Precision};
use exo_lib::schedule_of_record;
use exo_machine::{MachineKind, MachineModel};
use exo_serve::{KernelService, ServeConfig, ServeOptions, ServeRequest, Tier};
use std::time::Duration;

#[test]
fn an_interp_miss_on_a_held_plan_lowers_nothing() {
    let kernel = gemv(Precision::Single, false);
    let script = schedule_of_record(kernel.name(), &MachineModel::avx2()).expect("a record");
    let service = KernelService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let request = |input_seed| ServeRequest {
        proc: kernel.clone(),
        script: script.clone(),
        target: MachineKind::Avx2,
        options: ServeOptions {
            tier: Tier::Interp,
            input_seed,
            ..ServeOptions::default()
        },
    };
    let serve = |input_seed| {
        let ok = service
            .submit(request(input_seed))
            .wait_timeout(Duration::from_secs(120))
            .expect("the request is answered")
            .result
            .expect("the request is served");
        assert_eq!(ok.tier, Tier::Interp);
    };

    let session = exo_obs::session();
    let start = exo_obs::now_ns();
    serve(1);
    let second = exo_obs::now_ns();
    serve(2);
    let trace = session.finish();
    assert_eq!(trace.dropped, 0, "the collector dropped records");
    assert_eq!(
        service.stats().plans_reused,
        1,
        "the second seed reuses the plan"
    );

    let in_window = |name: &str, from: u64, to: u64| {
        trace
            .spans()
            .filter(|s| s.name == name && s.start_ns >= from && s.start_ns < to)
            .map(|s| s.attr.clone().unwrap_or_default())
            .collect::<Vec<_>>()
    };
    // The second request runs the interpreter and lowers nothing.
    assert_eq!(in_window("interp:run", second, u64::MAX).len(), 1);
    let again = in_window("interp:lower", second, u64::MAX);
    assert!(again.is_empty(), "a miss on a held plan lowered {again:?}");
    // Making the plan lowers the scheduled proc once, for emission, and
    // the instructions it calls.
    let first = in_window("interp:lower", start, second);
    let roots = first.iter().filter(|n| **n == kernel.name()).count();
    assert!(
        roots == 1 && first.len() > 1,
        "the first request lowers its root once and its callees: {first:?}"
    );
}
