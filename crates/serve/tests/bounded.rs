//! The service's memory has a ceiling: a one-worker service that serves
//! more distinct requests than [`RESULT_CACHE_CAP`] holds at most that
//! many results, evicting the least recently used, and a request whose
//! result was evicted is computed again to the answer it had and that a
//! fresh service gives. The process's peak RSS is printed half way and at
//! the end (`--nocapture`).

use exo_kernels::{gemv, Precision};
use exo_lib::schedule_of_record;
use exo_machine::{MachineKind, MachineModel};
use exo_serve::{
    CacheStatus, KernelService, ServeConfig, ServeOk, ServeOptions, ServeRequest, Tier,
    RESULT_CACHE_CAP,
};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

/// `sgemv_n` under its AVX2 schedule of record, interpreted on the inputs
/// of `input_seed`.
fn request(input_seed: u64) -> ServeRequest {
    let machine = MachineModel::avx2();
    ServeRequest {
        proc: gemv(Precision::Single, false),
        script: schedule_of_record("sgemv_n", &machine).expect("a schedule of record"),
        target: MachineKind::Avx2,
        options: ServeOptions {
            tier: Tier::Interp,
            input_seed,
            ..ServeOptions::default()
        },
    }
}

fn one_worker() -> KernelService {
    KernelService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
}

/// Serves `request`, which the service must compute.
fn computed(service: &KernelService, request: ServeRequest) -> Arc<ServeOk> {
    let delivery = service.submit(request).wait_timeout(WAIT).expect("hung");
    assert_eq!(delivery.cache, CacheStatus::Miss);
    delivery.result.expect("served")
}

/// Everything of a response but its trace, comparably.
fn response(ok: &ServeOk) -> String {
    let degraded: Vec<String> = ok.degraded.iter().map(|d| d.to_string()).collect();
    format!(
        "tier {:?}\ndegraded {degraded:?}\ndiagnostics {:?}\nexec {:?}\nc {:?}\nir {}",
        ok.tier, ok.diagnostics, ok.exec, ok.c_code, ok.scheduled_ir
    )
}

/// The `VmHWM` line of this process's status, where there is one.
fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            Some(line.trim_start_matches("VmHWM:").trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

#[test]
fn results_stay_at_their_bound_and_an_evicted_one_answers_as_before() {
    let service = one_worker();
    let requests = RESULT_CACHE_CAP as u64 + 200;
    let first = computed(&service, request(1));
    for seed in 2..=requests {
        computed(&service, request(seed));
        let held = service.stats().results_held;
        assert!(held <= RESULT_CACHE_CAP as u64, "{held} results held");
        if seed == requests / 2 {
            eprintln!("VmHWM after {seed} requests: {}", peak_rss());
        }
    }
    eprintln!("VmHWM after {requests} requests: {}", peak_rss());
    let stats = service.stats();
    assert_eq!(stats.results_held, RESULT_CACHE_CAP as u64);
    assert_eq!(stats.evictions, 200, "{stats:?}");
    assert_eq!(
        stats.plans_reused,
        requests - 1,
        "one plan serves every seed"
    );

    // The first request's result was the first evicted.
    let again = computed(&service, request(1));
    assert_eq!(response(&again), response(&first));
    assert_eq!(
        response(&again),
        response(&computed(&one_worker(), request(1)))
    );
}
