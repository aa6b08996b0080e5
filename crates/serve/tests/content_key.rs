//! The cache key is an address of the request's *content*: two kernels
//! the pretty-printer cannot tell apart are still two kernels.

use exo_ir::{fb, ib, read, DataType, Expr, InstrInfo, Mem, Proc, ProcBuilder};
use exo_lib::ScheduleScript;
use exo_machine::MachineKind;
use exo_serve::{
    request_key, CacheStatus, Delivery, KernelService, ServeConfig, ServeOptions, ServeRequest,
    Tier,
};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

/// `k(x: f64[3], y: f64[1]): y[0] = rhs`
fn kernel(rhs: Expr) -> Proc {
    ProcBuilder::new("k")
        .tensor_arg("x", DataType::F64, vec![ib(3)], Mem::Dram)
        .tensor_arg("y", DataType::F64, vec![ib(1)], Mem::Dram)
        .with_body(|b| {
            b.assign("y", vec![ib(0)], rhs);
        })
        .build()
}

fn request(proc: Proc) -> ServeRequest {
    ServeRequest {
        proc,
        script: ScheduleScript::default(),
        target: MachineKind::Scalar,
        options: ServeOptions {
            tier: Tier::Interp,
            input_seed: 7,
            ..ServeOptions::default()
        },
    }
}

fn serve(service: &KernelService, req: &ServeRequest) -> Delivery {
    service
        .submit(req.clone())
        .wait_timeout(WAIT)
        .expect("request hung")
}

#[test]
fn procs_that_print_alike_do_not_share_a_key() {
    let x0 = || read("x", vec![ib(0)]);
    let left = request(kernel((x0() + fb(0.1)) + fb(0.7)));
    let right = request(kernel(x0() + (fb(0.1) + fb(0.7))));
    assert_eq!(left.proc.to_string(), right.proc.to_string());
    assert_ne!(left.proc, right.proc);
    assert_ne!(request_key(&left), request_key(&right));

    let service = KernelService::new(ServeConfig::default());
    let first = serve(&service, &left);
    assert_eq!(first.cache, CacheStatus::Miss);
    let second = serve(&service, &right);
    assert_eq!(
        second.cache,
        CacheStatus::Miss,
        "a different kernel was answered from the first one's entry"
    );
    // In `f64`, `(a + 0.1) + 0.7` and `a + (0.1 + 0.7)` round differently
    // on this input: each kernel gets its own answer, the one a service
    // that has seen nothing else computes.
    let fresh = serve(&KernelService::new(ServeConfig::default()), &right);
    let exec = |d: &Delivery| d.result.as_ref().expect("served").exec.expect("executed");
    assert_eq!(exec(&second), exec(&fresh));
    assert_ne!(exec(&second), exec(&first));
    // And each is still served from its own entry afterwards.
    assert_eq!(serve(&service, &left).cache, CacheStatus::Hit);
    assert_eq!(serve(&service, &right).cache, CacheStatus::Hit);
}

#[test]
fn instruction_metadata_is_part_of_the_key() {
    let body = || kernel(read("x", vec![ib(0)]) + fb(0.5));
    let info = |cost_class: &str| InstrInfo {
        cost_class: cost_class.into(),
    };
    let plain = request(body());
    let instr = request(body().with_instr(info("scalar_fadd")));
    let other = request(body().with_instr(info("scalar_fmul")));
    assert_eq!(plain.proc.to_string(), instr.proc.to_string());
    assert_eq!(instr.proc.to_string(), other.proc.to_string());
    assert_ne!(request_key(&plain), request_key(&instr));
    assert_ne!(request_key(&instr), request_key(&other));

    let service = KernelService::new(ServeConfig::default());
    for req in [&plain, &instr, &other] {
        assert_eq!(serve(&service, req).cache, CacheStatus::Miss);
    }
    assert_eq!(service.stats().computed, 3);
}
