//! The five workloads and what they share: the round they all report,
//! the three kernels of record, and reference outputs that never come
//! from the code path under test.

pub mod cold_native;
pub mod kernel_runtime;
pub mod sched_library;
pub mod serve_mixed;
pub mod tune_search;

use crate::report::Metrics;
use crate::stats::{median, quiet_estimate, Folded, Sample};
use exo_codegen::difftest::{interp_outputs, synth_inputs};
use exo_interp::ProcRegistry;
use exo_ir::{DataType, Proc};
use exo_kernels::Precision;
use exo_lib::{schedule_of_record, ScheduleScript};
use exo_machine::{HostCaps, MachineKind, MachineModel};
use exo_serve::{
    ExecSummary, KernelService, ServeConfig, ServeOk, ServeOptions, ServeRequest, StatsSnapshot,
    Tier,
};
use std::time::Duration;

/// What every workload's set-up receives.
pub struct Ctx {
    /// Drives every generated input: input seeds, tune seeds, request order.
    pub seed: u64,
    /// Reduced pass: fewer kernels and variants.
    pub smoke: bool,
    /// The probed host, with OpenMP masked off: on a two-core host OpenMP
    /// variants measure oversubscription, not the code.
    pub caps: HostCaps,
}

/// One round of a workload: the operations it timed and what it attempted.
#[derive(Default, Clone, Debug)]
pub struct Round {
    /// Every primary operation of the round: the latency samples.
    pub samples: Vec<Sample>,
    /// The operations throughput is counted on, where they are not the
    /// primary ones (the hits between the misses); empty otherwise.
    pub rate_samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Counts that must repeat exactly in every fixed round.
    pub counts: Vec<(&'static str, u64)>,
}

impl Round {
    /// The samples throughput is estimated from.
    pub fn rate_samples(&self) -> &[Sample] {
        if self.rate_samples.is_empty() {
            &self.samples
        } else {
            &self.rate_samples
        }
    }
}

/// A workload, after set-up.
pub trait Workload {
    /// Runs one round with the service path the end-to-end metrics are
    /// measured on. `slice` bounds it in time (the operation list repeats
    /// until it is used up); `None` runs the list exactly once.
    fn round(&mut self, slice: Option<Duration>) -> Round;

    /// `(latency_ms, throughput_per_s)` of a set of samples: the quiet-host
    /// estimate, unless the workload's operation needs its own reading.
    fn end_to_end(&self, samples: &[Sample], rate_samples: &[Sample]) -> (f64, f64) {
        (quiet_estimate(samples).0, quiet_estimate(rate_samples).1)
    }

    /// The round a trace session records. By default the same fixed round,
    /// whose benchmark-owned spans now record; workloads whose program
    /// path hides its stages walk those stages directly instead.
    fn traced_round(&mut self) -> Round {
        self.round(None)
    }

    /// Fills the per-layer metrics from the folded spans of the last
    /// traced round and whatever the workload counted itself.
    fn layer_metrics(&mut self, folded: &Folded, out: &mut Metrics);

    /// Output checks that are too slow to sit inside a round. Returns
    /// `(attempted, failed)`.
    fn verify(&mut self) -> (u64, u64) {
        (0, 0)
    }

    /// Span names that enclose all other spans of a thread in a traced
    /// round (besides the harness's own `bench:round`).
    fn lane_roots(&self) -> &'static [&'static str] {
        &[]
    }
}

/// Why a workload cannot run on this host at all.
pub struct Unavailable(pub String);

/// Builds the named workload; set-up time is what this call takes.
pub fn setup(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, Unavailable> {
    match name {
        "cold_native" => cold_native::ColdNative::setup(ctx).map(|w| Box::new(w) as _),
        "kernel_runtime" => kernel_runtime::KernelRuntime::setup(ctx).map(|w| Box::new(w) as _),
        "sched_library" => sched_library::SchedLibrary::setup(ctx).map(|w| Box::new(w) as _),
        "tune_search" => tune_search::TuneSearch::setup(ctx).map(|w| Box::new(w) as _),
        "serve_mixed" => serve_mixed::ServeMixed::setup(ctx).map(|w| Box::new(w) as _),
        other => Err(Unavailable(format!("no workload named `{other}`"))),
    }
}

/// Step times (ns) read from the public `RequestTrace` of every response a
/// service workload was served.
#[derive(Default)]
pub struct StepTimes {
    replay: Vec<f64>,
    verify: Vec<f64>,
    emit: Vec<f64>,
    /// The step of the tier that served the request (`native-run`, `interp`).
    pub tier: Vec<f64>,
    /// Client-observed latency minus the worker's traced steps.
    overhead: Vec<f64>,
}

impl StepTimes {
    pub fn record(&mut self, ok: &ServeOk, tier_step: &str, latency_ns: f64) {
        let step = |name: &str| ok.trace.step(name).map_or(0.0, |s| s.ns as f64);
        self.replay.push(step("replay"));
        self.verify.push(step("verify"));
        self.emit.push(step("emit"));
        self.tier.push(step(tier_step));
        let traced: f64 = ok.trace.steps.iter().map(|s| s.ns as f64).sum();
        self.overhead.push(latency_ns - traced);
    }

    /// The `serve.*` medians every service workload reports.
    pub fn report(&self, out: &mut Metrics) {
        out.set("serve.replay_us_p50", median(&self.replay) / 1e3);
        out.set("serve.verify_us_p50", median(&self.verify) / 1e3);
        out.set("serve.emit_us_p50", median(&self.emit) / 1e3);
        out.set("serve.overhead_us", median(&self.overhead) / 1e3);
    }
}

/// The kernels that have a schedule of record, in the order every
/// workload cycles them.
pub const RECORD_KERNELS: [&str; 3] = ["sgemm", "sgemv_n", "blur2d"];

pub fn record_kernel(name: &str) -> Proc {
    match name {
        "sgemm" => exo_kernels::sgemm(),
        "sgemv_n" => exo_kernels::gemv(Precision::Single, false),
        "blur2d" => exo_kernels::blur2d(),
        other => panic!("`{other}` has no schedule of record"),
    }
}

/// The named kernels with their schedules of record on the AVX2 model:
/// what the service workloads request.
pub fn avx2_records(names: &[&str]) -> Result<Vec<(Proc, ScheduleScript)>, Unavailable> {
    let machine = MachineModel::avx2();
    names
        .iter()
        .map(|name| {
            let script = schedule_of_record(name, &machine)
                .ok_or_else(|| Unavailable(format!("`{name}` lost its schedule of record")))?;
            Ok((record_kernel(name), script))
        })
        .collect()
}

/// A request for one of `avx2_records` at `tier` on the inputs of `input_seed`.
pub fn record_request(
    kernel: &(Proc, ScheduleScript),
    tier: Tier,
    input_seed: u64,
) -> ServeRequest {
    ServeRequest {
        proc: kernel.0.clone(),
        script: kernel.1.clone(),
        target: MachineKind::Avx2,
        options: ServeOptions {
            tier,
            input_seed,
            ..ServeOptions::default()
        },
    }
}

/// A service with one worker, so that the client and the worker together
/// keep one thread busy, on the probed host.
pub fn one_worker_service(caps: &HostCaps) -> KernelService {
    KernelService::new(ServeConfig {
        workers: 1,
        host_caps: Some(caps.clone()),
        ..ServeConfig::default()
    })
}

/// The service's accounting identity: every submission is counted once.
pub fn counters_add_up(s: &StatsSnapshot) -> bool {
    s.submitted == s.cache_hits + s.coalesced + s.computed + s.negative_hits + s.overloaded
}

/// Every instruction procedure of `machine`, both precisions.
pub fn registry(machine: &MachineModel) -> ProcRegistry {
    machine
        .instructions(DataType::F32)
        .into_iter()
        .chain(machine.instructions(DataType::F64))
        .collect()
}

/// SplitMix64: derives the run's seeds (input seeds, tune seeds, request
/// order) from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Interpreter output of the *unscheduled* `kernel` on the inputs
/// synthesized from `seed`: the reference every scheduled result is
/// compared against.
pub fn reference_outputs(kernel: &Proc, seed: u64) -> Result<Vec<Vec<f64>>, String> {
    let inputs = synth_inputs(kernel, seed)?;
    interp_outputs(kernel, &ProcRegistry::new(), &inputs)
}

/// Interpreter output of a scheduled proc on the inputs synthesized from
/// the unscheduled kernel it came from.
pub fn scheduled_outputs(
    kernel: &Proc,
    scheduled: &Proc,
    registry: &ProcRegistry,
    seed: u64,
) -> Result<Vec<Vec<f64>>, String> {
    let inputs = synth_inputs(kernel, seed)?;
    interp_outputs(scheduled, registry, &inputs)
}

/// The service's execution summary of a set of output buffers: element
/// count and FNV-1a over the little-endian bit patterns.
pub fn summarize(buffers: &[Vec<f64>]) -> ExecSummary {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut elems = 0;
    for v in buffers.iter().flatten() {
        for byte in v.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        elems += 1;
    }
    ExecSummary {
        elems,
        checksum: hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_stream_and_by_seed() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }

    #[test]
    fn summary_counts_elements_and_depends_on_every_one() {
        let a = summarize(&[vec![1.0, 2.0], vec![3.0]]);
        let b = summarize(&[vec![1.0, 2.0], vec![4.0]]);
        assert_eq!(a.elems, 3);
        assert_ne!(a.checksum, b.checksum);
        assert_eq!(summarize(&[]).checksum, 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn a_schedule_of_record_keeps_the_kernel_s_outputs() {
        let machine = MachineModel::avx2();
        for name in RECORD_KERNELS {
            let kernel = record_kernel(name);
            let script = exo_lib::schedule_of_record(name, &machine).unwrap();
            let scheduled = exo_lib::apply_script(
                &exo_cursors::ProcHandle::new(kernel.clone()),
                &script,
                &machine,
            )
            .unwrap();
            let want = reference_outputs(&kernel, 3).unwrap();
            let got = scheduled_outputs(&kernel, scheduled.proc(), &registry(&machine), 3).unwrap();
            assert_eq!(want, got, "{name}");
        }
    }
}
