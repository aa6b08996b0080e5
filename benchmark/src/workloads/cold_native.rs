//! `cold_native`: the cold request. One client sends distinct
//! `Tier::NativeRun` requests (the three kernels under their schedules of
//! record, fresh input seeds) to a fresh `KernelService`, faults off:
//! replay, verify, emit, `cc`, run.

use super::{
    avx2_records, counters_add_up, mix, one_worker_service, record_request, registry, Ctx, Round,
    StepTimes, Unavailable, Workload, RECORD_KERNELS,
};
use crate::host::{Compiled, SPAWN_RETRIES, TIMEOUTS};
use crate::report::Metrics;
use crate::stats::{median, Folded, Sample};
use exo_analysis::{check_proc, Severity};
use exo_codegen::difftest::{emit_driver, run_differential_native, synth_inputs, DiffOutcome};
use exo_codegen::{emit_c, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_guard::{run_guarded, GuardConfig};
use exo_interp::ProcRegistry;
use exo_ir::Proc;
use exo_lib::{apply_script, ScheduleScript};
use exo_machine::{HostCaps, MachineModel};
use exo_serve::{CacheStatus, KernelService, ServeRequest, StatsSnapshot, Tier};
use std::process::Command;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const RUN_DEADLINE: Duration = Duration::from_secs(30);

pub struct ColdNative {
    machine: MachineModel,
    registry: ProcRegistry,
    kernels: Vec<(Proc, ScheduleScript)>,
    caps: HostCaps,
    /// Requests of a fixed round: each kernel under three input seeds.
    fixed_requests: u64,
    /// Input seeds never repeat within a run, so no request is ever a hit.
    next_seed: u64,
    /// Requests sent so far: the kernels take turns across the rounds, so
    /// that a run times each of them equally often.
    sent: u64,
    steps: StepTimes,
    stats: StatsSnapshot,
}

impl ColdNative {
    pub fn setup(ctx: &Ctx) -> Result<Self, Unavailable> {
        if !ctx.caps.supports_cflags(&["-mavx2", "-mfma"]) {
            return Err(Unavailable(format!(
                "the native-run tier needs cc and a CPU with AVX2 and FMA ({})",
                ctx.caps.summary()
            )));
        }
        let machine = MachineModel::avx2();
        let names = if ctx.smoke {
            &RECORD_KERNELS[..1]
        } else {
            &RECORD_KERNELS[..]
        };
        let kernels = avx2_records(names)?;
        let mut this = ColdNative {
            registry: registry(&machine),
            machine,
            kernels,
            caps: ctx.caps.clone(),
            fixed_requests: if ctx.smoke { 2 } else { 9 },
            next_seed: 1 + mix(ctx.seed, 3) % (1 << 32),
            sent: 0,
            steps: StepTimes::default(),
            stats: StatsSnapshot::default(),
        };
        // One request per kernel outside the clock: the requests are cold
        // for the service, not for the host's file cache of `cc`, the
        // linker and their headers. The rounds report what fails.
        let service = this.service();
        for kernel in 0..this.kernels.len() {
            let request = this.request(kernel);
            std::hint::black_box(service.submit(request).wait());
        }
        Ok(this)
    }

    /// The next native-run request for a kernel: an input seed of its own.
    fn request(&mut self, kernel: usize) -> ServeRequest {
        let input_seed = self.take_seed();
        record_request(&self.kernels[kernel], Tier::NativeRun, input_seed)
    }

    fn service(&self) -> KernelService {
        one_worker_service(&self.caps)
    }

    fn take_seed(&mut self) -> u64 {
        self.next_seed += 1;
        self.next_seed
    }

    /// One request, stage by stage, as `exo_serve` processes it.
    fn walk(&self, kernel: &Proc, script: &ScheduleScript, input_seed: u64) -> Result<(), String> {
        let scheduled = {
            let _span = exo_obs::span!("bench:lib.apply_script", "{}", kernel.name());
            apply_script(&ProcHandle::new(kernel.clone()), script, &self.machine)
                .map_err(|e| e.to_string())?
        };
        let proc = scheduled.proc();
        let findings = {
            let _span = exo_obs::span!("bench:analysis.check_proc", "{}", proc.name());
            check_proc(proc)
        };
        if findings.iter().any(|d| d.severity == Severity::Error) {
            return Err(format!("the verifier rejects `{}`", proc.name()));
        }
        {
            let _span = exo_obs::span!("bench:interp.lower", "{}", proc.name());
            std::hint::black_box(exo_interp::lower(proc).code_len());
        }
        let unit = {
            let _span = exo_obs::span!("bench:codegen.emit_c", "{}", proc.name());
            emit_c(proc, &self.registry, &CodegenOptions::native()).map_err(|e| e.to_string())?
        };
        let inputs = {
            let _span = exo_obs::span!("bench:codegen.synth_inputs", "{}", proc.name());
            synth_inputs(proc, input_seed)?
        };
        let driver = {
            let _span = exo_obs::span!("bench:codegen.emit_driver", "{}", proc.name());
            emit_driver(&unit, proc, &inputs)
        };
        let compiled = {
            let _span = exo_obs::span!("bench:guard.cc", "{}", proc.name());
            Compiled::new(&driver, &unit.cflags, proc.name())?
        };
        let _span = exo_obs::span!("bench:guard.run", "{}", proc.name());
        let out = run_guarded(
            &mut Command::new(&compiled.bin),
            &GuardConfig::with_timeout(RUN_DEADLINE),
        )
        .map_err(|e| {
            if e.is_timeout() {
                TIMEOUTS.fetch_add(1, Ordering::Relaxed);
            }
            e.to_string()
        })?;
        SPAWN_RETRIES.fetch_add(u64::from(out.attempts.saturating_sub(1)), Ordering::Relaxed);
        if out.success {
            Ok(())
        } else {
            Err(format!("`{}` exited with {:?}", proc.name(), out.code))
        }
    }
}

impl Workload for ColdNative {
    fn round(&mut self, slice: Option<Duration>) -> Round {
        let mut round = Round::default();
        let service = self.service();
        let start = Instant::now();
        for i in 0u64.. {
            let kernel = (self.sent % self.kernels.len() as u64) as usize;
            self.sent += 1;
            let request = self.request(kernel);
            let t0 = Instant::now();
            let delivery = {
                let _span = exo_obs::span!("bench:serve.submit_wait");
                service.submit(request).wait()
            };
            let latency_ns = t0.elapsed().as_nanos() as f64;
            round.samples.push(Sample {
                class: kernel as u32,
                units: 1.0,
                ms: latency_ns / 1e6,
            });
            round.attempted += 1;
            // Served cold, at the tier asked for, with something executed.
            let served = delivery.as_ref().and_then(|d| {
                let ok = d.result.as_ref().ok()?;
                (d.cache == CacheStatus::Miss
                    && ok.tier == Tier::NativeRun
                    && ok.degraded.is_empty()
                    && ok.exec.is_some_and(|e| e.elems > 0))
                .then_some(ok)
            });
            match served {
                Some(ok) => self.steps.record(ok, "native-run", latency_ns),
                None => {
                    eprintln!(
                        "cold_native: request {i} was not served cold at native-run: {:?}",
                        delivery
                            .map(|d| (d.cache, d.result.map(|ok| (ok.tier, ok.degraded.clone()))))
                    );
                    round.failed += 1;
                }
            }
            let done = match slice {
                Some(slice) => start.elapsed() >= slice,
                None => i + 1 >= self.fixed_requests,
            };
            if done {
                break;
            }
        }
        self.stats = service.stats();
        let s = self.stats;
        if !counters_add_up(&s) {
            eprintln!("cold_native: service counters do not add up: {s:?}");
            round.failed += 1;
        }
        round.counts = vec![("serve.degradations", s.degradations)];
        round
    }

    fn traced_round(&mut self) -> Round {
        let mut round = Round::default();
        for i in 0..self.fixed_requests {
            let (proc, script) = self.kernels[i as usize % self.kernels.len()].clone();
            let seed = self.take_seed();
            let t0 = Instant::now();
            let outcome = {
                let _span = exo_obs::span!("bench:request", "{}", proc.name());
                self.walk(&proc, &script, seed)
            };
            round.samples.push(Sample {
                class: (i % self.kernels.len() as u64) as u32,
                units: 1.0,
                ms: t0.elapsed().as_secs_f64() * 1e3,
            });
            round.attempted += 1;
            if let Err(why) = outcome {
                eprintln!("cold_native: walking request {i}: {why}");
                round.failed += 1;
            }
        }
        round
    }

    fn layer_metrics(&mut self, folded: &Folded, out: &mut Metrics) {
        // Per request of the stage walk.
        let per_request = |name: &str| folded.self_ms(name) / self.fixed_requests as f64;
        out.set("lib.replay_ms", per_request("bench:lib.apply_script"));
        out.set(
            "analysis.verify_ms",
            per_request("bench:analysis.check_proc"),
        );
        out.set(
            "analysis.verify_us_per_proc_p50",
            folded.dur_p50_ns("bench:analysis.check_proc") / 1e3,
        );
        out.set("interp.lower_ms", per_request("bench:interp.lower"));
        out.set("codegen.emit_ms", per_request("bench:codegen.emit_c"));
        out.set(
            "codegen.synth_inputs_us",
            folded.dur_p50_ns("bench:codegen.synth_inputs") / 1e3,
        );
        out.set(
            "codegen.emit_driver_us",
            folded.dur_p50_ns("bench:codegen.emit_driver") / 1e3,
        );
        out.set("guard.cc_ms_p50", folded.dur_p50_ns("bench:guard.cc") / 1e6);
        out.set(
            "guard.run_ms_p50",
            folded.dur_p50_ns("bench:guard.run") / 1e6,
        );
        let request_ms = folded.dur_ms("bench:request");
        if request_ms > 0.0 {
            out.set(
                "guard.cc_share",
                folded.dur_ms("bench:guard.cc") / request_ms,
            );
        }
        self.steps.report(out);
        out.set("serve.native_run_ms_p50", median(&self.steps.tier) / 1e6);
        out.set("serve.computed", self.stats.computed as f64);
        out.set("serve.compiles", self.stats.compiles as f64);
        out.set("serve.binary_runs", self.stats.binary_runs as f64);
        out.set("serve.overloaded", self.stats.overloaded as f64);
        out.set("guard.timeouts", self.stats.guard_timeouts as f64);
    }

    /// The native unit of every kernel agrees with the interpreter,
    /// element for element, on the next unused input seed.
    fn verify(&mut self) -> (u64, u64) {
        let mut failed = 0;
        for (kernel, script) in self.kernels.clone() {
            let seed = self.take_seed();
            let outcome = apply_script(&ProcHandle::new(kernel.clone()), &script, &self.machine)
                .map_err(|e| e.to_string())
                .and_then(|p| run_differential_native(p.proc(), &self.registry, seed));
            if !matches!(outcome, Ok(DiffOutcome::Agreed { .. })) {
                eprintln!("cold_native: `{}` differential: {outcome:?}", kernel.name());
                failed += 1;
            }
        }
        (self.kernels.len() as u64, failed)
    }

    fn lane_roots(&self) -> &'static [&'static str] {
        &["bench:request"]
    }
}
