//! `sched_library`: rebuild the whole scheduling library. A pass applies
//! every library schedule on the AVX2 and AVX-512 machine models, then
//! verifies, lowers and emits (portable and native) each result. One
//! thread, no subprocess.

use super::{reference_outputs, registry, scheduled_outputs, Ctx, Round, Unavailable, Workload};
use crate::report::Metrics;
use crate::stats::{Folded, Sample};
use exo_analysis::{check_proc, Severity};
use exo_autotune::space::loop_selectors;
use exo_bench::paper::sgemm_wide;
use exo_codegen::{emit_c, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_interp::ProcRegistry;
use exo_ir::Proc;
use exo_kernels::{Precision, LEVEL1_KERNELS, LEVEL2_KERNELS};
use exo_lib::{
    halide_blur_schedule, halide_unsharp_schedule, optimize_all_level_1, optimize_all_level_2,
    optimize_sgemm,
};
use exo_machine::MachineModel;
use std::time::{Duration, Instant};

/// Passes of a fixed round (the traced run's rounds); two in a smoke pass.
const FIXED_PASSES: usize = 5;

struct Target {
    machine: MachineModel,
    registry: ProcRegistry,
}

/// One scheduled result of a pass and the unscheduled kernel it came from
/// (an index into `SchedLibrary::kernels`).
struct Scheduled {
    kernel: usize,
    target: usize,
    handle: ProcHandle,
}

/// What one pass counted.
#[derive(Default, PartialEq, Eq, Clone, Copy, Debug)]
struct PassCounts {
    schedules: u64,
    rewrites: u64,
    errors: u64,
    warnings: u64,
    lowered_insts: u64,
    emitted_bytes: u64,
}

pub struct SchedLibrary {
    targets: Vec<Target>,
    /// Unscheduled kernels, in the order a pass schedules them per target.
    kernels: Vec<Proc>,
    sgemm_bases: Vec<ProcHandle>,
    blur: ProcHandle,
    unsharp: ProcHandle,
    input_seed: u64,
    last: Vec<Scheduled>,
    counts: PassCounts,
    fixed_passes: usize,
}

impl SchedLibrary {
    pub fn setup(ctx: &Ctx) -> Result<Self, Unavailable> {
        let targets = [MachineModel::avx2(), MachineModel::avx512()]
            .into_iter()
            .map(|machine| Target {
                registry: registry(&machine),
                machine,
            })
            .collect();
        let sgemm_bases: Vec<Proc> = std::iter::once(exo_kernels::sgemm())
            .chain([8, 32, 64].map(sgemm_wide))
            .collect();
        // The order `pass` produces results in, per target.
        let mut kernels = Vec::new();
        for prec in [Precision::Single, Precision::Double] {
            kernels.extend(LEVEL1_KERNELS.iter().map(|k| (k.build)(prec)));
            kernels.extend(LEVEL2_KERNELS.iter().map(|k| (k.build)(prec)));
        }
        kernels.extend(sgemm_bases.iter().cloned());
        kernels.push(exo_kernels::blur2d());
        kernels.push(exo_kernels::unsharp());
        let mut this = SchedLibrary {
            targets,
            kernels,
            sgemm_bases: sgemm_bases.into_iter().map(ProcHandle::new).collect(),
            blur: ProcHandle::new(exo_kernels::blur2d()),
            unsharp: ProcHandle::new(exo_kernels::unsharp()),
            input_seed: super::mix(ctx.seed, 1),
            last: Vec::new(),
            counts: PassCounts::default(),
            fixed_passes: if ctx.smoke { 2 } else { FIXED_PASSES },
        };
        // Warm the process-wide instruction-set caches the library reads.
        this.pass().map_err(Unavailable)?;
        Ok(this)
    }

    /// Applies every library schedule on every target.
    fn schedule_all(&self) -> Result<Vec<Scheduled>, String> {
        let mut out = Vec::with_capacity(self.kernels.len() * self.targets.len());
        for (t, target) in self.targets.iter().enumerate() {
            let m = &target.machine;
            let mut handles: Vec<ProcHandle> = Vec::with_capacity(self.kernels.len());
            for prec in [Precision::Single, Precision::Double] {
                let _span = exo_obs::span!("bench:lib.schedule", "level 1+2 {:?} {}", prec, m.name);
                handles.extend(optimize_all_level_1(m, prec).into_iter().map(|(_, p)| p));
                handles.extend(optimize_all_level_2(m, prec).into_iter().map(|(_, p)| p));
            }
            for base in &self.sgemm_bases {
                let _span = exo_obs::span!("bench:lib.schedule", "sgemm {}", m.name);
                handles.push(optimize_sgemm(base, m).map_err(|e| format!("optimize_sgemm: {e}"))?);
            }
            {
                let _span = exo_obs::span!("bench:lib.schedule", "halide {}", m.name);
                handles.push(
                    halide_blur_schedule(&self.blur, m)
                        .map_err(|e| format!("blur schedule: {e}"))?,
                );
                handles.push(
                    halide_unsharp_schedule(&self.unsharp, m)
                        .map_err(|e| format!("unsharp schedule: {e}"))?,
                );
            }
            if handles.len() != self.kernels.len() {
                return Err(format!(
                    "{}: {} schedules for {} kernels",
                    m.name,
                    handles.len(),
                    self.kernels.len()
                ));
            }
            for (kernel, handle) in handles.into_iter().enumerate() {
                if handle.proc().name() != self.kernels[kernel].name() {
                    return Err(format!(
                        "schedule {kernel} on {} is `{}`, expected `{}`",
                        m.name,
                        handle.proc().name(),
                        self.kernels[kernel].name()
                    ));
                }
                out.push(Scheduled {
                    kernel,
                    target: t,
                    handle,
                });
            }
        }
        Ok(out)
    }

    /// One pass: schedule everything, then verify, lower and emit each
    /// result. Keeps the results for the output checks.
    fn pass(&mut self) -> Result<PassCounts, String> {
        exo_core::stats::reset();
        let scheduled = self.schedule_all()?;
        let mut counts = PassCounts {
            schedules: scheduled.len() as u64,
            rewrites: exo_core::stats::total(),
            ..PassCounts::default()
        };
        for s in &scheduled {
            let proc = s.handle.proc();
            let registry = &self.targets[s.target].registry;
            let findings = {
                let _span = exo_obs::span!("bench:analysis.check_proc", "{}", proc.name());
                check_proc(proc)
            };
            for d in &findings {
                match d.severity {
                    Severity::Error => counts.errors += 1,
                    Severity::Warning => counts.warnings += 1,
                }
            }
            counts.lowered_insts += {
                let _span = exo_obs::span!("bench:interp.lower", "{}", proc.name());
                exo_interp::lower(proc).code_len() as u64
            };
            for opts in [CodegenOptions::portable(), CodegenOptions::native()] {
                let _span = exo_obs::span!("bench:codegen.emit_c", "{}", proc.name());
                let unit = emit_c(proc, registry, &opts)
                    .map_err(|e| format!("emitting `{}`: {e}", proc.name()))?;
                counts.emitted_bytes += unit.code.len() as u64;
            }
        }
        {
            // Frees the previous pass's handles and their provenance chains.
            let _span = exo_obs::span!("bench:cursors.release");
            self.last = scheduled;
            // glibc puts off merging the freed chunks until the next large
            // request (about as long again as the frees themselves). Make
            // that request here, so that the cost lands in this span and
            // not in whichever layer allocates next.
            drop(std::hint::black_box(Vec::<u8>::with_capacity(1 << 16)));
        }
        Ok(counts)
    }
}

impl Workload for SchedLibrary {
    fn round(&mut self, slice: Option<Duration>) -> Round {
        let mut round = Round::default();
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            let outcome = self.pass();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            round.attempted += 1;
            match outcome {
                // A proven violation in a library output is a failed pass.
                Ok(counts) if counts.errors == 0 => self.counts = counts,
                Ok(counts) => {
                    self.counts = counts;
                    round.failed += 1;
                }
                Err(why) => {
                    eprintln!("sched_library: pass failed: {why}");
                    round.failed += 1;
                }
            }
            // Throughput counts schedules: applied, verified, lowered, emitted.
            round.samples.push(Sample {
                class: 0,
                units: self.counts.schedules as f64,
                ms,
            });
            let done = match slice {
                Some(slice) => start.elapsed() >= slice,
                None => round.samples.len() >= self.fixed_passes,
            };
            if done {
                break;
            }
        }
        let c = self.counts;
        round.counts = vec![
            ("lib.schedules", c.schedules),
            ("core.rewrites", c.rewrites),
            ("analysis.diag_errors", c.errors),
            ("analysis.diag_warnings", c.warnings),
            ("interp.lowered_insts", c.lowered_insts),
            ("codegen.emitted_bytes", c.emitted_bytes),
        ];
        round
    }

    fn layer_metrics(&mut self, folded: &Folded, out: &mut Metrics) {
        // Span totals cover the traced round's passes; report one pass.
        let per_pass = |name: &str| folded.self_ms(name) / self.fixed_passes as f64;
        let schedule_ms = per_pass("bench:lib.schedule");
        out.set("lib.schedule_ms", schedule_ms);
        if schedule_ms > 0.0 {
            out.set(
                "core.rewrites_per_s",
                self.counts.rewrites as f64 / (schedule_ms / 1e3),
            );
        }
        out.set("analysis.verify_ms", per_pass("bench:analysis.check_proc"));
        out.set(
            "analysis.verify_us_per_proc_p50",
            folded.dur_p50_ns("bench:analysis.check_proc") / 1e3,
        );
        out.set("interp.lower_ms", per_pass("bench:interp.lower"));
        out.set("codegen.emit_ms", per_pass("bench:codegen.emit_c"));
        out.set("cursors.release_ms", per_pass("bench:cursors.release"));
        // Resolve every loop of every scheduled proc once.
        let t0 = Instant::now();
        let mut resolved = 0usize;
        for s in &self.last {
            for sel in loop_selectors(&s.handle) {
                resolved += usize::from(sel.resolve(&s.handle).is_ok());
            }
        }
        std::hint::black_box(resolved);
        out.set("cursors.find_loop_us", t0.elapsed().as_secs_f64() * 1e6);
    }

    /// Every scheduled result computes what its unscheduled kernel does.
    fn verify(&mut self) -> (u64, u64) {
        let mut failed = 0;
        for s in &self.last {
            let kernel = &self.kernels[s.kernel];
            let registry = &self.targets[s.target].registry;
            let agree = reference_outputs(kernel, self.input_seed).and_then(|want| {
                scheduled_outputs(kernel, s.handle.proc(), registry, self.input_seed)
                    .map(|got| want == got)
            });
            if agree != Ok(true) {
                eprintln!(
                    "sched_library: `{}` on {} differs from its unscheduled kernel: {agree:?}",
                    kernel.name(),
                    self.targets[s.target].machine.name
                );
                failed += 1;
            }
        }
        (self.last.len() as u64, failed)
    }
}
