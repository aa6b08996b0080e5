//! `kernel_runtime`: run time of the generated code. sgemm 256³, sgemv_n
//! 1024² and blur2d 512², each as `scalar` (unscheduled, portable C) and
//! under `schedule_of_record` for the AVX2 and AVX-512 machine models
//! (native C). Every variant is checked against the interpreter before it
//! is timed; one that fails the check is a failed operation and is not
//! timed. A round launches every variant's timing binary once, round
//! robin, and a launch's time is its fastest batch; a variant's time is
//! the median of its launches.

use super::{record_kernel, registry, Ctx, Round, Unavailable, Workload, RECORD_KERNELS};
use crate::host::{launch_fastest_ns, roofline, timing_main, Compiled, TIMING_PRELUDE};
use crate::report::Metrics;
use crate::stats::{geomean, median, round_spread, Better, Folded, Sample};
use exo_codegen::difftest::{
    arg_shapes, choose_size, run_differential_with, ArgShape, DiffOutcome,
};
use exo_codegen::{emit_c, CUnit, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_ir::{DataType, Proc};
use exo_lib::{apply_script, schedule_of_record};
use exo_machine::{HostCaps, MachineModel};
use std::time::{Duration, Instant};

const VARIANTS: [&str; 3] = ["scalar", "avx2", "avx512"];
/// Launch budget of a fixed round, per variant (a smoke pass: 100 ms).
const FIXED_LAUNCH: Duration = Duration::from_millis(250);

/// Problem size and work of one call of a kernel.
struct Problem {
    sizes: &'static [i64],
    flops: fn(f64) -> f64,
    bytes: fn(f64) -> f64,
}

fn problem(kernel: &str, smoke: bool) -> Problem {
    match kernel {
        "sgemm" => Problem {
            sizes: if smoke {
                &[64, 32]
            } else {
                &[256, 128, 64, 32]
            },
            flops: |s| 2.0 * s * s * s,
            bytes: |s| 4.0 * 4.0 * s * s,
        },
        "sgemv_n" => Problem {
            sizes: &[1024, 512, 256, 64],
            flops: |s| 2.0 * s * s,
            // The matrix once, x once, y read and written.
            bytes: |s| 4.0 * (s * s + 3.0 * s),
        },
        _ => Problem {
            sizes: &[512, 256, 128, 64, 32],
            // Two three-tap passes: blur_x over (H+2)xW pixels, blur_y
            // over HxW, two adds and a multiply each.
            flops: |s| 3.0 * ((s + 2.0) * s + s * s),
            bytes: |s| 4.0 * ((s + 2.0) * (s + 2.0) + 2.0 * (s + 2.0) * s + s * s),
        },
    }
}

/// One timed variant: its compiled timing binary and the fastest batch
/// (ns per call) of each round's launch so far, NaN where it failed.
struct Variant {
    kernel: usize,
    name: &'static str,
    bin: Compiled,
    launch_ns: Vec<f64>,
}

struct Kernel {
    name: &'static str,
    flops: f64,
    bytes: f64,
    /// The native unit of the widest available variant, for its object size.
    native_unit: Option<CUnit>,
}

pub struct KernelRuntime {
    caps: HostCaps,
    fixed_launch: Duration,
    /// Launches of each roofline probe (a smoke pass: one).
    probe_launches: usize,
    kernels: Vec<Kernel>,
    variants: Vec<Variant>,
    unavailable: u64,
    /// Differential checks made in set-up, and how many of them failed.
    checked: u64,
    wrong: u64,
}

/// Why a variant is not timed.
enum NoVariant {
    /// The host cannot execute it, or the primitives refuse the schedule.
    Unavailable(String),
    /// It was checked against the interpreter and the check failed: it
    /// disagrees, or `cc` or the harness broke under it.
    Wrong(String),
}

impl From<String> for NoVariant {
    fn from(why: String) -> NoVariant {
        NoVariant::Unavailable(why)
    }
}

fn c_elem(ty: DataType) -> Result<&'static str, String> {
    match ty {
        DataType::F32 => Ok("float"),
        DataType::F64 => Ok("double"),
        DataType::I8 => Ok("int8_t"),
        DataType::I32 => Ok("int32_t"),
        other => Err(format!("no timing-driver element type for {other:?}")),
    }
}

/// The timing source of one unit: heap-allocated, deterministically
/// initialized tensors (small mixed-sign values, so accumulating kernels
/// stay far from overflow over thousands of calls).
fn timing_source(unit: &CUnit, proc: &Proc, shapes: &[ArgShape]) -> Result<String, String> {
    let mut setup = String::new();
    let mut args = Vec::with_capacity(shapes.len());
    for (k, shape) in shapes.iter().enumerate() {
        match shape {
            ArgShape::Size(v) => args.push(v.to_string()),
            ArgShape::Scalar(DataType::F32) => args.push("0.5f".to_string()),
            ArgShape::Scalar(DataType::F64) => args.push("0.5".to_string()),
            ArgShape::Scalar(_) => args.push("1".to_string()),
            ArgShape::Tensor(ty, dims) => {
                let elem = c_elem(*ty)?;
                let len: usize = dims.iter().product();
                setup.push_str(&format!(
                    "    {elem} *exo_arg_{k} = ({elem} *)malloc(sizeof({elem}) * {len});\n    \
                     if (!exo_arg_{k}) return 2;\n    \
                     for (long exo_i = 0; exo_i < {len}; exo_i++)\n        \
                     exo_arg_{k}[exo_i] = ({elem})((exo_i * 7 + 3) % 11 - 5) / 8;\n"
                ));
                args.push(format!("exo_arg_{k}"));
            }
        }
    }
    let call = format!("{}({});", proc.name(), args.join(", "));
    Ok(format!(
        "{TIMING_PRELUDE}{}{}",
        unit.code,
        timing_main(&setup, &call)
    ))
}

impl KernelRuntime {
    pub fn setup(ctx: &Ctx) -> Result<Self, Unavailable> {
        if !ctx.caps.cc {
            return Err(Unavailable(
                "no `cc` on PATH: nothing can be compiled".to_string(),
            ));
        }
        let mut this = KernelRuntime {
            caps: ctx.caps.clone(),
            fixed_launch: if ctx.smoke {
                FIXED_LAUNCH * 2 / 5
            } else {
                FIXED_LAUNCH
            },
            probe_launches: if ctx.smoke { 1 } else { 3 },
            kernels: Vec::new(),
            variants: Vec::new(),
            unavailable: 0,
            checked: 0,
            wrong: 0,
        };
        let names: &[&'static str] = if ctx.smoke {
            &RECORD_KERNELS[..1]
        } else {
            &RECORD_KERNELS
        };
        for (k, name) in names.iter().copied().enumerate() {
            let base = record_kernel(name);
            let p = problem(name, ctx.smoke);
            let size = choose_size(&base, p.sizes).map_err(Unavailable)?;
            let shapes = arg_shapes(&base, size).map_err(Unavailable)?;
            this.kernels.push(Kernel {
                name,
                flops: (p.flops)(size as f64),
                bytes: (p.bytes)(size as f64),
                native_unit: None,
            });
            for variant in VARIANTS {
                match this.build(k, &base, variant, &shapes, ctx.seed) {
                    Ok(v) => {
                        this.variants.push(v);
                        this.checked += 1;
                    }
                    Err(NoVariant::Unavailable(why)) => {
                        println!("  unavailable  {name}/{variant}: {why}");
                        this.unavailable += 1;
                    }
                    Err(NoVariant::Wrong(why)) => {
                        eprintln!("kernel_runtime: {name}/{variant} fails its check: {why}");
                        this.checked += 1;
                        this.wrong += 1;
                    }
                }
            }
            // A kernel none of whose variants is timed has no number; where
            // a check failed, the run goes on and reports that instead.
            if this.wrong == 0 && !this.variants.iter().any(|v| v.kernel == k) {
                return Err(Unavailable(format!("no variant of `{name}` can run here")));
            }
        }
        Ok(this)
    }

    /// Schedules, emits, checks against the interpreter and compiles the
    /// timing binary of one variant.
    fn build(
        &mut self,
        kernel: usize,
        base: &Proc,
        variant: &'static str,
        shapes: &[ArgShape],
        seed: u64,
    ) -> Result<Variant, NoVariant> {
        let (machine, opts) = match variant {
            "scalar" => (None, CodegenOptions::portable()),
            "avx2" => (Some(MachineModel::avx2()), CodegenOptions::native()),
            _ => (Some(MachineModel::avx512()), CodegenOptions::native()),
        };
        let (proc, registry) = match &machine {
            None => (base.clone(), exo_interp::ProcRegistry::new()),
            Some(m) => {
                let script = schedule_of_record(base.name(), m)
                    .ok_or_else(|| format!("no schedule of record on {}", m.name))?;
                let scheduled = apply_script(&ProcHandle::new(base.clone()), &script, m)
                    .map_err(|e| format!("the primitives refuse the record: {e}"))?;
                (scheduled.proc().clone(), registry(m))
            }
        };
        let unit = emit_c(&proc, &registry, &opts).map_err(|e| e.to_string())?;
        if !unit.cflags.is_empty() && !self.caps.supports_cflags(&unit.cflags) {
            return Err(format!("this host cannot execute {}", unit.cflags.join(" ")).into());
        }
        match run_differential_with(&proc, &registry, seed, &opts) {
            Ok(DiffOutcome::Agreed { .. }) => {}
            Ok(DiffOutcome::Skipped(why)) => return Err(why.into()),
            Err(why) => return Err(NoVariant::Wrong(why)),
        }
        let source = timing_source(&unit, &proc, shapes)?;
        // `cc` has just built the same unit for the check: it works here.
        let bin = Compiled::new(&source, &unit.cflags, &format!("{}_{variant}", base.name()))
            .map_err(NoVariant::Wrong)?;
        if machine.is_some() {
            self.kernels[kernel].native_unit = Some(unit);
        }
        Ok(Variant {
            kernel,
            name: variant,
            bin,
            launch_ns: Vec::new(),
        })
    }

    /// Time of one call of a variant (ns): its launch of the given round,
    /// or the median of all its launches. A batch is the mean of 20 ms of
    /// calls, so a launch's fastest batch is no lucky single call; the
    /// launches of a run differ by more than the batches of one (placement,
    /// neighbours on the host), and the median takes the typical launch.
    fn call_ns(v: &Variant, round: Option<usize>) -> Option<f64> {
        let launches: Vec<f64> = match round {
            Some(r) => vec![*v.launch_ns.get(r)?],
            None => v.launch_ns.clone(),
        };
        let launches: Vec<f64> = launches.into_iter().filter(|ns| ns.is_finite()).collect();
        (!launches.is_empty()).then(|| median(&launches))
    }

    fn variant_ns(&self, kernel: usize, variant: &str) -> Option<f64> {
        self.variants
            .iter()
            .find(|v| v.kernel == kernel && v.name == variant)
            .and_then(|v| Self::call_ns(v, None))
    }

    /// The fastest native variant of a kernel, given each variant's time;
    /// the scalar one where no native variant exists.
    fn best_native(&self, kernel: usize, time_of: impl Fn(usize) -> Option<f64>) -> f64 {
        let mine = || {
            self.variants
                .iter()
                .enumerate()
                .filter(move |(_, v)| v.kernel == kernel)
        };
        mine()
            .filter(|(_, v)| v.name != "scalar")
            .filter_map(|(i, _)| time_of(i))
            .reduce(f64::min)
            .or_else(|| mine().filter_map(|(i, _)| time_of(i)).reduce(f64::min))
            .unwrap_or(f64::NAN)
    }

    fn best_native_ns(&self, kernel: usize, round: Option<usize>) -> f64 {
        self.best_native(kernel, |i| Self::call_ns(&self.variants[i], round))
    }
}

impl Workload for KernelRuntime {
    fn round(&mut self, slice: Option<Duration>) -> Round {
        let mut round = Round::default();
        let n = self.variants.len() as u32;
        // One launch per variant and round: a launch needs some fifteen
        // batches to meet a quiet one (ten launches of a third the length
        // read 1.5 to 2.1 ms for sgemm where five read 1.5).
        let budget = slice.map_or(self.fixed_launch, |s| s / n);
        // A launch also warms up and calibrates (about 60 ms); take that
        // out of the time it is asked to measure for.
        let budget = budget.saturating_sub(Duration::from_millis(60));
        for (i, v) in self.variants.iter_mut().enumerate() {
            round.attempted += 1;
            match launch_fastest_ns(&v.bin.bin, budget) {
                Ok(ns) => {
                    round.samples.push(Sample {
                        class: i as u32,
                        units: 1.0,
                        ms: ns / 1e6,
                    });
                    v.launch_ns.push(ns);
                }
                Err(why) => {
                    eprintln!(
                        "kernel_runtime: {}/{}: {why}",
                        self.kernels[v.kernel].name, v.name
                    );
                    round.failed += 1;
                    v.launch_ns.push(f64::NAN);
                }
            }
        }
        round
    }

    /// Latency: one sgemm call under its best native variant. Throughput:
    /// calls per second of the best native variant, geometric mean over the
    /// kernels. A sample is a launch, its class the variant's index.
    fn end_to_end(&self, samples: &[Sample], _rate_samples: &[Sample]) -> (f64, f64) {
        let call_ms = |variant: usize| {
            let launches: Vec<f64> = samples
                .iter()
                .filter(|s| s.class as usize == variant)
                .map(|s| s.ms)
                .collect();
            (!launches.is_empty()).then(|| median(&launches))
        };
        let best: Vec<f64> = (0..self.kernels.len())
            .map(|k| self.best_native(k, call_ms))
            .collect();
        let calls_per_s: Vec<f64> = best.iter().map(|ms| 1e3 / ms).collect();
        (best[0], geomean(&calls_per_s))
    }

    /// The differential checks of set-up.
    fn verify(&mut self) -> (u64, u64) {
        (self.checked, self.wrong)
    }

    fn layer_metrics(&mut self, folded: &Folded, out: &mut Metrics) {
        let mut gflops = Vec::new();
        let mut cc_ms = Vec::new();
        for (k, kernel) in self.kernels.iter().enumerate() {
            let name = kernel.name;
            let scalar = self.variant_ns(k, "scalar");
            for variant in VARIANTS {
                if let Some(ns) = self.variant_ns(k, variant) {
                    out.set(&format!("codegen.{name}.{variant}_ns"), ns);
                }
            }
            let best = self.best_native_ns(k, None);
            if let Some(scalar) = scalar {
                out.set(&format!("codegen.{name}.speedup_vs_scalar"), scalar / best);
            }
            // How far the rounds' launches of the best native variant disagree.
            let rounds: Vec<f64> = (0..)
                .map(|r| self.best_native_ns(k, Some(r)))
                .take_while(|ns| ns.is_finite())
                .collect();
            out.set(
                &format!("codegen.{name}.round_spread"),
                round_spread(&rounds, Better::Lower),
            );
            let g = kernel.flops / best;
            gflops.push(g);
            match name {
                "sgemm" => out.set("sgemm_gflops", g),
                _ => out.set(&format!("codegen.{name}.gflops"), g),
            }
            // Object size of the native unit, compiled without a `main`.
            if let Some(unit) = &kernel.native_unit {
                let t0 = Instant::now();
                let object = Compiled::new(&unit.code, &unit.cflags, &format!("{name}_obj"));
                cc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                match object {
                    Ok(object) => {
                        out.set(&format!("codegen.obj_bytes.{name}"), object.size() as f64)
                    }
                    Err(why) => eprintln!("kernel_runtime: object of `{name}`: {why}"),
                }
            }
        }
        out.set("native_gflops_geomean", geomean(&gflops));
        out.set("codegen.unavailable_variants", self.unavailable as f64);
        out.set(
            "guard.run_ms_p50",
            folded.dur_p50_ns("bench:guard.run") / 1e6,
        );
        out.set("guard.cc_ms_p50", median(&cc_ms));
        match roofline(&self.caps, self.probe_launches, self.fixed_launch) {
            Ok((peak_gflops, stream_gbs)) => {
                out.set("machine.peak_gflops_1t", peak_gflops);
                out.set("machine.stream_gbs", stream_gbs);
                out.set("codegen.sgemm.peak_fraction", gflops[0] / peak_gflops);
                if let Some(k) = self.kernels.iter().position(|k| k.name == "sgemv_n") {
                    let gbs = self.kernels[k].bytes / self.best_native_ns(k, None);
                    out.set("codegen.sgemv_n.bw_fraction", gbs / stream_gbs);
                }
            }
            Err(why) => eprintln!("kernel_runtime: roofline probe: {why}"),
        }
    }
}
