//! `tune_search`: the scheduling layer under rejection. A sweep runs the
//! autotuner's search (cost-model ranking only) over the three kernels of
//! record: 200 short scripts per kernel, most refused by the static prune
//! or by a primitive, the survivors simulated.

use super::{mix, record_kernel, Ctx, Round, Unavailable, Workload, RECORD_KERNELS};
use crate::report::Metrics;
use crate::stats::{Folded, Sample};
use exo_autotune::prune::{proven_violation, statically_illegal};
use exo_autotune::space::generate_candidates;
use exo_autotune::{tune, TuneConfig, TuneReport, TuneTask};
use exo_codegen::difftest::{synth_inputs, SynthArg};
use exo_cursors::ProcHandle;
use exo_interp::{ArgValue, ProcRegistry};
use exo_ir::DataType;
use exo_lib::apply_script;
use exo_machine::{try_simulate, MachineModel};
use std::time::{Duration, Instant};

/// Tune seeds of a run. The candidates a tune seed draws cost up to a
/// fifth more or less than another's, so a run averages over several; a
/// timed round sweeps all of them (about 3 s), so that every round times
/// every class and a class has as many samples as the run has rounds.
/// (A smoke pass has one.)
const SWEEPS: usize = 6;
const BUDGET: usize = 200;

/// What the search funnel counted for one kernel.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct Funnel {
    sampled: usize,
    static_rejected: usize,
    illegal: usize,
    verify_rejected: usize,
    trapped: usize,
    survivors: usize,
    best_cycles: u64,
    simulated_cycles: u64,
}

impl Funnel {
    fn of(report: &TuneReport) -> Funnel {
        Funnel {
            sampled: report.sampled,
            static_rejected: report.static_rejected,
            illegal: report.illegal,
            verify_rejected: report.verify_rejected,
            trapped: report.trapped,
            survivors: report.candidates.len(),
            best_cycles: report.best_by_cycles().map_or(0, |c| c.cycles),
            simulated_cycles: report.candidates.iter().map(|c| c.cycles).sum(),
        }
    }

    fn adds_up(&self) -> bool {
        self.sampled
            == self.static_rejected
                + self.illegal
                + self.verify_rejected
                + self.trapped
                + self.survivors
    }
}

pub struct TuneSearch {
    tasks: Vec<TuneTask>,
    seeds: Vec<u64>,
    input_seed: u64,
    /// Sweeps of a fixed round.
    fixed_sweeps: usize,
    /// Funnels of the first seed's sweep, one per kernel: from `tune` in
    /// the last round, and from the stage walk of the last traced round.
    tuned: Vec<Funnel>,
    walked: Vec<Funnel>,
}

impl TuneSearch {
    pub fn setup(ctx: &Ctx) -> Result<Self, Unavailable> {
        let machine = MachineModel::avx2();
        let tasks = RECORD_KERNELS
            .iter()
            // The flop count only feeds a report field nobody reads here.
            .map(|name| TuneTask::new(record_kernel(name), machine.clone(), 0.0))
            .collect();
        let this = TuneSearch {
            tasks,
            seeds: (0..if ctx.smoke { 1 } else { SWEEPS as u64 })
                .map(|i| mix(ctx.seed, 100 + i))
                .collect(),
            input_seed: 1 + mix(ctx.seed, 2) % 64,
            fixed_sweeps: if ctx.smoke { 1 } else { 2 },
            tuned: Vec::new(),
            walked: Vec::new(),
        };
        // One sweep outside the clock, so that what the library builds on
        // first use (the machine model's instruction procedures) is built.
        for task in &this.tasks {
            tune(task, &this.config(this.seeds[0])).map_err(Unavailable)?;
        }
        Ok(this)
    }

    fn config(&self, seed: u64) -> TuneConfig {
        TuneConfig {
            seed,
            budget: BUDGET,
            measure: false,
            threads: 1,
            input_seed: self.input_seed,
            ..TuneConfig::default()
        }
    }

    /// The stages of `exo_autotune::tune`, called one by one so that each
    /// can sit in a span of its own.
    fn walk(&self, task: &TuneTask, seed: u64) -> Result<Funnel, String> {
        let registry: ProcRegistry = task
            .machine
            .instructions(DataType::F32)
            .into_iter()
            .collect();
        let base = ProcHandle::new(task.proc.clone());
        let scripts = {
            let _span = exo_obs::span!("bench:autotune.generate_candidates", "{}", task.name);
            generate_candidates(&base, &task.machine, seed, BUDGET)
        };
        let mut f = Funnel {
            sampled: scripts.len(),
            best_cycles: u64::MAX,
            ..Funnel::default()
        };
        for script in &scripts {
            let pruned = {
                let _span = exo_obs::span!("bench:autotune.statically_illegal");
                statically_illegal(&base, script)
            };
            if pruned {
                f.static_rejected += 1;
                continue;
            }
            let replayed = {
                let _span = exo_obs::span!("bench:lib.apply_script");
                apply_script(&base, script, &task.machine)
            };
            let Ok(scheduled) = replayed else {
                f.illegal += 1;
                continue;
            };
            let violation = {
                let _span = exo_obs::span!("bench:autotune.proven_violation");
                proven_violation(scheduled.proc())
            };
            if violation.is_some() {
                f.verify_rejected += 1;
                continue;
            }
            let args = {
                let _span = exo_obs::span!("bench:codegen.synth_inputs");
                arg_values(synth_inputs(scheduled.proc(), self.input_seed)?)
            };
            let simulated = {
                let _span = exo_obs::span!("bench:machine.try_simulate");
                try_simulate(scheduled.proc(), &registry, args)
            };
            match simulated {
                Ok(report) => {
                    f.survivors += 1;
                    f.best_cycles = f.best_cycles.min(report.cycles);
                    f.simulated_cycles += report.cycles;
                }
                Err(_) => f.trapped += 1,
            }
        }
        Ok(f)
    }
}

fn arg_values(inputs: Vec<SynthArg>) -> Vec<ArgValue> {
    inputs
        .into_iter()
        .map(|input| match input {
            SynthArg::Size(v) | SynthArg::Int(v) => ArgValue::Int(v),
            SynthArg::Float(v) => ArgValue::Float(v),
            SynthArg::Bool(b) => ArgValue::Bool(b),
            SynthArg::Tensor {
                dims, data, elem, ..
            } => ArgValue::from_vec(data, dims, elem).1,
        })
        .collect()
}

impl Workload for TuneSearch {
    fn round(&mut self, slice: Option<Duration>) -> Round {
        let mut round = Round::default();
        let start = Instant::now();
        for n in 0.. {
            let sweep = n % self.seeds.len();
            let seed = self.seeds[sweep];
            let mut funnels = Vec::with_capacity(self.tasks.len());
            for (k, task) in self.tasks.iter().enumerate() {
                round.attempted += 1;
                let t0 = Instant::now();
                let outcome = tune(task, &self.config(seed));
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                match outcome {
                    Ok(report) => {
                        let f = Funnel::of(&report);
                        // One class per (tune seed, kernel): the same
                        // candidates every time. Throughput counts them.
                        round.samples.push(Sample {
                            class: (sweep * self.tasks.len() + k) as u32,
                            units: f.sampled as f64,
                            ms,
                        });
                        // The search must rediscover a schedule at least
                        // as good as the record, and its counts must add up.
                        let rediscovered = report.record_cycles.is_some_and(|record| {
                            f.survivors > 0
                                && f.best_cycles <= record
                                && f.best_cycles < report.baseline_cycles
                        });
                        if !(rediscovered && f.adds_up()) {
                            eprintln!("tune_search: `{}` seed {seed:#x}: {f:?}", task.name);
                            round.failed += 1;
                        }
                        funnels.push(f);
                    }
                    Err(why) => {
                        eprintln!("tune_search: `{}`: {why}", task.name);
                        round.failed += 1;
                    }
                }
            }
            if sweep == 0 {
                self.tuned = funnels;
            }
            let done = match slice {
                // Whole cycles only, as many as come nearest to the slice:
                // another one starts if at least half of it fits.
                Some(slice) => {
                    let elapsed = start.elapsed();
                    let cycles = ((n + 1) / self.seeds.len()) as u32;
                    sweep + 1 == self.seeds.len() && elapsed + elapsed / (2 * cycles) >= slice
                }
                None => n + 1 >= self.fixed_sweeps,
            };
            if done {
                break;
            }
        }
        let sum = |f: fn(&Funnel) -> usize| self.tuned.iter().map(f).sum::<usize>() as u64;
        round.counts = vec![
            ("autotune.sampled", sum(|f| f.sampled)),
            ("autotune.static_rejected", sum(|f| f.static_rejected)),
            ("autotune.illegal", sum(|f| f.illegal)),
            ("autotune.survivors", sum(|f| f.survivors)),
        ];
        round
    }

    /// Walks the search stage by stage; the funnel it counts must be the
    /// one `tune` reported for the same seed.
    fn traced_round(&mut self) -> Round {
        let mut round = Round::default();
        let seeds = self.seeds.iter().copied().take(self.fixed_sweeps);
        for (sweep, seed) in seeds.enumerate() {
            let mut funnels = Vec::with_capacity(self.tasks.len());
            for (k, task) in self.tasks.iter().enumerate() {
                round.attempted += 1;
                let t0 = Instant::now();
                let outcome = self.walk(task, seed);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                match outcome {
                    Ok(f) => {
                        round.samples.push(Sample {
                            class: (sweep * self.tasks.len() + k) as u32,
                            units: f.sampled as f64,
                            ms,
                        });
                        funnels.push(f);
                    }
                    Err(why) => {
                        eprintln!("tune_search: walking `{}`: {why}", task.name);
                        round.failed += 1;
                    }
                }
            }
            if sweep == 0 {
                if funnels != self.tuned {
                    eprintln!(
                        "tune_search: stage walk counted {funnels:?}, tune reported {:?}",
                        self.tuned
                    );
                    round.failed += 1;
                }
                self.walked = funnels;
            }
        }
        round
    }

    fn layer_metrics(&mut self, folded: &Folded, out: &mut Metrics) {
        // Span totals cover all sweeps of the traced round; report one.
        let per_sweep = |name: &str| folded.self_ms(name) / self.fixed_sweeps as f64;
        out.set(
            "autotune.generate_ms",
            per_sweep("bench:autotune.generate_candidates"),
        );
        out.set(
            "autotune.prune_ms",
            per_sweep("bench:autotune.statically_illegal"),
        );
        out.set("lib.replay_ms", per_sweep("bench:lib.apply_script"));
        out.set(
            "analysis.verify_ms",
            per_sweep("bench:autotune.proven_violation"),
        );
        out.set(
            "analysis.verify_us_per_proc_p50",
            folded.dur_p50_ns("bench:autotune.proven_violation") / 1e3,
        );
        out.set(
            "codegen.synth_inputs_us",
            folded.dur_p50_ns("bench:codegen.synth_inputs") / 1e3,
        );
        out.set(
            "machine.simulate_ms",
            per_sweep("bench:machine.try_simulate"),
        );
        let sum = |f: fn(&Funnel) -> usize| self.walked.iter().map(f).sum::<usize>() as f64;
        out.set("lib.replay_refused", sum(|f| f.illegal));
        let replayed = sum(|f| f.sampled) - sum(|f| f.static_rejected);
        if replayed > 0.0 {
            out.set("autotune.useful_ratio", sum(|f| f.survivors) / replayed);
        }
        out.set(
            "machine.simulated_cycles",
            self.walked.iter().map(|f| f.simulated_cycles).sum::<u64>() as f64,
        );
        for (name, f) in RECORD_KERNELS.iter().zip(&self.walked) {
            out.set(
                &format!("autotune.best_cycles.{name}"),
                f.best_cycles as f64,
            );
        }
    }
}
