//! # exo-autotune — schedule search over the `ScheduleScript` genome
//!
//! The scheduling language makes schedules cheap to *try*: primitives are
//! safety-checked, the persistent IR makes each candidate an O(depth)
//! edit, and the cost simulator prices any legal program. This crate
//! turns that into an autotuner:
//!
//! 1. **Generate** — start from the kernel's schedule of record (the
//!    incumbent), enumerate the single-step and interchange-led two-step
//!    core of the space, then sample longer seeded-random scripts
//!    ([`space::generate_candidates`]).
//! 2. **Statically prune** — reject candidates whose first step provably
//!    fails against the base proc ([`prune::statically_illegal`]) without
//!    replaying them: unresolvable selectors and perfect splits whose
//!    divisibility the analysis context refutes. The checks replicate the
//!    primitives' own preconditions exactly, so this tier only saves
//!    replay work — it cannot change what the search finds.
//! 3. **Prune by replay** — replay every remaining script through the
//!    primitives ([`exo_lib::apply_script`]); illegal candidates are
//!    rejected by the primitives' own errors, never by ad-hoc search-side
//!    checks. Survivors then pass through the whole-proc verifier, which
//!    rejects any candidate it *proves* wrong (out-of-bounds access)
//!    before a simulation is paid for ([`prune::proven_violation`]).
//! 4. **Rank** — price survivors with the cycle-cost simulator
//!    ([`exo_machine::try_simulate`]) on inputs synthesized by the
//!    differential harness. A survivor equal to a proc already priced in
//!    this call (the unscheduled kernel included) is not simulated again,
//!    and one whose output buffers differ by a bit from the unscheduled
//!    kernel's on the same inputs is counted as diverged, never ranked.
//! 5. **Measure** — compile the top-K with the C backend and time them in
//!    parallel worker threads ([`measure::measure_batch`]); without a C
//!    compiler the tuner degrades to cost-model-only ranking.
//! 6. **Report** — winner script, pruning statistics, search throughput,
//!    and a cost-model-fidelity score (Spearman rank correlation between
//!    simulated cycles and measured nanoseconds over the measured set).
//!
//! `tests/tune_kernels.rs` is the gate asserting the search rediscovers
//! the hand-written SGEMM schedule; the `tune_search` workload of
//! `benchmark/` measures the search over the library kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod measure;
pub mod prune;
pub mod space;

use exo_codegen::difftest::{interp_args, synth_inputs};
use exo_cursors::ProcHandle;
use exo_interp::{BufRef, ProcRegistry};
use exo_ir::memo::ContentMemo;
use exo_ir::{DataType, Proc};
use exo_lib::{apply_script, schedule_of_record, ScheduleScript};
use exo_machine::{try_simulate, MachineModel};
use std::time::Instant;

/// A kernel to tune.
pub struct TuneTask {
    /// Display name (the procedure name of `proc`).
    pub name: String,
    /// The unscheduled kernel.
    pub proc: Proc,
    /// Target machine: supplies the instruction set, vector width and the
    /// cost model's instruction classes.
    pub machine: MachineModel,
    /// Useful floating-point operations per kernel invocation at the
    /// synthesized input sizes — the numerator of the GFLOP-proxy.
    pub flops: f64,
}

impl TuneTask {
    /// A task for `proc` on `machine` with the given flop count.
    pub fn new(proc: Proc, machine: MachineModel, flops: f64) -> Self {
        TuneTask {
            name: proc.name().to_string(),
            proc,
            machine,
            flops,
        }
    }
}

/// Search configuration.
#[derive(Clone, Debug)]
pub struct TuneConfig {
    /// Seed for the candidate sampler.
    pub seed: u64,
    /// Maximum number of unique candidate scripts.
    pub budget: usize,
    /// Whether to attempt wall-clock measurement at all (`false` forces
    /// cost-model-only ranking even when `cc` is available).
    pub measure: bool,
    /// Worker threads for compile-and-time.
    pub threads: usize,
    /// Seed for input synthesis (shared by simulation and measurement).
    pub input_seed: u64,
}

/// How many of the best-ranked candidates are compiled and timed.
const TOP_K: usize = 8;

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            seed: 0xE202,
            budget: 200,
            measure: true,
            threads: 4,
            input_seed: 1,
        }
    }
}

/// One evaluated candidate schedule.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The replayable script.
    pub script: ScheduleScript,
    /// Simulated cycles on the synthesized inputs.
    pub cycles: u64,
    /// Measured median nanoseconds per call, when the candidate was in
    /// the top-K and the toolchain was available.
    pub measured_ns: Option<f64>,
    /// Relative run-to-run spread `(max − min) / median` of the timed
    /// runs behind `measured_ns` — how trustworthy that number is.
    pub measured_spread: Option<f64>,
}

/// The result of tuning one kernel.
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// Kernel name.
    pub kernel: String,
    /// Unique candidate scripts generated.
    pub sampled: usize,
    /// Candidates rejected before replay by the static tier-0 checks
    /// (first-step selector resolution, perfect-split divisibility).
    pub static_rejected: usize,
    /// Candidates actually replayed through `apply_script`
    /// (`sampled - static_rejected`).
    pub replayed: usize,
    /// Candidates rejected by the scheduling primitives during replay.
    pub illegal: usize,
    /// Replay survivors the whole-proc verifier proved wrong (rejected
    /// before simulation).
    pub verify_rejected: usize,
    /// Candidates rejected by the simulator (interpreter trap).
    pub trapped: usize,
    /// Candidates whose output buffers differ from the unscheduled
    /// kernel's on the same inputs: a schedule that changed the result.
    /// They are not ranked.
    pub diverged: usize,
    /// Survivors, ranked by simulated cycles (ascending). The identity
    /// script is always in the input set, so this is non-empty whenever
    /// the kernel itself simulates.
    pub candidates: Vec<Candidate>,
    /// Simulated cycles of the unscheduled kernel.
    pub baseline_cycles: u64,
    /// Simulated cycles of the pinned schedule of record, if one exists
    /// and survives: the search is seeded with it, so this is the price
    /// of that candidate.
    pub record_cycles: Option<u64>,
    /// How many candidates were wall-clock measured.
    pub measured: usize,
    /// Per-candidate measurement errors `(rank index, message)` — failed
    /// compiles, timed-out binaries, and *caught worker panics* (a
    /// panicking candidate must surface here, never kill the batch).
    pub measure_errors: Vec<(usize, String)>,
    /// Spearman rank correlation between simulated cycles and measured
    /// nanoseconds over the measured set (≥ 3 samples), else `None`.
    pub fidelity: Option<f64>,
    /// Useful flops per invocation (from the task).
    pub flops: f64,
    /// Candidates evaluated per second (legal + pruned, over wall time).
    pub throughput: f64,
    /// Total search wall time in seconds.
    pub elapsed_secs: f64,
}

impl TuneReport {
    /// The best-ranked candidate (by measured time when available for
    /// the leaders, else simulated cycles).
    pub fn best(&self) -> Option<&Candidate> {
        self.candidates.first()
    }

    /// The candidate the cost model ranks best, ignoring any wall-clock
    /// re-ordering of the measured leaders. This is what the rediscovery
    /// gate compares against the schedule of record: the claim under test
    /// is about the model's ranking, and portable-scalar wall clock (the
    /// only portable thing to time) systematically penalizes vectorized
    /// schedules — a divergence the fidelity score reports rather than
    /// hides.
    pub fn best_by_cycles(&self) -> Option<&Candidate> {
        self.candidates.iter().min_by_key(|c| c.cycles)
    }
}

/// One run of a proc on the tuner's inputs: its simulated cycles and
/// its tensor arguments afterwards.
struct Run {
    cycles: u64,
    tensors: Vec<BufRef>,
}

impl Run {
    /// Simulates `proc`, or says why it cannot run.
    fn of(proc: &Proc, registry: &ProcRegistry, input_seed: u64) -> Result<Run, String> {
        let (tensors, args) = interp_args(synth_inputs(proc, input_seed)?);
        let report = try_simulate(proc, registry, args).map_err(|e| e.to_string())?;
        Ok(Run {
            cycles: report.cycles,
            tensors,
        })
    }

    /// Whether every tensor holds the same bits as `other`'s.
    fn agrees_with(&self, other: &Run) -> bool {
        self.tensors.len() == other.tensors.len()
            && self.tensors.iter().zip(&other.tensors).all(|(a, b)| {
                let (a, b) = (a.borrow(), b.borrow());
                let bits = |v: &f64| v.to_bits();
                a.data.iter().map(bits).eq(b.data.iter().map(bits))
            })
    }
}

/// What simulating a survivor decided: its cycles when its outputs agree
/// with the unscheduled kernel's, or that they do not, or that it trapped.
#[derive(Clone, Copy)]
enum Priced {
    Cycles(u64),
    Diverged,
    Trapped,
}

/// The survivors one [`tune`] call has priced, by content: a survivor
/// equal to one priced before (the unscheduled kernel is the first) costs
/// a hash and a comparison instead of a simulation.
struct Prices {
    priced: ContentMemo<Proc, Priced>,
    reference: Run,
}

impl Prices {
    /// The prices of one call, seeded with the unscheduled kernel's run.
    /// A call prices at most `budget` candidates, so a memo of `budget`
    /// entries beside the kernel's never evicts.
    fn new(base: &Proc, reference: Run, budget: usize) -> Prices {
        let priced = ContentMemo::new(budget + 1);
        let cycles = Priced::Cycles(reference.cycles);
        priced.get_or_init(base.content_hash(), base, |_| true, || cycles);
        Prices { priced, reference }
    }

    fn price(&self, proc: &Proc, registry: &ProcRegistry, input_seed: u64) -> Priced {
        let simulate = || {
            let _sim = exo_obs::span!("tune:simulate");
            match Run::of(proc, registry, input_seed) {
                Ok(run) if run.agrees_with(&self.reference) => Priced::Cycles(run.cycles),
                Ok(_) => Priced::Diverged,
                Err(_) => Priced::Trapped,
            }
        };
        let hash = proc.content_hash();
        self.priced.get_or_init(hash, proc, |_| true, simulate).0
    }
}

/// Spearman rank correlation between two equal-length samples (no tie
/// correction; ties get first-come ranks, which is adequate for the
/// strictly-varying quantities compared here).
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len();
    if n < 3 || n != ys.len() {
        return None;
    }
    let rank = |vals: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..vals.len()).collect();
        idx.sort_by(|&a, &b| {
            vals[a]
                .partial_cmp(&vals[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut ranks = vec![0.0; vals.len()];
        for (r, &i) in idx.iter().enumerate() {
            ranks[i] = r as f64;
        }
        ranks
    };
    let rx = rank(xs);
    let ry = rank(ys);
    let mean = (n as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for i in 0..n {
        let a = rx[i] - mean;
        let b = ry[i] - mean;
        num += a * b;
        dx += a * a;
        dy += b * b;
    }
    if dx == 0.0 || dy == 0.0 {
        return None;
    }
    Some(num / (dx * dy).sqrt())
}

/// Runs the full search for one kernel. See the crate docs for the
/// pipeline; the returned report always ranks by simulated cycles, with
/// measured leaders re-ordered by wall time when measurement ran.
///
/// # Errors
/// When even the unscheduled kernel cannot be simulated (bad task), or
/// input synthesis fails.
pub fn tune(task: &TuneTask, cfg: &TuneConfig) -> Result<TuneReport, String> {
    let _span = exo_obs::span!("tune:kernel", "{}", task.name);
    let t0 = Instant::now();
    let registry: ProcRegistry = task
        .machine
        .instructions(DataType::F32)
        .into_iter()
        .collect();
    let base = ProcHandle::new(task.proc.clone());
    let reference = Run::of(base.proc(), &registry, cfg.input_seed)
        .map_err(|e| format!("`{}` baseline does not simulate: {e}", task.name))?;
    let baseline_cycles = reference.cycles;
    let prices = Prices::new(base.proc(), reference, cfg.budget);

    let scripts = {
        let _gen = exo_obs::span!("tune:generate", "{}", task.name);
        space::generate_candidates(&base, &task.machine, cfg.seed, cfg.budget)
    };
    let sampled = scripts.len();
    let mut static_rejected = 0usize;
    let mut illegal = 0usize;
    let mut verify_rejected = 0usize;
    let mut trapped = 0usize;
    let mut diverged = 0usize;
    let mut survivors: Vec<(ScheduleScript, ProcHandle, u64)> = Vec::new();
    for script in scripts {
        let pruned = {
            let _prune = exo_obs::span!("tune:prune");
            prune::statically_illegal(&base, &script)
        };
        if pruned {
            static_rejected += 1;
            continue;
        }
        let replayed = {
            let _replay = exo_obs::span!("tune:replay");
            apply_script(&base, &script, &task.machine)
        };
        let scheduled = match replayed {
            Ok(p) => p,
            Err(_) => {
                illegal += 1;
                continue;
            }
        };
        let violation = {
            let _verify = exo_obs::span!("tune:verify");
            prune::proven_violation(scheduled.proc())
        };
        if violation.is_some() {
            verify_rejected += 1;
            continue;
        }
        match prices.price(scheduled.proc(), &registry, cfg.input_seed) {
            Priced::Cycles(cycles) => survivors.push((script, scheduled, cycles)),
            Priced::Diverged => diverged += 1,
            Priced::Trapped => trapped += 1,
        }
    }
    let replayed = sampled - static_rejected;
    // Deterministic ranking: cycles ascending, script key as tiebreak.
    survivors.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.key().cmp(&b.0.key())));

    // The search is warm-started from the schedule of record (it is the
    // first candidate generated), so its price is already among the
    // survivors' — unless the primitives or the simulator refused it.
    let record_cycles = schedule_of_record(task.proc.name(), &task.machine).and_then(|record| {
        survivors
            .iter()
            .find(|(script, _, _)| *script == record)
            .map(|(_, _, cycles)| *cycles)
    });

    let mut candidates: Vec<Candidate> = survivors
        .iter()
        .map(|(script, _, cycles)| Candidate {
            script: script.clone(),
            cycles: *cycles,
            measured_ns: None,
            measured_spread: None,
        })
        .collect();

    let mut measured = 0usize;
    let mut measure_errors: Vec<(usize, String)> = Vec::new();
    let mut fidelity = None;
    if cfg.measure {
        let k = TOP_K.min(survivors.len());
        let batch: Vec<Proc> = survivors[..k]
            .iter()
            .map(|(_, p, _)| p.proc().clone())
            .collect();
        let times = {
            let _measure = exo_obs::span!("tune:measure", "{} candidates", batch.len());
            measure::measure_batch(&batch, &registry, cfg.input_seed, cfg.threads)
        };
        for (i, (cand, m)) in candidates.iter_mut().zip(&times).enumerate() {
            cand.measured_ns = m.nanos();
            cand.measured_spread = m.spread();
            if let Some(err) = m.error() {
                measure_errors.push((i, err.to_string()));
            }
        }
        let pairs: Vec<(f64, f64)> = candidates
            .iter()
            .filter_map(|c| c.measured_ns.map(|ns| (c.cycles as f64, ns)))
            .collect();
        measured = pairs.len();
        let (xs, ys): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        fidelity = spearman(&xs, &ys);
        // Within the measured leaders, wall time outranks the model.
        candidates[..k].sort_by(|a, b| match (a.measured_ns, b.measured_ns) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => a.cycles.cmp(&b.cycles),
        });
    }

    let elapsed_secs = t0.elapsed().as_secs_f64();
    Ok(TuneReport {
        kernel: task.name.clone(),
        sampled,
        static_rejected,
        replayed,
        illegal,
        verify_rejected,
        trapped,
        diverged,
        candidates,
        baseline_cycles,
        record_cycles,
        measured,
        measure_errors,
        fidelity,
        flops: task.flops,
        throughput: sampled as f64 / elapsed_secs.max(1e-9),
        elapsed_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_kernels::{copy, scal, Precision};

    #[test]
    fn a_survivor_is_simulated_once_and_checked_against_the_unscheduled_kernel() {
        let registry = ProcRegistry::new();
        let base = copy(Precision::Single);
        let reference = Run::of(&base, &registry, 1).expect("the kernel simulates");
        let cycles = reference.cycles;
        let prices = Prices::new(&base, reference, 2);
        // The unscheduled kernel is priced already.
        let again = prices.price(&base.clone(), &registry, 1);
        assert!(matches!(again, Priced::Cycles(c) if c == cycles));
        assert_eq!(prices.priced.stats().misses, 1);
        // A kernel with the same arguments that computes something else
        // diverges, and is simulated once.
        let other = scal(Precision::Single);
        for _ in 0..2 {
            assert!(matches!(
                prices.price(&other, &registry, 1),
                Priced::Diverged
            ));
        }
        assert_eq!(prices.priced.stats().misses, 2);
    }
}
