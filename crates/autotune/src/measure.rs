//! Wall-clock measurement of candidate schedules: the policy around
//! `exo_codegen::difftest::Toolchain::time_kernel`, which emits the
//! data driver that also checks and serves a unit, compiles it with the
//! system toolchain and runs it in timing mode on an argument block.
//! One [`Toolchain`] per batch, shared by its workers: the top-K native
//! candidates pay for parsing `immintrin.h` once, not K times.
//!
//! Candidates are timed on the differential harness's synthesized
//! inputs, so measured kernels run on exactly the input shapes the cost
//! model was evaluated on. What lives here is the request for the native
//! unit (which `exo_codegen::emit_runnable` turns into the portable one
//! on a host that cannot run it) and the worker pool. The workers share
//! the tuner's one [`ProcRegistry`]: its memos are `OnceLock`s, so an
//! instruction lowered or rendered for one candidate is reused by every
//! candidate on every worker.
//!
//! Robustness: timing binaries run under [`exo_guard::run_guarded`]
//! (hard wall-clock limit, kill-on-timeout), and each candidate is
//! measured under `catch_unwind` so a panic in emission or measurement
//! of one candidate surfaces as [`Measurement::Panicked`] for *that
//! candidate* instead of unwinding the worker scope and killing the
//! whole batch. The shared registry needs no repair after a panic: a
//! memo whose making unwound is left empty, and made again when next
//! asked for.

use exo_codegen::difftest::{cc_available, synth_inputs, Toolchain};
use exo_codegen::{emit_runnable, CodegenOptions};
use exo_guard::panic_message;
use exo_interp::ProcRegistry;
use exo_ir::Proc;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The outcome of measuring one candidate.
#[derive(Clone, Debug, PartialEq)]
pub enum Measurement {
    /// A successful timing: median over the repeated timed runs, plus
    /// their relative run-to-run spread.
    Nanos {
        /// Median nanoseconds per call across the timed runs.
        ns: f64,
        /// Relative spread `(max − min) / median` of the runs — how
        /// noisy this particular measurement was.
        spread: f64,
    },
    /// Measurement failed cleanly (compile error, timeout, bad output).
    Failed(String),
    /// Measurement *panicked*; the payload is the panic message. The
    /// worker survived and went on to the next candidate.
    Panicked(String),
    /// Measurement was not attempted (no C compiler on `PATH`).
    Unavailable,
}

impl Measurement {
    /// The measured (median) nanoseconds, when measurement succeeded.
    pub fn nanos(&self) -> Option<f64> {
        match self {
            Measurement::Nanos { ns, .. } => Some(*ns),
            _ => None,
        }
    }

    /// The relative run-to-run spread, when measurement succeeded.
    pub fn spread(&self) -> Option<f64> {
        match self {
            Measurement::Nanos { spread, .. } => Some(*spread),
            _ => None,
        }
    }

    /// The error message, when measurement failed or panicked.
    pub fn error(&self) -> Option<&str> {
        match self {
            Measurement::Failed(msg) | Measurement::Panicked(msg) => Some(msg),
            _ => None,
        }
    }
}

/// Measures one already-scheduled procedure: emit, compile, run, parse.
///
/// The unit is emitted in machine-intrinsic mode and timed as such
/// whenever the host toolchain and CPU can build and run it
/// ([`emit_runnable`]); otherwise — a CPU without the `-m` features —
/// it falls back to the portable scalar unit, so a batch
/// never fails just because the host is modest. Native timing is what
/// makes the fidelity score meaningful: portable scalar wall clock
/// systematically penalizes vectorized schedules the cost model
/// (correctly) prefers.
fn measure_one(
    toolchain: &Toolchain,
    proc: &Proc,
    registry: &ProcRegistry,
    input_seed: u64,
) -> Result<(f64, f64), String> {
    let _span = exo_obs::span!("tune:measure-candidate", "{}", proc.name());
    let caps = exo_machine::HostCaps::detect();
    let (unit, _) = emit_runnable(proc, registry, &CodegenOptions::native(), caps)
        .map_err(|e| format!("emitting `{}`: {e}", proc.name()))?;
    let inputs = synth_inputs(proc, input_seed)?;
    toolchain.time_kernel(&unit, proc, &inputs)
}

/// Measures a batch of scheduled procedures in parallel worker threads
/// (each worker compiles and times its own candidates; `cc` processes
/// dominate, so the workers overlap well). Returns one [`Measurement`]
/// per candidate, in order; all-[`Measurement::Unavailable`] when no C
/// compiler is on `PATH`.
///
/// Every worker emits against `registry`, the instructions of the
/// candidates' machine, which `tune` has already built for simulation.
/// A candidate whose measurement panics is reported as
/// [`Measurement::Panicked`], and its worker goes on to the next one.
pub fn measure_batch(
    procs: &[Proc],
    registry: &ProcRegistry,
    input_seed: u64,
    threads: usize,
) -> Vec<Measurement> {
    if !cc_available() || procs.is_empty() {
        return vec![Measurement::Unavailable; procs.len()];
    }
    let toolchain = Toolchain::system();
    measure_batch_impl(procs, threads, &|_i, proc| {
        measure_one(&toolchain, proc, registry, input_seed)
    })
}

/// Per-candidate runner injected into [`measure_batch_impl`]:
/// `(index, proc) -> (median ns, spread) or error`.
pub(crate) type CandidateRunner<'a> =
    &'a (dyn Fn(usize, &Proc) -> Result<(f64, f64), String> + Sync);

/// The worker-pool core of [`measure_batch`] with an injectable
/// per-candidate runner, so the panic-isolation contract is testable
/// without a C toolchain.
pub(crate) fn measure_batch_impl(
    procs: &[Proc],
    threads: usize,
    runner: CandidateRunner<'_>,
) -> Vec<Measurement> {
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Measurement>> = procs
        .iter()
        .map(|_| Mutex::new(Measurement::Unavailable))
        .collect();
    let workers = threads.clamp(1, procs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= procs.len() {
                    break;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| runner(i, &procs[i])));
                let measured = match outcome {
                    Ok(Ok((ns, spread))) => Measurement::Nanos { ns, spread },
                    Ok(Err(e)) => {
                        eprintln!("autotune: measurement of candidate {i} failed: {e}");
                        Measurement::Failed(e)
                    }
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        eprintln!("autotune: measurement of candidate {i} panicked: {msg}");
                        Measurement::Panicked(msg)
                    }
                };
                if let Ok(mut slot) = results[i].lock() {
                    *slot = measured;
                }
            });
        }
    });
    results
        .into_iter()
        .map(|m| match m.into_inner() {
            Ok(measurement) => measurement,
            // A poisoned slot means the *store* itself was interrupted;
            // report it rather than silently dropping the candidate.
            Err(poisoned) => poisoned.into_inner(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_kernels::{scal, Precision};

    fn batch_of(n: usize) -> Vec<Proc> {
        (0..n).map(|_| scal(Precision::Single)).collect()
    }

    #[test]
    fn a_panicking_candidate_is_isolated_not_fatal() {
        let procs = batch_of(4);
        // Candidate 2 panics; the batch must still yield all four
        // results, with the panic surfaced on exactly that candidate.
        let results = measure_batch_impl(&procs, 2, &|i, _proc| {
            if i == 2 {
                std::panic::panic_any("boom in candidate 2".to_string());
            }
            Ok((i as f64, 0.0))
        });
        assert_eq!(results.len(), 4);
        assert_eq!(
            results[0],
            Measurement::Nanos {
                ns: 0.0,
                spread: 0.0
            }
        );
        assert_eq!(
            results[1],
            Measurement::Nanos {
                ns: 1.0,
                spread: 0.0
            }
        );
        assert_eq!(
            results[2],
            Measurement::Panicked("boom in candidate 2".to_string()),
            "the panic must be surfaced with its payload, not swallowed"
        );
        assert_eq!(
            results[3],
            Measurement::Nanos {
                ns: 3.0,
                spread: 0.0
            }
        );
    }

    #[test]
    fn failures_carry_their_message() {
        let procs = batch_of(2);
        let results = measure_batch_impl(&procs, 1, &|i, _proc| {
            if i == 0 {
                Err("cc said no".to_string())
            } else {
                Ok((42.0, 0.1))
            }
        });
        assert_eq!(results[0], Measurement::Failed("cc said no".to_string()));
        assert_eq!(
            results[1],
            Measurement::Nanos {
                ns: 42.0,
                spread: 0.1
            }
        );
    }
}
