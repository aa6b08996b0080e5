//! Schedule scripts: a first-class, replayable representation of a
//! schedule as data.
//!
//! The scheduling libraries in this crate are Rust functions, which makes
//! them composable but not *enumerable*: a search procedure cannot sample
//! "half of `optimize_sgemm`" or perturb its split factor. This module
//! reifies the decisions those libraries make into a small genome — a
//! [`ScheduleScript`] is a sequence of named [`SchedStep`]s over loops
//! addressed by `(iterator name, occurrence)` — that `exo-autotune`
//! samples, mutates, and replays through [`apply_script`]. Every step
//! bottoms out in the same safety-checked `exo-core` primitives the
//! hand-written libraries use, so an illegal script is *rejected by the
//! primitives* (the search prunes on the returned error) rather than
//! producing a wrong program.
//!
//! [`schedule_of_record`] pins, per library kernel, the best script the
//! autotuner has found so far; `exo-autotune`'s `tune_kernels` test
//! re-derives and re-validates these against the hand schedules.

use crate::vectorize::vectorize;
use exo_core::{
    divide_loop, parallelize_loop_where, reorder_loops, simplify, stage_mem, unroll_loop, Result,
    SchedError, TailStrategy,
};
use exo_cursors::{Cursor, ProcHandle};
use exo_ir::{ib, DataType, Expr, Stmt};
use exo_machine::MachineModel;
use std::collections::BTreeMap;
use std::fmt;

/// Per-argument writability of `machine`'s instruction procedures,
/// derived from their object-code bodies via
/// [`exo_analysis::written_params`]. Keyed by instruction name; the
/// schedule replayer and the compilation service feed this to the
/// region-based race checker so read-only instruction operands (the
/// broadcast source of `mm256_set1_ps`, the `B` panel of an FMA) are
/// not conservatively treated as writes.
pub fn instruction_writes(machine: &MachineModel) -> BTreeMap<String, Vec<bool>> {
    let mut map = BTreeMap::new();
    for ty in [DataType::F32, DataType::F64, DataType::I8, DataType::I32] {
        for p in machine.instructions(ty) {
            map.entry(p.name().to_string())
                .or_insert_with(|| exo_analysis::written_params(&p));
        }
    }
    map
}

/// Addresses a loop by iterator name and occurrence index (textual
/// order), so kernels with repeated iterator names — the two `x` loops of
/// `blur2d`, or the clones a `Cut` tail introduces — stay addressable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LoopSel {
    /// Iterator name of the loop.
    pub name: String,
    /// Zero-based occurrence among loops with that iterator name.
    pub nth: usize,
}

impl LoopSel {
    /// Selector for the `nth` loop named `name`.
    pub fn new(name: impl Into<String>, nth: usize) -> Self {
        LoopSel {
            name: name.into(),
            nth,
        }
    }

    /// Resolves the selector against a procedure version.
    ///
    /// # Errors
    /// When no `nth` loop with this iterator name exists.
    pub fn resolve(&self, p: &ProcHandle) -> Result<Cursor> {
        let all = p.find_loop_many(&self.name)?;
        all.into_iter().nth(self.nth).ok_or_else(|| {
            SchedError::scheduling(format!(
                "no loop `{}` (occurrence {}) in `{}`",
                self.name,
                self.nth,
                p.proc().name()
            ))
        })
    }
}

impl fmt::Display for LoopSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nth == 0 {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{}#{}", self.name, self.nth)
        }
    }
}

/// One reified scheduling decision. Each variant maps onto exactly one
/// `exo-core` primitive (or user-library operator built from them), so
/// applying a step can fail only the way the primitive can fail.
#[derive(Clone, PartialEq, Debug)]
pub enum SchedStep {
    /// Interchange the selected loop with its immediate inner loop
    /// (`reorder_loops`).
    Reorder {
        /// The outer loop of the pair.
        loop_: LoopSel,
    },
    /// Divide the selected loop by `factor` into `{name}o`/`{name}i`
    /// (`divide_loop`); `cut_tail` picks [`TailStrategy::Cut`] over
    /// [`TailStrategy::Perfect`].
    Split {
        /// The loop to divide.
        loop_: LoopSel,
        /// Blocking factor.
        factor: i64,
        /// Emit a tail loop instead of requiring divisibility.
        cut_tail: bool,
    },
    /// Fully unroll the selected constant-extent loop (`unroll_loop`).
    Unroll {
        /// The loop to unroll.
        loop_: LoopSel,
    },
    /// Lower the selected loop onto the vector unit (`vectorize`, §6.1.1)
    /// with the given lane count.
    Vectorize {
        /// The loop to vectorize.
        loop_: LoopSel,
        /// Vector width in lanes.
        width: i64,
    },
    /// Mark the selected loop's iterations parallel (`parallelize_loop`).
    Parallelize {
        /// The loop to parallelize.
        loop_: LoopSel,
    },
    /// Stage the destination of the first reduction inside the selected
    /// loop into a local accumulator held across the loop (`stage_mem`
    /// with a unit window around the loop).
    StageAccum {
        /// The loop to hold the accumulator across.
        loop_: LoopSel,
    },
    /// Normalize control flow and index arithmetic (`simplify`).
    Simplify,
}

impl fmt::Display for SchedStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedStep::Reorder { loop_ } => write!(f, "reorder({loop_})"),
            SchedStep::Split {
                loop_,
                factor,
                cut_tail,
            } => {
                let tail = if *cut_tail { "cut" } else { "perfect" };
                write!(f, "split({loop_}, {factor}, {tail})")
            }
            SchedStep::Unroll { loop_ } => write!(f, "unroll({loop_})"),
            SchedStep::Vectorize { loop_, width } => write!(f, "vectorize({loop_}, {width})"),
            SchedStep::Parallelize { loop_ } => write!(f, "parallelize({loop_})"),
            SchedStep::StageAccum { loop_ } => write!(f, "stage_accum({loop_})"),
            SchedStep::Simplify => write!(f, "simplify"),
        }
    }
}

/// A replayable schedule: an ordered sequence of [`SchedStep`]s.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ScheduleScript {
    /// The steps, applied first to last.
    pub steps: Vec<SchedStep>,
}

impl ScheduleScript {
    /// A script with the given steps.
    pub fn new(steps: Vec<SchedStep>) -> Self {
        ScheduleScript { steps }
    }

    /// Canonical textual form, used both for display and as the dedup
    /// key during search.
    pub fn key(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for ScheduleScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, "<identity>");
        }
        let parts: Vec<String> = self.steps.iter().map(|s| s.to_string()).collect();
        write!(f, "{}", parts.join("; "))
    }
}

/// Applies one step to a procedure version.
///
/// # Errors
/// Whatever the underlying primitive rejects: unresolvable selectors,
/// non-perfectly-nested reorders, unprovable divisibility, vectorization
/// of unsupported loop bodies, uncontainable accumulator windows.
pub fn apply_step(p: &ProcHandle, step: &SchedStep, machine: &MachineModel) -> Result<ProcHandle> {
    let _span = exo_obs::span!("sched:step", "{} on {}", step, p.proc().name());
    match step {
        SchedStep::Reorder { loop_ } => reorder_loops(p, &loop_.resolve(p)?),
        SchedStep::Split {
            loop_,
            factor,
            cut_tail,
        } => {
            if *factor < 2 {
                return Err(SchedError::scheduling("split factor must be at least 2"));
            }
            let tail = if *cut_tail {
                TailStrategy::Cut
            } else {
                TailStrategy::Perfect
            };
            let outer = format!("{}o", loop_.name);
            let inner = format!("{}i", loop_.name);
            divide_loop(
                p,
                &loop_.resolve(p)?,
                *factor,
                [outer.as_str(), inner.as_str()],
                tail,
            )
        }
        SchedStep::Unroll { loop_ } => unroll_loop(p, &loop_.resolve(p)?),
        SchedStep::Vectorize { loop_, width } => vectorize(
            p,
            &loop_.resolve(p)?,
            *width,
            DataType::F32,
            machine,
            TailStrategy::Perfect,
        ),
        SchedStep::Parallelize { loop_ } => {
            // Vectorized bodies are instruction calls; resolve per-arg
            // writability from the machine's own instruction bodies so
            // read-only source operands don't defeat the race check.
            let writes = instruction_writes(machine);
            parallelize_loop_where(p, &loop_.resolve(p)?, &|callee, n| {
                writes
                    .get(callee)
                    .map(|args| args.get(n).copied().unwrap_or(true))
            })
        }
        SchedStep::StageAccum { loop_ } => stage_accum(p, loop_),
        SchedStep::Simplify => simplify(p),
    }
}

/// Replays a whole script.
///
/// # Errors
/// The first failing step's error; the search treats this as "candidate
/// is illegal" and prunes.
pub fn apply_script(
    p: &ProcHandle,
    script: &ScheduleScript,
    machine: &MachineModel,
) -> Result<ProcHandle> {
    let _span = exo_obs::span!(
        "sched:script",
        "{} steps on {}",
        script.steps.len(),
        p.proc().name()
    );
    let mut current = p.clone();
    for step in &script.steps {
        current = apply_step(&current, step, machine)?;
    }
    Ok(current)
}

/// The first `Reduce` statement (pre-order) in a block, if any.
fn first_reduce(block: &exo_ir::Block) -> Option<(exo_ir::Sym, Vec<Expr>)> {
    for stmt in block {
        match stmt {
            Stmt::Reduce { buf, idx, .. } => return Some((buf.clone(), idx.clone())),
            Stmt::For { body, .. } => {
                if let Some(found) = first_reduce(body) {
                    return Some(found);
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                if let Some(found) = first_reduce(then_body).or_else(|| first_reduce(else_body)) {
                    return Some(found);
                }
            }
            _ => {}
        }
    }
    None
}

/// Stages the destination element of the first reduction under `loop_`
/// into a unit-window accumulator held across the loop: `stage_mem` with
/// the window `[(e, e+1)]` per destination index `e`, which the
/// containment check rejects whenever an index depends on the staged
/// loop's own iterator (that is the pruning, not a special case here).
fn stage_accum(p: &ProcHandle, loop_: &LoopSel) -> Result<ProcHandle> {
    let c = loop_.resolve(p)?;
    let Stmt::For { body, .. } = c.stmt()?.clone() else {
        return Err(SchedError::scheduling("stage_accum requires a for loop"));
    };
    let (buf, idx) = first_reduce(&body)
        .ok_or_else(|| SchedError::scheduling("stage_accum: no reduction inside the loop"))?;
    let window: Vec<(Expr, Expr)> = idx.iter().map(|e| (e.clone(), e.clone() + ib(1))).collect();
    let new_name = p.fresh_name(&format!("{}_acc", buf.name()));
    stage_mem(p, &c, buf.name(), &window, &new_name)
}

/// The pinned schedule of record for a library kernel, by procedure
/// name — the best script the autotuner has found so far, replayable
/// without running the search.
///
/// Returns `None` for kernels without a recorded schedule.
pub fn schedule_of_record(kernel: &str, machine: &MachineModel) -> Option<ScheduleScript> {
    let vw = machine.vec_width(DataType::F32);
    match kernel {
        // Matches `optimize_sgemm`: interchange k/i, vectorize rows.
        "sgemm" => Some(ScheduleScript::new(vec![
            SchedStep::Reorder {
                loop_: LoopSel::new("k", 0),
            },
            SchedStep::Vectorize {
                loop_: LoopSel::new("j", 0),
                width: vw,
            },
        ])),
        // Row-major gemv: vectorize the inner (column) loop.
        "sgemv_n" => Some(ScheduleScript::new(vec![SchedStep::Vectorize {
            loop_: LoopSel::new("j", 0),
            width: vw,
        }])),
        // Two-stage blur: vectorize the x loop of each stage. Selectors
        // address the proc *as the script has rewritten it so far*:
        // vectorizing the first x loop renames its iterator, so the second
        // stage's x loop is occurrence 0 by the second step.
        "blur2d" => Some(ScheduleScript::new(vec![
            SchedStep::Vectorize {
                loop_: LoopSel::new("x", 0),
                width: vw,
            },
            SchedStep::Vectorize {
                loop_: LoopSel::new("x", 0),
                width: vw,
            },
        ])),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
    use exo_kernels::{blur2d, gemv, sgemm, Precision};

    fn registry(machine: &MachineModel) -> ProcRegistry {
        machine.instructions(DataType::F32).into_iter().collect()
    }

    /// Builds fresh argument buffers per run (clones share `Rc` storage).
    type ArgBuilder = fn() -> Vec<ArgValue>;

    #[test]
    fn sgemm_record_matches_the_hand_schedule() {
        let machine = MachineModel::avx2();
        let p = ProcHandle::new(sgemm());
        let script = schedule_of_record("sgemm", &machine).unwrap();
        let replayed = apply_script(&p, &script, &machine).unwrap();
        let hand = crate::optimize_sgemm(&p, &machine).unwrap();
        assert_eq!(replayed.proc().to_string(), hand.proc().to_string());
    }

    #[test]
    fn records_replay_and_stay_equivalent() {
        let machine = MachineModel::avx2();
        let registry = registry(&machine);
        let cases: Vec<(exo_ir::Proc, ArgBuilder)> = vec![
            (sgemm(), || sgemm_args(16)),
            (gemv(Precision::Single, false), || gemv_args(16)),
            (blur2d(), || blur_args(32)),
        ];
        for (kernel, mk_args) in cases {
            let script = schedule_of_record(kernel.name(), &machine)
                .unwrap_or_else(|| panic!("no record for {}", kernel.name()));
            let p = ProcHandle::new(kernel.clone());
            let scheduled = apply_script(&p, &script, &machine)
                .unwrap_or_else(|e| panic!("record for {} fails: {e}", kernel.name()));
            // Fresh buffers per run: ArgValue clones share their Rc
            // buffer, so reusing one set would accumulate across runs.
            let before = run(&kernel, &registry, mk_args());
            let after = run(scheduled.proc(), &registry, mk_args());
            assert_eq!(before, after, "record for {} diverges", kernel.name());
        }
    }

    #[test]
    fn stage_accum_holds_the_sgemm_cell_across_k() {
        let machine = MachineModel::avx2();
        let p = ProcHandle::new(sgemm());
        // k is outermost; move it innermost so C[i, j] is loop-invariant
        // across it, then hold the cell in an accumulator.
        let script = ScheduleScript::new(vec![
            SchedStep::Reorder {
                loop_: LoopSel::new("k", 0),
            },
            SchedStep::Reorder {
                loop_: LoopSel::new("k", 0),
            },
            SchedStep::StageAccum {
                loop_: LoopSel::new("k", 0),
            },
        ]);
        let staged = apply_script(&p, &script, &machine).unwrap();
        assert!(staged.proc().to_string().contains("C_acc"), "{}", staged);
        let registry = registry(&machine);
        assert_eq!(
            run(p.proc(), &registry, sgemm_args(16)),
            run(staged.proc(), &registry, sgemm_args(16))
        );
    }

    #[test]
    fn stage_accum_prunes_when_the_index_depends_on_the_loop() {
        let machine = MachineModel::avx2();
        let p = ProcHandle::new(sgemm());
        // C[i, j] with i free inside the staged loop: containment fails.
        let script = ScheduleScript::new(vec![SchedStep::StageAccum {
            loop_: LoopSel::new("k", 0),
        }]);
        assert!(apply_script(&p, &script, &machine).is_err());
    }

    #[test]
    fn selectors_address_repeated_loop_names() {
        let machine = MachineModel::avx2();
        let p = ProcHandle::new(blur2d());
        // blur2d has two x loops; the selector picks the second one.
        let script = ScheduleScript::new(vec![SchedStep::Split {
            loop_: LoopSel::new("x", 1),
            factor: 8,
            cut_tail: false,
        }]);
        let split = apply_script(&p, &script, &machine).unwrap();
        assert!(split.proc().to_string().contains("xo"), "{}", split);
        assert!(apply_script(
            &p,
            &ScheduleScript::new(vec![SchedStep::Reorder {
                loop_: LoopSel::new("x", 5),
            }]),
            &machine
        )
        .is_err());
    }

    fn sgemm_args(n: usize) -> Vec<ArgValue> {
        let (_, a) = ArgValue::from_vec(
            (0..n * n).map(|v| (v % 5) as f64).collect(),
            vec![n, n],
            DataType::F32,
        );
        let (_, b) = ArgValue::from_vec(
            (0..n * n).map(|v| (v % 3) as f64).collect(),
            vec![n, n],
            DataType::F32,
        );
        let (_, c) = ArgValue::zeros(vec![n, n], DataType::F32);
        vec![
            ArgValue::Int(n as i64),
            ArgValue::Int(n as i64),
            ArgValue::Int(n as i64),
            a,
            b,
            c,
        ]
    }

    fn gemv_args(n: usize) -> Vec<ArgValue> {
        let (_, a) = ArgValue::from_vec(
            (0..n * n).map(|v| (v % 5) as f64).collect(),
            vec![n, n],
            DataType::F32,
        );
        let (_, x) = ArgValue::from_vec(vec![1.0; n], vec![n], DataType::F32);
        let (_, y) = ArgValue::zeros(vec![n], DataType::F32);
        vec![ArgValue::Int(n as i64), ArgValue::Int(n as i64), a, x, y]
    }

    fn blur_args(n: usize) -> Vec<ArgValue> {
        let (_, inp) = ArgValue::from_vec(
            (0..(n + 2) * (n + 2)).map(|v| (v % 7) as f64).collect(),
            vec![n + 2, n + 2],
            DataType::F32,
        );
        let (_, by) = ArgValue::zeros(vec![n, n], DataType::F32);
        let (_, bx) = ArgValue::zeros(vec![n + 2, n], DataType::F32);
        vec![
            ArgValue::Int(n as i64),
            ArgValue::Int(n as i64),
            inp,
            by,
            bx,
        ]
    }

    fn run(proc: &exo_ir::Proc, registry: &ProcRegistry, args: Vec<ArgValue>) -> Vec<Vec<f64>> {
        let bufs: Vec<_> = args
            .iter()
            .filter_map(|a| match a {
                ArgValue::Buffer(b) => Some(b.clone()),
                _ => None,
            })
            .collect();
        Interpreter::new(registry)
            .run(proc, args, &mut NullMonitor)
            .unwrap();
        bufs.iter().map(|b| b.borrow().data.clone()).collect()
    }
}
