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
//! [`schedule_of_record`] pins, per library kernel, the best script
//! known so far — found by the autotuner, or, for sgemm, the
//! register-blocked micro-kernel written by hand out of the same steps,
//! which lies beyond the short scripts the search samples. The search is
//! seeded with it; `exo-autotune`'s `tune_kernels` test re-validates it.

use crate::vectorize::vectorize;
use exo_analysis::{infer_bounds, Context};
use exo_core::{
    divide_loop, parallelize_loop_where, reorder_loops, simplify, stage_mem, unroll_loop, Result,
    SchedError, TailStrategy,
};
use exo_cursors::{Cursor, ProcHandle};
use exo_ir::{DataType, Stmt};
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
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
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
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
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
    /// loop into a local buffer held across the loop: `stage_mem` around
    /// the loop, with the window the loop is inferred to touch — one cell
    /// or a constant-size tile; a symbolic extent is refused.
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
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
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

/// The destination of the first `Reduce` statement (pre-order) in a
/// block, if any.
fn first_reduce(block: &exo_ir::Block) -> Option<exo_ir::Sym> {
    block.iter().find_map(|stmt| match stmt {
        Stmt::Reduce { buf, .. } => Some(buf.clone()),
        Stmt::For { body, .. } => first_reduce(body),
        Stmt::If {
            then_body,
            else_body,
            ..
        } => first_reduce(then_body).or_else(|| first_reduce(else_body)),
        _ => None,
    })
}

/// Stages the destination of the first reduction under `loop_` into a
/// local buffer held across the loop: `stage_mem` with the window
/// [`infer_bounds`] reports for that buffer inside the loop. Only windows
/// whose every extent is a compile-time constant are accepted — one cell
/// (`{buf}_acc`) or a register tile (`{buf}_reg`). An index that ranges
/// over a symbolic loop inside the staged one (or is the staged loop's
/// own symbolic iterator) makes an extent symbolic, and that refusal is
/// the pruning.
fn stage_accum(p: &ProcHandle, loop_: &LoopSel) -> Result<ProcHandle> {
    let c = loop_.resolve(p)?;
    let scope = c.stmt()?;
    let Stmt::For { body, .. } = scope else {
        return Err(SchedError::scheduling("stage_accum requires a for loop"));
    };
    let buf = first_reduce(body)
        .ok_or_else(|| SchedError::scheduling("stage_accum: no reduction inside the loop"))?;
    let path = c
        .path()
        .stmt_path()
        .ok_or_else(|| SchedError::scheduling("statement cursor was invalidated"))?;
    let ctx = Context::at(p.proc(), path);
    let bounds = infer_bounds(scope, &buf, &ctx)
        .map_err(|why| SchedError::scheduling(format!("stage_accum: {why}")))?;
    let mut one_cell = true;
    for (d, (lo, hi)) in bounds.dims.iter().enumerate() {
        let extent = bounds.extent(d, &ctx).as_int().filter(|n| *n >= 1);
        let extent = extent.ok_or_else(|| {
            SchedError::scheduling(format!(
                "stage_accum: `{}` spans [{lo}, {hi}) inside `{loop_}`, not a constant extent",
                buf.name()
            ))
        })?;
        one_cell &= extent == 1;
    }
    let suffix = if one_cell { "acc" } else { "reg" };
    let new_name = p.fresh_name(&format!("{}_{suffix}", buf.name()));
    stage_mem(p, &c, buf.name(), &bounds.dims, &new_name)
}

/// The register-blocked sgemm of the paper's GEMM case study (§6.2.3),
/// as a script: an `R × 16` tile of `C` is held in vector registers
/// across the whole `k` loop, and each `k` step is `R × 16 / lanes` FMAs
/// into it, straight-line.
///
/// 16 is the widest column tile the kernel's `% 16` assertions make a
/// perfect split; `R` is the number of rows for which the tile fills half
/// the register file (4 on AVX2, 16 on AVX-512), leaving the other half
/// to the operands. A machine without vector registers gets `R = 0`,
/// which `split` refuses.
fn blocked_sgemm(vw: i64, vec_registers: i64) -> ScheduleScript {
    const TILE_N: i64 = 16;
    let rows = vec_registers * vw / (2 * TILE_N);
    let sel = |name: &str| LoopSel::new(name, 0);
    let reorder = |name: &str| SchedStep::Reorder { loop_: sel(name) };
    let vectorize = |name: &str| SchedStep::Vectorize {
        loop_: sel(name),
        width: vw,
    };
    let split = |name: &str, factor| SchedStep::Split {
        loop_: sel(name),
        factor,
        cut_tail: false,
    };
    let mut steps = vec![
        split("i", rows),
        split("j", TILE_N),
        // k, io, ii, jo, ji  ->  io, jo, k, ii, ji
        reorder("k"),
        reorder("ii"),
        reorder("k"),
        SchedStep::StageAccum { loop_: sel("k") },
        vectorize("ji"),
    ];
    // `vectorize` ends in a proc-wide `replace_all`, so where a tile row is
    // one vector the copy loops were consumed with the micro-kernel;
    // narrower vectors divide the copy-in and copy-out rows as well.
    if vw < TILE_N {
        steps.extend([vectorize("k1"), vectorize("k1")]);
    }
    // The micro-kernel, straight-line: its vector loop, then its rows.
    steps.push(SchedStep::Unroll { loop_: sel("vo_0") });
    steps.push(SchedStep::Unroll { loop_: sel("ii") });
    steps.push(SchedStep::Simplify);
    ScheduleScript::new(steps)
}

/// The pinned schedule of record for a library kernel, by procedure
/// name — the best script known so far, replayable without running the
/// search.
///
/// Returns `None` for kernels without a recorded schedule.
pub fn schedule_of_record(kernel: &str, machine: &MachineModel) -> Option<ScheduleScript> {
    let vw = machine.vec_width(DataType::F32);
    match kernel {
        "sgemm" => Some(blocked_sgemm(vw, machine.vec_registers())),
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
    fn sgemm_record_holds_the_c_tile_in_registers_across_k() {
        for machine in [MachineModel::avx2(), MachineModel::avx512()] {
            let p = ProcHandle::new(sgemm());
            let script = schedule_of_record("sgemm", &machine).unwrap();
            let replayed = apply_script(&p, &script, &machine)
                .unwrap_or_else(|e| panic!("{}: `{script}` is refused: {e}", machine.name));
            let diags = exo_analysis::check_proc(replayed.proc());
            assert!(diags.is_empty(), "{}: {diags:?}", machine.name);
            // The tile is `rows x 16`, half the register file, and the
            // k loop touches it instead of C.
            let rows = machine.vec_registers() * machine.vec_width(DataType::F32) / 32;
            let text = replayed.proc().to_string();
            assert!(
                text.contains(&format!("C_reg_0: f32[{rows}, 16]")),
                "{}: {text}",
                machine.name
            );
            let k_loop = replayed.find_loop("k").unwrap();
            let in_k = exo_analysis::Effects::of_stmt(k_loop.stmt().unwrap());
            assert!(in_k.touches(&exo_ir::Sym::new("C_reg_0")), "{text}");
            assert!(!in_k.touches(&exo_ir::Sym::new("C")), "{text}");
            let registry = registry(&machine);
            assert_eq!(
                run(p.proc(), &registry, sgemm_args_mnk(32, 48, 16)),
                run(replayed.proc(), &registry, sgemm_args_mnk(32, 48, 16)),
                "{}: record diverges at M=32 N=48 K=16",
                machine.name
            );
        }
    }

    #[test]
    fn records_replay_and_stay_equivalent() {
        let cases: Vec<(MachineModel, exo_ir::Proc, ArgBuilder)> = vec![
            (MachineModel::avx2(), sgemm(), || sgemm_args(16)),
            (MachineModel::avx2(), gemv(Precision::Single, false), || {
                gemv_args(16)
            }),
            (MachineModel::avx2(), blur2d(), || blur_args(32)),
            (MachineModel::avx512(), sgemm(), || sgemm_args(16)),
            (MachineModel::avx512(), blur2d(), || blur_args(32)),
        ];
        for (machine, kernel, mk_args) in cases {
            let registry = registry(&machine);
            let what = format!("record for {} on {}", kernel.name(), machine.name);
            let script =
                schedule_of_record(kernel.name(), &machine).unwrap_or_else(|| panic!("no {what}"));
            let p = ProcHandle::new(kernel.clone());
            let scheduled =
                apply_script(&p, &script, &machine).unwrap_or_else(|e| panic!("{what} fails: {e}"));
            // Fresh buffers per run: ArgValue clones share their Rc
            // buffer, so reusing one set would accumulate across runs.
            let before = run(&kernel, &registry, mk_args());
            let after = run(scheduled.proc(), &registry, mk_args());
            assert_eq!(before, after, "{what} diverges");
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
    fn stage_accum_takes_a_constant_tile_and_refuses_a_symbolic_one() {
        let machine = MachineModel::avx2();
        let p = ProcHandle::new(sgemm());
        let sel = |name: &str| LoopSel::new(name, 0);
        let split = |name: &str, factor| SchedStep::Split {
            loop_: sel(name),
            factor,
            cut_tail: false,
        };
        let stage = SchedStep::StageAccum { loop_: sel("k") };
        // Both dimensions split: k spans C[4io..4io+4, 16jo..16jo+16].
        let tile = ScheduleScript::new(vec![
            split("i", 4),
            split("j", 16),
            SchedStep::Reorder { loop_: sel("k") },
            SchedStep::Reorder { loop_: sel("ii") },
            SchedStep::Reorder { loop_: sel("k") },
            stage.clone(),
        ]);
        let staged = apply_script(&p, &tile, &machine).unwrap();
        let text = staged.proc().to_string();
        assert!(text.contains("C_reg_0: f32[4, 16]"), "{text}");
        let registry = registry(&machine);
        assert_eq!(
            run(p.proc(), &registry, sgemm_args(16)),
            run(staged.proc(), &registry, sgemm_args(16))
        );
        // Only j split: k still spans every row of C, and M is symbolic.
        let rows_free = ScheduleScript::new(vec![split("j", 16), stage]);
        let err = apply_script(&p, &rows_free, &machine).unwrap_err();
        assert!(err.to_string().contains("not a constant extent"), "{err}");
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
        sgemm_args_mnk(n, n, n)
    }

    fn sgemm_args_mnk(m: usize, n: usize, k: usize) -> Vec<ArgValue> {
        let (_, a) = ArgValue::from_vec(
            (0..m * k).map(|v| (v % 5) as f64).collect(),
            vec![m, k],
            DataType::F32,
        );
        let (_, b) = ArgValue::from_vec(
            (0..k * n).map(|v| (v % 3) as f64).collect(),
            vec![k, n],
            DataType::F32,
        );
        let (_, c) = ArgValue::zeros(vec![m, n], DataType::F32);
        vec![
            ArgValue::Int(m as i64),
            ArgValue::Int(n as i64),
            ArgValue::Int(k as i64),
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
