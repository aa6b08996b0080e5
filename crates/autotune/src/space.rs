//! Candidate generation: the enumerated core and the sampled tail of the
//! search space.
//!
//! Generation is *syntactic* — scripts are built from the loop structure
//! of the unscheduled kernel (plus the derived `{name}o`/`{name}i` names
//! a split would introduce) without checking legality. Legality is the
//! driver's job: it replays every script through the safety-checked
//! primitives and prunes on their errors, which is exactly the
//! "primitives as search filter" design the scheduling language enables.
//! Pre-filtering here would hide the pruning statistics the fidelity
//! report tracks.

use exo_cursors::ProcHandle;
use exo_ir::rng::Rng;
use exo_ir::Stmt;
use exo_lib::{LoopSel, SchedStep, ScheduleScript};
use exo_machine::MachineModel;
use std::collections::BTreeSet;

fn collect_loops(block: &exo_ir::Block, out: &mut Vec<String>) {
    for stmt in block {
        match stmt {
            Stmt::For { iter, body, .. } => {
                out.push(iter.name().to_string());
                collect_loops(body, out);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_loops(then_body, out);
                collect_loops(else_body, out);
            }
            _ => {}
        }
    }
}

/// All loop selectors of a procedure, in textual order, with occurrence
/// indices per iterator name.
pub fn loop_selectors(p: &ProcHandle) -> Vec<LoopSel> {
    let mut names = Vec::new();
    collect_loops(p.proc().body(), &mut names);
    let mut seen: Vec<(String, usize)> = Vec::new();
    let mut out = Vec::with_capacity(names.len());
    for name in names {
        let nth = match seen.iter_mut().find(|(n, _)| *n == name) {
            Some((_, count)) => {
                *count += 1;
                *count
            }
            None => {
                seen.push((name.clone(), 0));
                0
            }
        };
        out.push(LoopSel::new(name, nth));
    }
    out
}

/// The single-step menu over a set of loop selectors: every decision
/// dimension of the genome (interchange, blocking factor, lane count,
/// accumulator placement, unrolling) instantiated for each loop.
fn step_menu(loops: &[LoopSel], machine: &MachineModel) -> Vec<SchedStep> {
    let vw = machine.vec_width(exo_ir::DataType::F32);
    let mut menu = Vec::new();
    for l in loops {
        menu.push(SchedStep::Reorder { loop_: l.clone() });
        for width in [vw, vw / 2] {
            if width >= 2 {
                menu.push(SchedStep::Vectorize {
                    loop_: l.clone(),
                    width,
                });
            }
        }
        for factor in [4, vw, 2 * vw] {
            menu.push(SchedStep::Split {
                loop_: l.clone(),
                factor,
                cut_tail: false,
            });
        }
        menu.push(SchedStep::StageAccum { loop_: l.clone() });
        menu.push(SchedStep::Unroll { loop_: l.clone() });
    }
    menu
}

/// A random step: drawn from the base menu, or (one time in four)
/// retargeted at a split-child loop (`{name}o`/`{name}i`) that only
/// exists if an earlier step created it — scripts that guess wrong are
/// pruned by selector resolution, not by the generator.
fn random_step(rng: &mut Rng, menu: &[SchedStep], loops: &[LoopSel]) -> SchedStep {
    let step = menu[rng.below(menu.len())].clone();
    if rng.below(4) != 0 || loops.is_empty() {
        return step;
    }
    let parent = &loops[rng.below(loops.len())];
    let child = LoopSel::new(
        format!(
            "{}{}",
            parent.name,
            if rng.below(2) == 0 { "i" } else { "o" }
        ),
        0,
    );
    match step {
        SchedStep::Reorder { .. } => SchedStep::Reorder { loop_: child },
        SchedStep::Vectorize { width, .. } => SchedStep::Vectorize {
            loop_: child,
            width,
        },
        SchedStep::Split {
            factor, cut_tail, ..
        } => SchedStep::Split {
            loop_: child,
            factor,
            cut_tail,
        },
        SchedStep::StageAccum { .. } => SchedStep::StageAccum { loop_: child },
        SchedStep::Unroll { .. } => SchedStep::Unroll { loop_: child },
        other => other,
    }
}

/// True when repeating `step` is provably redundant: both `[step]` and
/// `[step, step]` replay cleanly on `base`, and the pair's result equals
/// either the single step's result (the second application changed
/// nothing) or the base itself (the pair undid itself, as a repeated
/// interchange does). Either way the pair can only duplicate a shorter
/// candidate that is already in the set. A pair that fails to replay is
/// *not* treated as a no-op — the driver prunes it and its failure shows
/// up in the pruning statistics, which generation must not hide.
fn repeat_is_noop(base: &ProcHandle, step: &SchedStep, machine: &MachineModel) -> bool {
    let once = ScheduleScript::new(vec![step.clone()]);
    let twice = ScheduleScript::new(vec![step.clone(), step.clone()]);
    match (
        exo_lib::apply_script(base, &once, machine),
        exo_lib::apply_script(base, &twice, machine),
    ) {
        (Ok(a), Ok(b)) => b.proc() == a.proc() || b.proc() == base.proc(),
        _ => false,
    }
}

/// Generates up to `budget` unique candidate scripts for `base`:
///
/// 0. the schedule of record for `base`'s name on `machine`, if there is
///    one — the search is warm-started from the incumbent, so it can only
///    report a schedule at least as good, however far the record lies
///    beyond the three-step scripts sampled below,
/// 1. the identity script (the unscheduled kernel is always a candidate),
/// 2. every single step of the menu,
/// 3. every interchange-led pair `reorder(L); <single>` — the
///    coordinate-exploration core that guarantees classic interchange +
///    vectorize schedules are always visited,
/// 4. every step repeated twice (`<single>; <single>`) — multi-stage
///    kernels like the two-pass blur need the same rewrite applied once
///    per stage, and selectors re-resolve against the rewritten proc so
///    the repeat lands on the next matching loop. Pairs whose repeat is
///    provably a no-op (replaying `[s, s]` yields the same proc as `[s]`
///    alone, or undoes itself back to the base) are skipped — they can
///    only duplicate a shorter candidate that is already in the set,
/// 5. seeded random scripts of up to three steps until the budget is
///    full.
pub fn generate_candidates(
    base: &ProcHandle,
    machine: &MachineModel,
    seed: u64,
    budget: usize,
) -> Vec<ScheduleScript> {
    let loops = loop_selectors(base);
    let menu = step_menu(&loops, machine);
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut push = |script: ScheduleScript, out: &mut Vec<ScheduleScript>| {
        if out.len() < budget && seen.insert(script.key()) {
            out.push(script);
        }
    };
    if let Some(record) = exo_lib::schedule_of_record(base.proc().name(), machine) {
        push(record, &mut out);
    }
    push(ScheduleScript::default(), &mut out);
    for step in &menu {
        push(ScheduleScript::new(vec![step.clone()]), &mut out);
    }
    for l in &loops {
        let lead = SchedStep::Reorder { loop_: l.clone() };
        for step in &menu {
            push(
                ScheduleScript::new(vec![lead.clone(), step.clone()]),
                &mut out,
            );
        }
    }
    for step in &menu {
        if repeat_is_noop(base, step, machine) {
            continue;
        }
        push(
            ScheduleScript::new(vec![step.clone(), step.clone()]),
            &mut out,
        );
    }
    // `| 1` pairs seeds 2k and 2k + 1, but dropping it would move every
    // sampled script, and with them the pinned funnels and best cycles.
    // That re-baseline belongs with the next change of the permutation.
    let mut rng = Rng::new(seed | 1);
    let mut attempts = 0usize;
    while out.len() < budget && attempts < budget * 16 {
        attempts += 1;
        let len = 1 + rng.below(3);
        let steps = (0..len)
            .map(|_| random_step(&mut rng, &menu, &loops))
            .collect();
        push(ScheduleScript::new(steps), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_kernels::{blur2d, sgemm};

    fn pair(step: &SchedStep) -> ScheduleScript {
        ScheduleScript::new(vec![step.clone(), step.clone()])
    }

    /// The two-pass blur really does need `vectorize(x, 8)` twice — the
    /// second application re-resolves onto the second stage's `x` loop —
    /// so the no-op dedupe must keep that pair in the candidate set.
    #[test]
    fn two_stage_blur_keeps_its_repeated_vectorize_pair() {
        let base = ProcHandle::new(blur2d());
        let machine = MachineModel::avx2();
        let step = SchedStep::Vectorize {
            loop_: LoopSel::new("x", 0),
            width: 8,
        };
        assert!(
            !repeat_is_noop(&base, &step, &machine),
            "repeated vectorize(x, 8) rewrites both blur stages; it is not a no-op"
        );
        let keys: BTreeSet<String> = generate_candidates(&base, &machine, 7, 400)
            .iter()
            .map(|s| s.key())
            .collect();
        assert!(
            keys.contains(&pair(&step).key()),
            "blur2d candidates must still include the two-stage vectorize pair"
        );
    }

    /// No generated `[step, step]` pair may duplicate a shorter script's
    /// result: replaying the pair must differ from both the base proc and
    /// the single-step proc whenever all replays succeed.
    #[test]
    fn generated_repeat_pairs_are_never_noops() {
        for base in [ProcHandle::new(sgemm()), ProcHandle::new(blur2d())] {
            let machine = MachineModel::avx2();
            let base_text = base.proc().to_string();
            let mut checked = 0usize;
            for script in generate_candidates(&base, &machine, 7, 400) {
                let [a, b] = script.steps.as_slice() else {
                    continue;
                };
                if a.to_string() != b.to_string() {
                    continue;
                }
                let once = ScheduleScript::new(vec![a.clone()]);
                let (Ok(p1), Ok(p2)) = (
                    exo_lib::apply_script(&base, &once, &machine),
                    exo_lib::apply_script(&base, &script, &machine),
                ) else {
                    continue;
                };
                let twice = p2.proc().to_string();
                assert_ne!(
                    twice,
                    p1.proc().to_string(),
                    "no-op repeat survived: {script}"
                );
                assert_ne!(twice, base_text, "self-undoing repeat survived: {script}");
                checked += 1;
            }
            assert!(checked > 0, "expected at least one legal repeated pair");
        }
    }

    /// `simplify` is idempotent — running it twice yields the same proc
    /// as running it once — so the no-op detector must flag its repeat.
    /// (Keeps the detector honest for any idempotent step a future menu
    /// adds; today's menu steps all fail or make progress on repeat.)
    #[test]
    fn idempotent_simplify_repeat_is_a_noop() {
        let base = ProcHandle::new(sgemm());
        let machine = MachineModel::avx2();
        assert!(
            repeat_is_noop(&base, &SchedStep::Simplify, &machine),
            "simplify; simplify must be detected as a no-op repeat"
        );
    }
}
