//! End-to-end tuner checks on the library kernels: the search seeded
//! with the SGEMM schedule of record, pruning statistics, and differential
//! validation of discovered winners — including through the codegen
//! paths that used to dead-end in `Unsupported` (by-reference scalar
//! write-back, debug-mode bounds checks).

use exo_autotune::prune::{proven_violation, statically_illegal};
use exo_autotune::space::generate_candidates;
use exo_autotune::{tune, TuneConfig, TuneTask};
use exo_codegen::difftest::{interp_args, run_differential_with, synth_inputs, DiffOutcome};
use exo_codegen::{emit_c, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_interp::ProcRegistry;
use exo_ir::{DataType, Proc};
use exo_kernels::{blur2d, gemv, sgemm, Precision};
use exo_lib::{apply_script, schedule_of_record};
use exo_machine::{try_simulate, MachineModel};

fn cost_only() -> TuneConfig {
    TuneConfig {
        measure: false,
        ..TuneConfig::default()
    }
}

#[test]
fn autotuner_rediscovers_the_sgemm_schedule() {
    let machine = MachineModel::avx2();
    let task = TuneTask::new(sgemm(), machine, 2.0 * 32.0 * 32.0 * 32.0);
    let report = tune(&task, &cost_only()).expect("sgemm tunes");
    // The search visited its full budget and the primitives pruned a
    // real fraction of it.
    assert_eq!(report.sampled, 200);
    assert!(report.illegal > 0, "no candidate was pruned");
    assert!(report.throughput > 0.0);
    // The static tier fired and strictly reduced replay invocations, and
    // every sampled candidate is accounted for by exactly one outcome.
    assert!(report.static_rejected > 0, "tier 0 never fired");
    assert_eq!(report.replayed, report.sampled - report.static_rejected);
    assert!(report.replayed < report.sampled);
    assert_eq!(
        report.replayed,
        report.illegal
            + report.verify_rejected
            + report.trapped
            + report.diverged
            + report.candidates.len()
    );
    // Every survivor computes what the unscheduled kernel computes.
    assert_eq!(report.diverged, 0);
    // The search is seeded with the incumbent: the register-blocked
    // schedule of record is candidate zero, inside the budget, so the best
    // found cannot be worse than it. (No three-step script reaches it.)
    let record = report
        .record_cycles
        .expect("the sgemm record replays and simulates");
    let seed = schedule_of_record("sgemm", &task.machine).expect("sgemm has a schedule of record");
    assert!(
        report.candidates.iter().any(|c| c.script == seed),
        "the record is not among the survivors"
    );
    let best = report.best().expect("survivors exist");
    assert!(
        best.cycles <= record,
        "best found {} cycles worse than record {record}",
        best.cycles
    );
    // And the search is worth something without the seed: the best
    // candidate it found by itself still beats the unscheduled kernel.
    let unseeded = report
        .candidates
        .iter()
        .filter(|c| c.script != seed)
        .min_by_key(|c| c.cycles)
        .expect("survivors other than the record");
    assert!(
        unseeded.cycles < report.baseline_cycles,
        "search failed to beat the unscheduled kernel: {} vs {}",
        unseeded.cycles,
        report.baseline_cycles
    );
    assert!(
        !unseeded.script.steps.is_empty(),
        "winner should not be the identity schedule"
    );
}

#[test]
fn avx2_records_simulate_to_the_pinned_cycle_counts() {
    // The simulator's output where the benchmark is not the only witness:
    // a change to the executor or the cost monitor that moves a count
    // fails here. (A budget of one is the record alone: candidate zero.)
    let machine = MachineModel::avx2();
    for (kernel, cycles) in [
        (sgemm(), 27_952),
        (gemv(Precision::Single, false), 1_984),
        (blur2d(), 4_620),
    ] {
        let task = TuneTask::new(kernel, machine.clone(), 0.0);
        let config = TuneConfig {
            budget: 1,
            ..cost_only()
        };
        let report = tune(&task, &config).expect("the record tunes");
        assert_eq!(report.record_cycles, Some(cycles), "`{}`", task.name);
    }
}

#[test]
fn discovered_sgemm_winner_agrees_with_the_interpreter() {
    let machine = MachineModel::avx2();
    let task = TuneTask::new(sgemm(), machine.clone(), 2.0 * 32.0 * 32.0 * 32.0);
    let report = tune(&task, &cost_only()).expect("sgemm tunes");
    let best = report.best().expect("survivors exist");
    let p = ProcHandle::new(sgemm());
    let scheduled = apply_script(&p, &best.script, &machine).expect("winner replays");
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    // Differential against the interpreter in both plain portable mode
    // and the debug-bounds mode the tuner's winners must survive (every
    // windowed access the schedule introduced gets an assert).
    for opts in [CodegenOptions::portable(), CodegenOptions::debug()] {
        match run_differential_with(scheduled.proc(), &registry, 7, &opts) {
            Ok(DiffOutcome::Agreed { elems, .. }) => assert!(elems > 0),
            Ok(DiffOutcome::Skipped(why)) => eprintln!("skipping: {why}"),
            Err(e) => panic!("winner `{}` diverges: {e}", best.script),
        }
    }
}

#[test]
fn discovered_gemv_schedules_exercise_by_reference_writeback() {
    // Vectorizing the gemv reduction produces
    // `mm256_reduce_add_scalar_ps(&y[i], ...)` — an instruction call that
    // writes a scalar parameter through a pointer. Before the
    // by-reference lowering this was `CodegenError::Unsupported`; now an
    // autotuner-discovered schedule compiles and agrees differentially.
    let machine = MachineModel::avx2();
    let task = TuneTask::new(
        gemv(Precision::Single, false),
        machine.clone(),
        2.0 * 32.0 * 32.0,
    );
    let report = tune(&task, &cost_only()).expect("gemv tunes");
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    let p = ProcHandle::new(gemv(Precision::Single, false));
    let byref = report
        .candidates
        .iter()
        .find_map(|c| {
            let scheduled = apply_script(&p, &c.script, &machine).ok()?;
            let unit = emit_c(scheduled.proc(), &registry, &CodegenOptions::portable()).ok()?;
            unit.code
                .contains("mm256_reduce_add_scalar_ps(&")
                .then_some((c.script.clone(), scheduled))
        })
        .expect("some discovered schedule reduces through the by-reference horizontal add");
    match run_differential_with(byref.1.proc(), &registry, 13, &CodegenOptions::portable()) {
        Ok(DiffOutcome::Agreed { elems, .. }) => assert!(elems > 0),
        Ok(DiffOutcome::Skipped(why)) => eprintln!("skipping: {why}"),
        Err(e) => panic!("by-ref winner `{}` diverges: {e}", byref.0),
    }
}

#[test]
fn cost_only_fallback_reports_no_measurements() {
    let machine = MachineModel::avx2();
    let task = TuneTask::new(sgemm(), machine, 2.0 * 32.0 * 32.0 * 32.0);
    let report = tune(&task, &cost_only()).expect("sgemm tunes");
    assert_eq!(report.measured, 0);
    assert!(report.fidelity.is_none());
    assert!(report.candidates.iter().all(|c| c.measured_ns.is_none()));
}

#[test]
fn cost_only_funnels_and_cycle_sums_are_pinned() {
    // The simulator's exactness as a workspace gate: for two tune seeds,
    // how the search funnel splits and what the survivors simulate to.
    // The numbers were computed by the per-element executor, before loops
    // ran as strips; any change to what the executor reports moves them.
    let pinned: [(u64, &str, [usize; 4], u64); 6] = [
        (1, "sgemm", [200, 23, 133, 44], 33_243_868),
        (1, "sgemv_n", [200, 58, 120, 20], 587_440),
        (1, "blur2d", [200, 14, 137, 49], 3_588_228),
        (2, "sgemm", [200, 28, 129, 43], 33_486_756),
        (2, "sgemv_n", [200, 58, 119, 23], 677_152),
        (2, "blur2d", [200, 15, 136, 49], 3_588_228),
    ];
    for (seed, name, funnel, cycles) in pinned {
        let kernel = match name {
            "sgemm" => sgemm(),
            "sgemv_n" => gemv(Precision::Single, false),
            _ => blur2d(),
        };
        let task = TuneTask::new(kernel, MachineModel::avx2(), 0.0);
        let config = TuneConfig {
            seed,
            ..cost_only()
        };
        let report = tune(&task, &config).expect("the kernel tunes");
        assert_eq!(report.diverged, 0, "`{name}` at tune seed {seed}");
        let got = [
            report.sampled,
            report.static_rejected,
            report.illegal,
            report.candidates.len(),
        ];
        let sum: u64 = report.candidates.iter().map(|c| c.cycles).sum();
        assert_eq!((got, sum), (funnel, cycles), "`{name}` at tune seed {seed}");
    }
}

fn record_kernel(name: &str) -> Proc {
    match name {
        "sgemm" => sgemm(),
        "sgemv_n" => gemv(Precision::Single, false),
        _ => blur2d(),
    }
}

/// The simulated cycles of `proc` on the tuner's inputs for `seed`.
fn simulate_on_inputs(proc: &Proc, registry: &ProcRegistry, seed: u64) -> Option<u64> {
    let (_, args) = interp_args(synth_inputs(proc, seed).ok()?);
    try_simulate(proc, registry, args).ok().map(|r| r.cycles)
}

#[test]
fn the_tuner_ranks_what_simulating_every_survivor_ranks() {
    // `tune` simulates each distinct survivor once and checks its outputs;
    // the stage walk here simulates every survivor. Both must rank the
    // same candidates at the same cycles, in the same order.
    let machine = MachineModel::avx2();
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    for seed in [7, 8] {
        for name in ["sgemm", "sgemv_n", "blur2d"] {
            let config = TuneConfig {
                seed,
                ..cost_only()
            };
            let task = TuneTask::new(record_kernel(name), machine.clone(), 0.0);
            let report = tune(&task, &config).expect("the kernel tunes");
            assert_eq!(report.diverged, 0, "`{name}` at tune seed {seed}");
            let base = ProcHandle::new(record_kernel(name));
            let mut walked: Vec<_> = generate_candidates(&base, &machine, seed, config.budget)
                .into_iter()
                .filter(|script| !statically_illegal(&base, script))
                .filter_map(|script| {
                    let scheduled = apply_script(&base, &script, &machine).ok()?;
                    if proven_violation(scheduled.proc()).is_some() {
                        return None;
                    }
                    let cycles =
                        simulate_on_inputs(scheduled.proc(), &registry, config.input_seed)?;
                    Some((script, cycles))
                })
                .collect();
            walked.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.key().cmp(&b.0.key())));
            let ranked: Vec<_> = report
                .candidates
                .iter()
                .map(|c| (c.script.clone(), c.cycles))
                .collect();
            assert_eq!(ranked, walked, "`{name}` at tune seed {seed}");
            assert_eq!(
                report.baseline_cycles,
                simulate_on_inputs(base.proc(), &registry, config.input_seed).expect("simulates"),
                "`{name}` at tune seed {seed}"
            );
        }
    }
}
