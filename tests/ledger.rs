//! The same-behaviour ledger: the host-independent counts of `benchmark/`,
//! computed in-process the way it computes them, held against
//! `tests/ledger.txt` (one `name value` line per count).
//!
//! - `sched_library`'s counts of one library pass: 72 schedules on the
//!   AVX2 and AVX-512 models, each verified, lowered and emitted portable
//!   and native.
//! - `tune_search`'s counts of its first sweep at `--seed 7`: the
//!   cost-only tuner over the three kernels of record on the AVX2 model,
//!   at the benchmark's budget of 200 scripts per kernel.
//!
//! A change that means to move a number edits `ledger.txt` in the same
//! diff and says why. On drift the test prints every row.

mod common;

use common::Library;
use exo2::analysis::{check_proc, Severity};
use exo2::codegen::{emit_c, CodegenOptions};
use exo2::interp::ProcRegistry;
use exo2::ir::DataType;
use exo2::kernels::{self, Precision};
use exo2::machine::MachineModel;
use exo_autotune::{tune, TuneConfig, TuneTask};

/// SplitMix64, as `benchmark/` derives a run's seeds from `--seed`.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's seed for the rows that depend on one.
const SEED: u64 = 7;

fn library_rows(rows: &mut Vec<(String, u64)>) {
    let library = Library::new();
    exo2::core::stats::reset();
    let scheduled: Vec<_> = library
        .machines
        .iter()
        .map(|m| (m, library.schedule_on(m)))
        .collect();
    let rewrites = exo2::core::stats::total();
    let (mut schedules, mut errors, mut warnings, mut insts, mut bytes) = (0, 0, 0, 0, 0);
    for (machine, handles) in &scheduled {
        let registry: ProcRegistry = machine
            .instructions(DataType::F32)
            .into_iter()
            .chain(machine.instructions(DataType::F64))
            .collect();
        for handle in handles {
            let proc = handle.proc();
            schedules += 1;
            for d in check_proc(proc) {
                match d.severity {
                    Severity::Error => errors += 1,
                    Severity::Warning => warnings += 1,
                }
            }
            insts += exo2::interp::lower(proc).code_len() as u64;
            for opts in [CodegenOptions::portable(), CodegenOptions::native()] {
                let unit = emit_c(proc, &registry, &opts).expect("a library schedule emits");
                bytes += unit.code.len() as u64;
            }
        }
    }
    for (name, value) in [
        ("lib.schedules", schedules),
        ("core.rewrites", rewrites),
        ("analysis.diag_errors", errors),
        ("analysis.diag_warnings", warnings),
        ("interp.lowered_insts", insts),
        ("codegen.emitted_bytes", bytes),
    ] {
        rows.push((name.to_string(), value));
    }
}

fn tuner_rows(rows: &mut Vec<(String, u64)>) {
    let machine = MachineModel::avx2();
    let config = TuneConfig {
        seed: mix(SEED, 100),
        budget: 200,
        measure: false,
        threads: 1,
        input_seed: 1 + mix(SEED, 2) % 64,
    };
    let (mut sampled, mut static_rejected, mut illegal, mut survivors) = (0, 0, 0, 0);
    let mut simulated = 0;
    for (name, kernel) in [
        ("sgemm", kernels::sgemm()),
        ("sgemv_n", kernels::gemv(Precision::Single, false)),
        ("blur2d", kernels::blur2d()),
    ] {
        let task = TuneTask::new(kernel, machine.clone(), 0.0);
        let report = tune(&task, &config).expect("a record kernel tunes");
        sampled += report.sampled as u64;
        static_rejected += report.static_rejected as u64;
        illegal += report.illegal as u64;
        survivors += report.candidates.len() as u64;
        simulated += report.candidates.iter().map(|c| c.cycles).sum::<u64>();
        let best = report.best_by_cycles().map_or(0, |c| c.cycles);
        rows.push((format!("autotune.best_cycles.{name}"), best));
    }
    for (name, value) in [
        ("autotune.sampled", sampled),
        ("autotune.static_rejected", static_rejected),
        ("autotune.illegal", illegal),
        ("autotune.survivors", survivors),
        ("machine.simulated_cycles", simulated),
    ] {
        rows.push((name.to_string(), value));
    }
}

fn parse(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l
                .split_once(' ')
                .unwrap_or_else(|| panic!("`{l}` is not `name value`"));
            let value = value
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("`{l}`: {e}"));
            (name.to_string(), value)
        })
        .collect()
}

#[test]
fn the_ledger_is_unchanged() {
    let mut got = Vec::new();
    library_rows(&mut got);
    tuner_rows(&mut got);
    let want = parse(include_str!("ledger.txt"));
    if got != want {
        let mut diff = String::new();
        let names = want.iter().chain(&got).map(|(n, _)| n.as_str());
        let mut seen = Vec::new();
        for name in names {
            if seen.contains(&name) {
                continue;
            }
            seen.push(name);
            let find = |rows: &[(String, u64)]| {
                rows.iter()
                    .find(|(n, _)| n == name)
                    .map_or("-".to_string(), |(_, v)| v.to_string())
            };
            let (w, g) = (find(&want), find(&got));
            let mark = if w == g { " " } else { "!" };
            diff.push_str(&format!("{mark} {name:<28} ledger {w:>12}  now {g:>12}\n"));
        }
        panic!("the ledger drifted (rows marked `!`):\n{diff}");
    }
}
