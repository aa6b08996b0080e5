//! The same-behaviour ledger: the host-independent counts of `benchmark/`,
//! computed in-process the way it computes them, held against
//! `tests/ledger.txt` (one `name value` line per count).
//!
//! - `sched_library`'s counts of one library pass: 72 schedules on the
//!   AVX2 and AVX-512 models, each verified, lowered and emitted portable
//!   and native.
//! - One content hash of every unit those schedules emit in the four
//!   modes (portable, native, debug bounds, native with OpenMP): a change
//!   that must not move the C keeps it. Emission does not consult the
//!   host, so the hash does not depend on it. On drift the test writes
//!   every unit under `$CARGO_TARGET_TMPDIR/emitted/<machine>/` and prints
//!   the path, so a diff against a run at the parent names the unit.
//! - `tune_search`'s counts of its first sweep at `--seed 7`: the
//!   cost-only tuner over the three kernels of record on the AVX2 model,
//!   at the benchmark's budget of 200 scripts per kernel.
//! - The cache traffic of that sweep's survivors: each survivor's script
//!   replayed and simulated again on the tuner's inputs, with its L1
//!   accesses, L1 misses and L2 misses summed.
//!
//! A change that means to move a number edits `ledger.txt` in the same
//! diff and says why. On drift the test prints every row.

use std::hash::{Hash, Hasher};

mod common;

use common::Library;
use exo2::analysis::{check_proc, Severity};
use exo2::codegen::difftest::{interp_args, synth_inputs};
use exo2::codegen::{emit_c, CodegenOptions};
use exo2::cursors::ProcHandle;
use exo2::interp::ProcRegistry;
use exo2::ir::{ContentHasher, DataType, Proc};
use exo2::kernels::{self, Precision};
use exo2::lib::apply_script;
use exo2::machine::{try_simulate, MachineModel, SimReport};
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

/// The four emission modes the unit hash covers, by the name a dumped
/// unit's file carries.
fn modes() -> [(&'static str, CodegenOptions); 4] {
    [
        ("portable", CodegenOptions::portable()),
        ("native", CodegenOptions::native()),
        ("debug", CodegenOptions::debug()),
        ("native_openmp", CodegenOptions::native_openmp()),
    ]
}

/// Every emitted unit as (`<machine>/<kernel>.<mode>.c`, code); a kernel
/// name that repeats on one machine gets `~2`, `~3`, ... after it.
type Units = Vec<(String, String)>;

fn library_rows(rows: &mut Vec<(String, u64)>, units: &mut Units) {
    let library = Library::new();
    exo2::core::stats::reset();
    let scheduled: Vec<_> = library
        .machines
        .iter()
        .map(|m| (m, library.schedule_on(m)))
        .collect();
    let rewrites = exo2::core::stats::total();
    let (mut schedules, mut errors, mut warnings, mut insts, mut bytes) = (0, 0, 0, 0, 0);
    let mut units_hash = ContentHasher::new();
    for (machine, handles) in &scheduled {
        let mut kernels_seen: Vec<&str> = Vec::new();
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
            let repeat = kernels_seen.iter().filter(|&&k| k == proc.name()).count();
            kernels_seen.push(proc.name());
            let file = match repeat {
                0 => proc.name().to_string(),
                n => format!("{}~{}", proc.name(), n + 1),
            };
            for (mode, opts) in modes() {
                let unit = emit_c(proc, &registry, &opts).expect("a library schedule emits");
                if matches!(mode, "portable" | "native") {
                    bytes += unit.code.len() as u64;
                }
                (machine.name, proc.name(), mode, &unit.cflags, &unit.code).hash(&mut units_hash);
                units.push((format!("{}/{file}.{mode}.c", machine.name), unit.code));
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
        ("codegen.emitted_units_hash", units_hash.finish()),
    ] {
        rows.push((name.to_string(), value));
    }
}

/// Simulates `proc` on the inputs the tuner synthesizes for it.
fn simulate_on_tuner_inputs(proc: &Proc, registry: &ProcRegistry, seed: u64) -> SimReport {
    let (_, args) = interp_args(synth_inputs(proc, seed).expect("a survivor's inputs synthesize"));
    try_simulate(proc, registry, args).expect("a survivor simulates")
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
    let (mut l1_accesses, mut l1_misses, mut l2_misses) = (0, 0, 0);
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    for (name, kernel) in [
        ("sgemm", kernels::sgemm()),
        ("sgemv_n", kernels::gemv(Precision::Single, false)),
        ("blur2d", kernels::blur2d()),
    ] {
        let base = ProcHandle::new(kernel.clone());
        let task = TuneTask::new(kernel, machine.clone(), 0.0);
        let report = tune(&task, &config).expect("a record kernel tunes");
        for c in &report.candidates {
            let scheduled = apply_script(&base, &c.script, &machine).expect("a survivor replays");
            let sim = simulate_on_tuner_inputs(scheduled.proc(), &registry, config.input_seed);
            assert_eq!(sim.cycles, c.cycles, "`{name}` survivor `{}`", c.script);
            l1_accesses += sim.l1.accesses;
            l1_misses += sim.l1.misses;
            l2_misses += sim.l2.misses;
        }
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
        ("machine.l1_accesses", l1_accesses),
        ("machine.l1_misses", l1_misses),
        ("machine.l2_misses", l2_misses),
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
    let mut units = Units::new();
    library_rows(&mut got, &mut units);
    tuner_rows(&mut got);
    let want = parse(include_str!("ledger.txt"));
    if got != want {
        let mut diff = String::new();
        let row = |rows: &[(String, u64)]| {
            rows.iter()
                .find(|(n, _)| n == "codegen.emitted_units_hash")
                .map(|(_, v)| *v)
        };
        if row(&got) != row(&want) {
            let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("emitted");
            for (file, code) in &units {
                let path = dir.join(file);
                let parent = path
                    .parent()
                    .expect("a unit's path has a machine directory");
                std::fs::create_dir_all(parent).expect("the dump directory is writable");
                std::fs::write(&path, code).expect("a unit is written");
            }
            diff.push_str(&format!("every emitted unit is in {}\n", dir.display()));
        }
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
