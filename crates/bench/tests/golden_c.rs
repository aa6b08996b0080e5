//! Golden `.c` regression tests: the six paper kernels (plus plain
//! sgemm) must emit byte-identical machine-intrinsic C to the files
//! checked in under `crates/codegen/goldens/`. This is the same contract
//! the pretty-printer goldens in `crates/bench/goldens` enforce for the
//! scheduling layer — any emitter change shows up as a reviewable diff.
//!
//! With a `cc` on `PATH` the emitted units are also compiled with
//! `cc -O2 -Wall -Werror` (goldens with their `-m` flags) and run against
//! the interpreter; without one those steps log a skip.

mod common;

use exo_bench::paper::{c_workloads, golden_c_path};
use exo_codegen::difftest::{
    cc_available, compile_check, run_differential, run_differential_native, DiffOutcome,
};
use exo_codegen::{emit_c, CodegenOptions};

/// A differential run either agrees or says why it could not run.
fn expect_agreement(what: &str, outcome: Result<DiffOutcome, String>) {
    match outcome {
        Ok(DiffOutcome::Agreed { elems, .. }) => assert!(elems > 0, "{what}: nothing compared"),
        Ok(DiffOutcome::Skipped(why)) => eprintln!("SKIPPED {what}: {why}"),
        Err(e) => panic!("{what}: {e}"),
    }
}

#[test]
fn paper_kernels_match_their_golden_c() {
    let mut checked = 0;
    for w in c_workloads() {
        let Some(file) = w.golden else { continue };
        let unit = emit_c(&w.proc, &w.registry, &CodegenOptions::native())
            .unwrap_or_else(|e| panic!("emitting `{}`: {e}", w.name));
        common::assert_matches_golden(w.name, &unit.code, &golden_c_path(file));
        if cc_available() {
            compile_check(&unit, w.name)
                .unwrap_or_else(|e| panic!("golden `{}` does not compile: {e}", w.name));
            // A golden that compiles but miscomputes is still a codegen
            // bug: where the CPU has the unit's ISA extensions, run it.
            expect_agreement(
                &format!("native `{}`", w.name),
                run_differential_native(&w.proc, &w.registry, 1),
            );
        }
        checked += 1;
    }
    assert!(
        checked >= 6,
        "expected at least six golden workloads, found {checked}"
    );
}

#[test]
fn every_scheduled_workload_emits_portable_c_that_agrees_with_the_interpreter() {
    for w in c_workloads() {
        let unit = emit_c(&w.proc, &w.registry, &CodegenOptions::portable())
            .unwrap_or_else(|e| panic!("emitting `{}` (portable): {e}", w.name));
        assert!(
            unit.cflags.is_empty(),
            "portable `{}` needs no cflags",
            w.name
        );
        if !cc_available() {
            continue;
        }
        if w.heavy {
            // Too large to run under the interpreter in a debug test.
            compile_check(&unit, w.name)
                .unwrap_or_else(|e| panic!("portable `{}` does not compile: {e}", w.name));
        } else {
            expect_agreement(
                &format!("portable `{}`", w.name),
                run_differential(&w.proc, &w.registry, 1),
            );
        }
    }
}
