//! The benchmark's vocabulary — workloads, end-to-end and per-layer
//! metrics, exactly as `BENCHMARK.json` lists them — and the result
//! records built from it: the JSON line a run ends with, the results file
//! of a full pass, and `--compare` of two such files.

use crate::stats::Better;
use exo_obs::{json_escape, parse_json, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Compiles and runs C on this host, so the `HostCaps` probe decides
    /// what it does and is part of its set-up. The others never consult it
    /// (the `interp` tier is served portable C whatever the host).
    pub uses_cc: bool,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "cold_native",
        why: "one client, distinct native-run requests on a fresh service: cc and the run dominate, Rust-side changes predict no change",
        uses_cc: true,
    },
    WorkloadSpec {
        name: "kernel_runtime",
        why: "run time of the emitted C for sgemm, sgemv_n and blur2d under the library's schedules of record: only better schedules or codegen move it",
        uses_cc: true,
    },
    WorkloadSpec {
        name: "sched_library",
        why: "re-apply every library schedule, then verify, lower and emit each result: long accepted schedules, no subprocess",
        uses_cc: false,
    },
    WorkloadSpec {
        name: "tune_search",
        why: "autotuner sweeps of short scripts, about four fifths refused, survivors simulated: the scheduling layer under rejection",
        uses_cc: false,
    },
    WorkloadSpec {
        name: "serve_mixed",
        why: "one client alternating a distinct interp-tier request with a batch of requests on cached keys: misses between hits on one service, no cc",
        uses_cc: false,
    },
];

/// One end-to-end metric. Every workload reports every one of them; what
/// the workload's operation is, is in the README.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const LATENCY: &str = "latency_ms";
pub const THROUGHPUT: &str = "throughput_per_s";
pub const SETUP: &str = "setup_s";

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: LATENCY,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: THROUGHPUT,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: SETUP,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric. `exact` marks a count that must repeat exactly
/// from round to round and from run to run of one commit and seed.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

/// A count that repeats exactly; `lower` is the direction a saving shows.
const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // The workload's own numbers under the names the issue gave them,
    // taken from the untraced rounds of the traced run.
    time("cold_request_ms_p50", "ms"),
    rate("sgemm_gflops", "GFLOP/s"),
    rate("native_gflops_geomean", "GFLOP/s"),
    time("library_pass_ms_p50", "ms"),
    rate("tune_candidates_per_s", "1/s"),
    rate("hit_req_per_s", "1/s"),
    time("hit_latency_us_p50", "us"),
    time("miss_latency_ms_p50", "ms"),
    // Scheduling: lib, core, cursors.
    time("lib.schedule_ms", "ms"),
    count("lib.schedules", "count"),
    count("core.rewrites", "count"),
    rate("core.rewrites_per_s", "1/s"),
    time("cursors.find_loop_us", "us"),
    time("cursors.release_ms", "ms"),
    time("lib.replay_ms", "ms"),
    count("lib.replay_refused", "count"),
    // Autotuner funnel.
    time("autotune.generate_ms", "ms"),
    time("autotune.prune_ms", "ms"),
    count("autotune.sampled", "count"),
    count("autotune.static_rejected", "count"),
    count("autotune.illegal", "count"),
    count("autotune.survivors", "count"),
    rate("autotune.useful_ratio", "ratio"),
    count("autotune.best_cycles.sgemm", "cycles"),
    count("autotune.best_cycles.sgemv_n", "cycles"),
    count("autotune.best_cycles.blur2d", "cycles"),
    // Static verifier.
    time("analysis.verify_ms", "ms"),
    time("analysis.verify_us_per_proc_p50", "us"),
    count("analysis.diag_errors", "count"),
    count("analysis.diag_warnings", "count"),
    // Interpreter and cost simulator.
    time("interp.lower_ms", "ms"),
    count("interp.lowered_insts", "count"),
    time("interp.run_ms", "ms"),
    time("machine.simulate_ms", "ms"),
    count("machine.simulated_cycles", "cycles"),
    // C emission.
    time("codegen.emit_ms", "ms"),
    count("codegen.emitted_bytes", "B"),
    time("codegen.synth_inputs_us", "us"),
    time("codegen.emit_driver_us", "us"),
    count("codegen.obj_bytes.sgemm", "B"),
    count("codegen.obj_bytes.sgemv_n", "B"),
    count("codegen.obj_bytes.blur2d", "B"),
    // Supervised subprocesses.
    time("guard.cc_ms_p50", "ms"),
    time("guard.run_ms_p50", "ms"),
    time("guard.cc_share", "ratio"),
    count("guard.timeouts", "count"),
    count("guard.spawn_retries", "count"),
    // The service's request pipeline, from each response's RequestTrace.
    time("serve.replay_us_p50", "us"),
    time("serve.verify_us_p50", "us"),
    time("serve.emit_us_p50", "us"),
    time("serve.native_run_ms_p50", "ms"),
    time("serve.interp_us_p50", "us"),
    time("serve.overhead_us", "us"),
    time("serve.computed", "count"),
    time("serve.compiles", "count"),
    time("serve.binary_runs", "count"),
    count("serve.degradations", "count"),
    // The service's cache path.
    time("serve.request_key_us", "us"),
    time("ir.print_us", "us"),
    count("ir.printed_bytes", "B"),
    rate("serve.cache_hits", "count"),
    time("serve.coalesced", "count"),
    rate("serve.hit_ratio", "ratio"),
    time("serve.hit_latency_us_p99", "us"),
    time("serve.hit_latency_us_p999", "us"),
    rate("serve.miss_req_per_s", "1/s"),
    count("serve.overloaded", "count"),
    // Generated code on the host.
    time("codegen.sgemm.scalar_ns", "ns"),
    time("codegen.sgemm.avx2_ns", "ns"),
    time("codegen.sgemm.avx512_ns", "ns"),
    time("codegen.sgemv_n.scalar_ns", "ns"),
    time("codegen.sgemv_n.avx2_ns", "ns"),
    time("codegen.sgemv_n.avx512_ns", "ns"),
    time("codegen.blur2d.scalar_ns", "ns"),
    time("codegen.blur2d.avx2_ns", "ns"),
    time("codegen.blur2d.avx512_ns", "ns"),
    rate("codegen.sgemm.speedup_vs_scalar", "ratio"),
    rate("codegen.sgemv_n.speedup_vs_scalar", "ratio"),
    rate("codegen.blur2d.speedup_vs_scalar", "ratio"),
    time("codegen.sgemm.round_spread", "ratio"),
    time("codegen.sgemv_n.round_spread", "ratio"),
    time("codegen.blur2d.round_spread", "ratio"),
    rate("codegen.sgemv_n.gflops", "GFLOP/s"),
    rate("codegen.blur2d.gflops", "GFLOP/s"),
    count("codegen.unavailable_variants", "count"),
    rate("machine.peak_gflops_1t", "GFLOP/s"),
    rate("machine.stream_gbs", "GB/s"),
    rate("codegen.sgemm.peak_fraction", "ratio"),
    rate("codegen.sgemv_n.bw_fraction", "ratio"),
    // Whole-sample percentiles of the workload's operation (the
    // end-to-end value is the lower quartile of each class, not these).
    time("op.latency_ms_p50", "ms"),
    time("op.latency_ms_p90", "ms"),
    time("op.latency_ms_p99", "ms"),
    time("op.round_spread", "ratio"),
    rate("op.samples", "count"),
    // Process, host and the tracer itself.
    time("process.peak_rss_mb", "MB"),
    time("host.noise_pct", "%"),
    time("obs.trace_overhead_pct", "%"),
    time("obs.unattributed_pct", "%"),
    count("obs.dropped_spans", "count"),
];

/// The better direction of a declared metric.
pub fn better_of(name: &str) -> Better {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.better));
    let per_layer = PER_LAYER.iter().map(|m| (m.name, m.better));
    end_to_end
        .chain(per_layer)
        .find(|(n, _)| *n == name)
        .map_or(Better::Lower, |(_, better)| better)
}

/// Values of one run, keyed by a declared metric name.
#[derive(Default, Clone, Debug)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be declared above: a typo
    /// is a bug in the benchmark, so it panics.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in report.rs"));
        self.0.insert(declared, value);
    }

    /// The recorded value, or 0 for a layer the workload never entered.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one run of one workload produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every metric of the run's mode, in the
    /// declared order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn new(
        workload: &str,
        traced: bool,
        attempted: u64,
        failed: u64,
        values: &Metrics,
    ) -> RunResult {
        let metrics = if traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name.to_string(), values.get(m.name), m.unit.to_string()))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), values.get(m.name), m.unit.to_string()))
                .collect()
        };
        RunResult {
            workload: workload.to_string(),
            traced,
            correct: failed == 0 && attempted > 0,
            attempted,
            failed,
            metrics,
        }
    }

    /// The one-line JSON object a run prints last: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(name),
                json_number(*value),
                json_escape(unit)
            );
        }
        out.push_str("}}");
        out
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity, so
/// those (a bug upstream) print as 0 and the run is marked incorrect by
/// its caller.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The results file of a pass: one record per (workload, mode).
pub fn results_file(seed: u64, seconds: f64, results: &[RunResult]) -> String {
    let mut out = format!("{{\"seed\": {seed}, \"seconds\": {seconds}, \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let line = r.json_line();
        let _ = write!(
            out,
            "  {{\"workload\": \"{}\", \"trace\": {}, {}",
            json_escape(&r.workload),
            u8::from(r.traced),
            &line[1..]
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// Parses a results file back into its records.
pub fn parse_results(text: &str) -> Result<Vec<RunResult>, String> {
    let doc = parse_json(text)?;
    let Some(JsonValue::Arr(records)) = doc.get("results") else {
        return Err("missing `results` array".to_string());
    };
    records.iter().map(parse_record).collect()
}

fn parse_record(rec: &JsonValue) -> Result<RunResult, String> {
    let num = |key: &str| {
        rec.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("record without numeric `{key}`"))
    };
    let workload = rec
        .get("workload")
        .and_then(JsonValue::as_str)
        .ok_or("record without `workload`")?
        .to_string();
    let Some(JsonValue::Obj(members)) = rec.get("metrics") else {
        return Err(format!("`{workload}`: missing `metrics` object"));
    };
    let mut metrics = Vec::with_capacity(members.len());
    for (name, m) in members {
        let value = m
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("`{workload}`: metric `{name}` without `value`"))?;
        let unit = m
            .get("unit")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("`{workload}`: metric `{name}` without `unit`"))?;
        metrics.push((name.clone(), value, unit.to_string()));
    }
    Ok(RunResult {
        workload,
        traced: num("trace")? != 0.0,
        correct: rec.get("correct") == Some(&JsonValue::Bool(true)),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// Compares two results files of the same commit: every end-to-end metric
/// of every workload against its bound, and every exact count for
/// equality. Returns the printed table and whether anything breached.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let mut out = String::new();
    let mut breached = false;
    let _ = writeln!(
        out,
        "{:<16} {:<32} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.traced == ra.traced)
        else {
            let _ = writeln!(
                out,
                "{:<16} (trace {}) missing from B",
                ra.workload,
                u8::from(ra.traced)
            );
            breached = true;
            continue;
        };
        if !(ra.correct && rb.correct) {
            let _ = writeln!(out, "{:<16} a run is marked incorrect", ra.workload);
            breached = true;
        }
        for spec in END_TO_END.iter().filter(|_| !ra.traced) {
            let (Some(va), Some(vb)) = (ra.value(spec.name), rb.value(spec.name)) else {
                continue;
            };
            // How much worse B reads than A, as a share of A.
            let worse = match spec.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let bad = !worse.is_finite() || worse > spec.bound;
            breached |= bad;
            let _ = writeln!(
                out,
                "{:<16} {:<32} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
                ra.workload,
                spec.name,
                va,
                vb,
                worse * 100.0,
                spec.bound * 100.0,
                if bad { "BREACH" } else { "ok" }
            );
        }
        for spec in PER_LAYER.iter().filter(|m| m.exact && ra.traced) {
            let (Some(va), Some(vb)) = (ra.value(spec.name), rb.value(spec.name)) else {
                continue;
            };
            if va != vb {
                breached = true;
                let _ = writeln!(
                    out,
                    "{:<16} {:<32} {:>14} {:>14}  count differs  BREACH",
                    ra.workload, spec.name, va, vb
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "{}",
        if breached {
            "compare: BREACH (see above)"
        } else {
            "compare: every end-to-end metric within its bound, every exact count identical"
        }
    );
    (out, breached)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's limits on names and list sizes.
    fn validate_vocabulary() -> Result<(), String> {
        fn name_ok(name: &str) -> bool {
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        }
        fn unit_ok(unit: &str) -> bool {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        }
        if !(2..=8).contains(&WORKLOADS.len()) {
            return Err(format!("{} workloads, want 2..=8", WORKLOADS.len()));
        }
        if !(1..=16).contains(&END_TO_END.len()) {
            return Err(format!(
                "{} end-to-end metrics, want 1..=16",
                END_TO_END.len()
            ));
        }
        if !(1..=128).contains(&PER_LAYER.len()) {
            return Err(format!(
                "{} per-layer metrics, want 1..=128",
                PER_LAYER.len()
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            if !name_ok(name) {
                return Err(format!("bad name `{name}`"));
            }
            if !seen.insert(name) {
                return Err(format!("name `{name}` used twice"));
            }
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            if !unit_ok(unit) {
                return Err(format!("bad unit `{unit}`"));
            }
        }
        for w in WORKLOADS {
            if w.why.len() > 200 || w.why.contains('\n') {
                return Err(format!("`why` of `{}` is not one line of <= 200", w.name));
            }
        }
        for m in END_TO_END {
            if !(m.bound > 0.0 && m.bound <= 0.25) {
                return Err(format!("bound of `{}` outside (0, 0.25]", m.name));
            }
        }
        if !END_TO_END
            .iter()
            .any(|m| m.name == SETUP && m.unit == "s" && m.better == Better::Lower)
        {
            return Err("no `setup_s` in s, lower is better".to_string());
        }
        Ok(())
    }

    #[test]
    fn vocabulary_meets_the_contract() {
        validate_vocabulary().unwrap();
    }

    fn sample(traced: bool, latency: f64, rewrites: f64) -> RunResult {
        let mut m = Metrics::default();
        m.set(LATENCY, latency);
        m.set(THROUGHPUT, 1000.0 / latency);
        m.set(SETUP, 0.5);
        m.set("core.rewrites", rewrites);
        RunResult::new("sched_library", traced, 10, 0, &m)
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let r = sample(false, 61.25, 1571.0);
        let line = r.json_line();
        let doc = parse_json(&line).unwrap();
        let JsonValue::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let JsonValue::Obj(metrics) = doc.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let latency = doc.get("metrics").unwrap().get(LATENCY).unwrap();
        assert_eq!(latency.get("value").unwrap().as_f64(), Some(61.25));
        assert_eq!(latency.get("unit").unwrap().as_str(), Some("ms"));

        let traced = sample(true, 61.25, 1571.0);
        let file = results_file(7, 10.0, &[r.clone(), traced.clone()]);
        let back = parse_results(&file).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].metrics, r.metrics);
        assert!(back[1].traced && back[1].correct);
        assert_eq!(back[1].metrics.len(), PER_LAYER.len());
        assert_eq!(back[1].value("core.rewrites"), Some(1571.0));
    }

    #[test]
    fn a_failed_operation_or_a_non_finite_value_never_reads_as_correct() {
        let mut m = Metrics::default();
        m.set(LATENCY, f64::NAN);
        let r = RunResult::new("tune_search", false, 5, 1, &m);
        assert!(!r.correct);
        assert!(parse_json(&r.json_line()).is_ok());
        assert!(!RunResult::new("tune_search", false, 0, 0, &m).correct);
    }

    #[test]
    fn compare_flags_a_breach_and_a_differing_count() {
        let base = [sample(false, 100.0, 1571.0), sample(true, 100.0, 1571.0)];
        let same = [sample(false, 104.0, 1571.0), sample(true, 104.0, 1571.0)];
        let (_, breached) = compare(&base, &same);
        assert!(!breached);
        let slow = [sample(false, 130.0, 1571.0), sample(true, 100.0, 1571.0)];
        let (table, breached) = compare(&base, &slow);
        assert!(breached && table.contains("BREACH"));
        // Faster is never a breach.
        let fast = [sample(false, 50.0, 1571.0), sample(true, 100.0, 1571.0)];
        assert!(!compare(&base, &fast).1);
        let drift = [sample(false, 100.0, 1571.0), sample(true, 100.0, 1570.0)];
        let (table, breached) = compare(&base, &drift);
        assert!(breached && table.contains("count differs"));
        assert!(compare(&base, &base[..1]).1, "a missing record is a breach");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_name_is_a_bug() {
        Metrics::default().set("no.such.metric", 1.0);
    }

    /// `BENCHMARK.json` lists exactly what the binary prints.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = parse_json(&text).unwrap();
        let list = |key: &str| -> Vec<JsonValue> {
            match doc.get(key) {
                Some(JsonValue::Arr(items)) => items.clone(),
                _ => panic!("`{key}` is not an array"),
            }
        };
        let s =
            |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).unwrap().to_string();

        let got: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(got, want);

        let got: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap();
                (s(m, "name"), s(m, "unit"), s(m, "better"), bound)
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(got, want);

        let got: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                )
            })
            .collect();
        assert_eq!(got, want);

        let run_seconds = doc.get("run_seconds").and_then(JsonValue::as_f64);
        assert_eq!(run_seconds, Some(crate::RUN_SECONDS as f64));

        let JsonValue::Obj(members) = &doc else {
            panic!("not an object")
        };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
