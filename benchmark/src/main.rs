//! The repo's benchmark: five workloads, three end-to-end metrics on each,
//! per-layer numbers from a traced run. See README.md beside this
//! package's manifest and BENCHMARK.json at the repo root.
//!
//! ```text
//! benchmark                         every workload, untraced then traced
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! benchmark --smoke                 a reduced pass over everything
//! benchmark --out R.json            also write a results file
//! benchmark --compare A.json B.json compare two results files
//! ```

mod host;
mod report;
mod stats;
mod workloads;

use host::{noise_pct, peak_rss_mb, sentinel_ns, Scratch, SPAWN_RETRIES, TIMEOUTS};
use report::{Metrics, RunResult, LATENCY, SETUP, THROUGHPUT, WORKLOADS};
use stats::{fold_self_times, median, percentile, round_spread, Better, Sample};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use workloads::{Ctx, Round, Unavailable, Workload};

/// Rounds of a measured run (two in a smoke pass): the sentinel is timed
/// between them, and each prints its own reading.
const ROUNDS: usize = 5;
/// Set-ups of a measured run; `setup_s` is their median. Fewer where
/// another one (as long as those so far) would overrun the budget, which
/// keeps a run of `RUN_SECONDS` under 30 s: `kernel_runtime` sets up twice.
const MAX_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(12);
/// A sentinel deviation above this marks the run as noisy.
const NOISY_PCT: f64 = 10.0;
/// `run_seconds` of BENCHMARK.json, and the default of `--seconds`.
const RUN_SECONDS: u64 = 15;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("`{flag}` needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "no workload `{name}`; there are {}",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file")?.into()),
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Running totals of a run's rounds.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    rate_samples: Vec<Sample>,
    /// The end-to-end estimate of each round by itself.
    round_latency: Vec<f64>,
    round_throughput: Vec<f64>,
    sentinel: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn start() -> Tally {
        Tally {
            sentinel: vec![sentinel_ns()],
            ..Tally::default()
        }
    }

    fn add(&mut self, round: &Round, workload: &dyn Workload) {
        let (latency, throughput) = workload.end_to_end(&round.samples, round.rate_samples());
        self.round_latency.push(latency);
        self.round_throughput.push(throughput);
        self.samples.extend_from_slice(&round.samples);
        self.rate_samples.extend_from_slice(round.rate_samples());
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.sentinel.push(sentinel_ns());
    }

    fn noise_note(&self) -> String {
        let noise = noise_pct(&self.sentinel);
        format!(
            "host noise {noise:.1}%{}",
            if noise > NOISY_PCT { " (noisy)" } else { "" }
        )
    }
}

/// The measured run: set-ups, then rounds of `seconds / ROUNDS` each with
/// tracing off. The end-to-end values are read off the samples of all
/// rounds together; a round's own reading is printed beside it.
fn run_measured(
    name: &str,
    ctx: &Ctx,
    seconds: f64,
    probe_s: f64,
) -> Result<RunResult, Unavailable> {
    let max_setups = if ctx.smoke { 1 } else { MAX_SETUPS };
    let mut setup_s = Vec::with_capacity(max_setups);
    let mut workload = None;
    let started = Instant::now();
    loop {
        // The previous instance goes first: its service threads and
        // compiled binaries must not stand beside the next one's.
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(workloads::setup(name, ctx)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        let so_far = started.elapsed();
        if setup_s.len() == max_setups || so_far + so_far / setup_s.len() as u32 > SETUP_BUDGET {
            break;
        }
    }
    let mut workload = workload.expect("at least one set-up");
    let rounds = if ctx.smoke { 2 } else { ROUNDS };
    let slice = Duration::from_secs_f64(seconds / rounds as f64);
    let mut tally = Tally::start();
    for r in 0..rounds {
        let round = workload.round(Some(slice));
        tally.add(&round, workload.as_ref());
        println!(
            "  round {r}  latency {:>12.4} ms  throughput {:>14.3} /s  ops {:>8}  failed {}",
            tally.round_latency[r], tally.round_throughput[r], round.attempted, round.failed,
        );
    }
    let (checked, wrong) = workload.verify();
    tally.attempted += checked;
    tally.failed += wrong;

    let mut values = Metrics::default();
    let (latency, throughput) = workload.end_to_end(&tally.samples, &tally.rate_samples);
    values.set(LATENCY, latency);
    values.set(THROUGHPUT, throughput);
    // The host probe is cached for the process; a set-up in a process of
    // its own would pay it.
    values.set(SETUP, probe_s + median(&setup_s));
    println!(
        "  {} set-ups of {:.3}..{:.3} s, and {probe_s:.3} s of host probe",
        setup_s.len(),
        percentile(&setup_s, 0.0),
        percentile(&setup_s, 1.0)
    );
    println!(
        "  {} samples; rounds disagree by {:.1}% (latency), {:.1}% (throughput); {}; \
         output checks {checked}, wrong {wrong}",
        tally.samples.len(),
        round_spread(&tally.round_latency, Better::Lower) * 100.0,
        round_spread(&tally.round_throughput, Better::Higher) * 100.0,
        tally.noise_note()
    );
    let mut result = RunResult::new(name, false, tally.attempted, tally.failed, &values);
    result.correct &= result
        .metrics
        .iter()
        .all(|(_, v, _)| v.is_finite() && *v > 0.0);
    Ok(result)
}

/// The traced run: fixed rounds, alternately with tracing off and inside a
/// trace session, until `seconds` have passed. Counts must repeat from
/// round to round; the last session's trace is validated and kept.
fn run_traced(
    name: &str,
    ctx: &Ctx,
    seconds: f64,
    scratch: &Scratch,
) -> Result<RunResult, Unavailable> {
    let mut workload = workloads::setup(name, ctx)?;
    let mut tally = Tally::start();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut counts: Option<Vec<(&'static str, u64)>> = None;
    let start = Instant::now();
    let (trace, folded) = loop {
        let t0 = Instant::now();
        let round = workload.round(None);
        plain_s.push(t0.elapsed().as_secs_f64());
        tally.add(&round, workload.as_ref());
        if counts.as_ref().is_some_and(|c| *c != round.counts) {
            eprintln!(
                "{name}: counts changed between rounds: {counts:?} then {:?}",
                round.counts
            );
            tally.failed += 1;
        }
        counts = Some(round.counts);

        let session = exo_obs::session();
        let t0 = Instant::now();
        let round = {
            let _root = exo_obs::span!("bench:round", "{}", name);
            workload.traced_round()
        };
        traced_s.push(t0.elapsed().as_secs_f64());
        let trace = session.finish();
        tally.attempted += round.attempted;
        tally.failed += round.failed;
        tally.sentinel.push(sentinel_ns());
        println!(
            "  fixed round: untraced {:.3} s, traced {:.3} s, {} records",
            plain_s[plain_s.len() - 1],
            traced_s[traced_s.len() - 1],
            trace.records.len()
        );
        // Stop once another pair of rounds would overrun the budget.
        let pair = start.elapsed().as_secs_f64() / plain_s.len() as f64;
        if start.elapsed().as_secs_f64() + pair > seconds {
            let folded = fold_self_times(&trace, "bench:");
            break (trace, folded);
        }
    };

    let mut values = Metrics::default();
    for (count_name, value) in counts.iter().flatten() {
        values.set(count_name, *value as f64);
    }
    // The workload's operation as a user on this host saw it: the median
    // of every sample, and work over the time it took, interference
    // included. (The end-to-end metrics read the quiet quantile instead.)
    let times_ms: Vec<f64> = tally.samples.iter().map(|s| s.ms).collect();
    let latency = median(&times_ms);
    let throughput = tally.rate_samples.iter().map(|s| s.units).sum::<f64>()
        / tally.rate_samples.iter().map(|s| s.ms / 1e3).sum::<f64>();
    match name {
        "cold_native" => values.set("cold_request_ms_p50", latency),
        "sched_library" => values.set("library_pass_ms_p50", latency),
        "tune_search" => values.set("tune_candidates_per_s", throughput),
        "serve_mixed" => {
            values.set("miss_latency_ms_p50", latency);
            values.set("hit_req_per_s", throughput);
        }
        _ => {}
    }
    workload.layer_metrics(&folded, &mut values);
    values.set("op.latency_ms_p50", latency);
    values.set("op.latency_ms_p90", percentile(&times_ms, 0.9));
    values.set("op.latency_ms_p99", percentile(&times_ms, 0.99));
    values.set(
        "op.round_spread",
        round_spread(&tally.round_latency, Better::Lower),
    );
    values.set("op.samples", times_ms.len() as f64);
    values.set("process.peak_rss_mb", peak_rss_mb());
    values.set("host.noise_pct", noise_pct(&tally.sentinel));
    let plain = median(&plain_s);
    values.set(
        "obs.trace_overhead_pct",
        (median(&traced_s) - plain) / plain * 100.0,
    );
    let roots = match workload.lane_roots() {
        [] => &["bench:round"][..],
        roots => roots,
    };
    values.set("obs.unattributed_pct", folded.unattributed(roots) * 100.0);
    values.set("obs.dropped_spans", trace.dropped as f64);
    values.set(
        "guard.timeouts",
        values.get("guard.timeouts") + TIMEOUTS.load(Ordering::Relaxed) as f64,
    );
    values.set(
        "guard.spawn_retries",
        SPAWN_RETRIES.load(Ordering::Relaxed) as f64,
    );

    let (checked, wrong) = workload.verify();
    tally.attempted += checked;
    tally.failed += wrong;
    // The trace must be complete, well nested, and on disk.
    let chrome = exo_obs::chrome_trace(&trace);
    let path = scratch.artifact(&format!("trace_{name}.json"));
    match exo_obs::validate_chrome_trace(&chrome) {
        Ok(check) if trace.dropped == 0 => println!(
            "  trace: {} spans on {} lanes, depth {}, none dropped -> {}",
            check.spans,
            check.lanes,
            check.max_depth,
            path.display()
        ),
        Ok(_) => {
            eprintln!("{name}: the collector dropped {} records", trace.dropped);
            tally.failed += 1;
        }
        Err(why) => {
            eprintln!("{name}: the trace is not valid: {why}");
            tally.failed += 1;
        }
    }
    if let Err(e) = std::fs::write(&path, chrome) {
        eprintln!("{name}: cannot write {}: {e}", path.display());
        tally.failed += 1;
    }
    println!("  {}", tally.noise_note());
    Ok(RunResult::new(
        name,
        true,
        tally.attempted,
        tally.failed,
        &values,
    ))
}

fn print_result(result: &RunResult) {
    for (name, value, unit) in &result.metrics {
        let better = report::better_of(name).name();
        println!("  {name:<36} {value:>18.4} {unit:<8} {better} is better");
    }
    println!(
        "  attempted {}  failed {}  correct {}",
        result.attempted, result.failed, result.correct
    );
    println!("{}", result.json_line());
}

fn compare_files(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let load = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {}: {e}", p.display()))
            .and_then(|text| {
                report::parse_results(&text).map_err(|e| format!("{}: {e}", p.display()))
            })
    };
    let (table, breached) = report::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(breached)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare_files(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(why) => {
                eprintln!("benchmark: {why}");
                ExitCode::from(2)
            }
        };
    }
    let scratch = match Scratch::create() {
        Ok(scratch) => scratch,
        Err(why) => {
            eprintln!("benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    // Forced here so that no request's `emit` step is billed for it; its
    // time is part of the set-up of the workloads that use `cc`.
    let t0 = Instant::now();
    let caps = exo_machine::HostCaps {
        openmp: false,
        ..exo_machine::HostCaps::detect().clone()
    };
    let probe_s = t0.elapsed().as_secs_f64();
    println!("host: {} (probed in {probe_s:.3} s)", caps.summary());
    let ctx = Ctx {
        seed: args.seed,
        smoke: args.smoke,
        caps,
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.5 } else { RUN_SECONDS as f64 });
    let chosen = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name));
    let modes: Vec<bool> = args.trace.map_or(vec![false, true], |traced| vec![traced]);

    let mut results = Vec::new();
    let mut unavailable = 0;
    for &report::WorkloadSpec { name, why, uses_cc } in chosen {
        for &traced in &modes {
            println!(
                "== {name} ({}, seed {}, {seconds} s): {why}",
                if traced { "traced" } else { "untraced" },
                args.seed
            );
            let outcome = if traced {
                run_traced(name, &ctx, seconds, &scratch)
            } else {
                run_measured(name, &ctx, seconds, if uses_cc { probe_s } else { 0.0 })
            };
            match outcome {
                Ok(result) => {
                    print_result(&result);
                    results.push(result);
                }
                Err(Unavailable(why)) => {
                    println!("  unavailable: {why}");
                    unavailable += 1;
                    break;
                }
            }
        }
    }
    if let Some(path) = &args.out {
        let text = report::results_file(args.seed, seconds, &results);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    drop(scratch);
    // A single workload that cannot run here has no result to print: that
    // is an error. In a full pass the others still count.
    if results.is_empty() || (args.workload.is_some() && unavailable > 0) {
        return ExitCode::from(3);
    }
    if results.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
