//! What the benchmark needs from the host: a scratch directory inside the
//! checkout, a noise sentinel, the process's peak memory, timing drivers
//! for compiled C, and the roofline probes.

use exo_codegen::difftest::compile;
use exo_guard::{run_guarded, GuardConfig};
use exo_machine::HostCaps;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Deadline of one timing-binary launch: budgets are a few hundred ms, so
/// a minute means it hangs.
const LAUNCH_DEADLINE: Duration = Duration::from_secs(60);

/// Spawn retries `run_guarded` needed across the benchmark's own launches.
pub static SPAWN_RETRIES: AtomicU64 = AtomicU64::new(0);
/// The benchmark's own launches that hit their deadline.
pub static TIMEOUTS: AtomicU64 = AtomicU64::new(0);

/// The benchmark's scratch directory: traces and every temp file of the
/// run. It lies beside the executable, inside Cargo's target directory
/// and so inside the checkout, and `TMPDIR` is pointed into it so that the
/// library's `cc` invocations stay inside the checkout as well.
pub struct Scratch {
    root: PathBuf,
    tmp: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("the executable has no target directory above it")?;
        let root = target.join("benchmark-out");
        let tmp = root.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&tmp)
            .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        // Set before any thread exists; `std::env::temp_dir` and `cc` read it.
        std::env::set_var("TMPDIR", &tmp);
        Ok(Scratch { root, tmp })
    }

    /// Where a named artifact (a trace) of this run goes.
    pub fn artifact(&self, file: &str) -> PathBuf {
        self.root.join(file)
    }
}

impl Drop for Scratch {
    /// Every temp file of the run goes, on success and on failure.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// Removes the temp directory a compiled artifact lives in when dropped.
pub struct Compiled {
    pub bin: PathBuf,
}

impl Compiled {
    /// Compiles `source` with the difftest harness's `cc` invocation.
    pub fn new(source: &str, cflags: &[String], tag: &str) -> Result<Compiled, String> {
        compile(source, cflags, tag).map(|bin| Compiled { bin })
    }

    /// Size of the artifact in bytes.
    pub fn size(&self) -> u64 {
        std::fs::metadata(&self.bin).map_or(0, |m| m.len())
    }
}

impl Drop for Compiled {
    fn drop(&mut self) {
        if let Some(dir) = self.bin.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A fixed pure-CPU spin: no allocation, no system call. Timed before and
/// after every round; its worst deviation from its own best is the run's
/// `host.noise_pct`.
pub fn sentinel_ns() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..5_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64
}

/// `(max - min) / min` of the sentinel samples, in percent.
pub fn noise_pct(samples: &[f64]) -> f64 {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0, f64::max);
    if samples.is_empty() || min <= 0.0 {
        0.0
    } else {
        (max - min) / min * 100.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of every timing source: `clock_gettime` is POSIX and
/// `-std=c99` hides it unless asked for before the first include.
pub const TIMING_PRELUDE: &str = "#define _POSIX_C_SOURCE 199309L\n";

/// A `main` that runs `setup`, warms `call` twice, doubles a repetition
/// count until one batch lasts 20 ms, then times batches until
/// `$EXO_BENCH_SECONDS` have passed (three at least) and prints each
/// batch's nanoseconds per call. (The
/// budget comes through the environment because the difftest harness
/// links a source only if it reads `int main(void)`.)
pub fn timing_main(setup: &str, call: &str) -> String {
    format!(
        "\n#include <stdio.h>\n#include <stdlib.h>\n#include <time.h>\n\n\
         static double exo_now_ns(void) {{\n    \
         struct timespec exo_t;\n    \
         clock_gettime(CLOCK_MONOTONIC, &exo_t);\n    \
         return (double)exo_t.tv_sec * 1e9 + (double)exo_t.tv_nsec;\n}}\n\n\
         int main(void) {{\n    \
         const char *exo_env = getenv(\"EXO_BENCH_SECONDS\");\n    \
         double exo_budget = (exo_env ? atof(exo_env) : 0.2) * 1e9;\n\
         {setup}    \
         {call}\n    {call}\n    \
         long exo_reps = 1;\n    \
         for (;;) {{\n        \
         double exo_t0 = exo_now_ns();\n        \
         for (long exo_r = 0; exo_r < exo_reps; exo_r++) {{ {call} }}\n        \
         if (exo_now_ns() - exo_t0 >= 2e7 || exo_reps >= (1L << 20)) break;\n        \
         exo_reps *= 2;\n    }}\n    \
         double exo_start = exo_now_ns();\n    \
         int exo_batches = 0;\n    \
         do {{\n        \
         double exo_t0 = exo_now_ns();\n        \
         for (long exo_r = 0; exo_r < exo_reps; exo_r++) {{ {call} }}\n        \
         printf(\"%.17g\\n\", (exo_now_ns() - exo_t0) / (double)exo_reps);\n        \
         exo_batches++;\n    \
         }} while (exo_batches < 3 || exo_now_ns() - exo_start < exo_budget);\n    \
         return 0;\n}}\n"
    )
}

/// Launches a timing binary for about `budget` and returns its fastest
/// batch's nanoseconds per call.
pub fn launch_fastest_ns(bin: &Path, budget: Duration) -> Result<f64, String> {
    let _span = exo_obs::span!("bench:guard.run", "{}", bin.display());
    let mut cmd = Command::new(bin);
    cmd.env("EXO_BENCH_SECONDS", budget.as_secs_f64().to_string());
    let out = run_guarded(&mut cmd, &GuardConfig::with_timeout(LAUNCH_DEADLINE)).map_err(|e| {
        if e.is_timeout() {
            TIMEOUTS.fetch_add(1, Ordering::Relaxed);
        }
        format!("running {}: {e}", bin.display())
    })?;
    SPAWN_RETRIES.fetch_add(u64::from(out.attempts.saturating_sub(1)), Ordering::Relaxed);
    if !out.success {
        return Err(format!("{} exited with {:?}", bin.display(), out.code));
    }
    let mut fastest = f64::INFINITY;
    for token in out.stdout_lossy().split_ascii_whitespace() {
        match token.parse::<f64>() {
            Ok(ns) if ns.is_finite() && ns > 0.0 => fastest = fastest.min(ns),
            _ => return Err(format!("bad timing output `{token}`")),
        }
    }
    if fastest.is_finite() {
        Ok(fastest)
    } else {
        Err(format!("{} printed no timing", bin.display()))
    }
}

/// Accumulators of the FMA probe: enough independent chains to fill two
/// FMA pipes of four-cycle latency, few enough to stay in registers.
const FMA_CHAINS: usize = 12;
const FMA_ITERS: u64 = 100_000;
/// Elements per array of the triad probe: 128 MB each, so that the three
/// arrays exceed the 260 MB last-level cache of the reference host.
const TRIAD_ELEMS: u64 = 1 << 25;

/// The FMA-throughput micro-kernel for the widest vector unit the host
/// executes: `(C source, cflags, flops per call)`.
fn fma_probe(caps: &HostCaps) -> (String, Vec<String>, f64) {
    let (ty, set1, fma, store, lanes, flags): (_, _, _, _, u64, &[&str]) = if caps.avx512f {
        (
            "__m512",
            "_mm512_set1_ps",
            "_mm512_fmadd_ps",
            "_mm512_storeu_ps",
            16,
            &["-mavx512f"],
        )
    } else if caps.avx2 && caps.fma {
        (
            "__m256",
            "_mm256_set1_ps",
            "_mm256_fmadd_ps",
            "_mm256_storeu_ps",
            8,
            &["-mavx2", "-mfma"],
        )
    } else {
        ("float", "", "", "", 1, &[])
    };
    let mut body = String::new();
    if lanes > 1 {
        body.push_str("#include <immintrin.h>\n");
    }
    body.push_str("__attribute__((noinline)) static float exo_fma_probe(long iters) {\n");
    for k in 0..FMA_CHAINS {
        body.push_str(&format!("    {ty} a{k} = {set1}(1.0f + {k}e-3f);\n"));
    }
    body.push_str(&format!(
        "    {ty} b = {set1}(0.999f);\n    {ty} c = {set1}(1e-6f);\n    \
         for (long i = 0; i < iters; i++) {{\n"
    ));
    for k in 0..FMA_CHAINS {
        if lanes > 1 {
            body.push_str(&format!("        a{k} = {fma}(a{k}, b, c);\n"));
        } else {
            body.push_str(&format!("        a{k} = a{k} * b + c;\n"));
        }
    }
    body.push_str("    }\n");
    for k in 1..FMA_CHAINS {
        if lanes > 1 {
            body.push_str(&format!("    a0 = {fma}(a{k}, b, a0);\n"));
        } else {
            body.push_str(&format!("    a0 = a{k} * b + a0;\n"));
        }
    }
    if lanes > 1 {
        body.push_str(&format!(
            "    float out[{lanes}];\n    {store}(out, a0);\n    return out[0];\n}}\n"
        ));
    } else {
        body.push_str("    return a0;\n}\n");
    }
    let source = format!(
        "{TIMING_PRELUDE}{body}{}",
        // A volatile count: the probe is a pure function, and a constant
        // argument would let the compiler call it once for all repetitions.
        timing_main(
            &format!(
                "    volatile float exo_sink = 0.0f;\n    volatile long exo_iters = {FMA_ITERS};\n"
            ),
            "exo_sink += exo_fma_probe(exo_iters);"
        )
    );
    let flops = (FMA_ITERS * FMA_CHAINS as u64 * lanes * 2) as f64;
    (source, flags.iter().map(|f| f.to_string()).collect(), flops)
}

/// The stream-triad probe: `(C source, cflags, bytes moved per call)`.
fn triad_probe(caps: &HostCaps) -> (String, Vec<String>, f64) {
    let n = TRIAD_ELEMS;
    let body = "__attribute__((noinline)) static void exo_triad(float *restrict a, const float *restrict b, \
                const float *restrict c, long n) {\n    \
                for (long i = 0; i < n; i++) a[i] = b[i] + 3.0f * c[i];\n}\n";
    let setup = format!(
        "    float *a = (float *)malloc(sizeof(float) * {n});\n    \
         float *b = (float *)malloc(sizeof(float) * {n});\n    \
         float *c = (float *)malloc(sizeof(float) * {n});\n    \
         if (!a || !b || !c) return 2;\n    \
         for (long i = 0; i < {n}; i++) {{ a[i] = 0.0f; b[i] = (float)(i % 7); c[i] = (float)(i % 5); }}\n"
    );
    let source = format!(
        "{TIMING_PRELUDE}{body}{}",
        timing_main(&setup, &format!("exo_triad(a, b, c, {n});"))
    );
    let mut flags = vec!["-O3".to_string()];
    if caps.avx2 {
        flags.push("-mavx2".to_string());
    }
    (source, flags, (3 * 4 * n) as f64)
}

/// The measured roofline of one core: peak single-precision GFLOP/s from
/// the FMA probe and GB/s from the triad, each from the fastest batch of
/// `launches` launches (the estimator the kernels are timed with).
pub fn roofline(caps: &HostCaps, launches: usize, budget: Duration) -> Result<(f64, f64), String> {
    let fastest_ns = |source: &str, flags: &[String], tag: &str| -> Result<f64, String> {
        let bin = Compiled::new(source, flags, tag)?;
        (0..launches).try_fold(f64::INFINITY, |fastest, _| {
            launch_fastest_ns(&bin.bin, budget).map(|ns| fastest.min(ns))
        })
    };
    let (source, flags, flops) = fma_probe(caps);
    let peak_gflops = flops / fastest_ns(&source, &flags, "roofline_fma")?;
    let (source, flags, bytes) = triad_probe(caps);
    let stream_gbs = bytes / fastest_ns(&source, &flags, "roofline_triad")?;
    Ok((peak_gflops, stream_gbs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_the_worst_deviation_from_the_best_sample() {
        assert_eq!(noise_pct(&[]), 0.0);
        assert!((noise_pct(&[100.0, 104.0, 110.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn probes_match_the_host_they_are_built_for() {
        let wide = HostCaps {
            cc: true,
            avx2: true,
            fma: true,
            avx512f: true,
            openmp: false,
            threads: 2,
        };
        let (src, flags, flops) = fma_probe(&wide);
        assert!(src.contains("_mm512_fmadd_ps") && flags == ["-mavx512f"]);
        assert_eq!(flops, (FMA_ITERS * 12 * 16 * 2) as f64);
        let (src, flags, flops) = fma_probe(&HostCaps::none());
        assert!(!src.contains("immintrin") && flags.is_empty());
        assert_eq!(flops, (FMA_ITERS * 12 * 2) as f64);
        let (src, _, bytes) = triad_probe(&HostCaps::none());
        assert!(src.starts_with(TIMING_PRELUDE) && src.contains("exo_triad(a, b, c,"));
        assert_eq!(bytes, (3 * 4 * TRIAD_ELEMS) as f64);
    }
}
