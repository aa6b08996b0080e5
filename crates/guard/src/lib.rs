//! # exo-guard — supervised subprocess execution
//!
//! Every external process the toolchain runs — the system C compiler,
//! compiled differential-test binaries, timing drivers — is a fault
//! boundary: a miscompiled kernel can loop forever, a compiler can wedge
//! on a pathological translation unit, and a `Command::output()` call
//! with no timeout then hangs the calling thread (and under
//! `std::thread::scope`, the whole process) indefinitely.
//!
//! [`run_guarded`] is the single supervised runner the workspace uses
//! instead of bare `Command::output()`:
//!
//! * **hard wall-clock timeout** — the child is polled with
//!   `try_wait`; past the deadline it and everything it started are
//!   killed (each child is the leader of its own process group, and the
//!   group is signalled), it is reaped, and the call returns
//!   [`GuardError::TimedOut`] with whatever output was captured;
//! * **bounded output capture** — stdout/stderr are drained on
//!   capture threads into buffers capped at
//!   [`GuardConfig::max_output_bytes`]; a runaway printer cannot exhaust
//!   memory, and the pipes keep draining so the child never blocks on a
//!   full pipe;
//! * **retry with exponential backoff** — *spawn* failures (transient
//!   EAGAIN-class errors) are retried up to
//!   [`GuardConfig::spawn_retries`] times with doubling sleeps; failures
//!   of the process itself (non-zero exit) are never retried, they are
//!   reported;
//! * **no unbounded joins** — capture results are received over
//!   channels with a bounded grace period, so even a grandchild that
//!   inherits the pipe and outlives the kill cannot hang the caller.
//!
//! The crate is deliberately free of external dependencies (its only
//! workspace dependency is the equally dependency-free `exo-obs`
//! tracing substrate) and panic-free on all library paths (the clippy
//! deny below enforces the latter).
//! `exo-serve` re-exports it as `exo_serve::proc_guard`; `exo-codegen`'s
//! differential harness and `exo-autotune`'s measurement workers consume
//! it directly.
//!
//! When tracing is enabled ([`exo_obs::enable`]), every supervised run
//! records a `guard:run` span with `guard:spawn` / `guard:wait` /
//! `guard:kill` child phases, plus `guard:retry` and `guard:timeout`
//! events — so a trace of a serve or difftest workload shows exactly
//! where subprocess wall-clock went.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::any::Any;
use std::fmt;
use std::io::Read;
#[cfg(unix)]
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The supervisor sleeps `elapsed / POLL_DIVISOR` between two `try_wait`
/// polls, clamped to `[POLL_MIN, POLL_MAX]`: a child is noticed at most
/// an eighth of its own run time late, so short children are not
/// quantised and long ones are polled at the old 5 ms. Measured on the
/// 2-core development host, median of 200 runs: `true` returns in 2.0 ms
/// (5.8 ms under the fixed 5 ms interval this replaces; a blocking
/// `Command::output` takes 1.5 ms) and `sleep 0.0015` in 3.7 ms (6.1 ms;
/// 3.1 ms blocking); a 100 ms `cc` is polled ≈ 50 times instead of 20,
/// about a microsecond of `waitpid` each.
const POLL_DIVISOR: u32 = 8;
const POLL_MIN: Duration = Duration::from_micros(50);
const POLL_MAX: Duration = Duration::from_millis(5);

/// How long to wait for the capture threads after the child has been
/// reaped. Normally the pipes close with the child and the receive is
/// immediate; a grandchild holding the pipe open makes the receive time
/// out and the capture is reported as truncated instead of blocking.
const CAPTURE_GRACE: Duration = Duration::from_secs(2);

/// Supervision policy for one subprocess invocation.
#[derive(Clone, Debug)]
pub struct GuardConfig {
    /// Hard wall-clock limit measured from (each) successful spawn; the
    /// child is killed when it is exceeded.
    pub timeout: Duration,
    /// Capture cap per stream; output beyond it is drained and dropped,
    /// and the stream is marked truncated.
    pub max_output_bytes: usize,
    /// How many times a *failed spawn* is retried (so up to
    /// `spawn_retries + 1` attempts in total).
    pub spawn_retries: u32,
    /// Sleep before the first spawn retry; doubles on every further
    /// retry.
    pub backoff_base: Duration,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            timeout: Duration::from_secs(120),
            max_output_bytes: 1 << 20,
            spawn_retries: 2,
            backoff_base: Duration::from_millis(50),
        }
    }
}

impl GuardConfig {
    /// The default policy with a different wall-clock limit.
    pub fn with_timeout(timeout: Duration) -> Self {
        GuardConfig {
            timeout,
            ..GuardConfig::default()
        }
    }

    /// Backoff before retry number `retry` (1-based): `backoff_base`
    /// doubled per retry, saturating.
    fn backoff_for(&self, retry: u32) -> Duration {
        self.backoff_base.saturating_mul(
            1u32.checked_shl(retry.saturating_sub(1))
                .unwrap_or(u32::MAX),
        )
    }
}

/// A completed (exited-by-itself) supervised invocation.
#[derive(Clone, Debug)]
pub struct GuardedOutput {
    /// Whether the child exited with status zero.
    pub success: bool,
    /// The exit code, when the platform reports one.
    pub code: Option<i32>,
    /// Captured stdout, capped at [`GuardConfig::max_output_bytes`].
    pub stdout: Vec<u8>,
    /// Captured stderr, capped at [`GuardConfig::max_output_bytes`].
    pub stderr: Vec<u8>,
    /// Whether stdout exceeded the cap (or its capture timed out).
    pub stdout_truncated: bool,
    /// Whether stderr exceeded the cap (or its capture timed out).
    pub stderr_truncated: bool,
    /// Spawn attempts used (1 unless spawn retries fired).
    pub attempts: u32,
    /// Wall-clock time from the last spawn to child exit.
    pub elapsed: Duration,
}

impl GuardedOutput {
    /// Captured stdout as (lossy) UTF-8.
    pub fn stdout_lossy(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }

    /// Captured stderr as (lossy) UTF-8.
    pub fn stderr_lossy(&self) -> String {
        String::from_utf8_lossy(&self.stderr).into_owned()
    }
}

/// Why a supervised invocation produced no [`GuardedOutput`].
#[derive(Clone, Debug)]
pub enum GuardError {
    /// The process could not be spawned, even after the configured
    /// retries.
    Spawn {
        /// Total spawn attempts made.
        attempts: u32,
        /// The last OS error.
        message: String,
    },
    /// The child exceeded the wall-clock limit and was killed.
    TimedOut {
        /// The limit that was exceeded.
        timeout: Duration,
        /// Stdout captured before the kill.
        stdout: Vec<u8>,
        /// Stderr captured before the kill.
        stderr: Vec<u8>,
    },
    /// The child's status could not be observed (`try_wait` failed).
    Wait {
        /// The OS error.
        message: String,
    },
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardError::Spawn { attempts, message } => {
                write!(f, "spawn failed after {attempts} attempt(s): {message}")
            }
            GuardError::TimedOut { timeout, .. } => {
                write!(f, "killed after exceeding the {timeout:?} wall-clock limit")
            }
            GuardError::Wait { message } => write!(f, "cannot observe child status: {message}"),
        }
    }
}

impl std::error::Error for GuardError {}

/// Whether the error is the timeout kill (callers often degrade rather
/// than fail on this).
impl GuardError {
    /// True for [`GuardError::TimedOut`].
    pub fn is_timeout(&self) -> bool {
        matches!(self, GuardError::TimedOut { .. })
    }
}

/// Reads a stream to EOF, streaming capped chunks over `tx` as they
/// arrive. At most `cap` bytes are ever sent; the stream keeps being
/// drained past the cap so the child never blocks on a full pipe.
/// Streaming (rather than one send at EOF) means a kill-on-timeout still
/// recovers the partial output even when a grandchild keeps the pipe
/// open and EOF never comes.
fn drain(mut reader: impl Read, cap: usize, tx: &mpsc::Sender<(Vec<u8>, bool)>) {
    let mut sent = 0usize;
    let mut chunk = [0u8; 8192];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let take = n.min(cap.saturating_sub(sent));
                let truncated = take < n;
                if take > 0 || truncated {
                    if tx.send((chunk[..take].to_vec(), truncated)).is_err() {
                        break;
                    }
                    sent += take;
                }
            }
            // A read error (e.g. the pipe torn down mid-read after a
            // kill) ends the capture with what we have.
            Err(_) => break,
        }
    }
}

/// Spawns a capture thread for an optional stream and returns the
/// receiving end; `None` streams yield an immediately-closed channel
/// (empty capture).
fn spawn_capture(
    stream: Option<impl Read + Send + 'static>,
    cap: usize,
) -> mpsc::Receiver<(Vec<u8>, bool)> {
    let (tx, rx) = mpsc::channel();
    if let Some(reader) = stream {
        std::thread::spawn(move || drain(reader, cap, &tx));
    }
    rx
}

/// Why a capture stopped short of the stream's true end.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Truncation {
    /// The stream ended (EOF) within the cap: the capture is complete.
    None,
    /// The byte cap was hit; further output was drained and dropped.
    Cap,
    /// The capture grace period expired with the stream still open (a
    /// grandchild kept the pipe alive past the kill).
    Grace,
}

/// Accumulates a capture with a bounded grace period. A capture thread
/// still blocked mid-stream (a grandchild kept the pipe open) yields
/// whatever arrived so far, marked truncated, instead of blocking the
/// supervisor.
fn recv_capture(rx: &mpsc::Receiver<(Vec<u8>, bool)>) -> (Vec<u8>, Truncation) {
    let deadline = Instant::now() + CAPTURE_GRACE;
    let mut buf = Vec::new();
    let mut truncation = Truncation::None;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((bytes, capped)) => {
                buf.extend_from_slice(&bytes);
                if capped {
                    truncation = Truncation::Cap;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if truncation == Truncation::None {
                    truncation = Truncation::Grace;
                }
                break;
            }
        }
    }
    (buf, truncation)
}

/// Runs `cmd` under supervision: spawn (with retry/backoff on spawn
/// failure), capture bounded output, enforce the wall-clock limit, kill
/// and reap on overrun.
///
/// The command's stdin is closed; stdout/stderr are piped and captured.
/// `cmd` is taken by `&mut` because retrying re-spawns the same
/// `Command` value.
///
/// # Errors
/// [`GuardError::Spawn`] when the process never started,
/// [`GuardError::TimedOut`] when it was killed at the deadline (with the
/// partial capture), [`GuardError::Wait`] when its status could not be
/// observed.
pub fn run_guarded(cmd: &mut Command, cfg: &GuardConfig) -> Result<GuardedOutput, GuardError> {
    let _run = exo_obs::span!("guard:run", "{}", cmd.get_program().to_string_lossy());
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        // The child leads a process group of its own, so that the kill
        // at the deadline reaches what it forked (`cc`'s `cc1`/`as`/`ld`,
        // a shell's commands) and not only the child itself.
        #[cfg(unix)]
        cmd.process_group(0);
        let spawned = {
            let _spawn = exo_obs::span!("guard:spawn");
            cmd.spawn()
        };
        let mut child = match spawned {
            Ok(child) => child,
            Err(e) => {
                if attempt > cfg.spawn_retries {
                    return Err(GuardError::Spawn {
                        attempts: attempt,
                        message: e.to_string(),
                    });
                }
                exo_obs::event("guard:retry", || {
                    format!("spawn attempt {attempt} failed: {e}")
                });
                std::thread::sleep(cfg.backoff_for(attempt));
                continue;
            }
        };
        let started = Instant::now();
        let out_rx = spawn_capture(child.stdout.take(), cfg.max_output_bytes);
        let err_rx = spawn_capture(child.stderr.take(), cfg.max_output_bytes);
        let deadline = started + cfg.timeout;
        let status = {
            let _wait = exo_obs::span!("guard:wait");
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => break Some(status),
                    Ok(None) => {
                        let now = Instant::now();
                        if now >= deadline {
                            exo_obs::event("guard:timeout", || {
                                format!("killed at the {:?} wall-clock limit", cfg.timeout)
                            });
                            let _kill = exo_obs::span!("guard:kill");
                            kill_group(&mut child);
                            break None;
                        }
                        let interval =
                            (now.duration_since(started) / POLL_DIVISOR).clamp(POLL_MIN, POLL_MAX);
                        std::thread::sleep(interval.min(deadline.duration_since(now)));
                    }
                    Err(e) => {
                        kill_group(&mut child);
                        return Err(GuardError::Wait {
                            message: e.to_string(),
                        });
                    }
                }
            }
        };
        let (stdout, stdout_trunc) = recv_capture(&out_rx);
        let (stderr, stderr_trunc) = recv_capture(&err_rx);
        return match status {
            Some(status) => Ok(GuardedOutput {
                success: status.success(),
                code: status.code(),
                stdout,
                stderr,
                stdout_truncated: stdout_trunc != Truncation::None,
                stderr_truncated: stderr_trunc != Truncation::None,
                attempts: attempt,
                elapsed: started.elapsed(),
            }),
            None => Err(GuardError::TimedOut {
                timeout: cfg.timeout,
                stdout: mark_truncated(stdout, stdout_trunc, cfg.max_output_bytes),
                stderr: mark_truncated(stderr, stderr_trunc, cfg.max_output_bytes),
            }),
        };
    }
}

/// Kills `child` and every process still in the group it leads, then
/// reaps it. `forbid(unsafe_code)` rules out `kill(2)` on a negative pid,
/// so the group is signalled by the `kill` utility; where that cannot be
/// spawned only the child itself dies, as before there were groups.
fn kill_group(child: &mut Child) {
    #[cfg(unix)]
    {
        let _ = Command::new("kill")
            .args(["-KILL", "--", &format!("-{}", child.id())])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// Appends an explicit marker to a byte-capped capture. The partial
/// output embedded in [`GuardError::TimedOut`] has no `*_truncated`
/// flags alongside it (unlike [`GuardedOutput`]), so logs and traces
/// that quote it would otherwise be ambiguous about whether the stream
/// really produced more than what was kept. Grace-period truncation is
/// not marked: a timed-out capture is partial by definition, and the
/// error variant already says so.
fn mark_truncated(mut buf: Vec<u8>, truncation: Truncation, cap: usize) -> Vec<u8> {
    if truncation == Truncation::Cap {
        buf.extend_from_slice(format!("\n[truncated by exo-guard: limit {cap} bytes]").as_bytes());
    }
    buf
}

/// Renders a caught panic payload (from `std::panic::catch_unwind`) as a
/// message: the `&str` / `String` payloads real panics carry are shown
/// verbatim, anything else by type-erased placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    }

    #[test]
    fn captures_output_of_a_successful_command() {
        let out = run_guarded(
            &mut sh("echo guarded; echo err >&2"),
            &GuardConfig::default(),
        )
        .expect("echo runs");
        assert!(out.success);
        assert_eq!(out.code, Some(0));
        assert_eq!(out.stdout_lossy(), "guarded\n");
        assert_eq!(out.stderr_lossy(), "err\n");
        assert!(!out.stdout_truncated);
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn preserves_nonzero_exit_codes_without_retrying() {
        let out = run_guarded(&mut sh("exit 3"), &GuardConfig::default()).expect("sh runs");
        assert!(!out.success);
        assert_eq!(out.code, Some(3));
        assert_eq!(out.attempts, 1, "process failures must not be retried");
    }

    #[test]
    fn kills_a_hanging_process_at_the_deadline() {
        let cfg = GuardConfig::with_timeout(Duration::from_millis(150));
        let t0 = Instant::now();
        let err = run_guarded(&mut sh("sleep 30"), &cfg).expect_err("must time out");
        assert!(err.is_timeout(), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "kill-on-timeout took {:?}",
            t0.elapsed()
        );
    }

    /// Pids of the live processes whose command line contains `marker`.
    #[cfg(target_os = "linux")]
    fn processes_with(marker: &str) -> Vec<String> {
        std::fs::read_dir("/proc")
            .expect("/proc is readable")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|pid| pid.bytes().all(|b| b.is_ascii_digit()))
            .filter(|pid| {
                std::fs::read(format!("/proc/{pid}/cmdline"))
                    .is_ok_and(|c| String::from_utf8_lossy(&c).contains(marker))
            })
            .collect()
    }

    /// The timeout kill reaches what the child forked: `sh` runs a
    /// two-command script, so it cannot `exec` the sleeper, and the
    /// sleeper's argument is unique to this test run.
    #[cfg(target_os = "linux")]
    #[test]
    fn timeout_kills_the_whole_process_group() {
        let marker = format!("30.{}", std::process::id());
        let cfg = GuardConfig::with_timeout(Duration::from_millis(300));
        let err = run_guarded(&mut sh(&format!("sleep {marker}; true")), &cfg)
            .expect_err("must time out");
        assert!(err.is_timeout(), "{err}");
        // SIGKILL is delivered asynchronously: allow the sleeper a moment.
        let gone_by = Instant::now() + Duration::from_secs(5);
        while !processes_with(&marker).is_empty() && Instant::now() < gone_by {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            processes_with(&marker),
            Vec::<String>::new(),
            "a grandchild outlived the guarded timeout"
        );
    }

    #[test]
    fn timeout_returns_partial_capture() {
        let cfg = GuardConfig::with_timeout(Duration::from_millis(300));
        let err = run_guarded(&mut sh("echo early; sleep 30"), &cfg).expect_err("must time out");
        match err {
            GuardError::TimedOut { stdout, .. } => {
                assert_eq!(String::from_utf8_lossy(&stdout), "early\n");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn bounds_output_capture() {
        let cfg = GuardConfig {
            max_output_bytes: 1024,
            ..GuardConfig::default()
        };
        // ~200KB of output; the child must still exit cleanly (the pipe
        // keeps draining) and the capture must stop at the cap.
        let out = run_guarded(
            &mut sh("i=0; while [ $i -lt 20000 ]; do echo 0123456789; i=$((i+1)); done"),
            &cfg,
        )
        .expect("printer runs");
        assert!(out.success);
        assert_eq!(out.stdout.len(), 1024);
        assert!(out.stdout_truncated);
    }

    #[test]
    fn timed_out_truncated_capture_is_marked() {
        let cfg = GuardConfig {
            timeout: Duration::from_millis(300),
            max_output_bytes: 64,
            ..GuardConfig::default()
        };
        // Exceed the capture cap, then hang past the wall-clock limit.
        let err = run_guarded(
            &mut sh("i=0; while [ $i -lt 1000 ]; do echo 0123456789; i=$((i+1)); done; sleep 30"),
            &cfg,
        )
        .expect_err("must time out");
        match err {
            GuardError::TimedOut { stdout, .. } => {
                let text = String::from_utf8_lossy(&stdout);
                assert!(
                    text.ends_with("[truncated by exo-guard: limit 64 bytes]"),
                    "truncated partial capture must carry the marker, got: {text:?}"
                );
                assert!(
                    text.starts_with("0123456789"),
                    "partial output must be preserved before the marker, got: {text:?}"
                );
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn timed_out_untruncated_capture_is_not_marked() {
        let cfg = GuardConfig::with_timeout(Duration::from_millis(300));
        let err = run_guarded(&mut sh("echo early; sleep 30"), &cfg).expect_err("must time out");
        match err {
            GuardError::TimedOut { stdout, .. } => {
                assert_eq!(
                    String::from_utf8_lossy(&stdout),
                    "early\n",
                    "a complete (under-cap) partial capture must not be marked"
                );
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn traced_run_records_guard_phases() {
        let session = exo_obs::session();
        let cfg = GuardConfig::with_timeout(Duration::from_millis(200));
        let _ = run_guarded(&mut sh("echo ok"), &cfg);
        let _ = run_guarded(&mut sh("sleep 30"), &cfg);
        let trace = session.finish();
        let names: Vec<&str> = trace.spans().map(|s| s.name).collect();
        assert!(names.contains(&"guard:run"), "spans: {names:?}");
        assert!(names.contains(&"guard:spawn"), "spans: {names:?}");
        assert!(names.contains(&"guard:wait"), "spans: {names:?}");
        assert!(names.contains(&"guard:kill"), "spans: {names:?}");
        assert!(
            trace.events().any(|e| e.name == "guard:timeout"),
            "the deadline kill must emit a guard:timeout event"
        );
    }

    #[test]
    fn retries_spawn_failures_with_backoff_then_reports() {
        let cfg = GuardConfig {
            spawn_retries: 2,
            backoff_base: Duration::from_millis(1),
            ..GuardConfig::default()
        };
        let err = run_guarded(&mut Command::new("exo2-definitely-not-a-binary"), &cfg)
            .expect_err("missing binary cannot spawn");
        match err {
            GuardError::Spawn { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("expected Spawn, got {other:?}"),
        }
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let err = std::panic::catch_unwind(|| std::panic::panic_any("boom")).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "boom");
        let err =
            std::panic::catch_unwind(|| std::panic::panic_any(String::from("owned"))).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "owned");
        let err = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "opaque panic payload");
    }
}
