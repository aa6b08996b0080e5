//! Request/response vocabulary of the service.
//!
//! Everything that crosses the submit/worker boundary is plain data — a
//! `Proc` is two `Arc`s (header and body), so cloning a request copies
//! only the `ScheduleScript`'s steps — and every way a request can end is
//! a *variant*, not a panic: the soak harness asserts that 100% of
//! responses fall into this taxonomy.

use exo_lib::ScheduleScript;
use exo_machine::MachineKind;
use std::fmt;
use std::sync::Arc;

/// Service tiers, strongest first. A request names the highest tier it
/// wants; the service degrades down the ladder when a tier's
/// prerequisites fail (no C compiler, a timeout, a retry budget
/// exhausted) and reports each step it took.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Tier {
    /// Compile the emitted C natively and run the result.
    NativeRun,
    /// Compile the emitted C natively; do not run it.
    CompileOnly,
    /// Execute on the slot-indexed interpreter (no toolchain needed).
    Interp,
    /// Return verified IR + emitted C only; nothing is executed.
    VerifiedIr,
}

impl Tier {
    /// Stable lower-case name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::NativeRun => "native-run",
            Tier::CompileOnly => "compile-only",
            Tier::Interp => "interp",
            Tier::VerifiedIr => "verified-ir",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why the service stepped down from a tier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DegradeReason {
    /// The C compiler could not be spawned (missing, or transient spawn
    /// failures exhausted the retry budget).
    CompilerUnavailable,
    /// The C compiler exceeded its wall-clock limit and was killed.
    CompilerTimeout,
    /// The C compiler exited non-zero.
    CompilerFailed,
    /// The compiled binary exceeded its wall-clock limit and was killed.
    BinaryTimeout,
    /// The compiled binary exited non-zero or produced unusable output.
    BinaryFailed,
    /// The interpreter trapped on the scheduled program.
    InterpTrap,
    /// No concrete inputs satisfying the kernel's assertions could be
    /// synthesized, so nothing can be executed.
    InputSynthesis,
}

impl DegradeReason {
    /// Stable lower-case name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            DegradeReason::CompilerUnavailable => "compiler-unavailable",
            DegradeReason::CompilerTimeout => "compiler-timeout",
            DegradeReason::CompilerFailed => "compiler-failed",
            DegradeReason::BinaryTimeout => "binary-timeout",
            DegradeReason::BinaryFailed => "binary-failed",
            DegradeReason::InterpTrap => "interp-trap",
            DegradeReason::InputSynthesis => "input-synthesis",
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One degradation step the service took while serving a request.
#[derive(Clone, Debug)]
pub struct Degradation {
    /// The tier that was abandoned.
    pub from: Tier,
    /// The tier the service stepped down to.
    pub to: Tier,
    /// Why it was abandoned.
    pub reason: DegradeReason,
    /// Human-readable detail (the compiler's diagnostics, the timeout,
    /// the trap message).
    pub detail: String,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} abandoned for {} ({}): {}",
            self.from, self.to, self.reason, self.detail
        )
    }
}

/// One step of the per-request pipeline, as recorded in a
/// [`RequestTrace`]: the stage name (`"replay"`, `"verify"`, `"emit"`,
/// or a tier name), how long it took, and how it ended.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Stage name.
    pub name: &'static str,
    /// Wall-clock nanoseconds spent in the stage.
    pub ns: u64,
    /// How the stage ended: `"ok"`; `"reused"` for `replay`, `verify`
    /// and `emit` when the service already held the request's plan;
    /// `"served"` — `"served (built)"` or `"served (reused)"` where the
    /// tier asked the toolchain for a build, saying whether `cc` ran for
    /// this request — or `"degraded to <tier>: <reason>"`.
    pub outcome: String,
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} us]: {}", self.name, self.ns / 1000, self.outcome)
    }
}

/// The always-on per-request timing summary returned with every
/// [`ServeOk`]: one [`TraceStep`] per pipeline stage and tier attempt,
/// in execution order. Unlike the `exo-obs` spans (opt-in, global),
/// this rides along with the response so a caller can see where its
/// own request's time went and why each degradation happened.
#[derive(Clone, Debug, Default)]
pub struct RequestTrace {
    /// Pipeline steps in execution order.
    pub steps: Vec<TraceStep>,
    /// Total wall-clock nanoseconds in the worker pipeline.
    pub total_ns: u64,
}

impl RequestTrace {
    /// The step named `name`, if it was reached.
    pub fn step(&self, name: &str) -> Option<&TraceStep> {
        self.steps.iter().find(|s| s.name == name)
    }
}

impl fmt::Display for RequestTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

/// Per-request options. Every field shapes the response, so every field
/// is part of the request's cache key ([`crate::request_key`]); `tier`
/// and `debug_bounds` shape the plan too, and the service plans once per
/// distinct pair (with the kernel, script and target).
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct ServeOptions {
    /// Highest tier the caller wants (the service may degrade below it,
    /// never above it).
    pub tier: Tier,
    /// Emit debug-mode bounds checks in the C.
    pub debug_bounds: bool,
    /// Include the emitted C translation unit in the response.
    pub want_c: bool,
    /// Seed for input synthesis on the executing tiers.
    pub input_seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            tier: Tier::NativeRun,
            debug_bounds: false,
            want_c: false,
            input_seed: 1,
        }
    }
}

/// One compilation request: a kernel, the schedule to replay over it,
/// the target machine, and options. Two requests `==` tells apart are
/// never answered with each other's result.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct ServeRequest {
    /// The unscheduled kernel.
    pub proc: exo_ir::Proc,
    /// The schedule script to replay.
    pub script: ScheduleScript,
    /// Target machine (instruction set, vector width, cost classes).
    pub target: MachineKind,
    /// Per-request options.
    pub options: ServeOptions,
}

/// Summary of an execution (native or interpreted): enough to compare
/// runs without caching whole tensors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ExecSummary {
    /// Total tensor elements produced.
    pub elems: usize,
    /// FNV-1a checksum over the element bit patterns.
    pub checksum: u64,
}

/// A successfully served request.
#[derive(Clone, Debug)]
pub struct ServeOk {
    /// Kernel (procedure) name.
    pub kernel: String,
    /// The tier that actually served the request.
    pub tier: Tier,
    /// Degradation steps taken on the way down, in order (empty when the
    /// requested tier was served directly).
    pub degraded: Vec<Degradation>,
    /// Static-verifier findings on the scheduled procedure (warnings
    /// only; proven violations are rejected instead of served), shared
    /// with every result of the same plan.
    pub diagnostics: Arc<[String]>,
    /// The emitted C translation unit, when requested, shared like
    /// `diagnostics`.
    pub c_code: Option<Arc<str>>,
    /// Execution summary, on the executing tiers.
    pub exec: Option<ExecSummary>,
    /// Pretty-printed scheduled IR, shared like `diagnostics`.
    pub scheduled_ir: Arc<str>,
    /// Per-request pipeline timing and degradation summary. Excluded
    /// from the cache payload checksum (it is timing, not content);
    /// cache hits replay the original computation's trace.
    pub trace: RequestTrace,
}

/// Every way a request can fail, as a value.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The bounded request queue was full; the request was shed
    /// immediately (backpressure, never unbounded growth).
    Overloaded {
        /// Queue length observed at submission.
        queue_len: usize,
    },
    /// The schedule script was rejected by the scheduling primitives.
    BadSchedule(String),
    /// The static verifier *proved* the scheduled procedure wrong; the
    /// service refuses to compile or run it.
    Rejected {
        /// All verifier findings, proven violations included.
        diagnostics: Vec<String>,
    },
    /// C emission failed.
    Codegen(String),
    /// The worker panicked while processing the request; the panic was
    /// caught, the worker survived, and the offending cache entry is
    /// quarantined in the negative cache.
    Internal(String),
    /// The service shut down before the request was processed.
    Canceled,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queue_len } => {
                write!(f, "overloaded: request shed at queue length {queue_len}")
            }
            ServeError::BadSchedule(msg) => write!(f, "schedule rejected: {msg}"),
            ServeError::Rejected { diagnostics } => {
                write!(f, "verifier rejected the scheduled procedure: ")?;
                write!(f, "{}", diagnostics.join("; "))
            }
            ServeError::Codegen(msg) => write!(f, "codegen failed: {msg}"),
            ServeError::Internal(msg) => write!(f, "internal fault (worker panic): {msg}"),
            ServeError::Canceled => write!(f, "service shut down before processing"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Stable lower-case classification name, for reports.
    pub fn class(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::BadSchedule(_) => "bad-schedule",
            ServeError::Rejected { .. } => "rejected",
            ServeError::Codegen(_) => "codegen-error",
            ServeError::Internal(_) => "internal",
            ServeError::Canceled => "canceled",
        }
    }
}

/// The outcome of one request. Successes are `Arc`-shared with the
/// result cache.
pub type ServeResult = Result<Arc<ServeOk>, ServeError>;

/// How the cache participated in a response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheStatus {
    /// Freshly computed by a worker.
    Miss,
    /// Served from a cached success.
    Hit,
    /// Served from a TTL-fresh cached failure (negative cache).
    NegativeHit,
    /// Coalesced onto an identical in-flight request (single-flight).
    Coalesced,
}

impl CacheStatus {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Miss => "miss",
            CacheStatus::Hit => "hit",
            CacheStatus::NegativeHit => "negative-hit",
            CacheStatus::Coalesced => "coalesced",
        }
    }
}

impl fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a [`crate::Ticket`] yields: the classified result plus how the
/// cache served it.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The classified outcome.
    pub result: ServeResult,
    /// Cache participation.
    pub cache: CacheStatus,
}
