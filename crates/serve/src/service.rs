//! The kernel-compilation service: a bounded queue, a worker pool, and a
//! per-request pipeline, plan → tier ladder, in which every external
//! effect is supervised and every failure is a classified value.
//!
//! A *plan* is what the request's kernel, script, target, tier and bounds
//! mode make: the script replayed, the result verified, its C emitted and
//! its IR printed. The service keeps every plan it succeeds in making, so
//! a request that differs from one already served only in its input seed
//! or in whether it wants the C back goes straight to the ladder, which
//! runs per request: it synthesizes the inputs and executes on the
//! highest tier that works.
//!
//! Robustness is the load-bearing design, in layers:
//!
//! * **backpressure** — the request queue is bounded; a full queue sheds
//!   the new request with [`ServeError::Overloaded`] instead of growing;
//! * **fault isolation** — each request runs under `catch_unwind`; a
//!   panicking schedule replay or lowering bug yields
//!   [`ServeError::Internal`] (with the panic payload), the worker
//!   survives, and the offending key is quarantined in the negative
//!   cache so retries cannot stampede a crashing path;
//! * **supervised subprocesses** — `cc` and generated binaries run under
//!   [`exo_guard::run_guarded`]: hard timeouts, kill-on-timeout, bounded
//!   capture, spawn retry with backoff;
//! * **graceful degradation** — when a tier's prerequisites fail the
//!   service steps down the ladder native-run → compile-only → interp →
//!   verified-IR, recording every step and its reason in the response.

use crate::cache::{Admission, ResultCache};
use crate::fault::{Fault, FaultPlan};
use crate::types::{
    CacheStatus, Degradation, DegradeReason, Delivery, ExecSummary, RequestTrace, ServeError,
    ServeOk, ServeOptions, ServeRequest, ServeResult, Tier, TraceStep,
};
use exo_analysis::{check_proc, Severity};
use exo_codegen::difftest::{
    emit_data_driver, encode_args, interp_args, run_compiler, run_data_driver, synth_inputs,
    Artifact, BuildError, SharedBuild, SynthArg, Toolchain,
};
use exo_codegen::{emit_c, emit_runnable, CUnit, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_guard::{panic_message, GuardConfig};
use exo_interp::{Interpreter, NullMonitor, ProcRegistry};
use exo_ir::{ContentHasher, Proc};
use exo_lib::apply_script;
use exo_machine::{MachineKind, MachineModel};
use exo_obs::{HistSummary, Histogram};
use std::cell::Ref;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads processing requests.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed with
    /// [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Supervision policy for C compiler invocations.
    pub compile_guard: GuardConfig,
    /// Supervision policy for compiled-binary invocations.
    pub run_guard: GuardConfig,
    /// How long cached failures stay authoritative (negative cache).
    pub negative_ttl: Duration,
    /// Deterministic fault injection (empty in production).
    pub fault_plan: FaultPlan,
    /// Host capabilities consulted when choosing codegen flags for the
    /// native-run tier. `None` probes the real host
    /// ([`exo_machine::HostCaps::detect`]); tests inject degraded caps
    /// to exercise the portable fallback deterministically.
    pub host_caps: Option<exo_machine::HostCaps>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 256,
            compile_guard: GuardConfig::with_timeout(Duration::from_secs(60)),
            run_guard: GuardConfig::with_timeout(Duration::from_secs(30)),
            negative_ttl: Duration::from_secs(2),
            fault_plan: FaultPlan::none(),
            host_caps: None,
        }
    }
}

/// Monotonic service counters. All relaxed atomics — consistency across
/// fields is only needed at quiescence (after all tickets resolved),
/// which is when the tests and the bench read them.
#[derive(Default)]
pub struct ServeStats {
    /// Requests submitted (cache hits included).
    pub submitted: AtomicU64,
    /// Requests a worker finished computing (success or failure).
    pub completed: AtomicU64,
    /// Fresh pipeline executions started by workers.
    pub computed: AtomicU64,
    /// Computed requests answered by a plan this service already holds:
    /// no replay, verification or emission ran. One of `computed`, not
    /// a submission of its own.
    pub plans_reused: AtomicU64,
    /// Submissions served from a cached success.
    pub cache_hits: AtomicU64,
    /// Submissions served from a TTL-fresh cached failure.
    pub negative_hits: AtomicU64,
    /// Submissions coalesced onto an identical in-flight request.
    pub coalesced: AtomicU64,
    /// Submissions shed because the queue was full.
    pub overloaded: AtomicU64,
    /// Supervised C compiler invocations (injected faults included): the
    /// native tiers' lookups that the toolchain's build cache did not
    /// answer. A lookup that waited on a concurrent build which then
    /// failed counts here too.
    pub compiles: AtomicU64,
    /// Native-tier lookups answered by a build this service's toolchain
    /// already holds: no `cc` ran.
    pub builds_reused: AtomicU64,
    /// Supervised compiled-binary invocations.
    pub binary_runs: AtomicU64,
    /// Precompiled preludes the service's toolchain built (one per
    /// distinct native `cflags` set; not counted in `compiles`). The
    /// request that triggers one is slower by the build.
    pub preludes_built: AtomicU64,
    /// Interpreter executions.
    pub interp_runs: AtomicU64,
    /// Degradation steps taken across all requests.
    pub degradations: AtomicU64,
    /// Subprocesses killed at their wall-clock limit.
    pub guard_timeouts: AtomicU64,
    /// Worker panics caught and classified (the worker survived).
    pub panics_recovered: AtomicU64,
    /// Cache entries corrupted by the injected fault.
    pub corruptions_injected: AtomicU64,
    /// Corrupt cache entries detected on hit and quarantined.
    pub corruptions_recovered: AtomicU64,
    /// Requests canceled by shutdown before processing.
    pub canceled: AtomicU64,
    /// End-to-end worker pipeline latency per freshly computed request
    /// (cache hits excluded — they never reach a worker).
    pub request_latency: Histogram,
}

/// A plain-data copy of [`ServeStats`] at one moment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`ServeStats::submitted`].
    pub submitted: u64,
    /// See [`ServeStats::completed`].
    pub completed: u64,
    /// See [`ServeStats::computed`].
    pub computed: u64,
    /// See [`ServeStats::plans_reused`].
    pub plans_reused: u64,
    /// See [`ServeStats::cache_hits`].
    pub cache_hits: u64,
    /// See [`ServeStats::negative_hits`].
    pub negative_hits: u64,
    /// See [`ServeStats::coalesced`].
    pub coalesced: u64,
    /// See [`ServeStats::overloaded`].
    pub overloaded: u64,
    /// See [`ServeStats::compiles`].
    pub compiles: u64,
    /// See [`ServeStats::builds_reused`].
    pub builds_reused: u64,
    /// See [`ServeStats::binary_runs`].
    pub binary_runs: u64,
    /// See [`ServeStats::preludes_built`].
    pub preludes_built: u64,
    /// See [`ServeStats::interp_runs`].
    pub interp_runs: u64,
    /// See [`ServeStats::degradations`].
    pub degradations: u64,
    /// See [`ServeStats::guard_timeouts`].
    pub guard_timeouts: u64,
    /// See [`ServeStats::panics_recovered`].
    pub panics_recovered: u64,
    /// See [`ServeStats::corruptions_injected`].
    pub corruptions_injected: u64,
    /// See [`ServeStats::corruptions_recovered`].
    pub corruptions_recovered: u64,
    /// See [`ServeStats::canceled`].
    pub canceled: u64,
    /// Percentile summary of [`ServeStats::request_latency`] (ns).
    pub latency: HistSummary,
}

impl ServeStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-data copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            submitted: get(&self.submitted),
            completed: get(&self.completed),
            computed: get(&self.computed),
            plans_reused: get(&self.plans_reused),
            cache_hits: get(&self.cache_hits),
            negative_hits: get(&self.negative_hits),
            coalesced: get(&self.coalesced),
            overloaded: get(&self.overloaded),
            compiles: get(&self.compiles),
            builds_reused: get(&self.builds_reused),
            binary_runs: get(&self.binary_runs),
            preludes_built: get(&self.preludes_built),
            interp_runs: get(&self.interp_runs),
            degradations: get(&self.degradations),
            guard_timeouts: get(&self.guard_timeouts),
            panics_recovered: get(&self.panics_recovered),
            corruptions_injected: get(&self.corruptions_injected),
            corruptions_recovered: get(&self.corruptions_recovered),
            canceled: get(&self.canceled),
            latency: self.request_latency.summary(),
        }
    }
}

struct Job {
    key: u64,
    index: u64,
    fault: Option<Fault>,
    request: ServeRequest,
}

struct ServiceInner {
    queue: Mutex<VecDeque<Job>>,
    notify: Condvar,
    shutdown: AtomicBool,
    cache: ResultCache,
    stats: ServeStats,
    /// `cc`, the preludes it has precompiled and the units it has built,
    /// for the service's lifetime: they go when the last worker has been
    /// joined.
    toolchain: Toolchain,
    /// Every plan the service has made, by [`plan_key`], for its
    /// lifetime. Unbounded like the result cache, and never larger: each
    /// key here is the plan of at least one entry there.
    plans: Mutex<HashMap<u64, Arc<Plan>>>,
    cfg: ServeConfig,
    workers_alive: AtomicUsize,
}

/// Receives the outcome of one submitted request.
pub struct Ticket {
    rx: Receiver<Delivery>,
}

impl Ticket {
    /// Blocks until the request resolves; `None` only if the service
    /// was torn down without delivering (it delivers [`ServeError::Canceled`]
    /// on orderly shutdown, so `None` indicates an abnormal drop).
    pub fn wait(self) -> Option<Delivery> {
        self.rx.recv().ok()
    }

    /// Blocks up to `timeout`; `None` on timeout (the hang detector of
    /// the soak harness).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Delivery> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// The long-lived kernel-compilation service. Dropping it performs an
/// orderly shutdown: pending requests are canceled (delivered, not
/// leaked) and workers are joined.
pub struct KernelService {
    inner: Arc<ServiceInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl KernelService {
    /// Starts the service with the given configuration.
    pub fn new(cfg: ServeConfig) -> Self {
        let workers = cfg.workers.max(1);
        let inner = Arc::new(ServiceInner {
            queue: Mutex::new(VecDeque::new()),
            notify: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache: ResultCache::new(cfg.negative_ttl),
            stats: ServeStats::default(),
            toolchain: Toolchain::new("cc", cfg.compile_guard.clone()),
            plans: Mutex::new(HashMap::new()),
            cfg,
            workers_alive: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = inner.clone();
                // Counted here, not in the thread: `workers_alive()`
                // must be exact as soon as `new` returns, not once the
                // OS gets around to scheduling the thread.
                inner.workers_alive.fetch_add(1, Ordering::Relaxed);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        KernelService {
            inner,
            workers: handles,
        }
    }

    /// Submits one request. Always returns a ticket: overload, cache
    /// hits and structured errors are all delivered through it, so every
    /// submission resolves to exactly one classified [`Delivery`].
    pub fn submit(&self, request: ServeRequest) -> Ticket {
        let _span = exo_obs::span!("serve:submit", "{}", request.proc.name());
        let inner = &self.inner;
        let index = inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let fault = inner.cfg.fault_plan.fault_at(index);
        let key = request_key(&request);
        let (tx, rx) = channel();
        match inner.cache.admit(key, tx.clone()) {
            Admission::Hit(value) => {
                ServeStats::bump(&inner.stats.cache_hits);
                exo_obs::event("serve:cache", || format!("hit {key:016x}"));
                let _ = tx.send(Delivery {
                    result: Ok(value),
                    cache: CacheStatus::Hit,
                });
            }
            Admission::NegativeHit(error) => {
                ServeStats::bump(&inner.stats.negative_hits);
                exo_obs::event("serve:cache", || format!("negative-hit {key:016x}"));
                let _ = tx.send(Delivery {
                    result: Err(error),
                    cache: CacheStatus::NegativeHit,
                });
            }
            Admission::Joined => {
                ServeStats::bump(&inner.stats.coalesced);
                exo_obs::event("serve:cache", || format!("coalesced {key:016x}"));
            }
            Admission::Compute {
                recovered_corruption,
            } => {
                if recovered_corruption {
                    ServeStats::bump(&inner.stats.corruptions_recovered);
                }
                exo_obs::event("serve:cache", || format!("miss {key:016x}"));
                let shed_at = {
                    let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
                    if q.len() >= inner.cfg.queue_cap {
                        Some(q.len())
                    } else {
                        q.push_back(Job {
                            key,
                            index,
                            fault,
                            request,
                        });
                        None
                    }
                };
                match shed_at {
                    Some(queue_len) => {
                        ServeStats::bump(&inner.stats.overloaded);
                        // Transient: deliver to all waiters, cache nothing.
                        inner
                            .cache
                            .reject(key, ServeError::Overloaded { queue_len });
                    }
                    None => inner.notify.notify_one(),
                }
            }
        }
        Ticket { rx }
    }

    /// A plain-data copy of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Worker threads currently alive — the escaped-panic detector: a
    /// panic that `catch_unwind` missed would kill its worker and show
    /// up here.
    pub fn workers_alive(&self) -> usize {
        self.inner.workers_alive.load(Ordering::Relaxed)
    }

    fn shutdown_impl(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        let pending: Vec<Job> = {
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.drain(..).collect()
        };
        for job in pending {
            ServeStats::bump(&self.inner.stats.canceled);
            self.inner.cache.reject(job.key, ServeError::Canceled);
        }
        self.inner.notify.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Orderly shutdown: cancels pending requests (each still receives a
    /// classified [`ServeError::Canceled`]) and joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }
}

impl Drop for KernelService {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Content key of a request: the key of its plan (the kernel's
/// structural hash, the script's steps, the target, the tier and the
/// bounds mode), then the options that only the tier ladder and the
/// response read. Requests that differ in any response-shaping field get
/// different keys (up to a 64-bit collision); the value is stable within
/// a build, not across toolchains.
pub fn request_key(request: &ServeRequest) -> u64 {
    let mut h = ContentHasher::new();
    h.write_u64(plan_key(request));
    request.options.want_c.hash(&mut h);
    request.options.input_seed.hash(&mut h);
    h.finish()
}

/// Content key of a request's plan: the kernel's structural hash, then
/// the script's steps, the target, the tier and the bounds mode — what
/// replay, verification and emission read. Every other option is in
/// [`request_key`] only; the destructuring below fails to compile when
/// [`crate::ServeOptions`] gains a field that neither key names.
fn plan_key(request: &ServeRequest) -> u64 {
    let ServeOptions {
        tier,
        debug_bounds,
        want_c: _,
        input_seed: _,
    } = &request.options;
    let mut h = ContentHasher::new();
    h.write_u64(request.proc.content_hash());
    request.script.hash(&mut h);
    request.target.hash(&mut h);
    tier.hash(&mut h);
    debug_bounds.hash(&mut h);
    h.finish()
}

fn machine_for(kind: MachineKind) -> MachineModel {
    match kind {
        MachineKind::Scalar => MachineModel::scalar(),
        MachineKind::Avx2 => MachineModel::avx2(),
        MachineKind::Avx512 => MachineModel::avx512(),
        MachineKind::Gemmini => MachineModel::gemmini(),
    }
}

/// Decrements the live-worker count even if the loop unwinds.
struct AliveGuard<'a>(&'a AtomicUsize);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn worker_loop(inner: &ServiceInner) {
    // Incremented by the spawner; this guard only decrements on exit.
    let _alive = AliveGuard(&inner.workers_alive);
    loop {
        let job = {
            let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if inner.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                q = inner.notify.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| process(inner, &job)));
        inner
            .stats
            .request_latency
            .record_duration(started.elapsed());
        let result: ServeResult = match outcome {
            Ok(Ok(ok)) => Ok(Arc::new(ok)),
            Ok(Err(err)) => Err(err),
            Err(payload) => {
                // The worker survives; the failure is classified and —
                // via `resolve` below — quarantined in the negative
                // cache so identical retries within the TTL cannot
                // stampede a crashing path.
                ServeStats::bump(&inner.stats.panics_recovered);
                Err(ServeError::Internal(panic_message(payload.as_ref())))
            }
        };
        let corrupt_stored = matches!(job.fault, Some(Fault::CacheCorruption)) && result.is_ok();
        // Counters are bumped BEFORE resolve delivers: a client that
        // reads stats right after receiving its delivery must see this
        // job fully accounted.
        if corrupt_stored {
            ServeStats::bump(&inner.stats.corruptions_injected);
        }
        ServeStats::bump(&inner.stats.completed);
        inner.cache.resolve(job.key, result, corrupt_stored);
    }
}

/// Builds the always-on [`RequestTrace`]: one step per pipeline stage
/// and tier attempt, timed with `Instant` so it works with global
/// tracing disabled.
struct TraceBuilder {
    started: Instant,
    step_started: Instant,
    steps: Vec<TraceStep>,
}

impl TraceBuilder {
    fn new() -> Self {
        let now = Instant::now();
        TraceBuilder {
            started: now,
            step_started: now,
            steps: Vec::new(),
        }
    }

    /// Closes the current step: everything since the previous step (or
    /// the start) is attributed to `name`.
    fn step(&mut self, name: &'static str, outcome: String) {
        let now = Instant::now();
        self.steps.push(TraceStep {
            name,
            ns: dur_ns(now.duration_since(self.step_started)),
            outcome,
        });
        self.step_started = now;
    }

    fn finish(self) -> RequestTrace {
        RequestTrace {
            total_ns: dur_ns(self.started.elapsed()),
            steps: self.steps,
        }
    }
}

fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Records one degradation step in all three sinks: the response's
/// `degraded` list, the request trace, and (when tracing is on) a
/// `serve:degrade` event.
fn degrade(
    degraded: &mut Vec<Degradation>,
    trace: &mut TraceBuilder,
    from: Tier,
    to: Tier,
    reason: DegradeReason,
    detail: String,
) {
    trace.step(from.name(), format!("degraded to {to}: {reason}"));
    exo_obs::event("serve:degrade", || format!("{from} -> {to}: {reason}"));
    degraded.push(Degradation {
        from,
        to,
        reason,
        detail,
    });
}

/// What replay, verification and emission make of a request — the same
/// for every request with its [`plan_key`].
struct Plan {
    /// The scheduled procedure, without the cursor history that made it.
    proc: Proc,
    /// The verifier's findings, formatted; none of them is an error.
    diagnostics: Vec<String>,
    unit: CUnit,
    /// Outcome of the `native-flags` step: which unit was emitted and why.
    native_flags: String,
    /// `proc`, printed.
    scheduled_ir: String,
    /// The data driver around `unit`, emitted the first time the
    /// native-run tier is reached with inputs to run it on.
    driver: OnceLock<String>,
}

/// The request's plan: the one the service holds for its [`plan_key`],
/// or a new one, kept if made. A refusal — a script that does not
/// replay, a verifier error, a unit that cannot be emitted — is returned
/// and not kept, and neither is a plan whose making panics: those are the
/// result cache's negative entries. Two workers that miss one key at
/// once both make the plan; the first to store it wins. Closes the
/// `replay`, `verify` and `emit` steps of `trace`, with outcome `reused`
/// on a held plan.
fn plan(
    inner: &ServiceInner,
    request: &ServeRequest,
    trace: &mut TraceBuilder,
) -> Result<Arc<Plan>, ServeError> {
    let key = plan_key(request);
    let held = inner
        .plans
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&key)
        .cloned();
    if let Some(plan) = held {
        ServeStats::bump(&inner.stats.plans_reused);
        for step in ["replay", "verify", "emit"] {
            trace.step(step, "reused".to_string());
        }
        return Ok(plan);
    }
    let made = Arc::new(make_plan(inner, request, trace)?);
    let mut plans = inner.plans.lock().unwrap_or_else(|e| e.into_inner());
    Ok(plans.entry(key).or_insert(made).clone())
}

/// Replays the script, verifies the result and emits its C.
fn make_plan(
    inner: &ServiceInner,
    request: &ServeRequest,
    trace: &mut TraceBuilder,
) -> Result<Plan, ServeError> {
    let machine = machine_for(request.target);
    let proc = {
        let _span = exo_obs::span!("serve:replay", "{} steps", request.script.steps.len());
        // Only the proc is kept: the handles and the cursor history they
        // hold are freed at the end of this block, inside the replay step.
        let base = ProcHandle::new(request.proc.clone());
        apply_script(&base, &request.script, &machine)
            .map_err(|e| ServeError::BadSchedule(e.to_string()))?
            .proc()
            .clone()
    };
    trace.step("replay", "ok".to_string());

    let findings = {
        let _span = exo_obs::span!("serve:verify", "{}", proc.name());
        check_proc(&proc)
    };
    let diagnostics: Vec<String> = findings
        .iter()
        .map(|d| format!("{} [{:?}] {}", d.code, d.severity, d.message))
        .collect();
    if findings.iter().any(|d| d.severity == Severity::Error) {
        return Err(ServeError::Rejected { diagnostics });
    }
    trace.step("verify", format!("ok ({} findings)", findings.len()));

    // Codegen mode: the native-run tier gets machine intrinsics (and
    // OpenMP work-sharing, which the emitter only applies to loops the
    // verifier certifies race-free) whenever the host can execute what
    // the emitted unit asks for; every other tier — and every host that
    // cannot — gets portable scalar C. Tests inject degraded caps to pin
    // the fallback.
    let caps = inner
        .cfg
        .host_caps
        .as_ref()
        .unwrap_or_else(|| exo_machine::HostCaps::detect());
    let (opts, portable_why) = if request.options.debug_bounds {
        (CodegenOptions::debug(), Some("debug bounds".to_string()))
    } else if request.options.tier != Tier::NativeRun {
        (
            CodegenOptions::portable(),
            Some(format!("tier {}", request.options.tier)),
        )
    } else if caps.openmp {
        (CodegenOptions::native_openmp(), None)
    } else {
        (CodegenOptions::native(), None)
    };
    let (unit, portable_why) = {
        let _span = exo_obs::span!("serve:emit", "{}", proc.name());
        let registry = registry_for(&machine);
        match portable_why {
            Some(why) => emit_c(&proc, &registry, &opts).map(|unit| (unit, Some(why))),
            None => emit_runnable(&proc, &registry, &opts, caps),
        }
        .map_err(|e| ServeError::Codegen(e.to_string()))?
    };
    let native_flags = match portable_why {
        Some(why) => format!("portable ({why})"),
        None if unit.cflags.is_empty() => "native (no extra flags needed)".to_string(),
        None => format!("native ({})", unit.cflags.join(" ")),
    };
    let scheduled_ir = proc.to_string();
    trace.step("emit", "ok".to_string());
    Ok(Plan {
        proc,
        diagnostics,
        unit,
        native_flags,
        scheduled_ir,
        driver: OnceLock::new(),
    })
}

/// The instructions of `machine` the interpreter and the emitter resolve
/// calls against.
fn registry_for(machine: &MachineModel) -> ProcRegistry {
    machine
        .instructions(exo_ir::DataType::F32)
        .into_iter()
        .collect()
}

/// The per-request pipeline: the request's plan, then the tier ladder on
/// inputs of its seed.
fn process(inner: &ServiceInner, job: &Job) -> Result<ServeOk, ServeError> {
    let _req = exo_obs::span!("serve:request", "{}", job.request.proc.name());
    ServeStats::bump(&inner.stats.computed);
    if matches!(job.fault, Some(Fault::WorkerPanic)) {
        // Library paths in this crate are panic-free by lint (lib.rs);
        // this is the fault simulator, the one place a panic is the point.
        #[allow(clippy::panic)]
        std::panic::panic_any(format!(
            "injected worker panic at request index {}",
            job.index
        ));
    }
    let request = &job.request;
    let mut trace = TraceBuilder::new();
    let plan = plan(inner, request, &mut trace)?;
    let (proc, unit) = (&plan.proc, &plan.unit);
    trace.step("native-flags", plan.native_flags.clone());

    let mut degraded: Vec<Degradation> = Vec::new();
    let mut tier = request.options.tier;
    let mut served = "served";
    let exec = loop {
        let _tier_span = exo_obs::span!("serve:tier", "{}", tier.name());
        match tier {
            Tier::NativeRun => {
                let inputs = match synth_inputs(proc, request.options.input_seed) {
                    Ok(inputs) => inputs,
                    Err(detail) => {
                        degrade(
                            &mut degraded,
                            &mut trace,
                            Tier::NativeRun,
                            Tier::CompileOnly,
                            DegradeReason::InputSynthesis,
                            detail,
                        );
                        tier = Tier::CompileOnly;
                        continue;
                    }
                };
                let driver = plan.driver.get_or_init(|| emit_data_driver(unit, proc));
                match compile_guarded(inner, Artifact::Executable, driver, unit, job.fault) {
                    Ok(exe) => match run_binary_guarded(inner, &exe, &inputs, job.fault) {
                        Ok(summary) => {
                            served = build_outcome(&exe);
                            break Some(summary);
                        }
                        Err((reason, detail)) => {
                            // The unit compiled; serve the compile-only
                            // tier from the artifact we already have.
                            degrade(
                                &mut degraded,
                                &mut trace,
                                Tier::NativeRun,
                                Tier::CompileOnly,
                                reason,
                                detail,
                            );
                            tier = Tier::CompileOnly;
                            break None;
                        }
                    },
                    Err((reason, detail)) => {
                        degrade(
                            &mut degraded,
                            &mut trace,
                            Tier::NativeRun,
                            Tier::Interp,
                            reason,
                            detail,
                        );
                        tier = Tier::Interp;
                    }
                }
            }
            Tier::CompileOnly => {
                match compile_guarded(inner, Artifact::Object, &unit.code, unit, job.fault) {
                    Ok(object) => {
                        served = build_outcome(&object);
                        break None;
                    }
                    Err((reason, detail)) => {
                        degrade(
                            &mut degraded,
                            &mut trace,
                            Tier::CompileOnly,
                            Tier::Interp,
                            reason,
                            detail,
                        );
                        tier = Tier::Interp;
                    }
                }
            }
            Tier::Interp => {
                let inputs = match synth_inputs(proc, request.options.input_seed) {
                    Ok(inputs) => inputs,
                    Err(detail) => {
                        degrade(
                            &mut degraded,
                            &mut trace,
                            Tier::Interp,
                            Tier::VerifiedIr,
                            DegradeReason::InputSynthesis,
                            detail,
                        );
                        tier = Tier::VerifiedIr;
                        continue;
                    }
                };
                ServeStats::bump(&inner.stats.interp_runs);
                match interpret(proc, &machine_for(request.target), inputs) {
                    Ok(summary) => break Some(summary),
                    Err(detail) => {
                        degrade(
                            &mut degraded,
                            &mut trace,
                            Tier::Interp,
                            Tier::VerifiedIr,
                            DegradeReason::InterpTrap,
                            detail,
                        );
                        tier = Tier::VerifiedIr;
                    }
                }
            }
            Tier::VerifiedIr => break None,
        }
    };
    trace.step(tier.name(), served.to_string());

    inner
        .stats
        .degradations
        .fetch_add(degraded.len() as u64, Ordering::Relaxed);
    Ok(ServeOk {
        kernel: request.proc.name().to_string(),
        tier,
        degraded,
        diagnostics: plan.diagnostics.clone(),
        c_code: request.options.want_c.then(|| unit.code.clone()),
        exec,
        scheduled_ir: plan.scheduled_ir.clone(),
        trace: trace.finish(),
    })
}

/// Runs the interpreter on `proc` over `inputs`, which become its
/// arguments without a copy, and folds the final contents of every
/// tensor argument into an [`ExecSummary`].
fn interpret(
    proc: &Proc,
    machine: &MachineModel,
    inputs: Vec<SynthArg>,
) -> Result<ExecSummary, String> {
    let registry = registry_for(machine);
    let (bufs, args) = interp_args(inputs);
    Interpreter::new(&registry)
        .run(proc, args, &mut NullMonitor)
        .map_err(|e| format!("interpreter failed on `{}`: {e}", proc.name()))?;
    Ok(summarize(
        bufs.iter()
            .map(|b| Ref::map(b.borrow(), |b| b.data.as_slice())),
    ))
}

/// [`ExecSummary::checksum`] is byte-wise FNV-1a by contract (clients
/// recompute it from reference outputs), whatever the cache hashes with.
fn summarize<B: Deref<Target = [f64]>>(buffers: impl IntoIterator<Item = B>) -> ExecSummary {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut checksum = OFFSET_BASIS;
    let mut elems = 0usize;
    for buffer in buffers {
        for v in buffer.iter() {
            for byte in v.to_bits().to_le_bytes() {
                checksum = (checksum ^ u64::from(byte)).wrapping_mul(PRIME);
            }
            elems += 1;
        }
    }
    ExecSummary { elems, checksum }
}

/// The serving step's outcome for a tier that asked the toolchain for a
/// build: whether `cc` ran for this request.
fn build_outcome(build: &SharedBuild) -> &'static str {
    if build.reused() {
        "served (reused)"
    } else {
        "served (built)"
    }
}

/// A process that sleeps far past any guard timeout — the injected hang.
/// The shell forks the sleeper (dash does not `exec` the last command of
/// a `-c` script), so it dies only because the guard signals the whole
/// process group at the deadline. Arguments appended to the command are
/// the script's `$0`, `$1`, …: ignored.
fn hang_command() -> Command {
    let mut cmd = Command::new("sh");
    cmd.arg("-c").arg("sleep 600");
    cmd
}

/// The service toolchain's build of `source` — a data driver with `main`
/// to link, or the bare unit to compile — under the service's compile
/// guard: built by the first request for it, reused by every later one.
/// A planned compiler fault stands in for `cc` itself and goes around the
/// toolchain: it neither reads nor populates the build cache and builds
/// no prelude. The error is a (reason, detail) degradation pair.
fn compile_guarded(
    inner: &ServiceInner,
    kind: Artifact,
    source: &str,
    unit: &CUnit,
    fault: Option<Fault>,
) -> Result<SharedBuild, (DegradeReason, String)> {
    let injected = |mut stand_in: Command| {
        Err(run_compiler(&mut stand_in, &inner.cfg.compile_guard)
            .err()
            .unwrap_or_else(|| BuildError::Failed("the injected compiler built nothing".into())))
    };
    let built = match fault {
        Some(Fault::CcMissing) => injected(Command::new("exo2-injected-missing-cc")),
        Some(Fault::CcHang) => injected(hang_command()),
        _ => {
            let built = match kind {
                Artifact::Executable => {
                    inner.toolchain.executable(source, &unit.cflags, &unit.name)
                }
                Artifact::Object => inner.toolchain.object(source, &unit.cflags, &unit.name),
            };
            // A lookup the cache answered built no prelude either, and
            // must not queue behind another worker's prelude build.
            if !matches!(&built, Ok(build) if build.reused()) {
                inner
                    .stats
                    .preludes_built
                    .fetch_max(inner.toolchain.preludes_built(), Ordering::Relaxed);
            }
            built
        }
    };
    ServeStats::bump(match &built {
        Ok(build) if build.reused() => &inner.stats.builds_reused,
        _ => &inner.stats.compiles,
    });
    built.map_err(|error| {
        let reason = match error {
            BuildError::Failed(_) => DegradeReason::CompilerFailed,
            BuildError::TimedOut(_) => {
                ServeStats::bump(&inner.stats.guard_timeouts);
                DegradeReason::CompilerTimeout
            }
            BuildError::Unavailable(_) => DegradeReason::CompilerUnavailable,
        };
        (reason, error.to_string())
    })
}

/// Runs a built data driver on `inputs` under the service's run guard
/// (or the planned hang in its place, or on the planned half of the
/// argument block) and folds its tensor dump into an [`ExecSummary`]. The
/// argument file lives in a temp directory of this request's own, never
/// in the shared build's.
fn run_binary_guarded(
    inner: &ServiceInner,
    exe: &SharedBuild,
    inputs: &[SynthArg],
    fault: Option<Fault>,
) -> Result<ExecSummary, (DegradeReason, String)> {
    ServeStats::bump(&inner.stats.binary_runs);
    let mut cmd = match fault {
        Some(Fault::BinaryHang) => hang_command(),
        _ => Command::new(exe.artifact()),
    };
    let mut block = encode_args(inputs);
    if fault == Some(Fault::ArgsTruncated) {
        block.truncate(block.len() / 2);
    }
    match run_data_driver(&mut cmd, &block, &inner.cfg.run_guard) {
        Ok(values) => Ok(summarize([values.as_slice()])),
        Err(err) if err.timed_out => {
            ServeStats::bump(&inner.stats.guard_timeouts);
            Err((DegradeReason::BinaryTimeout, err.message))
        }
        Err(err) => Err((DegradeReason::BinaryFailed, err.message)),
    }
}
