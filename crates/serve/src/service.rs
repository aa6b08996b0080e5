//! The kernel-compilation service: a bounded queue, a worker pool, and a
//! per-request pipeline, plan → tier ladder, in which every external
//! effect is supervised and every failure is a classified value.
//!
//! A *plan* is what the request's kernel, script, target, tier and bounds
//! mode make: the script replayed, the result verified, its C emitted, its
//! IR printed, and the registry its runs resolve calls against, which
//! keeps every lowering they need. The service keeps the plans it
//! succeeds in making, so a request that differs from one already served
//! only in its input seed or in whether it wants the C back goes straight
//! to the ladder, which runs per request: it synthesizes the inputs and
//! executes on the highest tier that works. Workers that need one new plan at once make
//! it once: the others wait for it.
//!
//! Everything the service keeps is bounded: the results
//! ([`RESULT_CACHE_CAP`](crate::RESULT_CACHE_CAP)), the plans
//! ([`PLAN_CACHE_CAP`]) and the toolchain's builds and preludes are each
//! an [`exo_ir::memo::ContentMemo`] that evicts its least recently used
//! entry at its bound, so its memory does not grow with its traffic.
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

use crate::cache::{reject, ResultCache, Stored, RESULT_CACHE_CAP};
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
use exo_codegen::{emit_c, emit_runnable, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_guard::{panic_message, GuardConfig};
use exo_interp::{Interpreter, NullMonitor, ProcRegistry};
use exo_ir::memo::{Claim, ContentMemo, Found, Slot};
use exo_ir::{ContentHasher, DataType, Proc};
use exo_lib::apply_script;
use exo_machine::{MachineKind, MachineModel};
use exo_obs::{HistSummary, Histogram};
use std::cell::Ref;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// Declares the service's counters once: each is a field of
/// [`ServeStats`] and of [`StatsSnapshot`], and [`ServeStats::snapshot`]
/// copies it.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Monotonic service counters. All relaxed atomics — consistency
        /// across fields is only needed at quiescence (after all tickets
        /// resolved), which is when the tests and the bench read them.
        #[derive(Default)]
        pub struct ServeStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// End-to-end worker pipeline latency per freshly computed
            /// request (cache hits excluded — they never reach a worker).
            pub request_latency: Histogram,
        }

        /// A plain-data copy of [`ServeStats`] at one moment, and what
        /// the service's memos count.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Precompiled preludes the service's toolchain built (one
            /// per distinct native `cflags` set; not counted in
            /// `compiles`). The request that triggers one is slower by
            /// the build.
            pub preludes_built: u64,
            /// Entries the service's memos — results, plans, and its
            /// toolchain's builds and preludes — evicted at their bounds.
            pub evictions: u64,
            /// Results the cache holds now, at most
            /// [`RESULT_CACHE_CAP`](crate::RESULT_CACHE_CAP).
            pub results_held: u64,
            /// Percentile summary of [`ServeStats::request_latency`] (ns).
            pub latency: HistSummary,
        }

        impl ServeStats {
            /// A plain-data copy of every counter. What the memos count
            /// — `preludes_built`, `evictions` and `results_held` —
            /// reads 0: [`KernelService::stats`] fills it in.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    latency: self.request_latency.summary(),
                    ..StatsSnapshot::default()
                }
            }
        }
    };
}

counters! {
    /// Requests submitted (cache hits included).
    submitted,
    /// Requests a worker finished computing (success or failure).
    completed,
    /// Fresh pipeline executions started by workers.
    computed,
    /// Computed requests answered by a plan this service already holds:
    /// no replay, verification or emission ran. One of `computed`, not
    /// a submission of its own.
    plans_reused,
    /// Submissions served from a cached success.
    cache_hits,
    /// Submissions served from a TTL-fresh cached failure.
    negative_hits,
    /// Submissions coalesced onto an identical in-flight request.
    coalesced,
    /// Submissions shed because the queue was full.
    overloaded,
    /// Supervised C compiler invocations (injected faults included): the
    /// native tiers' lookups that the toolchain's build cache did not
    /// answer. A lookup that waited on a concurrent build which then
    /// failed counts here too.
    compiles,
    /// Native-tier lookups answered by a build this service's toolchain
    /// already holds: no `cc` ran.
    builds_reused,
    /// Supervised compiled-binary invocations.
    binary_runs,
    /// Interpreter executions.
    interp_runs,
    /// Degradation steps taken across all requests.
    degradations,
    /// Subprocesses killed at their wall-clock limit.
    guard_timeouts,
    /// Worker panics caught and classified (the worker survived).
    panics_recovered,
    /// Cache entries corrupted by the injected fault.
    corruptions_injected,
    /// Corrupt cache entries detected on hit and quarantined.
    corruptions_recovered,
    /// Requests canceled by shutdown before processing.
    canceled,
}

impl ServeStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

struct Job {
    key: u64,
    index: u64,
    fault: Option<Fault>,
    request: ServeRequest,
    /// The result cache's slot for `key`, which this job fills.
    claim: Claim<Stored>,
}

/// Plans a service keeps at most. For the largest record, sgemm on
/// AVX-512, a plan holds the scheduled proc (≈ 75 kB of live heap), its
/// printed IR (5 kB), its C once (12 kB, the text results share), its
/// registry (≈ 75 kB: the proc's lowering ≈ 50 kB, the lowerings and
/// rendered text of the instructions it calls ≈ 21 kB, the instruction
/// entries ≈ 3 kB) and, once a native request needs it, the data driver
/// (18 kB): ≈ 185 kB, so ≈ 12 MB at the cap. `serve_mixed` uses 3 plans,
/// interp-tier AVX2 records of ≈ 120, 80 and 35 kB; a client cycling more
/// distinct kernels, scripts, targets, tiers and bounds modes than this
/// replays the least recently used again.
pub const PLAN_CACHE_CAP: usize = 64;

/// What a plan is made from, compared in full on every lookup and keyed
/// by its [`request_key`]: the request with the options that only the
/// ladder and the response read — `want_c`, `input_seed` — at fixed
/// values. Any other option, and any added later, shapes the plan.
fn plan_request(request: &ServeRequest) -> ServeRequest {
    let options = ServeOptions {
        want_c: false,
        input_seed: 0,
        ..request.options.clone()
    };
    ServeRequest {
        options,
        ..request.clone()
    }
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
    /// The plans the service has made, by [`plan_request`]. A refusal is
    /// handed to the workers waiting for it and not kept.
    plan_memo: ContentMemo<ServeRequest, Result<Arc<Plan>, ServeError>>,
    cfg: ServeConfig,
    workers_alive: AtomicUsize,
}

/// Receives the outcome of one submitted request: it holds the result
/// cache's slot for the request's key, and how the cache took part.
pub struct Ticket {
    slot: Slot<Stored>,
    cache: CacheStatus,
}

impl Ticket {
    /// Blocks until the request resolves; `None` only if the service
    /// was torn down without delivering (it delivers [`ServeError::Canceled`]
    /// on orderly shutdown, so `None` indicates an abnormal drop).
    pub fn wait(self) -> Option<Delivery> {
        self.wait_timeout(Duration::MAX)
    }

    /// Blocks up to `timeout` (without a deadline if now + `timeout` is
    /// past what an `Instant` holds); `None` on timeout (the hang detector
    /// of the soak harness).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Delivery> {
        let stored = self.slot.wait(Instant::now().checked_add(timeout))?;
        Some(Delivery {
            result: stored.result,
            cache: self.cache,
        })
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
            cache: ResultCache::new(RESULT_CACHE_CAP),
            stats: ServeStats::default(),
            toolchain: Toolchain::new("cc", cfg.compile_guard.clone()),
            plan_memo: ContentMemo::new(PLAN_CACHE_CAP),
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
        let ttl = inner.cfg.negative_ttl;
        let mut recovered_corruption = false;
        let found = inner.cache.find(key, &request, |stored| {
            stored.fresh(ttl, &mut recovered_corruption)
        });
        let (slot, cache) = match found {
            Found::Ready(slot) if slot.get().is_some_and(|s| s.result.is_ok()) => {
                ServeStats::bump(&inner.stats.cache_hits);
                exo_obs::event("serve:cache", || format!("hit {key:016x}"));
                (slot, CacheStatus::Hit)
            }
            Found::Ready(slot) => {
                ServeStats::bump(&inner.stats.negative_hits);
                exo_obs::event("serve:cache", || format!("negative-hit {key:016x}"));
                (slot, CacheStatus::NegativeHit)
            }
            Found::Pending(slot) => {
                ServeStats::bump(&inner.stats.coalesced);
                exo_obs::event("serve:cache", || format!("coalesced {key:016x}"));
                (slot, CacheStatus::Coalesced)
            }
            Found::Claimed(claim) => {
                if recovered_corruption {
                    ServeStats::bump(&inner.stats.corruptions_recovered);
                }
                exo_obs::event("serve:cache", || format!("miss {key:016x}"));
                let slot = claim.slot();
                let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
                if q.len() >= inner.cfg.queue_cap {
                    let queue_len = q.len();
                    drop(q);
                    ServeStats::bump(&inner.stats.overloaded);
                    // Transient: answer everyone on the slot, keep nothing.
                    let shed = ServeError::Overloaded { queue_len };
                    reject(&inner.cache, key, &request, claim, shed);
                } else {
                    q.push_back(Job {
                        key,
                        index,
                        fault,
                        request,
                        claim,
                    });
                    drop(q);
                    inner.notify.notify_one();
                }
                (slot, CacheStatus::Miss)
            }
        };
        Ticket { slot, cache }
    }

    /// A plain-data copy of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        let inner = &self.inner;
        let results = inner.cache.stats();
        StatsSnapshot {
            evictions: results.evictions
                + inner.plan_memo.stats().evictions
                + inner.toolchain.evictions(),
            results_held: results.len,
            preludes_built: inner.toolchain.preludes_built(),
            ..inner.stats.snapshot()
        }
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
            let Job {
                key,
                request,
                claim,
                ..
            } = job;
            let canceled = ServeError::Canceled;
            reject(&self.inner.cache, key, &request, claim, canceled);
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

/// Content key of a request: the kernel's structural hash (its
/// header's and body's cached shares), then the script's steps, the
/// target and every option, as `==` compares them. Requests that differ
/// in any field get different keys (up to a 64-bit collision); the value
/// is stable within a build, not across toolchains.
pub fn request_key(request: &ServeRequest) -> u64 {
    let mut h = ContentHasher::new();
    request.hash(&mut h);
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
        // Counters are bumped BEFORE the slot is filled: a client that
        // reads stats right after receiving its delivery must see this
        // job fully accounted.
        if corrupt_stored {
            ServeStats::bump(&inner.stats.corruptions_injected);
        }
        ServeStats::bump(&inner.stats.completed);
        job.claim.fill(Stored::new(result, corrupt_stored));
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

/// Where a request stands on the tier ladder: the tier it is trying,
/// the steps it took down to it, and its trace.
struct Ladder {
    tier: Tier,
    degraded: Vec<Degradation>,
    trace: TraceBuilder,
}

impl Ladder {
    /// Steps down to `to`, recorded in all three sinks: the response's
    /// `degraded` list, the request trace, and (when tracing is on) a
    /// `serve:degrade` event.
    fn down(&mut self, to: Tier, reason: DegradeReason, detail: String) {
        let from = std::mem::replace(&mut self.tier, to);
        let outcome = format!("degraded to {to}: {reason}");
        self.trace.step(from.name(), outcome);
        exo_obs::event("serve:degrade", || format!("{from} -> {to}: {reason}"));
        self.degraded.push(Degradation {
            from,
            to,
            reason,
            detail,
        });
    }
}

/// What replay, verification and emission make of a request — the same
/// for every request with its [`plan_request`].
struct Plan {
    /// The scheduled procedure, without the cursor history that made it.
    proc: Proc,
    /// The target's F32 instructions, and `proc` under its own name: the
    /// emitter and the interp tier resolve calls against it and take
    /// every lowering from its memos, so each is made once per plan.
    registry: ProcRegistry,
    /// The verifier's findings, formatted; none of them is an error.
    diagnostics: Arc<[String]>,
    /// The emitted unit's text, as the results that want it share it.
    c_code: Arc<str>,
    /// The extra compiler flags the unit needs.
    cflags: Vec<String>,
    /// Outcome of the `native-flags` step: which unit was emitted and why.
    native_flags: String,
    /// `proc`, printed.
    scheduled_ir: Arc<str>,
    /// The data driver around the unit, emitted the first time the
    /// native-run tier is reached with inputs to run it on.
    driver: OnceLock<String>,
}

/// The request's plan: the one the service holds for its [`plan_request`],
/// or a new one, kept if made. A worker that needs a plan another is
/// making waits for it. A refusal — a script that does not replay, a
/// verifier error, a unit that cannot be emitted — is handed to those
/// waiting and not kept, and neither is a plan whose making panics (its
/// waiters then make it themselves): those are the result cache's
/// negative entries. Closes the `replay`, `verify` and `emit` steps of
/// `trace`, with outcome `reused` on a plan this worker did not make.
fn plan(
    inner: &ServiceInner,
    request: &ServeRequest,
    trace: &mut TraceBuilder,
) -> Result<Arc<Plan>, ServeError> {
    let key = plan_request(request);
    let (planned, made) =
        inner
            .plan_memo
            .get_or_init(request_key(&key), &key, Result::is_ok, || {
                make_plan(inner, request, trace).map(Arc::new)
            });
    if !made && planned.is_ok() {
        ServeStats::bump(&inner.stats.plans_reused);
        for step in ["replay", "verify", "emit"] {
            trace.step(step, "reused".to_string());
        }
    }
    planned
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
    // A kernel named like an instruction it calls replaces it here; the
    // emitter then refuses the call cycle, so no plan holds one.
    let mut registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    registry.register(proc.clone());
    let (unit, portable_why) = {
        let _span = exo_obs::span!("serve:emit", "{}", proc.name());
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
    let scheduled_ir = proc.to_string().into();
    trace.step("emit", "ok".to_string());
    Ok(Plan {
        proc,
        registry,
        diagnostics: diagnostics.into(),
        c_code: unit.code.into(),
        cflags: unit.cflags,
        native_flags,
        scheduled_ir,
        driver: OnceLock::new(),
    })
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
    let proc = &plan.proc;
    trace.step("native-flags", plan.native_flags.clone());

    let mut ladder = Ladder {
        tier: request.options.tier,
        degraded: Vec::new(),
        trace,
    };
    let mut served = "served";
    let exec = loop {
        let _tier_span = exo_obs::span!("serve:tier", "{}", ladder.tier.name());
        match ladder.tier {
            Tier::NativeRun => {
                let inputs = match synth_inputs(proc, request.options.input_seed) {
                    Ok(inputs) => inputs,
                    Err(detail) => {
                        ladder.down(Tier::CompileOnly, DegradeReason::InputSynthesis, detail);
                        continue;
                    }
                };
                let driver = plan
                    .driver
                    .get_or_init(|| emit_data_driver(&*plan.c_code, proc));
                match compile_guarded(inner, Artifact::Executable, driver, &plan, job.fault) {
                    Ok(exe) => match run_binary_guarded(inner, &exe, &inputs, job.fault) {
                        Ok(summary) => {
                            served = build_outcome(&exe);
                            break Some(summary);
                        }
                        Err((reason, detail)) => {
                            // The unit compiled; serve the compile-only
                            // tier from the artifact we already have.
                            ladder.down(Tier::CompileOnly, reason, detail);
                            break None;
                        }
                    },
                    Err((reason, detail)) => ladder.down(Tier::Interp, reason, detail),
                }
            }
            Tier::CompileOnly => {
                match compile_guarded(inner, Artifact::Object, &plan.c_code, &plan, job.fault) {
                    Ok(object) => {
                        served = build_outcome(&object);
                        break None;
                    }
                    Err((reason, detail)) => ladder.down(Tier::Interp, reason, detail),
                }
            }
            Tier::Interp => {
                let inputs = match synth_inputs(proc, request.options.input_seed) {
                    Ok(inputs) => inputs,
                    Err(detail) => {
                        ladder.down(Tier::VerifiedIr, DegradeReason::InputSynthesis, detail);
                        continue;
                    }
                };
                ServeStats::bump(&inner.stats.interp_runs);
                match interpret(&plan, inputs) {
                    Ok(summary) => break Some(summary),
                    Err(detail) => ladder.down(Tier::VerifiedIr, DegradeReason::InterpTrap, detail),
                }
            }
            Tier::VerifiedIr => break None,
        }
    };
    let Ladder {
        tier,
        degraded,
        mut trace,
    } = ladder;
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
        c_code: request.options.want_c.then(|| plan.c_code.clone()),
        exec,
        scheduled_ir: plan.scheduled_ir.clone(),
        trace: trace.finish(),
    })
}

/// Runs the interpreter on the plan's proc over `inputs`, which become
/// its arguments without a copy, and folds the final contents of every
/// tensor argument into an [`ExecSummary`]. The proc and its callees run
/// their lowerings from the plan's registry, made when the plan was.
fn interpret(plan: &Plan, inputs: Vec<SynthArg>) -> Result<ExecSummary, String> {
    let (bufs, args) = interp_args(inputs);
    Interpreter::new(&plan.registry)
        .run(&plan.proc, args, &mut NullMonitor)
        .map_err(|e| format!("interpreter failed on `{}`: {e}", plan.proc.name()))?;
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
/// to link, or the bare unit to compile — with `plan`'s flags and name,
/// under the service's compile guard: built by the first request for it,
/// reused by every later one.
/// A planned compiler fault stands in for `cc` itself and goes around the
/// toolchain: it neither reads nor populates the build cache and builds
/// no prelude. The error is a (reason, detail) degradation pair.
fn compile_guarded(
    inner: &ServiceInner,
    kind: Artifact,
    source: &str,
    plan: &Plan,
    fault: Option<Fault>,
) -> Result<SharedBuild, (DegradeReason, String)> {
    let (cflags, name) = (&plan.cflags, plan.proc.name());
    let injected = |mut stand_in: Command| {
        Err(run_compiler(&mut stand_in, &inner.cfg.compile_guard)
            .err()
            .unwrap_or_else(|| BuildError::Failed("the injected compiler built nothing".into())))
    };
    let built = match fault {
        Some(Fault::CcMissing) => injected(Command::new("exo2-injected-missing-cc")),
        Some(Fault::CcHang) => injected(hang_command()),
        _ => match kind {
            Artifact::Executable => inner.toolchain.executable(source, cflags, name),
            Artifact::Object => inner.toolchain.object(source, cflags, name),
        },
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
