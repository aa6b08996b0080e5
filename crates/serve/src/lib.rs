//! `exo-serve`: kernel compilation as a long-lived, fault-isolated
//! service.
//!
//! A [`KernelService`] owns a bounded request queue and a pool of worker
//! threads. Each request is a `(kernel, schedule script, target,
//! options)` tuple; each response is a *classified value* — a
//! [`ServeOk`] at some [`Tier`] (possibly degraded, with the reasons
//! attached) or a [`ServeError`] variant. Nothing escapes: worker panics
//! are caught and classified, subprocesses run under hard wall-clock
//! supervision ([`proc_guard`]), identical concurrent requests are
//! coalesced single-flight onto one computation, results are
//! content-addressed and checksummed (corrupt entries are quarantined
//! and recomputed), failures are negative-cached with a TTL, every cache
//! is bounded, and overload sheds requests instead of queueing
//! unboundedly.
//!
//! Deterministic fault injection ([`FaultPlan`]) drives the soak tests:
//! hung compilers, missing compilers, hung binaries, truncated argument
//! blocks, panicking workers and corrupted cache entries at seeded
//! request indices, with the invariant that every request still resolves
//! to a classified response and every worker survives.

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

mod cache;
pub mod fault;
mod service;
mod types;

/// Subprocess supervision (re-exported from `exo-guard`): hard
/// timeouts, kill-on-timeout, bounded output capture, spawn retry with
/// exponential backoff. The same module supervises the codegen difftest
/// and the autotuner's measurement runs.
pub use exo_guard as proc_guard;

pub use cache::RESULT_CACHE_CAP;
pub use fault::{Fault, FaultPlan};
pub use service::{
    request_key, KernelService, ServeConfig, ServeStats, StatsSnapshot, Ticket, PLAN_CACHE_CAP,
};
pub use types::{
    CacheStatus, Degradation, DegradeReason, Delivery, ExecSummary, RequestTrace, ServeError,
    ServeOk, ServeOptions, ServeRequest, ServeResult, Tier, TraceStep,
};
