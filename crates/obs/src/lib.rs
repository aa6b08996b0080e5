//! `exo-obs`: the workspace observability substrate — span tracing,
//! a latency histogram, and Chrome-trace export, with no dependencies.
//!
//! The rest of the workspace instruments its hot layers against this
//! crate: scheduling primitives, the interpreter, subprocess guards,
//! the autotuner's funnel stages and the serve request pipeline each
//! open [`span!`]s. Everything is **off by
//! default**: until [`trace::enable`] flips one process-wide atomic,
//! an instrumentation site costs a single relaxed load (attribute
//! formatting is behind closures that never run while disabled).
//!
//! When enabled, completed spans land in per-thread buffers that flush
//! in chunks to a bounded global collector; [`trace::take`] drains it
//! and [`export::chrome_trace`] renders Chrome trace-event JSON that
//! loads directly in `chrome://tracing` or Perfetto. The exporter's
//! output is self-checked: [`export::validate_chrome_trace`] re-parses
//! it (with a built-in minimal JSON parser — the workspace is
//! vendor-free) and verifies the span intervals are well-nested per
//! thread lane.
//!
//! Typical use, end to end:
//!
//! ```
//! let session = exo_obs::session();            // exclusive, enables tracing
//! {
//!     let _outer = exo_obs::span!("work", "n={}", 3);
//!     let _inner = exo_obs::span!("step");
//! }
//! let trace = session.finish();                // disables, drains
//! let json = exo_obs::chrome_trace(&trace);
//! exo_obs::validate_chrome_trace(&json).expect("exported traces are valid");
//! println!("{}", exo_obs::fmt_report(&trace));
//! ```

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

pub mod export;
pub mod metrics;
pub mod trace;

pub use export::{
    chrome_trace, fmt_report, json_escape, parse_json, validate_chrome_trace, JsonValue, TraceCheck,
};
pub use metrics::{HistSummary, Histogram};
pub use trace::{
    disable, enable, enabled, event, flush_thread, now_ns, session, span, span_with, take,
    EventRecord, Record, Session, Span, SpanRecord, Trace,
};
