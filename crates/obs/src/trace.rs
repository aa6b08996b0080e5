//! The span/event tracing core.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Every entry point loads one relaxed
//!    atomic and returns. Attribute strings are built by closures that
//!    are never called on the disabled path, so instrumented hot loops
//!    pay one predictable branch and no allocation.
//! 2. **No contention when enabled.** Each thread records into its own
//!    buffer and flushes to the global collector in chunks (and whenever
//!    its span stack returns to depth zero), so the collector mutex is
//!    taken once per `FLUSH_CHUNK` records, not once per span.
//! 3. **Bounded memory.** The collector is a ring: past its capacity the
//!    oldest records are dropped and counted, never unbounded growth.
//!
//! Timestamps are nanoseconds from a process-wide monotonic epoch
//! ([`now_ns`]), so spans recorded on different threads share one
//! timeline and export directly to Chrome trace-event JSON.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Records buffered per thread before a flush to the global collector.
const FLUSH_CHUNK: usize = 128;

/// Default global collector capacity (records). Oldest are dropped —
/// and counted in [`Trace::dropped`] — beyond it.
const DEFAULT_CAPACITY: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide monotonic tracing epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Whether tracing is currently enabled. One relaxed atomic load — this
/// is the whole cost of every instrumentation site on the disabled path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on (and pins the monotonic epoch if this is the first
/// use). Instrumentation sites start recording from here on.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns tracing off. Spans already open keep their guard state and are
/// still recorded on drop; new sites become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// One completed span: a named interval on one thread's timeline.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Static site name, e.g. `"serve:request"`.
    pub name: &'static str,
    /// Lazily built attribute string (only built while enabled).
    pub attr: Option<String>,
    /// Start, ns since the tracing epoch.
    pub start_ns: u64,
    /// End, ns since the tracing epoch.
    pub end_ns: u64,
    /// Small dense per-thread ordinal (the Chrome-trace `tid`).
    pub tid: u64,
    /// Nesting depth at which the span ran (0 = root).
    pub depth: u32,
}

/// One instantaneous event on a thread's timeline.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Static site name, e.g. `"guard:timeout"`.
    pub name: &'static str,
    /// Lazily built detail string.
    pub detail: Option<String>,
    /// Timestamp, ns since the tracing epoch.
    pub ts_ns: u64,
    /// Small dense per-thread ordinal.
    pub tid: u64,
}

/// Everything the collector stores.
#[derive(Clone, Debug)]
pub enum Record {
    /// A completed span.
    Span(SpanRecord),
    /// An instantaneous event.
    Event(EventRecord),
}

struct Collector {
    records: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
}

fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    COLLECTOR.get_or_init(|| {
        Mutex::new(Collector {
            records: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        })
    })
}

fn lock_collector() -> MutexGuard<'static, Collector> {
    collector().lock().unwrap_or_else(|e| e.into_inner())
}

struct ThreadBuf {
    tid: u64,
    depth: u32,
    buf: Vec<Record>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut c = lock_collector();
        for record in self.buf.drain(..) {
            if c.records.len() >= c.capacity {
                c.records.pop_front();
                c.dropped += 1;
            }
            c.records.push_back(record);
        }
    }

    fn push(&mut self, record: Record) {
        self.buf.push(record);
        if self.depth == 0 || self.buf.len() >= FLUSH_CHUNK {
            self.flush();
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        // Thread exit: hand whatever is buffered to the collector.
        self.flush();
    }
}

thread_local! {
    static TBUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        depth: 0,
        buf: Vec::new(),
    });
}

struct SpanState {
    name: &'static str,
    attr: Option<String>,
    start_ns: u64,
}

/// A live span guard: records the completed interval when dropped.
/// Inert (a no-op to create and drop) while tracing is disabled.
#[must_use = "a span measures the interval until the guard is dropped"]
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// Ends the span now (sugar for dropping the guard explicitly).
    pub fn done(self) {}
}

fn open_span(name: &'static str, attr: Option<String>) -> Span {
    let _ = TBUF.try_with(|t| t.borrow_mut().depth += 1);
    Span {
        state: Some(SpanState {
            name,
            attr,
            start_ns: now_ns(),
        }),
    }
}

/// Opens a span named `name`. Returns an inert guard while disabled.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { state: None };
    }
    open_span(name, None)
}

/// Opens a span with an attribute string; `attr` is only invoked while
/// tracing is enabled, so formatting costs nothing on the disabled path.
pub fn span_with<F: FnOnce() -> String>(name: &'static str, attr: F) -> Span {
    if !enabled() {
        return Span { state: None };
    }
    open_span(name, Some(attr()))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut state) = self.state.take() else {
            return;
        };
        let end_ns = now_ns();
        let _ = TBUF.try_with(|t| {
            let mut t = t.borrow_mut();
            t.depth = t.depth.saturating_sub(1);
            let record = Record::Span(SpanRecord {
                name: state.name,
                attr: state.attr.take(),
                start_ns: state.start_ns,
                end_ns,
                tid: t.tid,
                depth: t.depth,
            });
            t.push(record);
        });
    }
}

/// Records an instantaneous event; `detail` is only invoked while
/// tracing is enabled.
pub fn event<F: FnOnce() -> String>(name: &'static str, detail: F) {
    if !enabled() {
        return;
    }
    let detail = Some(detail());
    let ts_ns = now_ns();
    let _ = TBUF.try_with(|t| {
        let mut t = t.borrow_mut();
        let record = Record::Event(EventRecord {
            name,
            detail,
            ts_ns,
            tid: t.tid,
        });
        t.push(record);
    });
}

/// Flushes the calling thread's buffered records to the collector.
/// Other threads flush on chunk boundaries, whenever their span stack
/// returns to depth zero, and on thread exit.
pub fn flush_thread() {
    let _ = TBUF.try_with(|t| t.borrow_mut().flush());
}

/// Everything collected since the last [`take`]/[`clear`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Collected records, in per-thread flush order.
    pub records: Vec<Record>,
    /// Records dropped because the collector ring was full.
    pub dropped: u64,
}

impl Trace {
    /// Completed spans only, in collection order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.records.iter().filter_map(|r| match r {
            Record::Span(s) => Some(s),
            Record::Event(_) => None,
        })
    }

    /// Instantaneous events only, in collection order.
    pub fn events(&self) -> impl Iterator<Item = &EventRecord> {
        self.records.iter().filter_map(|r| match r {
            Record::Event(e) => Some(e),
            Record::Span(_) => None,
        })
    }
}

/// Drains the collector (after flushing the calling thread). Threads
/// still inside an open span keep those records until their guards drop.
pub fn take() -> Trace {
    flush_thread();
    let mut c = lock_collector();
    Trace {
        records: c.records.drain(..).collect(),
        dropped: std::mem::take(&mut c.dropped),
    }
}

/// Discards everything collected so far and resets the dropped count.
pub fn clear() {
    flush_thread();
    let mut c = lock_collector();
    c.records.clear();
    c.dropped = 0;
}

/// An exclusive tracing session: takes a process-wide gate (so parallel
/// tests and benches do not interleave records), clears the collector,
/// and enables tracing. [`Session::finish`] disables tracing and returns
/// the collected [`Trace`]; dropping without finishing just disables.
#[must_use = "the session disables tracing when dropped"]
pub struct Session {
    _gate: MutexGuard<'static, ()>,
}

/// Opens an exclusive tracing [`Session`]. Blocks until any other
/// session (in this process) finishes.
pub fn session() -> Session {
    static GATE: Mutex<()> = Mutex::new(());
    let gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    clear();
    enable();
    Session { _gate: gate }
}

impl Session {
    /// Stops tracing and returns everything recorded in this session.
    pub fn finish(self) -> Trace {
        disable();
        take()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        disable();
    }
}

/// Opens a [`Span`](crate::trace::Span) guard: `span!("name")` or
/// `span!("name", "fmt {}", args)` — the format arguments are only
/// evaluated while tracing is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
    ($name:expr, $($arg:tt)+) => {
        $crate::trace::span_with($name, || format!($($arg)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let session = session();
        let trace = session.finish();
        drop(trace);
        // Now disabled: spans must be inert.
        let g = span("never");
        drop(g);
        event("never", || "detail".to_string());
        flush_thread();
        let t = take();
        assert!(
            t.records.iter().all(|r| match r {
                Record::Span(s) => s.name != "never",
                Record::Event(e) => e.name != "never",
            }),
            "disabled sites must not record"
        );
    }

    #[test]
    fn nested_spans_are_well_formed() {
        let session = session();
        {
            let _root = span_with("root", || "r=1".to_string());
            {
                let _child = span("child");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let trace = session.finish();
        let spans: Vec<&SpanRecord> = trace.spans().collect();
        assert_eq!(spans.len(), 2);
        // Children drop first, so they are recorded first.
        let child = spans[0];
        let root = spans[1];
        assert_eq!(child.name, "child");
        assert_eq!(root.name, "root");
        assert_eq!(root.attr.as_deref(), Some("r=1"));
        assert_eq!(root.depth, 0);
        assert_eq!(child.depth, 1);
        assert!(root.start_ns <= child.start_ns);
        assert!(child.end_ns <= root.end_ns);
        assert!(child.start_ns <= child.end_ns);
    }

    #[test]
    fn collector_is_bounded_and_counts_drops() {
        let session = session();
        // Overfill the default capacity cheaply is too slow; instead
        // verify the ring logic directly on a tiny collector.
        {
            let mut c = lock_collector();
            c.capacity = 4;
        }
        for _ in 0..10 {
            span("tiny").done();
        }
        flush_thread();
        let trace = {
            let mut c = lock_collector();
            let t = Trace {
                records: c.records.drain(..).collect(),
                dropped: std::mem::take(&mut c.dropped),
            };
            c.capacity = DEFAULT_CAPACITY;
            t
        };
        drop(session);
        assert_eq!(trace.records.len(), 4, "ring keeps only capacity records");
        assert_eq!(trace.dropped, 6, "drops are counted");
    }

    #[test]
    fn events_carry_detail() {
        let session = session();
        event("evt", || format!("x={}", 42));
        let trace = session.finish();
        let events: Vec<&EventRecord> = trace.events().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "evt");
        assert_eq!(events[0].detail.as_deref(), Some("x=42"));
    }
}
