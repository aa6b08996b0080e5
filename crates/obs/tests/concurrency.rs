//! Concurrency contract of the span collector: eight threads hammer it at
//! once; afterwards every span and event is exactly accounted and the
//! exported trace is valid Chrome trace JSON whose span intervals are
//! monotone and well-nested on every thread lane.

use exo_obs::{chrome_trace, validate_chrome_trace, Record};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
const OPS: usize = 500;

#[test]
fn eight_threads_lose_no_counts_and_export_well_nested_spans() {
    let session = exo_obs::session();
    let barrier = Arc::new(Barrier::new(THREADS));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let barrier = barrier.clone();
            scope.spawn(move || {
                barrier.wait();
                for i in 0..OPS {
                    let _root = exo_obs::span!("hammer:outer", "thread={t} op={i}");
                    {
                        let _inner = exo_obs::span!("hammer:inner");
                    }
                    if i % 50 == 0 {
                        exo_obs::event("hammer:tick", || format!("thread={t} op={i}"));
                    }
                }
            });
        }
    });

    let trace = session.finish();

    // --- no lost spans (collector capacity is far above this volume) ---
    assert_eq!(trace.dropped, 0, "collector dropped records");
    let outer = trace.spans().filter(|s| s.name == "hammer:outer").count();
    let inner = trace.spans().filter(|s| s.name == "hammer:inner").count();
    assert_eq!(outer, THREADS * OPS, "lost outer spans");
    assert_eq!(inner, THREADS * OPS, "lost inner spans");
    let ticks = trace.events().filter(|e| e.name == "hammer:tick").count();
    assert_eq!(ticks, THREADS * (OPS / 50), "lost events");

    // --- per-record sanity: monotone intervals, sane lane ids ---
    let mut lanes = std::collections::BTreeSet::new();
    for record in &trace.records {
        if let Record::Span(s) = record {
            assert!(s.start_ns <= s.end_ns, "span interval must be monotone");
            lanes.insert(s.tid);
        }
    }
    assert!(
        lanes.len() >= THREADS,
        "expected at least {THREADS} lanes, saw {}",
        lanes.len()
    );

    // --- exported trace is valid and well-nested on every lane ---
    let json = chrome_trace(&trace);
    let check = validate_chrome_trace(&json).expect("exported trace must validate");
    assert_eq!(check.spans, 2 * THREADS * OPS);
    assert_eq!(check.events, 2 * THREADS * OPS + ticks);
    assert!(
        check.max_depth >= 2,
        "nesting must be visible in the export"
    );
}
