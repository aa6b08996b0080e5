//! Rewrite accounting.
//!
//! The paper's evaluation (Fig. 9b) reports the *number of primitive
//! rewrites* each kernel's schedule performs — the work a user of plain Exo
//! would have had to write by hand. Every primitive in this crate records
//! one rewrite per successful application into a thread-local counter;
//! user-level scheduling libraries (in `exo-lib`) accumulate counts through
//! the primitives they call, so the benchmark harness can reproduce the
//! table by resetting the counter, running a schedule, and reading it back.

use std::cell::RefCell;
use std::collections::BTreeMap;

thread_local! {
    static REWRITES: RefCell<BTreeMap<&'static str, u64>> = const { RefCell::new(BTreeMap::new()) };
}

/// Records one application of the named primitive.
pub fn record(primitive: &'static str) {
    REWRITES.with(|r| {
        *r.borrow_mut().entry(primitive).or_insert(0) += 1;
    });
}

/// Total number of primitive rewrites recorded since the last reset.
pub fn total() -> u64 {
    REWRITES.with(|r| r.borrow().values().sum())
}

/// Per-primitive rewrite counts since the last reset.
pub fn breakdown() -> BTreeMap<&'static str, u64> {
    REWRITES.with(|r| r.borrow().clone())
}

/// Resets the counter to zero.
pub fn reset() {
    REWRITES.with(|r| r.borrow_mut().clear());
}

/// Runs `f` with a fresh counter and returns its result together with the
/// number of rewrites it performed. The previous counter contents are
/// restored afterwards, so nested measurements compose.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let saved = REWRITES.with(|r| std::mem::take(&mut *r.borrow_mut()));
    let out = f();
    let count = total();
    REWRITES.with(|r| {
        let inner = std::mem::replace(&mut *r.borrow_mut(), saved);
        // Fold the nested counts back into the outer counter so outer
        // measurements still see the full cost.
        let mut outer = r.borrow_mut();
        for (k, v) in inner {
            *outer.entry(k).or_insert(0) += v;
        }
    });
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_reset() {
        reset();
        record("divide_loop");
        record("divide_loop");
        record("lift_scope");
        assert_eq!(total(), 3);
        assert_eq!(breakdown()["divide_loop"], 2);
        reset();
        assert_eq!(total(), 0);
    }

    #[test]
    fn measure_is_isolated_but_accumulates_outward() {
        reset();
        record("outer");
        let ((), inner) = measure(|| {
            record("inner");
            record("inner");
        });
        assert_eq!(inner, 2);
        // Outer counter sees outer + folded-in inner counts.
        assert_eq!(total(), 3);
        reset();
    }
}
