//! The deep-clone *reference implementation* toggle.
//!
//! The production editing path relies on structural sharing: committing a
//! [`crate::Rewrite`] copies only the O(depth) spine of edited blocks,
//! versions in a provenance chain share unchanged subtrees, cursor
//! forwarding uses each version's precomposed edit step, and `find` stops
//! walking at the requested match. Within this scope every one of those
//! shortcuts is disabled and the historical cost model is restored:
//!
//! * `Rewrite::new` deep-copies the whole procedure, exactly like the
//!   historical engine's working-copy clone (committed versions then
//!   retain essentially unshared ASTs — O(edits × |proc|) time and
//!   memory);
//! * forwarding re-interprets every recorded edit, allocating a fresh
//!   path per record;
//! * `find` collects all matches before applying a `#k` selector, and
//!   subtree-restricted finds scan the whole procedure with a prefix
//!   filter.
//!
//! Results are bit-for-bit identical in both modes — only the cost
//! differs. Where the historical engine performed *additional* deep
//! copies this scope does not reproduce (statement construction inside
//! primitives cloned subtrees deeply before blocks were Arc-backed),
//! the reference engine errs cheap: measured old-vs-new gaps are lower
//! bounds. The differential property tests assert the equivalence;
//! `EXPERIMENTS.md` keeps the last measured costs.

use std::cell::Cell;

thread_local! {
    static REFERENCE: Cell<bool> = const { Cell::new(false) };
}

struct Restore(bool);

impl Drop for Restore {
    fn drop(&mut self) {
        REFERENCE.with(|r| r.set(self.0));
    }
}

/// Runs `f` with the deep-clone reference semantics enabled on this
/// thread, restoring the previous mode afterwards (also on panic).
pub fn with_reference_semantics<T>(f: impl FnOnce() -> T) -> T {
    let _restore = Restore(REFERENCE.with(|r| r.replace(true)));
    f()
}

/// Whether the current thread is running under reference semantics.
pub(crate) fn active() -> bool {
    REFERENCE.with(|r| r.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_is_nested_and_restored() {
        assert!(!active());
        with_reference_semantics(|| {
            assert!(active());
            with_reference_semantics(|| assert!(active()));
            assert!(active());
        });
        assert!(!active());
    }
}
