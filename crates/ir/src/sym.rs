//! Symbols (variable, buffer, iterator and configuration-register names).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A symbol in the object language: an iterator, buffer, scalar or
/// configuration-register name.
///
/// Symbols compare, order and hash by their textual name; the text is
/// shared, so a clone is a reference-count bump (symbol clones were 42 %
/// of a library pass's heap allocations when each owned its `String`).
/// Two mechanisms mint fresh temporaries:
///
/// * [`crate::Proc::fresh_sym`] — deterministic per procedure (the
///   smallest unused `base_n` suffix). This is what the scheduling
///   libraries use, so generated names depend only on the procedure being
///   scheduled, never on global state or test order.
/// * [`Sym::fresh`] — a process-global counter, kept for contexts with no
///   procedure at hand. Names are unique but *not* reproducible across
///   runs or orderings; avoid it anywhere output is golden-tested.
///
/// ```
/// use exo_ir::Sym;
/// let a = Sym::new("x");
/// let b = Sym::new("x");
/// assert_eq!(a, b);
/// let f1 = Sym::fresh("tmp");
/// let f2 = Sym::fresh("tmp");
/// assert_ne!(f1, f2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(Arc<str>);

static FRESH_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Sym {
    /// Creates a symbol with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Sym(name.into().into())
    }

    /// Creates a fresh symbol guaranteed to differ from any previously
    /// created fresh symbol, derived from `base`.
    pub fn fresh(base: &str) -> Self {
        let n = FRESH_COUNTER.fetch_add(1, Ordering::Relaxed);
        Sym(format!("{base}_{n}").into())
    }

    /// Resets the global fresh-name counter to zero so a schedule
    /// constructed next produces deterministic generated names.
    ///
    /// This exists for single-threaded benchmark harnesses and golden
    /// tests that need repeated runs to pretty-print identically. Never
    /// call it from code
    /// that may run concurrently with other symbol-generating work —
    /// reused suffixes could collide with live fresh names.
    pub fn reset_fresh_counter() {
        FRESH_COUNTER.store(0, Ordering::Relaxed);
    }

    /// Returns the symbol's textual name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym::new(s)
    }
}

impl From<&Sym> for Sym {
    fn from(s: &Sym) -> Self {
        s.clone()
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_is_by_name() {
        assert_eq!(Sym::new("i"), Sym::new("i"));
        assert_ne!(Sym::new("i"), Sym::new("j"));
        assert_eq!(Sym::new("i"), *"i");
    }

    #[test]
    fn fresh_symbols_are_unique() {
        let s1 = Sym::fresh("v");
        let s2 = Sym::fresh("v");
        assert_ne!(s1, s2);
        assert!(s1.name().starts_with("v_"));
    }

    #[test]
    fn display_and_debug() {
        let s = Sym::new("acc");
        assert_eq!(format!("{s}"), "acc");
        assert_eq!(format!("{s:?}"), "Sym(acc)");
    }

    #[test]
    fn conversions() {
        let s: Sym = "buf".into();
        assert_eq!(s.name(), "buf");
        let owned: Sym = String::from("buf2").into();
        assert_eq!(owned.name(), "buf2");
    }
}
