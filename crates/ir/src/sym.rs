//! Symbols (variable, buffer, iterator and configuration-register names).

use std::fmt;
use std::sync::Arc;

/// A symbol in the object language: an iterator, buffer, scalar or
/// configuration-register name.
///
/// Symbols compare, order and hash by their textual name; the text is
/// shared, so a clone is a reference-count bump (symbol clones were 42 %
/// of a library pass's heap allocations when each owned its `String`).
/// Fresh temporaries come from [`crate::Proc::fresh_sym`], which picks
/// the smallest unused `base_n` suffix of one procedure, so generated
/// names depend only on the procedure being scheduled, never on global
/// state or test order.
///
/// ```
/// use exo_ir::Sym;
/// let a = Sym::new("x");
/// let b = Sym::new("x");
/// assert_eq!(a, b);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(Arc<str>);

impl Sym {
    /// Creates a symbol with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Sym(name.into().into())
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
