//! A registry of procedures resolvable by call statements, and the one
//! lowering of each: the executor runs a callee's memoized lowering, and
//! the C emitter (`exo-codegen`) emits from it, so a registered procedure
//! is lowered once per registration however many calls run it and
//! however many units emit it.

use crate::lower::{lower, LoweredProc};
use exo_ir::Proc;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a over a name's bytes: every call looks its callee up by name,
/// and names are short, so a fixed multiply per byte beats SipHash's
/// per-process keyed rounds. The keys are the program's own procedure
/// names (a machine's instruction set, the procs a caller registers),
/// so there is no colliding input to defend against. No seed, so
/// iteration order is the same in every process.
struct NameHasher(u64);

impl Default for NameHasher {
    fn default() -> Self {
        NameHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Maps procedure names to their definitions.
///
/// Object code may call sub-procedures and instruction procedures; the
/// interpreter resolves those calls against a registry. Instruction
/// procedures (those with [`exo_ir::Proc::instr`] metadata) carry their
/// semantics in their bodies, so calling them is no different from calling
/// ordinary procedures — except that monitors may charge them differently.
///
/// Each entry also memoizes its procedure's [`LoweredProc`] (computed
/// lazily on first call), so the hot instruction procedures of a kernel
/// are lowered once per registration rather than re-traversed on every
/// call, and the C emitter takes every callee's lowering from the same
/// memo ([`ProcRegistry::lowered_for`]). The lowering lives in the entry
/// it was computed from, so re-registering a name drops it with the
/// definition it came from.
#[derive(Clone, Debug, Default)]
pub struct ProcRegistry {
    procs: HashMap<String, Entry, BuildHasherDefault<NameHasher>>,
}

#[derive(Clone, Debug)]
struct Entry {
    proc: Proc,
    lowered: OnceCell<LoweredProc>,
}

impl Entry {
    fn lowered(&self) -> &LoweredProc {
        self.lowered.get_or_init(|| lower(&self.proc))
    }
}

impl ProcRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ProcRegistry::default()
    }

    /// Registers a procedure under its own name, replacing any previous
    /// definition with the same name (and that definition's lowering, so
    /// calls always execute the latest definition).
    pub fn register(&mut self, proc: Proc) -> &mut Self {
        let entry = Entry {
            proc,
            lowered: OnceCell::new(),
        };
        self.procs.insert(entry.proc.name().to_string(), entry);
        self
    }

    /// Registers every procedure in the iterator.
    pub fn register_all(&mut self, procs: impl IntoIterator<Item = Proc>) -> &mut Self {
        for p in procs {
            self.register(p);
        }
        self
    }

    /// Looks up a procedure by name.
    pub fn get(&self, name: &str) -> Option<&Proc> {
        self.procs.get(name).map(|e| &e.proc)
    }

    /// Whether a procedure with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.procs.contains_key(name)
    }

    /// Number of registered procedures.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Iterates over all registered procedures.
    pub fn iter(&self) -> impl Iterator<Item = &Proc> {
        self.procs.values().map(|e| &e.proc)
    }

    /// The procedure registered under `name` and its lowering, lowering
    /// it now if this is the first request since registration: one
    /// lookup per call. Returns `None` for unregistered names. The
    /// executor resolves calls through it, and the C emitter takes every
    /// callee's lowering from it.
    pub fn lowered_for(&self, name: &str) -> Option<(&Proc, &LoweredProc)> {
        let entry = self.procs.get(name)?;
        Some((&entry.proc, entry.lowered()))
    }

    /// The cached lowering for a top-level procedure, provided the
    /// identical procedure is registered under its own name (the identity
    /// key: same name *and* structurally equal definition). Lets repeated
    /// `run` calls on a registered kernel skip re-lowering.
    pub(crate) fn lowered_if_registered(&self, proc: &Proc) -> Option<&LoweredProc> {
        let entry = self.procs.get(proc.name())?;
        (entry.proc == *proc).then(|| entry.lowered())
    }
}

impl FromIterator<Proc> for ProcRegistry {
    fn from_iter<T: IntoIterator<Item = Proc>>(iter: T) -> Self {
        let mut r = ProcRegistry::new();
        r.register_all(iter);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::ProcBuilder;

    #[test]
    fn register_and_lookup() {
        let mut r = ProcRegistry::new();
        r.register(ProcBuilder::new("foo").build());
        r.register(ProcBuilder::new("bar").build());
        assert!(r.contains("foo"));
        assert!(!r.contains("baz"));
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("bar").unwrap().name(), "bar");
    }

    #[test]
    fn later_registration_replaces_earlier() {
        let mut r = ProcRegistry::new();
        r.register(ProcBuilder::new("foo").size_arg("n").build());
        r.register(ProcBuilder::new("foo").build());
        assert_eq!(r.get("foo").unwrap().args().len(), 0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn collects_from_iterator() {
        let r: ProcRegistry = vec![ProcBuilder::new("a").build(), ProcBuilder::new("b").build()]
            .into_iter()
            .collect();
        assert_eq!(r.len(), 2);
        assert_eq!(r.iter().count(), 2);
    }
}
