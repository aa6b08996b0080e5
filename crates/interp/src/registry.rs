//! A registry of procedures resolvable by call statements, and the one
//! lowering of each: the executor runs a callee's memoized lowering, and
//! the C emitter (`exo-codegen`) emits from it, so a registered procedure
//! is lowered once per registration however many calls run it, however
//! many units emit it and however many threads share the registry.
//! Beside the lowering, each entry keeps a second memo for a code
//! generator: the C emitter keeps there the text it rendered for the
//! procedure, so an instruction is rendered once per registration too.

use crate::lower::{lower, LoweredProc};
use exo_ir::{ContentHasher, Proc};
use std::any::Any;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, OnceLock};

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
/// memo ([`ProcRegistry::lowered_for`]); a root is looked up by
/// [`ProcRegistry::lowering`]. The lowering lives in the entry it was
/// computed from, so re-registering a name drops it with the definition
/// it came from.
///
/// The second memo ([`ProcRegistry::backend_memo`]) holds what a code
/// generator derives from the entry alone; the C emitter keeps each
/// instruction's rendered function text there, one per emission mode.
/// The registry does not know its type. It lives in the entry too, so it
/// dies with the definition on re-registration, and a clone of the
/// registry shares it.
///
/// Names hash with [`ContentHasher`]: every call looks its callee up by
/// name, and a word-at-a-time hash with no per-process key beats
/// SipHash there. The keys are the program's own procedure names, so
/// there is no colliding input to defend against; with no seed, the
/// iteration order is the same in every process.
///
/// Both memos are `OnceLock`s, so a registry is `Send + Sync` and one
/// registry serves every thread: the first thread to ask for a memo
/// makes it, the others wait for it. An init that panics leaves its cell
/// empty, not half-written, and the next request makes the memo again.
#[derive(Clone, Debug, Default)]
pub struct ProcRegistry {
    procs: HashMap<String, Entry, BuildHasherDefault<ContentHasher>>,
}

#[derive(Clone, Debug)]
struct Entry {
    proc: Proc,
    lowered: OnceLock<LoweredProc>,
    backend: OnceLock<Arc<dyn Any + Send + Sync>>,
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
            lowered: OnceLock::new(),
            backend: OnceLock::new(),
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

    /// The code generator's memo for the procedure registered under
    /// `name`, made by `init` on the first request since registration.
    /// Returns `None` for unregistered names, and when the memo was made
    /// with another type. The memo must depend on nothing but the entry's
    /// procedure: re-registering another name leaves it in place.
    pub fn backend_memo<T: Any + Send + Sync>(
        &self,
        name: &str,
        init: impl FnOnce() -> T,
    ) -> Option<&T> {
        let entry = self.procs.get(name)?;
        entry
            .backend
            .get_or_init(|| Arc::new(init()))
            .downcast_ref::<T>()
    }

    /// The lowering of a root procedure: the memo, when the identical
    /// procedure is registered under its own name (the identity key: same
    /// name *and* structurally equal definition), and otherwise a fresh
    /// lowering, which nothing keeps. The interpreter's `run` and the C
    /// emitter both take their root's lowering here, so a registered
    /// kernel is lowered once however often it runs or is emitted.
    pub fn lowering(&self, proc: &Proc) -> Cow<'_, LoweredProc> {
        match self.procs.get(proc.name()) {
            Some(entry) if entry.proc == *proc => Cow::Borrowed(entry.lowered()),
            _ => Cow::Owned(lower(proc)),
        }
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
    use crate::{ArgValue, Interpreter, NullMonitor};
    use exo_ir::{ib, read, var, DataType, Mem, ProcBuilder};
    use std::panic::{catch_unwind, AssertUnwindSafe};

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

    #[test]
    fn a_panicking_backend_memo_init_leaves_the_entry_usable() {
        let mut r = ProcRegistry::new();
        r.register(ProcBuilder::new("foo").build());
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            r.backend_memo::<u32>("foo", || std::panic::panic_any("init unwound"))
        }));
        assert!(unwound.is_err());
        // The cell was left empty, not half-written: the next request
        // makes the memo, and the lowering memo beside it still works.
        assert_eq!(r.backend_memo("foo", || 7u32), Some(&7));
        assert_eq!(r.backend_memo("foo", || 8u32), Some(&7));
        assert!(r.lowered_for("foo").is_some());
    }

    /// `y[i] = x[i] + x[i]` for `i < n`, through a registered callee.
    fn doubled() -> (Proc, Proc) {
        let args = |b: ProcBuilder| {
            b.size_arg("n")
                .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
        };
        let twice = args(ProcBuilder::new("twice"))
            .for_("i", ib(0), var("n"), |b| {
                let rhs = read("x", vec![var("i")]) + read("x", vec![var("i")]);
                b.assign("y", vec![var("i")], rhs);
            })
            .build();
        let root = args(ProcBuilder::new("doubled"))
            .with_body(|b| {
                b.call("twice", vec![var("n"), var("y"), var("x")]);
            })
            .build();
        (twice, root)
    }

    #[test]
    fn threads_share_one_registry_and_its_lowerings() {
        let (twice, root) = doubled();
        let fresh = || -> ProcRegistry { [twice.clone(), root.clone()].into_iter().collect() };
        let run = |registry: &ProcRegistry| {
            let x: Vec<f64> = (0..16).map(f64::from).collect();
            let (_, x_arg) = ArgValue::from_vec(x, vec![16], DataType::F32);
            let (y, y_arg) = ArgValue::zeros(vec![16], DataType::F32);
            let args = vec![ArgValue::Int(16), y_arg, x_arg];
            Interpreter::new(registry)
                .run(&root, args, &mut NullMonitor)
                .unwrap();
            let lowered = match registry.lowering(&root) {
                Cow::Borrowed(lowered) => lowered as *const LoweredProc as usize,
                Cow::Owned(_) => panic!("a registered root is lowered afresh"),
            };
            let out = y.borrow().data.clone();
            (out, lowered)
        };
        let (alone, _) = run(&fresh());
        assert_eq!(alone, (0..16).map(|v| f64::from(2 * v)).collect::<Vec<_>>());
        // Four threads race to make the memos of one registry.
        let shared = fresh();
        let threaded: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4).map(|_| s.spawn(|| run(&shared))).collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let memo = threaded[0].1;
        for (out, lowered) in threaded {
            assert_eq!(out, alone, "a thread's outputs differ from one thread's");
            assert_eq!(lowered, memo, "threads borrowed different lowerings");
        }
    }
}
