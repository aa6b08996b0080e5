//! Procedures: the top-level unit of the object language.

use crate::expr::Expr;
use crate::hash::ContentHasher;
use crate::stmt::Block;
use crate::sym::Sym;
use crate::types::{DataType, Mem};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The kind of a procedure argument.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum ArgKind {
    /// A `size` argument: a positive integer known at call time, usable in
    /// dimension expressions and assertions.
    Size,
    /// A scalar value argument.
    Scalar {
        /// Element type.
        ty: DataType,
    },
    /// A tensor (buffer) argument.
    Tensor {
        /// Element type.
        ty: DataType,
        /// Dimension sizes; may refer to size arguments.
        dims: Vec<Expr>,
        /// Memory space the buffer lives in.
        mem: Mem,
        /// Whether the argument is a *window* (`[f32][M, N]` in Exo syntax):
        /// a strided view rather than a dense buffer.
        window: bool,
    },
}

/// A single procedure argument.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct ProcArg {
    /// Argument name.
    pub name: Sym,
    /// Argument kind.
    pub kind: ArgKind,
}

/// Metadata attached to *instruction procedures*: procedures whose body
/// gives the semantics of a hardware instruction and whose calls are
/// emitted verbatim by the backend.
///
/// The cost model in `exo-machine` uses `cost_class` to charge cycles, and
/// `replace` (in `exo-core`) unifies statements against the instruction's
/// body to substitute calls for loop nests. The C an instruction lowers to
/// is `exo_machine::c_intrinsic`'s, looked up by the procedure's name.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct InstrInfo {
    /// Cost-model class, e.g. `"avx512_fma"`, `"gemmini_ld_block"`.
    pub cost_class: String,
}

/// A procedure of the object language.
///
/// A procedure has a name, typed arguments, a list of assertion
/// preconditions (available to the scheduling-time analysis), and a body.
/// Instruction procedures additionally carry [`InstrInfo`].
///
/// A clone is two reference-count bumps: the header (everything but the
/// body) sits behind one `Arc`, copied when one of its fields is edited,
/// and the body is a shared [`Block`].
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct Proc {
    head: Arc<Head>,
    body: Block,
}

struct Head {
    name: String,
    args: Vec<ProcArg>,
    preds: Vec<Expr>,
    instr: Option<InstrInfo>,
    /// Structural hash of the fields above, cached like a block's: 0 =
    /// not computed (a computed 0 is stored as 1). `Proc::head_mut`, the
    /// only route to editing a header, clears it. `Relaxed` throughout,
    /// as for blocks.
    hash: AtomicU64,
}

impl Clone for Head {
    fn clone(&self) -> Self {
        Head {
            name: self.name.clone(),
            args: self.args.clone(),
            preds: self.preds.clone(),
            instr: self.instr.clone(),
            hash: AtomicU64::new(self.hash.load(Ordering::Relaxed)),
        }
    }
}

/// Compares the fields; the cached hash is not one.
impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.args == other.args
            && self.preds == other.preds
            && self.instr == other.instr
    }
}

impl Hash for Head {
    /// Feeds the structural hash of the fields, from the cache when this
    /// header has been hashed since its last edit.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut hash = self.hash.load(Ordering::Relaxed);
        if hash == 0 {
            let mut h = ContentHasher::new();
            self.name.hash(&mut h);
            self.args.hash(&mut h);
            self.preds.hash(&mut h);
            self.instr.hash(&mut h);
            hash = h.finish().max(1);
            self.hash.store(hash, Ordering::Relaxed);
        }
        state.write_u64(hash);
    }
}

impl fmt::Debug for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Head")
            .field("name", &self.name)
            .field("args", &self.args)
            .field("preds", &self.preds)
            .field("instr", &self.instr)
            .finish()
    }
}

impl Proc {
    /// Creates a procedure from parts. Most users construct procedures via
    /// [`crate::ProcBuilder`] instead.
    pub fn new(name: impl Into<String>, args: Vec<ProcArg>, preds: Vec<Expr>, body: Block) -> Self {
        Proc {
            head: Arc::new(Head {
                name: name.into(),
                args,
                preds,
                instr: None,
                hash: AtomicU64::new(0),
            }),
            body,
        }
    }

    /// The header for editing, copied first if a clone shares it, with
    /// its cached hash cleared. Every header edit goes through it.
    fn head_mut(&mut self) -> &mut Head {
        let head = Arc::make_mut(&mut self.head);
        *head.hash.get_mut() = 0;
        head
    }

    /// Structural hash of the whole procedure: equal procedures hash
    /// equal, and every field `==` compares — names, argument kinds and
    /// memories, assertions, instruction metadata, the shape of every
    /// expression — reaches it. The header's share is cached on the
    /// header and the body's on its blocks, so for a version produced by
    /// an edit only the edited header or the copied spine is hashed anew.
    pub fn content_hash(&self) -> u64 {
        let mut h = ContentHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    /// Name of the procedure.
    pub fn name(&self) -> &str {
        &self.head.name
    }

    /// Renames the procedure (the `rename` scheduling operator).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.head_mut().name = name.into();
        self
    }

    /// The procedure's arguments.
    pub fn args(&self) -> &[ProcArg] {
        &self.head.args
    }

    /// Mutable access to the arguments (used by `set_memory` /
    /// `set_precision` when they target arguments).
    pub fn args_mut(&mut self) -> &mut Vec<ProcArg> {
        &mut self.head_mut().args
    }

    /// Looks up an argument by name.
    pub fn arg(&self, name: &str) -> Option<&ProcArg> {
        self.args().iter().find(|a| a.name == *name)
    }

    /// The assertion preconditions (`assert M % 8 == 0`, ...).
    pub fn preds(&self) -> &[Expr] {
        &self.head.preds
    }

    /// Adds an assertion precondition, returning the new procedure
    /// (the `add_assertion` operator from the paper's Appendix C).
    pub fn add_assertion(&self, pred: Expr) -> Proc {
        let mut p = self.clone();
        p.head_mut().preds.push(pred);
        p
    }

    /// The procedure body.
    pub fn body(&self) -> &Block {
        &self.body
    }

    /// Mutable access to the body (used by the editing layer).
    pub fn body_mut(&mut self) -> &mut Block {
        &mut self.body
    }

    /// Replaces the body wholesale.
    pub fn with_body(mut self, body: Block) -> Self {
        self.body = body;
        self
    }

    /// Instruction metadata, if this is an instruction procedure.
    pub fn instr(&self) -> Option<&InstrInfo> {
        self.head.instr.as_ref()
    }

    /// Marks this procedure as an instruction procedure.
    pub fn with_instr(mut self, info: InstrInfo) -> Self {
        self.head_mut().instr = Some(info);
        self
    }

    /// Returns `true` if this is an instruction procedure.
    pub fn is_instr(&self) -> bool {
        self.head.instr.is_some()
    }

    /// The element type of a tensor or scalar argument, if present.
    pub fn arg_type(&self, name: &str) -> Option<DataType> {
        self.arg(name).map(|a| match &a.kind {
            ArgKind::Scalar { ty } => *ty,
            ArgKind::Tensor { ty, .. } => *ty,
            ArgKind::Size => DataType::Index,
        })
    }

    /// The memory space of a tensor argument, if present.
    pub fn arg_mem(&self, name: &str) -> Option<&Mem> {
        self.arg(name).and_then(|a| match &a.kind {
            ArgKind::Tensor { mem, .. } => Some(mem),
            _ => None,
        })
    }

    /// Names of all size arguments.
    pub fn size_args(&self) -> Vec<Sym> {
        self.args()
            .iter()
            .filter(|a| matches!(a.kind, ArgKind::Size))
            .map(|a| a.name.clone())
            .collect()
    }

    /// Total number of statements in the body, counted recursively. Used by
    /// the evaluation's complexity metrics.
    pub fn stmt_count(&self) -> usize {
        self.body.count_recursive()
    }

    /// Number of *binding sites* in the procedure: arguments, allocations,
    /// loop iterators and window aliases, in stable pre-order.
    ///
    /// This is the exact number of environment slots a single activation
    /// of the procedure needs, and is the contract the interpreter's
    /// lowering pass relies on: `exo_interp::lower` assigns one dense
    /// frame slot per binding site in this same pre-order.
    pub fn binding_site_count(&self) -> usize {
        let mut n = self.args().len();
        for stmt in self.body.iter() {
            crate::visit::for_each_stmt(stmt, &mut |s| {
                if matches!(
                    s,
                    crate::stmt::Stmt::Alloc { .. }
                        | crate::stmt::Stmt::For { .. }
                        | crate::stmt::Stmt::WindowStmt { .. }
                ) {
                    n += 1;
                }
            });
        }
        n
    }

    /// Returns a symbol `{base}_{n}` that does not occur anywhere in this
    /// procedure, choosing the smallest such `n ≥ 0`.
    ///
    /// This is a pure function of the procedure: the same procedure
    /// always yields the same fresh name, whatever else the process has
    /// scheduled. Scheduling libraries use it (via
    /// `ProcHandle::fresh_name` in `exo-cursors`) so golden pretty-print
    /// and golden `.c` files are independent of test order and of how
    /// many schedules ran earlier in the process.
    ///
    /// Callers that mint several names before inserting any of them must
    /// use distinct `base`s (the scheduling libraries do), since the
    /// procedure cannot know about names not yet spliced into it.
    pub fn fresh_sym(&self, base: &str) -> Sym {
        use crate::visit::{walk_stmts, Visit};
        let mut scan = TakenSuffixes {
            base,
            taken: Vec::new(),
        };
        for arg in self.args() {
            scan.visit_sym(&arg.name);
        }
        for pred in self.preds() {
            scan.visit_expr(pred);
        }
        walk_stmts(&mut scan, self.body());
        let mut taken = scan.taken;
        taken.sort_unstable();
        taken.dedup();
        let mut n: u64 = 0;
        for t in taken {
            if t != n {
                break;
            }
            n += 1;
        }
        Sym::new(format!("{base}_{n}"))
    }

    /// Partially evaluates size arguments to constants, returning a new
    /// procedure with those arguments removed and every use replaced by the
    /// constant (the paper's `p.partial_eval(M, N)`).
    ///
    /// `bindings` maps argument names to constant values, in any order.
    /// Unknown names are ignored.
    pub fn partial_eval(&self, bindings: &[(&str, i64)]) -> Proc {
        use crate::visit::{substitute_block, substitute_expr};
        let mut p = self.clone();
        for (name, value) in bindings {
            let sym = Sym::new(*name);
            let head = p.head_mut();
            head.args
                .retain(|a| a.name != sym || !matches!(a.kind, ArgKind::Size));
            let val = Expr::Int(*value);
            // Substitute in argument dimensions.
            for arg in &mut head.args {
                if let ArgKind::Tensor { dims, .. } = &mut arg.kind {
                    for d in dims {
                        *d = substitute_expr(d.clone(), &sym, &val);
                    }
                }
            }
            for pred in &mut head.preds {
                *pred = substitute_expr(pred.clone(), &sym, &val);
            }
            p.body = substitute_block(std::mem::take(&mut p.body), &sym, &val);
        }
        p
    }
}

/// The `n` of every symbol spelled `{base}_{n}` in a procedure, where `n`
/// is written as [`Proc::fresh_sym`] writes it: the canonical decimal of a
/// `u64` (no sign, no leading zero, no overflow). Any other suffix can
/// never collide with a name `fresh_sym` returns.
struct TakenSuffixes<'b> {
    base: &'b str,
    taken: Vec<u64>,
}

impl crate::visit::Visit<'_> for TakenSuffixes<'_> {
    fn visit_sym(&mut self, sym: &Sym) {
        let digits = sym
            .name()
            .strip_prefix(self.base)
            .and_then(|rest| rest.strip_prefix('_'));
        let Some(digits) = digits else {
            return;
        };
        let canonical = !digits.is_empty()
            && digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'));
        if let (true, Ok(n)) = (canonical, digits.parse()) {
            self.taken.push(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::expr::{ib, var, BinOp};

    fn gemv() -> Proc {
        ProcBuilder::new("gemv")
            .size_arg("M")
            .size_arg("N")
            .tensor_arg("A", DataType::F32, vec![var("M"), var("N")], Mem::Dram)
            .tensor_arg("x", DataType::F32, vec![var("N")], Mem::Dram)
            .tensor_arg("y", DataType::F32, vec![var("M")], Mem::Dram)
            .assert_(Expr::eq_(Expr::modulo(var("M"), ib(8)), ib(0)))
            .for_("i", ib(0), var("M"), |b| {
                b.for_("j", ib(0), var("N"), |b| {
                    let rhs = crate::expr::read("A", vec![var("i"), var("j")])
                        * crate::expr::read("x", vec![var("j")]);
                    b.reduce("y", vec![var("i")], rhs);
                });
            })
            .build()
    }

    #[test]
    fn accessors() {
        let p = gemv();
        assert_eq!(p.name(), "gemv");
        assert_eq!(p.args().len(), 5);
        assert_eq!(p.size_args(), vec![Sym::new("M"), Sym::new("N")]);
        assert_eq!(p.arg_type("A"), Some(DataType::F32));
        assert_eq!(p.arg_mem("A"), Some(&Mem::Dram));
        assert_eq!(p.preds().len(), 1);
        assert_eq!(p.stmt_count(), 3);
        assert!(!p.is_instr());
    }

    #[test]
    fn binding_sites_count_args_loops_allocs() {
        let p = gemv();
        // 5 arguments + 2 loop iterators.
        assert_eq!(p.binding_site_count(), 7);
        let p = ProcBuilder::new("p")
            .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
            .for_("i", ib(0), ib(4), |b| {
                b.alloc("t", DataType::F32, vec![], Mem::Dram);
                b.assign("t", vec![], crate::expr::fb(0.0));
            })
            .build();
        // x + i + t.
        assert_eq!(p.binding_site_count(), 3);
    }

    #[test]
    fn rename_and_assertion() {
        let p = gemv().with_name("gemv2");
        assert_eq!(p.name(), "gemv2");
        let p2 = p.add_assertion(Expr::bin(BinOp::Ge, var("N"), ib(8)));
        assert_eq!(p2.preds().len(), 2);
    }

    #[test]
    fn partial_eval_removes_size_args() {
        let p = gemv().partial_eval(&[("M", 64), ("N", 32)]);
        assert_eq!(p.size_args().len(), 0);
        assert_eq!(p.args().len(), 3);
        // The loop bound should now be a literal.
        let s = format!("{p}");
        assert!(s.contains("seq(0, 64)"), "{s}");
        assert!(s.contains("seq(0, 32)"), "{s}");
    }

    #[test]
    fn fresh_sym_is_deterministic_and_collision_free() {
        let p = gemv();
        // Same proc, same answer.
        assert_eq!(p.fresh_sym("tmp"), Sym::new("tmp_0"));
        assert_eq!(p.fresh_sym("tmp"), Sym::new("tmp_0"));
        // Occupied suffixes are skipped.
        let p2 = ProcBuilder::new("p")
            .tensor_arg("tmp_0", DataType::F32, vec![ib(4)], Mem::Dram)
            .for_("tmp_1", ib(0), ib(4), |b| {
                b.assign("tmp_0", vec![var("tmp_1")], crate::expr::fb(0.0));
            })
            .build();
        assert_eq!(p2.fresh_sym("tmp"), Sym::new("tmp_2"));
        // Existing loop iterators and buffer mentions all count as used.
        assert_eq!(p.fresh_sym("i"), Sym::new("i_0"));
    }

    #[test]
    fn instr_marker() {
        let p = Proc::new("mm512_loadu_ps", vec![], vec![], Block::new()).with_instr(InstrInfo {
            cost_class: "avx512_load".into(),
        });
        assert!(p.is_instr());
        assert_eq!(p.instr().unwrap().cost_class, "avx512_load");
    }
}
