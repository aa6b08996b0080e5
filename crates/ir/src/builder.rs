//! Builder API for constructing object-language procedures in Rust.
//!
//! The builder mirrors the surface syntax of Exo procedures: arguments are
//! declared first, then assertions, then the body is built with nested
//! closures for loops and branches.

use crate::expr::{read, Expr};
use crate::proc::{ArgKind, InstrInfo, Proc, ProcArg};
use crate::stmt::{Block, Stmt};
use crate::sym::Sym;
use crate::types::{DataType, Mem};

/// Builds statement blocks (procedure / loop / branch bodies).
#[derive(Debug, Default)]
pub struct BlockBuilder {
    stmts: Vec<Stmt>,
}

impl BlockBuilder {
    /// Creates an empty block builder.
    pub fn new() -> Self {
        BlockBuilder { stmts: Vec::new() }
    }

    /// Appends a raw statement.
    pub fn push(&mut self, stmt: Stmt) -> &mut Self {
        self.stmts.push(stmt);
        self
    }

    /// `buf[idx...] = rhs`
    pub fn assign(&mut self, buf: impl Into<Sym>, idx: Vec<Expr>, rhs: Expr) -> &mut Self {
        self.push(Stmt::Assign {
            buf: buf.into(),
            idx,
            rhs,
        })
    }

    /// `buf[idx...] += rhs`
    pub fn reduce(&mut self, buf: impl Into<Sym>, idx: Vec<Expr>, rhs: Expr) -> &mut Self {
        self.push(Stmt::Reduce {
            buf: buf.into(),
            idx,
            rhs,
        })
    }

    /// `name: ty[dims...] @ mem`
    pub fn alloc(
        &mut self,
        name: impl Into<Sym>,
        ty: DataType,
        dims: Vec<Expr>,
        mem: Mem,
    ) -> &mut Self {
        self.push(Stmt::Alloc {
            name: name.into(),
            ty,
            dims,
            mem,
        })
    }

    /// `for iter in seq(lo, hi): body`
    pub fn for_(
        &mut self,
        iter: impl Into<Sym>,
        lo: Expr,
        hi: Expr,
        body: impl FnOnce(&mut BlockBuilder),
    ) -> &mut Self {
        let mut inner = BlockBuilder::new();
        body(&mut inner);
        self.push(Stmt::For {
            iter: iter.into(),
            lo,
            hi,
            body: inner.build(),
            parallel: false,
        })
    }

    /// `if cond: then`
    pub fn if_(&mut self, cond: Expr, then: impl FnOnce(&mut BlockBuilder)) -> &mut Self {
        let mut inner = BlockBuilder::new();
        then(&mut inner);
        self.push(Stmt::If {
            cond,
            then_body: inner.build(),
            else_body: Block::new(),
        })
    }

    /// `if cond: then else: orelse`
    pub fn if_else(
        &mut self,
        cond: Expr,
        then: impl FnOnce(&mut BlockBuilder),
        orelse: impl FnOnce(&mut BlockBuilder),
    ) -> &mut Self {
        let mut t = BlockBuilder::new();
        then(&mut t);
        let mut e = BlockBuilder::new();
        orelse(&mut e);
        self.push(Stmt::If {
            cond,
            then_body: t.build(),
            else_body: e.build(),
        })
    }

    /// A call statement.
    pub fn call(&mut self, proc: impl Into<String>, args: Vec<Expr>) -> &mut Self {
        self.push(Stmt::Call {
            proc: proc.into(),
            args,
        })
    }

    /// The empty statement.
    pub fn pass(&mut self) -> &mut Self {
        self.push(Stmt::Pass)
    }

    /// `config.field = value`
    pub fn write_config(
        &mut self,
        config: impl Into<Sym>,
        field: impl Into<String>,
        value: Expr,
    ) -> &mut Self {
        self.push(Stmt::WriteConfig {
            config: config.into(),
            field: field.into(),
            value,
        })
    }

    /// Convenience: a buffer-read expression, identical to [`crate::read`].
    /// Provided on the builder so closures do not need extra imports.
    pub fn read(&self, buf: impl Into<Sym>, idx: Vec<Expr>) -> Expr {
        read(buf, idx)
    }

    /// Finalizes the block.
    pub fn build(self) -> Block {
        Block::from_stmts(self.stmts)
    }
}

/// Builds a [`Proc`].
///
/// ```
/// use exo_ir::{ProcBuilder, DataType, Mem, var, ib, read};
///
/// let dot = ProcBuilder::new("sdot")
///     .size_arg("n")
///     .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
///     .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
///     .tensor_arg("out", DataType::F32, vec![], Mem::Dram)
///     .for_("i", ib(0), var("n"), |b| {
///         b.reduce("out", vec![], read("x", vec![var("i")]) * read("y", vec![var("i")]));
///     })
///     .build();
/// assert_eq!(dot.args().len(), 4);
/// ```
#[derive(Debug)]
pub struct ProcBuilder {
    name: String,
    args: Vec<ProcArg>,
    preds: Vec<Expr>,
    body: BlockBuilder,
    instr: Option<InstrInfo>,
}

impl ProcBuilder {
    /// Starts building a procedure with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProcBuilder {
            name: name.into(),
            args: Vec::new(),
            preds: Vec::new(),
            body: BlockBuilder::new(),
            instr: None,
        }
    }

    /// Declares a `size` argument.
    pub fn size_arg(mut self, name: impl Into<Sym>) -> Self {
        self.args.push(ProcArg {
            name: name.into(),
            kind: ArgKind::Size,
        });
        self
    }

    /// Declares a scalar argument.
    pub fn scalar_arg(mut self, name: impl Into<Sym>, ty: DataType) -> Self {
        self.args.push(ProcArg {
            name: name.into(),
            kind: ArgKind::Scalar { ty },
        });
        self
    }

    /// Declares a dense tensor argument.
    pub fn tensor_arg(
        mut self,
        name: impl Into<Sym>,
        ty: DataType,
        dims: Vec<Expr>,
        mem: Mem,
    ) -> Self {
        self.args.push(ProcArg {
            name: name.into(),
            kind: ArgKind::Tensor {
                ty,
                dims,
                mem,
                window: false,
            },
        });
        self
    }

    /// Declares a windowed tensor argument (`[f32][M, N]` in Exo syntax).
    pub fn window_arg(
        mut self,
        name: impl Into<Sym>,
        ty: DataType,
        dims: Vec<Expr>,
        mem: Mem,
    ) -> Self {
        self.args.push(ProcArg {
            name: name.into(),
            kind: ArgKind::Tensor {
                ty,
                dims,
                mem,
                window: true,
            },
        });
        self
    }

    /// Adds an assertion precondition.
    pub fn assert_(mut self, pred: Expr) -> Self {
        self.preds.push(pred);
        self
    }

    /// Adds a `for` loop to the procedure body.
    pub fn for_(
        mut self,
        iter: impl Into<Sym>,
        lo: Expr,
        hi: Expr,
        body: impl FnOnce(&mut BlockBuilder),
    ) -> Self {
        self.body.for_(iter, lo, hi, body);
        self
    }

    /// Adds an arbitrary statement to the procedure body.
    pub fn stmt(mut self, stmt: Stmt) -> Self {
        self.body.push(stmt);
        self
    }

    /// Gives mutable access to the body builder for free-form construction.
    pub fn with_body(mut self, f: impl FnOnce(&mut BlockBuilder)) -> Self {
        f(&mut self.body);
        self
    }

    /// Marks the procedure as an instruction procedure.
    pub fn instr(mut self, cost_class: impl Into<String>) -> Self {
        self.instr = Some(InstrInfo {
            cost_class: cost_class.into(),
        });
        self
    }

    /// Finalizes the procedure.
    pub fn build(self) -> Proc {
        let p = Proc::new(self.name, self.args, self.preds, self.body.build());
        match self.instr {
            Some(info) => p.with_instr(info),
            None => p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ib, var};

    #[test]
    fn builder_produces_expected_structure() {
        let p = ProcBuilder::new("k")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .assert_(Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)))
            .for_("i", ib(0), var("n"), |b| {
                b.assign("x", vec![var("i")], Expr::Float(0.0));
            })
            .build();
        assert_eq!(p.args().len(), 2);
        assert_eq!(p.preds().len(), 1);
        assert_eq!(p.body().len(), 1);
        assert_eq!(p.stmt_count(), 2);
    }

    #[test]
    fn nested_control_flow() {
        let p = ProcBuilder::new("k")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .with_body(|b| {
                b.for_("i", ib(0), var("n"), |b| {
                    b.if_else(
                        Expr::lt(var("i"), ib(4)),
                        |t| {
                            t.assign("x", vec![var("i")], Expr::Float(1.0));
                        },
                        |e| {
                            e.pass();
                        },
                    );
                });
            })
            .build();
        let s = format!("{p}");
        assert!(s.contains("if i < 4:"), "{s}");
        assert!(s.contains("else:"), "{s}");
    }

    #[test]
    fn instr_builder() {
        let p = ProcBuilder::new("mm256_loadu_ps")
            .window_arg("dst", DataType::F32, vec![ib(8)], Mem::VecAvx2)
            .window_arg("src", DataType::F32, vec![ib(8)], Mem::Dram)
            .instr("avx2_load")
            .with_body(|b| {
                b.for_("i", ib(0), ib(8), |b| {
                    b.assign("dst", vec![var("i")], b.read("src", vec![var("i")]));
                });
            })
            .build();
        assert!(p.is_instr());
    }
}
