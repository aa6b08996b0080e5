//! Read/write/reduce effect sets of statements and blocks.

use crate::accesses::{self, walk_accesses, AccessSink, Place, Scope, Shape, Touch};
use crate::context::Context;
use exo_ir::{Expr, Stmt, Sym};
use std::collections::BTreeSet;

/// One buffer access: the buffer, its index expressions, and the loop
/// iterators bound *within the analyzed region* that are in scope at the
/// access site. An access through a window alias is recorded against the
/// alias' root buffer, as a whole-buffer access.
#[derive(Clone, Debug, PartialEq)]
pub struct Access {
    /// Accessed buffer.
    pub buf: Sym,
    /// Index expressions, one per dimension (empty for scalars and for
    /// whole-buffer accesses).
    pub idx: Vec<Expr>,
    /// Iterators bound inside the analyzed region at this access.
    pub iters: Vec<Sym>,
    /// Whether the access covers an unknown region of the buffer
    /// (windows, bare-name call arguments, accesses through an alias).
    pub whole_buffer: bool,
}

/// The effects of a statement or block.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Effects {
    /// Buffer reads.
    pub reads: Vec<Access>,
    /// Buffer overwrites (assignments).
    pub writes: Vec<Access>,
    /// Buffer reductions (`+=`).
    pub reduces: Vec<Access>,
    /// Configuration fields written, as `(config, field)` pairs.
    pub config_writes: Vec<(Sym, String)>,
    /// Configuration fields read.
    pub config_reads: Vec<(Sym, String)>,
    /// Whether the region contains calls (treated conservatively).
    pub has_calls: bool,
    /// Buffers allocated within the region. A window alias is not an
    /// allocation: what is stored through it lands in its root.
    pub allocs: Vec<Sym>,
    /// Window aliases declared within the region. Like an allocation, the
    /// name means nothing to statements moved out of the region.
    pub aliases: Vec<Sym>,
}

impl Effects {
    /// Effects of a single statement.
    pub fn of_stmt(stmt: &Stmt) -> Effects {
        Effects::of_stmts([stmt])
    }

    /// Combined effects of a sequence of statements that use no window
    /// alias declared around them (see [`Effects::of_stmts_in`]).
    pub fn of_stmts<'a>(stmts: impl IntoIterator<Item = &'a Stmt>) -> Effects {
        let mut eff = Effects::default();
        walk_accesses(None, stmts, &mut eff);
        eff
    }

    /// Combined effects of a sequence of statements sitting where `ctx`
    /// was taken ([`Context::at`]): an access through an alias declared
    /// before them is an access to that alias' root.
    pub fn of_stmts_in<'a>(ctx: &'a Context, stmts: impl IntoIterator<Item = &'a Stmt>) -> Effects {
        let mut eff = Effects::default();
        walk_accesses(Some(ctx), stmts, &mut eff);
        eff
    }

    /// Every buffer written (assigned or reduced).
    pub fn buffers_written(&self) -> BTreeSet<Sym> {
        self.writes
            .iter()
            .chain(self.reduces.iter())
            .map(|a| a.buf.clone())
            .collect()
    }

    /// Every buffer read.
    pub fn buffers_read(&self) -> BTreeSet<Sym> {
        self.reads.iter().map(|a| a.buf.clone()).collect()
    }

    /// Every access (read, write or reduce) to the given buffer.
    pub fn accesses_to(&self, buf: &Sym) -> Vec<&Access> {
        self.reads
            .iter()
            .chain(self.writes.iter())
            .chain(self.reduces.iter())
            .filter(|a| &a.buf == buf)
            .collect()
    }

    /// Write and reduce accesses to the given buffer.
    pub fn writes_to(&self, buf: &Sym) -> Vec<&Access> {
        self.writes
            .iter()
            .chain(self.reduces.iter())
            .filter(|a| &a.buf == buf)
            .collect()
    }

    /// Whether the region touches (reads or writes) the buffer at all.
    pub fn touches(&self, buf: &Sym) -> bool {
        !self.accesses_to(buf).is_empty()
    }
}

/// The [`Effects`] policy over the access walk: windows and accesses
/// through aliases are whole-buffer accesses to the root, and a window or
/// bare name handed to a callee may be written by it.
impl<'a> AccessSink<'a> for Effects {
    fn access(&mut self, a: &accesses::Access<'_, 'a>) {
        let idx = match a.root_shape() {
            Shape::Point(idx) => Some(idx),
            Shape::Window(_) | Shape::Whole => None,
        };
        let access = Access {
            buf: a.root.clone(),
            idx: idx.unwrap_or_default().to_vec(),
            iters: a.at.loops().map(|l| l.iter.clone()).collect(),
            whole_buffer: idx.is_none(),
        };
        match (a.touch, a.shape) {
            (Touch::Read, _) | (Touch::Arg { .. }, Shape::Point(_)) => self.reads.push(access),
            (Touch::Write, _) => self.writes.push(access),
            (Touch::Reduce, _) => self.reduces.push(access),
            (Touch::Arg { .. }, Shape::Window(_)) => {
                self.writes.push(access.clone());
                self.reads.push(access);
            }
            (Touch::Arg { .. }, Shape::Whole) => self.writes.push(access),
        }
    }

    fn enter(&mut self, scope: &Scope<'a>, _at: &Place<'a>) {
        match scope {
            Scope::Loop(_) => {}
            Scope::Alloc { name, .. } => self.allocs.push((*name).clone()),
            Scope::Alias { name, .. } => self.aliases.push((*name).clone()),
        }
    }

    fn config(&mut self, config: &'a Sym, field: &'a str, write: bool) {
        let list = if write {
            &mut self.config_writes
        } else {
            &mut self.config_reads
        };
        list.push((config.clone(), field.to_string()));
    }

    fn call(&mut self, _callee: &'a str) {
        self.has_calls = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{ib, read, var, Block, DataType, Mem, WAccess};

    fn gemv_loop() -> Stmt {
        Stmt::For {
            iter: Sym::new("i"),
            lo: ib(0),
            hi: var("M"),
            body: Block::from_stmts(vec![Stmt::For {
                iter: Sym::new("j"),
                lo: ib(0),
                hi: var("N"),
                body: Block::from_stmts(vec![Stmt::Reduce {
                    buf: Sym::new("y"),
                    idx: vec![var("i")],
                    rhs: read("A", vec![var("i"), var("j")]) * read("x", vec![var("j")]),
                }]),
                parallel: false,
            }]),
            parallel: false,
        }
    }

    #[test]
    fn collects_reads_reduces_and_iterators() {
        let eff = Effects::of_stmt(&gemv_loop());
        assert_eq!(eff.reduces.len(), 1);
        assert_eq!(eff.reduces[0].buf, Sym::new("y"));
        assert_eq!(eff.reduces[0].iters, vec![Sym::new("i"), Sym::new("j")]);
        assert_eq!(
            eff.buffers_read(),
            [Sym::new("A"), Sym::new("x")].into_iter().collect()
        );
        assert_eq!(eff.buffers_written(), [Sym::new("y")].into_iter().collect());
        assert!(!eff.has_calls);
    }

    #[test]
    fn call_windows_count_as_whole_buffer_writes() {
        let call = Stmt::Call {
            proc: "mm512_loadu_ps".into(),
            args: vec![
                Expr::Window {
                    buf: Sym::new("dst"),
                    idx: vec![WAccess::Interval(ib(0), ib(16))],
                },
                Expr::Window {
                    buf: Sym::new("src"),
                    idx: vec![WAccess::Interval(ib(0), ib(16))],
                },
            ],
        };
        let eff = Effects::of_stmt(&call);
        assert!(eff.has_calls);
        assert!(eff.buffers_written().contains(&Sym::new("dst")));
        assert!(eff.buffers_written().contains(&Sym::new("src")));
        assert!(eff.writes.iter().all(|a| a.whole_buffer));
    }

    #[test]
    fn config_effects() {
        let s = Stmt::WriteConfig {
            config: Sym::new("cfg"),
            field: "stride".into(),
            value: ib(4),
        };
        let eff = Effects::of_stmt(&s);
        assert_eq!(
            eff.config_writes,
            vec![(Sym::new("cfg"), "stride".to_string())]
        );
        let r = Stmt::Assign {
            buf: Sym::new("x"),
            idx: vec![],
            rhs: Expr::ReadConfig {
                config: Sym::new("cfg"),
                field: "stride".into(),
            },
        };
        let eff = Effects::of_stmt(&r);
        assert_eq!(
            eff.config_reads,
            vec![(Sym::new("cfg"), "stride".to_string())]
        );
    }

    #[test]
    fn allocs_are_recorded() {
        let s = Stmt::Alloc {
            name: Sym::new("tmp"),
            ty: DataType::F32,
            dims: vec![ib(8)],
            mem: Mem::VecAvx2,
        };
        let eff = Effects::of_stmt(&s);
        assert_eq!(eff.allocs, vec![Sym::new("tmp")]);
    }

    #[test]
    fn accessors_filter_by_buffer() {
        let eff = Effects::of_stmt(&gemv_loop());
        assert_eq!(eff.accesses_to(&Sym::new("A")).len(), 1);
        assert_eq!(eff.writes_to(&Sym::new("y")).len(), 1);
        assert!(eff.touches(&Sym::new("x")));
        assert!(!eff.touches(&Sym::new("z")));
    }
}
