//! Versioned procedure handles and cursor paths.
//!
//! In the paper's branching time model (§5.1), every scheduling action
//! produces a *new version* of the procedure; cursors live at specific
//! versions and are *forwarded* to newer versions on demand. A
//! [`ProcHandle`] is an immutable reference to one version; it records its
//! provenance (the previous version plus the atomic edits that produced
//! it), which is exactly the information needed to forward cursors.

use crate::cursor::Cursor;
use crate::error::CursorError;
use crate::rewrite::{forward_path, forward_path_in_place, EditRecord};
use crate::Result;
use exo_ir::{ExprStep, Proc, Step};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

static VERSION_COUNTER: AtomicU64 = AtomicU64::new(1);

/// The spatial coordinate of a cursor: a path into a procedure's AST.
///
/// * `Node` — a single statement (empty `expr`) or an expression within it.
/// * `Gap` — the gap *before* the statement slot addressed by the path's
///   final index (the index may equal the block length, addressing the gap
///   after the last statement).
/// * `Block` — `len` consecutive statements starting at the addressed slot.
/// * `Invalid` — an invalidated reference; resolving or navigating it
///   raises [`CursorError::Invalid`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CursorPath {
    /// A statement or an expression inside it.
    Node {
        /// Path to the statement.
        stmt: Vec<Step>,
        /// Path from the statement to an inner expression (empty = the
        /// statement itself).
        expr: Vec<ExprStep>,
    },
    /// A gap between statements.
    Gap {
        /// Path to the statement slot the gap precedes.
        stmt: Vec<Step>,
    },
    /// A contiguous block of statements.
    Block {
        /// Path to the first statement of the block.
        stmt: Vec<Step>,
        /// Number of statements in the block (at least 1).
        len: usize,
    },
    /// An invalidated reference.
    Invalid,
}

impl CursorPath {
    /// A node path to a statement.
    pub fn stmt(path: Vec<Step>) -> Self {
        CursorPath::Node {
            stmt: path,
            expr: Vec::new(),
        }
    }

    /// The statement path underlying this cursor path, if it is valid.
    pub fn stmt_path(&self) -> Option<&[Step]> {
        match self {
            CursorPath::Node { stmt, .. }
            | CursorPath::Gap { stmt }
            | CursorPath::Block { stmt, .. } => Some(stmt),
            CursorPath::Invalid => None,
        }
    }

    /// Whether this path has been invalidated.
    pub fn is_invalid(&self) -> bool {
        matches!(self, CursorPath::Invalid)
    }
}

/// One version's edit list, precomposed for forwarding.
///
/// `Local` edits forward as the identity, so they are stripped once here
/// instead of being re-interpreted on every forward; a version whose edits
/// were all local collapses to `Identity`, and the overwhelmingly common
/// one-structural-edit version to `One`. The cache is computed lazily on
/// first forward through the version and shared by all later forwards.
#[derive(Debug)]
pub(crate) enum ComposedStep {
    /// Forwarding through this version is the identity.
    Identity,
    /// Exactly one structural edit.
    One(EditRecord),
    /// Several structural edits, applied in order.
    Many(Vec<EditRecord>),
}

impl ComposedStep {
    fn compose(edits: &[EditRecord]) -> ComposedStep {
        let mut structural = edits
            .iter()
            .filter(|e| !matches!(e, EditRecord::Local { .. }))
            .cloned()
            .collect::<Vec<_>>();
        if structural.len() > 1 {
            return ComposedStep::Many(structural);
        }
        match structural.pop() {
            Some(edit) => ComposedStep::One(edit),
            None => ComposedStep::Identity,
        }
    }

    /// Applies the composed step to a cursor path, in place.
    fn apply(&self, path: &mut CursorPath) {
        match self {
            ComposedStep::Identity => {}
            ComposedStep::One(edit) => forward_path_in_place(path, edit),
            ComposedStep::Many(edits) => {
                for edit in edits {
                    forward_path_in_place(path, edit);
                    if path.is_invalid() {
                        break;
                    }
                }
            }
        }
    }
}

#[derive(Debug)]
pub(crate) struct Version {
    pub(crate) id: u64,
    pub(crate) proc: Proc,
    pub(crate) prev: Option<Arc<Version>>,
    pub(crate) edits: Vec<EditRecord>,
    composed: OnceLock<ComposedStep>,
}

impl Version {
    fn composed(&self) -> &ComposedStep {
        self.composed
            .get_or_init(|| ComposedStep::compose(&self.edits))
    }
}

/// An immutable, versioned handle to a procedure.
///
/// Scheduling primitives take a `ProcHandle` and return a new one; the new
/// handle knows how to forward cursors created against any ancestor
/// version. Cloning a handle is cheap (an `Arc` bump).
#[derive(Clone, Debug)]
pub struct ProcHandle {
    pub(crate) inner: Arc<Version>,
}

impl ProcHandle {
    /// Wraps a procedure in a fresh root version.
    pub fn new(proc: Proc) -> Self {
        ProcHandle {
            inner: Arc::new(Version {
                id: VERSION_COUNTER.fetch_add(1, Ordering::Relaxed),
                proc,
                prev: None,
                edits: Vec::new(),
                composed: OnceLock::new(),
            }),
        }
    }

    /// Internal constructor used by [`crate::Rewrite::commit`].
    pub(crate) fn from_edit(prev: &ProcHandle, proc: Proc, edits: Vec<EditRecord>) -> Self {
        ProcHandle {
            inner: Arc::new(Version {
                id: VERSION_COUNTER.fetch_add(1, Ordering::Relaxed),
                proc,
                prev: Some(prev.inner.clone()),
                edits,
                composed: OnceLock::new(),
            }),
        }
    }

    /// The procedure at this version.
    pub fn proc(&self) -> &Proc {
        &self.inner.proc
    }

    /// The unique id of this version (the cursor *time coordinate*).
    pub fn version_id(&self) -> u64 {
        self.inner.id
    }

    /// Returns the name of the underlying procedure.
    pub fn name(&self) -> &str {
        self.inner.proc.name()
    }

    /// A fresh `{base}_{n}` name not occurring anywhere in the procedure
    /// at this version (see [`exo_ir::Proc::fresh_sym`]).
    ///
    /// Deterministic: the same procedure always yields the same name, so
    /// schedules built through this method pretty-print identically no
    /// matter what else the process has scheduled — the property the
    /// golden files in `crates/bench/goldens` and the golden `.c` files
    /// in `crates/codegen/goldens` rely on.
    pub fn fresh_name(&self, base: &str) -> String {
        self.inner.proc.fresh_sym(base).name().to_string()
    }

    /// Creates a cursor at the given path, bound to this version.
    pub fn cursor_at(&self, path: CursorPath) -> Cursor {
        Cursor::new(self.clone(), path)
    }

    /// Cursors to each top-level statement of the procedure body.
    pub fn body(&self) -> Vec<Cursor> {
        (0..self.proc().body().len())
            .map(|i| self.cursor_at(CursorPath::stmt(vec![Step::Body(i)])))
            .collect()
    }

    /// A block cursor spanning the entire procedure body.
    pub fn body_block(&self) -> Cursor {
        let len = self.proc().body().len().max(1);
        self.cursor_at(CursorPath::Block {
            stmt: vec![Step::Body(0)],
            len,
        })
    }

    /// Forwards a cursor created against an ancestor version to this
    /// version, composing the forwarding functions of every intermediate
    /// atomic edit (paper §5.2, *Forwarding*).
    ///
    /// Forwarding an already-invalid cursor yields an invalid cursor bound
    /// to this version (invalidity is sticky). Cursors already bound to
    /// this version are returned unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CursorError::UnrelatedVersion`] if the cursor's version is
    /// not an ancestor of this handle's version.
    pub fn forward(&self, cursor: &Cursor) -> Result<Cursor> {
        if cursor.version_id() == self.version_id() {
            return Ok(Cursor::new(self.clone(), cursor.path().clone()));
        }
        // Walk back from this version to the cursor's version, collecting
        // the edit lists along the way (newest first).
        let mut chain: Vec<&Arc<Version>> = Vec::new();
        let mut v = &self.inner;
        loop {
            if v.id == cursor.version_id() {
                break;
            }
            chain.push(v);
            match &v.prev {
                Some(prev) => v = prev,
                None => {
                    return Err(CursorError::UnrelatedVersion {
                        cursor_version: cursor.version_id(),
                        handle_version: self.version_id(),
                    })
                }
            }
        }
        // Apply edits oldest-version-first. The production path uses each
        // version's precomposed step (Local edits stripped, paths mutated
        // in place); the reference mode re-interprets every record with a
        // fresh allocation per edit, reproducing the historical cost.
        let mut path = cursor.path().clone();
        if crate::reference::active() {
            for version in chain.iter().rev() {
                for edit in &version.edits {
                    path = forward_path(&path, edit);
                    if path.is_invalid() {
                        break;
                    }
                }
            }
        } else {
            for version in chain.iter().rev() {
                version.composed().apply(&mut path);
                if path.is_invalid() {
                    break;
                }
            }
        }
        Ok(Cursor::new(self.clone(), path))
    }

    /// The procedures of this handle's provenance chain, this version
    /// first and the root last.
    pub fn versions(&self) -> impl Iterator<Item = &Proc> {
        std::iter::successors(Some(&self.inner), |v| v.prev.as_ref()).map(|v| &v.proc)
    }

    /// Estimated heap bytes retained by this version's whole provenance
    /// chain, counting storage shared between versions once.
    pub fn chain_retained_bytes(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.versions()
            .map(|proc| exo_ir::proc_retained_bytes(proc, &mut seen))
            .sum()
    }

    /// Number of versions in this handle's provenance chain (this version
    /// included).
    pub fn chain_len(&self) -> usize {
        self.versions().count()
    }
}

impl PartialEq for ProcHandle {
    fn eq(&self, other: &Self) -> bool {
        self.inner.id == other.inner.id
    }
}

impl std::fmt::Display for ProcHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.proc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{ib, var, DataType, Mem, ProcBuilder};

    fn simple() -> Proc {
        ProcBuilder::new("p")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.assign("x", vec![var("i")], exo_ir::fb(0.0));
            })
            .build()
    }

    #[test]
    fn handles_have_unique_versions() {
        let h1 = ProcHandle::new(simple());
        let h2 = ProcHandle::new(simple());
        assert_ne!(h1.version_id(), h2.version_id());
        assert_ne!(h1, h2);
    }

    #[test]
    fn body_cursors_cover_top_level() {
        let h = ProcHandle::new(simple());
        assert_eq!(h.body().len(), 1);
        let c = &h.body()[0];
        assert!(c.is_loop());
    }

    #[test]
    fn forwarding_to_same_version_is_identity() {
        let h = ProcHandle::new(simple());
        let c = &h.body()[0];
        let f = h.forward(c).unwrap();
        assert_eq!(f.path(), c.path());
    }

    #[test]
    fn forwarding_across_unrelated_versions_errors() {
        let h1 = ProcHandle::new(simple());
        let h2 = ProcHandle::new(simple());
        let c = &h1.body()[0];
        assert!(matches!(
            h2.forward(c),
            Err(CursorError::UnrelatedVersion { .. })
        ));
    }

    #[test]
    fn forwarding_unrelated_cursors_reports_both_versions() {
        // Regression: this navigation pattern used to go through the
        // panicking `forward_unwrap` convenience; it must now surface a
        // typed error that names both version ids instead of aborting.
        let h1 = ProcHandle::new(simple());
        let h2 = ProcHandle::new(simple());
        let c = &h1.body()[0];
        match h2.forward(c) {
            Err(CursorError::UnrelatedVersion {
                cursor_version,
                handle_version,
            }) => {
                assert_eq!(cursor_version, h1.version_id());
                assert_eq!(handle_version, h2.version_id());
            }
            other => panic!("expected UnrelatedVersion, got {other:?}"),
        }
    }
}
