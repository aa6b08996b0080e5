//! Atomic AST edits and cursor forwarding.
//!
//! Every scheduling primitive in `exo-core` is executed as a sequence of
//! *atomic edits* — insert, delete, replace, move, and wrap (paper §5.2) —
//! plus statement-local modifications whose forwarding is the identity.
//! Each atomic edit has a canonical forwarding function; the forwarding
//! function of a whole primitive is the composition of its edits'
//! functions, and forwarding across several primitives composes further
//! along the procedure's provenance chain (see [`crate::ProcHandle::forward`]).

use crate::error::CursorError;
use crate::version::{CursorPath, ProcHandle};
use crate::Result;
use exo_ir::{resolve_container_mut, resolve_stmt_mut, Block, Proc, Step, Stmt};
use std::sync::Arc;

/// One atomic edit, recorded for cursor forwarding.
///
/// All paths are expressed in the coordinates of the procedure *before*
/// the edit, except [`EditRecord::Move::to_post`] which is the location of
/// the first moved statement *after* the edit (this makes the forwarding
/// function straightforward to apply).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EditRecord {
    /// `count` statements inserted at the gap addressed by `at`.
    Insert {
        /// Gap position (pre-edit coordinates).
        at: Vec<Step>,
        /// Number of inserted statements.
        count: usize,
    },
    /// `count` statements starting at `at` deleted.
    Delete {
        /// First deleted statement (pre-edit coordinates).
        at: Vec<Step>,
        /// Number of deleted statements.
        count: usize,
    },
    /// `old_count` statements starting at `at` replaced by `new_count` new
    /// statements.
    Replace {
        /// First replaced statement (pre-edit coordinates).
        at: Vec<Step>,
        /// Number of statements removed.
        old_count: usize,
        /// Number of statements inserted in their place.
        new_count: usize,
    },
    /// `count` statements starting at `from` moved to another location.
    Move {
        /// First moved statement (pre-edit coordinates).
        from: Vec<Step>,
        /// Number of moved statements.
        count: usize,
        /// Location of the first moved statement after the edit
        /// (post-edit coordinates).
        to_post: Vec<Step>,
    },
    /// `count` statements starting at `at` wrapped into the body of a new
    /// single statement placed at the same position.
    Wrap {
        /// First wrapped statement (pre-edit coordinates).
        at: Vec<Step>,
        /// Number of wrapped statements.
        count: usize,
        /// The child-block step kind of the wrapper that now holds the
        /// statements (`Step::Body(_)` for loop bodies / then-branches).
        child: Step,
    },
    /// A statement-internal modification (expression rewrites, bound
    /// changes, renames). Forwarding is the identity.
    Local {
        /// The modified statement.
        at: Vec<Step>,
    },
}

/// Splits a path into (same-block test data). Returns `Some((level, idx))`
/// where `level = anchor.len() - 1` if `path` passes through the same
/// statement list as `anchor`'s final step, with `idx` the index taken by
/// `path` at that level.
fn block_position(path: &[Step], anchor: &[Step]) -> Option<(usize, usize)> {
    let level = anchor.len().checked_sub(1)?;
    if path.len() <= level {
        return None;
    }
    if path[..level] != anchor[..level] {
        return None;
    }
    let same_kind = matches!(
        (path[level], anchor[level]),
        (Step::Body(_), Step::Body(_)) | (Step::Else(_), Step::Else(_))
    );
    if !same_kind {
        return None;
    }
    Some((level, path[level].index()))
}

/// Forwards a statement path through one atomic edit, mutating the path in
/// place. Returns `false` when the path is invalidated by the edit.
///
/// The hot cases — the path is unaffected, or only one index shifts — do
/// not allocate at all; only `Move` and `Wrap` of statements *inside* the
/// affected range rebuild the path. This is what makes forwarding a cursor
/// across a long provenance chain cheap.
fn forward_stmt_path_in_place(path: &mut Vec<Step>, edit: &EditRecord) -> bool {
    match edit {
        EditRecord::Local { .. } => true,
        EditRecord::Insert { at, count } => {
            let Some(last) = at.last() else { return false };
            let i = last.index();
            if let Some((level, j)) = block_position(path, at) {
                if j >= i {
                    path[level] = path[level].with_index(j + count);
                }
            }
            true
        }
        EditRecord::Delete { at, count } => {
            let Some(last) = at.last() else { return false };
            let i = last.index();
            match block_position(path, at) {
                Some((_, j)) if j >= i && j < i + count => false,
                Some((level, j)) if j >= i + count => {
                    path[level] = path[level].with_index(j - count);
                    true
                }
                _ => true,
            }
        }
        EditRecord::Replace {
            at,
            old_count,
            new_count,
        } => {
            let Some(last) = at.last() else { return false };
            let i = last.index();
            match block_position(path, at) {
                Some((level, j)) if j >= i && j < i + old_count => {
                    // The unique path to the replaced statement itself stays
                    // valid (forwarded to the first replacement statement);
                    // paths *into* the replaced subtree are invalidated.
                    if path.len() == level + 1 && *new_count > 0 {
                        path[level] = path[level].with_index(i);
                        true
                    } else {
                        false
                    }
                }
                Some((level, j)) if j >= i + old_count => {
                    path[level] = path[level].with_index(j + new_count - old_count);
                    true
                }
                _ => true,
            }
        }
        EditRecord::Move {
            from,
            count,
            to_post,
        } => {
            let Some(last) = from.last() else {
                return false;
            };
            let i = last.index();
            match block_position(path, from) {
                Some((level, j)) if j >= i && j < i + count => {
                    // Inside the moved range: remap onto the destination.
                    let Some(dest) = to_post.last() else {
                        return false;
                    };
                    let dest_idx = dest.index() + (j - i);
                    let mut new_path = to_post.clone();
                    let dlev = new_path.len() - 1;
                    new_path[dlev] = new_path[dlev].with_index(dest_idx);
                    new_path.extend_from_slice(&path[level + 1..]);
                    *path = new_path;
                    true
                }
                Some((level, j)) if j >= i + count => {
                    // After the moved range in the source block: shift left,
                    // then apply the insertion shift if the destination is
                    // the same block at an earlier position.
                    let mut adjusted = j - count;
                    if let (Some((dlev, _)), Some(dest)) =
                        (block_position(path, to_post), to_post.last())
                    {
                        if dlev == level && dest.index() <= adjusted {
                            adjusted += count;
                        }
                    }
                    path[level] = path[level].with_index(adjusted);
                    true
                }
                _ => {
                    // Not in the source block: apply the insertion shift if
                    // the path passes through the destination block at or
                    // after the insertion point.
                    if let (Some((dlev, j)), Some(dest)) =
                        (block_position(path, to_post), to_post.last())
                    {
                        if j >= dest.index() {
                            path[dlev] = path[dlev].with_index(j + count);
                        }
                    }
                    true
                }
            }
        }
        EditRecord::Wrap { at, count, child } => {
            let Some(last) = at.last() else { return false };
            let i = last.index();
            match block_position(path, at) {
                Some((level, j)) if j >= i && j < i + count => {
                    // Push the path one level down into the wrapper.
                    let mut new_path = Vec::with_capacity(path.len() + 1);
                    new_path.extend_from_slice(&path[..level]);
                    new_path.push(at[level].with_index(i));
                    new_path.push(child.with_index(j - i));
                    new_path.extend_from_slice(&path[level + 1..]);
                    *path = new_path;
                    true
                }
                Some((level, j)) if j >= i + count => {
                    path[level] = path[level].with_index(j - (count - 1));
                    true
                }
                _ => true,
            }
        }
    }
}

/// Forwards a full cursor path through one atomic edit, in place.
/// Invalidity is sticky; gap and block cursors are forwarded through their
/// anchor statement path (paper §5.2).
pub(crate) fn forward_path_in_place(path: &mut CursorPath, edit: &EditRecord) {
    let stmt = match path {
        CursorPath::Invalid => return,
        CursorPath::Node { stmt, .. }
        | CursorPath::Gap { stmt }
        | CursorPath::Block { stmt, .. } => stmt,
    };
    if !forward_stmt_path_in_place(stmt, edit) {
        *path = CursorPath::Invalid;
    }
}

/// Allocating variant of [`forward_path_in_place`], used by the deep-clone
/// reference implementation to reproduce the historical one-fresh-path-per-
/// edit forwarding cost.
pub(crate) fn forward_path(path: &CursorPath, edit: &EditRecord) -> CursorPath {
    let mut p = path.clone();
    forward_path_in_place(&mut p, edit);
    p
}

/// An editing session: a mutable working copy of a procedure plus the
/// atomic edits applied so far. Scheduling primitives build a `Rewrite`,
/// apply edits, and [`commit`](Rewrite::commit) to obtain the new
/// [`ProcHandle`] with forwarding wired up.
#[derive(Debug)]
pub struct Rewrite {
    base: ProcHandle,
    proc: Proc,
    edits: Vec<EditRecord>,
}

impl Rewrite {
    /// Starts an editing session on the given procedure version.
    ///
    /// The working copy is a structurally-shared snapshot (an `Arc` bump
    /// per block); edits un-share only the blocks they touch. Under
    /// [`crate::with_reference_semantics`] the snapshot is instead a full
    /// deep copy, reproducing the historical O(|proc|)-per-edit cost.
    pub fn new(base: &ProcHandle) -> Self {
        let proc = if crate::reference::active() {
            exo_ir::deep_unshare(base.proc())
        } else {
            base.proc().clone()
        };
        Rewrite {
            base: base.clone(),
            proc,
            edits: Vec::new(),
        }
    }

    /// The working copy (reflecting all edits applied so far).
    pub fn proc(&self) -> &Proc {
        &self.proc
    }

    /// The atomic edits applied so far.
    pub fn edits(&self) -> &[EditRecord] {
        &self.edits
    }

    fn container_mut(&mut self, path: &[Step]) -> Result<(&mut Block, usize)> {
        resolve_container_mut(&mut self.proc, path)
            .ok_or_else(|| CursorError::Invalid(format!("path {path:?} does not resolve")))
    }

    /// Inserts statements at a gap (paper: *Insertion*). The statements
    /// may be new (`Stmt`) or shared with another version (`Arc<Stmt>`).
    pub fn insert<S: Into<Arc<Stmt>>>(&mut self, at: &[Step], stmts: Vec<S>) -> Result<()> {
        let count = stmts.len();
        let (block, idx) = self.container_mut(at)?;
        if idx > block.len() {
            return Err(CursorError::Invalid("insertion index out of bounds".into()));
        }
        block.splice(idx..idx, stmts);
        self.edits.push(EditRecord::Insert {
            at: at.to_vec(),
            count,
        });
        Ok(())
    }

    /// Deletes `count` statements starting at `at` (paper: *Deletion*).
    pub fn delete(&mut self, at: &[Step], count: usize) -> Result<()> {
        let (block, idx) = self.container_mut(at)?;
        if idx + count > block.len() {
            return Err(CursorError::Invalid("deletion range out of bounds".into()));
        }
        block.drain(idx..idx + count);
        self.edits.push(EditRecord::Delete {
            at: at.to_vec(),
            count,
        });
        Ok(())
    }

    /// Replaces `old_count` statements starting at `at` with `stmts`
    /// (paper: *Replacement*), new or shared as for [`Rewrite::insert`].
    pub fn replace<S: Into<Arc<Stmt>>>(
        &mut self,
        at: &[Step],
        old_count: usize,
        stmts: Vec<S>,
    ) -> Result<()> {
        let new_count = stmts.len();
        let (block, idx) = self.container_mut(at)?;
        if idx + old_count > block.len() {
            return Err(CursorError::Invalid(
                "replacement range out of bounds".into(),
            ));
        }
        block.splice(idx..idx + old_count, stmts);
        self.edits.push(EditRecord::Replace {
            at: at.to_vec(),
            old_count,
            new_count,
        });
        Ok(())
    }

    /// Moves `count` statements starting at `from` to the gap addressed by
    /// `to_gap` (paper: *Movement*). Both paths are in current (pre-edit)
    /// coordinates; the destination must not lie inside the moved range.
    pub fn move_block(&mut self, from: &[Step], count: usize, to_gap: &[Step]) -> Result<()> {
        // Extract the statements.
        let (src_block, src_idx) = self.container_mut(from)?;
        if src_idx + count > src_block.len() {
            return Err(CursorError::Invalid(
                "move source range out of bounds".into(),
            ));
        }
        let moved = src_block.drain(src_idx..src_idx + count);

        // Compute the destination gap in post-removal coordinates.
        let mut dest = to_gap.to_vec();
        if let (Some((level, j)), Some(from_last)) = (block_position(&dest, from), from.last()) {
            let i = from_last.index();
            if j > i && j < i + count {
                // Destination inside the moved range: put things back and bail.
                let (src_block, src_idx) = self.container_mut(from)?;
                src_block.splice(src_idx..src_idx, moved);
                return Err(CursorError::Invalid(
                    "move destination lies inside the moved range".into(),
                ));
            }
            if j >= i + count {
                dest[level] = dest[level].with_index(j - count);
            }
        }

        let insert_res = {
            let (dst_block, dst_idx) = match resolve_container_mut(&mut self.proc, &dest) {
                Some(x) => x,
                None => {
                    let (src_block, src_idx) = self.container_mut(from)?;
                    src_block.splice(src_idx..src_idx, moved);
                    return Err(CursorError::Invalid(
                        "move destination does not resolve".into(),
                    ));
                }
            };
            if dst_idx > dst_block.len() {
                Err(moved)
            } else {
                dst_block.splice(dst_idx..dst_idx, moved);
                Ok(())
            }
        };
        match insert_res {
            Ok(()) => {
                self.edits.push(EditRecord::Move {
                    from: from.to_vec(),
                    count,
                    to_post: dest,
                });
                Ok(())
            }
            Err(moved) => {
                let (src_block, src_idx) = self.container_mut(from)?;
                src_block.splice(src_idx..src_idx, moved);
                Err(CursorError::Invalid(
                    "move destination index out of bounds".into(),
                ))
            }
        }
    }

    /// Wraps `count` statements starting at `at` into `wrapper`, which must
    /// be a `for` or `if` statement with an *empty* first child block; the
    /// wrapped statements become that block (paper: *Wrapping*).
    pub fn wrap(&mut self, at: &[Step], count: usize, wrapper: Stmt) -> Result<()> {
        let child = match &wrapper {
            Stmt::For { body, .. } if body.is_empty() => Step::Body(0),
            Stmt::If {
                then_body,
                else_body,
                ..
            } if then_body.is_empty() && else_body.is_empty() => Step::Body(0),
            _ => {
                return Err(CursorError::Invalid(
                    "wrapper must be a for/if statement with an empty body".into(),
                ))
            }
        };
        let (block, idx) = self.container_mut(at)?;
        if idx + count > block.len() || count == 0 {
            return Err(CursorError::Invalid("wrap range out of bounds".into()));
        }
        let inner = block.drain(idx..idx + count);
        // Rebuild the wrapper with the drained statements as its child
        // block. The validation above restricted it to for/if; on any
        // other shape restore the block and report instead of panicking.
        let wrapper = match wrapper {
            Stmt::For {
                iter,
                lo,
                hi,
                parallel,
                ..
            } => Stmt::For {
                iter,
                lo,
                hi,
                body: inner.into_iter().collect(),
                parallel,
            },
            Stmt::If {
                cond, else_body, ..
            } => Stmt::If {
                cond,
                then_body: inner.into_iter().collect(),
                else_body,
            },
            other => {
                let kind = other.kind();
                block.splice(idx..idx, inner);
                return Err(CursorError::Invalid(format!(
                    "wrapper must be a for/if statement, found `{kind}`"
                )));
            }
        };
        block.insert(idx, wrapper);
        self.edits.push(EditRecord::Wrap {
            at: at.to_vec(),
            count,
            child,
        });
        Ok(())
    }

    /// Applies a statement-local modification (expression rewrites, bound
    /// changes, iterator renames). Forwarding through this edit is the
    /// identity. The closure must not change the statement's number or
    /// arrangement of child statements; it may freely change expressions.
    pub fn modify_stmt(&mut self, at: &[Step], f: impl FnOnce(&mut Stmt)) -> Result<()> {
        let stmt = resolve_stmt_mut(&mut self.proc, at)
            .ok_or_else(|| CursorError::Invalid(format!("path {at:?} does not resolve")))?;
        f(stmt);
        self.edits.push(EditRecord::Local { at: at.to_vec() });
        Ok(())
    }

    /// Applies a procedure-level modification (argument types, memory
    /// annotations, preconditions, renames). Forwarding is unaffected.
    pub fn modify_proc(&mut self, f: impl FnOnce(&mut Proc)) {
        f(&mut self.proc);
    }

    /// Finalizes the session, producing a new procedure version whose
    /// provenance records the applied edits for cursor forwarding.
    ///
    /// No extra copy happens here in either mode: the historical engine
    /// also moved its working copy into the new version. (In reference
    /// mode the working copy started as a deep clone at [`Rewrite::new`];
    /// statements constructed *during* the session may still share
    /// storage internally where the historical engine would have deep-
    /// copied, so the reference engine's measured cost is a lower bound
    /// on the historical cost — old-vs-new comparisons are conservative.)
    pub fn commit(self) -> ProcHandle {
        let _span = exo_obs::span!("cursors:commit", "{}", self.proc.name());
        ProcHandle::from_edit(&self.base, self.proc, self.edits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::ProcHandle;
    use exo_ir::{fb, ib, var, DataType, Mem, ProcBuilder};

    fn handle() -> ProcHandle {
        let p = ProcBuilder::new("p")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .with_body(|b| {
                b.assign("x", vec![ib(0)], fb(0.0)); // stmt 0
                b.assign("x", vec![ib(1)], fb(1.0)); // stmt 1
                b.for_("i", ib(0), var("n"), |b| {
                    b.assign("x", vec![var("i")], fb(2.0)); // loop body stmt
                }); // stmt 2
                b.assign("x", vec![ib(2)], fb(3.0)); // stmt 3
            })
            .build();
        ProcHandle::new(p)
    }

    #[test]
    fn insert_forwards_later_cursors() {
        let h = handle();
        let c_last = &h.body()[3];
        let mut rw = Rewrite::new(&h);
        rw.insert(&[Step::Body(1)], vec![Stmt::Pass]).unwrap();
        let h2 = rw.commit();
        assert_eq!(h2.proc().body().len(), 5);
        let f = h2.forward(c_last).unwrap();
        assert_eq!(f.path().stmt_path().unwrap(), &[Step::Body(4)]);
        // A cursor before the insertion point is unchanged.
        let f0 = h2.forward(&h.body()[0]).unwrap();
        assert_eq!(f0.path().stmt_path().unwrap(), &[Step::Body(0)]);
    }

    #[test]
    fn delete_invalidates_deleted_and_shifts_later() {
        let h = handle();
        let deleted = &h.body()[1];
        let later = &h.body()[2];
        let mut rw = Rewrite::new(&h);
        rw.delete(&[Step::Body(1)], 1).unwrap();
        let h2 = rw.commit();
        assert!(h2.forward(deleted).unwrap().is_invalid());
        assert_eq!(
            h2.forward(later).unwrap().path().stmt_path().unwrap(),
            &[Step::Body(1)]
        );
    }

    #[test]
    fn replace_keeps_top_cursor_and_invalidates_inner() {
        let h = handle();
        let loop_c = &h.body()[2];
        let inner = &loop_c.body()[0];
        let mut rw = Rewrite::new(&h);
        rw.replace(&[Step::Body(2)], 1, vec![Stmt::Pass, Stmt::Pass])
            .unwrap();
        let h2 = rw.commit();
        let fl = h2.forward(loop_c).unwrap();
        assert_eq!(fl.path().stmt_path().unwrap(), &[Step::Body(2)]);
        assert!(h2.forward(inner).unwrap().is_invalid());
        // A later sibling shifts by the size difference.
        let f_last = h2.forward(&h.body()[3]).unwrap();
        assert_eq!(f_last.path().stmt_path().unwrap(), &[Step::Body(4)]);
    }

    #[test]
    fn move_preserves_identity_of_moved_statements() {
        let h = handle();
        let inner = &h.body()[2].body()[0];
        let mut rw = Rewrite::new(&h);
        // Move the loop-body statement out, to just before the loop (gap at index 2).
        rw.move_block(&[Step::Body(2), Step::Body(0)], 1, &[Step::Body(2)])
            .unwrap();
        let h2 = rw.commit();
        let f = h2.forward(inner).unwrap();
        assert_eq!(f.path().stmt_path().unwrap(), &[Step::Body(2)]);
        assert_eq!(f.kind(), Some("assign"));
        // The loop itself shifted right by one.
        let floop = h2.forward(&h.body()[2]).unwrap();
        assert_eq!(floop.path().stmt_path().unwrap(), &[Step::Body(3)]);
        assert!(floop.is_loop());
    }

    #[test]
    fn wrap_pushes_cursors_into_the_wrapper() {
        let h = handle();
        let first = &h.body()[0];
        let second = &h.body()[1];
        let last = &h.body()[3];
        let mut rw = Rewrite::new(&h);
        let wrapper = Stmt::For {
            iter: exo_ir::Sym::new("w"),
            lo: ib(0),
            hi: ib(1),
            body: exo_ir::Block::new(),
            parallel: false,
        };
        rw.wrap(&[Step::Body(0)], 2, wrapper).unwrap();
        let h2 = rw.commit();
        assert_eq!(h2.proc().body().len(), 3);
        let f1 = h2.forward(first).unwrap();
        assert_eq!(
            f1.path().stmt_path().unwrap(),
            &[Step::Body(0), Step::Body(0)]
        );
        let f2 = h2.forward(second).unwrap();
        assert_eq!(
            f2.path().stmt_path().unwrap(),
            &[Step::Body(0), Step::Body(1)]
        );
        let fl = h2.forward(last).unwrap();
        assert_eq!(fl.path().stmt_path().unwrap(), &[Step::Body(2)]);
    }

    #[test]
    fn forwarding_composes_across_multiple_rewrites() {
        let h = handle();
        let last = &h.body()[3];
        let mut rw = Rewrite::new(&h);
        rw.insert(&[Step::Body(0)], vec![Stmt::Pass]).unwrap();
        let h2 = rw.commit();
        let mut rw = Rewrite::new(&h2);
        rw.delete(&[Step::Body(2)], 1).unwrap();
        let h3 = rw.commit();
        // Original index 3 -> +1 (insert) = 4 -> -1 (delete of index 2) = 3.
        let f = h3.forward(last).unwrap();
        assert_eq!(f.path().stmt_path().unwrap(), &[Step::Body(3)]);
    }

    #[test]
    fn local_edit_is_identity_for_forwarding() {
        let h = handle();
        let loop_c = &h.body()[2];
        let mut rw = Rewrite::new(&h);
        rw.modify_stmt(&[Step::Body(2)], |s| {
            if let Stmt::For { hi, .. } = s {
                *hi = ib(100);
            }
        })
        .unwrap();
        let h2 = rw.commit();
        let f = h2.forward(loop_c).unwrap();
        assert_eq!(f.hi(), Some(ib(100)));
        assert_eq!(f.path(), loop_c.path());
    }

    #[test]
    fn invalid_edits_are_rejected() {
        let h = handle();
        let mut rw = Rewrite::new(&h);
        assert!(rw.delete(&[Step::Body(9)], 1).is_err());
        assert!(rw.replace(&[Step::Body(2)], 5, Vec::<Stmt>::new()).is_err());
        assert!(rw.wrap(&[Step::Body(0)], 2, Stmt::Pass).is_err());
        assert!(rw
            .move_block(&[Step::Body(0)], 2, &[Step::Body(1)])
            .is_err());
    }
}
