//! Differential property tests for the structurally-shared editing engine.
//!
//! The shared engine (Arc-backed blocks, path-copy commits, composed
//! forwarding, early-exit find) must be observationally identical to the
//! deep-clone reference implementation — only cheaper. These tests drive
//! both engines with identical random sequences of atomic edits and check:
//!
//! 1. every committed version is `==` (and pretty-prints identically)
//!    across the two engines, and
//! 2. mutating a newer version is never observable through any ancestor
//!    `ProcHandle` — structural sharing must not alias (copy-on-write
//!    covers every edit path), and
//! 3. every statement an edit did not touch is the parent version's own
//!    statement (`Arc::ptr_eq`): an edit copies only the statements on the
//!    path to its site and makes only the statements it inserts.

use exo_cursors::{with_reference_semantics, ProcHandle, Rewrite};
use exo_ir::rng::Rng;
use exo_ir::{
    fb, for_each_stmt_paths, ib, read, var, Block, DataType, Mem, ProcBuilder, Step, Stmt, Sym,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// A starting procedure with nested loops, branches and straight-line code
/// so every edit kind has targets at several depths.
fn base_proc() -> exo_ir::Proc {
    ProcBuilder::new("p")
        .size_arg("n")
        .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
        .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
        .with_body(|b| {
            b.alloc("acc", DataType::F32, vec![], Mem::Dram);
            b.assign("acc", vec![], fb(0.0));
            b.for_("i", ib(0), var("n"), |b| {
                b.assign("y", vec![var("i")], fb(1.0));
                b.for_("j", ib(0), ib(8), |b| {
                    b.reduce("acc", vec![], read("x", vec![var("i")]));
                });
                b.if_(exo_ir::Expr::lt(var("i"), ib(4)), |t| {
                    t.pass();
                });
            });
            b.assign("y", vec![ib(0)], var("acc"));
        })
        .build()
}

/// All statement paths of the current version.
fn all_paths(h: &ProcHandle) -> Vec<Vec<Step>> {
    let mut out = Vec::new();
    for_each_stmt_paths(h.proc(), &mut |path, _| out.push(path.to_vec()));
    out
}

/// One random atomic edit, described independently of the engine so the
/// identical edit can be applied to both.
#[derive(Clone, Debug)]
enum Edit {
    Insert(Vec<Step>),
    Delete(Vec<Step>),
    Replace(Vec<Step>),
    Wrap(Vec<Step>, String),
    Move(Vec<Step>, Vec<Step>),
    Modify(Vec<Step>, i64),
}

fn random_edit(rng: &mut Rng, h: &ProcHandle) -> Option<Edit> {
    let paths = all_paths(h);
    if paths.is_empty() {
        return None;
    }
    let pick = |rng: &mut Rng, paths: &[Vec<Step>]| paths[rng.below(paths.len())].clone();
    Some(match rng.below(6) {
        0 => Edit::Insert(pick(rng, &paths)),
        1 => Edit::Delete(pick(rng, &paths)),
        2 => Edit::Replace(pick(rng, &paths)),
        3 => Edit::Wrap(pick(rng, &paths), format!("w{}", rng.below(1000))),
        4 => Edit::Move(pick(rng, &paths), pick(rng, &paths)),
        _ => Edit::Modify(pick(rng, &paths), rng.range(0, 99)),
    })
}

/// The address of every statement of `block`, at every depth.
fn stmt_addrs(block: &Block, out: &mut HashSet<*const Stmt>) {
    for s in block.stmts() {
        out.insert(Arc::as_ptr(s));
        for child in s.child_blocks() {
            stmt_addrs(child, out);
        }
    }
}

/// The statements of `child` that are not statements of `parent`, as
/// `kind` labels: the ones the edit between them copied or made.
fn unshared_stmts(parent: &ProcHandle, child: &ProcHandle) -> Vec<&'static str> {
    let mut old = HashSet::new();
    stmt_addrs(parent.proc().body(), &mut old);
    let mut new = Vec::new();
    for_each_stmt_paths(child.proc(), &mut |path, _| new.push(path.to_vec()));
    let mut out = Vec::new();
    for path in new {
        let (block, i) = exo_ir::resolve_container(child.proc(), &path).expect("resolves");
        let s = &block.stmts()[i];
        if !old.contains(&Arc::as_ptr(s)) {
            out.push(s.kind());
        }
    }
    out
}

/// How many statements `edit` may copy or make: the ancestors of each site
/// it writes (their child block changes) plus the statements it inserts
/// or rewrites. Everything else must stay shared.
fn touched(edit: &Edit) -> usize {
    let ancestors = |at: &[Step]| at.len() - 1;
    match edit {
        Edit::Insert(at) | Edit::Wrap(at, _) | Edit::Modify(at, _) => ancestors(at) + 1,
        Edit::Delete(at) => ancestors(at),
        Edit::Replace(at) => ancestors(at) + 2,
        Edit::Move(from, to) => ancestors(from) + ancestors(to),
    }
}

/// Applies the edit, committing a new version. Returns `Err` with the
/// error's display string so both engines can be required to fail alike.
fn apply(h: &ProcHandle, edit: &Edit) -> Result<ProcHandle, String> {
    let mut rw = Rewrite::new(h);
    let r = match edit {
        Edit::Insert(at) => rw.insert(at, vec![Stmt::Pass]),
        Edit::Delete(at) => rw.delete(at, 1),
        Edit::Replace(at) => rw.replace(at, 1, vec![Stmt::Pass, Stmt::Pass]),
        Edit::Wrap(at, iter) => rw.wrap(
            at,
            1,
            Stmt::For {
                iter: Sym::new(iter.as_str()),
                lo: ib(0),
                hi: ib(2),
                body: exo_ir::Block::new(),
                parallel: false,
            },
        ),
        Edit::Move(from, to) => rw.move_block(from, 1, to),
        Edit::Modify(at, k) => rw.modify_stmt(at, |s| {
            if let Stmt::For { hi, .. } = s {
                *hi = ib(*k);
            }
        }),
    };
    match r {
        Ok(()) => Ok(rw.commit()),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shared engine == deep-clone reference on random edit sequences, at
    /// every intermediate version, and no edit is observable through an
    /// ancestor handle in either engine.
    #[test]
    fn random_edits_match_deep_clone_reference(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let mut shared = ProcHandle::new(base_proc());
        let mut reference = with_reference_semantics(|| ProcHandle::new(base_proc()));
        // (handle, pretty-print at commit time) — for the aliasing check.
        let mut retained: Vec<(ProcHandle, String)> =
            vec![(shared.clone(), shared.to_string())];
        for _ in 0..24 {
            let Some(edit) = random_edit(&mut rng, &shared) else { break };
            let a = apply(&shared, &edit);
            let b = with_reference_semantics(|| apply(&reference, &edit));
            match (a, b) {
                (Ok(s2), Ok(r2)) => {
                    prop_assert_eq!(s2.proc(), r2.proc());
                    prop_assert_eq!(s2.to_string(), r2.to_string());
                    let copied = unshared_stmts(&shared, &s2);
                    prop_assert!(
                        copied.len() <= touched(&edit),
                        "untouched statements were copied by {:?}: {:?}\n{}",
                        &edit,
                        copied,
                        s2
                    );
                    retained.push((s2.clone(), s2.to_string()));
                    shared = s2;
                    reference = r2;
                }
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                (a, b) => prop_assert!(
                    false,
                    "engines disagree on edit {:?}: shared {:?}, reference {:?}",
                    &edit,
                    a.map(|h| h.to_string()),
                    b.map(|h| h.to_string())
                ),
            }
        }
        // No aliasing: every retained ancestor still pretty-prints exactly
        // as it did the moment it was committed.
        for (handle, snapshot) in &retained {
            prop_assert_eq!(&handle.to_string(), snapshot);
        }
        // Forwarding parity: forward every top-level cursor of the root
        // version through the whole chain in both engines.
        let root = &retained[0].0;
        for cursor in root.body() {
            let fast = shared.forward(&cursor).unwrap();
            let slow = with_reference_semantics(|| shared.forward(&cursor).unwrap());
            prop_assert_eq!(fast.path(), slow.path());
        }
    }
}

#[test]
fn sibling_subtrees_stay_shared_across_versions() {
    // Editing inside the loop must not copy the untouched `if` subtree —
    // the new version's storage for it is the old version's storage.
    let h = ProcHandle::new(base_proc());
    let mut rw = Rewrite::new(&h);
    rw.insert(&[Step::Body(2), Step::Body(0)], vec![Stmt::Pass])
        .unwrap();
    let h2 = rw.commit();
    let get_if_body = |h: &ProcHandle| match exo_ir::resolve_stmt(h.proc(), &[Step::Body(2)]) {
        Some(Stmt::For { body, .. }) => match &body[body.len() - 1] {
            Stmt::If { then_body, .. } => then_body.clone(),
            other => panic!("expected if, got {}", other.kind()),
        },
        other => panic!("expected for, got {other:?}"),
    };
    assert!(get_if_body(&h).shares_storage_with(&get_if_body(&h2)));
    // The untouched siblings on the edit's own path are the old version's
    // statements, not copies of them.
    for i in [0, 1, 3] {
        assert!(Arc::ptr_eq(
            &h.proc().body().stmts()[i],
            &h2.proc().body().stmts()[i]
        ));
    }
    assert_eq!(unshared_stmts(&h, &h2), ["for", "pass"]);
    // And the edit itself is invisible in the ancestor.
    assert_eq!(h.proc().stmt_count() + 1, h2.proc().stmt_count());
}
