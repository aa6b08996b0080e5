//! Statements and statement blocks of the object language.
//!
//! The statement is the unit procedure versions share. A [`Block`] is an
//! `Arc` to a node holding `Vec<Arc<Stmt>>` and the block's cached hash:
//! cloning a block is one count bump, and copying a shared node for an
//! edit (the spine copy of a rewrite) bumps one count per sibling
//! statement instead of copying the statements. Every write reaches a
//! statement through [`Block::stmt_mut`], [`Block::iter_mut`],
//! [`Block::splice`], [`Block::drain`] or [`Block::insert`], which copy
//! the node and the one statement written if they are shared, and clear
//! the cached hash.

use crate::expr::Expr;
use crate::hash::ContentHasher;
use crate::sym::Sym;
use crate::types::{DataType, Mem};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A sequence of statements (the body of a procedure, loop or branch).
///
/// Blocks are *structurally shared*: cloning a block is an `Arc` bump, and
/// two clones share one node until one of them is written through a
/// mutating method, which copies the node only if it is shared (path
/// copying). The node holds its statements as `Arc<Stmt>`, so that copy
/// bumps one count per statement and copies only the statement being
/// written (again only if shared). Committing an edit therefore copies
/// the spine of blocks and statements from the root to the edit site,
/// while every statement off that path stays shared across versions.
///
/// The shared node also caches the block's structural hash (its `Hash`
/// impl feeds that one word), computed on first use. The mutating methods
/// are the only `&mut` routes to a node's statements — reaching a nested
/// block mutably goes through one of them at every enclosing block — and
/// each clears the word, which invalidates exactly the spine an edit
/// copies, while the subtrees two versions share are hashed once for both.
#[derive(Clone, Default)]
pub struct Block(Arc<Node>);

#[derive(Default)]
struct Node {
    stmts: Vec<Arc<Stmt>>,
    /// Structural hash of `stmts`; 0 = not computed (a computed 0 is
    /// stored as 1). `Relaxed` throughout: the word publishes no other
    /// data, and racing readers of one immutable node compute the same
    /// value.
    hash: AtomicU64,
}

impl Clone for Node {
    /// The copy `Arc::make_mut` hands to an editor: it shares every
    /// statement with the original, and its hash starts clear.
    fn clone(&self) -> Self {
        Node {
            stmts: self.stmts.clone(),
            hash: AtomicU64::new(0),
        }
    }
}

/// Heap bytes of one block node besides its statements: the two `Arc`
/// counts, the vector header and the cached hash.
pub(crate) const NODE_BYTES: usize = 2 * size_of::<usize>() + size_of::<Node>();

/// Heap bytes of one shared statement: the two `Arc` counts and the
/// statement itself.
pub(crate) const STMT_BYTES: usize = 2 * size_of::<usize>() + size_of::<Stmt>();

impl Block {
    /// Creates an empty block.
    pub fn new() -> Self {
        Block::default()
    }

    /// Creates a block from statements.
    pub fn from_stmts(stmts: Vec<Stmt>) -> Self {
        stmts.into_iter().collect()
    }

    fn from_shared(stmts: Vec<Arc<Stmt>>) -> Self {
        Block(Arc::new(Node {
            stmts,
            hash: AtomicU64::new(0),
        }))
    }

    /// The statements of this block, as the shared handles versions hold.
    pub fn stmts(&self) -> &[Arc<Stmt>] {
        &self.0.stmts
    }

    /// The statement vector, for writing: copied first if the node is
    /// shared with other clones (copy-on-write; the statements themselves
    /// stay shared), with the cached hash cleared. Private, so every
    /// write goes through one of the methods below.
    fn edit(&mut self) -> &mut Vec<Arc<Stmt>> {
        let node = Arc::make_mut(&mut self.0);
        *node.hash.get_mut() = 0;
        &mut node.stmts
    }

    /// Mutable access to the statement at `i`, if in bounds. Copies the
    /// node and that statement if they are shared; the other statements
    /// stay shared.
    pub fn stmt_mut(&mut self, i: usize) -> Option<&mut Stmt> {
        if i >= self.len() {
            return None;
        }
        Some(Arc::make_mut(&mut self.edit()[i]))
    }

    /// Mutable access to every statement in order. Each statement is
    /// copied, if shared, when the iterator reaches it.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Stmt> {
        self.edit().iter_mut().map(Arc::make_mut)
    }

    /// Replaces the statements in `range` with `stmts`.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds.
    pub fn splice<S: Into<Arc<Stmt>>>(
        &mut self,
        range: Range<usize>,
        stmts: impl IntoIterator<Item = S>,
    ) {
        self.edit().splice(range, stmts.into_iter().map(Into::into));
    }

    /// Removes the statements in `range` and returns them, still shared
    /// with any other version that holds them.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds.
    pub fn drain(&mut self, range: Range<usize>) -> Vec<Arc<Stmt>> {
        self.edit().drain(range).collect()
    }

    /// Inserts a statement at `i`.
    ///
    /// # Panics
    ///
    /// If `i > self.len()`.
    pub fn insert(&mut self, i: usize, stmt: impl Into<Arc<Stmt>>) {
        self.edit().insert(i, stmt.into());
    }

    /// Extracts the statements, copying each one that is shared.
    pub fn into_stmts(self) -> Vec<Stmt> {
        let stmts = match Arc::try_unwrap(self.0) {
            Ok(node) => node.stmts,
            Err(shared) => shared.stmts.clone(),
        };
        stmts.into_iter().map(Arc::unwrap_or_clone).collect()
    }

    /// The statement at `i`, if in bounds.
    pub fn get(&self, i: usize) -> Option<&Stmt> {
        self.0.stmts.get(i).map(|s| &**s)
    }

    /// Number of statements directly in this block.
    pub fn len(&self) -> usize {
        self.0.stmts.len()
    }

    /// Whether this block has no statements.
    pub fn is_empty(&self) -> bool {
        self.0.stmts.is_empty()
    }

    /// Iterates over direct statements.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.0.stmts.iter())
    }

    /// Total number of statements in this block, counted recursively.
    pub fn count_recursive(&self) -> usize {
        self.iter().map(|s| s.count_recursive()).sum()
    }

    /// Whether two blocks share the same underlying statement storage
    /// (used by sharing/aliasing tests and the retained-size estimator).
    pub fn shares_storage_with(&self, other: &Block) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// A stable address for the underlying storage, used to deduplicate
    /// shared blocks when estimating retained memory.
    pub fn storage_id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }
}

/// The iterator of [`Block::iter`]: a block's statements, in order.
#[derive(Clone, Debug)]
pub struct Iter<'a>(std::slice::Iter<'a, Arc<Stmt>>);

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Stmt;

    fn next(&mut self) -> Option<&'a Stmt> {
        self.0.next().map(|s| &**s)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|s| &**s)
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Block").field(&self.0.stmts).finish()
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        // Shared storage is equal by construction, node by node and
        // statement by statement; fall back to a deep comparison
        // otherwise. Caveat: for blocks containing a float NaN literal the
        // deep comparison is non-reflexive (NaN != NaN) while the pointer
        // fast paths report shared clones equal — the object language
        // never produces NaN literals, so this stays theoretical. (`Hash`
        // errs the other way at signed zeros: `0.0 == -0.0`, yet the two
        // literals hash apart.)
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        let (a, b) = (&self.0.stmts, &other.0.stmts);
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| Arc::ptr_eq(x, y) || **x == **y)
    }
}

impl Hash for Block {
    /// Feeds the structural hash of the statements, from the node's cache
    /// when a clone of this block has been hashed before.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let node = &*self.0;
        let mut hash = node.hash.load(Ordering::Relaxed);
        if hash == 0 {
            let mut h = ContentHasher::new();
            node.stmts.hash(&mut h);
            hash = h.finish().max(1);
            node.hash.store(hash, Ordering::Relaxed);
        }
        state.write_u64(hash);
    }
}

impl std::ops::Index<usize> for Block {
    type Output = Stmt;
    fn index(&self, i: usize) -> &Stmt {
        &self.0.stmts[i]
    }
}

impl FromIterator<Stmt> for Block {
    fn from_iter<T: IntoIterator<Item = Stmt>>(iter: T) -> Self {
        Block::from_shared(iter.into_iter().map(Arc::new).collect())
    }
}

impl FromIterator<Arc<Stmt>> for Block {
    /// Builds a block that shares the given statements.
    fn from_iter<T: IntoIterator<Item = Arc<Stmt>>>(iter: T) -> Self {
        Block::from_shared(iter.into_iter().collect())
    }
}

impl From<Vec<Stmt>> for Block {
    fn from(stmts: Vec<Stmt>) -> Self {
        Block::from_stmts(stmts)
    }
}

impl<'a> IntoIterator for &'a Block {
    type Item = &'a Stmt;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A statement of the object language.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Stmt {
    /// `buf[idx...] = rhs` — overwrite a buffer element (or scalar when
    /// `idx` is empty).
    Assign {
        /// Destination buffer.
        buf: Sym,
        /// Destination index per dimension.
        idx: Vec<Expr>,
        /// Value written.
        rhs: Expr,
    },
    /// `buf[idx...] += rhs` — reduce (accumulate) into a buffer element.
    Reduce {
        /// Destination buffer.
        buf: Sym,
        /// Destination index per dimension.
        idx: Vec<Expr>,
        /// Value accumulated.
        rhs: Expr,
    },
    /// `name: ty[dims...] @ mem` — allocate a buffer for the remainder of
    /// the enclosing scope.
    Alloc {
        /// Buffer name.
        name: Sym,
        /// Element type.
        ty: DataType,
        /// Dimension sizes (empty for a scalar temporary).
        dims: Vec<Expr>,
        /// Memory space.
        mem: Mem,
    },
    /// `for iter in seq(lo, hi): body` — a sequential (or, after
    /// `parallelize_loop`, parallel) counted loop.
    For {
        /// Iterator symbol, scoped to `body`.
        iter: Sym,
        /// Inclusive lower bound.
        lo: Expr,
        /// Exclusive upper bound.
        hi: Expr,
        /// Loop body.
        body: Block,
        /// Whether iterations may execute in parallel.
        parallel: bool,
    },
    /// `if cond: then_body else: else_body`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when `cond` is true.
        then_body: Block,
        /// Taken when `cond` is false (may be empty).
        else_body: Block,
    },
    /// A call to another procedure or to an instruction procedure.
    Call {
        /// Callee name.
        proc: String,
        /// Arguments (scalars, sizes, buffer windows).
        args: Vec<Expr>,
    },
    /// `pass` — the empty statement.
    Pass,
    /// `config.field = value` — write an accelerator configuration register.
    WriteConfig {
        /// Configuration struct.
        config: Sym,
        /// Field name.
        field: String,
        /// New value.
        value: Expr,
    },
    /// A window alias declaration: `name = buf[w...]` where the right-hand
    /// side is a window expression. Introduced by `stage_mem`-style
    /// operations and removed by `inline_window`.
    WindowStmt {
        /// Alias name.
        name: Sym,
        /// Window expression (must be [`Expr::Window`]).
        rhs: Expr,
    },
}

impl Stmt {
    /// A human-readable label for the statement kind, used by error
    /// messages and pattern matching.
    pub fn kind(&self) -> &'static str {
        match self {
            Stmt::Assign { .. } => "assign",
            Stmt::Reduce { .. } => "reduce",
            Stmt::Alloc { .. } => "alloc",
            Stmt::For { .. } => "for",
            Stmt::If { .. } => "if",
            Stmt::Call { .. } => "call",
            Stmt::Pass => "pass",
            Stmt::WriteConfig { .. } => "write_config",
            Stmt::WindowStmt { .. } => "window",
        }
    }

    /// Direct child blocks of this statement (loop body, branch arms).
    pub fn child_blocks(&self) -> Vec<&Block> {
        match self {
            Stmt::For { body, .. } => vec![body],
            Stmt::If {
                then_body,
                else_body,
                ..
            } => vec![then_body, else_body],
            _ => vec![],
        }
    }

    /// Mutable access to direct child blocks of this statement.
    pub fn child_blocks_mut(&mut self) -> Vec<&mut Block> {
        match self {
            Stmt::For { body, .. } => vec![body],
            Stmt::If {
                then_body,
                else_body,
                ..
            } => vec![then_body, else_body],
            _ => vec![],
        }
    }

    /// Total number of statements rooted at this one (itself included).
    pub fn count_recursive(&self) -> usize {
        1 + self
            .child_blocks()
            .iter()
            .map(|b| b.count_recursive())
            .sum::<usize>()
    }

    /// Returns `true` if the statement is a `for` loop.
    pub fn is_for(&self) -> bool {
        matches!(self, Stmt::For { .. })
    }

    /// Returns `true` if the statement is an `if`.
    pub fn is_if(&self) -> bool {
        matches!(self, Stmt::If { .. })
    }

    /// The loop iterator symbol, if this is a `for` loop.
    pub fn loop_iter(&self) -> Option<&Sym> {
        match self {
            Stmt::For { iter, .. } => Some(iter),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ib, read, var};

    fn sample_loop() -> Stmt {
        Stmt::For {
            iter: Sym::new("i"),
            lo: ib(0),
            hi: var("n"),
            body: Block::from_stmts(vec![Stmt::Reduce {
                buf: Sym::new("y"),
                idx: vec![var("i")],
                rhs: read("x", vec![var("i")]),
            }]),
            parallel: false,
        }
    }

    #[test]
    fn kinds_and_predicates() {
        let s = sample_loop();
        assert_eq!(s.kind(), "for");
        assert!(s.is_for());
        assert!(!s.is_if());
        assert_eq!(s.loop_iter(), Some(&Sym::new("i")));
        assert_eq!(Stmt::Pass.kind(), "pass");
    }

    #[test]
    fn recursive_count() {
        let s = sample_loop();
        assert_eq!(s.count_recursive(), 2);
        let nested = Stmt::For {
            iter: Sym::new("j"),
            lo: ib(0),
            hi: ib(4),
            body: Block::from_stmts(vec![s]),
            parallel: false,
        };
        assert_eq!(nested.count_recursive(), 3);
    }

    #[test]
    fn child_blocks_of_if() {
        let s = Stmt::If {
            cond: Expr::Bool(true),
            then_body: Block::from_stmts(vec![Stmt::Pass]),
            else_body: Block::new(),
        };
        let blocks = s.child_blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].len(), 1);
        assert!(blocks[1].is_empty());
    }

    #[test]
    fn block_collects_from_iterator() {
        let b: Block = vec![Stmt::Pass, Stmt::Pass].into_iter().collect();
        assert_eq!(b.len(), 2);
        assert_eq!(b.count_recursive(), 2);
    }
}
