//! Structural content hashing of the object language.
//!
//! Every IR type implements [`std::hash::Hash`] next to its `PartialEq`,
//! derived wherever `PartialEq` is derived, so the two walk the same
//! fields: two procedures that compare unequal feed different word streams
//! to the hasher (memory spaces, `parallel` marks, window flags,
//! instruction metadata and tree shape included — none of which the
//! pretty-printer is obliged to show). The two exceptions are written by
//! hand: [`Expr`](crate::Expr) hashes float literals by bit pattern, and
//! [`Block`](crate::Block) feeds the hash it caches on its shared node.
//!
//! The hash is *finer* than `==` in one place: `0.0` and `-0.0` compare
//! equal and hash apart (the IR types are not `Eq`, so nothing can key a
//! map by them and rely on the usual `Hash`/`Eq` agreement).
//!
//! [`ContentHasher`] is the one hasher content addresses are built with.
//! It has no per-process seed — the same value hashes the same in every
//! run — and takes its input eight bytes a step.

use std::hash::Hasher;

/// Deterministic 64-bit hasher for content addresses: one folded
/// 64×64→128-bit multiply per eight bytes of input.
///
/// Not collision-resistant against an adversary, like the byte-wise FNV-1a
/// it replaced; over honest inputs two different values share a hash with
/// probability about 2⁻⁶⁴.
///
/// ```
/// use exo_ir::ContentHasher;
/// use std::hash::{Hash, Hasher};
/// let key = |fields: &[&str]| {
///     let mut h = ContentHasher::new();
///     fields.hash(&mut h);
///     h.finish()
/// };
/// assert_eq!(key(&["ab", "c"]), key(&["ab", "c"]));
/// assert_ne!(key(&["ab", "c"]), key(&["a", "bc"]));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ContentHasher(u64);

/// Initial state (the fractional digits of π, as FNV's offset basis is an
/// arbitrary non-zero start).
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Odd multiplier (2⁶⁴ / φ).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl ContentHasher {
    /// A hasher in its initial state.
    pub fn new() -> Self {
        ContentHasher(SEED)
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

impl Hasher for ContentHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * u128::from(MUL);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    /// Length first, then the bytes as little-endian words, the last one
    /// zero-padded: self-delimiting whatever the caller writes next.
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.write_u64(u64::from_le_bytes(*word));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    // The integer widths derived `Hash` impls use (discriminants, lengths,
    // the `0xff` after a `str`) take one step each instead of the byte
    // path's two.
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::expr::{fb, ib, read, var, Expr};
    use crate::proc::{InstrInfo, Proc};
    use crate::types::{DataType, Mem};
    use std::hash::Hash;

    fn hash_of(value: &impl Hash) -> u64 {
        let mut h = ContentHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn byte_strings_are_self_delimiting() {
        let stream = |parts: &[&[u8]]| {
            let mut h = ContentHasher::new();
            for p in parts {
                h.write(p);
            }
            h.finish()
        };
        assert_ne!(stream(&[b"ab", b"c"]), stream(&[b"a", b"bc"]));
        assert_ne!(stream(&[b"ab"]), stream(&[b"ab\0"]));
        assert_ne!(stream(&[b"abcdefgh"]), stream(&[b"abcdefgh\0"]));
        assert_ne!(stream(&[b""]), stream(&[b"", b""]));
        // Every byte of a long input counts, whichever word it lands in.
        let long: Vec<u8> = (0..100u8).collect();
        for i in 0..long.len() {
            let mut flipped = long.clone();
            flipped[i] ^= 1;
            assert_ne!(stream(&[&long]), stream(&[&flipped]), "byte {i}");
        }
    }

    fn kernel(rhs: Expr) -> Proc {
        ProcBuilder::new("k")
            .tensor_arg("x", DataType::F64, vec![ib(3)], Mem::Dram)
            .tensor_arg("y", DataType::F64, vec![ib(1)], Mem::Dram)
            .for_("i", ib(0), ib(1), |b| {
                b.assign("y", vec![var("i")], rhs);
            })
            .build()
    }

    #[test]
    fn equal_trees_built_apart_hash_equal() {
        let rhs = || read("x", vec![ib(0)]) + fb(0.5);
        assert_eq!(kernel(rhs()), kernel(rhs()));
        assert_eq!(kernel(rhs()).content_hash(), kernel(rhs()).content_hash());
    }

    /// What the printer does not show still separates two procedures.
    #[test]
    fn every_compared_field_reaches_the_hash() {
        let x0 = || read("x", vec![ib(0)]);
        let base = kernel(x0() + fb(0.5));
        let mut variants = vec![
            kernel((x0() + fb(0.1)) + fb(0.7)),
            kernel(x0() + (fb(0.1) + fb(0.7))),
            base.clone().with_name("k2"),
            base.add_assertion(Expr::Bool(true)),
            base.clone().with_instr(InstrInfo {
                cost_class: "c".into(),
            }),
            base.clone().with_instr(InstrInfo {
                cost_class: "d".into(),
            }),
        ];
        let mut mem = base.clone();
        if let crate::ArgKind::Tensor { mem, .. } = &mut mem.args_mut()[0].kind {
            *mem = Mem::DramStatic;
        }
        variants.push(mem);
        let mut window = base.clone();
        if let crate::ArgKind::Tensor { window, .. } = &mut window.args_mut()[1].kind {
            *window = true;
        }
        variants.push(window);
        let mut parallel = base.clone();
        if let crate::Stmt::For { parallel, .. } = parallel.body_mut().stmt_mut(0).unwrap() {
            *parallel = true;
        }
        variants.push(parallel);
        variants.push(base);
        for (i, a) in variants.iter().enumerate() {
            for b in &variants[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(a.content_hash(), b.content_hash(), "{a:?}\nvs\n{b:?}");
            }
        }
    }

    /// The one place the hash is finer than `==` (see `Block`'s
    /// `PartialEq` for the NaN caveat on the other side).
    #[test]
    fn signed_zero_literals_compare_equal_and_hash_apart() {
        assert_eq!(fb(0.0), fb(-0.0));
        assert_ne!(hash_of(&fb(0.0)), hash_of(&fb(-0.0)));
        assert_eq!(kernel(fb(0.0)), kernel(fb(-0.0)));
        assert_ne!(
            kernel(fb(0.0)).content_hash(),
            kernel(fb(-0.0)).content_hash()
        );
    }
}
