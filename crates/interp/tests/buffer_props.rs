//! Property tests for the buffer linear-index computation.
//!
//! The row-major fold `lin = lin * d + ix` silently wrapped on adversarial
//! shape/stride combinations before it was switched to checked arithmetic:
//! a dimension vector whose product overflows `usize` could map an
//! in-bounds-looking index onto a *valid but wrong* element. These tests
//! recompute every index in 128-bit arithmetic and assert the checked
//! implementation either agrees exactly or reports the access as
//! out-of-bounds (`None`) — never a silently wrapped offset.

use exo_interp::BufferData;
use exo_ir::rng::Rng;
use exo_ir::{DataType, Mem};
use proptest::prelude::*;

/// An adversarial dimension: tiny, huge, or near an overflow boundary.
fn adversarial_dim(rng: &mut Rng) -> usize {
    match rng.below(6) {
        0 => rng.below(5),                    // 0..4 (incl. empty dims)
        1 => rng.below(1 << 20) + 1,          // ordinary sizes
        2 => usize::MAX,                      // instant overflow
        3 => (1usize << 32) + rng.below(17),  // u32 boundary
        4 => (1usize << 62) + rng.below(17),  // near usize::MAX / 2
        _ => usize::MAX / (rng.below(7) + 1), // divides the max
    }
}

/// Builds a buffer with the given dims *without* allocating the (possibly
/// astronomically large) element count: only `linear_index` is under test
/// and it never touches `data`.
fn buffer_with_dims(dims: Vec<usize>) -> BufferData {
    BufferData {
        data: Vec::new(),
        dims,
        elem: DataType::F32,
        mem: Mem::Dram,
        base_addr: 0,
    }
}

/// The specification: the same fold in 128-bit *saturating* arithmetic.
/// Saturation can only trigger far above `usize::MAX`, so every
/// comparison against representable offsets remains exact.
fn spec_linear_index(dims: &[usize], idx: &[i64]) -> Option<u128> {
    if dims.is_empty() {
        return if idx.is_empty() || idx.iter().all(|&i| i == 0) {
            Some(0)
        } else {
            None
        };
    }
    if idx.len() != dims.len() {
        return None;
    }
    let mut lin: u128 = 0;
    for (&ix, &d) in idx.iter().zip(dims.iter()) {
        if ix < 0 || ix as u64 >= d as u64 {
            return None;
        }
        lin = lin.saturating_mul(d as u128).saturating_add(ix as u128);
    }
    Some(lin)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `linear_index` never silently wraps: it matches the 128-bit
    /// specification exactly whenever it returns `Some`, and returns
    /// `None` (surfaced as `InterpError::OutOfBounds` by the interpreter)
    /// whenever the true offset cannot be represented.
    #[test]
    fn linear_index_never_wraps_on_adversarial_shapes(seed in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let ndims = rng.below(5) + 1;
        let dims: Vec<usize> = (0..ndims).map(|_| adversarial_dim(&mut rng)).collect();
        let buf = buffer_with_dims(dims.clone());
        // Indices biased toward the extremes of every dimension.
        let idx: Vec<i64> = dims
            .iter()
            .map(|&d| match rng.below(5) {
                0 => 0,
                1 => (d as i64).saturating_sub(1).max(0),
                2 => -1,
                3 => d.min(i64::MAX as usize) as i64,
                _ => (rng.next_u64() as i64).saturating_abs() % (d.max(1).min(i64::MAX as usize) as i64).max(1),
            })
            .collect();
        let got = buf.linear_index(&idx);
        let spec = spec_linear_index(&dims, &idx);
        match (got, spec) {
            // Agreement, exactly, with no wrapping.
            (Some(lin), Some(s)) => prop_assert_eq!(lin as u128, s),
            // Rejected because the true offset overflows usize: fine.
            (None, Some(s)) => prop_assert!(
                s > usize::MAX as u128,
                "spurious rejection of representable offset {} for dims {:?} idx {:?}",
                s, dims, idx
            ),
            // Out of bounds in both.
            (None, None) => {}
            (Some(lin), None) => prop_assert!(
                false,
                "accepted out-of-bounds access: lin={} dims={:?} idx={:?}",
                lin, dims, idx
            ),
        }
    }

    /// Wrong-arity and mixed-sign indices are always rejected.
    #[test]
    fn linear_index_rejects_arity_and_sign_mismatches(seed in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let ndims = rng.below(4) + 1;
        let dims: Vec<usize> = (0..ndims).map(|_| rng.below(100) + 1).collect();
        let buf = buffer_with_dims(dims.clone());
        let short: Vec<i64> = vec![0; ndims - 1];
        prop_assert_eq!(buf.linear_index(&short), None);
        let long: Vec<i64> = vec![0; ndims + 1];
        prop_assert_eq!(buf.linear_index(&long), None);
        let negative: Vec<i64> = (0..ndims).map(|_| -rng.range(1, 10)).collect();
        prop_assert_eq!(buf.linear_index(&negative), None);
    }
}
