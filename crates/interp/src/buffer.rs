//! Concrete buffers, views, and argument values.

use exo_ir::{DataType, Mem};
use std::cell::RefCell;
use std::rc::Rc;

/// `value`, with any NaN replaced by [`f64::NAN`]. Rust leaves the sign and
/// payload of an arithmetic NaN unspecified, so two evaluation paths the
/// optimiser folds differently (a strip and the walker) may make different
/// NaNs of one computation. Every interpreter write stores through this,
/// so their buffers agree bit for bit.
#[inline]
pub(crate) fn canonical_nan(value: f64) -> f64 {
    if value.is_nan() {
        f64::NAN
    } else {
        value
    }
}

/// A concrete, dense, row-major buffer.
///
/// All element types are stored as `f64`; integer types hold exact values
/// (well within `f64`'s 53-bit integer range for the workloads in the
/// paper), which keeps the interpreter simple while preserving
/// equivalence-checking fidelity.
#[derive(Clone, Debug, PartialEq)]
pub struct BufferData {
    /// Element storage, row-major.
    pub data: Vec<f64>,
    /// Dimension sizes.
    pub dims: Vec<usize>,
    /// Declared element type.
    pub elem: DataType,
    /// Memory space the buffer lives in.
    pub mem: Mem,
    /// Base byte address assigned by the interpreter's bump allocator
    /// (used by the cache model in `exo-machine`).
    pub base_addr: u64,
}

impl BufferData {
    /// Creates a zero-initialized buffer.
    pub fn zeros(dims: Vec<usize>, elem: DataType, mem: Mem) -> Self {
        let n: usize = dims.iter().product::<usize>().max(1);
        BufferData {
            data: vec![0.0; n],
            dims,
            elem,
            mem,
            base_addr: 0,
        }
    }

    /// Creates a buffer from existing data (dims must multiply to
    /// `data.len()`, or be empty for a scalar buffer of length 1).
    pub fn from_vec(data: Vec<f64>, dims: Vec<usize>, elem: DataType, mem: Mem) -> Self {
        let expect: usize = dims.iter().product::<usize>().max(1);
        assert_eq!(data.len(), expect, "data length must match dims");
        BufferData {
            data,
            dims,
            elem,
            mem,
            base_addr: 0,
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major linear index of a multi-dimensional index.
    ///
    /// All arithmetic is checked: adversarial dimension vectors whose
    /// products overflow `usize` yield `None` (reported as out-of-bounds
    /// by the interpreter) instead of silently wrapping into a valid but
    /// wrong element.
    pub fn linear_index(&self, idx: &[i64]) -> Option<usize> {
        if self.dims.is_empty() {
            return if idx.is_empty() || idx.iter().all(|&i| i == 0) {
                Some(0)
            } else {
                None
            };
        }
        if idx.len() != self.dims.len() {
            return None;
        }
        let mut lin = 0usize;
        for (&ix, &d) in idx.iter().zip(self.dims.iter()) {
            if ix < 0 || ix as u64 >= d as u64 {
                return None;
            }
            lin = lin.checked_mul(d)?.checked_add(ix as usize)?;
        }
        Some(lin)
    }

    /// Size of one element in bytes.
    pub fn elem_bytes(&self) -> u64 {
        self.elem.size_bytes()
    }
}

/// Shared, mutable reference to a buffer.
pub type BufRef = Rc<RefCell<BufferData>>;

/// A (possibly windowed) view of a buffer.
///
/// A view exposes `kept.len()` dimensions of the underlying buffer; each
/// exposed dimension `k` maps view index `j` to underlying index
/// `offsets[kept[k]] + j`, and dropped (point) dimensions are pinned at
/// `offsets[d]`.
#[derive(Clone, Debug)]
pub struct View {
    /// The underlying buffer.
    pub buf: BufRef,
    /// Per-underlying-dimension base offsets.
    pub offsets: Vec<i64>,
    /// Which underlying dimensions the view exposes, in order.
    pub kept: Vec<usize>,
}

impl View {
    /// A full view of a buffer (no offsets, all dimensions kept).
    pub fn full(buf: BufRef) -> Self {
        let ndims = buf.borrow().dims.len();
        View {
            buf,
            offsets: vec![0; ndims],
            kept: (0..ndims).collect(),
        }
    }

    /// Translates a view index into an underlying buffer index.
    ///
    /// Additions saturate: an index extreme enough to overflow `i64`
    /// cannot wrap around into bounds, so it is reported out-of-bounds by
    /// [`BufferData::linear_index`] like any other bad index.
    pub fn translate(&self, idx: &[i64]) -> Vec<i64> {
        let mut out = self.offsets.clone();
        for (k, &dim) in self.kept.iter().enumerate() {
            if let Some(&i) = idx.get(k) {
                out[dim] = out[dim].saturating_add(i);
            }
        }
        out
    }

    /// Precomputes a dense access plan for this view: the linear base
    /// offset plus one `(offset, extent, stride)` triple per exposed
    /// dimension, written into `dims`' storage (callers on the call path
    /// hand back the vector of a released binding). Returns `None` when
    /// the plan cannot be proven safe up front (stride products
    /// overflowing `usize`, or a dropped dimension pinned out of bounds) —
    /// callers then fall back to the checked [`View::read`]/[`View::write`]
    /// path, which reports the identical error the tree interpreter would
    /// have.
    pub(crate) fn plan_into(&self, mut dims: Vec<PlanDim>) -> Option<AccessPlan> {
        let buf = self.buf.borrow();
        dims.clear();
        let mut base = 0usize;
        // Innermost dimension first, so the running product is the
        // row-major stride. Its final value is the total element count:
        // requiring it to fit in `usize` proves every in-bounds linear
        // offset is overflow-free.
        let mut stride = 1usize;
        let mut kept = self.kept.iter().rev().peekable();
        for (d, &extent) in buf.dims.iter().enumerate().rev() {
            let off = self.offsets[d];
            if kept.peek() == Some(&&d) {
                kept.next();
                dims.push(PlanDim {
                    off,
                    extent,
                    stride,
                });
            } else {
                // Dropped dimension: pinned at its offset for every access.
                if off < 0 || off as u64 >= extent as u64 {
                    return None;
                }
                base = base.checked_add((off as usize).checked_mul(stride)?)?;
            }
            stride = stride.checked_mul(extent)?;
        }
        dims.reverse();
        Some(AccessPlan { base, dims })
    }

    /// Narrows this view by a further window: `spec` gives, per exposed
    /// dimension, either a point (drop the dimension) or an interval start
    /// (keep the dimension with an extra offset).
    pub fn narrow(&self, spec: &[WindowDim]) -> View {
        self.narrow_into(spec.iter().copied(), Vec::new(), Vec::new())
    }

    /// [`View::narrow`] into the storage of two vectors the caller already
    /// owns (their contents are discarded).
    pub(crate) fn narrow_into(
        &self,
        spec: impl ExactSizeIterator<Item = WindowDim>,
        mut offsets: Vec<i64>,
        mut kept: Vec<usize>,
    ) -> View {
        offsets.clear();
        offsets.extend_from_slice(&self.offsets);
        kept.clear();
        let narrowed = spec.len();
        for (k, w) in spec.enumerate() {
            let dim = self.kept[k];
            // Saturating, like `translate`: an offset extreme enough to
            // overflow cannot wrap back into bounds, so it surfaces as an
            // ordinary out-of-bounds access instead of a wrong element.
            match w {
                WindowDim::Point(p) => offsets[dim] = offsets[dim].saturating_add(p),
                WindowDim::Interval(lo) => {
                    offsets[dim] = offsets[dim].saturating_add(lo);
                    kept.push(dim);
                }
            }
        }
        // Dimensions beyond the spec stay kept unchanged.
        kept.extend(self.kept.iter().skip(narrowed));
        View {
            buf: self.buf.clone(),
            offsets,
            kept,
        }
    }

    /// Reads one element through the view.
    pub fn read(&self, idx: &[i64]) -> Option<f64> {
        let under = self.translate(idx);
        let buf = self.buf.borrow();
        let lin = buf.linear_index(&under)?;
        buf.data.get(lin).copied()
    }

    /// Writes one element through the view, any NaN as [`f64::NAN`]
    /// (see [`canonical_nan`]).
    pub fn write(&self, idx: &[i64], value: f64) -> Option<()> {
        let under = self.translate(idx);
        let mut buf = self.buf.borrow_mut();
        let lin = buf.linear_index(&under)?;
        *buf.data.get_mut(lin)? = canonical_nan(value);
        Some(())
    }

    /// The byte address of an element (for the cache model).
    pub fn byte_addr(&self, idx: &[i64]) -> Option<u64> {
        let under = self.translate(idx);
        let buf = self.buf.borrow();
        let lin = buf.linear_index(&under)?;
        Some(buf.base_addr + lin as u64 * buf.elem_bytes())
    }

    /// The element stride of the view's `dim`-th dimension: that of the
    /// underlying dimension it exposes. 1 past the view's rank, like the
    /// emitted C.
    pub(crate) fn stride(&self, dim: usize) -> i64 {
        let Some(&under) = self.kept.get(dim) else {
            return 1;
        };
        let stride: usize = self.buf.borrow().dims.iter().skip(under + 1).product();
        stride.max(1) as i64
    }

    /// The memory space of the underlying buffer.
    pub fn mem(&self) -> Mem {
        self.buf.borrow().mem.clone()
    }

    /// The element type of the underlying buffer.
    pub fn elem(&self) -> DataType {
        self.buf.borrow().elem
    }
}

/// A precomputed dense access plan for a [`View`]: resolves a view index
/// to a linear element offset with one multiply-add per dimension and no
/// allocation (see [`View::plan`]).
#[derive(Clone, Debug)]
pub(crate) struct AccessPlan {
    /// Linear offset contributed by dropped (point) dimensions.
    base: usize,
    /// Per exposed dimension: window offset, underlying extent, stride.
    dims: Vec<PlanDim>,
}

#[derive(Clone, Debug)]
pub(crate) struct PlanDim {
    off: i64,
    extent: usize,
    stride: usize,
}

impl AccessPlan {
    /// Gives the plan's vector back for the next [`View::plan_into`].
    pub(crate) fn into_dims(self) -> Vec<PlanDim> {
        self.dims
    }

    /// Linear element offset of `idx`, or `None` when the access is out of
    /// bounds or has the wrong arity (callers fall back to the slow,
    /// fully-checked path to produce the canonical error or to reproduce
    /// the tree interpreter's lenient arity handling).
    #[inline]
    pub(crate) fn lin(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() != self.dims.len() {
            return None;
        }
        let mut lin = self.base;
        for (d, &i) in self.dims.iter().zip(idx) {
            let v = i.checked_add(d.off)?;
            if v < 0 || v as u64 >= d.extent as u64 {
                return None;
            }
            // In range: `base + Σ (extent-1)·stride < len`, proven at plan
            // construction, so unchecked addition cannot overflow.
            lin += v as usize * d.stride;
        }
        Some(lin)
    }
}

/// One narrowing specification per exposed dimension (see [`View::narrow`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WindowDim {
    /// Pin the dimension at an offset (the dimension is dropped).
    Point(i64),
    /// Keep the dimension, shifted by an offset.
    Interval(i64),
}

/// A concrete argument passed to [`crate::Interpreter::run`].
#[derive(Clone, Debug)]
pub enum ArgValue {
    /// A `size` or integer scalar argument.
    Int(i64),
    /// A floating-point scalar argument.
    Float(f64),
    /// A boolean scalar argument.
    Bool(bool),
    /// A tensor argument.
    Buffer(BufRef),
    /// A windowed tensor argument.
    View(View),
}

impl ArgValue {
    /// Convenience: wraps fresh zero-filled buffer data.
    pub fn zeros(dims: Vec<usize>, elem: DataType) -> (BufRef, ArgValue) {
        let buf = Rc::new(RefCell::new(BufferData::zeros(dims, elem, Mem::Dram)));
        (buf.clone(), ArgValue::Buffer(buf))
    }

    /// Convenience: wraps existing data in a DRAM buffer.
    pub fn from_vec(data: Vec<f64>, dims: Vec<usize>, elem: DataType) -> (BufRef, ArgValue) {
        let buf = Rc::new(RefCell::new(BufferData::from_vec(
            data,
            dims,
            elem,
            Mem::Dram,
        )));
        (buf.clone(), ArgValue::Buffer(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_indexing_is_row_major() {
        let b = BufferData::zeros(vec![3, 4], DataType::F32, Mem::Dram);
        assert_eq!(b.linear_index(&[0, 0]), Some(0));
        assert_eq!(b.linear_index(&[1, 0]), Some(4));
        assert_eq!(b.linear_index(&[2, 3]), Some(11));
        assert_eq!(b.linear_index(&[3, 0]), None);
        assert_eq!(b.linear_index(&[0, -1]), None);
        assert_eq!(b.linear_index(&[0]), None);
    }

    #[test]
    fn scalar_buffers_have_one_element() {
        let b = BufferData::zeros(vec![], DataType::F32, Mem::Dram);
        assert_eq!(b.len(), 1);
        assert_eq!(b.linear_index(&[]), Some(0));
    }

    #[test]
    fn views_translate_and_narrow() {
        let buf = Rc::new(RefCell::new(BufferData::from_vec(
            (0..12).map(|v| v as f64).collect(),
            vec![3, 4],
            DataType::F32,
            Mem::Dram,
        )));
        let full = View::full(buf.clone());
        assert_eq!(full.read(&[1, 2]), Some(6.0));
        // Narrow to row 1, columns 1..4 -> a 1-D view of length 3.
        let row = full.narrow(&[WindowDim::Point(1), WindowDim::Interval(1)]);
        assert_eq!(row.kept.len(), 1);
        assert_eq!(row.read(&[0]), Some(5.0));
        assert_eq!(row.read(&[2]), Some(7.0));
        row.write(&[0], 99.0).unwrap();
        assert_eq!(buf.borrow().data[5], 99.0);
    }

    #[test]
    fn nested_narrowing_accumulates_offsets() {
        let buf = Rc::new(RefCell::new(BufferData::zeros(
            vec![8, 8],
            DataType::F32,
            Mem::Dram,
        )));
        let v1 = View::full(buf.clone()).narrow(&[WindowDim::Interval(2), WindowDim::Interval(2)]);
        let v2 = v1.narrow(&[WindowDim::Interval(1), WindowDim::Point(3)]);
        // v2 index [0] maps to underlying [3, 5].
        v2.write(&[0], 7.0).unwrap();
        assert_eq!(buf.borrow().data[3 * 8 + 5], 7.0);
    }

    #[test]
    fn plans_agree_with_the_checked_translation() {
        let buf = Rc::new(RefCell::new(BufferData::zeros(
            vec![3, 4, 5],
            DataType::F32,
            Mem::Dram,
        )));
        let full = View::full(buf.clone());
        let views = [
            full.clone(),
            full.narrow(&[WindowDim::Interval(1), WindowDim::Point(2)]),
            full.narrow(&[WindowDim::Point(2), WindowDim::Interval(1)])
                .narrow(&[WindowDim::Interval(1), WindowDim::Point(4)]),
            full.narrow(&[
                WindowDim::Point(0),
                WindowDim::Point(3),
                WindowDim::Point(4),
            ]),
            // A pinned dimension out of bounds: no plan, checked path only.
            full.narrow(&[WindowDim::Point(3)]),
        ];
        for view in &views {
            // The recycled vector's old contents must not leak into the plan.
            let stale = vec![
                PlanDim {
                    off: 9,
                    extent: 9,
                    stride: 9
                };
                4
            ];
            let Some(plan) = view.plan_into(stale) else {
                assert!(view.read(&vec![0; view.kept.len()]).is_none());
                continue;
            };
            let rank = view.kept.len();
            let mut idx = vec![-1i64; rank];
            loop {
                let checked = buf.borrow().linear_index(&view.translate(&idx));
                assert_eq!(plan.lin(&idx), checked, "{idx:?} through {view:?}");
                let Some(k) = idx.iter().position(|&i| i < 5) else {
                    break;
                };
                idx[k] += 1;
                idx[..k].fill(-1);
            }
        }
    }

    #[test]
    fn byte_addresses_respect_element_size() {
        let mut data = BufferData::zeros(vec![4], DataType::F64, Mem::Dram);
        data.base_addr = 1000;
        let buf = Rc::new(RefCell::new(data));
        let v = View::full(buf);
        assert_eq!(v.byte_addr(&[0]), Some(1000));
        assert_eq!(v.byte_addr(&[3]), Some(1024));
    }
}
