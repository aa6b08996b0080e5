//! Execution monitors: hooks the interpreter reports events to.

use crate::buffer::BufferData;
use exo_ir::{BinOp, DataType, Mem, Proc};
use std::cell::{Ref, RefCell};

/// Observes interpreter events. `exo-machine` implements a monitor that
/// turns these events into simulated cycles and cache traffic.
///
/// Every method has a default, empty but for [`Monitor::on_strip`]'s
/// element-by-element replay, so simple monitors only override what they
/// need.
pub trait Monitor {
    /// A call is about to be executed. Returning `true` asks the
    /// interpreter to *still execute the callee's body* but to suppress
    /// per-operation events inside it (used to charge instruction
    /// procedures as single hardware instructions).
    fn enter_call(&mut self, _proc: &Proc) -> bool {
        false
    }

    /// A call finished executing.
    fn exit_call(&mut self, _proc: &Proc) {}

    /// A scalar binary operation was evaluated on value (non-index) data.
    fn on_scalar_op(&mut self, _op: BinOp, _dt: DataType) {}

    /// An element was read from a buffer.
    fn on_read(&mut self, _mem: &Mem, _addr: u64, _bytes: u64) {}

    /// An element was written to a buffer.
    fn on_write(&mut self, _mem: &Mem, _addr: u64, _bytes: u64) {}

    /// A loop began one iteration.
    fn on_loop_iter(&mut self, _parallel: bool) {}

    /// A loop iteration was entered, with the loop's iterator name, a
    /// token unique to this *execution* of the loop statement (sibling
    /// loops may share an iterator name; iterations of one execution share
    /// the token), and the iteration's value. Emitted by the reference
    /// walker only (the lowered path erases loop identity); pairs with
    /// [`Monitor::on_loop_exit`]. Race detectors use the enclosing
    /// (instance, value) stack to attribute a conflicting access pair to
    /// the loop whose iterations conflict.
    fn on_loop_enter(&mut self, _iter: &str, _instance: u64, _value: i64, _parallel: bool) {}

    /// The loop iteration most recently opened by
    /// [`Monitor::on_loop_enter`] finished. Reference walker only.
    fn on_loop_exit(&mut self) {}

    /// The destination read-modify-write of a `Reduce` statement is about
    /// to execute: the read and write reported until
    /// [`Monitor::on_reduce_end`] target the reduction destination (the
    /// right-hand side has already been evaluated). Reference walker only.
    fn on_reduce_begin(&mut self) {}

    /// The `Reduce` destination read-modify-write finished.
    fn on_reduce_end(&mut self) {}

    /// An `if` condition was evaluated.
    fn on_branch(&mut self) {}

    /// A configuration register was written.
    fn on_config_write(&mut self, _config: &str, _field: &str) {}

    /// A statement was executed (any kind).
    fn on_stmt(&mut self) {}

    /// A loop ran as a strip (see [`crate::Strip`]): every trip's
    /// events at once, reported before the strip touches its data. The
    /// default replays them element by element, in the per-element
    /// loop's order ([`StripTrace::replay`]); a monitor that can charge
    /// a whole strip at once overrides it.
    fn on_strip(&mut self, strip: &StripTrace<'_>) {
        strip.replay(self);
    }
}

/// One step of a strip's trip, run on a stack of values: the right-hand
/// side in postfix order, a reduction's read and add of the
/// destination, then the write. `Read`, `Op` and `Write` are what the
/// per-element loop reports, in this order, after the trip's loop
/// iteration and statement; the other steps only move values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StripStep {
    /// Pushes the element of access `k`: a read.
    Read(usize),
    /// Pushes a float literal.
    Float(f64),
    /// Pushes scalar variable `k` of the strip.
    Scalar(usize),
    /// Negates the top value.
    Neg,
    /// Pops two values and pushes `lhs op rhs`, one of `+ - * /`: a
    /// scalar operation (reported on [`DataType::F64`]).
    Op(BinOp),
    /// Pops a value into the element of access `k`: a write.
    Write(usize),
}

/// One access of a strip: its buffer, its element offset at the first
/// trip, and how far that offset moves per trip.
#[derive(Clone, Copy, Debug)]
pub struct StripCursor<'a> {
    pub(crate) buf: &'a RefCell<BufferData>,
    pub(crate) off: usize,
    pub(crate) step: isize,
}

impl<'a> StripCursor<'a> {
    /// An access of `buf` at element `off` that moves `step` elements
    /// per trip.
    pub fn new(buf: &'a RefCell<BufferData>, off: usize, step: isize) -> Self {
        StripCursor { buf, off, step }
    }
}

/// A strip as a monitor sees it: `trips` repetitions of one program
/// over a few accesses. Addresses are formed only when asked for, so a
/// monitor that ignores strips pays nothing for one.
#[derive(Clone, Copy, Debug)]
pub struct StripTrace<'a> {
    program: &'a [StripStep],
    cursors: &'a [StripCursor<'a>],
    trips: u64,
    parallel: bool,
}

impl<'a> StripTrace<'a> {
    /// `trips` trips of `program` over `cursors`, the accesses its steps
    /// name, each at its first trip.
    pub fn new(
        program: &'a [StripStep],
        cursors: &'a [StripCursor<'a>],
        trips: u64,
        parallel: bool,
    ) -> Self {
        StripTrace {
            program,
            cursors,
            trips,
            parallel,
        }
    }

    /// Number of trips.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether the loop is parallel.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// The steps of one trip.
    pub fn program(&self) -> &'a [StripStep] {
        self.program
    }

    /// Access `k`, with its buffer borrowed for reading.
    ///
    /// # Panics
    /// Panics if there is no access `k`.
    pub fn access(&self, k: usize) -> TracedAccess<'a> {
        let c = self.cursors[k];
        TracedAccess {
            data: c.buf.borrow(),
            off: c.off,
            step: c.step,
        }
    }

    /// Reports every trip's events to `mon` one by one, exactly as the
    /// per-element loop does: the loop iteration, the statement, then
    /// the reads, operations and write of [`StripTrace::program`], each
    /// access at that trip's address.
    pub fn replay<M: Monitor + ?Sized>(&self, mon: &mut M) {
        for trip in 0..self.trips {
            mon.on_loop_iter(self.parallel);
            mon.on_stmt();
            for step in self.program {
                match *step {
                    StripStep::Read(k) => {
                        let a = self.access(k);
                        mon.on_read(a.mem(), a.addr(trip), a.bytes());
                    }
                    StripStep::Op(op) => mon.on_scalar_op(op, DataType::F64),
                    StripStep::Write(k) => {
                        let a = self.access(k);
                        mon.on_write(a.mem(), a.addr(trip), a.bytes());
                    }
                    StripStep::Float(_) | StripStep::Scalar(_) | StripStep::Neg => {}
                }
            }
        }
    }
}

/// One access of a [`StripTrace`], its buffer borrowed for reading.
#[derive(Debug)]
pub struct TracedAccess<'a> {
    data: Ref<'a, BufferData>,
    off: usize,
    step: isize,
}

impl TracedAccess<'_> {
    /// The memory space of the buffer.
    pub fn mem(&self) -> &Mem {
        &self.data.mem
    }

    /// Bytes per element.
    pub fn bytes(&self) -> u64 {
        self.data.elem_bytes()
    }

    /// The byte address the access touches at trip `trip`.
    pub fn addr(&self, trip: u64) -> u64 {
        let off = self
            .off
            .wrapping_add_signed(self.step.wrapping_mul(trip as isize));
        self.data.base_addr + off as u64 * self.data.elem_bytes()
    }

    /// How far the address moves per trip, in bytes.
    pub fn stride(&self) -> i64 {
        (self.step as i64).wrapping_mul(self.data.elem_bytes() as i64)
    }
}

/// A monitor that ignores every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullMonitor;

impl Monitor for NullMonitor {
    #[inline]
    fn on_strip(&mut self, _strip: &StripTrace<'_>) {}
}

/// A monitor that counts events; useful in tests and as a simple
/// instruction-mix profiler.
#[derive(Debug, Default, Clone)]
pub struct CountingMonitor {
    /// Number of scalar arithmetic operations.
    pub scalar_ops: u64,
    /// Number of element reads.
    pub reads: u64,
    /// Number of element writes.
    pub writes: u64,
    /// Number of loop iterations.
    pub loop_iters: u64,
    /// Number of branches evaluated.
    pub branches: u64,
    /// Number of calls (instruction or procedure).
    pub calls: u64,
    /// Number of configuration-register writes.
    pub config_writes: u64,
    /// Number of statements executed.
    pub stmts: u64,
}

impl Monitor for CountingMonitor {
    fn enter_call(&mut self, _proc: &Proc) -> bool {
        self.calls += 1;
        false
    }

    fn on_scalar_op(&mut self, _op: BinOp, _dt: DataType) {
        self.scalar_ops += 1;
    }

    fn on_read(&mut self, _mem: &Mem, _addr: u64, _bytes: u64) {
        self.reads += 1;
    }

    fn on_write(&mut self, _mem: &Mem, _addr: u64, _bytes: u64) {
        self.writes += 1;
    }

    fn on_loop_iter(&mut self, _parallel: bool) {
        self.loop_iters += 1;
    }

    fn on_branch(&mut self) {
        self.branches += 1;
    }

    fn on_config_write(&mut self, _config: &str, _field: &str) {
        self.config_writes += 1;
    }

    fn on_stmt(&mut self) {
        self.stmts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_monitor_accumulates() {
        let mut m = CountingMonitor::default();
        m.on_scalar_op(BinOp::Add, DataType::F32);
        m.on_scalar_op(BinOp::Mul, DataType::F32);
        m.on_read(&Mem::Dram, 0, 4);
        m.on_loop_iter(false);
        assert_eq!(m.scalar_ops, 2);
        assert_eq!(m.reads, 1);
        assert_eq!(m.loop_iters, 1);
    }
}
