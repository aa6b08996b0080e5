//! `CostMonitor::on_strip` charges a strip per cache line; these tests
//! hold it equal to the same strip charged element by element, by a twin
//! monitor that keeps `Monitor::on_strip`'s default replay: the same
//! `SimReport`, the same L1 and L2 statistics and the same cache state,
//! every way's line and stamp, after the strip and after whatever
//! accesses follow it.

use exo_interp::{BufferData, Monitor, StripCursor, StripStep, StripTrace};
use exo_ir::rng::Rng;
use exo_ir::{BinOp, DataType, Mem};
use exo_machine::{CacheConfig, CostModel, CostMonitor};
use proptest::prelude::*;
use std::cell::RefCell;

/// A cost monitor that sees every strip element by element.
struct PerElement(CostMonitor);

impl Monitor for PerElement {
    fn on_scalar_op(&mut self, op: BinOp, dt: DataType) {
        self.0.on_scalar_op(op, dt);
    }

    fn on_read(&mut self, mem: &Mem, addr: u64, bytes: u64) {
        self.0.on_read(mem, addr, bytes);
    }

    fn on_write(&mut self, mem: &Mem, addr: u64, bytes: u64) {
        self.0.on_write(mem, addr, bytes);
    }

    fn on_loop_iter(&mut self, parallel: bool) {
        self.0.on_loop_iter(parallel);
    }

    fn on_stmt(&mut self) {
        self.0.on_stmt();
    }
}

/// One access of a strip: where its buffer lives, its element type, and
/// its element offset at the first trip and per trip.
#[derive(Clone, Debug)]
struct Access {
    mem: Mem,
    elem: DataType,
    base: u64,
    off: usize,
    step: isize,
}

#[derive(Clone, Debug)]
struct Strip {
    accesses: Vec<Access>,
    program: Vec<StripStep>,
    trips: u64,
    parallel: bool,
}

/// The state both monitors must agree on, as text for the failure.
fn state(m: &CostMonitor) -> String {
    format!("{:?}", m.caches())
}

/// Charges `warm`, then each strip followed by its tail of addresses, to
/// a cost monitor and to its per-element twin; the first difference is
/// the error.
fn agree(model: &CostModel, warm: &[u64], strips: &[(Strip, Vec<u64>)]) -> Result<(), String> {
    let mut by_line = CostMonitor::new(model.clone());
    let mut by_element = PerElement(CostMonitor::new(model.clone()));
    let read = |by_line: &mut CostMonitor, by_element: &mut PerElement, addr: u64| {
        by_line.on_read(&Mem::Dram, addr, 4);
        by_element.on_read(&Mem::Dram, addr, 4);
    };
    for &addr in warm {
        read(&mut by_line, &mut by_element, addr);
    }
    for (k, (strip, tail)) in strips.iter().enumerate() {
        let bufs: Vec<RefCell<BufferData>> = strip
            .accesses
            .iter()
            .map(|a| {
                let mut b = BufferData::zeros(vec![1], a.elem, a.mem.clone());
                b.base_addr = a.base;
                RefCell::new(b)
            })
            .collect();
        let cursors: Vec<StripCursor<'_>> = bufs
            .iter()
            .zip(&strip.accesses)
            .map(|(b, a)| StripCursor::new(b, a.off, a.step))
            .collect();
        let trace = StripTrace::new(&strip.program, &cursors, strip.trips, strip.parallel);
        by_line.on_strip(&trace);
        by_element.on_strip(&trace);
        if by_line.caches() != by_element.0.caches() {
            return Err(format!(
                "after strip {k} {strip:?}:\n by line    {}\n by element {}",
                state(&by_line),
                state(&by_element.0)
            ));
        }
        for &addr in tail {
            read(&mut by_line, &mut by_element, addr);
        }
        if by_line.caches() != by_element.0.caches() {
            return Err(format!("after the tail of strip {k} {strip:?}"));
        }
    }
    let (a, b) = (by_line.finish(), by_element.0.finish());
    if a != b {
        return Err(format!(
            "reports differ:\n by line    {a:?}\n by element {b:?}"
        ));
    }
    Ok(())
}

fn model(l1: CacheConfig, l2: CacheConfig) -> CostModel {
    CostModel {
        l1,
        l2,
        ..CostModel::default()
    }
}

fn config(sets: u64, ways: usize, line: u64, hit_latency: u64) -> CacheConfig {
    CacheConfig {
        capacity: sets * ways as u64 * line,
        line,
        ways,
        hit_latency,
    }
}

/// A random strip over addresses below `span`: 1–10 DRAM accesses per
/// trip (the reduction's read and write of a DRAM destination count
/// two), up to two register reads, operations among them; element
/// steps of zero, under a line, one line and over a line, either way.
fn random_strip(rng: &mut Rng, line: u64, span: u64) -> Strip {
    let trips = rng.range(1, 64) as u64;
    let reduce = rng.chance(50);
    let dest_dram = rng.chance(85);
    let dest_positions = i64::from(dest_dram) * (1 + i64::from(reduce));
    let dram_reads = rng.range((1 - dest_positions).max(0), 10 - dest_positions) as usize;
    let register_reads = rng.below(3);
    let mut mems: Vec<Mem> = (0..dram_reads)
        .map(|_| Mem::Dram)
        .chain((0..register_reads).map(|_| Mem::VecAvx2))
        .collect();
    // The reads come in any order; the destination is last.
    for i in (1..mems.len()).rev() {
        mems.swap(i, rng.below(i + 1));
    }
    mems.push(if dest_dram { Mem::Dram } else { Mem::VecAvx2 });
    let mut accesses: Vec<Access> = Vec::with_capacity(mems.len());
    for mem in mems {
        let elem = if rng.chance(50) {
            DataType::F32
        } else {
            DataType::F64
        };
        let bytes = elem.size_bytes() as i64;
        let per_line = (line as i64 / bytes).max(1);
        let step = match rng.below(6) {
            0 => 0,
            1 => rng.range(1, per_line - 1),
            2 => per_line,
            3 => per_line + rng.range(1, 2 * per_line),
            _ => rng.range(-40, 40),
        };
        let step = if rng.chance(30) { -step } else { step };
        // Far enough in that a falling offset stays in the buffer.
        let off = step.unsigned_abs() * (trips - 1) + rng.below(16) as u64;
        let base = match accesses.last() {
            // Sometimes the buffer of the access before.
            Some(prev) if rng.chance(30) => prev.base,
            _ => rng.below((span / bytes as u64) as usize) as u64 * bytes as u64,
        };
        accesses.push(Access {
            mem,
            elem,
            base,
            off: off as usize,
            step: step as isize,
        });
    }
    // A right-hand side over the reads, with literals, a scalar and
    // negations among them, which a monitor must pass over.
    let dest = accesses.len() - 1;
    let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];
    let op = |rng: &mut Rng| StripStep::Op(*rng.pick(&ops).unwrap_or(&BinOp::Mul));
    let mut program = vec![StripStep::Float(1.5)];
    for k in 0..dest {
        program.extend([StripStep::Read(k), op(rng)]);
        if rng.chance(25) {
            program.extend([StripStep::Scalar(0), op(rng)]);
        }
        if rng.chance(15) {
            program.push(StripStep::Neg);
        }
    }
    if reduce {
        program.extend([StripStep::Read(dest), StripStep::Op(BinOp::Add)]);
    }
    program.push(StripStep::Write(dest));
    Strip {
        accesses,
        program,
        trips,
        parallel: rng.chance(20),
    }
}

fn addresses(rng: &mut Rng, n: usize, span: u64) -> Vec<u64> {
    (0..n).map(|_| rng.below(span as usize) as u64).collect()
}

/// A random case on `model`: a warmed cache, then one to three strips,
/// each followed by a tail of addresses, all below `span`.
fn random_case(seed: u64, model: &CostModel, span: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    let warm_len = rng.below(64);
    let warm = addresses(&mut rng, warm_len, span);
    let n = 1 + rng.below(3);
    let strips: Vec<(Strip, Vec<u64>)> = (0..n)
        .map(|_| {
            let strip = random_strip(&mut rng, model.l1.line, span);
            let tail_len = rng.below(24);
            (strip, addresses(&mut rng, tail_len, span))
        })
        .collect();
    agree(model, &warm, &strips)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Small caches, so that strips conflict, evict and thrash: L1 ways
    /// below, at and above a trip's DRAM accesses; 48- and 64-byte lines.
    #[test]
    fn charging_a_strip_by_line_matches_charging_it_by_element(
        seed in 1u64..u64::MAX,
        l1_sets in 1u64..5,
        l1_ways in 1usize..13,
        l2_sets in 1u64..9,
        l2_ways in 1usize..17,
        lines in 0usize..4,
    ) {
        let (l1_line, l2_line) = [(48, 48), (64, 64), (48, 64), (64, 48)][lines];
        let model = model(
            config(l1_sets, l1_ways, l1_line, 4),
            config(l2_sets, l2_ways, l2_line, 14),
        );
        let span = 3 * model.l1.capacity;
        if let Err(why) = random_case(seed, &model, span) {
            prop_assert!(false, "{} under {:?} / {:?}", why, model.l1, model.l2);
        }
    }

    #[test]
    fn charging_a_strip_by_line_matches_charging_it_by_element_on_the_default_caches(
        seed in 1u64..u64::MAX,
    ) {
        let model = CostModel::default();
        let span = 2 * model.l1.capacity;
        if let Err(why) = random_case(seed, &model, span) {
            prop_assert!(false, "{}", why);
        }
    }
}

fn dram(base: u64, off: usize, step: isize) -> Access {
    Access {
        mem: Mem::Dram,
        elem: DataType::F32,
        base,
        off,
        step,
    }
}

/// Three reads a trip of three lines of one two-way set: each trip
/// evicts the line the next access wants, so every access misses, though
/// each touches the line it touched a trip earlier.
#[test]
fn a_trip_with_more_dram_accesses_than_ways_is_looked_up_in_full() {
    let model = model(config(1, 2, 64, 4), config(1, 16, 64, 14));
    let strip = Strip {
        accesses: vec![dram(0, 0, 0), dram(64, 0, 0), dram(128, 0, 0)],
        program: vec![
            StripStep::Read(0),
            StripStep::Read(1),
            StripStep::Op(BinOp::Add),
            StripStep::Write(2),
        ],
        trips: 8,
        parallel: false,
    };
    agree(&model, &[], &[(strip, vec![0, 64, 128])]).unwrap_or_else(|why| panic!("{why}"));
}

/// One access stays on a line while the other walks a line per trip
/// through a three-way set: only renewing the stationary line's stamp on
/// each hit keeps it resident while the walker evicts the older lines.
#[test]
fn a_stationary_hit_renews_its_line() {
    let model = model(config(1, 3, 64, 4), config(1, 16, 64, 14));
    let strip = Strip {
        accesses: vec![dram(0, 0, 0), dram(4096, 0, 16)],
        program: vec![StripStep::Read(0), StripStep::Write(1)],
        trips: 12,
        parallel: false,
    };
    agree(&model, &[4096 + 64 * 40], &[(strip, vec![0, 4096])])
        .unwrap_or_else(|why| panic!("{why}"));
}
