//! The cycle-cost monitor and simulation entry point.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::isa::instruction_cost_class;
use exo_interp::{ArgValue, Interpreter, Monitor, ProcRegistry, StripStep, StripTrace};
use exo_ir::{BinOp, DataType, Mem, Proc};

/// Per-event cycle costs of the modelled core.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Cost of one scalar floating-point operation.
    pub scalar_op: u64,
    /// Cost of loop-control overhead per iteration.
    pub loop_overhead: u64,
    /// Cost of evaluating a branch.
    pub branch: u64,
    /// Main-memory latency on an L2 miss.
    pub mem_latency: u64,
    /// Cost of accessing a vector register or accelerator scratchpad
    /// element from inside a non-instruction statement (register traffic).
    pub register_access: u64,
    /// Cost of a configuration-register write outside an instruction call.
    pub config_write: u64,
    /// L1 configuration.
    pub l1: CacheConfig,
    /// L2 configuration.
    pub l2: CacheConfig,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            scalar_op: 3,
            loop_overhead: 2,
            branch: 1,
            mem_latency: 80,
            register_access: 1,
            config_write: 40,
            l1: CacheConfig::l1(),
            l2: CacheConfig::l2(),
        }
    }
}

/// The simulation report: total cycles plus the event breakdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycles attributable to scalar compute.
    pub scalar_cycles: u64,
    /// Cycles attributable to vector / accelerator instructions.
    pub instr_cycles: u64,
    /// Cycles attributable to the memory hierarchy.
    pub memory_cycles: u64,
    /// Cycles attributable to loop and branch overhead.
    pub control_cycles: u64,
    /// Number of instruction calls executed.
    pub instr_count: u64,
    /// L1 statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
}

/// An [`exo_interp::Monitor`] that charges cycles.
pub struct CostMonitor {
    model: CostModel,
    l1: Cache,
    l2: Cache,
    report: SimReport,
}

impl CostMonitor {
    /// Creates a monitor with the given cost model.
    pub fn new(model: CostModel) -> Self {
        let l1 = Cache::new(model.l1.clone());
        let l2 = Cache::new(model.l2.clone());
        CostMonitor {
            model,
            l1,
            l2,
            report: SimReport::default(),
        }
    }

    /// Finalizes and returns the report.
    pub fn finish(mut self) -> SimReport {
        self.report.l1 = self.l1.stats().clone();
        self.report.l2 = self.l2.stats().clone();
        self.report
    }

    /// The L1 and L2 caches as they stand.
    pub fn caches(&self) -> (&Cache, &Cache) {
        (&self.l1, &self.l2)
    }

    #[inline]
    fn charge_memory(&mut self, mem: &Mem, addr: u64) {
        let cost = if mem.is_dram() {
            self.dram_access(addr).0
        } else {
            // Vector registers / accelerator memories.
            self.model.register_access
        };
        self.report.memory_cycles += cost;
        self.report.cycles += cost;
    }

    /// The control cost of one loop iteration. Parallel loops amortize
    /// their control overhead across cores; the model charges half the
    /// scalar overhead.
    #[inline]
    fn loop_cost(&self, parallel: bool) -> u64 {
        if parallel {
            self.model.loop_overhead / 2
        } else {
            self.model.loop_overhead
        }
    }

    /// Looks a strip position up in full, remembering where its line is;
    /// returns the latency.
    #[inline]
    fn look_up(&mut self, p: &mut Position) -> u64 {
        let (cost, slot) = self.dram_access(p.addr);
        (p.line, p.slot) = (self.l1.line_start(p.addr), slot);
        cost
    }

    /// Looks `addr` up in L1, then L2; returns its latency and the L1
    /// slot that now holds its line.
    #[inline]
    fn dram_access(&mut self, addr: u64) -> (u64, usize) {
        let (hit, slot) = self.l1.lookup(addr);
        let cost = if hit {
            self.l1.hit_latency()
        } else if self.l2.access(addr) {
            self.l2.hit_latency()
        } else {
            self.model.mem_latency
        };
        (cost, slot)
    }
}

/// Most DRAM accesses per trip that [`CostMonitor::on_strip`] charges by
/// line. The interpreter's strips make at most nine; a longer trip, which
/// only a hand-built trace has, is charged element by element.
const STRIP_POSITIONS: usize = 16;

/// One DRAM access of a strip's trip as [`CostMonitor::on_strip`] walks
/// it: its address at the current trip, how far that moves per trip, and
/// the start of the line it last touched with the L1 slot holding it.
#[derive(Clone, Copy, Default)]
struct Position {
    addr: u64,
    stride: u64,
    line: u64,
    slot: usize,
}

impl Monitor for CostMonitor {
    #[inline]
    fn enter_call(&mut self, proc: &Proc) -> bool {
        match proc.instr() {
            Some(info) => {
                let cost = instruction_cost_class(&info.cost_class);
                self.report.instr_cycles += cost;
                self.report.cycles += cost;
                self.report.instr_count += 1;
                // Suppress fine-grained events inside the instruction body:
                // the instruction is charged as a unit.
                true
            }
            None => {
                // An ordinary procedure call: small call overhead, events
                // inside are charged normally.
                self.report.control_cycles += 2;
                self.report.cycles += 2;
                false
            }
        }
    }

    #[inline]
    fn on_scalar_op(&mut self, _op: BinOp, _dt: DataType) {
        self.report.scalar_cycles += self.model.scalar_op;
        self.report.cycles += self.model.scalar_op;
    }

    #[inline]
    fn on_read(&mut self, mem: &Mem, addr: u64, _bytes: u64) {
        self.charge_memory(mem, addr);
    }

    #[inline]
    fn on_write(&mut self, mem: &Mem, addr: u64, _bytes: u64) {
        self.charge_memory(mem, addr);
    }

    #[inline]
    fn on_loop_iter(&mut self, parallel: bool) {
        let cost = self.loop_cost(parallel);
        self.report.control_cycles += cost;
        self.report.cycles += cost;
    }

    #[inline]
    fn on_branch(&mut self) {
        self.report.control_cycles += self.model.branch;
        self.report.cycles += self.model.branch;
    }

    #[inline]
    fn on_config_write(&mut self, _config: &str, _field: &str) {
        self.report.instr_cycles += self.model.config_write;
        self.report.cycles += self.model.config_write;
    }

    /// Charges a strip as its per-element events would be, but per line:
    /// a trip's loop, operation and register costs once times `trips`,
    /// then its DRAM accesses in order. Access `j` of a trip that lands
    /// on the line it touched one trip earlier is an L1 hit when a trip
    /// makes no more DRAM accesses than L1 has ways (only the trip's
    /// other accesses came in between, and a set evicts a line only
    /// after as many newer ones as it has ways), and lines never move
    /// between ways: the hit only stores its stamp in the remembered
    /// slot. Every other access is looked up in full.
    fn on_strip(&mut self, strip: &StripTrace<'_>) {
        let trips = strip.trips();
        if trips == 0 {
            return;
        }
        let mut positions = [Position::default(); STRIP_POSITIONS];
        let (mut m, mut registers, mut ops) = (0, 0, 0);
        for step in strip.program() {
            let k = match *step {
                StripStep::Read(k) | StripStep::Write(k) => k,
                StripStep::Op(_) => {
                    ops += 1;
                    continue;
                }
                StripStep::Float(_) | StripStep::Scalar(_) | StripStep::Neg => continue,
            };
            let access = strip.access(k);
            if !access.mem().is_dram() {
                registers += 1;
            } else if m == STRIP_POSITIONS {
                drop(access);
                return strip.replay(self);
            } else {
                positions[m].addr = access.addr(0);
                positions[m].stride = access.stride() as u64;
                m += 1;
            }
        }
        let control = self.loop_cost(strip.parallel()) * trips;
        let scalar = ops * self.model.scalar_op * trips;
        let mut memory = registers * self.model.register_access * trips;
        let (line, l1_hit) = (self.l1.line(), self.l1.hit_latency());
        let stationary = m <= self.l1.ways();
        let positions = &mut positions[..m];
        for p in positions.iter_mut() {
            memory += self.look_up(p);
        }
        for _ in 1..trips {
            for p in positions.iter_mut() {
                p.addr = p.addr.wrapping_add(p.stride);
                if stationary && p.addr.wrapping_sub(p.line) < line {
                    self.l1.touch(p.slot);
                    memory += l1_hit;
                } else {
                    memory += self.look_up(p);
                }
            }
        }
        self.report.control_cycles += control;
        self.report.scalar_cycles += scalar;
        self.report.memory_cycles += memory;
        self.report.cycles += control + scalar + memory;
    }
}

/// Runs `proc` on the given arguments and returns the simulation report.
///
/// # Panics
/// Panics if interpretation fails (the benchmark harness treats a failing
/// kernel as a bug, not a measurable outcome).
#[allow(clippy::panic)]
pub fn simulate(proc: &Proc, registry: &ProcRegistry, args: Vec<ArgValue>) -> SimReport {
    let mut monitor = CostMonitor::new(CostModel::default());
    let mut interp = Interpreter::new(registry);
    interp
        .run(proc, args, &mut monitor)
        .unwrap_or_else(|e| panic!("simulation of `{}` failed: {e}", proc.name()));
    monitor.finish()
}

/// Runs `proc` and returns both the report and an error instead of
/// panicking (used by tests that exercise failure paths).
pub fn try_simulate(
    proc: &Proc,
    registry: &ProcRegistry,
    args: Vec<ArgValue>,
) -> Result<SimReport, exo_interp::InterpError> {
    let mut monitor = CostMonitor::new(CostModel::default());
    let mut interp = Interpreter::new(registry);
    interp.run(proc, args, &mut monitor)?;
    Ok(monitor.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{ib, read, var, Mem, ProcBuilder};

    fn saxpy(n: usize) -> (Proc, Vec<ArgValue>) {
        let p = ProcBuilder::new("saxpy")
            .size_arg("n")
            .scalar_arg("a", DataType::F32)
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.reduce("y", vec![var("i")], var("a") * read("x", vec![var("i")]));
            })
            .build();
        let (_, x) = ArgValue::from_vec(vec![1.0; n], vec![n], DataType::F32);
        let (_, y) = ArgValue::from_vec(vec![2.0; n], vec![n], DataType::F32);
        let args = vec![ArgValue::Int(n as i64), ArgValue::Float(3.0), x, y];
        (p, args)
    }

    #[test]
    fn scalar_kernel_costs_scale_with_problem_size() {
        let registry = ProcRegistry::new();
        let (p, args_small) = saxpy(64);
        let small = simulate(&p, &registry, args_small);
        let (_, args_large) = saxpy(512);
        let large = simulate(&p, &registry, args_large);
        assert!(
            large.cycles > small.cycles * 6,
            "{} vs {}",
            large.cycles,
            small.cycles
        );
        assert!(small.scalar_cycles > 0 && small.memory_cycles > 0 && small.control_cycles > 0);
    }

    #[test]
    fn instruction_calls_are_charged_as_units() {
        // A vectorized copy using the AVX2 load/store instructions should
        // cost far less than the equivalent scalar loop on register traffic.
        let instrs = crate::isa::avx2_instructions(DataType::F32);
        let registry: ProcRegistry = instrs.clone().into_iter().collect();
        let n = 256usize;
        let vectorized = ProcBuilder::new("copy_vec")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
            .with_body(|b| {
                b.alloc("v", DataType::F32, vec![ib(8)], Mem::VecAvx2);
                b.for_("io", ib(0), var("n") / ib(8), |b| {
                    b.call(
                        "mm256_loadu_ps",
                        vec![
                            exo_ir::Expr::Window {
                                buf: "v".into(),
                                idx: vec![exo_ir::WAccess::Interval(ib(0), ib(8))],
                            },
                            exo_ir::Expr::Window {
                                buf: "x".into(),
                                idx: vec![exo_ir::WAccess::Interval(
                                    ib(8) * var("io"),
                                    ib(8) * var("io") + ib(8),
                                )],
                            },
                        ],
                    );
                    b.call(
                        "mm256_storeu_ps",
                        vec![
                            exo_ir::Expr::Window {
                                buf: "y".into(),
                                idx: vec![exo_ir::WAccess::Interval(
                                    ib(8) * var("io"),
                                    ib(8) * var("io") + ib(8),
                                )],
                            },
                            exo_ir::Expr::Window {
                                buf: "v".into(),
                                idx: vec![exo_ir::WAccess::Interval(ib(0), ib(8))],
                            },
                        ],
                    );
                });
            })
            .build();
        let scalar = ProcBuilder::new("copy_scalar")
            .size_arg("n")
            .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
            .tensor_arg("y", DataType::F32, vec![var("n")], Mem::Dram)
            .for_("i", ib(0), var("n"), |b| {
                b.assign("y", vec![var("i")], read("x", vec![var("i")]));
            })
            .build();
        let mk_args = || {
            let (_, x) = ArgValue::from_vec(vec![1.0; n], vec![n], DataType::F32);
            let (yb, y) = ArgValue::zeros(vec![n], DataType::F32);
            (yb, vec![ArgValue::Int(n as i64), x, y])
        };
        let (yv, args_v) = mk_args();
        let rep_v = simulate(&vectorized, &registry, args_v);
        let (ys, args_s) = mk_args();
        let rep_s = simulate(&scalar, &registry, args_s);
        // Both compute the same result.
        assert_eq!(yv.borrow().data, ys.borrow().data);
        // The vectorized version is meaningfully cheaper.
        assert!(
            rep_v.cycles * 2 < rep_s.cycles,
            "{} vs {}",
            rep_v.cycles,
            rep_s.cycles
        );
        assert!(rep_v.instr_count > 0);
    }

    #[test]
    fn cache_model_rewards_locality() {
        // Walking a matrix row-major (contiguous) vs column-major (strided)
        // should differ in memory cycles.
        let n = 128usize;
        let build = |row_major: bool| {
            ProcBuilder::new(if row_major { "rm" } else { "cm" })
                .tensor_arg(
                    "A",
                    DataType::F32,
                    vec![ib(n as i64), ib(n as i64)],
                    Mem::Dram,
                )
                .tensor_arg("out", DataType::F32, vec![ib(1)], Mem::Dram)
                .for_("i", ib(0), ib(n as i64), |b| {
                    b.for_("j", ib(0), ib(n as i64), |b| {
                        let idx = if row_major {
                            vec![var("i"), var("j")]
                        } else {
                            vec![var("j"), var("i")]
                        };
                        b.reduce("out", vec![ib(0)], b.read("A", idx));
                    });
                })
                .build()
        };
        let registry = ProcRegistry::new();
        let mk_args = || {
            let (_, a) = ArgValue::from_vec(vec![1.0; n * n], vec![n, n], DataType::F32);
            let (_, o) = ArgValue::zeros(vec![1], DataType::F32);
            vec![a, o]
        };
        let rm = simulate(&build(true), &registry, mk_args());
        let cm = simulate(&build(false), &registry, mk_args());
        assert!(
            cm.memory_cycles > rm.memory_cycles,
            "{} vs {}",
            cm.memory_cycles,
            rm.memory_cycles
        );
    }

    #[test]
    fn try_simulate_reports_interpreter_errors() {
        let p = ProcBuilder::new("bad")
            .tensor_arg("x", DataType::F32, vec![ib(2)], Mem::Dram)
            .with_body(|b| {
                b.assign("x", vec![ib(5)], exo_ir::fb(1.0));
            })
            .build();
        let registry = ProcRegistry::new();
        let (_, x) = ArgValue::zeros(vec![2], DataType::F32);
        assert!(try_simulate(&p, &registry, vec![x]).is_err());
    }
}
