//! Lane calls and `alloc` reuse against the general call path and the
//! reference walker.
//!
//! A call to a lane instruction (every vector instruction procedure) runs
//! its strip on the caller's buffers, resolved through the caller's window
//! arguments; a re-executed `alloc` may reuse the storage of the buffer it
//! made last time. Neither may be observable. The property draws random
//! call sites of the 44 instruction procedures (AVX2 and AVX-512, f32 and
//! f64) — windows at offsets up to the buffer's end and past it, points
//! before and after the interval, windows of a `WindowStmt` alias,
//! `reduce_add_scalar`'s 0-dim `out`, `set1`'s scalar read from a buffer,
//! vector registers allocated per iteration — and compares three runs:
//!
//! * `run` on the instruction procedures: lane calls;
//! * `run` on a twin of each with the precondition `0 == 0`, which is no
//!   lane instruction, so every call takes the general path;
//! * `run_reference`, the walker.
//!
//! Outputs bit for bit, the event log entry by entry and the error text
//! must agree across all three, and the instruction profile between the
//! two `run`s, under a monitor that suppresses instruction bodies and one
//! that does not.

use exo_interp::{ArgValue, BufRef, Interpreter, Monitor, ProcRegistry};
use exo_ir::rng::Rng;
use exo_ir::{
    fb, ib, read, var, ArgKind, BinOp, DataType, Expr, Mem, Proc, ProcBuilder, Stmt, WAccess,
};
use exo_machine::MachineModel;
use proptest::prelude::*;

/// Every event, in order; `enter_call` answers `suppress`.
struct Recorder {
    suppress: bool,
    log: Vec<String>,
}

impl Monitor for Recorder {
    fn enter_call(&mut self, proc: &Proc) -> bool {
        self.log.push(format!("enter {}", proc.name()));
        self.suppress
    }
    fn exit_call(&mut self, proc: &Proc) {
        self.log.push(format!("exit {}", proc.name()));
    }
    fn on_scalar_op(&mut self, op: BinOp, dt: DataType) {
        self.log.push(format!("op {op:?} {dt:?}"));
    }
    fn on_read(&mut self, mem: &Mem, addr: u64, bytes: u64) {
        self.log.push(format!("read {mem:?} {addr:#x} {bytes}"));
    }
    fn on_write(&mut self, mem: &Mem, addr: u64, bytes: u64) {
        self.log.push(format!("write {mem:?} {addr:#x} {bytes}"));
    }
    fn on_loop_iter(&mut self, parallel: bool) {
        self.log.push(format!("iter {parallel}"));
    }
    fn on_branch(&mut self) {
        self.log.push("branch".into());
    }
    fn on_stmt(&mut self) {
        self.log.push("stmt".into());
    }
}

/// The 44 instruction procedures: AVX2 and AVX-512, f32 and f64.
fn instructions() -> Vec<Proc> {
    let mut out = Vec::new();
    for machine in [MachineModel::avx2(), MachineModel::avx512()] {
        for ty in [DataType::F32, DataType::F64] {
            let set = machine.instructions(ty);
            assert_eq!(set.len(), 11, "{} {ty:?}", machine.name);
            out.extend(set);
        }
    }
    out
}

/// Each procedure with a precondition that always holds: not a lane
/// instruction, so a call to it binds a frame, views and plans.
fn general_twins(procs: &[Proc]) -> ProcRegistry {
    procs
        .iter()
        .map(|p| p.add_assertion(Expr::eq_(ib(0), ib(0))))
        .collect()
}

/// What a run left: the error text, every tensor argument's bits, the
/// event log and the instruction profile.
type Outcome = (
    Result<(), String>,
    Vec<Vec<u64>>,
    Vec<String>,
    Option<String>,
);

/// Runs `p` on fresh copies of `inputs` (the tensors are `p`'s outputs).
fn run(
    registry: &ProcRegistry,
    p: &Proc,
    inputs: &[ArgValue],
    suppress: bool,
    reference: bool,
) -> Outcome {
    let mut bufs: Vec<BufRef> = Vec::new();
    let args = inputs
        .iter()
        .map(|a| match a {
            ArgValue::Buffer(b) => {
                let b = b.borrow();
                let (buf, arg) = ArgValue::from_vec(b.data.clone(), b.dims.clone(), b.elem);
                bufs.push(buf);
                arg
            }
            other => other.clone(),
        })
        .collect();
    let mut interp = Interpreter::new(registry);
    let mut mon = Recorder {
        suppress,
        log: Vec::new(),
    };
    let result = if reference {
        interp.run_reference(p, args, &mut mon)
    } else {
        interp.enable_profile();
        interp.run(p, args, &mut mon)
    };
    let profile = interp.take_profile().map(|prof| format!("{prof:?}"));
    let bits = bufs
        .iter()
        .map(|b| b.borrow().data.iter().map(|v| v.to_bits()).collect())
        .collect();
    (result.map_err(|e| e.to_string()), bits, mon.log, profile)
}

/// Holds the three runs of `p` to each other under both monitors.
fn check(lanes: &ProcRegistry, general: &ProcRegistry, p: &Proc, inputs: &[ArgValue]) {
    for suppress in [true, false] {
        let fast = run(lanes, p, inputs, suppress, false);
        let slow = run(general, p, inputs, suppress, false);
        let walker = run(lanes, p, inputs, suppress, true);
        assert_eq!(
            (&fast.0, &fast.1, &fast.2),
            (&walker.0, &walker.1, &walker.2),
            "lane calls against the walker, suppress={suppress}\n{p}"
        );
        // The twins carry the instructions' names.
        assert_eq!(
            (&fast.0, &fast.1, &fast.2, &fast.3),
            (&slow.0, &slow.1, &slow.2, &slow.3),
            "lane calls against the general call, suppress={suppress}\n{p}"
        );
    }
}

/// A caller tensor: its name and dimensions.
type Buf = (&'static str, Vec<usize>);

/// An argument for a tensor parameter of rank `rank` (0 or 1, `lanes`
/// long) on `buf`: mostly a window whose one interval sits among points
/// before and after it, at offsets up to the buffer's end and past it;
/// sometimes a point read, the bare name, a window short of the rank or an
/// offset the fold cannot settle.
fn gen_window(rng: &mut Rng, (name, dims): &Buf, rank: usize, lanes: i64) -> Expr {
    let offset = |rng: &mut Rng, extent: usize, width: i64| {
        let room = extent as i64 - width;
        let at = match rng.below(32) {
            0 => room + 1,
            1 => -1,
            _ => rng.range(0, room.max(0)),
        };
        match rng.below(12) {
            0 if at > 0 => ib(at - 1) + var("i"),
            1 if at >= 0 => ib(at) + read("at", vec![ib(0)]) * ib(0),
            _ => ib(at),
        }
    };
    match rng.below(24) {
        0 => return var(*name),
        1 if rank == 0 => {
            let idx = dims.iter().map(|&d| offset(rng, d, 1)).collect();
            return read(*name, idx);
        }
        _ => {}
    }
    // Mostly along a dimension the lanes fit in.
    let wide: Vec<usize> = (0..dims.len())
        .filter(|&d| dims[d] >= lanes as usize)
        .collect();
    let interval = match (rank, wide.len()) {
        (1, 0) => Some(rng.below(dims.len())),
        (1, n) if rng.below(8) > 0 => Some(wide[rng.below(n)]),
        (1, _) => Some(rng.below(dims.len())),
        _ => None,
    };
    // Sometimes the last dimension is left out of the window and stays
    // kept: the interval is then the dimension past the spec.
    let short = interval == Some(dims.len() - 1) && rng.below(3) == 0;
    let idx = dims
        .iter()
        .enumerate()
        .take(dims.len() - usize::from(short))
        .map(|(d, &extent)| {
            if Some(d) == interval {
                let lo = offset(rng, extent, lanes);
                WAccess::Interval(lo.clone(), lo + ib(lanes))
            } else {
                WAccess::Point(offset(rng, extent, 1))
            }
        })
        .collect();
    Expr::Window {
        buf: (*name).into(),
        idx,
    }
}

/// A caller of `calls` (instruction procedures of one ISA and type):
///
/// ```text
/// for i in 0..trips:
///     alloc V: ty[lanes]          # a register, reused per iteration
///     W = A[..]                   # an alias of A
///     call ...; call ...
/// ```
fn caller(rng: &mut Rng, calls: &[&Proc], ty: DataType, lanes: i64, a: &Buf, b: &Buf) -> Proc {
    let v: Buf = ("V", vec![lanes as usize]);
    // The alias keeps A's rank, each dimension shifted by zero or one.
    let shift: Vec<i64> = a.1.iter().map(|_| rng.range(0, 1)).collect();
    let w: Buf = (
        "W",
        a.1.iter()
            .zip(&shift)
            .map(|(&d, &s)| d - s as usize)
            .collect(),
    );
    let alias = Expr::Window {
        buf: "A".into(),
        idx: a
            .1
            .iter()
            .zip(&shift)
            .map(|(&d, &s)| WAccess::Interval(ib(s), ib(d as i64)))
            .collect(),
    };
    let bufs = [a.clone(), b.clone(), v, w];
    let mut sites = Vec::new();
    for callee in calls {
        let args = callee
            .args()
            .iter()
            .map(|arg| match &arg.kind {
                ArgKind::Tensor { dims, .. } => {
                    let buf = &bufs[rng.below(bufs.len())];
                    gen_window(rng, buf, dims.len(), lanes)
                }
                _ => match rng.below(16) {
                    0 | 1 => fb(1.5),
                    2..=4 => var("f"),
                    5 => var("k"),
                    6 => var("S"),
                    _ => {
                        let (name, dims) = &bufs[rng.below(2)];
                        let idx = dims
                            .iter()
                            .map(|&d| {
                                let past = i64::from(rng.below(6) == 0);
                                ib(rng.range(0, d as i64 - 1 + past))
                            })
                            .collect();
                        read(*name, idx)
                    }
                },
            })
            .collect();
        sites.push((callee.name().to_string(), args));
    }
    let trips = rng.range(1, 3);
    let v_mem = [Mem::Dram, Mem::VecAvx2][rng.below(2)].clone();
    let dims = |d: &[usize]| d.iter().map(|&e| ib(e as i64)).collect();
    ProcBuilder::new("caller")
        .scalar_arg("f", ty)
        .scalar_arg("k", ty)
        .tensor_arg("A", ty, dims(&a.1), Mem::Dram)
        .tensor_arg("B", ty, dims(&b.1), Mem::Dram)
        .tensor_arg("at", ty, vec![ib(1)], Mem::Dram)
        .with_body(|body| {
            body.alloc("S", ty, vec![], Mem::Dram);
            body.for_("i", ib(0), ib(trips), |body| {
                body.alloc("V", ty, vec![ib(lanes)], v_mem.clone());
                body.push(Stmt::WindowStmt {
                    name: "W".into(),
                    rhs: alias,
                });
                for (name, args) in sites {
                    body.call(name, args);
                }
            });
        })
        .build()
}

fn lanes_of(p: &Proc) -> i64 {
    p.args()
        .iter()
        .find_map(|a| match &a.kind {
            ArgKind::Tensor { dims, .. } => dims.first().and_then(Expr::as_int),
            _ => None,
        })
        .unwrap_or(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn lane_calls_agree_with_the_general_call_and_the_walker(seed in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let procs = instructions();
        let lanes_registry: ProcRegistry = procs.iter().cloned().collect();
        let general = general_twins(&procs);
        // One or two instructions of one ISA and type.
        let set = rng.below(4) * 11;
        let first = &procs[set + rng.below(11)];
        let second = &procs[set + rng.below(11)];
        let calls: Vec<&Proc> = if rng.below(3) == 0 { vec![first] } else { vec![first, second] };
        let ty = first.arg_type("dst").or_else(|| first.arg_type("a")).unwrap_or(DataType::F32);
        let lanes = lanes_of(first);
        let shape = |rng: &mut Rng| -> Vec<usize> {
            let rank = 1 + rng.below(3);
            let lanes = lanes as usize;
            (0..rank)
                .map(|_| match rng.below(4) {
                    0 => 1 + rng.below(3),
                    _ => lanes + rng.below(4),
                })
                .collect()
        };
        let a: Buf = ("A", shape(&mut rng));
        let b: Buf = ("B", shape(&mut rng));
        let p = caller(&mut rng, &calls, ty, lanes, &a, &b);
        let fill = |dims: &[usize], scale: f64| {
            let len: usize = dims.iter().product();
            let data = (0..len).map(|v| v as f64 * scale - 3.0).collect();
            ArgValue::from_vec(data, dims.to_vec(), ty).1
        };
        let inputs = vec![
            ArgValue::Float(0.75),
            ArgValue::Int(2),
            fill(&a.1, 0.5),
            fill(&b.1, -1.25),
            ArgValue::from_vec(vec![0.0], vec![1], ty).1,
        ];
        check(&lanes_registry, &general, &p, &inputs);
    }
}

fn registries() -> (ProcRegistry, ProcRegistry) {
    let procs = instructions();
    let general = general_twins(&procs);
    (procs.into_iter().collect(), general)
}

/// A window that runs past the buffer's end: neither path may resolve
/// it, and the error is the one the general call has always reported.
#[test]
fn an_out_of_bounds_window_reports_the_general_call_s_error() {
    let p = ProcBuilder::new("caller")
        .tensor_arg("x", DataType::F32, vec![ib(12)], Mem::Dram)
        .with_body(|b| {
            b.alloc("v", DataType::F32, vec![ib(8)], Mem::VecAvx2);
            b.call(
                "mm256_loadu_ps",
                vec![
                    Expr::Window {
                        buf: "v".into(),
                        idx: vec![WAccess::Interval(ib(0), ib(8))],
                    },
                    Expr::Window {
                        buf: "x".into(),
                        idx: vec![WAccess::Interval(ib(6), ib(14))],
                    },
                ],
            );
        })
        .build();
    let (lanes, general) = registries();
    let inputs = [ArgValue::from_vec((0..12).map(f64::from).collect(), vec![12], DataType::F32).1];
    check(&lanes, &general, &p, &inputs);
    let (result, ..) = run(&lanes, &p, &inputs, true, false);
    assert_eq!(
        result,
        Err("index [6] out of bounds for buffer `src` with dims [12]".to_string())
    );
}

/// `t` is allocated once per iteration; the alias `w` still holds the
/// previous iteration's buffer when the `alloc` runs again, so that
/// buffer is shared and the `alloc` takes fresh storage: `t` reads zero
/// before it is written, and the alias reads what was written through
/// `t` in its own iteration.
#[test]
fn an_alloc_whose_buffer_escaped_through_an_alias_gets_fresh_storage() {
    let p = ProcBuilder::new("caller")
        .tensor_arg("out", DataType::F32, vec![ib(3), ib(3)], Mem::Dram)
        .for_("i", ib(0), ib(3), |b| {
            b.alloc("t", DataType::F32, vec![ib(4)], Mem::Dram);
            b.assign("out", vec![var("i"), ib(0)], read("t", vec![ib(0)]));
            b.assign("t", vec![ib(0)], var("i") + fb(1.0));
            b.push(Stmt::WindowStmt {
                name: "w".into(),
                rhs: Expr::Window {
                    buf: "t".into(),
                    idx: vec![WAccess::Interval(ib(0), ib(4))],
                },
            });
            b.assign("t", vec![ib(1)], fb(5.0));
            b.assign("out", vec![var("i"), ib(1)], read("w", vec![ib(0)]));
            b.assign("out", vec![var("i"), ib(2)], read("w", vec![ib(1)]));
        })
        .build();
    let (lanes, general) = registries();
    let inputs = [ArgValue::zeros(vec![3, 3], DataType::F32).1];
    check(&lanes, &general, &p, &inputs);
    let (result, bits, ..) = run(&lanes, &p, &inputs, false, false);
    assert_eq!(result, Ok(()));
    let out: Vec<f64> = bits[0].iter().map(|&b| f64::from_bits(b)).collect();
    assert_eq!(out, [0.0, 1.0, 5.0, 0.0, 2.0, 5.0, 0.0, 3.0, 5.0]);
}

/// `t` has one element in the first two iterations (the second reuses
/// the first's storage) and two in the third (fresh storage): every
/// iteration reads zeros before it writes.
#[test]
fn an_alloc_re_executed_at_another_size_reads_zero() {
    let p = ProcBuilder::new("caller")
        .tensor_arg("out", DataType::F32, vec![ib(3), ib(2)], Mem::Dram)
        .for_("i", ib(0), ib(3), |b| {
            b.alloc(
                "t",
                DataType::F32,
                vec![ib(1) + var("i") / ib(2)],
                Mem::Dram,
            );
            b.assign("out", vec![var("i"), ib(0)], read("t", vec![ib(0)]));
            b.reduce("t", vec![var("i") / ib(2)], var("i") + fb(1.0));
            b.assign(
                "out",
                vec![var("i"), ib(1)],
                read("t", vec![var("i") / ib(2)]),
            );
        })
        .build();
    let (lanes, general) = registries();
    let inputs = [ArgValue::zeros(vec![3, 2], DataType::F32).1];
    check(&lanes, &general, &p, &inputs);
    let (result, bits, ..) = run(&lanes, &p, &inputs, false, false);
    assert_eq!(result, Ok(()));
    let out: Vec<f64> = bits[0].iter().map(|&b| f64::from_bits(b)).collect();
    assert_eq!(out, [0.0, 1.0, 0.0, 2.0, 0.0, 3.0]);
}
