//! Regression tests for the primitives that replace every use of a name
//! that is about to disappear — `inline_window`, `inline_call`,
//! `unroll_buffer`, `inline_assign` — with the name used at expression
//! positions the hand-written rewriters used to skip: `if` conditions,
//! loop bounds, allocation sizes, call arguments, window intervals and
//! configuration writes.
//!
//! Each case asserts on *execution*: the original and the rewritten
//! procedure, run by the interpreter on the same inputs, leave the same
//! buffers and configuration state. A use the rewrite skipped names a
//! symbol that is no longer bound, so the rewritten procedure fails to run.

use exo2::core::{inline_assign, inline_call, inline_window, unroll_buffer};
use exo2::cursors::ProcHandle;
use exo2::interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
use exo2::ir::{
    fb, ib, read, var, BlockBuilder, DataType, Expr, Mem, Proc, ProcBuilder, Stmt, Sym, WAccess,
};

const F32: DataType = DataType::F32;

fn window(buf: &str, idx: Vec<WAccess>) -> Expr {
    Expr::Window {
        buf: Sym::new(buf),
        idx,
    }
}

fn interval(lo: Expr, hi: Expr) -> WAccess {
    WAccess::Interval(lo, hi)
}

/// `copy{n}(dst, src)`: `dst[l] = src[l]` for `l < n`.
fn copy_proc(n: i64) -> Proc {
    ProcBuilder::new(format!("copy{n}"))
        .window_arg("dst", F32, vec![ib(n)], Mem::Dram)
        .window_arg("src", F32, vec![ib(n)], Mem::Dram)
        .for_("l", ib(0), ib(n), |b| {
            b.assign("dst", vec![var("l")], read("src", vec![var("l")]));
        })
        .build()
}

/// `fill4(dst, v)`: `dst[l] = v` for `l < 4`.
fn fill_proc() -> Proc {
    ProcBuilder::new("fill4")
        .window_arg("dst", F32, vec![ib(4)], Mem::Dram)
        .scalar_arg("v", F32)
        .for_("l", ib(0), ib(4), |b| {
            b.assign("dst", vec![var("l")], var("v"));
        })
        .build()
}

/// A caller over `A: f32[8, 8]` (every element in 1..=5, `A[2, 4:8]` is
/// `[1, 2, 3, 4]`), `x: f32[8]` (`[2, 3, 1, 4, 5, 1, 2, 3]`) and an output
/// `y: f32[8]`.
fn caller(body: impl FnOnce(&mut BlockBuilder)) -> ProcHandle {
    ProcHandle::new(
        ProcBuilder::new("k")
            .tensor_arg("A", F32, vec![ib(8), ib(8)], Mem::Dram)
            .tensor_arg("x", F32, vec![ib(8)], Mem::Dram)
            .tensor_arg("y", F32, vec![ib(8)], Mem::Dram)
            .with_body(body)
            .build(),
    )
}

/// Final contents of `A`, `x`, `y` and of the register `cfg.v`.
fn execute(p: &ProcHandle, registry: &ProcRegistry) -> (Vec<Vec<f64>>, Option<f64>) {
    let a: Vec<f64> = (0..64).map(|i| (i % 5) as f64 + 1.0).collect();
    let x = vec![2.0, 3.0, 1.0, 4.0, 5.0, 1.0, 2.0, 3.0];
    let (bufs, args): (Vec<_>, Vec<_>) = [(a, vec![8, 8]), (x, vec![8]), (vec![0.0; 8], vec![8])]
        .into_iter()
        .map(|(data, dims)| ArgValue::from_vec(data, dims, F32))
        .unzip();
    let mut interp = Interpreter::new(registry);
    interp
        .run(p.proc(), args, &mut NullMonitor)
        .unwrap_or_else(|e| panic!("{e}\n{p}"));
    (
        bufs.iter().map(|b| b.borrow().data.clone()).collect(),
        interp.config("cfg", "v"),
    )
}

fn assert_same_execution(what: &str, before: &ProcHandle, after: &ProcHandle, reg: &ProcRegistry) {
    let expected = execute(before, reg);
    assert_ne!(
        expected.0[2],
        vec![0.0; 8],
        "{what}: the case must write `y`"
    );
    assert_eq!(
        expected,
        execute(after, reg),
        "{what}\nbefore:\n{before}\nafter:\n{after}"
    );
}

type Site = (&'static str, fn(&mut BlockBuilder));

#[test]
fn inline_window_rewrites_the_alias_at_every_expression_position() {
    let sites: [Site; 4] = [
        ("if condition", |b| {
            b.if_(Expr::lt(fb(1.5), read("w", vec![ib(1)])), |t| {
                t.assign("y", vec![ib(0)], fb(1.0));
            });
        }),
        ("loop bound", |b| {
            b.for_("i", ib(0), read("w", vec![ib(2)]), |b| {
                b.reduce("y", vec![ib(1)], fb(1.0));
            });
        }),
        ("alloc dim", |b| {
            b.alloc("t", F32, vec![read("w", vec![ib(2)])], Mem::Dram);
            b.assign("t", vec![ib(2)], fb(7.0));
            b.assign("y", vec![ib(2)], read("t", vec![ib(2)]));
        }),
        ("window argument", |b| {
            b.call(
                "copy4",
                vec![
                    window("y", vec![interval(ib(4), ib(8))]),
                    window("w", vec![interval(ib(0), ib(4))]),
                ],
            );
        }),
    ];
    let registry: ProcRegistry = [copy_proc(4)].into_iter().collect();
    for (what, site) in sites {
        let p = caller(|b| {
            b.push(Stmt::WindowStmt {
                name: Sym::new("w"),
                rhs: window("A", vec![WAccess::Point(ib(2)), interval(ib(4), ib(8))]),
            });
            site(b);
        });
        let alias = p.body()[0].clone();
        let inlined = inline_window(&p, &alias).unwrap();
        assert!(!inlined.to_string().contains("w["), "{what}:\n{inlined}");
        assert_same_execution(what, &p, &inlined, &registry);
    }
}

#[test]
fn inline_call_rewrites_the_formal_at_every_expression_position() {
    let sites: [Site; 4] = [
        ("window of the formal", |b| {
            b.call(
                "copy2",
                vec![
                    window("dst", vec![interval(ib(0), ib(2))]),
                    window("src", vec![interval(ib(2), ib(4))]),
                ],
            );
        }),
        ("window statement over the formal", |b| {
            b.push(Stmt::WindowStmt {
                name: Sym::new("lo"),
                rhs: window("src", vec![interval(ib(1), ib(3))]),
            });
            b.assign("dst", vec![ib(2)], read("lo", vec![ib(1)]));
        }),
        ("alloc sized by the formal", |b| {
            b.alloc("t", F32, vec![read("src", vec![ib(1)])], Mem::Dram);
            b.assign("t", vec![ib(1)], fb(7.0));
            b.assign("dst", vec![ib(3)], read("t", vec![ib(1)]));
        }),
        ("config write from the formal", |b| {
            b.write_config("cfg", "v", read("src", vec![ib(3)]));
            b.assign("dst", vec![ib(0)], fb(1.0));
        }),
    ];
    for (what, site) in sites {
        let callee = ProcBuilder::new("kern")
            .window_arg("dst", F32, vec![ib(4)], Mem::Dram)
            .window_arg("src", F32, vec![ib(4)], Mem::Dram)
            .with_body(site)
            .build();
        let p = caller(|b| {
            b.call(
                "kern",
                vec![
                    window("y", vec![interval(ib(4), ib(8))]),
                    window("A", vec![WAccess::Point(ib(2)), interval(ib(4), ib(8))]),
                ],
            );
        });
        let inlined = inline_call(&p, "kern(_)", &callee).unwrap();
        let text = inlined.to_string();
        assert!(
            !text.contains("src") && !text.contains("dst"),
            "{what}:\n{text}"
        );
        let mut registry: ProcRegistry = [copy_proc(2)].into_iter().collect();
        let after = execute(&inlined, &registry);
        registry.register(callee);
        assert_eq!(execute(&p, &registry), after, "{what}:\n{text}");
        assert_ne!(after.0[2], vec![0.0; 8], "{what}: the case must write `y`");
    }
}

/// `t: f32[2]` holding `x[0]`, `x[1]`, followed by the use under test.
fn unroll_case(site: fn(&mut BlockBuilder)) -> ProcHandle {
    caller(|b| {
        b.alloc("t", F32, vec![ib(2)], Mem::Dram);
        b.assign("t", vec![ib(0)], read("x", vec![ib(0)]));
        b.assign("t", vec![ib(1)], read("x", vec![ib(1)]));
        site(b);
    })
}

#[test]
fn unroll_buffer_rewrites_the_buffer_at_every_expression_position() {
    let sites: [Site; 3] = [
        ("if condition", |b| {
            b.if_(
                Expr::lt(read("t", vec![ib(0)]), read("t", vec![ib(1)])),
                |t| {
                    t.assign("y", vec![ib(0)], fb(1.0));
                },
            );
        }),
        ("loop bound", |b| {
            b.for_("i", ib(0), read("t", vec![ib(1)]), |b| {
                b.reduce("y", vec![ib(1)], fb(1.0));
            });
        }),
        ("call argument", |b| {
            b.call(
                "fill4",
                vec![
                    window("y", vec![interval(ib(4), ib(8))]),
                    read("t", vec![ib(1)]),
                ],
            );
        }),
    ];
    let registry: ProcRegistry = [fill_proc()].into_iter().collect();
    for (what, site) in sites {
        let p = unroll_case(site);
        let unrolled = unroll_buffer(&p, "t: _", 0).unwrap();
        assert!(!unrolled.to_string().contains("t["), "{what}:\n{unrolled}");
        assert_same_execution(what, &p, &unrolled, &registry);
    }
}

#[test]
fn unroll_buffer_refuses_a_use_it_cannot_split() {
    // A window spanning the unrolled dimension belongs to no single `t_k`.
    let p = unroll_case(|b| {
        b.call(
            "copy2",
            vec![
                window("y", vec![interval(ib(0), ib(2))]),
                window("t", vec![interval(ib(0), ib(2))]),
            ],
        );
    });
    let err = unroll_buffer(&p, "t: _", 0).expect_err("`t[0:2]` cannot be unrolled");
    assert!(err.to_string().contains("cannot unroll"), "{err}");
    // An index outside the dimension names no split buffer either.
    let p = unroll_case(|b| {
        b.assign("y", vec![ib(0)], read("t", vec![ib(2)]));
    });
    assert!(unroll_buffer(&p, "t: _", 0).is_err());
}

#[test]
fn inline_assign_rewrites_the_scalar_at_every_expression_position() {
    let sites: [Site; 2] = [
        ("window interval", |b| {
            b.call(
                "copy2",
                vec![
                    window("y", vec![interval(ib(0), ib(2))]),
                    window(
                        "x",
                        vec![interval(read("t", vec![]), read("t", vec![]) + ib(2))],
                    ),
                ],
            );
        }),
        ("config write", |b| {
            b.write_config("cfg", "v", read("t", vec![]) * fb(3.0));
            b.assign("y", vec![ib(0)], fb(1.0));
        }),
    ];
    let registry: ProcRegistry = [copy_proc(2)].into_iter().collect();
    for (what, site) in sites {
        let p = caller(|b| {
            b.alloc("t", F32, vec![], Mem::Dram);
            b.assign("t", vec![], read("x", vec![ib(0)]));
            site(b);
        });
        let inlined = inline_assign(&p, "t = _").unwrap();
        assert_same_execution(what, &p, &inlined, &registry);
    }
}

#[test]
fn inline_assign_refuses_a_use_that_is_not_a_scalar_read() {
    let p = caller(|b| {
        b.alloc("t", F32, vec![], Mem::Dram);
        b.assign("t", vec![], read("x", vec![ib(0)]));
        b.write_config(
            "cfg",
            "v",
            Expr::Stride {
                buf: Sym::new("t"),
                dim: 0,
            },
        );
    });
    let err = inline_assign(&p, "t = _").expect_err("a stride of `t` is not a read of its value");
    assert!(err.to_string().contains("stride"), "{err}");
}
