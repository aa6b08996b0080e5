//! Witnesses for the answers `exo-analysis` used to get wrong because its
//! walks over buffer accesses disagreed: accesses through window aliases,
//! windows and bare names handed to callees, and indices that are not
//! monotone in the loops around them.
//!
//! Each case asserts on *execution* or on a returned diagnostic: a
//! primitive either refuses, or the procedure it returns leaves the same
//! buffers as the original when the interpreter runs both. A primitive
//! that accepts an unsound rewrite fails the second half — the rewritten
//! procedure computes something else, or does not run at all.

use exo2::analysis::{check_proc, infer_bounds, threadable_parallel_loops, Context};
use exo2::core::{fission, fuse, parallelize_loop, reorder_stmts, stage_mem};
use exo2::cursors::ProcHandle;
use exo2::interp::{ArgValue, BufRef, Interpreter, NullMonitor, ProcRegistry, ShadowMonitor};
use exo2::ir::{
    fb, ib, read, var, Block, BlockBuilder, DataType, Expr, Mem, Proc, ProcBuilder, Stmt, Sym,
    WAccess,
};

const F32: DataType = DataType::F32;

fn window(buf: &str, lo: i64, hi: i64) -> Expr {
    Expr::Window {
        buf: Sym::new(buf),
        idx: vec![WAccess::Interval(ib(lo), ib(hi))],
    }
}

fn alias(name: &str, buf: &str, lo: i64, hi: i64) -> Stmt {
    Stmt::WindowStmt {
        name: Sym::new(name),
        rhs: window(buf, lo, hi),
    }
}

/// `copy4(dst, src)`: `dst[l] = src[l]` for `l < 4`.
fn copy4() -> Proc {
    ProcBuilder::new("copy4")
        .window_arg("dst", F32, vec![ib(4)], Mem::Dram)
        .window_arg("src", F32, vec![ib(4)], Mem::Dram)
        .for_("l", ib(0), ib(4), |b| {
            b.assign("dst", vec![var("l")], read("src", vec![var("l")]));
        })
        .build()
}

/// `sum8(dst, src)`: `dst[l] += src[l]` for `l < 8`.
fn sum8() -> Proc {
    ProcBuilder::new("sum8")
        .tensor_arg("dst", F32, vec![ib(8)], Mem::Dram)
        .tensor_arg("src", F32, vec![ib(8)], Mem::Dram)
        .for_("l", ib(0), ib(8), |b| {
            b.reduce("dst", vec![var("l")], read("src", vec![var("l")]));
        })
        .build()
}

/// A procedure over `x: f32[8]` (`[2, 3, 1, 4, 5, 1, 2, 3]`) and an output
/// `y: f32[8]`.
fn kernel(body: impl FnOnce(&mut BlockBuilder)) -> ProcHandle {
    ProcHandle::new(
        ProcBuilder::new("k")
            .tensor_arg("x", F32, vec![ib(8)], Mem::Dram)
            .tensor_arg("y", F32, vec![ib(8)], Mem::Dram)
            .with_body(body)
            .build(),
    )
}

fn args() -> (Vec<BufRef>, Vec<ArgValue>) {
    let x = vec![2.0, 3.0, 1.0, 4.0, 5.0, 1.0, 2.0, 3.0];
    [x, vec![0.0; 8]]
        .into_iter()
        .map(|data| ArgValue::from_vec(data, vec![8], F32))
        .unzip()
}

/// Final contents of `x` and `y`, or why the procedure did not run.
fn execute(p: &ProcHandle, registry: &ProcRegistry) -> Result<Vec<Vec<f64>>, String> {
    let (bufs, args) = args();
    Interpreter::new(registry)
        .run(p.proc(), args, &mut NullMonitor)
        .map_err(|e| format!("{e}\n{p}"))?;
    Ok(bufs.iter().map(|b| b.borrow().data.clone()).collect())
}

/// The contract of a checked primitive: refuse, or preserve execution.
/// Returns whether it accepted.
fn refuses_or_preserves(
    what: &str,
    before: &ProcHandle,
    outcome: exo2::core::Result<ProcHandle>,
    registry: &ProcRegistry,
) -> bool {
    let Ok(after) = outcome else { return false };
    let expected = execute(before, registry).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_ne!(expected[1], vec![0.0; 8], "{what}: the case must write `y`");
    assert_eq!(
        Ok(expected),
        execute(&after, registry),
        "{what}\nbefore:\n{before}\nafter:\n{after}"
    );
    true
}

#[test]
fn reorder_stmts_sees_a_store_through_an_alias() {
    let registry = ProcRegistry::new();
    // `w[0]` *is* `y[0]`: swapping the two stores changes which one wins.
    let p = kernel(|b| {
        b.push(alias("w", "y", 0, 4));
        b.assign("w", vec![ib(0)], fb(1.0));
        b.assign("y", vec![ib(0)], fb(2.0));
    });
    let swapped = reorder_stmts(&p, &p.body()[1]);
    assert!(
        !refuses_or_preserves("alias of y", &p, swapped, &registry),
        "`w[0] = 1.0; y[0] = 2.0` under `w = y[0:4]` must not be reordered"
    );
    // An alias declared in an enclosing block is still in scope.
    let p = kernel(|b| {
        b.push(alias("w", "y", 0, 4));
        b.for_("i", ib(0), ib(1), |b| {
            b.assign("w", vec![ib(0)], fb(1.0));
            b.assign("y", vec![ib(0)], fb(2.0));
        });
    });
    let first = p.find_loop("i").expect("the loop").body()[0].clone();
    let swapped = reorder_stmts(&p, &first);
    assert!(!refuses_or_preserves(
        "alias of y, one block up",
        &p,
        swapped,
        &registry
    ));
    // A store to another buffer still commutes with it.
    let p = kernel(|b| {
        b.push(alias("w", "y", 0, 4));
        b.assign("w", vec![ib(0)], fb(1.0));
        b.assign("x", vec![ib(0)], fb(2.0));
    });
    let swapped = reorder_stmts(&p, &p.body()[1]);
    assert!(
        refuses_or_preserves("alias of y vs x", &p, swapped, &registry),
        "`w[0] = 1.0; x[0] = 2.0` under `w = y[0:4]` commute"
    );
}

/// `for i in seq(0, 4): <body>` over `x`, `y`, marked parallel or not.
fn loop_over_i(parallel: bool, body: &[Stmt]) -> ProcHandle {
    loop_over_i_after(&[], parallel, body)
}

/// `<before>; for i in seq(0, 4): <body>`.
fn loop_over_i_after(before: &[Stmt], parallel: bool, body: &[Stmt]) -> ProcHandle {
    kernel(|b| {
        for s in before {
            b.push(s.clone());
        }
        b.push(Stmt::For {
            iter: Sym::new("i"),
            lo: ib(0),
            hi: ib(4),
            body: Block::from_stmts(body.to_vec()),
            parallel,
        });
    })
}

#[test]
fn an_alias_declared_in_a_loop_body_is_not_a_private_buffer() {
    let registry = ProcRegistry::new();
    // Every iteration stores to `y[0]` through its own `w`.
    let racy = [
        alias("w", "y", 0, 4),
        Stmt::Assign {
            buf: Sym::new("w"),
            idx: vec![ib(0)],
            rhs: read("x", vec![var("i")]),
        },
    ];
    let sequential = loop_over_i(false, &racy);
    assert!(
        parallelize_loop(&sequential, "i").is_err(),
        "every iteration writes y[0]:\n{sequential}"
    );
    let marked = loop_over_i(true, &racy);
    let diags = check_proc(marked.proc());
    assert!(
        diags.iter().any(|d| d.code == "V201"),
        "{diags:?}\n{marked}"
    );
    // The race is real: the dynamic detector finds it.
    let (_, args) = args();
    let mut shadow = ShadowMonitor::new();
    Interpreter::new(&registry)
        .run_reference(marked.proc(), args, &mut shadow)
        .unwrap_or_else(|e| panic!("{e}\n{marked}"));
    assert!(!shadow.races().is_empty(), "{marked}");

    // An alias of a buffer allocated in the body is as private as the
    // buffer.
    let private = [
        Stmt::Alloc {
            name: Sym::new("t"),
            ty: F32,
            dims: vec![ib(4)],
            mem: Mem::Dram,
        },
        alias("w", "t", 0, 4),
        Stmt::Assign {
            buf: Sym::new("w"),
            idx: vec![ib(0)],
            rhs: read("x", vec![var("i")]),
        },
        Stmt::Assign {
            buf: Sym::new("y"),
            idx: vec![var("i")],
            rhs: read("w", vec![ib(0)]),
        },
    ];
    let sequential = loop_over_i(false, &private);
    let marked = parallelize_loop(&sequential, "i");
    assert!(
        refuses_or_preserves(
            "alias of a body-local alloc",
            &sequential,
            marked,
            &registry
        ),
        "an alias of a body-local alloc stays private:\n{sequential}"
    );
    let diags = check_proc(loop_over_i(true, &private).proc());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn an_alias_declared_before_a_loop_is_still_an_alias_inside_it() {
    // `w[i]` is `y[i + 1]`, which the next iteration reads.
    let outside = [alias("w", "y", 1, 5)];
    let carried = [Stmt::Assign {
        buf: Sym::new("w"),
        idx: vec![var("i")],
        rhs: read("y", vec![var("i")]) + read("x", vec![var("i")]),
    }];
    let sequential = loop_over_i_after(&outside, false, &carried);
    assert!(
        parallelize_loop(&sequential, "i").is_err(),
        "iteration i writes y[i + 1], iteration i + 1 reads it:\n{sequential}"
    );
    let marked = loop_over_i_after(&outside, true, &carried);
    let diags = check_proc(marked.proc());
    assert!(
        diags.iter().any(|d| d.code == "V201"),
        "{diags:?}\n{marked}"
    );
    // Nor may the C emitter put a pragma on it.
    let threaded = threadable_parallel_loops(marked.proc());
    assert!(threaded.is_empty(), "{threaded:?}\n{marked}");
    // The same loop without the alias is certified.
    let apart = [Stmt::Assign {
        buf: Sym::new("y"),
        idx: vec![var("i")],
        rhs: read("x", vec![var("i")]),
    }];
    let marked = loop_over_i_after(&outside, true, &apart);
    assert!(check_proc(marked.proc()).is_empty(), "{marked}");
    assert!(threadable_parallel_loops(marked.proc()).contains("i"));
}

#[test]
fn fission_keeps_an_alias_and_its_uses_in_one_loop() {
    let registry = ProcRegistry::new();
    // for i: w = y[0:4]; w[0] = x[i] | gap | x[i] = w[0]
    let p = loop_over_i(
        false,
        &[
            alias("w", "y", 0, 4),
            Stmt::Assign {
                buf: Sym::new("w"),
                idx: vec![ib(0)],
                rhs: read("x", vec![var("i")]),
            },
            Stmt::Assign {
                buf: Sym::new("x"),
                idx: vec![var("i")],
                rhs: read("w", vec![ib(0)]),
            },
        ],
    );
    let gap = p.find_loop("i").expect("the loop").body()[1]
        .after()
        .expect("a gap");
    let split = fission(&p, &gap, 1);
    assert!(
        !refuses_or_preserves("w used after the gap", &p, split, &registry),
        "the second loop would use `w` outside its scope:\n{p}"
    );
}

#[test]
fn fuse_sees_a_store_through_an_alias_declared_before_the_loops() {
    let registry = ProcRegistry::new();
    // The second loop reads cells of `y` the first, writing them as `w`,
    // fills only in later iterations.
    let p = kernel(|b| {
        b.push(alias("w", "y", 0, 8));
        b.for_("i", ib(0), ib(8), |b| {
            b.assign("w", vec![var("i")], fb(1.0));
        });
        b.for_("j", ib(0), ib(8), |b| {
            b.assign("x", vec![var("j")], read("y", vec![ib(7) - var("j")]));
        });
    });
    let fused = fuse(&p, "i", "j");
    assert!(
        !refuses_or_preserves("producer writes through w", &p, fused, &registry),
        "x[j] = y[7 - j] needs every w[i] = 1.0 done first:\n{p}"
    );
}

#[test]
fn stage_mem_sees_a_window_handed_to_a_callee() {
    let registry: ProcRegistry = [copy4()].into_iter().collect();
    let p = kernel(|b| {
        b.assign("y", vec![ib(0)], read("x", vec![ib(0)]));
        b.call("copy4", vec![window("y", 4, 8), window("x", 4, 8)]);
    });
    let staged = stage_mem(&p, p.body_block(), "x", &[(ib(0), ib(4))], "xs");
    assert!(
        !refuses_or_preserves("x[4:8] outside [0, 4)", &p, staged, &registry),
        "`x[4:8]` is not inside the staged window [0, 4):\n{p}"
    );
}

#[test]
fn stage_mem_sees_a_bare_name_handed_to_a_callee() {
    let registry: ProcRegistry = [sum8()].into_iter().collect();
    let p = kernel(|b| {
        b.assign("y", vec![ib(0)], read("x", vec![ib(0)]));
        b.call("sum8", vec![var("y"), var("x")]);
    });
    let staged = stage_mem(&p, p.body_block(), "x", &[(ib(0), ib(1))], "xs");
    let why = match &staged {
        Err(e) => e.to_string(),
        Ok(_) => String::new(),
    };
    assert!(
        !refuses_or_preserves("bare x outside [0, 1)", &p, staged, &registry),
        "`sum8(y, x)` reads all of `x`, not just [0, 1):\n{p}"
    );
    assert!(why.contains("sum8"), "the refusal names the callee: {why}");
}

#[test]
fn stage_mem_stages_a_region_whose_only_accesses_are_windows() {
    let registry: ProcRegistry = [copy4()].into_iter().collect();
    let p = kernel(|b| {
        b.call("copy4", vec![window("y", 4, 8), window("x", 4, 8)]);
    });
    let staged = stage_mem(&p, p.body_block(), "x", &[(ib(4), ib(8))], "xs");
    if let Err(e) = &staged {
        panic!("staging `x[4:8]` through [4, 8) is legal: {e}\n{p}");
    }
    assert!(refuses_or_preserves(
        "x[4:8] inside [4, 8)",
        &p,
        staged,
        &registry
    ));
}

#[test]
fn an_index_that_wraps_is_not_bounded_by_the_loop_endpoints() {
    let registry = ProcRegistry::new();
    // i % 4 over i in [0, 6) takes 0, 1, 2, 3, 0, 1: the endpoints give
    // 0 and 1.
    let p = kernel(|b| {
        b.for_("i", ib(0), ib(6), |b| {
            b.assign("y", vec![var("i")], read("x", vec![var("i") % ib(4)]));
        });
    });
    let scope = p.body()[0].stmt().expect("the loop").clone();
    if let Ok(bounds) = infer_bounds(&scope, &Sym::new("x"), &Context::new()) {
        let extent = bounds.extent(0, &Context::new()).as_int();
        assert!(
            bounds.dims[0].0.as_int() == Some(0) && extent.is_some_and(|n| n >= 4),
            "x[i % 4] touches [0, 4), not {:?}",
            bounds.dims
        );
    }
    let staged = stage_mem(&p, "i", "x", &[(ib(0), ib(2))], "xs");
    let why = match &staged {
        Err(e) => e.to_string(),
        Ok(_) => String::new(),
    };
    assert!(
        !refuses_or_preserves("x[i % 4] in [0, 2)", &p, staged, &registry),
        "two cells do not hold x[i % 4]:\n{p}"
    );
    assert!(
        why.contains("i % 4") && why.contains("dimension 0"),
        "the refusal names the index and the dimension: {why}"
    );
}

#[test]
fn two_bounds_the_facts_do_not_order_are_not_a_hull() {
    let registry = ProcRegistry::new();
    let copy_up_to = |b: &mut BlockBuilder, iter: &str, hi: &str, reduce: bool| {
        b.for_(iter, ib(0), var(hi), |b| {
            let cell = read("x", vec![var(iter)]);
            match reduce {
                false => b.assign("y", vec![var(iter)], cell),
                true => b.reduce("y", vec![var(iter)], cell),
            };
        });
    };
    // `x` is read on [0, N) and on [0, M), and nothing orders N and M:
    // neither window is the hull.
    let mut both = BlockBuilder::new();
    copy_up_to(&mut both, "i", "N", false);
    copy_up_to(&mut both, "j", "M", true);
    let scope = Stmt::If {
        cond: Expr::Bool(true),
        then_body: both.build(),
        else_body: Block::new(),
    };
    match infer_bounds(&scope, &Sym::new("x"), &Context::new()) {
        Ok(bounds) => panic!("neither [0, N) nor [0, M) covers both loops: {bounds:?}"),
        Err(why) => {
            let why = why.to_string();
            assert!(
                why.contains("`N`") && why.contains("`M`") && why.contains("dimension 0"),
                "the refusal names both bounds and the dimension: {why}"
            );
        }
    }
    // The same two loops with n = 2 and m = 6: staging `x` through [0, n)
    // would leave the m-loop reading six cells of a two-cell buffer.
    let p = kernel(|b| {
        b.for_("n", ib(2), ib(3), |b| {
            b.for_("m", ib(6), ib(7), |b| {
                copy_up_to(b, "i", "n", false);
                copy_up_to(b, "j", "m", true);
            });
        });
    });
    let loops = p.find_loop("m").expect("the m loop").body_block();
    let staged = stage_mem(
        &p,
        loops.expect("its body"),
        "x",
        &[(ib(0), var("n"))],
        "xs",
    );
    assert!(
        !refuses_or_preserves("x[0:m] outside [0, n)", &p, staged, &registry),
        "`x[j]` for j < m is not inside the staged window [0, n):\n{p}"
    );
}
