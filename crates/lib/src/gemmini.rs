//! The Gemmini scheduling library (§6.1.2, Appendix B).
//!
//! Gemmini computes 16×16 tiles on a systolic array, so the schedule tiles
//! all three matmul dimensions by 16, rearranges the nest so the three
//! tile loops are innermost, and replaces the inner tile computation with
//! the accelerator's `do_matmul_acc_i8` instruction. Configuration
//! hoisting — the paper's Figure 5 — is provided as a separate library
//! function built from the §3.4 combinators.

use exo_core::{
    divide_loop, fission, lift_scope, reframe, remove_loop, reorder_stmts, repeat, replace,
    seq_ops, try_else, Result, SchedError, TailStrategy,
};
use exo_cursors::{Cursor, ProcHandle};
use exo_machine::gemmini_instructions;
use std::rc::Rc;

/// Tiles each of the named loops by its factor, interchanging the newly
/// created inner loops inward so the original loop order is preserved at
/// the tile level (the paper's `tile_loops` helper).
pub fn tile_loops(p: &ProcHandle, loops: &[(&str, i64)]) -> Result<ProcHandle> {
    let mut current = p.clone();
    for (name, factor) in loops {
        current = divide_loop(
            &current,
            *name,
            *factor,
            [&format!("{name}o"), &format!("{name}i")],
            TailStrategy::Perfect,
        )?;
    }
    Ok(current)
}

/// Hoists a single statement as far up the loop nest as possible — the
/// higher-order schedule of Figure 5c:
/// `repeat(try_else(seq(fission_after, remove_parent_loop), reorder_before))`.
pub fn hoist_stmt(p: &ProcHandle, stmt: &Cursor) -> Result<ProcHandle> {
    let reorder_before = reframe(
        |c: &Cursor| c.expand(1, 0).map_err(SchedError::from),
        exo_core::lift(|p: &ProcHandle, c: &Cursor| reorder_stmts(p, c)),
    );
    let fission_after = reframe(
        |c: &Cursor| c.after().map_err(SchedError::from),
        Rc::new(|p: &ProcHandle, c: &Cursor| {
            let p2 = fission(p, c, 1)?;
            let c2 = p2.forward(c)?;
            Ok((p2, c2))
        }),
    );
    let remove_parent_loop = reframe(
        |c: &Cursor| c.parent().map_err(SchedError::from),
        exo_core::lift(|p: &ProcHandle, c: &Cursor| remove_loop(p, c)),
    );
    let hoist = repeat(try_else(
        seq_ops(vec![fission_after, remove_parent_loop]),
        reorder_before,
    ));
    let (p2, _) = hoist(p, stmt)?;
    Ok(p2)
}

/// Hoists every Gemmini configuration write in the procedure to the top.
pub fn hoist_all_configs(p: &ProcHandle) -> Result<ProcHandle> {
    let mut current = p.clone();
    loop {
        // Find a configuration write that is still inside a loop.
        let target = current
            .find_all("_")
            .unwrap_or_default()
            .into_iter()
            .find(|c| c.kind() == Some("write_config") && c.parent().is_ok());
        match target {
            Some(c) => {
                let next = hoist_stmt(&current, &c)?;
                if next.proc() == current.proc() {
                    return Ok(next);
                }
                current = next;
            }
            None => return Ok(current),
        }
    }
}

/// The Appendix B matmul schedule: tile all three dimensions by 16, sink
/// the row/column tile loops inward, and map the inner 16×16×16 tile onto
/// the `do_matmul_acc_i8` instruction.
pub fn gemmini_schedule(p: &ProcHandle) -> Result<ProcHandle> {
    // Tile i, j, k by the systolic array size.
    let p = tile_loops(p, &[("i", 16), ("j", 16), ("k", 16)])?;
    // Nest is now io ii jo ji ko ki; rotate ii/ji outward-in so the three
    // tile loops (ii, ji, ki) are innermost: io jo ko ii ji ki.
    let p = lift_scope(&p, "jo")?; // io jo ii ji ko ki
    let p = lift_scope(&p, "ko")?; // io jo ii ko ji ki
    let p = lift_scope(&p, "ko")?; // io jo ko ii ji ki
                                   // Replace the inner tile with the accelerator instruction.
    let instrs = gemmini_instructions();
    let matmul = instrs
        .iter()
        .find(|i| i.name() == "do_matmul_acc_i8")
        .ok_or_else(|| {
            SchedError::scheduling("no `do_matmul_acc_i8` among the Gemmini instructions")
        })?;
    let ii = p.find_loop("ii")?;
    replace(&p, &ii, matmul)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
    use exo_ir::DataType;
    use exo_kernels::gemmini_matmul;
    use exo_machine::simulate;

    #[test]
    fn gemmini_schedule_maps_the_tile_onto_the_accelerator() {
        let p = ProcHandle::new(gemmini_matmul());
        let opt = gemmini_schedule(&p).unwrap();
        let s = opt.to_string();
        assert!(s.contains("do_matmul_acc_i8("), "{s}");
        assert!(s.contains("for io in seq(0, N / 16):"), "{s}");
    }

    #[test]
    fn scheduled_gemmini_matmul_is_equivalent() {
        let p = ProcHandle::new(gemmini_matmul());
        let opt = gemmini_schedule(&p).unwrap();
        let registry: ProcRegistry = gemmini_instructions().into_iter().collect();
        let (m, n, k) = (16usize, 16usize, 16usize);
        let run = |proc: &exo_ir::Proc| {
            let mut interp = Interpreter::new(&registry);
            let a: Vec<f64> = (0..m * k).map(|v| (v % 4) as f64).collect();
            let b: Vec<f64> = (0..k * n).map(|v| (v % 5) as f64).collect();
            let (_, aa) = ArgValue::from_vec(a, vec![m, k], DataType::I8);
            let (_, bb) = ArgValue::from_vec(b, vec![k, n], DataType::I8);
            let (cb, cc) = ArgValue::zeros(vec![m, n], DataType::I32);
            interp
                .run(
                    proc,
                    vec![
                        ArgValue::Int(m as i64),
                        ArgValue::Int(n as i64),
                        ArgValue::Int(k as i64),
                        aa,
                        bb,
                        cc,
                    ],
                    &mut NullMonitor,
                )
                .unwrap();
            let out = cb.borrow().data.clone();
            out
        };
        assert_eq!(run(p.proc()), run(opt.proc()));
    }

    #[test]
    fn accelerator_schedule_beats_the_host_loop_nest() {
        let p = ProcHandle::new(gemmini_matmul());
        let opt = gemmini_schedule(&p).unwrap();
        let registry: ProcRegistry = gemmini_instructions().into_iter().collect();
        let (m, n, k) = (32usize, 32usize, 32usize);
        let mk = || {
            let (_, aa) = ArgValue::from_vec(vec![1.0; m * k], vec![m, k], DataType::I8);
            let (_, bb) = ArgValue::from_vec(vec![1.0; k * n], vec![k, n], DataType::I8);
            let (_, cc) = ArgValue::zeros(vec![m, n], DataType::I32);
            vec![
                ArgValue::Int(m as i64),
                ArgValue::Int(n as i64),
                ArgValue::Int(k as i64),
                aa,
                bb,
                cc,
            ]
        };
        let host = simulate(p.proc(), &registry, mk());
        let accel = simulate(opt.proc(), &registry, mk());
        assert!(
            accel.cycles * 4 < host.cycles,
            "{} vs {}",
            accel.cycles,
            host.cycles
        );
        assert!(accel.instr_count >= 8);
    }

    #[test]
    fn config_hoisting_moves_configuration_out_of_loops() {
        use exo_ir::{ib, var, Mem, ProcBuilder};
        let p = ProcHandle::new(
            ProcBuilder::new("g")
                .size_arg("n")
                .tensor_arg("a", DataType::I8, vec![var("n")], Mem::Dram)
                .for_("i", ib(0), var("n"), |b| {
                    b.for_("j", ib(0), var("n"), |b| {
                        b.write_config("gemm_cfg", "ld1_stride", ib(4));
                        b.call("ld_data", vec![var("a")]);
                    });
                })
                .build(),
        );
        let hoisted = hoist_all_configs(&p).unwrap();
        let s = hoisted.to_string();
        assert!(
            s.find("gemm_cfg.ld1_stride = 4").unwrap() < s.find("for i in").unwrap(),
            "{s}"
        );
        assert_eq!(s.matches("gemm_cfg.ld1_stride = 4").count(), 1);
    }
}
