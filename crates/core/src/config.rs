//! Configuration-state primitives (paper Appendix A.8), used by the
//! Gemmini accelerator library to introduce, move and deduplicate
//! configuration-register writes.

use crate::error::SchedError;
use crate::helpers::{stmt_path_of, IntoCursor};
use crate::{stats, Result};
use exo_cursors::{Cursor, CursorPath, ProcHandle, Rewrite};
use exo_ir::{for_each_expr, for_each_stmt_paths, Expr, Step, Stmt, Sym};

/// Whether any statement strictly after `path` (in execution order within
/// the same procedure) reads the configuration field.
fn field_read_after(p: &ProcHandle, path: &[Step], config: &Sym, field: &str) -> bool {
    let mut found = false;
    for_each_stmt_paths(p.proc(), &mut |spath, stmt| {
        if found || !is_after(spath, path) {
            return;
        }
        for_each_expr(stmt, &mut |e| {
            if let Expr::ReadConfig {
                config: c,
                field: f,
            } = e
            {
                if c == config && f == field {
                    found = true;
                }
            }
        });
    });
    found
}

/// Lexicographic "executes after" on statement paths (pre-order position).
fn is_after(candidate: &[Step], anchor: &[Step]) -> bool {
    for (c, a) in candidate.iter().zip(anchor.iter()) {
        if c.index() != a.index() {
            return c.index() > a.index();
        }
    }
    candidate.len() > anchor.len()
}

/// Binds an expression to a configuration field: inserts
/// `config.field = e` before the enclosing statement and replaces the
/// expression with a read of the field (paper: `bind_config`).
pub fn bind_config(p: &ProcHandle, expr: &Cursor, config: &str, field: &str) -> Result<ProcHandle> {
    let c = p.forward(expr)?;
    let CursorPath::Node { stmt, expr: steps } = c.path().clone() else {
        return Err(SchedError::scheduling(
            "bind_config requires an expression cursor",
        ));
    };
    if steps.is_empty() {
        return Err(SchedError::scheduling(
            "bind_config requires an expression cursor",
        ));
    }
    let value = c.expr()?.clone();
    let cfg = Sym::new(config);
    if field_read_after(p, &stmt, &cfg, field) {
        return Err(SchedError::scheduling(format!(
            "configuration field `{config}.{field}` is read by later code"
        )));
    }
    let mut rw = Rewrite::new(p);
    let mut replaced = false;
    rw.modify_stmt(&stmt, |s| {
        replaced = crate::rearrange::modify_expr_in_stmt(s, &steps, |e| {
            *e = Expr::ReadConfig {
                config: cfg.clone(),
                field: field.to_string(),
            };
        });
    })?;
    if !replaced {
        return Err(SchedError::scheduling("expression path no longer resolves"));
    }
    rw.insert(
        &stmt,
        vec![Stmt::WriteConfig {
            config: Sym::new(config),
            field: field.to_string(),
            value,
        }],
    )?;
    stats::record("bind_config");
    Ok(rw.commit())
}

/// Deletes a configuration write whose value is never read afterwards
/// (paper: `delete_config`).
pub fn delete_config(p: &ProcHandle, stmt: impl IntoCursor) -> Result<ProcHandle> {
    let c = stmt.into_cursor(p)?;
    let Stmt::WriteConfig { config, field, .. } = c.stmt()?.clone() else {
        return Err(SchedError::scheduling(
            "delete_config requires a configuration write",
        ));
    };
    let path = stmt_path_of(&c)?;
    if field_read_after(p, &path, &config, &field) {
        return Err(SchedError::scheduling(format!(
            "configuration field `{config}.{field}` is read by later code"
        )));
    }
    let mut rw = Rewrite::new(p);
    rw.delete(&path, 1)?;
    stats::record("delete_config");
    Ok(rw.commit())
}

/// Inserts a configuration write at a gap (paper: `write_config`). Named
/// `write_config_at` here to avoid clashing with the builder method.
pub fn write_config_at(
    p: &ProcHandle,
    gap: &Cursor,
    config: &str,
    field: &str,
    value: Expr,
) -> Result<ProcHandle> {
    let gap = p.forward(gap)?;
    let CursorPath::Gap { stmt } = gap.path().clone() else {
        return Err(SchedError::scheduling("write_config requires a gap cursor"));
    };
    let mut rw = Rewrite::new(p);
    rw.insert(
        &stmt,
        vec![Stmt::WriteConfig {
            config: Sym::new(config),
            field: field.to_string(),
            value,
        }],
    )?;
    stats::record("write_config");
    Ok(rw.commit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::{ib, var, DataType, Mem, ProcBuilder};

    fn handle() -> ProcHandle {
        ProcHandle::new(
            ProcBuilder::new("p")
                .size_arg("n")
                .tensor_arg("a", DataType::I8, vec![var("n")], Mem::Dram)
                .for_("i", ib(0), var("n"), |b| {
                    b.call(
                        "config_ld",
                        vec![Expr::Stride {
                            buf: Sym::new("a"),
                            dim: 0,
                        }],
                    );
                    b.call("ld_data", vec![var("a")]);
                })
                .build(),
        )
    }

    #[test]
    fn write_and_delete_config_roundtrip() {
        let p = handle();
        let gap = p.find_loop("i").unwrap().before().unwrap();
        let p2 = write_config_at(&p, &gap, "gemm_cfg", "stride", ib(4)).unwrap();
        assert!(p2.to_string().contains("gemm_cfg.stride = 4"));
        let c = p2.find("_").unwrap();
        assert_eq!(c.kind(), Some("write_config"));
        let p3 = delete_config(&p2, &c).unwrap();
        assert!(!p3.to_string().contains("gemm_cfg.stride"));
    }

    #[test]
    fn delete_config_rejected_when_field_is_read_later() {
        let p = ProcHandle::new(
            ProcBuilder::new("p")
                .tensor_arg("x", DataType::F32, vec![ib(4)], Mem::Dram)
                .with_body(|b| {
                    b.write_config("cfg", "stride", ib(2));
                    b.assign(
                        "x",
                        vec![ib(0)],
                        Expr::ReadConfig {
                            config: Sym::new("cfg"),
                            field: "stride".into(),
                        },
                    );
                })
                .build(),
        );
        let c = p.body()[0].clone();
        assert!(delete_config(&p, &c).is_err());
    }

    #[test]
    fn bind_config_introduces_a_config_read() {
        let p = ProcHandle::new(
            ProcBuilder::new("p")
                .size_arg("n")
                .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
                .with_body(|b| {
                    b.assign("x", vec![ib(0)], var("n") * ib(4));
                })
                .build(),
        );
        let rhs = p.body()[0].rhs().unwrap();
        let p2 = bind_config(&p, &rhs, "cfg", "scale").unwrap();
        let s = p2.to_string();
        assert!(s.contains("cfg.scale = n * 4"), "{s}");
        assert!(s.contains("x[0] = cfg.scale"), "{s}");
    }
}
