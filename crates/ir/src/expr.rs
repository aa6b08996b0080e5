//! Expressions of the object language.

use crate::sym::Sym;
use crate::visit::{walk_expr, Visit};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops;

/// Binary operators available in index and value expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer (floor) division for index expressions, ordinary division
    /// for floating-point values.
    Div,
    /// Modulo.
    Mod,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl BinOp {
    /// Returns `true` for comparison / boolean operators.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::And
                | BinOp::Or
        )
    }

    /// Returns `true` if the operator commutes (`x op y == y op x`).
    pub fn commutes(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or
        )
    }

    /// Symbol used by the pretty printer.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// One dimension of a *window expression*: either a single point or a
/// half-open interval `[lo, hi)` of a buffer dimension.
///
/// Windows appear as arguments to instruction calls, e.g.
/// `mm512_loadu_ps(dst[0:16], src[i, 0:16])`.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum WAccess {
    /// A point access along this dimension (the dimension is dropped from
    /// the window's shape).
    Point(Expr),
    /// An interval access `lo .. hi` along this dimension.
    Interval(Expr, Expr),
}

/// An expression of the object language.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Integer literal (also used for index arithmetic).
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// A scalar variable, loop iterator, or size argument.
    Var(Sym),
    /// A read of a buffer element: `buf[idx...]`.
    Read {
        /// Buffer being read.
        buf: Sym,
        /// Index expression per dimension (empty for scalar buffers).
        idx: Vec<Expr>,
    },
    /// A window of a buffer, used as an argument to calls: `buf[lo:hi, p]`.
    Window {
        /// Buffer being windowed.
        buf: Sym,
        /// Per-dimension accesses.
        idx: Vec<WAccess>,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        arg: Box<Expr>,
    },
    /// `stride(buf, dim)` — the row stride of a buffer, used by accelerator
    /// configuration instructions.
    Stride {
        /// Buffer whose stride is queried.
        buf: Sym,
        /// Dimension index.
        dim: usize,
    },
    /// A read of an accelerator configuration-register field,
    /// e.g. `cfg.stride`.
    ReadConfig {
        /// Configuration struct name.
        config: Sym,
        /// Field name.
        field: String,
    },
}

/// By hand only because `f64` is not `Hash`: a float literal hashes by
/// bit pattern, everything else as a derive would.
impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Expr::Int(v) => v.hash(state),
            Expr::Float(v) => v.to_bits().hash(state),
            Expr::Bool(v) => v.hash(state),
            Expr::Var(sym) => sym.hash(state),
            Expr::Read { buf, idx } => {
                buf.hash(state);
                idx.hash(state);
            }
            Expr::Window { buf, idx } => {
                buf.hash(state);
                idx.hash(state);
            }
            Expr::Bin { op, lhs, rhs } => {
                op.hash(state);
                lhs.hash(state);
                rhs.hash(state);
            }
            Expr::Un { op, arg } => {
                op.hash(state);
                arg.hash(state);
            }
            Expr::Stride { buf, dim } => {
                buf.hash(state);
                dim.hash(state);
            }
            Expr::ReadConfig { config, field } => {
                config.hash(state);
                field.hash(state);
            }
        }
    }
}

impl Expr {
    /// Builds `lhs op rhs`.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Builds a comparison `lhs < rhs`.
    pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Lt, lhs, rhs)
    }

    /// Builds a comparison `lhs <= rhs`.
    pub fn le(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Le, lhs, rhs)
    }

    /// Builds an equality comparison `lhs == rhs`.
    pub fn eq_(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Eq, lhs, rhs)
    }

    /// Builds `lhs % rhs`.
    pub fn modulo(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mod, lhs, rhs)
    }

    /// Builds logical `lhs and rhs`.
    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::And, lhs, rhs)
    }

    /// Returns the integer value if this is an integer literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value of an integer expression when every variable takes its
    /// value from `env`, with Euclidean `/` and `%` as the interpreter
    /// and the simplifier have them. `None` for a variable `env` does not
    /// bind, a zero divisor, an overflow, or anything but integer
    /// arithmetic.
    pub fn eval_int(&self, env: &dyn Fn(&Sym) -> Option<i64>) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            Expr::Var(s) => env(s),
            Expr::Un { op: UnOp::Neg, arg } => arg.eval_int(env)?.checked_neg(),
            Expr::Bin { op, lhs, rhs } => {
                let (a, b) = (lhs.eval_int(env)?, rhs.eval_int(env)?);
                match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => a.checked_mul(b),
                    BinOp::Div => a.checked_div_euclid(b),
                    BinOp::Mod => a.checked_rem_euclid(b),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// The truth of a predicate — comparisons of integer expressions
    /// joined by `and` and `or` — when its operands are evaluated by
    /// [`Expr::eval_int`] under `env`. `None` when any part has no value.
    pub fn eval_bool(&self, env: &dyn Fn(&Sym) -> Option<i64>) -> Option<bool> {
        match self {
            Expr::Bin {
                op: BinOp::And,
                lhs,
                rhs,
            } => Some(lhs.eval_bool(env)? && rhs.eval_bool(env)?),
            Expr::Bin {
                op: BinOp::Or,
                lhs,
                rhs,
            } => Some(lhs.eval_bool(env)? || rhs.eval_bool(env)?),
            Expr::Bin { op, lhs, rhs } => {
                let (a, b) = (lhs.eval_int(env)?, rhs.eval_int(env)?);
                match op {
                    BinOp::Lt => Some(a < b),
                    BinOp::Le => Some(a <= b),
                    BinOp::Gt => Some(a > b),
                    BinOp::Ge => Some(a >= b),
                    BinOp::Eq => Some(a == b),
                    BinOp::Ne => Some(a != b),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Returns the variable symbol if this is a bare variable reference.
    pub fn as_var(&self) -> Option<&Sym> {
        match self {
            Expr::Var(s) => Some(s),
            _ => None,
        }
    }

    /// Returns `true` if the expression syntactically mentions `sym`
    /// (as a variable, buffer, stride or config reference).
    pub fn mentions(&self, sym: &Sym) -> bool {
        struct Mentions<'a>(&'a Sym, bool);
        impl Visit<'_> for Mentions<'_> {
            fn visit_sym(&mut self, s: &Sym) {
                self.1 |= s == self.0;
            }
            fn visit_expr(&mut self, e: &Expr) {
                if !self.1 {
                    walk_expr(self, e);
                }
            }
        }
        let mut found = Mentions(sym, false);
        found.visit_expr(self);
        found.1
    }

    /// Collects every buffer symbol read anywhere in this expression.
    pub fn buffers_read(&self) -> Vec<Sym> {
        struct Buffers(Vec<Sym>);
        impl Visit<'_> for Buffers {
            fn visit_expr(&mut self, e: &Expr) {
                if let Expr::Read { buf, .. } | Expr::Window { buf, .. } = e {
                    self.0.push(buf.clone());
                }
                walk_expr(self, e);
            }
        }
        let mut out = Buffers(Vec::new());
        out.visit_expr(self);
        out.0
    }
}

/// Shorthand for an integer literal expression.
///
/// ```
/// use exo_ir::ib;
/// assert_eq!(ib(3).as_int(), Some(3));
/// ```
pub fn ib(v: i64) -> Expr {
    Expr::Int(v)
}

/// Shorthand for a floating-point literal expression.
pub fn fb(v: f64) -> Expr {
    Expr::Float(v)
}

/// Shorthand for a variable reference expression.
///
/// ```
/// use exo_ir::{var, Sym};
/// assert_eq!(var("i").as_var(), Some(&Sym::new("i")));
/// ```
pub fn var(name: impl Into<Sym>) -> Expr {
    Expr::Var(name.into())
}

/// Shorthand for a buffer read expression `buf[idx...]`.
pub fn read(buf: impl Into<Sym>, idx: Vec<Expr>) -> Expr {
    Expr::Read {
        buf: buf.into(),
        idx,
    }
}

impl ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
}

impl ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
}

impl ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
}

impl ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }
}

impl ops::Rem for Expr {
    type Output = Expr;
    fn rem(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mod, self, rhs)
    }
}

impl ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Un {
            op: UnOp::Neg,
            arg: Box::new(self),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Float(v) => f.write_str(&format_float(*v)),
            Expr::Bool(v) => write!(f, "{}", if *v { "True" } else { "False" }),
            Expr::Var(s) => write!(f, "{s}"),
            Expr::Read { buf, idx } => {
                if idx.is_empty() {
                    write!(f, "{buf}")
                } else {
                    let parts: Vec<String> = idx.iter().map(|e| e.to_string()).collect();
                    write!(f, "{buf}[{}]", parts.join(", "))
                }
            }
            Expr::Window { buf, idx } => {
                let parts: Vec<String> = idx
                    .iter()
                    .map(|w| match w {
                        WAccess::Point(e) => e.to_string(),
                        WAccess::Interval(lo, hi) => format!("{lo}:{hi}"),
                    })
                    .collect();
                write!(f, "{buf}[{}]", parts.join(", "))
            }
            Expr::Bin { op, lhs, rhs } => {
                let p = prec(*op);
                let lhs_s = if child_prec(lhs).map(|cp| cp < p).unwrap_or(false) {
                    format!("({lhs})")
                } else {
                    lhs.to_string()
                };
                let rhs_s = if child_prec(rhs)
                    .map(|cp| cp < p || (cp == p && !op.commutes()))
                    .unwrap_or(false)
                {
                    format!("({rhs})")
                } else {
                    rhs.to_string()
                };
                write!(f, "{lhs_s} {} {rhs_s}", op.symbol())
            }
            Expr::Un { op, arg } => match op {
                UnOp::Neg => write!(f, "-{}", paren(arg)),
                UnOp::Not => write!(f, "not {}", paren(arg)),
            },
            Expr::Stride { buf, dim } => write!(f, "stride({buf}, {dim})"),
            Expr::ReadConfig { config, field } => write!(f, "{config}.{field}"),
        }
    }
}

/// Renders a float literal so it round-trips and stays recognizable as a
/// float: Rust's shortest round-trip representation, with `.0` appended
/// when it would otherwise read as an integer (`1` → `1.0`), and the
/// non-finite values spelled `inf` / `-inf` / `nan` (never Rust's `NaN`),
/// which backends translate to their own non-finite spellings (the C
/// emitter uses `INFINITY` / `NAN` from `<math.h>`).
pub fn format_float(v: f64) -> String {
    if v.is_nan() {
        return "nan".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "inf" } else { "-inf" }.to_string();
    }
    // Rust's plain `{}` never uses scientific notation, so extreme
    // magnitudes would print as hundreds of digits; switch to `{:e}`
    // (also shortest-round-trip) outside a sane fixed-notation range.
    let s = if v != 0.0 && !(1e-4..1e16).contains(&v.abs()) {
        format!("{v:e}")
    } else {
        format!("{v}")
    };
    if s.bytes().all(|b| b.is_ascii_digit() || b == b'-') {
        format!("{s}.0")
    } else {
        s
    }
}

fn paren(e: &Expr) -> String {
    match e {
        Expr::Bin { .. } => format!("({e})"),
        _ => e.to_string(),
    }
}

/// Operator precedence for the pretty printer (higher binds tighter).
fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
    }
}

fn child_prec(e: &Expr) -> Option<u8> {
    match e {
        Expr::Bin { op, .. } => Some(prec(*op)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_overloads_build_binops() {
        let e = var("i") * ib(8) + var("j");
        // The lhs of the addition must itself be the multiplication;
        // asserted without panicking on the unexpected shapes so the
        // failure message always names the whole expression.
        assert!(
            matches!(
                &e,
                Expr::Bin {
                    op: BinOp::Add,
                    lhs,
                    ..
                } if matches!(lhs.as_ref(), Expr::Bin { op: BinOp::Mul, .. })
            ),
            "operator overloads built an unexpected shape: {e:?}"
        );
    }

    #[test]
    fn rewriting_tolerates_every_lhs_shape() {
        // Expression rewriting (substitution/renaming) must be total over
        // the `Expr` grammar: no lhs shape may panic, including windows,
        // strides and config reads appearing under binary operators.
        use crate::visit::{rename_expr, substitute_expr};
        let shapes: Vec<Expr> = vec![
            ib(1),
            fb(0.5),
            Expr::Bool(true),
            var("i"),
            read("A", vec![var("i")]),
            Expr::Window {
                buf: Sym::new("A"),
                idx: vec![WAccess::Interval(var("i"), var("i") + ib(8))],
            },
            Expr::Stride {
                buf: Sym::new("A"),
                dim: 0,
            },
            Expr::ReadConfig {
                config: Sym::new("cfg"),
                field: "stride".into(),
            },
            -var("i"),
        ];
        for lhs in shapes {
            let e = Expr::bin(BinOp::Add, lhs.clone(), var("i"));
            let s = substitute_expr(e.clone(), &Sym::new("i"), &ib(3));
            // Every occurrence of `i` must be substituted, in the rhs and
            // inside whatever shape the lhs has.
            assert!(!s.mentions(&Sym::new("i")), "`i` left behind in {s:?}");
            if let Expr::Bin { rhs, .. } = &s {
                assert_eq!(rhs.as_ref(), &ib(3), "rhs not substituted for {lhs:?}");
            }
            let r = rename_expr(e, &Sym::new("A"), &Sym::new("B"));
            assert!(
                !r.mentions(&Sym::new("A")),
                "rename left `A` behind in {r:?}"
            );
        }
    }

    #[test]
    fn display_matches_exo_syntax() {
        let e = read("y", vec![var("i")]);
        assert_eq!(e.to_string(), "y[i]");
        let e2 = var("a") * read("x", vec![ib(8) * var("io") + var("ii")]);
        assert_eq!(e2.to_string(), "a * x[8 * io + ii]");
        let w = Expr::Window {
            buf: Sym::new("A"),
            idx: vec![WAccess::Point(var("i")), WAccess::Interval(ib(0), ib(16))],
        };
        assert_eq!(w.to_string(), "A[i, 0:16]");
    }

    #[test]
    fn mentions_descends_into_subtrees() {
        let e = read("A", vec![var("i"), var("j") + ib(1)]);
        assert!(e.mentions(&Sym::new("j")));
        assert!(e.mentions(&Sym::new("A")));
        assert!(!e.mentions(&Sym::new("k")));
    }

    #[test]
    fn buffers_read_collects_nested() {
        let e = read("A", vec![var("i")]) * read("x", vec![var("j")]) + var("c");
        let bufs = e.buffers_read();
        assert!(bufs.contains(&Sym::new("A")));
        assert!(bufs.contains(&Sym::new("x")));
        assert_eq!(bufs.len(), 2);
    }

    #[test]
    fn commutes_and_predicates() {
        assert!(BinOp::Add.commutes());
        assert!(BinOp::Mul.commutes());
        assert!(!BinOp::Sub.commutes());
        assert!(BinOp::Lt.is_predicate());
        assert!(!BinOp::Add.is_predicate());
    }

    #[test]
    fn neg_display() {
        let e = -var("x");
        assert_eq!(e.to_string(), "-x");
    }

    #[test]
    fn float_literals_round_trip_and_stay_floats() {
        // Whole values must keep a decimal point so they cannot be
        // re-read (by a human or a C compiler) as integer literals.
        assert_eq!(fb(1.0).to_string(), "1.0");
        assert_eq!(fb(-2.0).to_string(), "-2.0");
        assert_eq!(fb(0.0).to_string(), "0.0");
        // Shortest representation round-trips exactly.
        for v in [
            0.1,
            1.0 / 3.0,
            -123456.75,
            1e300,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let s = format_float(v);
            assert_eq!(s.parse::<f64>().unwrap(), v, "no round-trip for {s}");
        }
        // Scientific notation is already unambiguous; no `.0` appended.
        assert_eq!(format_float(1e300), "1e300");
    }

    #[test]
    fn non_finite_floats_have_stable_lowercase_spellings() {
        assert_eq!(fb(f64::INFINITY).to_string(), "inf");
        assert_eq!(fb(f64::NEG_INFINITY).to_string(), "-inf");
        assert_eq!(fb(f64::NAN).to_string(), "nan");
    }
}
