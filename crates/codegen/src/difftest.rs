//! Compile-and-run differential testing: emitted C versus the
//! interpreter.
//!
//! The harness synthesizes concrete inputs from a procedure's signature
//! (sizes that satisfy its assertions, integer-valued random tensor data
//! so every intermediate is exactly representable in the narrowest C
//! type involved), runs the slot-indexed interpreter, emits portable C,
//! compiles it with the system C compiler, runs the binary, and asserts
//! per-element agreement on **every** tensor argument (all tensors are
//! treated as in/out).
//!
//! When no C compiler is on `PATH` the harness returns
//! [`DiffOutcome::Skipped`] and callers log a notice instead of failing —
//! CI always has `cc`, so the check cannot rot silently there.
//!
//! This is also the one module that knows how synthesized arguments
//! reach a compiled kernel — as data ([`emit_data_driver`] reads the
//! argument block [`encode_args`] writes, so its text depends on the
//! signature alone and one build checks, serves and, in [`TIMING_MODE`],
//! times every input) or as C declarations ([`emit_driver`], a one-file
//! reproducer that dumps) — what the `cc` command line is and where it
//! builds ([`cc_command`], [`BuildDir`]), what a compiler has already
//! parsed and built ([`Toolchain`]: one precompiled prelude per `cflags`
//! set, so `immintrin.h` is read once per owner instead of once per
//! compile, and one build per distinct source, so a unit is compiled once
//! per owner instead of once per request), and how a driver's `%.17g`
//! lines are run and parsed ([`run_lines`]). Which unit a host can run is
//! decided once, by [`crate::emit_runnable`]. The autotuner's measurement
//! and the compilation service call these; they add only their own
//! policy.

use crate::emit::c_type;
use crate::{emit_c, CUnit, CodegenOptions};
use exo_guard::{run_guarded, GuardConfig};
use exo_interp::{ArgValue, BufRef, Interpreter, NullMonitor, ProcRegistry};
use exo_ir::memo::ContentMemo;
use exo_ir::rng::Rng;
use exo_ir::{ArgKind, ContentHasher, DataType, Expr, Proc, Sym};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Supervision policy for `cc` invocations: generous wall-clock limit
/// (optimizing large units is slow under load), bounded diagnostics.
fn compile_guard() -> GuardConfig {
    GuardConfig::with_timeout(Duration::from_secs(120))
}

/// Supervision policy for running compiled test binaries: these print a
/// bounded tensor dump, or time a few hundred milliseconds of batches,
/// and exit, so a minute of wall clock means a hang.
fn run_guard() -> GuardConfig {
    GuardConfig::with_timeout(Duration::from_secs(60))
}

/// One synthesized argument, aligned with the procedure's signature.
#[derive(Clone, Debug)]
pub enum SynthArg {
    /// A `size` argument value.
    Size(i64),
    /// A floating-point scalar argument.
    Float(f64),
    /// An integer scalar argument.
    Int(i64),
    /// A boolean scalar argument.
    Bool(bool),
    /// A tensor argument: concrete dimensions and row-major data.
    Tensor {
        /// Concrete dimension sizes.
        dims: Vec<usize>,
        /// Row-major element values.
        data: Vec<f64>,
        /// Declared element type.
        elem: DataType,
        /// Whether the parameter is declared as a window.
        window: bool,
    },
}

/// Outcome of one differential run.
#[derive(Clone, Debug)]
pub enum DiffOutcome {
    /// The compiled C agreed with the interpreter.
    Agreed {
        /// Number of tensor buffers compared.
        buffers: usize,
        /// Total elements compared.
        elems: usize,
    },
    /// The check could not run (no C compiler); the payload says why.
    Skipped(String),
}

/// Whether a C compiler (`cc`) is available on `PATH`. Cached.
pub fn cc_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        // Probe under supervision: a wedged compiler wrapper would
        // otherwise hang every difftest at the very first check.
        let mut cmd = Command::new("cc");
        cmd.arg("--version");
        run_guarded(
            &mut cmd,
            &GuardConfig::with_timeout(Duration::from_secs(15)),
        )
        .map(|o| o.success)
        .unwrap_or(false)
    })
}

/// Every size argument of `proc` at the one shared value `size`, as
/// [`exo_ir::Expr::eval_int`] reads them.
fn size_env(proc: &Proc, size: i64) -> impl Fn(&Sym) -> Option<i64> + '_ {
    move |s| {
        proc.args()
            .iter()
            .any(|a| matches!(a.kind, ArgKind::Size) && a.name.name() == s.name())
            .then_some(size)
    }
}

/// The concrete extents of tensor argument `name`'s dimensions `dims`
/// with every size argument of `proc` at `size`.
fn extents(proc: &Proc, name: &Sym, dims: &[Expr], size: i64) -> Result<Vec<usize>, String> {
    dims.iter()
        .map(|d| {
            let v = d
                .eval_int(&size_env(proc, size))
                .ok_or_else(|| format!("cannot evaluate dimension `{d}` of `{name}`"))?;
            usize::try_from(v).map_err(|_| format!("negative dimension for `{name}`"))
        })
        .collect()
}

/// Synthesizes concrete arguments for `proc`: one shared size value that
/// satisfies every assertion precondition ([`choose_size`]), and
/// integer-valued random tensor data small enough that all arithmetic is
/// exact in the narrowest type involved (i8 data stays in `[-1, 1]` so
/// even length-64 reductions fit an `int8_t` store).
pub fn synth_inputs(proc: &Proc, seed: u64) -> Result<Vec<SynthArg>, String> {
    let size = choose_size(proc, &[32, 16, 64, 96, 8, 48, 4, 2, 1])?;
    let mut rng = Rng::new(seed ^ 0x9E3779B97F4A7C15);
    let mut out = Vec::with_capacity(proc.args().len());
    for arg in proc.args() {
        match &arg.kind {
            ArgKind::Size => out.push(SynthArg::Size(size)),
            ArgKind::Scalar { ty } => match ty {
                DataType::F32 | DataType::F64 => out.push(SynthArg::Float(rng.range(-3, 3) as f64)),
                DataType::Bool => out.push(SynthArg::Bool(true)),
                _ => out.push(SynthArg::Int(rng.range(-2, 2))),
            },
            ArgKind::Tensor {
                ty, dims, window, ..
            } => {
                let cdims = extents(proc, &arg.name, dims, size)?;
                let n: usize = cdims.iter().product::<usize>().max(1);
                let (lo, hi) = match ty {
                    DataType::I8 => (-1, 1),
                    DataType::I32 => (-2, 2),
                    DataType::Bool => (0, 1),
                    _ => (-8, 8),
                };
                let data: Vec<f64> = (0..n).map(|_| rng.range(lo, hi) as f64).collect();
                out.push(SynthArg::Tensor {
                    dims: cdims,
                    data,
                    elem: *ty,
                    window: *window,
                });
            }
        }
    }
    Ok(out)
}

/// The concrete shape of one procedure argument under a fixed size
/// assignment — what a timing driver needs to allocate and pass
/// (see [`arg_shapes`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ArgShape {
    /// A size argument and its concrete value.
    Size(i64),
    /// A scalar argument of the given element type.
    Scalar(DataType),
    /// A dense tensor argument: element type and per-dimension extents.
    Tensor(DataType, Vec<usize>),
}

/// Picks one shared value for every size argument of `proc`: the first
/// entry of `candidates` that satisfies all assertion preconditions.
/// [`synth_inputs`] picks from small sizes, which the interpreter
/// executes too and which [`emit_driver`] spells out as static C
/// initializers; the runtime bench picks from far larger ones.
///
/// # Errors
/// When no candidate satisfies the assertions.
pub fn choose_size(proc: &Proc, candidates: &[i64]) -> Result<i64, String> {
    candidates
        .iter()
        .copied()
        .find(|&size| {
            proc.preds()
                .iter()
                .all(|p| p.eval_bool(&size_env(proc, size)).unwrap_or(false))
        })
        .ok_or_else(|| {
            format!(
                "no candidate size in {candidates:?} satisfies the assertions of `{}`",
                proc.name()
            )
        })
}

/// Evaluates every argument of `proc` to its concrete [`ArgShape`] under
/// one shared size value (as chosen by [`choose_size`]).
///
/// # Errors
/// On window arguments (a timing driver cannot synthesize the window
/// struct ABI) and on dimension expressions that do not reduce to a
/// constant under the size assignment.
pub fn arg_shapes(proc: &Proc, size: i64) -> Result<Vec<ArgShape>, String> {
    let mut out = Vec::with_capacity(proc.args().len());
    for arg in proc.args() {
        match &arg.kind {
            ArgKind::Size => out.push(ArgShape::Size(size)),
            ArgKind::Scalar { ty } => out.push(ArgShape::Scalar(*ty)),
            ArgKind::Tensor {
                ty, dims, window, ..
            } => {
                if *window {
                    return Err(format!(
                        "`{}`: window argument `{}` is not supported by the timing driver",
                        proc.name(),
                        arg.name
                    ));
                }
                out.push(ArgShape::Tensor(*ty, extents(proc, &arg.name, dims, size)?));
            }
        }
    }
    Ok(out)
}

/// Converts synthesized inputs to interpreter arguments, moving each
/// tensor's data into its buffer; also returns the buffer behind every
/// tensor argument, in order.
pub fn interp_args(inputs: Vec<SynthArg>) -> (Vec<BufRef>, Vec<ArgValue>) {
    let mut bufs = Vec::new();
    let mut args = Vec::with_capacity(inputs.len());
    for input in inputs {
        match input {
            SynthArg::Size(v) | SynthArg::Int(v) => args.push(ArgValue::Int(v)),
            SynthArg::Float(v) => args.push(ArgValue::Float(v)),
            SynthArg::Bool(b) => args.push(ArgValue::Bool(b)),
            SynthArg::Tensor {
                dims, data, elem, ..
            } => {
                let (buf, arg) = ArgValue::from_vec(data, dims, elem);
                bufs.push(buf);
                args.push(arg);
            }
        }
    }
    (bufs, args)
}

/// Runs the interpreter on `proc` with the synthesized inputs and
/// returns the final contents of every tensor argument, in order.
pub fn interp_outputs(
    proc: &Proc,
    registry: &ProcRegistry,
    inputs: &[SynthArg],
) -> Result<Vec<Vec<f64>>, String> {
    let (bufs, args) = interp_args(inputs.to_vec());
    let mut interp = Interpreter::new(registry);
    interp
        .run(proc, args, &mut NullMonitor)
        .map_err(|e| format!("interpreter failed on `{}`: {e}", proc.name()))?;
    Ok(bufs
        .iter()
        .map(|b| std::mem::take(&mut b.borrow_mut().data))
        .collect())
}

fn c_literal(elem: DataType, v: f64) -> String {
    if elem.is_float() {
        exo_ir::format_float(v)
    } else {
        format!("{}", v as i64)
    }
}

/// How a tensor variable is passed to the kernel: the bare pointer, or —
/// for a window parameter of rank ≥ 1 — the window struct over it with
/// the given (dense row-major) stride expressions, one per dimension.
fn tensor_arg(var: &str, elem: DataType, window: bool, strides: &[String]) -> String {
    if strides.is_empty() || !window {
        return var.to_string();
    }
    let tag = exo_machine::c_type_tag(elem);
    format!(
        "(struct exo_win_{}{tag}){{ {var}, {{ {} }} }}",
        strides.len(),
        strides.join(", ")
    )
}

/// The tail of a dump driver's `main`: one kernel call, then every
/// tensor — `(variable, length expression)` — printed `%.17g` per line.
fn call_and_dump(s: &mut String, call: &str, tensors: &[(String, String)]) {
    s.push_str(&format!("    {call};\n"));
    for (var, n) in tensors {
        s.push_str(&format!(
            "    for (int64_t exo_i = 0; exo_i < {n}; exo_i++) {{\n        \
             printf(\"%.17g\\n\", (double){var}[exo_i]);\n    }}\n"
        ));
    }
}

/// Declares every tensor of `inputs` as a static initialized array
/// `exo_arg_<k>` in `s` and returns the kernel's call arguments plus the
/// `(variable, length)` of each declared tensor.
fn materialize_args(s: &mut String, inputs: &[SynthArg]) -> (Vec<String>, Vec<(String, String)>) {
    let mut call_args = Vec::with_capacity(inputs.len());
    let mut tensors = Vec::new();
    for (k, input) in inputs.iter().enumerate() {
        let var = format!("exo_arg_{k}");
        match input {
            SynthArg::Size(v) | SynthArg::Int(v) => call_args.push(format!("{v}")),
            SynthArg::Float(v) => call_args.push(exo_ir::format_float(*v)),
            SynthArg::Bool(b) => call_args.push(if *b { "1" } else { "0" }.to_string()),
            SynthArg::Tensor {
                dims,
                data,
                elem,
                window,
            } => {
                let celem = c_type(*elem);
                let n = data.len();
                let init: Vec<String> = data.iter().map(|v| c_literal(*elem, *v)).collect();
                s.push_str(&format!(
                    "    static {celem} {var}[{n}] = {{ {} }};\n",
                    init.join(", ")
                ));
                let mut strides = vec![1i64; dims.len()];
                for d in (0..dims.len().saturating_sub(1)).rev() {
                    strides[d] = strides[d + 1] * dims[d + 1] as i64;
                }
                let strides: Vec<String> = strides.iter().map(|v| v.to_string()).collect();
                call_args.push(tensor_arg(&var, *elem, *window, &strides));
                tensors.push((var, n.to_string()));
            }
        }
    }
    (call_args, tensors)
}

/// Appends a `main` driver to an emitted unit: inputs embedded as static
/// initializers, one kernel call, and a `%.17g` dump of every tensor.
/// The result is a self-contained reproducer — and a different
/// translation unit for every input, which is why the harness and the
/// service run [`emit_data_driver`] instead.
pub fn emit_driver(unit: &CUnit, proc: &Proc, inputs: &[SynthArg]) -> String {
    let mut s = String::with_capacity(unit.code.len() + 4096);
    s.push_str(&unit.code);
    s.push_str("\n#include <stdio.h>\n\nint main(void) {\n");
    let (call_args, dumps) = materialize_args(&mut s, inputs);
    let call = format!("{}({})", proc.name(), call_args.join(", "));
    call_and_dump(&mut s, &call, &dumps);
    s.push_str("    return 0;\n}\n");
    s
}

/// First word of an argument block: `EXO2ARGS` read as a little-endian
/// integer and written in host byte order like every other field, so a
/// block from a host of the other endianness fails here.
const ARGS_MAGIC: u64 = u64::from_le_bytes(*b"EXO2ARGS");
/// Second word of an argument block.
const ARGS_VERSION: u64 = 1;

/// The tag that opens each argument of a block.
const TAG_SIZE: u64 = 0;
const TAG_INT: u64 = 1;
const TAG_BOOL: u64 = 2;
const TAG_FLOAT: u64 = 3;
const TAG_TENSOR: u64 = 4;

/// Encodes synthesized arguments as the argument block a data driver
/// ([`emit_data_driver`]) reads. Every field is eight bytes in host byte
/// order: magic, version, argument count; then per argument a tag and a
/// payload — an `i64` for a size, an integer or a boolean, an `f64` for a
/// float scalar, and for a tensor its rank, that many dimensions, its
/// element count and that many `f64` elements. An element holds the value
/// the embedded-literal driver would spell (integer element types
/// truncate as [`emit_driver`]'s literals do), and the driver converts it
/// to the element type as C converts that literal, so both drivers hand
/// the kernel the same bits.
pub fn encode_args(inputs: &[SynthArg]) -> Vec<u8> {
    let mut words: Vec<u64> = vec![ARGS_MAGIC, ARGS_VERSION, inputs.len() as u64];
    for input in inputs {
        match input {
            SynthArg::Size(v) => words.extend([TAG_SIZE, *v as u64]),
            SynthArg::Int(v) => words.extend([TAG_INT, *v as u64]),
            SynthArg::Bool(b) => words.extend([TAG_BOOL, u64::from(*b)]),
            SynthArg::Float(v) => words.extend([TAG_FLOAT, v.to_bits()]),
            SynthArg::Tensor {
                dims, data, elem, ..
            } => {
                words.extend([TAG_TENSOR, dims.len() as u64]);
                words.extend(dims.iter().map(|d| *d as u64));
                words.push(data.len() as u64);
                words.extend(data.iter().map(|v| {
                    if elem.is_float() {
                        v.to_bits()
                    } else {
                        ((*v as i64) as f64).to_bits()
                    }
                }));
            }
        }
    }
    words.iter().flat_map(|w| w.to_ne_bytes()).collect()
}

/// The argument that puts a data driver ([`emit_data_driver`]) in timing
/// mode: `kernel time <block>` prints [`TIMED_RUNS`] ns-per-call lines
/// instead of the tensors.
pub const TIMING_MODE: &str = "time";

/// Timed batches per run of a data driver in timing mode: each batch
/// times the whole repetition loop and prints its own ns-per-call, so the
/// summary can take a median instead of trusting one sample of a noisy
/// timer.
pub const TIMED_RUNS: usize = 5;

/// Minimum wall-clock span of one timed batch, in nanoseconds (20 ms).
/// The driver doubles its repetition count from 1 until a calibration
/// batch reaches this: below it, timer granularity and scheduler noise
/// drown out sub-microsecond kernels and the measured ranking is
/// meaningless.
const MIN_BATCH_NS: f64 = 2e7;

/// `clock_gettime` is POSIX, hidden by `-std=c99` unless this is defined
/// before the first include — the first line of a data driver and of
/// the precompiled prelude ([`Toolchain`]), which `-include` puts ahead
/// of it.
const POSIX_DEFINE: &str = "#define _POSIX_C_SOURCE 199309L\n";

/// The timer of a data driver, below its kernel, its statics and
/// `exo_call` (the one kernel call): `exo_time` warms the kernel with two
/// calls (page faults, frequency ramp), doubles the repetition count
/// from 1 until one batch spans [`MIN_BATCH_NS`] (or reaches `1 << 20`
/// calls), then times [`TIMED_RUNS`] batches with `CLOCK_MONOTONIC` and
/// prints each batch's nanoseconds per call on its own line. It keeps
/// the command line's optimisation level: it sits above [`DECODER`].
const TIMER: &str = r#"
static double exo_batch(long exo_reps) {
    struct timespec exo_t0, exo_t1;
    clock_gettime(CLOCK_MONOTONIC, &exo_t0);
    for (long exo_r = 0; exo_r < exo_reps; exo_r++) exo_call();
    clock_gettime(CLOCK_MONOTONIC, &exo_t1);
    return (double)(exo_t1.tv_sec - exo_t0.tv_sec) * 1e9 + (double)(exo_t1.tv_nsec - exo_t0.tv_nsec);
}

static void exo_time(void) {
    exo_call();
    exo_call();
    long exo_reps = 1;
    while (exo_batch(exo_reps) < MIN_BATCH_NS && exo_reps < (1L << 20)) exo_reps *= 2;
    for (int exo_run = 0; exo_run < TIMED_RUNS; exo_run++) {
        printf("%.17g\n", exo_batch(exo_reps) / exo_reps);
    }
}
"#;

/// The decoder of every data driver. It is the only code here that
/// parses bytes it did not write: each read is checked against the bytes
/// remaining, and a block it cannot accept ends the process with status 2
/// and a message naming the field. Everything from here on runs once over
/// a few kilobytes, so GCC is told not to optimise it: at `-O2` the
/// driver's own code was 40 of the 105 ms `cc` spent on sgemv_n's AVX2
/// unit (69 ms with the pragma, what the embedded-literal driver costs);
/// the kernel and [`TIMER`] above keep the command line's level.
const DECODER: &str = r#"
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize ("O0")
#endif

static const unsigned char *exo_at;
static uint64_t exo_left;

static void exo_bad(const char *field, const char *why) {
    fprintf(stderr, "argument block: %s: %s\n", field, why);
    exit(2);
}

static void exo_take(void *dst, uint64_t n, const char *field) {
    if (n > exo_left) exo_bad(field, "truncated");
    memcpy(dst, exo_at, (size_t)n);
    exo_at += n;
    exo_left -= n;
}

static void exo_expect(uint64_t want, const char *field, const char *why) {
    uint64_t got;
    exo_take(&got, 8, field);
    if (got != want) exo_bad(field, why);
}
"#;

/// Reads a tensor's header — tag, rank, dimensions, element count — and
/// returns the count, with the dense row-major strides in `strides`.
/// Every suffix product of the dimensions must fit an `int64_t`, the
/// count must cover their product, and that many elements must follow.
/// (`TAG_TENSOR` is spelled out by [`emit_data_driver`].)
const TENSOR_DECODER: &str = r#"
static int64_t exo_tensor(uint64_t rank, uint64_t *dims, int64_t *strides, const char *field) {
    exo_expect(TAG_TENSOR, field, "not a tensor");
    exo_expect(rank, field, "rank differs from the signature's");
    for (uint64_t d = 0; d < rank; d++) exo_take(&dims[d], 8, field);
    uint64_t span = 1;
    for (uint64_t d = rank; d-- > 0;) {
        strides[d] = (int64_t)span;
        if (dims[d] != 0 && span > (uint64_t)INT64_MAX / dims[d]) exo_bad(field, "dimensions overflow");
        span *= dims[d];
    }
    uint64_t len;
    exo_take(&len, 8, field);
    if (len == 0 || len < span) exo_bad(field, "fewer elements than its dimensions span");
    if (len > exo_left / 8) exo_bad(field, "truncated");
    return (int64_t)len;
}
"#;

/// Appends to an emitted unit a `main(argc, argv)` that reads the
/// argument block ([`encode_args`]) in the file named by its last
/// argument, allocates and fills every tensor, then either calls the
/// kernel once and dumps every tensor as [`emit_driver`] does, or — after
/// [`TIMING_MODE`] — warms the kernel with two calls, doubles a
/// repetition count from 1 until one batch spans 20 ms (at most `1 << 20`
/// calls), and prints the ns per call of [`TIMED_RUNS`] batches, one per
/// line. The text is a function of the procedure's signature only —
/// never of an input — so one build checks, serves and times every input
/// of the kernel. `unit` is the unit's text: a [`CUnit`], or the text a
/// caller keeps of one.
pub fn emit_data_driver(unit: &(impl AsRef<str> + ?Sized), proc: &Proc) -> String {
    let unit = unit.as_ref();
    let args = proc.args();
    // Decoded arguments live in file-scope statics, so that the call and
    // the timer can sit above the decoder's pragma.
    let mut statics = String::new();
    let mut decode = String::new();
    let mut call_args = Vec::with_capacity(args.len());
    let mut tensors = Vec::new();
    for (k, arg) in args.iter().enumerate() {
        let var = format!("exo_arg_{k}");
        let field = format!("\"argument {k} ({})\"", arg.name);
        let mut scalar = |ctype: &str, tag: u64, what: &str| {
            statics.push_str(&format!("static {ctype} {var};\n"));
            decode.push_str(&format!(
                "    exo_expect({tag}, {field}, \"not {what}\");\n    exo_take(&{var}, 8, {field});\n"
            ));
            call_args.push(var.clone());
        };
        match &arg.kind {
            ArgKind::Size => scalar("int64_t", TAG_SIZE, "a size"),
            ArgKind::Scalar { ty } if ty.is_float() => scalar("double", TAG_FLOAT, "a float"),
            ArgKind::Scalar { ty: DataType::Bool } => scalar("int64_t", TAG_BOOL, "a boolean"),
            ArgKind::Scalar { .. } => scalar("int64_t", TAG_INT, "an integer"),
            ArgKind::Tensor {
                ty, dims, window, ..
            } => {
                let (celem, rank) = (c_type(*ty), dims.len());
                let slots = rank.max(1);
                // Converting a double outside an integer type's range is
                // undefined in C: the block is refused instead.
                let in_range = match ty {
                    DataType::I8 => Some("-128.0 && exo_v < 128.0"),
                    DataType::I32 => Some("-2147483648.0 && exo_v < 2147483648.0"),
                    DataType::Index => {
                        Some("-9223372036854775808.0 && exo_v < 9223372036854775808.0")
                    }
                    DataType::F32 | DataType::F64 | DataType::Bool => None,
                }
                .map_or(String::new(), |range| {
                    format!(
                        "if (!(exo_v >= {range})) exo_bad({field}, \"element outside {celem}\");\n        "
                    )
                });
                statics.push_str(&format!(
                    "static {celem} *{var};\nstatic int64_t exo_str_{k}[{slots}];\n"
                ));
                decode.push_str(&format!(
                    "    uint64_t exo_dims_{k}[{slots}];\n    \
                     int64_t exo_len_{k} = exo_tensor({rank}, exo_dims_{k}, exo_str_{k}, {field});\n    \
                     {var} = ({celem} *)malloc((size_t)exo_len_{k} * sizeof({celem}));\n    \
                     if (!{var}) exo_bad({field}, \"allocation failed\");\n    \
                     for (int64_t exo_i = 0; exo_i < exo_len_{k}; exo_i++) {{\n        \
                     double exo_v;\n        exo_take(&exo_v, 8, {field});\n        \
                     {in_range}{var}[exo_i] = ({celem})exo_v;\n    }}\n"
                ));
                let strides: Vec<String> = (0..rank).map(|d| format!("exo_str_{k}[{d}]")).collect();
                call_args.push(tensor_arg(&var, *ty, *window, &strides));
                tensors.push((var, format!("exo_len_{k}")));
            }
        }
    }
    let mut s = String::with_capacity(unit.len() + 8192);
    s.push_str(POSIX_DEFINE);
    s.push_str(unit);
    s.push_str(
        "\n#include <stdint.h>\n#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n\
         #include <time.h>\n\n",
    );
    s.push_str(&statics);
    // Through a volatile pointer, so that `cc` inlines the kernel nowhere:
    // the dump and the timer both run the one out-of-line function, and
    // the kernel is not optimised once more per call site.
    s.push_str(&format!(
        "\nstatic __typeof__({name}) *volatile exo_kernel = {name};\n\n\
         static void exo_call(void) {{\n    exo_kernel({});\n}}\n",
        call_args.join(", "),
        name = proc.name(),
    ));
    s.push_str(
        &TIMER
            .replace("MIN_BATCH_NS", &format!("{MIN_BATCH_NS:.1}"))
            .replace("TIMED_RUNS", &TIMED_RUNS.to_string()),
    );
    s.push_str(DECODER);
    if args
        .iter()
        .any(|a| matches!(a.kind, ArgKind::Tensor { .. }))
    {
        s.push_str(&TENSOR_DECODER.replace("TAG_TENSOR", &TAG_TENSOR.to_string()));
    }
    s.push_str(&format!(
        r#"
int main(int argc, char **argv) {{
    if (argc != 2 && argc != 3) exo_bad("command line", "expected [{TIMING_MODE}] and the path of one argument block");
    if (argc == 3 && strcmp(argv[1], "{TIMING_MODE}") != 0) exo_bad("mode", "not `{TIMING_MODE}`");
    const char *exo_path = argv[argc - 1];
    FILE *exo_file = fopen(exo_path, "rb");
    if (!exo_file) exo_bad(exo_path, "cannot open");
    if (fseek(exo_file, 0, SEEK_END) != 0) exo_bad(exo_path, "cannot seek");
    long exo_size = ftell(exo_file);
    if (exo_size < 0) exo_bad(exo_path, "cannot tell its size");
    rewind(exo_file);
    unsigned char *exo_block = (unsigned char *)malloc((size_t)exo_size + 1);
    if (!exo_block) exo_bad(exo_path, "allocation failed");
    if (fread(exo_block, 1, (size_t)exo_size, exo_file) != (size_t)exo_size) exo_bad(exo_path, "cannot read");
    fclose(exo_file);
    exo_at = exo_block;
    exo_left = (uint64_t)exo_size;
    exo_expect(UINT64_C({ARGS_MAGIC:#x}), "magic", "not an argument block of this host");
    exo_expect({ARGS_VERSION}, "version", "unsupported");
    exo_expect({}, "argument count", "differs from the signature's");
{decode}    if (exo_left != 0) exo_bad("end of block", "trailing bytes");
    free(exo_block);
    if (argc == 3) {{
        exo_time();
        return 0;
    }}
"#,
        args.len()
    ));
    call_and_dump(&mut s, "exo_call()", &tensors);
    for (var, _) in &tensors {
        s.push_str(&format!("    free({var});\n"));
    }
    s.push_str("    return 0;\n}\n");
    s
}

/// Reduces the per-batch ns-per-call samples of one timing run to
/// `(median, relative spread)`. The median — not the mean — is what
/// ranks candidates: one descheduled batch inflates a mean enough to
/// flip adjacent ranks, while the median ignores it. Returns `None` on
/// an empty slice.
pub fn summarize_runs(runs: &[f64]) -> Option<(f64, f64)> {
    if runs.is_empty() {
        return None;
    }
    let mut sorted = runs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    let spread = if median > 0.0 {
        (sorted[n - 1] - sorted[0]) / median
    } else {
        0.0
    };
    Some((median, spread))
}

/// A fresh directory under the system temp directory holding one
/// compilation's source and its artifact. Dropping it removes the
/// directory, on every return path of whoever holds it.
#[derive(Debug)]
pub struct BuildDir {
    artifact: PathBuf,
    /// The precompiled prelude a [`Toolchain::command`] passes to the
    /// compile of this directory's source, kept on disk — through the
    /// prelude's eviction — for as long as the compile may read it.
    prelude: Option<Arc<BuildDir>>,
}

impl BuildDir {
    /// Creates `exo_codegen_<pid>_<n>_<tag>/`, which will hold `artifact`.
    fn create(tag: &str, artifact: &str) -> Result<BuildDir, String> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "exo_codegen_{}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
            tag
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(BuildDir {
            artifact: dir.join(artifact),
            prelude: None,
        })
    }

    /// Writes `contents` to `file` beside the artifact and returns its path.
    fn write(&self, file: &str, contents: impl AsRef<[u8]>) -> Result<PathBuf, String> {
        let path = self.artifact.with_file_name(file);
        std::fs::write(&path, contents)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// The compiled binary (`kernel`) or object file (`kernel.o`).
    pub fn artifact(&self) -> &Path {
        &self.artifact
    }

    /// Gives the directory up: returns the artifact's path, and removing
    /// its parent directory becomes the caller's job.
    pub fn into_artifact(mut self) -> PathBuf {
        // The emptied path has no parent, so the drop removes nothing.
        std::mem::take(&mut self.artifact)
    }
}

impl Drop for BuildDir {
    fn drop(&mut self) {
        if let Some(dir) = self.artifact.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// What every `cc` invocation of the harness starts with — kernels and
/// the precompiled prelude alike, or GCC would ignore the prelude.
const BASE_CFLAGS: [&str; 4] = ["-O2", "-Wall", "-Werror", "-std=c99"];

/// What a compile produces.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Artifact {
    /// A linked binary, `kernel`: the source defines `main`.
    Executable,
    /// An object file, `kernel.o`: compiled with `-c`, nothing is linked.
    Object,
}

/// Why a build produced no artifact. The variant is the fact a caller
/// classifies by; the payload is the text a person reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The compiler ran and refused the source: its exit status and
    /// diagnostics.
    Failed(String),
    /// The compiler was killed at the guard's wall-clock deadline.
    TimedOut(String),
    /// No compiler ran: it could not be spawned or observed, or the
    /// build directory could not be set up.
    Unavailable(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (BuildError::Failed(m) | BuildError::TimedOut(m) | BuildError::Unavailable(m)) = self;
        f.write_str(m)
    }
}

/// Writes `source` into a fresh [`BuildDir`] and returns the command
/// `program -O2 -Wall -Werror -std=c99 <extra_cflags>` that builds it
/// into the `kind` of artifact asked for. The command is not run here,
/// so each caller supervises it under its own guard policy.
pub fn cc_command(
    program: &str,
    source: &str,
    extra_cflags: &[String],
    tag: &str,
    kind: Artifact,
) -> Result<(Command, BuildDir), String> {
    let link = kind == Artifact::Executable;
    let build = BuildDir::create(tag, if link { "kernel" } else { "kernel.o" })?;
    let src = build.write("kernel.c", source)?;
    let mut cmd = Command::new(program);
    cmd.args(BASE_CFLAGS);
    cmd.args(extra_cflags);
    if !link {
        cmd.arg("-c");
    }
    cmd.arg("-o").arg(&build.artifact).arg(&src);
    if link {
        cmd.arg("-lm");
    }
    Ok((cmd, build))
}

/// Runs a compiler command under `guard`: the one place where an exit
/// status or a guard error becomes a [`BuildError`].
pub fn run_compiler(cmd: &mut Command, guard: &GuardConfig) -> Result<(), BuildError> {
    let program = cmd.get_program().to_string_lossy().into_owned();
    match run_guarded(cmd, guard) {
        Ok(out) if out.success => Ok(()),
        Ok(out) => Err(BuildError::Failed(format!(
            "{program} exited {:?}:\n{}",
            out.code,
            out.stderr_lossy()
        ))),
        Err(e) if e.is_timeout() => Err(BuildError::TimedOut(format!("{program}: {e}"))),
        Err(e) => Err(BuildError::Unavailable(format!(
            "cannot run {program}: {e}"
        ))),
    }
}

/// Runs a [`cc_command`] under `guard` and hands its directory on.
fn run_cc(
    command: Result<(Command, BuildDir), String>,
    guard: &GuardConfig,
) -> Result<BuildDir, BuildError> {
    let (mut cmd, mut build) = command.map_err(BuildError::Unavailable)?;
    run_compiler(&mut cmd, guard)?;
    // The artifact is built: the prelude may go.
    build.prelude = None;
    Ok(build)
}

/// The include that dominates a native unit's compile: `cc` spends about
/// 270 of its 340 ms parsing it. Sources that carry it get the prelude.
const PRELUDE_MARKER: &str = "#include <immintrin.h>";

/// Builds a [`Toolchain`] keeps at most. A build directory of the
/// largest unit served — sgemm's AVX-512 record with its data driver —
/// holds 39 kB of source and a 29 kB binary, and the key keeps the source
/// once more in memory: ≈ 3.5 MB of disk and 1.3 MB of heap at the cap.
/// `cold_native` holds 3 units per service, the fault-injection soak 8.
pub const BUILD_CACHE_CAP: usize = 32;

/// Preludes a [`Toolchain`] keeps at most. One is ≈ 24 MB of disk (the
/// `.gch` of `<immintrin.h>` under `-mavx2 -mfma`), and the emitter asks
/// for at most four `cflags` sets — AVX2 or AVX-512, each with or without
/// `-fopenmp` — so the cap evicts only on flags the library never emits.
pub const PRELUDE_CACHE_CAP: usize = 4;

/// What a memoised build is made from — artifact kind, `cflags`, source
/// text — compared in full on every lookup, so that no hash collision
/// can ever run the wrong kernel.
type BuildKey = (Artifact, Vec<String>, String);

/// A handle on a memoised build of a [`Toolchain`]. The artifact stays
/// on disk for as long as a handle exists — through eviction and through
/// the toolchain's own drop — so a binary is never deleted mid-run.
#[derive(Clone, Debug)]
pub struct SharedBuild {
    dir: Arc<BuildDir>,
    reused: bool,
}

impl SharedBuild {
    /// The compiled binary (`kernel`) or object file (`kernel.o`).
    pub fn artifact(&self) -> &Path {
        self.dir.artifact()
    }

    /// Whether the compiler did not run for this lookup: the toolchain
    /// had built the artifact already (or a concurrent lookup was
    /// building it, and this one waited).
    pub fn reused(&self) -> bool {
        self.reused
    }
}

/// A C compiler plus what it has already parsed and built, in two
/// [`ContentMemo`]s: lookups of one key wait for its first build, other
/// keys build beside it, and each memo evicts its least recently used
/// entry at its bound.
///
/// Per distinct `cflags` set it keeps a precompiled header of the fixed
/// include block every native unit starts with, built on first use and
/// passed to later compiles with `-include`, at most
/// [`PRELUDE_CACHE_CAP`] of them. The preludes are private to their
/// owner: each sits in its own [`BuildDir`] and goes when the toolchain is
/// dropped or evicts it, and no compile is running with it. GCC silently
/// ignores a `.gch` built with other flags but fails hard on a truncated
/// one, so a prelude is keyed by the full `cflags`, never shared between
/// processes and never reused from an earlier run. A prelude that cannot
/// be built is remembered as such, and the command is then exactly
/// [`cc_command`]'s.
///
/// Per distinct (artifact kind, `cflags`, source text) it keeps what
/// [`Toolchain::executable`] and [`Toolchain::object`] built, at most
/// [`BUILD_CACHE_CAP`] of them. A failed or timed-out build is handed to
/// the lookups waiting for it and not kept. Eviction and the toolchain's
/// drop only give up the cache's own handle: a directory goes once the
/// last [`SharedBuild`] on it has gone too.
#[derive(Debug)]
pub struct Toolchain {
    program: String,
    guard: GuardConfig,
    /// Per `cflags` set asked for: the directory holding `prelude.h` and
    /// `prelude.h.gch`, or why it could not be built.
    preludes: ContentMemo<Vec<String>, Result<Arc<BuildDir>, String>>,
    preludes_built: AtomicU64,
    builds: ContentMemo<BuildKey, Result<Arc<BuildDir>, BuildError>>,
}

/// The content hash of `value`, as the toolchain's memos are keyed.
fn content_hash(value: &impl Hash) -> u64 {
    let mut h = ContentHasher::new();
    value.hash(&mut h);
    h.finish()
}

impl Toolchain {
    /// A toolchain around the compiler `program`, whose compiler runs
    /// are supervised by `guard`.
    pub fn new(program: &str, guard: GuardConfig) -> Self {
        Toolchain {
            program: program.to_string(),
            guard,
            preludes: ContentMemo::new(PRELUDE_CACHE_CAP),
            preludes_built: AtomicU64::new(0),
            builds: ContentMemo::new(BUILD_CACHE_CAP),
        }
    }

    /// The system `cc` under the harness's own compile deadline.
    pub fn system() -> Self {
        Toolchain::new("cc", compile_guard())
    }

    /// Preludes built so far (failed builds and reuses not counted).
    pub fn preludes_built(&self) -> u64 {
        self.preludes_built.load(Ordering::Relaxed)
    }

    /// Builds and preludes evicted at [`BUILD_CACHE_CAP`] and
    /// [`PRELUDE_CACHE_CAP`] so far.
    pub fn evictions(&self) -> u64 {
        self.builds.stats().evictions + self.preludes.stats().evictions
    }

    /// [`cc_command`] for this toolchain's compiler, plus `-include
    /// <prelude.h>` when `source` includes `<immintrin.h>` and the
    /// prelude for `cflags` exists or can be built now.
    pub fn command(
        &self,
        source: &str,
        cflags: &[String],
        tag: &str,
        kind: Artifact,
    ) -> Result<(Command, BuildDir), String> {
        let (mut cmd, mut build) = cc_command(&self.program, source, cflags, tag, kind)?;
        if source.contains(PRELUDE_MARKER) {
            if let Some(prelude) = self.prelude(cflags) {
                cmd.arg("-include")
                    .arg(prelude.artifact().with_extension(""));
                build.prelude = Some(prelude);
            }
        }
        Ok((cmd, build))
    }

    /// Compiles `source` under this toolchain's guard into a directory
    /// of the caller's own; nothing is remembered.
    pub fn build(
        &self,
        source: &str,
        cflags: &[String],
        tag: &str,
        kind: Artifact,
    ) -> Result<BuildDir, BuildError> {
        let _span = exo_obs::span!("difftest:compile", "{}", tag);
        run_cc(self.command(source, cflags, tag, kind), &self.guard)
    }

    /// The linked binary of `source` (which defines `main`) under
    /// `cflags`: built by the first lookup as [`Toolchain::build`] builds
    /// it, handed out again by every later one.
    pub fn executable(
        &self,
        source: &str,
        cflags: &[String],
        tag: &str,
    ) -> Result<SharedBuild, BuildError> {
        self.memoised(source, cflags, tag, Artifact::Executable)
    }

    /// The object file of `source` under `cflags`, memoised like
    /// [`Toolchain::executable`].
    pub fn object(
        &self,
        source: &str,
        cflags: &[String],
        tag: &str,
    ) -> Result<SharedBuild, BuildError> {
        self.memoised(source, cflags, tag, Artifact::Object)
    }

    /// Looks the build up; the first lookup of a key builds it while
    /// lookups of the same key wait for it, and different keys build in
    /// parallel.
    fn memoised(
        &self,
        source: &str,
        cflags: &[String],
        tag: &str,
        kind: Artifact,
    ) -> Result<SharedBuild, BuildError> {
        let key: BuildKey = (kind, cflags.to_vec(), source.to_string());
        let mut built_ms = 0.0;
        let (result, built) =
            self.builds
                .get_or_init(content_hash(&key), &key, Result::is_ok, || {
                    let started = Instant::now();
                    let built = self.build(source, cflags, tag, kind).map(Arc::new);
                    built_ms = started.elapsed().as_secs_f64() * 1e3;
                    built
                });
        exo_obs::event("difftest:build", || match (&result, built) {
            (Err(_), _) => format!("failed {tag}"),
            (Ok(_), true) => format!("built {built_ms:.0} {tag}"),
            (Ok(_), false) => format!("reused {tag}"),
        });
        // Lookups that were waiting share an error; the next one builds
        // again.
        result.map(|dir| SharedBuild {
            dir,
            reused: !built,
        })
    }

    /// Compiles `unit` under its data driver ([`emit_data_driver`]), runs
    /// it once in [`TIMING_MODE`] on `inputs` and returns `(median ns per
    /// call, relative spread)` over its [`TIMED_RUNS`] batches. Nothing
    /// is memoised: every candidate timed is a different unit.
    pub fn time_kernel(
        &self,
        unit: &CUnit,
        proc: &Proc,
        inputs: &[SynthArg],
    ) -> Result<(f64, f64), String> {
        let driver = emit_data_driver(unit, proc);
        let build = self
            .build(&driver, &unit.cflags, proc.name(), Artifact::Executable)
            .map_err(|e| e.to_string())?;
        let mut cmd = Command::new(build.artifact());
        cmd.arg(TIMING_MODE);
        let runs = run_data_driver(&mut cmd, &encode_args(inputs), &run_guard())
            .map_err(|e| format!("driver binary of `{}`: {e}", proc.name()))?;
        summarize_runs(&runs)
            .ok_or_else(|| format!("timing binary for `{}` printed no runs", proc.name()))
    }

    /// The directory of the `prelude.h` whose precompiled form was built
    /// with `cflags`, building it on the first lookup. Concurrent lookups
    /// wait for a build in progress rather than starting their own.
    fn prelude(&self, cflags: &[String]) -> Option<Arc<BuildDir>> {
        let mut built_ms = 0.0;
        let (prelude, built) = self.preludes.get_or_init(
            content_hash(&cflags),
            &cflags.to_vec(),
            |_| true,
            || {
                let _span = exo_obs::span!("difftest:prelude", "{}", cflags.join(" "));
                let started = Instant::now();
                let prelude = self.build_prelude(cflags).map(Arc::new);
                built_ms = started.elapsed().as_secs_f64() * 1e3;
                if prelude.is_ok() {
                    self.preludes_built.fetch_add(1, Ordering::Relaxed);
                }
                prelude
            },
        );
        exo_obs::event("difftest:prelude", || match (&prelude, built) {
            (Err(reason), _) => format!("unavailable: {reason}"),
            (Ok(_), true) => format!("built {built_ms:.0} {}", cflags.join(" ")),
            (Ok(_), false) => "reused".to_string(),
        });
        prelude.ok()
    }

    /// Precompiles the include block of a native unit with exactly the
    /// flags its compiles will use. The text begins with the data
    /// driver's `_POSIX_C_SOURCE` line: `-include` runs `features.h`
    /// before the driver's own `#define`, and `clock_gettime` would be
    /// gone under `-std=c99`. A failed or killed build leaves nothing
    /// behind (the directory goes with the error).
    fn build_prelude(&self, cflags: &[String]) -> Result<BuildDir, String> {
        let dir = BuildDir::create("prelude", "prelude.h.gch")?;
        let header = dir.write(
            "prelude.h",
            format!("{POSIX_DEFINE}#include <stdint.h>\n#include <string.h>\n{PRELUDE_MARKER}\n"),
        )?;
        let mut cmd = Command::new(&self.program);
        cmd.args(BASE_CFLAGS).args(cflags).args(["-x", "c-header"]);
        cmd.arg(&header).arg("-o").arg(dir.artifact());
        run_compiler(&mut cmd, &self.guard).map_err(|e| e.to_string())?;
        Ok(dir)
    }
}

/// Compiles `source` with the system `cc` ([`cc_command`]) under the
/// harness's own compile deadline.
fn system_build(
    source: &str,
    extra_cflags: &[String],
    tag: &str,
    kind: Artifact,
) -> Result<BuildDir, BuildError> {
    let _span = exo_obs::span!("difftest:compile", "{}", tag);
    run_cc(
        cc_command("cc", source, extra_cflags, tag, kind),
        &compile_guard(),
    )
}

/// Compiles a self-contained C source with the system `cc` under the
/// harness's own compile deadline: linked when the text defines
/// `int main(void)` (as [`emit_driver`]'s does), an object file
/// otherwise. The error carries the compiler's
/// diagnostics. This is the entry for callers that hold only text; every
/// path that knows what it emitted names the [`Artifact`] instead.
pub fn build(source: &str, extra_cflags: &[String], tag: &str) -> Result<BuildDir, String> {
    let kind = if source.contains("int main(void)") {
        Artifact::Executable
    } else {
        Artifact::Object
    };
    system_build(source, extra_cflags, tag, kind).map_err(|e| e.to_string())
}

/// [`build`] for callers that manage the directory themselves: returns
/// the path of the produced artifact, whose parent directory the caller
/// removes.
pub fn compile(source: &str, extra_cflags: &[String], tag: &str) -> Result<PathBuf, String> {
    build(source, extra_cflags, tag).map(BuildDir::into_artifact)
}

/// Compile-only check of an emitted unit (used for intrinsic-mode units,
/// which may not be runnable on the build host).
pub fn compile_check(unit: &CUnit, tag: &str) -> Result<(), String> {
    system_build(&unit.code, &unit.cflags, tag, Artifact::Object)
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Why [`run_lines`] produced no values.
#[derive(Debug)]
pub struct RunError {
    /// The process was killed at the guard's wall-clock deadline.
    pub timed_out: bool,
    /// What happened, naming the exit code or the offending token.
    pub message: String,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Runs a driver binary's command under `guard` and parses its stdout —
/// one `%.17g` number per line — into values.
pub fn run_lines(cmd: &mut Command, guard: &GuardConfig) -> Result<Vec<f64>, RunError> {
    let _span = exo_obs::span!("difftest:run", "{:?}", cmd.get_program());
    let failed = |message| RunError {
        timed_out: false,
        message,
    };
    let output = run_guarded(cmd, guard).map_err(|e| RunError {
        timed_out: e.is_timeout(),
        message: e.to_string(),
    })?;
    if !output.success {
        return Err(failed(format!(
            "binary exited {:?}: {}",
            output.code,
            output.stderr_lossy()
        )));
    }
    output
        .stdout_lossy()
        .split_ascii_whitespace()
        .map(|t| {
            t.parse::<f64>()
                .map_err(|e| failed(format!("unparseable driver output `{t}`: {e}")))
        })
        .collect()
}

/// Runs a data driver ([`emit_data_driver`]) on an argument block
/// ([`encode_args`]): writes the block to a file in a temp directory of
/// this call's own (gone on every return path, and never the directory
/// of a shared build), appends its path to `cmd` — the driver binary, or
/// whatever a caller substitutes for it — and runs that as [`run_lines`]
/// does.
pub fn run_data_driver(
    cmd: &mut Command,
    block: &[u8],
    guard: &GuardConfig,
) -> Result<Vec<f64>, RunError> {
    let file = BuildDir::create("args", "args.bin")
        .and_then(|dir| dir.write("args.bin", block).map(|_| dir))
        .map_err(|message| RunError {
            timed_out: false,
            message,
        })?;
    cmd.arg(file.artifact());
    run_lines(cmd, guard)
}

/// Tolerance for comparing one element of a buffer of the given type:
/// the C value is float-rounded at stores while the interpreter models
/// f64 everywhere, so f32 buffers get an f32-ULP-scale relative bound;
/// everything else (exactly-representable by construction) must match
/// bitwise.
fn tolerance(elem: DataType) -> f64 {
    match elem {
        DataType::F32 => 1e-4,
        DataType::F64 => 1e-12,
        _ => 0.0,
    }
}

/// Runs the full differential check for one procedure: synthesize
/// inputs, run the interpreter, emit portable C, compile, run, compare.
///
/// # Errors
/// Any mismatch, emission failure, compilation failure or harness
/// failure, with a message naming the kernel and (for mismatches) the
/// first diverging element.
pub fn run_differential(
    proc: &Proc,
    registry: &ProcRegistry,
    seed: u64,
) -> Result<DiffOutcome, String> {
    run_differential_with(proc, registry, seed, &CodegenOptions::portable())
}

/// [`run_differential`] in machine-intrinsic mode: the emitted AVX2/AVX512
/// unit is compiled with its `-m` flags and *executed* against the
/// interpreter when [`exo_machine::HostCaps`] reports the CPU supports
/// them; on an unsupported host it is compile-checked and the run is
/// skipped with a [`DiffOutcome::Skipped`] naming the missing features.
///
/// # Errors
/// Same contract as [`run_differential`].
pub fn run_differential_native(
    proc: &Proc,
    registry: &ProcRegistry,
    seed: u64,
) -> Result<DiffOutcome, String> {
    run_differential_with(proc, registry, seed, &CodegenOptions::native())
}

/// [`run_differential`] with explicit [`CodegenOptions`] — used to check
/// the debug-bounds variant (and any other portable-toolchain mode)
/// against the interpreter.
///
/// # Errors
/// Same contract as [`run_differential`].
pub fn run_differential_with(
    proc: &Proc,
    registry: &ProcRegistry,
    seed: u64,
    opts: &CodegenOptions,
) -> Result<DiffOutcome, String> {
    let _span = exo_obs::span!("difftest:differential", "{}", proc.name());
    if !cc_available() {
        return Ok(DiffOutcome::Skipped(
            "no `cc` on PATH — differential codegen check skipped".to_string(),
        ));
    }
    let inputs = synth_inputs(proc, seed)?;
    let expected = interp_outputs(proc, registry, &inputs)?;
    let unit =
        emit_c(proc, registry, opts).map_err(|e| format!("emitting `{}`: {e}", proc.name()))?;
    // Native units compile on any x86 toolchain but *execute* only on a
    // CPU with the matching features — on an unsupported host the unit
    // is still compile-checked, then the run is skipped (not failed).
    if !unit.cflags.is_empty() && !exo_machine::HostCaps::detect().supports_cflags(&unit.cflags) {
        compile_check(&unit, proc.name())?;
        return Ok(DiffOutcome::Skipped(format!(
            "`{}` compiled, but this host cannot execute {}",
            proc.name(),
            unit.cflags.join(" ")
        )));
    }
    let driver = emit_data_driver(&unit, proc);
    let exe = system_build(&driver, &unit.cflags, proc.name(), Artifact::Executable)
        .map_err(|e| e.to_string())?;
    let got = run_data_driver(
        &mut Command::new(exe.artifact()),
        &encode_args(&inputs),
        &run_guard(),
    )
    .map_err(|e| format!("driver binary of `{}`: {e}", proc.name()))?;
    let total: usize = expected.iter().map(|b| b.len()).sum();
    if got.len() != total {
        return Err(format!(
            "`{}`: driver printed {} values, expected {total}",
            proc.name(),
            got.len()
        ));
    }
    let mut cursor = 0usize;
    let mut tensor_idx = 0usize;
    for (arg, input) in proc.args().iter().zip(&inputs) {
        let SynthArg::Tensor { elem, .. } = input else {
            continue;
        };
        let want = &expected[tensor_idx];
        let tol = tolerance(*elem);
        for (i, w) in want.iter().enumerate() {
            let g = got[cursor + i];
            let bound = tol * w.abs().max(1.0);
            // `!(diff <= bound)` (not `diff > bound`) so a NaN on either
            // side fails the comparison instead of silently passing; two
            // NaNs count as agreement.
            let agree = if w.is_nan() {
                g.is_nan()
            } else {
                (g - w).abs() <= bound
            };
            if !agree {
                return Err(format!(
                    "`{}`: buffer `{}`[{i}] diverges: C = {g:?}, interpreter = {w:?} \
                     (tolerance {bound:e}, seed {seed})",
                    proc.name(),
                    arg.name
                ));
            }
        }
        cursor += want.len();
        tensor_idx += 1;
    }
    Ok(DiffOutcome::Agreed {
        buffers: tensor_idx,
        elems: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_summary_survives_single_run_jitter() {
        // Candidate A is genuinely faster (runs ~100ns) than candidate B
        // (~110ns), but each has one descheduled outlier. Means would
        // flip the ranking (A: 108, B: 102); medians must not.
        let runs_a = [100.0, 140.0, 99.0, 101.0, 100.0];
        let runs_b = [110.0, 109.0, 111.0, 70.0, 110.0];
        let (med_a, spread_a) = summarize_runs(&runs_a).unwrap();
        let (med_b, spread_b) = summarize_runs(&runs_b).unwrap();
        let mean = |r: &[f64]| r.iter().sum::<f64>() / r.len() as f64;
        assert!(
            mean(&runs_a) > mean(&runs_b),
            "premise: the means rank them backwards"
        );
        assert!(
            med_a < med_b,
            "median ranking flipped by jitter: {med_a} vs {med_b}"
        );
        // The spread exposes exactly how noisy each measurement was.
        assert!((spread_a - 41.0 / 100.0).abs() < 1e-12);
        assert!((spread_b - 41.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_runs_handles_degenerate_input() {
        assert_eq!(summarize_runs(&[]), None);
        assert_eq!(summarize_runs(&[7.0]), Some((7.0, 0.0)));
        // Even run count: median is the mean of the middle two.
        assert_eq!(summarize_runs(&[4.0, 2.0]), Some((3.0, 2.0 / 3.0)));
    }
}
