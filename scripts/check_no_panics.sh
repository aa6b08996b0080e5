#!/usr/bin/env bash
# Guards the bugfix contract of the cursors / ir::expr / machine::isa /
# machine::cache library code, the two exo-lib modules request scripts reach (record,
# vectorize) — and the whole exo-codegen, exo-autotune, exo-analysis,
# exo-guard, exo-serve and exo-obs crates — no
# panic!/unreachable!/todo!/unwrap()/expect()
# on any reachable library path. Only the library portion of each file is scanned (everything
# before its `#[cfg(test)]` module); doc-comment and comment lines are
# ignored.
set -euo pipefail
cd "$(dirname "$0")/.."

FILES=(
  crates/cursors/src/cursor.rs
  crates/cursors/src/find.rs
  crates/cursors/src/rewrite.rs
  crates/cursors/src/version.rs
  crates/cursors/src/error.rs
  crates/cursors/src/lib.rs
  crates/ir/src/expr.rs
  crates/machine/src/isa.rs
  crates/machine/src/cache.rs
  crates/machine/src/hostcaps.rs
  crates/codegen/src/lib.rs
  crates/codegen/src/emit.rs
  crates/codegen/src/mangle.rs
  crates/codegen/src/difftest.rs
  crates/autotune/src/lib.rs
  crates/autotune/src/space.rs
  crates/autotune/src/measure.rs
  crates/autotune/src/prune.rs
  crates/lib/src/record.rs
  crates/lib/src/vectorize.rs
  crates/analysis/src/bounds.rs
  crates/analysis/src/checks.rs
  crates/analysis/src/context.rs
  crates/analysis/src/effects.rs
  crates/analysis/src/lib.rs
  crates/analysis/src/linear.rs
  crates/analysis/src/simplify.rs
  crates/analysis/src/verify.rs
  crates/guard/src/lib.rs
  crates/serve/src/lib.rs
  crates/serve/src/types.rs
  crates/serve/src/cache.rs
  crates/serve/src/fault.rs
  crates/serve/src/service.rs
  crates/obs/src/lib.rs
  crates/obs/src/trace.rs
  crates/obs/src/metrics.rs
  crates/obs/src/export.rs
)

status=0
for f in "${FILES[@]}"; do
  hits=$(awk '
    # Skip the brace-balanced span of any #[cfg(test)] mod (tolerating
    # further attribute lines between the cfg and the mod keyword), and
    # scan everything else — library code before OR after a test module
    # stays guarded, and test code never raises false positives.
    in_test {
      opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
      depth += opens - closes
      if (depth <= 0) in_test = 0
      next
    }
    saw_cfg {
      if ($0 ~ /^[[:space:]]*#\[/) next
      if ($0 ~ /^[[:space:]]*(pub[[:space:]]+)?mod[[:space:]]/) {
        saw_cfg = 0
        opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
        depth = opens - closes
        if (depth > 0) in_test = 1
        next
      }
      saw_cfg = 0
    }
    /#\[cfg\(test\)\]/ { saw_cfg = 1; next }
    /^[[:space:]]*\/\// { next }
    /panic!|unreachable!|todo!|unimplemented!|\.unwrap\(\)|\.expect\(/ {
      printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
  ' "$f")
  if [ -n "$hits" ]; then
    echo "$hits"
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "error: panicking constructs found on library paths (see above)" >&2
  exit 1
fi
echo "ok: no panic!/unwrap/expect on library paths in cursors, ir::expr, machine::isa, machine::cache, codegen, autotune, lib::record, lib::vectorize, analysis, guard, serve, obs"
