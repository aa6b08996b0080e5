#!/usr/bin/env bash
# Guards the bugfix contract of the library code a `serve` request or an
# autotuner replay can reach: no
# panic!/unreachable!/todo!/unwrap()/expect()
# on any library path of the exo-cursors, exo-core, exo-codegen,
# exo-autotune, exo-guard and exo-obs crates (every file under their
# `src/`, so a new file is guarded by default), of
# machine::{isa,cache,hostcaps}, and of the two exo-lib modules request
# scripts reach (record, vectorize). Only the library portion of each file
# is scanned (everything outside its `#[cfg(test)]` module); doc-comment
# and comment lines are ignored. exo-analysis, exo-ir and exo-serve are not
# listed: they carry the same contract as `#![deny(clippy::unwrap_used,
# ...)]` in their lib.rs, which `cargo clippy -- -D warnings` enforces.
set -euo pipefail
cd "$(dirname "$0")/.."

FILES=(
  crates/{cursors,core,codegen,autotune,guard,obs}/src/*.rs
  crates/machine/src/{isa,cache,hostcaps}.rs
  crates/lib/src/{record,vectorize}.rs
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
echo "ok: no panic!/unwrap/expect on library paths in ${#FILES[@]} files (cursors, core, codegen, autotune, guard, obs, machine::{isa,cache,hostcaps}, lib::{record,vectorize})"
