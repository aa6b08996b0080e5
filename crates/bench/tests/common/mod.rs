//! Shared by the golden tests of this directory.

use std::path::Path;

/// Asserts `fresh` equals the checked-in golden file. On a mismatch the
/// fresh text is written under Cargo's per-target temp directory and the
/// failure names both paths, so re-baselining an intended change is one
/// `cp`.
pub fn assert_matches_golden(name: &str, fresh: &str, golden: &Path) {
    let want = std::fs::read_to_string(golden)
        .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", golden.display()));
    if fresh == want {
        return;
    }
    let file = golden.file_name().expect("golden paths name a file");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&out, fresh).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    panic!(
        "`{name}` no longer matches {golden}; the fresh text is in {out} — \
         if the change is intended: cp {out} {golden}",
        golden = golden.display(),
        out = out.display()
    );
}
