//! The workspace has one random stream, `exo_ir::rng::Rng`. This test
//! fails on any other copy of the xorshift64* multiplier or of the LCG
//! multiplier in the Rust sources under `crates/`, `src/`, `tests/` and
//! `examples/`, and names each copy by `file:line`.
//!
//! The needles are built from the constants in `exo_ir::rng`, so this
//! file does not contain them.

use exo_ir::rng::{LCG_MULTIPLIER, MULTIPLIER};
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_private_random_streams() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let needles: Vec<String> = [MULTIPLIER, LCG_MULTIPLIER]
        .iter()
        .flat_map(|m| [format!("{m:x}"), m.to_string()])
        .collect();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut files);
    }
    assert!(
        files.len() > 100,
        "only {} sources found under {}",
        files.len(),
        root.display()
    );
    let home = root.join("crates/ir/src/rng.rs");
    let mut copies = Vec::new();
    for file in files.iter().filter(|f| **f != home) {
        let text = std::fs::read_to_string(file).expect("a readable source file");
        for (n, line) in text.lines().enumerate() {
            // Digit separators and case do not hide a copy.
            let line = line.replace('_', "").to_lowercase();
            if needles.iter().any(|needle| line.contains(needle.as_str())) {
                let file = file.strip_prefix(root).unwrap_or(file);
                copies.push(format!("{}:{}", file.display(), n + 1));
            }
        }
    }
    assert!(
        copies.is_empty(),
        "private random streams; draw from exo_ir::rng::Rng instead:\n{}",
        copies.join("\n")
    );
}
