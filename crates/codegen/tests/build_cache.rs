//! `Toolchain` memoises what it builds: one `cc` run per distinct (kind,
//! `cflags`, source text), shared handles, concurrent lookups of one key
//! waiting on one build while other keys build beside it, failures not
//! remembered, LRU eviction at [`BUILD_CACHE_CAP`] that never deletes a
//! binary still in use, and every directory gone with the toolchain.
//!
//! The compilers that count, fail or wait are shell scripts in front of
//! `cc`. Every check logs a skip where `cc` is missing.
#![cfg(unix)]

use exo_codegen::difftest::{
    cc_available, run_lines, BuildError, SharedBuild, Toolchain, BUILD_CACHE_CAP,
};
use exo_guard::GuardConfig;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn guard() -> GuardConfig {
    GuardConfig::with_timeout(Duration::from_secs(120))
}

/// A program that prints `k`: a distinct source per `k`.
fn program(k: usize) -> String {
    format!("#include <stdio.h>\nint main(void) {{ printf(\"{k}\\n\"); return 0; }}\n")
}

/// A fresh scratch directory of one test's own under the target directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// An executable shell script `dir/cc.sh` with the given body, ending in
/// the real compiler on the same arguments.
fn compiler_script(dir: &Path, body: &str) -> String {
    use std::os::unix::fs::PermissionsExt;
    let script = dir.join("cc.sh");
    std::fs::write(&script, format!("#!/bin/sh\n{body}\nexec cc \"$@\"\n")).expect("script");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
        .expect("script is executable");
    script.to_string_lossy().into_owned()
}

fn output_of(build: &SharedBuild) -> Vec<f64> {
    run_lines(&mut Command::new(build.artifact()), &guard()).expect("the binary runs")
}

fn build_dir(build: &SharedBuild) -> PathBuf {
    build.artifact().parent().expect("a build directory").into()
}

/// How often the counting compiler of `dir` has run.
fn invocations(dir: &Path) -> usize {
    std::fs::read_to_string(dir.join("log")).map_or(0, |log| log.lines().count())
}

#[test]
fn a_build_is_keyed_by_kind_flags_and_the_full_source() {
    if !cc_available() {
        eprintln!("SKIPPED: no cc on PATH");
        return;
    }
    let dir = scratch("build-cache-key");
    let log = dir.join("log");
    let toolchain = Toolchain::new(
        &compiler_script(&dir, &format!("echo run >> '{}'", log.display())),
        guard(),
    );
    let first = toolchain
        .executable(&program(1), &[], "one")
        .expect("builds");
    assert!(!first.reused());
    let again = toolchain
        .executable(&program(1), &[], "one")
        .expect("builds");
    assert!(again.reused());
    assert_eq!(
        again.artifact(),
        first.artifact(),
        "one artifact, two handles"
    );
    assert_eq!(invocations(&dir), 1);

    // The same text under other flags, and as an object, are other builds;
    // so is a text that differs in its last byte only.
    let flags = vec!["-DEXO_OTHER=1".to_string()];
    let other_flags = toolchain
        .executable(&program(1), &flags, "one")
        .expect("builds");
    let object = toolchain.object(&program(1), &[], "one").expect("builds");
    let longer = toolchain
        .executable(&(program(1) + " "), &[], "one")
        .expect("builds");
    for build in [&other_flags, &object, &longer] {
        assert!(!build.reused());
        assert_ne!(build.artifact(), first.artifact());
    }
    assert!(object.artifact().ends_with("kernel.o"));
    assert_eq!(invocations(&dir), 4);
    assert_eq!(output_of(&first), [1.0]);
    assert_eq!(output_of(&other_flags), [1.0]);

    // Every directory goes with the toolchain and the last handle.
    let dirs: Vec<PathBuf> = [&first, &other_flags, &object, &longer]
        .map(build_dir)
        .to_vec();
    drop((again, other_flags, object, longer));
    drop(toolchain);
    assert!(
        build_dir(&first).exists(),
        "a handle outlives the toolchain"
    );
    assert_eq!(output_of(&first), [1.0]);
    drop(first);
    for dir in dirs {
        assert!(!dir.exists(), "{} was left behind", dir.display());
    }
}

/// (iii) Eight concurrent lookups of one key run the compiler once; two
/// different keys are compiled at the same time — the compiler of the
/// second half waits until two invocations are in flight, which a
/// toolchain that serialised its builds would never give it.
#[test]
fn one_key_builds_once_and_different_keys_build_concurrently() {
    if !cc_available() {
        eprintln!("SKIPPED: no cc on PATH");
        return;
    }
    let dir = scratch("build-cache-concurrent");
    let log = dir.join("log");
    // Slow enough that every lookup arrives while the first is building.
    let slow = Toolchain::new(
        &compiler_script(&dir, &format!("echo run >> '{}'\nsleep 0.3", log.display())),
        guard(),
    );
    let source = program(7);
    let reused: Vec<bool> = std::thread::scope(|s| {
        let lookups: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    slow.executable(&source, &[], "seven")
                        .expect("builds")
                        .reused()
                })
            })
            .collect();
        lookups
            .into_iter()
            .map(|t| t.join().expect("no panic"))
            .collect()
    });
    assert_eq!(invocations(&dir), 1, "eight lookups of one key");
    assert_eq!(reused.iter().filter(|r| !**r).count(), 1, "{reused:?}");

    let dir = scratch("build-cache-rendezvous");
    let arrivals = dir.join("arrivals");
    std::fs::create_dir_all(&arrivals).expect("arrivals directory");
    let rendezvous = Toolchain::new(
        &compiler_script(
            &dir,
            &format!(
                "touch '{0}'/$$\nn=0\n\
                 while [ \"$(ls '{0}' | wc -l)\" -lt 2 ]; do\n  \
                 n=$((n+1)); [ $n -gt 1000 ] && {{ echo 'built alone' >&2; exit 9; }}\n  \
                 sleep 0.01\ndone",
                arrivals.display()
            ),
        ),
        guard(),
    );
    std::thread::scope(|s| {
        let builds: Vec<_> = [1, 2]
            .map(|k| {
                let toolchain = &rendezvous;
                s.spawn(move || toolchain.executable(&program(k), &[], "pair"))
            })
            .into_iter()
            .collect();
        for build in builds {
            let build = build.join().expect("no panic");
            assert!(
                build.is_ok(),
                "neither build waits for the other's: {build:?}"
            );
        }
    });
}

/// (iv) A failed, a timed-out and an unspawnable build are classified
/// and not remembered: the next lookup runs the compiler again.
#[test]
fn a_failed_build_is_classified_and_retried_by_the_next_lookup() {
    if !cc_available() {
        eprintln!("SKIPPED: no cc on PATH");
        return;
    }
    let dir = scratch("build-cache-failure");
    let (log, marker) = (dir.join("log"), dir.join("failed-once"));
    let flaky = Toolchain::new(
        &compiler_script(
            &dir,
            &format!(
                "echo run >> '{}'\n[ -e '{1}' ] || {{ touch '{1}'; echo 'disk full' >&2; exit 1; }}",
                log.display(),
                marker.display()
            ),
        ),
        guard(),
    );
    let failed = flaky.executable(&program(3), &[], "three");
    assert!(
        matches!(&failed, Err(BuildError::Failed(m)) if m.contains("disk full")),
        "{failed:?}"
    );
    let retried = flaky
        .executable(&program(3), &[], "three")
        .expect("retried");
    assert!(!retried.reused(), "the failure was not remembered");
    assert!(flaky
        .executable(&program(3), &[], "three")
        .expect("cached")
        .reused());
    assert_eq!(invocations(&dir), 2);
    assert_eq!(output_of(&retried), [3.0]);

    let dir = scratch("build-cache-timeout");
    let hung = Toolchain::new(
        &compiler_script(&dir, "sleep 600"),
        GuardConfig::with_timeout(Duration::from_millis(300)),
    );
    for _ in 0..2 {
        let killed = hung.object(&program(3), &[], "three");
        assert!(matches!(killed, Err(BuildError::TimedOut(_))), "{killed:?}");
    }
    let missing = Toolchain::new("exo2-no-such-cc", guard());
    let unspawned = missing.executable(&program(3), &[], "three");
    assert!(
        matches!(unspawned, Err(BuildError::Unavailable(_))),
        "{unspawned:?}"
    );
}

/// Polls for `path`, up to ten seconds.
fn appears(path: &Path) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !path.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    path.exists()
}

/// (v) One more distinct unit than the cap evicts the least recently
/// used one and removes its directory; a unit looked up again meanwhile
/// stays; an evicted binary that is running keeps its directory until it
/// has finished.
#[test]
fn eviction_is_lru_and_never_deletes_a_running_binary() {
    if !cc_available() {
        eprintln!("SKIPPED: no cc on PATH");
        return;
    }
    let dir = scratch("build-cache-eviction");
    let toolchain = Toolchain::system();
    // Announces itself in the directory it is given, then waits there for
    // `go` (the run guard ends a wait nobody answers).
    let waiter = "#include <stdio.h>\n\
        int main(int argc, char **argv) {\n    \
            char path[4096];\n    \
            if (argc != 2) return 3;\n    \
            snprintf(path, sizeof path, \"%s/started\", argv[1]);\n    \
            FILE *f = fopen(path, \"wb\");\n    \
            if (!f) return 4;\n    \
            fclose(f);\n    \
            snprintf(path, sizeof path, \"%s/go\", argv[1]);\n    \
            while (!(f = fopen(path, \"rb\"))) {}\n    \
            fclose(f);\n    \
            printf(\"42\\n\");\n    \
            return 0;\n}\n";
    let running = toolchain.executable(waiter, &[], "waiter").expect("builds");
    let running_dir = build_dir(&running);
    let oldest_dir = build_dir(&toolchain.executable(&program(0), &[], "p").expect("builds"));
    let kept_dir = build_dir(&toolchain.executable(&program(1), &[], "p").expect("builds"));

    std::thread::scope(|s| {
        let run = s.spawn(|| {
            let mut cmd = Command::new(running.artifact());
            cmd.arg(&dir);
            let values = run_lines(
                &mut cmd,
                &GuardConfig::with_timeout(Duration::from_secs(60)),
            );
            drop(running);
            values
        });
        assert!(appears(&dir.join("started")), "the waiter never started");

        // Fill the cache to its cap, touch unit 1, then overflow by two:
        // the waiter and unit 0 are the two least recently used.
        for k in 2..BUILD_CACHE_CAP - 1 {
            toolchain.executable(&program(k), &[], "p").expect("builds");
        }
        assert!(running_dir.exists() && oldest_dir.exists());
        assert!(toolchain
            .executable(&program(1), &[], "p")
            .expect("cached")
            .reused());
        for k in BUILD_CACHE_CAP - 1..=BUILD_CACHE_CAP {
            toolchain.executable(&program(k), &[], "p").expect("builds");
        }
        assert!(!oldest_dir.exists(), "the oldest build was not evicted");
        assert!(kept_dir.exists(), "a unit used since then was evicted");
        assert!(
            running_dir.join("kernel").exists(),
            "the evicted binary was deleted while it runs"
        );
        assert!(
            !toolchain
                .executable(&program(0), &[], "p")
                .expect("builds")
                .reused(),
            "an evicted unit is built again"
        );

        std::fs::write(dir.join("go"), b"").expect("go");
        let values = run
            .join()
            .expect("no panic")
            .expect("the evicted binary finishes");
        assert_eq!(values, [42.0]);
    });
    assert!(
        !running_dir.exists(),
        "an evicted build outlived its last handle"
    );
    drop(toolchain);
    assert!(!kept_dir.exists(), "a cached build outlived its toolchain");
}
