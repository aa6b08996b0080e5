//! The structural hash cached on shared IR nodes, checked where staleness
//! would show: along every version of every library schedule. A version
//! produced by an edit shares most of its blocks — and their cached hashes
//! — with the version before it, so a hash an edit failed to clear would
//! make one of these versions disagree with a copy of itself that shares
//! nothing.

use exo2::cursors::ProcHandle;
use exo2::ir::{deep_unshare, ib, var, Block, DataType, Expr, InstrInfo, Mem, Proc, ProcBuilder};
use exo2::kernels::{self, Precision};
use exo2::lib::{
    halide_blur_schedule, halide_unsharp_schedule, optimize_all_level_1, optimize_all_level_2,
    optimize_sgemm,
};
use exo2::machine::MachineModel;
use std::collections::HashMap;

/// `exo_bench::paper::sgemm_wide`, which this package does not depend on.
fn sgemm_wide(copies: usize) -> Proc {
    let base = kernels::sgemm();
    let stmts = (0..copies).flat_map(|_| base.body().iter().cloned());
    let body: Block = stmts.collect();
    base.with_name("sgemm_wide").with_body(body)
}

/// Every schedule `benchmark/`'s `sched_library` applies: level 1 and 2 in
/// both precisions, four sgemm bases, blur and unsharp, on two machines.
fn library_schedules() -> Vec<ProcHandle> {
    let mut out = Vec::new();
    for m in [MachineModel::avx2(), MachineModel::avx512()] {
        for prec in [Precision::Single, Precision::Double] {
            out.extend(optimize_all_level_1(&m, prec).into_iter().map(|(_, p)| p));
            out.extend(optimize_all_level_2(&m, prec).into_iter().map(|(_, p)| p));
        }
        for base in [
            kernels::sgemm(),
            sgemm_wide(8),
            sgemm_wide(32),
            sgemm_wide(64),
        ] {
            out.push(optimize_sgemm(&ProcHandle::new(base), &m).expect("sgemm schedule"));
        }
        let blur = ProcHandle::new(kernels::blur2d());
        out.push(halide_blur_schedule(&blur, &m).expect("blur schedule"));
        let unsharp = ProcHandle::new(kernels::unsharp());
        out.push(halide_unsharp_schedule(&unsharp, &m).expect("unsharp schedule"));
    }
    out
}

#[test]
fn every_library_version_hashes_like_an_unshared_copy_of_itself() {
    let schedules = library_schedules();
    assert_eq!(schedules.len(), 72);
    // Newest first, so a version is hashed before the older versions it
    // shares blocks with, as a cache serving the scheduled result would.
    let mut by_hash: HashMap<u64, String> = HashMap::new();
    let mut versions = 0usize;
    for handle in &schedules {
        for version in handle.versions() {
            versions += 1;
            let hash = version.content_hash();
            assert_eq!(
                hash,
                deep_unshare(version).content_hash(),
                "stale cached hash in a version of `{}`",
                version.name()
            );
            let text = version.to_string();
            let first = by_hash.entry(hash).or_insert_with(|| text.clone());
            assert_eq!(*first, text, "two different procedures share hash {hash:x}");
        }
    }
    // 1 622 when written: the 72 roots and one version per committed edit.
    assert!(
        versions > 1_000,
        "only {versions} versions along the chains"
    );

    // Equal trees built independently hash equal: a second run of the
    // library shares no storage with the first.
    for (a, b) in schedules.iter().zip(library_schedules()) {
        assert!(!a.proc().body().shares_storage_with(b.proc().body()));
        for (va, vb) in a.versions().zip(b.versions()) {
            assert_eq!(va, vb);
            assert_eq!(va.content_hash(), vb.content_hash());
        }
    }
}

/// A small procedure, built afresh on each call.
fn scale() -> Proc {
    ProcBuilder::new("scale")
        .size_arg("n")
        .tensor_arg("x", DataType::F32, vec![var("n")], Mem::Dram)
        .for_("i", ib(0), var("n"), |b| {
            b.assign("x", vec![var("i")], b.read("x", vec![var("i")]) * ib(2));
        })
        .build()
}

#[test]
fn header_edits_change_the_cached_header_hash() {
    let original = scale();
    let before = original.content_hash();
    type Edit = fn(Proc) -> Proc;
    let edits: [(&str, Edit); 4] = [
        ("with_name", |p| p.with_name("scale2")),
        ("args_mut", |mut p| {
            p.args_mut()[0].name = "m".into();
            p
        }),
        ("add_assertion", |p| {
            p.add_assertion(Expr::eq_(Expr::modulo(var("n"), ib(8)), ib(0)))
        }),
        ("with_instr", |p| {
            p.with_instr(InstrInfo {
                cost_class: "test".into(),
            })
        }),
    ];
    for (what, edit) in edits {
        // The original's header hash is cached; the clone shares it until
        // the edit copies it.
        let edited = edit(original.clone());
        assert_ne!(edited.content_hash(), before, "{what} kept the hash");
        assert_eq!(
            original.content_hash(),
            before,
            "{what} moved the original's hash"
        );
        // The edited version hashes like the same procedure built apart,
        // whose header was never cached.
        let apart = edit(scale());
        assert_eq!(edited, apart);
        assert_eq!(edited.content_hash(), apart.content_hash(), "{what}");
    }
    assert_eq!(scale().content_hash(), before);
}
