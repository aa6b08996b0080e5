//! Provenance-chain memory regression tests.
//!
//! Scheduling sgemm produces a chain of ~17 versions. With structural
//! sharing a version retains only its edited spine, so the whole chain
//! must stay far below "one full AST per version" — the budget here is
//! deliberately tight so reintroducing per-version deep clones (or
//! breaking copy-on-write) fails immediately. Retained bytes are computed
//! by `exo_ir::proc_retained_bytes`, which charges each shared block node
//! and each shared statement once across the chain, and are fully
//! deterministic: generated temporaries come from the per-proc
//! `ProcHandle::fresh_name`, so no global counter state leaks in from
//! tests running on other threads.

use exo_bench::paper::sgemm_wide;
use exo_cursors::{with_reference_semantics, ProcHandle};
use exo_ir::Proc;
use exo_lib::optimize_sgemm;
use exo_machine::MachineModel;

/// Schedules `mk()` under both engines and returns
/// `(shared_bytes, deep_bytes, shared_chain_len, deep_chain_len)`.
fn measure(mk: impl Fn() -> Proc) -> (usize, usize, usize, usize) {
    let shared = optimize_sgemm(&ProcHandle::new(mk()), &MachineModel::avx512()).unwrap();
    let deep = with_reference_semantics(|| {
        optimize_sgemm(&ProcHandle::new(mk()), &MachineModel::avx512()).unwrap()
    });
    (
        shared.chain_retained_bytes(),
        deep.chain_retained_bytes(),
        shared.chain_len(),
        deep.chain_len(),
    )
}

#[test]
fn sgemm_chains_stay_within_budget_and_beat_deep_clone() {
    // Paper-size kernel: the chain must beat the deep-clone baseline and
    // stay inside an absolute budget. Measured at introduction: ~76 KB
    // shared vs ~82 KB deep-clone; with the statement as the shared unit,
    // 55 545 B vs 75 331 B. The budget leaves < 40% headroom.
    let (shared, deep, shared_len, deep_len) = measure(exo_kernels::sgemm);
    assert!(
        shared < deep,
        "sharing must retain less than the deep-clone chain: {shared} vs {deep}"
    );
    assert!(
        shared < 77_000,
        "sgemm provenance chain retains {shared} bytes — per-version copying crept back in?"
    );
    assert_eq!(shared_len, deep_len);

    // 8 side-by-side loop nests, schedule touches only the first: the
    // other seven must be retained once for the whole chain, not once per
    // version. Measured at introduction: ~101 KB shared vs ~203 KB deep;
    // with the statement as the shared unit, 57 548 B vs 205 406 B.
    let (shared, deep, shared_len, deep_len) = measure(|| sgemm_wide(8));
    assert!(
        shared * 3 < deep * 2,
        "expected ≥1.5x retention win on the wide kernel: {shared} vs {deep}"
    );
    assert!(
        shared < 80_000,
        "wide-sgemm chain retains {shared} bytes — untouched nests are being copied"
    );
    assert_eq!(shared_len, deep_len);
}
