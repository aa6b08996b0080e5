//! Deterministic fault injection for the service soak tests.
//!
//! A [`FaultPlan`] maps *request indices* (the order requests are
//! submitted, starting at 0) to [`Fault`]s. The plan is consulted once
//! per submission; a fault fires only if the request actually reaches
//! the faulted code path (a cache hit never compiles, so a `CcHang`
//! planned on it is recorded as planned-but-untriggered). Plans are
//! either hand-built ([`FaultPlan::with`]) for targeted tests or drawn
//! from the seeded stream ([`FaultPlan::seeded`]) for soaks, so
//! every run of a given seed injects exactly the same faults at exactly
//! the same indices.

use exo_ir::rng::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// One injectable fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// The C compiler invocation is replaced by a process that sleeps
    /// forever — exercises the compile timeout + degradation path.
    CcHang,
    /// The C compiler binary does not exist — exercises spawn
    /// retry-exhaustion + `CompilerUnavailable` degradation.
    CcMissing,
    /// The compiled kernel binary is replaced by a process that sleeps
    /// forever — exercises the run timeout + compile-only degradation.
    BinaryHang,
    /// The argument block handed to the compiled kernel binary is cut in
    /// half — exercises the generated decoder's refusal and the
    /// `BinaryFailed` degradation to compile-only.
    ArgsTruncated,
    /// The worker panics mid-request — exercises `catch_unwind`
    /// isolation, `ServeError::Internal` classification and negative-
    /// cache quarantine.
    WorkerPanic,
    /// The freshly cached result's checksum is flipped — exercises
    /// corruption detection and recompute-on-hit quarantine.
    CacheCorruption,
}

impl Fault {
    /// All fault kinds, in the order the seeded plan cycles through.
    pub const ALL: [Fault; 6] = [
        Fault::CcHang,
        Fault::CcMissing,
        Fault::BinaryHang,
        Fault::ArgsTruncated,
        Fault::WorkerPanic,
        Fault::CacheCorruption,
    ];

    /// Stable lower-case name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            Fault::CcHang => "cc-hang",
            Fault::CcMissing => "cc-missing",
            Fault::BinaryHang => "binary-hang",
            Fault::ArgsTruncated => "args-truncated",
            Fault::WorkerPanic => "worker-panic",
            Fault::CacheCorruption => "cache-corruption",
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic request-index → fault mapping.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: BTreeMap<u64, Fault>,
}

impl FaultPlan {
    /// The empty plan (production behaviour).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds (or overrides) a fault at one request index.
    pub fn with(mut self, index: u64, fault: Fault) -> Self {
        self.faults.insert(index, fault);
        self
    }

    /// A plan over request indices `0..n` injecting approximately
    /// `percent`% faults, drawn from the seeded [`Rng`] stream and
    /// cycling the fault kinds so every kind appears. Identical
    /// `(seed, n, percent)` always produce the identical plan.
    pub fn seeded(seed: u64, n: u64, percent: u64) -> Self {
        // `| 1` pairs seeds 2k and 2k + 1; it stays until the next change
        // of the permutation re-baselines the soak's plans.
        let mut rng = Rng::new(seed | 1);
        let mut faults = BTreeMap::new();
        let mut kind = 0usize;
        for index in 0..n {
            if rng.chance(percent) {
                faults.insert(index, Fault::ALL[kind % Fault::ALL.len()]);
                kind += 1;
            }
        }
        FaultPlan { faults }
    }

    /// The fault planned for a request index, if any.
    pub fn fault_at(&self, index: u64) -> Option<Fault> {
        self.faults.get(&index).copied()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterates `(index, fault)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Fault)> + '_ {
        self.faults.iter().map(|(i, f)| (*i, *f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(0xFA17, 500, 12);
        let b = FaultPlan::seeded(0xFA17, 500, 12);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            b.iter().collect::<Vec<_>>(),
            "same seed must give the same plan"
        );
        let c = FaultPlan::seeded(0xFA18, 500, 12);
        assert_ne!(
            a.iter().collect::<Vec<_>>(),
            c.iter().collect::<Vec<_>>(),
            "different seeds should differ"
        );
    }

    #[test]
    fn seeded_plans_hit_the_requested_rate_and_every_kind() {
        let plan = FaultPlan::seeded(0xFA17, 1000, 10);
        let n = plan.len() as f64;
        assert!(
            (60.0..=140.0).contains(&n),
            "~10% of 1000 expected, got {n}"
        );
        for kind in Fault::ALL {
            assert!(
                plan.iter().any(|(_, f)| f == kind),
                "kind {kind} never planned"
            );
        }
    }

    #[test]
    fn hand_built_plans_override_by_index() {
        let plan = FaultPlan::none()
            .with(3, Fault::WorkerPanic)
            .with(3, Fault::CcHang);
        assert_eq!(plan.fault_at(3), Some(Fault::CcHang));
        assert_eq!(plan.fault_at(4), None);
        assert_eq!(plan.len(), 1);
    }
}
