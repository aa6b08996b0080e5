//! Comparison points for the evaluation.
//!
//! The paper compares Exo 2 against vendor BLAS libraries (MKL, OpenBLAS,
//! BLIS), expert-written Halide schedules, and schedules written in the
//! original Exo. None of those artifacts can run on this reproduction's
//! simulated machine, so (per `DESIGN.md` §5) the vendor libraries are
//! substituted with [`VendorBaseline`]: the best schedule expressible in
//! the IR plus a fixed per-call dispatch overhead modelling the
//! library-call boundary that real BLAS libraries pay and that the
//! paper's small-N ratios expose. The naive reference is the unscheduled
//! kernel itself, and the Exo-1 comparisons (Figs. 6c, 9) count the
//! primitive rewrites a library schedule performs.

/// A vendor-class baseline: an aggressively scheduled kernel plus the
/// per-call dispatch overhead (in cycles) that a pre-compiled library pays
/// at its API boundary. The paper's heatmaps divide vendor runtime by
/// Exo 2 runtime, so this overhead is what produces the >1 ratios at small
/// problem sizes (Figs. 8, 14-16).
#[derive(Clone, Debug)]
pub struct VendorBaseline {
    /// Name of the library being modelled (MKL / OpenBLAS / BLIS class).
    pub name: &'static str,
    /// Fixed per-call overhead in cycles.
    pub dispatch_overhead: u64,
}

impl VendorBaseline {
    /// The three vendor libraries the paper compares against. They share
    /// kernel quality and differ (slightly) in modelled call overhead.
    pub fn all() -> Vec<VendorBaseline> {
        vec![
            VendorBaseline {
                name: "MKL",
                dispatch_overhead: 120,
            },
            VendorBaseline {
                name: "OpenBLAS",
                dispatch_overhead: 180,
            },
            VendorBaseline {
                name: "BLIS",
                dispatch_overhead: 200,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_baselines_have_distinct_overheads() {
        let all = VendorBaseline::all();
        assert_eq!(all.len(), 3);
        assert!(all.iter().any(|v| v.name == "MKL"));
        assert!(all[0].dispatch_overhead < all[2].dispatch_overhead);
    }
}
