//! Target machine descriptions.

use crate::gemmini::gemmini_instructions;
use crate::isa::{avx2_instructions, avx512_instructions};
use exo_ir::{DataType, Mem, Proc};

/// The platforms the paper evaluates on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MachineKind {
    /// A scalar CPU with no vector extension (used as a naive baseline).
    Scalar,
    /// An x86 CPU with AVX2 (256-bit vectors).
    Avx2,
    /// An x86 CPU with AVX512 (512-bit vectors).
    Avx512,
    /// The Gemmini ML accelerator attached to a host CPU.
    Gemmini,
}

/// A target machine: vector parameters and the instruction procedures the
/// scheduling libraries lower to.
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Which platform this is.
    pub kind: MachineKind,
    /// Human-readable name used in reports.
    pub name: &'static str,
}

impl MachineModel {
    /// The AVX2 machine model.
    pub fn avx2() -> Self {
        MachineModel {
            kind: MachineKind::Avx2,
            name: "AVX2",
        }
    }

    /// The AVX512 machine model.
    pub fn avx512() -> Self {
        MachineModel {
            kind: MachineKind::Avx512,
            name: "AVX512",
        }
    }

    /// The Gemmini accelerator model.
    pub fn gemmini() -> Self {
        MachineModel {
            kind: MachineKind::Gemmini,
            name: "Gemmini",
        }
    }

    /// A scalar CPU with no vector unit.
    pub fn scalar() -> Self {
        MachineModel {
            kind: MachineKind::Scalar,
            name: "scalar",
        }
    }

    /// Number of vector lanes for the given precision (1 on scalar /
    /// Gemmini hosts).
    pub fn vec_width(&self, ty: DataType) -> i64 {
        let mem = self.mem_type();
        mem.lanes(ty).map(|l| l as i64).unwrap_or(1)
    }

    /// Architectural vector registers (`ymm0–15`, `zmm0–31`; 0 without a
    /// vector unit). Register-blocked schedules size their accumulator
    /// tile from this: half the file holds the tile, the other half the
    /// operands streaming past it.
    pub fn vec_registers(&self) -> i64 {
        match self.kind {
            MachineKind::Avx2 => 16,
            MachineKind::Avx512 => 32,
            MachineKind::Gemmini | MachineKind::Scalar => 0,
        }
    }

    /// The vector-register memory space of this machine.
    pub fn mem_type(&self) -> Mem {
        match self.kind {
            MachineKind::Avx2 => Mem::VecAvx2,
            MachineKind::Avx512 => Mem::VecAvx512,
            MachineKind::Gemmini => Mem::GemmScratch,
            MachineKind::Scalar => Mem::Dram,
        }
    }

    /// The instruction procedures available for the given precision.
    ///
    /// Instruction sets are immutable, so they are built once per
    /// `(machine, precision)` pair and then served from a process-wide
    /// cache — cloning a `Proc` is cheap (procedure bodies are
    /// structurally shared), while rebuilding the whole set through
    /// `ProcBuilder` on every scheduling call is not.
    pub fn instructions(&self, ty: DataType) -> Vec<Proc> {
        use std::collections::HashMap;
        use std::sync::Mutex;
        type InstrCache = Mutex<Option<HashMap<(MachineKind, DataType), Vec<Proc>>>>;
        static CACHE: InstrCache = Mutex::new(None);
        let mut guard = CACHE.lock().unwrap_or_else(|e| e.into_inner());
        guard
            .get_or_insert_with(HashMap::new)
            .entry((self.kind, ty))
            .or_insert_with(|| match self.kind {
                MachineKind::Avx2 => avx2_instructions(ty),
                MachineKind::Avx512 => avx512_instructions(ty),
                MachineKind::Gemmini => gemmini_instructions(),
                MachineKind::Scalar => Vec::new(),
            })
            .clone()
    }

    /// The instruction-name prefix for this machine (`mm256` / `mm512`),
    /// used by scheduling libraries to pick specific instructions.
    pub fn prefix(&self) -> &'static str {
        match self.kind {
            MachineKind::Avx2 => "mm256",
            MachineKind::Avx512 => "mm512",
            MachineKind::Gemmini => "gemmini",
            MachineKind::Scalar => "scalar",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_widths_match_the_isas() {
        assert_eq!(MachineModel::avx2().vec_width(DataType::F32), 8);
        assert_eq!(MachineModel::avx2().vec_width(DataType::F64), 4);
        assert_eq!(MachineModel::avx512().vec_width(DataType::F32), 16);
        assert_eq!(MachineModel::avx512().vec_width(DataType::F64), 8);
        assert_eq!(MachineModel::scalar().vec_width(DataType::F32), 1);
        assert_eq!(MachineModel::avx2().vec_registers(), 16);
        assert_eq!(MachineModel::avx512().vec_registers(), 32);
        assert_eq!(MachineModel::scalar().vec_registers(), 0);
    }

    #[test]
    fn instruction_sets_are_nonempty_for_vector_targets() {
        assert!(!MachineModel::avx2().instructions(DataType::F32).is_empty());
        assert!(!MachineModel::avx512()
            .instructions(DataType::F64)
            .is_empty());
        assert!(!MachineModel::gemmini()
            .instructions(DataType::I8)
            .is_empty());
        assert!(MachineModel::scalar()
            .instructions(DataType::F32)
            .is_empty());
    }

    #[test]
    fn prefixes() {
        assert_eq!(MachineModel::avx2().prefix(), "mm256");
        assert_eq!(MachineModel::avx512().prefix(), "mm512");
    }
}
