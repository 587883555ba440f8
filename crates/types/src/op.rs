//! Vector operation types and their latency classes.
//!
//! Conduit's compile-time pass embeds the *operation type* of every
//! vectorized instruction as metadata (§4.3.1); at runtime the operation type
//! is the first of the six cost-function features (Table 1) because the three
//! SSD compute resources support very different operation sets:
//!
//! * **ISP** (controller cores) supports the full general-purpose ISA
//!   (~300 instructions), so every [`OpType`] is supported.
//! * **PuD-SSD** (SSD DRAM) supports the 16-operation bulk-bitwise /
//!   arithmetic / predication / relational set of SIMDRAM, MIMDRAM and
//!   Proteus.
//! * **IFP** (flash chips) supports nine operations: six bitwise operations
//!   (Flash-Cosmos multi-wordline sensing plus latch-based XOR/NOT) and three
//!   arithmetic operations (Ares-Flash shift-and-add).

use std::fmt;

/// Coarse latency classification used to characterize workloads (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LatencyClass {
    /// Bitwise and logical operations (e.g. AND, OR, XOR, NOT, shifts).
    Low,
    /// Additive arithmetic, comparisons, predication, copies.
    Medium,
    /// Multiplicative arithmetic and reductions.
    High,
}

impl fmt::Display for LatencyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LatencyClass::Low => "low",
            LatencyClass::Medium => "medium",
            LatencyClass::High => "high",
        };
        f.write_str(s)
    }
}

/// The operation performed by a vectorized (SIMD) instruction.
///
/// The set mirrors what the paper's compile-time pass emits after loop
/// auto-vectorization: bulk bitwise operations, element-wise arithmetic,
/// predication/relational operations, data movement, reductions, and a
/// catch-all [`OpType::Scalar`] for non-vectorizable (control-intensive)
/// regions that strip-mining leaves behind.
///
/// # Examples
///
/// ```
/// use conduit_types::{LatencyClass, OpType};
///
/// assert!(OpType::And.is_bitwise());
/// assert_eq!(OpType::Mul.latency_class(), LatencyClass::High);
/// assert_eq!(OpType::Add.latency_class(), LatencyClass::Medium);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpType {
    // --- bulk bitwise (six operations, the IFP bitwise set) ---
    /// Bitwise AND of two (or more) operands.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT (single operand).
    Not,
    /// Bitwise NAND.
    Nand,
    /// Bitwise NOR.
    Nor,
    // --- shifts ---
    /// Logical shift left by an immediate.
    Shl,
    /// Logical shift right by an immediate.
    Shr,
    // --- arithmetic ---
    /// Element-wise integer addition.
    Add,
    /// Element-wise integer subtraction.
    Sub,
    /// Element-wise integer multiplication.
    Mul,
    /// Element-wise integer division (ISP only).
    Div,
    /// Element-wise min.
    Min,
    /// Element-wise max.
    Max,
    // --- predication / relational ---
    /// Element-wise equality comparison producing a predicate mask.
    CmpEq,
    /// Element-wise less-than comparison producing a predicate mask.
    CmpLt,
    /// Element-wise greater-than comparison producing a predicate mask.
    CmpGt,
    /// Predicated select: `dst[i] = mask[i] ? a[i] : b[i]`.
    Select,
    // --- data movement / layout ---
    /// Bulk copy of a vector (RowClone-style in DRAM, page copy in flash).
    Copy,
    /// Lane shuffle / permutation (gather within a vector).
    Shuffle,
    /// Table lookup (indexed gather from a small table, e.g. AES S-box).
    Lookup,
    // --- reductions ---
    /// Horizontal sum of all lanes into a scalar.
    ReduceAdd,
    /// Horizontal maximum of all lanes into a scalar.
    ReduceMax,
    // --- non-vectorized remainder ---
    /// A scalar / control-intensive region that could not be vectorized and
    /// executes on a general-purpose core (host or ISP).
    Scalar,
}

impl OpType {
    /// All operation types, useful for exhaustive tables and property tests.
    pub const ALL: [OpType; 24] = [
        OpType::And,
        OpType::Or,
        OpType::Xor,
        OpType::Not,
        OpType::Nand,
        OpType::Nor,
        OpType::Shl,
        OpType::Shr,
        OpType::Add,
        OpType::Sub,
        OpType::Mul,
        OpType::Div,
        OpType::Min,
        OpType::Max,
        OpType::CmpEq,
        OpType::CmpLt,
        OpType::CmpGt,
        OpType::Select,
        OpType::Copy,
        OpType::Shuffle,
        OpType::Lookup,
        OpType::ReduceAdd,
        OpType::ReduceMax,
        OpType::Scalar,
    ];

    /// Whether this is one of the six bulk bitwise operations.
    pub fn is_bitwise(self) -> bool {
        matches!(
            self,
            OpType::And | OpType::Or | OpType::Xor | OpType::Not | OpType::Nand | OpType::Nor
        )
    }

    /// Whether this is an element-wise arithmetic operation.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            OpType::Add | OpType::Sub | OpType::Mul | OpType::Div | OpType::Min | OpType::Max
        )
    }

    /// Whether this is a predication / relational operation.
    pub fn is_predication(self) -> bool {
        matches!(
            self,
            OpType::CmpEq | OpType::CmpLt | OpType::CmpGt | OpType::Select
        )
    }

    /// Whether this is a horizontal reduction.
    pub fn is_reduction(self) -> bool {
        matches!(self, OpType::ReduceAdd | OpType::ReduceMax)
    }

    /// Whether this is a data-movement / layout operation.
    pub fn is_data_movement(self) -> bool {
        matches!(self, OpType::Copy | OpType::Shuffle | OpType::Lookup)
    }

    /// Whether this is a non-vectorized scalar/control region.
    pub fn is_scalar(self) -> bool {
        matches!(self, OpType::Scalar)
    }

    /// The number of source operands this operation consumes.
    pub fn arity(self) -> usize {
        match self {
            OpType::Not | OpType::Copy | OpType::Shuffle | OpType::Shl | OpType::Shr => 1,
            OpType::ReduceAdd | OpType::ReduceMax => 1,
            OpType::Select => 3,
            OpType::Scalar => 1,
            OpType::Lookup => 2,
            _ => 2,
        }
    }

    /// The latency class used for workload characterization (Table 3).
    pub fn latency_class(self) -> LatencyClass {
        match self {
            OpType::And
            | OpType::Or
            | OpType::Xor
            | OpType::Not
            | OpType::Nand
            | OpType::Nor
            | OpType::Shl
            | OpType::Shr => LatencyClass::Low,
            OpType::Add
            | OpType::Sub
            | OpType::Min
            | OpType::Max
            | OpType::CmpEq
            | OpType::CmpLt
            | OpType::CmpGt
            | OpType::Select
            | OpType::Copy
            | OpType::Shuffle
            | OpType::Lookup
            | OpType::Scalar => LatencyClass::Medium,
            OpType::Mul | OpType::Div | OpType::ReduceAdd | OpType::ReduceMax => LatencyClass::High,
        }
    }

    /// A compact stable numeric encoding of the operation type as stored in
    /// the instruction-transformation translation table (two bytes per entry,
    /// §4.5 of the paper).
    pub fn encoding(self) -> u16 {
        OpType::ALL
            .iter()
            .position(|&o| o == self)
            .expect("every op is in ALL") as u16
            + 1
    }

    /// The inverse of [`OpType::encoding`]. Returns `None` for codes that do
    /// not correspond to any operation.
    pub fn from_encoding(code: u16) -> Option<OpType> {
        if code == 0 {
            return None;
        }
        OpType::ALL.get(code as usize - 1).copied()
    }
}

impl fmt::Display for OpType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpType::And => "and",
            OpType::Or => "or",
            OpType::Xor => "xor",
            OpType::Not => "not",
            OpType::Nand => "nand",
            OpType::Nor => "nor",
            OpType::Shl => "shl",
            OpType::Shr => "shr",
            OpType::Add => "add",
            OpType::Sub => "sub",
            OpType::Mul => "mul",
            OpType::Div => "div",
            OpType::Min => "min",
            OpType::Max => "max",
            OpType::CmpEq => "cmpeq",
            OpType::CmpLt => "cmplt",
            OpType::CmpGt => "cmpgt",
            OpType::Select => "select",
            OpType::Copy => "copy",
            OpType::Shuffle => "shuffle",
            OpType::Lookup => "lookup",
            OpType::ReduceAdd => "reduce_add",
            OpType::ReduceMax => "reduce_max",
            OpType::Scalar => "scalar",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_is_exhaustive_and_unique() {
        let set: HashSet<_> = OpType::ALL.iter().collect();
        assert_eq!(set.len(), OpType::ALL.len());
    }

    #[test]
    fn encoding_roundtrips() {
        for op in OpType::ALL {
            assert_eq!(OpType::from_encoding(op.encoding()), Some(op));
        }
        assert_eq!(OpType::from_encoding(0), None);
        assert_eq!(OpType::from_encoding(10_000), None);
    }

    #[test]
    fn classification_partitions() {
        for op in OpType::ALL {
            let kinds = [
                op.is_bitwise(),
                op.is_arithmetic(),
                op.is_predication(),
                op.is_reduction(),
                op.is_data_movement(),
                op.is_scalar(),
                matches!(op, OpType::Shl | OpType::Shr),
            ];
            let n = kinds.iter().filter(|&&b| b).count();
            assert_eq!(n, 1, "{op} should belong to exactly one class");
        }
    }

    #[test]
    fn exactly_six_bitwise_ops() {
        assert_eq!(OpType::ALL.iter().filter(|o| o.is_bitwise()).count(), 6);
    }

    #[test]
    fn latency_classes_match_paper_table3_notes() {
        assert_eq!(OpType::Xor.latency_class(), LatencyClass::Low);
        assert_eq!(OpType::Add.latency_class(), LatencyClass::Medium);
        assert_eq!(OpType::CmpLt.latency_class(), LatencyClass::Medium);
        assert_eq!(OpType::Mul.latency_class(), LatencyClass::High);
    }

    #[test]
    fn arity_is_consistent_with_kind() {
        assert_eq!(OpType::Not.arity(), 1);
        assert_eq!(OpType::Add.arity(), 2);
        assert_eq!(OpType::Select.arity(), 3);
    }

    #[test]
    fn display_is_lowercase_and_nonempty() {
        for op in OpType::ALL {
            let s = op.to_string();
            assert!(!s.is_empty());
            assert_eq!(s, s.to_lowercase());
        }
    }
}
