//! Processing-using-DRAM (PuD-SSD) compute model.
//!
//! Follows the SIMDRAM/MIMDRAM/Proteus lineage the paper builds on: data is
//! laid out so that one *sub-operation* processes a full DRAM row per bank
//! (2048 32-bit elements for the 8 KiB rows of Table 2), and every vector
//! operation is decomposed into a sequence of **bulk-bitwise operation
//! primitives (bbops)** — activate-activate-precharge command triplets whose
//! latency and energy come from Table 2 (49 ns, 0.864 nJ).
//!
//! Bitwise operations need a handful of bbops; bit-serial arithmetic needs
//! a number of bbops proportional to the element width (addition) or to a
//! multiple of it (multiplication), which is what makes multiplication
//! comparatively expensive in DRAM and shifts the offloader's choices for
//! multiply-heavy phases (§6.5 of the paper).

use conduit_types::{ConduitError, DramConfig, Duration, Energy, OpType, Resource, Result};

/// The latency and energy of one PuD-SSD vector operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PudCost {
    /// End-to-end service latency (excluding queueing and operand staging).
    pub latency: Duration,
    /// Total energy across all row-granular sub-operations.
    pub energy: Energy,
    /// Number of row-granular sub-operations the vector was split into.
    pub sub_ops: u32,
    /// Number of bbop primitives per sub-operation.
    pub bbops_per_sub_op: u64,
}

/// The part of a PuD-SSD operation's cost fixed by its shape (operation,
/// element width, lane count): everything but the number of waves its
/// sub-operations run in, which depends on how many compute units are free
/// when it runs ([`PudShape::latency`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PudShape {
    /// Number of row-granular sub-operations the vector is split into.
    pub sub_ops: u32,
    /// Number of bbop primitives per sub-operation.
    pub bbops_per_sub_op: u64,
    /// Total energy across all sub-operations (the same for every wave
    /// count: the work is the same).
    pub energy: Energy,
    /// Latency of one bbop.
    t_bbop: Duration,
}

impl PudShape {
    /// Service latency with `units` compute units running sub-operations
    /// concurrently (at least one): more sub-operations than units
    /// serialize in waves.
    #[inline]
    pub fn latency(&self, units: u32) -> Duration {
        let waves = self.sub_ops.div_ceil(units.max(1)) as u64;
        self.t_bbop * (self.bbops_per_sub_op * waves)
    }
}

/// Processing-using-DRAM cost model.
///
/// # Examples
///
/// ```
/// use conduit_dram::PudModel;
/// use conduit_types::{DramConfig, OpType};
///
/// let pud = PudModel::new(&DramConfig::default());
/// // A full-width vector is split into 2048-element sub-operations.
/// let cost = pud.op_cost(OpType::Add, 32, 4096, 8)?;
/// assert_eq!(cost.sub_ops, 2);
/// # Ok::<(), conduit_types::ConduitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PudModel {
    cfg: DramConfig,
}

impl PudModel {
    /// Builds a PuD model from the DRAM configuration.
    pub fn new(cfg: &DramConfig) -> Self {
        PudModel { cfg: cfg.clone() }
    }

    /// Whether the DRAM substrate can execute `op` at all.
    pub fn supports(&self, op: OpType) -> bool {
        Resource::PudSsd.supports(op)
    }

    /// Number of elements one sub-operation (one row per bank) processes.
    pub fn elems_per_sub_op(&self, elem_bits: u32) -> u32 {
        self.cfg.elems_per_row(elem_bits)
    }

    /// Number of row-granular sub-operations a vector of `lanes` lanes needs.
    pub fn sub_ops(&self, elem_bits: u32, lanes: u32) -> u32 {
        lanes.div_ceil(self.elems_per_sub_op(elem_bits)).max(1)
    }

    /// Number of bbop primitives needed for one sub-operation of `op` on
    /// `elem_bits`-wide elements.
    pub fn bbop_count(&self, op: OpType, elem_bits: u32) -> u64 {
        let n = elem_bits as u64;
        match op {
            // Majority-based AND/OR: copy operands into compute rows + one
            // triple-row activation.
            OpType::And | OpType::Or => 3,
            OpType::Nand | OpType::Nor => 4,
            OpType::Not => 2,
            OpType::Xor => 6,
            // In-DRAM shifts via the inter-mat interconnect.
            OpType::Shl | OpType::Shr => 4,
            // RowClone copy of the rows that make up the sub-operation.
            OpType::Copy => 2,
            // Bit-serial arithmetic: ~3 bbops per bit for the optimized
            // (Proteus-style) MAJ-based adder chain.
            OpType::Add => 3 * n,
            OpType::Sub => 3 * n + 2,
            // Comparison = subtraction + sign extraction.
            OpType::CmpEq | OpType::CmpLt | OpType::CmpGt => 3 * n + 4,
            OpType::Min | OpType::Max => 4 * n + 4,
            // Proteus-style multiplication with dynamic bit-precision:
            // ~3 bbops per partial-product bit over n*n/8 partial products.
            OpType::Mul => 3 * n * n / 8,
            // Unsupported operations never reach here (op_cost rejects them),
            // but return a defensive upper bound.
            _ => 16 * n,
        }
    }

    /// The wave-independent cost of a PuD vector operation of this shape:
    /// its sub-operation count, bbops per sub-operation and energy.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::UnsupportedOperation`] if `op` is outside the
    /// PuD operation set.
    pub fn shape(&self, op: OpType, elem_bits: u32, lanes: u32) -> Result<PudShape> {
        if !self.supports(op) {
            return Err(ConduitError::UnsupportedOperation {
                op,
                resource: Resource::PudSsd,
            });
        }
        let sub_ops = self.sub_ops(elem_bits, lanes);
        let bbops = self.bbop_count(op, elem_bits);
        Ok(PudShape {
            sub_ops,
            bbops_per_sub_op: bbops,
            energy: self.cfg.e_bbop * (bbops * sub_ops as u64),
            t_bbop: self.cfg.t_bbop,
        })
    }

    /// Latency and energy of one PuD vector operation, given `banks_free`
    /// banks available to run sub-operations concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::UnsupportedOperation`] if `op` is outside the
    /// PuD operation set.
    pub fn op_cost(
        &self,
        op: OpType,
        elem_bits: u32,
        lanes: u32,
        banks_free: u32,
    ) -> Result<PudCost> {
        let shape = self.shape(op, elem_bits, lanes)?;
        Ok(PudCost {
            latency: shape.latency(banks_free.clamp(1, self.cfg.compute_units())),
            energy: shape.energy,
            sub_ops: shape.sub_ops,
            bbops_per_sub_op: shape.bbops_per_sub_op,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PudModel {
        PudModel::new(&DramConfig::default())
    }

    #[test]
    fn unsupported_ops_are_rejected() {
        let m = model();
        for op in [
            OpType::Div,
            OpType::Select,
            OpType::ReduceAdd,
            OpType::Scalar,
        ] {
            let err = m.op_cost(op, 32, 4096, 8).unwrap_err();
            assert!(matches!(err, ConduitError::UnsupportedOperation { .. }));
        }
    }

    #[test]
    fn full_vector_splits_into_two_sub_ops() {
        let m = model();
        assert_eq!(m.elems_per_sub_op(32), 2048);
        assert_eq!(m.sub_ops(32, 4096), 2);
        assert_eq!(m.sub_ops(32, 2048), 1);
        assert_eq!(m.sub_ops(8, 4096), 1);
    }

    #[test]
    fn bitwise_is_cheap_arithmetic_scales_with_width() {
        let m = model();
        assert!(m.bbop_count(OpType::And, 32) <= 4);
        assert_eq!(m.bbop_count(OpType::Add, 32), 96);
        assert_eq!(m.bbop_count(OpType::Add, 8), 24);
        assert!(m.bbop_count(OpType::Mul, 32) >= m.bbop_count(OpType::Add, 32) * 4);
    }

    #[test]
    fn latency_ordering_matches_op_complexity() {
        let m = model();
        let and = m.op_cost(OpType::And, 32, 4096, 8).unwrap();
        let add = m.op_cost(OpType::Add, 32, 4096, 8).unwrap();
        let mul = m.op_cost(OpType::Mul, 32, 4096, 8).unwrap();
        assert!(and.latency < add.latency);
        assert!(add.latency < mul.latency);
        // AND on a full vector takes well under a microsecond.
        assert!(and.latency < Duration::from_us(1.0));
    }

    #[test]
    fn bank_parallelism_hides_sub_ops() {
        let m = model();
        let parallel = m.op_cost(OpType::Add, 32, 4096, 8).unwrap();
        let serial = m.op_cost(OpType::Add, 32, 4096, 1).unwrap();
        assert_eq!(serial.latency, parallel.latency * 2);
        // Energy is identical: the same work is done either way.
        assert_eq!(serial.energy, parallel.energy);
    }

    #[test]
    fn shape_latency_counts_waves() {
        let m = model();
        // 64-bit elements: 1024 per row, so 4096 lanes are four sub-ops.
        let shape = m.shape(OpType::Add, 64, 4096).unwrap();
        assert_eq!(shape.sub_ops, 4);
        for (units, waves) in [(0, 4), (1, 4), (2, 2), (3, 2), (4, 1), (128, 1)] {
            let cost = m.op_cost(OpType::Add, 64, 4096, units.max(1)).unwrap();
            assert_eq!(shape.latency(units), cost.latency, "{units} units");
            assert_eq!(cost.latency, shape.latency(4) * waves, "{units} units");
            assert_eq!(cost.energy, shape.energy);
        }
        assert!(m.shape(OpType::Div, 32, 4096).is_err());
    }

    #[test]
    fn energy_scales_with_sub_ops() {
        let m = model();
        let half = m.op_cost(OpType::Add, 32, 2048, 8).unwrap();
        let full = m.op_cost(OpType::Add, 32, 4096, 8).unwrap();
        assert!((full.energy.as_nj() - 2.0 * half.energy.as_nj()).abs() < 1e-9);
    }

    #[test]
    fn cost_matches_table2_bbop_numbers() {
        let m = model();
        let and = m.op_cost(OpType::And, 32, 2048, 8).unwrap();
        // 3 bbops at 49 ns / 0.864 nJ each.
        assert_eq!(and.latency, Duration::from_ns(147.0));
        assert!((and.energy.as_nj() - 2.592).abs() < 1e-9);
    }
}
