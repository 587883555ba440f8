//! Compute resources and data locations.
//!
//! The SSD contains three heterogeneous NDP compute resources (§2.2):
//! general-purpose embedded controller cores (**ISP**), the SSD-internal
//! DRAM (**PuD-SSD**) and the NAND flash chips (**IFP**). The host CPU and
//! GPU are modelled as additional *execution sites* used by the
//! outside-storage-processing (OSP) baselines.

use crate::op::OpType;
use std::fmt;

/// One of the three SSD-internal compute resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// In-storage processing on the SSD controller's embedded cores.
    Isp,
    /// Processing-using-DRAM inside the SSD's LPDDR4 DRAM.
    PudSsd,
    /// In-flash processing inside the NAND flash chips.
    Ifp,
}

impl Resource {
    /// All SSD compute resources, in cost-function evaluation order.
    pub const ALL: [Resource; 3] = [Resource::Isp, Resource::PudSsd, Resource::Ifp];

    /// Whether this resource can execute the given operation at all.
    ///
    /// * ISP executes everything (general-purpose cores).
    /// * PuD-SSD executes the SIMDRAM/MIMDRAM/Proteus operation set
    ///   (bulk bitwise, shifts, add/sub/mul, min/max, predication,
    ///   relational, copy) but not division, gathers/lookups, reductions or
    ///   scalar control code.
    /// * IFP executes the six bulk bitwise operations (Flash-Cosmos) and
    ///   three arithmetic operations — add, sub, mul — via Ares-Flash
    ///   shift-and-add, plus bulk copy.
    ///
    /// ```
    /// use conduit_types::{OpType, Resource};
    /// assert!(Resource::Isp.supports(OpType::Div));
    /// assert!(!Resource::Ifp.supports(OpType::Div));
    /// assert!(Resource::Ifp.supports(OpType::And));
    /// assert!(Resource::PudSsd.supports(OpType::CmpLt));
    /// ```
    pub fn supports(self, op: OpType) -> bool {
        match self {
            Resource::Isp => true,
            Resource::PudSsd => {
                // The 16-operation SIMDRAM/MIMDRAM/Proteus set: 6 bitwise,
                // 2 shifts, 5 arithmetic (add/sub/mul/min/max) and 3
                // relational, plus RowClone bulk copy. Predicated select is
                // left to the general-purpose cores.
                op.is_bitwise()
                    || matches!(
                        op,
                        OpType::Shl
                            | OpType::Shr
                            | OpType::Add
                            | OpType::Sub
                            | OpType::Mul
                            | OpType::Min
                            | OpType::Max
                            | OpType::CmpEq
                            | OpType::CmpLt
                            | OpType::CmpGt
                            | OpType::Copy
                    )
            }
            Resource::Ifp => {
                op.is_bitwise()
                    || matches!(op, OpType::Add | OpType::Sub | OpType::Mul | OpType::Copy)
            }
        }
    }

    /// The number of distinct vector operations this resource supports,
    /// mirroring the counts quoted in §4.3.2 (ISP ≈ 300 ISA instructions,
    /// PuD-SSD 16 operations, IFP 9 operations). For ISP this returns the
    /// size of the vector-op set it can execute (all of them).
    pub fn supported_op_count(self) -> usize {
        OpType::ALL.iter().filter(|&&op| self.supports(op)).count()
    }

    /// The data location this resource computes from: the controller cores
    /// and the PuD substrate both operate on data staged in the SSD DRAM
    /// (the controller's working memory), while in-flash processing operates
    /// on data in place in the flash array.
    pub fn home_location(self) -> DataLocation {
        match self {
            Resource::Isp => DataLocation::Dram,
            Resource::PudSsd => DataLocation::Dram,
            Resource::Ifp => DataLocation::Flash,
        }
    }

    /// Short machine-readable name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Resource::Isp => "ISP",
            Resource::PudSsd => "PuD-SSD",
            Resource::Ifp => "IFP",
        }
    }

    /// The position of this resource in [`Resource::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Any place an instruction can execute: on the host (OSP baselines) or on
/// one of the SSD compute resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExecutionSite {
    /// The host CPU (outside-storage processing).
    HostCpu,
    /// The host GPU (outside-storage processing).
    HostGpu,
    /// One of the SSD compute resources.
    Ssd(Resource),
}

impl ExecutionSite {
    /// All execution sites.
    pub const ALL: [ExecutionSite; 5] = [
        ExecutionSite::HostCpu,
        ExecutionSite::HostGpu,
        ExecutionSite::Ssd(Resource::Isp),
        ExecutionSite::Ssd(Resource::PudSsd),
        ExecutionSite::Ssd(Resource::Ifp),
    ];

    /// The SSD resource, if this site is inside the SSD.
    pub fn resource(self) -> Option<Resource> {
        match self {
            ExecutionSite::Ssd(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this site is on the host side of the PCIe link.
    pub fn is_host(self) -> bool {
        matches!(self, ExecutionSite::HostCpu | ExecutionSite::HostGpu)
    }

    /// Short machine-readable name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionSite::HostCpu => "CPU",
            ExecutionSite::HostGpu => "GPU",
            ExecutionSite::Ssd(r) => r.name(),
        }
    }
}

impl fmt::Display for ExecutionSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<Resource> for ExecutionSite {
    fn from(r: Resource) -> Self {
        ExecutionSite::Ssd(r)
    }
}

/// Where the bytes of a logical page currently live.
///
/// Used by the lazy coherence protocol (§4.4): the L2P table records the
/// *owner* of the latest version of each page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataLocation {
    /// In a NAND flash page (the durable home of all data).
    Flash,
    /// In the SSD-internal DRAM.
    Dram,
    /// In the SSD controller's SRAM / registers.
    CtrlSram,
    /// In host main memory (only for OSP baselines).
    Host,
}

impl DataLocation {
    /// All data locations.
    pub const ALL: [DataLocation; 4] = [
        DataLocation::Flash,
        DataLocation::Dram,
        DataLocation::CtrlSram,
        DataLocation::Host,
    ];

    /// The 4-bit encoding used in the L2P coherence metadata (§4.5:
    /// "we encode operand location using four bits").
    pub fn encoding(self) -> u8 {
        match self {
            DataLocation::Flash => 0,
            DataLocation::Dram => 1,
            DataLocation::CtrlSram => 2,
            DataLocation::Host => 3,
        }
    }

    /// Inverse of [`DataLocation::encoding`].
    pub fn from_encoding(code: u8) -> Option<DataLocation> {
        match code {
            0 => Some(DataLocation::Flash),
            1 => Some(DataLocation::Dram),
            2 => Some(DataLocation::CtrlSram),
            3 => Some(DataLocation::Host),
            _ => None,
        }
    }

    /// Whether data at this location is inside the SSD.
    pub fn is_in_ssd(self) -> bool {
        !matches!(self, DataLocation::Host)
    }
}

impl fmt::Display for DataLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataLocation::Flash => "flash",
            DataLocation::Dram => "dram",
            DataLocation::CtrlSram => "ctrl-sram",
            DataLocation::Host => "host",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isp_supports_everything() {
        for op in OpType::ALL {
            assert!(Resource::Isp.supports(op));
        }
    }

    #[test]
    fn ifp_supports_nine_compute_ops_plus_copy() {
        // 6 bitwise + 3 arithmetic (add, sub, mul) + copy
        let n = OpType::ALL
            .iter()
            .filter(|&&op| Resource::Ifp.supports(op) && op != OpType::Copy)
            .count();
        assert_eq!(n, 9);
        assert!(Resource::Ifp.supports(OpType::Copy));
        assert!(!Resource::Ifp.supports(OpType::CmpEq));
        assert!(!Resource::Ifp.supports(OpType::Div));
        assert!(!Resource::Ifp.supports(OpType::Scalar));
    }

    #[test]
    fn pud_supports_sixteen_compute_ops_plus_copy() {
        let n = OpType::ALL
            .iter()
            .filter(|&&op| Resource::PudSsd.supports(op) && op != OpType::Copy)
            .count();
        assert_eq!(n, 16);
        assert!(!Resource::PudSsd.supports(OpType::Div));
        assert!(!Resource::PudSsd.supports(OpType::ReduceAdd));
        assert!(!Resource::PudSsd.supports(OpType::Scalar));
    }

    #[test]
    fn supported_counts_ordered_by_generality() {
        assert!(
            Resource::Isp.supported_op_count() > Resource::PudSsd.supported_op_count()
                && Resource::PudSsd.supported_op_count() > Resource::Ifp.supported_op_count()
        );
    }

    #[test]
    fn home_locations() {
        assert_eq!(Resource::Ifp.home_location(), DataLocation::Flash);
        assert_eq!(Resource::PudSsd.home_location(), DataLocation::Dram);
        assert_eq!(Resource::Isp.home_location(), DataLocation::Dram);
    }

    #[test]
    fn execution_site_helpers() {
        assert!(ExecutionSite::HostCpu.is_host());
        assert!(!ExecutionSite::Ssd(Resource::Ifp).is_host());
        assert_eq!(
            ExecutionSite::Ssd(Resource::Isp).resource(),
            Some(Resource::Isp)
        );
        assert_eq!(ExecutionSite::HostGpu.resource(), None);
        assert_eq!(ExecutionSite::from(Resource::PudSsd).name(), "PuD-SSD");
    }

    #[test]
    fn data_location_encoding_roundtrips() {
        for loc in DataLocation::ALL {
            assert_eq!(DataLocation::from_encoding(loc.encoding()), Some(loc));
            assert!(loc.encoding() < 16, "must fit in four bits");
        }
        assert_eq!(DataLocation::from_encoding(15), None);
    }
}
