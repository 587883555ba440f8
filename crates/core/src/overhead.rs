//! Runtime latency and storage overheads of Conduit's offloader (§4.5).

use conduit_types::{Duration, OffloaderOverheadConfig, Resource, SsdConfig};

/// Storage footprint of Conduit's metadata in SSD DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageOverhead {
    /// Per-instruction feature metadata table (Table 1 fields).
    pub metadata_table_bytes: u64,
    /// The instruction-transformation translation table.
    pub translation_table_bytes: u64,
    /// Coherence metadata per tracked logical page.
    pub coherence_bytes_per_page: u64,
}

impl StorageOverhead {
    /// Total fixed overhead (excluding the per-page coherence metadata).
    pub fn fixed_total_bytes(&self) -> u64 {
        self.metadata_table_bytes + self.translation_table_bytes
    }
}

/// The runtime overhead model: how long feature collection and instruction
/// transformation occupy the offloader core for each instruction.
///
/// # Examples
///
/// ```
/// use conduit::OverheadModel;
/// use conduit_types::SsdConfig;
///
/// let model = OverheadModel::new(&SsdConfig::default());
/// let typical = model.per_instruction(2, false);
/// let worst = model.per_instruction(2, true);
/// // §4.5: ≈3.77 µs on average, up to ≈33 µs when an L2P lookup misses.
/// assert!((typical.as_us() - 3.77).abs() < 0.5);
/// assert!(worst.as_us() > 30.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadModel {
    cfg: OffloaderOverheadConfig,
    translation_entries: u64,
}

impl OverheadModel {
    /// Builds the overhead model from the device configuration.
    pub fn new(cfg: &SsdConfig) -> Self {
        OverheadModel {
            cfg: cfg.overheads.clone(),
            translation_entries: Resource::ALL
                .iter()
                .map(|r| r.supported_op_count() as u64)
                .sum(),
        }
    }

    /// Latency of collecting the six cost-function features for one
    /// instruction with `operands` data operands. `l2p_miss` selects the
    /// slow path where a mapping entry has to be fetched from flash.
    pub fn feature_collection(&self, operands: usize, l2p_miss: bool) -> Duration {
        let c = &self.cfg;
        let location = if l2p_miss {
            c.l2p_lookup_flash
        } else {
            c.l2p_lookup_dram * operands.max(1) as u64
        };
        // Dependence tracking inspects the execution queues of the (on
        // average two) resources that hold pending producers; queue tracking
        // reads one running counter per resource.
        location
            + c.dependence_tracking_per_queue * 2
            + c.queue_tracking_per_resource
            + c.dm_table_lookup
            + c.comp_table_lookup
    }

    /// Latency of the instruction-transformation translation-table lookup.
    pub fn transformation(&self) -> Duration {
        self.cfg.transform_lookup
    }

    /// Entries in the instruction-transformation translation table: one per
    /// operation each resource supports.
    pub fn translation_entries(&self) -> u64 {
        self.translation_entries
    }

    /// Total per-instruction offloader overhead.
    pub fn per_instruction(&self, operands: usize, l2p_miss: bool) -> Duration {
        self.feature_collection(operands, l2p_miss) + self.transformation()
    }

    /// The storage overheads of §4.5.
    pub fn storage(&self) -> StorageOverhead {
        // Metadata table fields (Table 1): 2 B op type, 0.5 B operand
        // location, 2 B dependence delay, 3×4 B queueing delays, 4 B data
        // movement latency, 4 B computation latency ≈ 25 B, rounded to 32 B.
        StorageOverhead {
            metadata_table_bytes: 32,
            translation_table_bytes: self.translation_entries * 4,
            coherence_bytes_per_page: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> OverheadModel {
        OverheadModel::new(&SsdConfig::default())
    }

    #[test]
    fn typical_overhead_matches_section_4_5() {
        let m = model();
        let typical = m.per_instruction(2, false);
        assert!((typical.as_us() - 3.77).abs() < 0.5, "got {typical}");
        assert_eq!(m.transformation(), Duration::from_ns(300.0));
    }

    #[test]
    fn l2p_miss_dominates_worst_case() {
        let m = model();
        let worst = m.per_instruction(2, true);
        assert!(worst.as_us() > 30.0 && worst.as_us() < 36.0, "got {worst}");
        assert!(worst > m.per_instruction(2, false) * 5);
    }

    #[test]
    fn more_operands_cost_slightly_more() {
        let m = model();
        assert!(m.feature_collection(3, false) > m.feature_collection(1, false));
    }

    #[test]
    fn storage_overhead_is_under_two_kib() {
        let m = model();
        let s = m.storage();
        assert!(s.translation_table_bytes > 100);
        assert_eq!(s.translation_table_bytes, m.translation_entries() * 4);
        assert!(
            s.fixed_total_bytes() <= 2048,
            "got {}",
            s.fixed_total_bytes()
        );
        assert_eq!(s.coherence_bytes_per_page, 2);
    }
}
