//! Un-contended DRAM bus timing and energy.

use conduit_types::{DramConfig, Duration, Energy};

/// Latency/energy model for moving bytes over the SSD's internal DRAM bus:
/// staging pages between flash, DRAM and the controller. Contention on the
/// bus is modelled by the event-driven simulator; PuD compute is
/// [`crate::PudModel`]'s.
#[derive(Debug, Clone, PartialEq)]
pub struct DramTiming {
    cfg: DramConfig,
}

impl DramTiming {
    /// Builds a timing model from the DRAM configuration.
    pub fn new(cfg: &DramConfig) -> Self {
        DramTiming { cfg: cfg.clone() }
    }

    /// Pure bus-transfer time for `bytes`.
    pub fn bus_transfer(&self, bytes: u64) -> Duration {
        Duration::for_transfer(bytes, self.cfg.bus_bytes_per_sec)
    }

    /// Energy of moving `bytes` over the DRAM bus (including the row
    /// activations needed to stream them).
    pub fn transfer_energy(&self, bytes: u64) -> Energy {
        let rows = bytes.div_ceil(self.cfg.row_bytes);
        self.cfg.e_act_pre * rows + self.cfg.e_bus_per_byte * bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> DramTiming {
        DramTiming::new(&DramConfig::default())
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let t = timing();
        let small = t.bus_transfer(4 * 1024);
        let large = t.bus_transfer(16 * 1024);
        assert!(large > small * 3 && large < small * 5);
    }

    #[test]
    fn energies_are_positive_and_scale() {
        let t = timing();
        assert!(t.transfer_energy(4 * 1024) > Energy::ZERO);
        assert!(t.transfer_energy(16 * 1024) > t.transfer_energy(4 * 1024));
    }
}
