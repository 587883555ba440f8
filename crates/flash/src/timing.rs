//! Un-contended timing and energy of basic flash operations.

use conduit_types::{Duration, Energy, FlashConfig};

/// Latency and energy model for plain flash operations (read, program,
/// erase, channel DMA). Values come straight from the [`FlashConfig`]
/// (Table 2 of the paper, SLC-mode operation).
///
/// The model intentionally excludes queueing/contention: the event-driven
/// simulator composes these service times with per-channel and per-die busy
/// tracking.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashTiming {
    cfg: FlashConfig,
}

impl FlashTiming {
    /// Builds a timing model from a flash configuration.
    pub fn new(cfg: &FlashConfig) -> Self {
        FlashTiming { cfg: cfg.clone() }
    }

    /// SLC-mode page sensing latency (`tR`).
    pub fn read_page(&self) -> Duration {
        self.cfg.t_read
    }

    /// SLC-mode page program latency (`tPROG`).
    pub fn program_page(&self) -> Duration {
        self.cfg.t_program
    }

    /// Block erase latency (`tBERS`).
    pub fn erase_block(&self) -> Duration {
        self.cfg.t_erase
    }

    /// Time to move one full page between the page buffer and the flash
    /// controller over the channel.
    pub fn page_dma(&self) -> Duration {
        self.cfg.t_dma
    }

    /// Energy of sensing one page.
    pub fn read_energy(&self) -> Energy {
        self.cfg.e_read
    }

    /// Energy of programming one page.
    pub fn program_energy(&self) -> Energy {
        self.cfg.e_program
    }

    /// Energy of one page DMA over the channel.
    pub fn dma_energy(&self) -> Energy {
        self.cfg.e_dma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> FlashTiming {
        FlashTiming::new(&FlashConfig::default())
    }

    #[test]
    fn service_times_match_config() {
        let t = timing();
        assert_eq!(t.read_page(), Duration::from_us(22.5));
        assert_eq!(t.program_page(), Duration::from_us(400.0));
        assert_eq!(t.erase_block(), Duration::from_us(3500.0));
        assert_eq!(t.page_dma(), Duration::from_us(3.3));
    }
}
