//! The cost estimates of one instruction shape.
//!
//! Conduit's cost function asks the device, for every instruction it places,
//! for the *un-contended* compute latency and energy of every candidate
//! resource and the *static* latency of moving the operands to each
//! resource (the `latency_comp` and `latency_dm` features of §4.3.2). Both
//! are pure functions of the static [`SsdConfig`] and the instruction's
//! shape (operation, element width, lane count).
//!
//! `compute_estimate` and `static_move` evaluate the substrate models for
//! one entry, and
//! [`SsdDevice::estimate_strip`](crate::SsdDevice::estimate_strip) gathers
//! every entry of one shape into a [`StripEstimates`] row, together with the
//! shape's [`PudShape`]. The run loop resolves that row once per shape per
//! run; its cost row is the one per-shape cache, and the cost function, PuD
//! execution and ISP execution all read it.

use conduit_ctrl::IspModel;
use conduit_dram::{DramTiming, PudModel, PudShape};
use conduit_flash::{FlashTiming, IfpModel, IfpPlacement};
use conduit_types::{DataLocation, Duration, Energy, OpType, Resource, SsdConfig};

/// The un-contended latency and energy of one (resource, operation) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Expected computation latency (`latency_comp`).
    pub latency: Duration,
    /// Expected computation energy.
    pub energy: Energy,
}

/// Number of distinct data locations (indexes [`StripEstimates::moves`]).
pub const LOC_COUNT: usize = DataLocation::ALL.len();

/// Number of candidate SSD compute resources (indexes [`StripEstimates`]).
pub const RESOURCE_COUNT: usize = Resource::ALL.len();

/// Hoisted per-strip estimates: everything the cost function and PuD and
/// ISP execution need that depends only on the strip's (op, shape), not on
/// the individual instruction. Indexed by [`Resource::index`] in
/// [`Resource::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripEstimates {
    /// The operation the estimates are for.
    pub op: OpType,
    /// The element width in bits.
    pub elem_bits: u32,
    /// The lane count.
    pub lanes: u32,
    /// The shape's PuD cost apart from its wave count (`None` = PuD does
    /// not support the operation), which
    /// [`SsdDevice::execute_pud`](crate::SsdDevice::execute_pud) reads.
    pub pud: Option<PudShape>,
    /// Un-contended compute estimate per candidate resource (`None` = the
    /// resource does not support the strip's operation). ISP execution
    /// ([`SsdDevice::execute_isp`](crate::SsdDevice::execute_isp)) charges
    /// the ISP entry.
    pub compute: [Option<CostEstimate>; RESOURCE_COUNT],
    /// Static move latency from each [`DataLocation`] (indexed by its
    /// encoding) to each resource's home location, at the strip's vector
    /// byte size.
    pub moves: [[Duration; LOC_COUNT]; RESOURCE_COUNT],
}

impl StripEstimates {
    /// The hoisted compute estimate for `resource`.
    #[inline]
    pub fn compute_for(&self, resource: Resource) -> Option<CostEstimate> {
        self.compute[resource.index()]
    }

    /// The hoisted static move latency from `loc` to `resource`'s home
    /// location.
    #[inline]
    pub fn move_from(&self, resource: Resource, loc: DataLocation) -> Duration {
        self.moves[resource.index()][loc.encoding() as usize]
    }
}

/// The un-contended compute latency and energy of `op` on `resource` at the
/// given shape, from the resource's substrate model (`None` if the model
/// rejects the operation). IFP is costed with its operands co-located in
/// one block, the layout operand groups are mapped to.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_estimate(
    cfg: &SsdConfig,
    ifp: &IfpModel,
    pud: &PudModel,
    isp: &IspModel,
    resource: Resource,
    op: OpType,
    elem_bits: u32,
    lanes: u32,
) -> Option<CostEstimate> {
    match resource {
        Resource::Ifp => ifp
            .op_cost(
                op,
                elem_bits,
                lanes,
                IfpPlacement::SameBlock { operands: 2 },
            )
            .ok()
            .map(|c| CostEstimate {
                latency: c.latency,
                energy: c.energy,
            }),
        Resource::PudSsd => pud
            .op_cost(op, elem_bits, lanes, cfg.dram.compute_units())
            .ok()
            .map(|c| CostEstimate {
                latency: c.latency,
                energy: c.energy,
            }),
        Resource::Isp => {
            let c = isp.op_cost(op, elem_bits, lanes);
            Some(CostEstimate {
                latency: c.latency,
                energy: c.energy,
            })
        }
    }
}

/// The static (contention-free) latency of moving `bytes` from `from` to
/// `to`: whole flash pages sensed or programmed, the DRAM bus, and the NVMe
/// link for the host.
pub(crate) fn static_move(
    cfg: &SsdConfig,
    flash_timing: &FlashTiming,
    dram_timing: &DramTiming,
    from: DataLocation,
    to: DataLocation,
    bytes: u64,
) -> Duration {
    if from == to {
        return Duration::ZERO;
    }
    let pages = bytes.div_ceil(cfg.flash.page_bytes).max(1);
    let per_page_read = flash_timing.read_page() + flash_timing.page_dma();
    let per_page_prog = flash_timing.page_dma() + flash_timing.program_page();
    let bus = dram_timing.bus_transfer(bytes);
    let link = cfg.link.nvme_cmd_latency + cfg.link.transfer_time(bytes);
    match (from, to) {
        (DataLocation::Flash, DataLocation::Dram) => per_page_read * pages + bus,
        (DataLocation::Flash, DataLocation::CtrlSram) => per_page_read * pages,
        (DataLocation::Dram, DataLocation::CtrlSram)
        | (DataLocation::CtrlSram, DataLocation::Dram) => bus,
        (DataLocation::Dram, DataLocation::Flash)
        | (DataLocation::CtrlSram, DataLocation::Flash) => per_page_prog * pages,
        (DataLocation::Flash, DataLocation::Host) => per_page_read * pages + link,
        (_, DataLocation::Host) | (DataLocation::Host, _) => link,
        // `from == to` is handled above; this arm is unreachable.
        _ => Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SsdDevice;

    #[test]
    fn strip_estimates_match_scalar_queries() {
        let cfg = SsdConfig::small_for_tests();
        let dev = SsdDevice::new(&cfg).unwrap();
        let ifp = IfpModel::new(&cfg.flash);
        let pud = PudModel::new(&cfg.dram);
        let isp = IspModel::new(&cfg.ctrl);
        let ft = FlashTiming::new(&cfg.flash);
        let dt = DramTiming::new(&cfg.dram);
        let estimate = |latency, energy| Some(CostEstimate { latency, energy });
        // Each substrate model's own answer, for the resources that support
        // the operation.
        let model = |resource: Resource, op, bits, lanes| {
            if !resource.supports(op) {
                return None;
            }
            match resource {
                Resource::Ifp => {
                    let same_block = IfpPlacement::SameBlock { operands: 2 };
                    let c = ifp.op_cost(op, bits, lanes, same_block).ok()?;
                    estimate(c.latency, c.energy)
                }
                Resource::PudSsd => {
                    let c = pud
                        .op_cost(op, bits, lanes, cfg.dram.compute_units())
                        .ok()?;
                    estimate(c.latency, c.energy)
                }
                Resource::Isp => {
                    let c = isp.op_cost(op, bits, lanes);
                    estimate(c.latency, c.energy)
                }
            }
        };
        // Moving one vector into a resource's home: flash pages are sensed
        // and DMAed out (then cross the DRAM bus into DRAM) or DMAed in and
        // programmed; SRAM and DRAM trade over the bus; the host over the
        // link.
        let moved = |from, home, bytes: u64| {
            let pages = bytes.div_ceil(cfg.flash.page_bytes).max(1);
            let bus = dt.bus_transfer(bytes);
            let link = cfg.link.nvme_cmd_latency + cfg.link.transfer_time(bytes);
            match (from, home) {
                (DataLocation::Flash, DataLocation::Dram) => {
                    (ft.read_page() + ft.page_dma()) * pages + bus
                }
                (DataLocation::CtrlSram, DataLocation::Dram) => bus,
                (DataLocation::Dram | DataLocation::CtrlSram, DataLocation::Flash) => {
                    (ft.page_dma() + ft.program_page()) * pages
                }
                (DataLocation::Host, _) => link,
                _ => panic!("no {from} -> {home} move in this test"),
            }
        };
        // The two shapes the vectorizer emits, an odd lane count and a
        // 64-bit shape shorter than one flash page.
        for (bits, lanes) in [(32u32, 4096u32), (8, 4096), (32, 100), (64, 16)] {
            let bytes = u64::from(lanes) * u64::from(bits) / 8;
            for op in OpType::ALL {
                let strip = dev.estimate_strip(op, bits, lanes, bytes);
                assert_eq!((strip.op, strip.elem_bits, strip.lanes), (op, bits, lanes));
                for resource in Resource::ALL {
                    let expect = model(resource, op, bits, lanes);
                    assert_eq!(
                        strip.compute_for(resource),
                        expect,
                        "{resource}/{op}@{bits}x{lanes}"
                    );
                    if resource == Resource::PudSsd {
                        let shape = strip.pud.map(|s| CostEstimate {
                            latency: s.latency(cfg.dram.compute_units()),
                            energy: s.energy,
                        });
                        assert_eq!(shape, expect);
                    }
                    let home = resource.home_location();
                    for loc in DataLocation::ALL {
                        let expect = if loc == home {
                            Duration::ZERO
                        } else {
                            moved(loc, home, bytes)
                        };
                        assert_eq!(strip.move_from(resource, loc), expect, "{loc} -> {home}");
                    }
                }
            }
        }
    }

    #[test]
    fn unsupported_pairs_are_none_entries() {
        let dev = SsdDevice::new(&SsdConfig::small_for_tests()).unwrap();
        // Unsupported (resource, op) pairs have no entry; ISP runs them all.
        let div = dev.estimate_strip(OpType::Div, 32, 4096, 16 * 1024);
        assert_eq!(div.compute_for(Resource::Ifp), None);
        assert_eq!(div.compute_for(Resource::PudSsd), None);
        assert!(div.pud.is_none());
        assert!(div.compute_for(Resource::Isp).is_some());
        let scalar = dev.estimate_strip(OpType::Scalar, 32, 4096, 16 * 1024);
        assert_eq!(scalar.compute_for(Resource::PudSsd), None);
        assert!(scalar.pud.is_none());
        assert!(scalar.compute_for(Resource::Isp).is_some());
    }

    #[test]
    fn move_table_is_zero_on_the_diagonal() {
        let cfg = SsdConfig::small_for_tests();
        let dev = SsdDevice::new(&cfg).unwrap();
        let ft = FlashTiming::new(&cfg.flash);
        let dt = DramTiming::new(&cfg.dram);
        let bytes = 16 * 1024;
        // The full `latency_dm` table: zero on the diagonal, not elsewhere.
        for from in DataLocation::ALL {
            for to in DataLocation::ALL {
                let latency = static_move(&cfg, &ft, &dt, from, to, bytes);
                if from == to {
                    assert_eq!(latency, Duration::ZERO, "{from} -> {to}");
                } else {
                    assert!(latency > Duration::ZERO, "{from} -> {to}");
                }
            }
        }
        // The strip row reads the same: no move into a resource's own home.
        let strip = dev.estimate_strip(OpType::Add, 32, 4096, bytes);
        for resource in Resource::ALL {
            let home = resource.home_location();
            assert_eq!(strip.move_from(resource, home), Duration::ZERO);
            for loc in DataLocation::ALL.into_iter().filter(|&loc| loc != home) {
                assert!(strip.move_from(resource, loc) > Duration::ZERO);
            }
        }
    }
}
